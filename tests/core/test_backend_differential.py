"""Differential backend tests: reference ≡ numpy ≡ compiled, bit for bit.

Every tier of every inspector stage must produce the same schedule —
same partitions, same cut positions, same packing-load floats — or the
backend registry is changing *answers*, not just speed.  The default run
covers a representative subset of the dataset grid; set
``REPRO_DIFF_FULL=1`` to sweep all 34 matrices (the CI ``compiled`` job
does).  When the native library has not been built the compiled rows are
skipped, never silently downgraded: a silent numpy fallback would make
this suite vacuous exactly when it matters.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core import hdagg
from repro.core.backends import BackendSpec, BackendWarning
from repro.core.backends.native import available as native_available
from repro.suite import SUITE
from repro.suite.harness import build_cell

#: every family, both size buckets — the quick default grid
_SUBSET = [
    "mesh2d-s",
    "mesh2d-l",
    "mesh3d-s",
    "band-narrow",
    "rand-mid",
    "chain-pure",
    "blocks-many",
    "power-soft",
    "kite-small",
    "arrow-many",
]

MATRICES = (
    [s.name for s in SUITE] if os.environ.get("REPRO_DIFF_FULL") else _SUBSET
)

#: non-default tiers differenced against the numpy baseline; the compiled
#: tier only covers the two hot stages, so its spec names exactly those —
#: a bare "compiled" would (by design) warn-fallback on the others
TIER_SPECS = {
    "reference": "reference",
    "compiled": "lbp=compiled,coarsen=compiled",
}


def _schedule_for(cell, spec):
    g = cell.dag
    cost = np.asarray(cell.cost, dtype=np.float64)[: g.n]
    with warnings.catch_warnings():
        # a fallback warning here means the tier under test did not run
        warnings.simplefilter("error", BackendWarning)
        return hdagg(g, cost, cell.machine.n_cores, backend=spec)


def _assert_identical(a, b, context):
    assert a.n == b.n, context
    assert a.fine_grained == b.fine_grained, context
    assert len(a.levels) == len(b.levels), context
    for la, lb in zip(a.levels, b.levels):
        assert len(la) == len(lb), context
        for pa, pb in zip(la, lb):
            assert pa.core == pb.core, context
            assert np.array_equal(pa.vertices, pb.vertices), context
    # float bit-identity, not closeness: accumulated PGP is a sum of
    # packing-load means/maxima and must replay exactly across tiers
    assert a.meta["accumulated_pgp"] == b.meta["accumulated_pgp"], context
    assert list(a.meta["cut_positions"]) == list(b.meta["cut_positions"]), context
    assert a.meta["n_groups"] == b.meta["n_groups"], context


@pytest.fixture(scope="module")
def baseline_cells():
    """(cell, numpy schedule) per matrix, built once for every tier."""
    out = {}
    for name in MATRICES:
        cell = build_cell(name, kernel="sptrsv", machine="intel20")
        out[name] = (cell, _schedule_for(cell, BackendSpec()))
    return out


@pytest.mark.parametrize("matrix", MATRICES)
@pytest.mark.parametrize("tier", sorted(TIER_SPECS))
def test_tier_matches_numpy(baseline_cells, matrix, tier):
    if tier == "compiled" and not native_available():
        pytest.skip("native library not built (python -m repro.core.backends.build)")
    cell, base = baseline_cells[matrix]
    spec = BackendSpec.parse(TIER_SPECS[tier])
    other = _schedule_for(cell, spec)
    _assert_identical(base, other, f"{matrix}: {tier} vs numpy")
    # the schedule must advertise the tier that actually ran
    assert other.meta["backend"] == spec.describe()
    assert base.meta["backend"] == "numpy"


@pytest.mark.parametrize("matrix", _SUBSET[:4])
def test_mixed_specs_match_numpy(baseline_cells, matrix):
    """Per-stage mixes (the realistic production specs) agree too."""
    if not native_available():
        pytest.skip("native library not built (python -m repro.core.backends.build)")
    cell, base = baseline_cells[matrix]
    for raw in ("lbp=compiled", "coarsen=compiled", "lbp=compiled,coarsen=compiled",
                "aggregation=reference,lbp=compiled"):
        other = _schedule_for(cell, BackendSpec.parse(raw))
        _assert_identical(base, other, f"{matrix}: {raw} vs numpy")
        assert other.meta["backend"] == BackendSpec.parse(raw).describe()
