"""Stage differential tests: oracle ≡ numpy ≡ compiled, bit for bit.

:data:`STAGES` is the one table of the HDagg inspector's stage
implementations: pass name → (fast function the pass runs without the
native library, retained loop oracle or ``None``, compiled function or
``None``).  ``coarsen`` and ``expand`` never grew a loop oracle (their
outputs are integer-exact gathers); ``lbp``'s oracle packs with
``first_fit_pack_reference``, so it covers bin packing too.

Every row is fed the same inputs — the products of the numpy chain — and
must return the same bytes: same arrays and dtypes, same packing-load
floats.  The default run covers a representative subset of the dataset
grid; set ``REPRO_DIFF_FULL=1`` to sweep all 34 matrices.  When the
native library has not been built the compiled rows are skipped, never
compared against the numpy fallback they would silently run.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core import active_tier, hdagg
from repro.core.aggregation import subtree_grouping, subtree_grouping_reference
from repro.core.backends.compiled import coarsen_compiled, coarsen_numpy, lbp_coarsen_compiled
from repro.core.backends.native import available as native_available
from repro.core.hdagg import expand_lbp_to_schedule
from repro.core.lbp import lbp_coarsen, lbp_coarsen_reference
from repro.core.pgp import DEFAULT_EPSILON
from repro.graph import DAG
from repro.graph.coarsen import Grouping
from repro.graph.transitive_reduction import (
    transitive_reduction_reference,
    transitive_reduction_two_hop,
)
from repro.passes import build_hdagg_group
from repro.suite import SUITE
from repro.suite.harness import build_cell

#: pass name -> (fast, oracle or None, compiled or None), in pass order
STAGES = {
    "transitive_reduction": (
        transitive_reduction_two_hop, transitive_reduction_reference, None,
    ),
    "aggregation": (subtree_grouping, subtree_grouping_reference, None),
    "coarsen": (coarsen_numpy, None, coarsen_compiled),
    "lbp": (lbp_coarsen, lbp_coarsen_reference, lbp_coarsen_compiled),
    "expand": (expand_lbp_to_schedule, None, None),
}

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

#: table column compared against the fast function, per tier
_COLUMN = {"reference": 1, "compiled": 2}


def _canon(x):
    """``x`` as nested tuples of exact values: arrays by dtype, shape and
    bytes, floats by their bit pattern."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, DAG):
        return ("DAG", x.n, _canon(x.indptr), _canon(x.indices))
    if isinstance(x, Grouping):
        return ("Grouping", x.n_groups, _canon(x.labels))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _canon(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if hasattr(x, "__slots__"):  # BinPacking
        return (type(x).__name__,) + tuple(_canon(getattr(x, s)) for s in x.__slots__)
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _canon(v)) for k, v in x.items()))
    if isinstance(x, float):
        return ("float", float(x).hex())
    return x


def _numpy_chain(cell):
    """``(stage args, schedule)``: each pass's arguments, produced by the
    fast functions in pass order exactly as the hdagg passes call them."""
    fast = {name: row[0] for name, row in STAGES.items()}
    g = cell.dag
    cost = np.asarray(cell.cost, dtype=np.float64)[: g.n]
    p = cell.machine.n_cores
    cap = 0.25 * float(cost.sum()) / p  # the default group_cost_cap_fraction
    args = {"transitive_reduction": (g,)}
    reduced = fast["transitive_reduction"](g)
    args["aggregation"] = (reduced, cost, cap)
    grouping = fast["aggregation"](*args["aggregation"])
    args["coarsen"] = (reduced, grouping, cost)
    g2, group_cost = fast["coarsen"](*args["coarsen"])
    args["lbp"] = (g2, group_cost, p, DEFAULT_EPSILON)
    lbp = fast["lbp"](*args["lbp"])
    args["expand"] = (lbp, grouping, g.n, p)
    return args, fast["expand"](*args["expand"])


@pytest.fixture(scope="module")
def chains():
    """(cell, stage args, numpy-chain schedule) per matrix, built once."""
    out = {}
    for name in MATRICES:
        cell = build_cell(name, kernel="sptrsv", machine="intel20")
        out[name] = (cell, *_numpy_chain(cell))
    return out


def test_every_hdagg_pass_has_a_table_row():
    """A pass added to the HDagg group must bring its row (and so its
    differential) with it; a row whose pass is gone is dead."""
    passes = [p.name for p in build_hdagg_group().passes]
    assert passes == list(STAGES)


@pytest.mark.parametrize("matrix", MATRICES)
@pytest.mark.parametrize("tier", sorted(_COLUMN))
def test_tier_matches_numpy(chains, matrix, tier):
    if tier == "compiled" and not native_available():
        pytest.skip("native library not built (python -m repro.core.backends.build)")
    _, args, _ = chains[matrix]
    for stage, row in STAGES.items():
        other = row[_COLUMN[tier]]
        if other is None:
            continue
        expected = _canon(row[0](*args[stage]))
        assert _canon(other(*args[stage])) == expected, f"{matrix}: {stage} {tier} vs numpy"


@pytest.mark.parametrize("matrix", MATRICES)
def test_hdagg_matches_the_numpy_chain(chains, matrix):
    """The passes run the table's functions: the driver's schedule equals
    the numpy chain's, whichever tier ran, and names that tier."""
    cell, _, expected = chains[matrix]
    g = cell.dag
    cost = np.asarray(cell.cost, dtype=np.float64)[: g.n]
    s = hdagg(g, cost, cell.machine.n_cores)
    for name in ("order", "part_ptr", "part_core", "level_ptr"):
        assert _canon(getattr(s, name)) == _canon(getattr(expected, name)), (matrix, name)
    assert s.fine_grained == expected.fine_grained
    assert s.meta["backend"] == active_tier()
