"""Backend registry: spec grammar, canonicalisation, resolution, fallback."""

import warnings

import numpy as np
import pytest

from repro.core import hdagg
from repro.core.backends import (
    DEFAULT_TIER,
    ENV_VAR,
    STAGES,
    TIERS,
    BackendSpec,
    BackendWarning,
    available_tiers,
    register_backend,
    reset_fallback_warnings,
    resolve_stage,
)
from repro.graph import dag_from_matrix_lower
from repro.sparse import poisson2d


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
def test_empty_spec_is_all_numpy():
    for raw in (None, "", "  "):
        spec = BackendSpec.parse(raw)
        assert spec.entries == ()
        assert spec.describe() == DEFAULT_TIER
        assert all(spec.tier(s) == DEFAULT_TIER for s in STAGES)


def test_bare_tier_applies_to_every_stage():
    spec = BackendSpec.parse("compiled")
    assert all(spec.tier(s) == "compiled" for s in STAGES)
    assert spec.describe() == "compiled"
    assert BackendSpec.parse("all=compiled") == spec


def test_per_stage_entries_are_canonically_sorted():
    a = BackendSpec.parse("lbp=compiled,coarsen=compiled")
    b = BackendSpec.parse("coarsen=compiled, lbp=compiled")
    assert a == b
    assert hash(a) == hash(b)
    assert a.describe() == "coarsen=compiled,lbp=compiled"


def test_default_tier_entries_are_dropped():
    # writing `lbp=numpy` selects nothing non-default: same spec as empty
    assert BackendSpec.parse("lbp=numpy") == BackendSpec()
    assert BackendSpec.parse("lbp=numpy,coarsen=compiled").describe() == (
        "coarsen=compiled"
    )


def test_retired_stage_spellings_list_the_valid_stages():
    # stages carry their pass names; the old short spellings are gone
    for raw in ("reduce=reference", "aggregate=reference", "bin_pack=reference"):
        with pytest.raises(ValueError, match="transitive_reduction.*aggregation"):
            BackendSpec.parse(raw)


def test_describe_parse_roundtrip():
    for raw in ("", "compiled", "reference", "lbp=compiled",
                "lbp=compiled,coarsen=compiled", "aggregation=reference,lbp=compiled"):
        spec = BackendSpec.parse(raw)
        assert BackendSpec.parse(spec.describe()) == spec


def test_bad_specs_raise():
    with pytest.raises(ValueError):
        BackendSpec.parse("warp=compiled")  # unknown stage
    with pytest.raises(ValueError):
        BackendSpec.parse("lbp=cuda")  # unknown tier
    with pytest.raises(ValueError):
        BackendSpec.parse("lbp compiled")  # missing '='
    with pytest.raises(TypeError):
        BackendSpec.coerce(42)


def test_coerce_sources(monkeypatch):
    spec = BackendSpec.parse("lbp=reference")
    assert BackendSpec.coerce(spec) is spec
    assert BackendSpec.coerce("lbp=reference") == spec
    monkeypatch.setenv(ENV_VAR, "lbp=reference")
    assert BackendSpec.coerce(None) == spec
    monkeypatch.delenv(ENV_VAR)
    assert BackendSpec.coerce(None) == BackendSpec()


def test_with_stage_reassigns_one_cell():
    spec = BackendSpec.parse("lbp=compiled").with_stage("lbp", "reference")
    assert spec.tier("lbp") == "reference"
    assert spec.with_stage("lbp", "numpy") == BackendSpec()


# ----------------------------------------------------------------------
# registry and fallback
# ----------------------------------------------------------------------
def test_numpy_and_reference_tiers_always_available():
    for stage in STAGES:
        tiers = available_tiers(stage)
        assert DEFAULT_TIER in tiers
        fn, tier = resolve_stage(BackendSpec(), stage)
        assert callable(fn)
        assert tier == DEFAULT_TIER


def test_reference_coarsen_aliases_numpy_without_warning():
    # coarsen/expand never grew a loop oracle; reference aliases numpy by
    # design and must not trip the fallback warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendWarning)
        fn, tier = resolve_stage(BackendSpec.parse("coarsen=reference"), "coarsen")
    assert tier == "reference"
    assert callable(fn)


def test_unavailable_tier_warns_once_then_stays_quiet():
    # binpack has no compiled implementation: requesting it must degrade
    # to numpy with exactly one BackendWarning per process
    spec = BackendSpec.parse("binpack=compiled")
    reset_fallback_warnings()
    with pytest.warns(BackendWarning, match="falling back"):
        fn, tier = resolve_stage(spec, "binpack")
    assert tier == DEFAULT_TIER
    assert callable(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendWarning)
        fn2, tier2 = resolve_stage(spec, "binpack")  # second call: silent
    assert tier2 == DEFAULT_TIER
    reset_fallback_warnings()
    with pytest.warns(BackendWarning):
        resolve_stage(spec, "binpack")  # re-armed after reset
    reset_fallback_warnings()


def test_effective_folds_unavailable_tiers_to_numpy():
    eff = BackendSpec.parse("binpack=compiled").effective()
    assert eff.tier("binpack") == DEFAULT_TIER


def test_register_backend_overrides_a_cell():
    sentinel = object()

    def loader():
        return lambda *a, **k: sentinel

    try:
        register_backend("binpack", "compiled", loader)
        fn, tier = resolve_stage(BackendSpec.parse("binpack=compiled"), "binpack")
        assert tier == "compiled"
        assert fn() is sentinel
    finally:
        # restore the unavailable state (loader returning None == absent)
        register_backend("binpack", "compiled", lambda: None)
        reset_fallback_warnings()


# ----------------------------------------------------------------------
# end-to-end selection
# ----------------------------------------------------------------------
def test_hdagg_stamps_effective_backend(monkeypatch):
    g = dag_from_matrix_lower(poisson2d(12, seed=3))
    cost = np.ones(g.n)
    s = hdagg(g, cost, 4)
    assert s.meta["backend"] == DEFAULT_TIER
    s_ref = hdagg(g, cost, 4, backend="reference")
    assert s_ref.meta["backend"] == "reference"
    monkeypatch.setenv(ENV_VAR, "lbp=reference")
    s_env = hdagg(g, cost, 4)
    assert s_env.meta["backend"] == "lbp=reference"
    # env selection must not change the schedule itself
    assert [len(lv) for lv in s_env.levels] == [len(lv) for lv in s.levels]
