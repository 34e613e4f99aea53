"""Contract and context model: closed catalogs, typo hints, artifact store."""

import pytest

from repro.passes import (
    ARTIFACTS,
    Contract,
    ContractError,
    INVARIANTS,
    MissingArtifactError,
    Pass,
    PassContext,
    PassGroup,
)


def _noop(ctx):
    return {}


def test_catalogs_are_nonempty_and_documented():
    for catalog in (ARTIFACTS, INVARIANTS):
        assert catalog
        for name, doc in catalog.items():
            assert name and doc, name


def test_contract_accepts_catalog_names():
    c = Contract(
        requires=("DAG", "Cost"),
        produces=("Schedule",),
        requires_invariants=("acyclic",),
        establishes=("vertex-cover",),
        preserves=("topo-ordered",),
        invalidates=("transitively-reduced",),
    )
    assert c.requires == ("DAG", "Cost")


def test_unknown_artifact_rejected_with_close_match_hint():
    with pytest.raises(ContractError) as exc_info:
        Contract(requires=("Schedul",))
    msg = str(exc_info.value)
    assert "unknown artifact 'Schedul'" in msg
    assert "did you mean 'Schedule'?" in msg


def test_unknown_invariant_rejected_with_close_match_hint():
    with pytest.raises(ContractError) as exc_info:
        Contract(establishes=("acyclical",))
    msg = str(exc_info.value)
    assert "unknown invariant 'acyclical'" in msg
    assert "did you mean 'acyclic'?" in msg


def test_unknown_name_without_neighbour_lists_catalog():
    with pytest.raises(ContractError) as exc_info:
        Contract(produces=("zzz-nothing-close",))
    assert "catalog:" in str(exc_info.value)


def test_establishes_and_invalidates_must_be_disjoint():
    with pytest.raises(ContractError, match="both establishes and invalidates"):
        Contract(establishes=("acyclic",), invalidates=("acyclic",))


def test_pass_group_lookup_by_name():
    p = Pass(name="only", contract=Contract(produces=("Schedule",)), run=_noop)
    group = PassGroup(name="g", passes=(p,), inputs=("DAG",))
    assert group.pass_named("only") is p
    with pytest.raises(KeyError, match="no pass named 'missing'"):
        group.pass_named("missing")


def test_context_get_put_has_names():
    ctx = PassContext({"DAG": "g"}, options={"k": 2})
    assert ctx.has("DAG") and not ctx.has("Cost")
    assert ctx["DAG"] == "g"
    ctx.put("Cost", [1.0])
    assert set(ctx.names()) == {"DAG", "Cost"}
    assert ctx.options["k"] == 2


def test_context_missing_artifact_error_lists_available():
    ctx = PassContext({"DAG": "g", "Cores": 4})
    with pytest.raises(MissingArtifactError) as exc_info:
        ctx.get("Schedule")
    err = exc_info.value
    assert err.artifact == "Schedule"
    assert set(err.available) == {"DAG", "Cores"}
    assert "available: ['Cores', 'DAG']" in str(err)
    # it is still a KeyError, so existing `except KeyError` callers work
    assert isinstance(err, KeyError)


def test_registered_contracts_only_use_catalog_names():
    """Every registered group was constructed through the validating path."""
    from repro.passes import PASS_GROUPS

    for group in PASS_GROUPS.values():
        for p in group.passes:
            for a in p.contract.requires + p.contract.produces:
                assert a in ARTIFACTS, (group.name, p.name, a)
            for inv in (
                p.contract.requires_invariants
                + p.contract.establishes
                + p.contract.preserves
                + p.contract.invalidates
            ):
                assert inv in INVARIANTS, (group.name, p.name, inv)
