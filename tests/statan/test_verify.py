"""Static pipeline verification: accept every registered group, reject the
seeded ill-formed recombinations with the exact SP0xx rule and a usable hint.
"""

import pytest

from repro.passes import Contract, PASS_GROUPS, Pass, PassGroup, build_hdagg_group
from repro.statan import assert_valid, verify_pipeline, verify_registered_groups


def _pass(name, requires=(), produces=(), **contract_kw):
    return Pass(
        name=name,
        contract=Contract(requires=requires, produces=produces, **contract_kw),
        run=lambda ctx: {},
    )


def _errors(diags):
    return [d for d in diags if d.severity == "error"]


def _rules(diags):
    return sorted({d.rule for d in diags})


# ----------------------------------------------------------------------
# acceptance: the registered pipelines and their ablations are well-formed
# ----------------------------------------------------------------------
def test_every_registered_group_is_accepted():
    results = verify_registered_groups()
    assert set(results) == set(PASS_GROUPS)
    for name, diags in results.items():
        assert _errors(diags) == [], (name, [d.render() for d in diags])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"transitive_reduce": False},
        {"aggregate": False},
        {"bin_pack": False},
        {"aggregate": False, "bin_pack": False},
    ],
    ids=lambda kw: "+".join(sorted(kw)),
)
def test_hdagg_ablation_variants_are_accepted(kwargs):
    diags = verify_pipeline(build_hdagg_group(**kwargs))
    assert _errors(diags) == [], [d.render() for d in diags]


# ----------------------------------------------------------------------
# rejection: one seeded ill-formed pipeline per rule
# ----------------------------------------------------------------------
def _without_pass(group, name):
    return PassGroup(
        name=f"{group.name}-minus-{name}",
        passes=tuple(p for p in group.passes if p.name != name),
        inputs=group.inputs,
        outputs=group.outputs,
        assumes=group.assumes,
    )


def test_sp001_dropped_producer_is_rejected_with_fix_hint():
    broken = _without_pass(build_hdagg_group(), "coarsen")
    diags = _errors(verify_pipeline(broken))
    assert diags and all(d.rule == "SP001" for d in diags)
    missing = {d.message.split("'")[1] for d in diags}
    assert missing == {"CoarseDAG", "GroupCost"}
    lbp = [d for d in diags if d.pass_name == "lbp"]
    assert lbp, [d.render() for d in diags]
    assert "add 'CoarseDAG' to the group inputs" in lbp[0].hint
    assert lbp[0].group == broken.name


def test_sp001_reordered_passes_hint_names_the_later_producer():
    group = build_hdagg_group()
    reordered = PassGroup(
        name="hdagg-lbp-before-coarsen",
        passes=(
            group.pass_named("transitive_reduction"),
            group.pass_named("aggregation"),
            group.pass_named("lbp"),
            group.pass_named("coarsen"),
            group.pass_named("expand"),
        ),
        inputs=group.inputs,
        outputs=group.outputs,
        assumes=group.assumes,
    )
    diags = _errors(verify_pipeline(reordered))
    # lbp's inputs are missing where it now sits, and coarsen's GroupCost is
    # left dead behind it — the misordering surfaces from both directions
    assert _rules(diags) == ["SP001", "SP003"]
    hints = {d.hint for d in diags if d.pass_name == "lbp"}
    assert any("move pass 'coarsen'" in h and "before 'lbp'" in h for h in hints)


def test_sp002_unestablished_invariant_is_rejected():
    group = PassGroup(
        name="needs-reduced",
        passes=(
            _pass(
                "emit",
                requires=("DAG",),
                produces=("Schedule",),
                requires_invariants=("transitively-reduced",),
            ),
        ),
        inputs=("DAG",),
        assumes=("acyclic",),
    )
    diags = _errors(verify_pipeline(group))
    assert _rules(diags) == ["SP002"]
    (d,) = diags
    assert "'transitively-reduced'" in d.message
    assert "assumes" in d.hint


def test_sp003_dead_artifact_is_rejected():
    group = PassGroup(
        name="dead-product",
        passes=(
            _pass("grouper", requires=("DAG",), produces=("Grouping",)),
            _pass("emit", requires=("DAG",), produces=("Schedule",)),
        ),
        inputs=("DAG",),
    )
    diags = _errors(verify_pipeline(group))
    assert _rules(diags) == ["SP003"]
    (d,) = diags
    assert d.pass_name == "grouper" and "'Grouping'" in d.message


def test_sp005_duplicate_producer_is_rejected():
    group = PassGroup(
        name="double-schedule",
        passes=(
            _pass("emit-a", requires=("DAG",), produces=("Schedule",)),
            _pass("emit-b", requires=("DAG",), produces=("Schedule",)),
        ),
        inputs=("DAG",),
    )
    diags = _errors(verify_pipeline(group))
    assert _rules(diags) == ["SP005"]
    (d,) = diags
    assert d.pass_name == "emit-b" and "already provided by 'emit-a'" in d.message


def test_sp005_pass_shadowing_an_input_is_rejected():
    group = PassGroup(
        name="shadow-input",
        passes=(
            _pass("rebuild-dag", requires=("Cost",), produces=("DAG",)),
            _pass("emit", requires=("DAG",), produces=("Schedule",)),
        ),
        inputs=("DAG", "Cost"),
    )
    diags = _errors(verify_pipeline(group))
    assert _rules(diags) == ["SP005"]
    assert "already provided by '<inputs>'" in diags[0].message


def test_sp006_unproduced_output_is_rejected():
    group = PassGroup(
        name="no-schedule",
        passes=(_pass("grouper", requires=("DAG",), produces=("Grouping",)),),
        inputs=("DAG",),
        outputs=("Schedule", "Grouping"),
    )
    diags = _errors(verify_pipeline(group))
    assert _rules(diags) == ["SP006"]
    (d,) = diags
    assert d.pass_name is None and "'Schedule' is never produced" in d.message


def test_sp007_invalidated_invariant_names_the_invalidator():
    group = PassGroup(
        name="stale-topo",
        passes=(
            _pass(
                "renumber",
                requires=("DAG",),
                produces=("ReducedDAG",),
                invalidates=("topo-ordered",),
            ),
            _pass(
                "emit",
                requires=("ReducedDAG",),
                produces=("Schedule",),
                requires_invariants=("topo-ordered",),
            ),
        ),
        inputs=("DAG",),
        assumes=("acyclic", "topo-ordered"),
    )
    diags = _errors(verify_pipeline(group))
    assert _rules(diags) == ["SP007"]
    (d,) = diags
    assert "after pass 'renumber' invalidated it" in d.message
    assert "re-establish 'topo-ordered'" in d.hint


def test_sp007_reestablished_invariant_is_accepted():
    group = PassGroup(
        name="reestablished-topo",
        passes=(
            _pass("renumber", requires=("DAG",), produces=("ReducedDAG",),
                  invalidates=("topo-ordered",)),
            _pass("sort", requires=("ReducedDAG",), produces=("CoarseDAG",),
                  establishes=("topo-ordered",)),
            _pass("emit", requires=("CoarseDAG",), produces=("Schedule",),
                  requires_invariants=("topo-ordered",)),
        ),
        inputs=("DAG",),
        assumes=("acyclic", "topo-ordered"),
    )
    assert _errors(verify_pipeline(group)) == []


def test_sp008_vacuous_preserve_is_a_warning_not_an_error():
    group = PassGroup(
        name="vacuous-preserve",
        passes=(
            _pass("emit", requires=("DAG",), produces=("Schedule",),
                  preserves=("balanced-under-epsilon",)),
        ),
        inputs=("DAG",),
    )
    diags = verify_pipeline(group)
    assert _errors(diags) == []  # still accepted
    assert _rules(diags) == ["SP008"]
    (d,) = diags
    assert d.severity == "warning"
    assert "not held here" in d.message


# ----------------------------------------------------------------------
# diagnostics shape and the assertion helper
# ----------------------------------------------------------------------
def test_diagnostics_are_structured_and_renderable():
    broken = _without_pass(build_hdagg_group(), "lbp")
    for d in verify_pipeline(broken):
        assert d.rule.startswith("SP")
        assert d.group == broken.name
        assert d.message and d.hint
        text = d.render()
        assert d.rule in text and broken.name in text
        blob = d.to_json()
        assert blob["rule"] == d.rule and blob["severity"] in ("error", "warning")


def test_assert_valid_raises_with_rendered_errors():
    broken = _without_pass(build_hdagg_group(), "expand")
    with pytest.raises(ValueError) as exc_info:
        assert_valid(broken)
    msg = str(exc_info.value)
    assert "ill-formed" in msg and "SP006" in msg
    # the registered default passes the same gate
    assert_valid(PASS_GROUPS["hdagg"])
