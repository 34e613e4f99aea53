"""Executor runtime contract enforcement and scheduler-group equivalence."""

import numpy as np
import pytest

from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.passes import (
    Contract,
    PASS_GROUPS,
    Pass,
    PassContext,
    PassGroup,
    PipelineExecutionError,
    get_pass_group,
    run_group,
    run_scheduler,
)
from repro.schedulers import SCHEDULERS

from ..conftest import assert_same_arrays


def _pass(name, requires=(), produces=(), run=None, **kw):
    return Pass(
        name=name,
        contract=Contract(requires=requires, produces=produces),
        run=run or (lambda ctx: {}),
        **kw,
    )


def test_run_group_threads_artifacts_between_passes():
    group = PassGroup(
        name="two-step",
        passes=(
            _pass("first", requires=("DAG",), produces=("Wavefronts",),
                  run=lambda ctx: {"Wavefronts": ctx["DAG"] + 1}),
            _pass("second", requires=("Wavefronts",), produces=("Schedule",),
                  run=lambda ctx: {"Schedule": ctx["Wavefronts"] * 10}),
        ),
        inputs=("DAG",),
    )
    ctx = run_group(group, PassContext({"DAG": 4}))
    assert ctx["Schedule"] == 50


def test_run_group_rejects_missing_required_artifact():
    group = PassGroup(
        name="needs-cost",
        passes=(_pass("p", requires=("Cost",), produces=("Schedule",),
                      run=lambda ctx: {"Schedule": 1}),),
        inputs=("DAG",),
    )
    with pytest.raises(PipelineExecutionError) as exc_info:
        run_group(group, PassContext({"DAG": 0}))
    err = exc_info.value
    assert (err.group, err.pass_name) == ("needs-cost", "p")
    assert "['Cost']" in str(err)
    assert "verify_pipeline" in str(err)  # points at the static checker


def test_run_group_rejects_products_not_matching_declaration():
    # under-delivering and over-delivering are both contract violations
    lies = PassGroup(
        name="liar",
        passes=(_pass("p", requires=("DAG",), produces=("Schedule",),
                      run=lambda ctx: {"Schedule": 1, "Grouping": 2}),),
        inputs=("DAG",),
    )
    with pytest.raises(PipelineExecutionError, match="do not match declared produces"):
        run_group(lies, PassContext({"DAG": 0}))
    silent = PassGroup(
        name="silent",
        passes=(_pass("p", requires=("DAG",), produces=("Schedule",),
                      run=lambda ctx: {}),),
        inputs=("DAG",),
    )
    with pytest.raises(PipelineExecutionError, match="do not match declared produces"):
        run_group(silent, PassContext({"DAG": 0}))


def test_run_group_rejects_unproduced_group_output():
    group = PassGroup(
        name="no-output",
        passes=(_pass("p", requires=("DAG",), produces=("Grouping",),
                      run=lambda ctx: {"Grouping": 1}),),
        inputs=("DAG",),
        outputs=("Schedule",),
    )
    with pytest.raises(PipelineExecutionError, match="'Schedule' was never produced"):
        run_group(group, PassContext({"DAG": 0}))


def test_get_pass_group_unknown_name_lists_registered():
    with pytest.raises(KeyError, match="unknown pass group 'nope'"):
        get_pass_group("nope")


def test_every_scheduler_has_a_registered_pass_group():
    assert set(PASS_GROUPS) == set(SCHEDULERS)


def _mesh_dag_and_cost(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    return g, cost


@pytest.mark.parametrize("name", ["wavefront", "spmp", "mkl", "lbc", "dagp"])
def test_scheduler_group_matches_public_function(name, mesh_nd):
    """The registered group run on a hand-seeded context is the registry
    builder, bit for bit: the driver seeds the right inputs and defaults."""
    g, cost = _mesh_dag_and_cost(mesh_nd)
    group = get_pass_group(name)
    seeds = {"DAG": g, "Cost": cost, "Cores": 4, "Epsilon": 0.1}
    ctx = PassContext(
        {a: v for a, v in seeds.items() if a in group.inputs},
        options={"k": 1000} if name == "dagp" else None,
    )
    via_group = run_group(group, ctx)["Schedule"]
    via_function = SCHEDULERS[name](g, cost, 4)
    assert via_group.algorithm == via_function.algorithm
    assert via_group.execution_order().tolist() == via_function.execution_order().tolist()
    assert_same_arrays(via_group, via_function)


def test_hdagg_group_runs_through_uniform_driver(mesh_nd):
    """The driver runs hdagg by name too: it seeds the Backend artifact
    with the active tier, exactly as the public hdagg() does."""
    from repro.core import hdagg

    g, cost = _mesh_dag_and_cost(mesh_nd)
    via_group = run_scheduler("hdagg", g, cost, 4, 0.5)["Schedule"]
    via_function = hdagg(g, cost, 4, epsilon=0.5)
    assert via_group.execution_order().tolist() == via_function.execution_order().tolist()
    assert_same_arrays(via_group, via_function)


def test_hdagg_group_runs_standalone():
    """The registered hdagg group executes outside its driver too."""
    from repro.core import active_tier

    g = DAG.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    cost = np.ones(6)
    ctx = PassContext(
        {"DAG": g, "Cost": cost, "Cores": 2, "Epsilon": 0.1, "Backend": active_tier()}
    )
    run_group(get_pass_group("hdagg"), ctx)
    schedule = ctx["Schedule"]
    schedule.validate(g)
    via_driver = SCHEDULERS["hdagg"](g, cost, 2, epsilon=0.1)
    assert schedule.execution_order().tolist() == via_driver.execution_order().tolist()
    # intermediate artifacts stay inspectable on the context
    for artifact in ("ReducedDAG", "Grouping", "CoarseDAG", "GroupCost", "CoarsenedWaves"):
        assert ctx.has(artifact), artifact


@pytest.mark.parametrize("name", sorted(PASS_GROUPS))
def test_every_scheduler_reports_per_pass_stage_seconds(name, mesh_nd):
    """The driver times every pass of every scheduler under its pass name,
    and the split never claims more than the call took."""
    import time

    g, cost = _mesh_dag_and_cost(mesh_nd)
    t0 = time.perf_counter()
    schedule = SCHEDULERS[name](g, cost, 4)
    wall = time.perf_counter() - t0
    stages = schedule.meta["stage_seconds"]
    assert list(stages) == [p.name for p in get_pass_group(name).passes]
    assert all(s >= 0.0 for s in stages.values())
    assert sum(stages.values()) <= wall


def test_epsilon_and_backend_reach_only_the_groups_that_declare_them(mesh_nd):
    from repro.core import active_tier

    g, cost = _mesh_dag_and_cost(mesh_nd)
    plain = SCHEDULERS["wavefront"](g, cost, 4)
    with_eps = SCHEDULERS["wavefront"](g, cost, 4, 0.3)
    assert with_eps.execution_order().tolist() == plain.execution_order().tolist()
    assert "backend" not in with_eps.meta
    hd = SCHEDULERS["hdagg"](g, cost, 4, 0.3)
    assert hd.meta["epsilon"] == 0.3 and hd.meta["backend"] == active_tier()
    # the tier is the platform's to choose, not an option
    with pytest.raises(TypeError, match="unexpected options \\['backend'\\]"):
        SCHEDULERS["hdagg"](g, cost, 4, 0.3, backend="numpy")


def test_group_specific_options_are_rejected_elsewhere(mesh_nd):
    g, cost = _mesh_dag_and_cost(mesh_nd)
    assert SCHEDULERS["coarsenk"](g, cost, 4, k=2).meta["window"] == 2
    with pytest.raises(TypeError, match="unexpected options \\['k'\\]"):
        SCHEDULERS["wavefront"](g, cost, 4, k=2)
    with pytest.raises(TypeError, match="requires the core count"):
        SCHEDULERS["hdagg"](g, cost)
