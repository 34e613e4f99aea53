"""plan_repair: dirtiness propagation along declared contracts."""

from repro.passes import build_hdagg_group, get_pass_group, plan_repair


def test_pattern_delta_buckets_match_repair_implementation():
    """Dirty {DAG, Cost} reproduces the recompute/splice split repair assumes."""
    plan = plan_repair(build_hdagg_group(), ("DAG", "Cost"))
    assert plan.recompute == ("transitive_reduction", "aggregation")
    assert plan.splice == ("coarsen", "lbp", "expand")
    assert plan.replay == ()
    assert plan.affected == (
        "transitive_reduction", "aggregation", "coarsen", "lbp", "expand"
    )
    # dirtiness closed over every produced artifact
    assert set(plan.dirty_artifacts) >= {
        "DAG", "Cost", "ReducedDAG", "Grouping", "CoarseDAG",
        "GroupCost", "CoarsenedWaves", "Schedule",
    }


def test_epsilon_only_delta_replays_the_structural_prefix():
    plan = plan_repair(build_hdagg_group(), ("Epsilon",))
    assert plan.replay == ("transitive_reduction", "aggregation", "coarsen")
    assert plan.recompute == ()
    assert plan.splice == ("lbp", "expand")


def test_clean_inputs_replay_everything():
    plan = plan_repair(build_hdagg_group(), ())
    assert plan.affected == ()
    assert plan.replay == (
        "transitive_reduction", "aggregation", "coarsen", "lbp", "expand"
    )
    assert plan.dirty_artifacts == ()


def test_ablation_group_plans_through_its_own_passes():
    plan = plan_repair(build_hdagg_group(aggregate=False), ("DAG", "Cost"))
    assert plan.recompute == ("identity-grouping",)
    assert plan.splice == ("coarsen", "lbp", "expand")
    assert plan.replay == ()


def test_baseline_groups_plan_without_special_cases():
    plan = plan_repair(get_pass_group("wavefront"), ("Cost",))
    # the level decomposition ignores cost; only the emit pass re-runs
    assert plan.replay == ("wavefronts",)
    assert plan.affected == ("emit-cost-chunks",)


def test_repair_schedule_stamps_the_plan_into_stats():
    import numpy as np

    from repro.core.incremental import inspect_with_artifacts, repair_schedule
    from repro.graph import DAG

    # 8 independent 5-vertex chains: wide enough that hdagg stays coarse
    srcs = [c * 5 + i for c in range(8) for i in range(4)]
    dsts = [c * 5 + i + 1 for c in range(8) for i in range(4)]
    g = DAG.from_edges(40, srcs, dsts)
    cost = np.ones(40)
    old = inspect_with_artifacts(g, cost, 2)
    g_new = DAG.from_edges(40, srcs + [0], dsts + [2])
    res = repair_schedule(old, g_new, cost)
    assert res.mode == "repaired"
    assert res.stats["plan"]["recompute"] == ["transitive_reduction", "aggregation"]
    assert res.stats["plan"]["splice"] == ["coarsen", "lbp", "expand"]
    assert res.stats["plan"]["replay"] == []
