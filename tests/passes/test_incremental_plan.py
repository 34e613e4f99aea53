"""affected_passes: dirtiness propagation along declared contracts."""

from repro.passes import affected_passes, build_hdagg_group, get_pass_group


def test_pattern_change_reaches_every_hdagg_pass():
    """Dirty {DAG, Cost} reaches the two passes the repair recomputes and
    then the three it splices, which is what makes hdagg repairable."""
    from repro.core.incremental import repairable

    assert affected_passes(build_hdagg_group(), ("DAG", "Cost")) == (
        "transitive_reduction", "aggregation", "coarsen", "lbp", "expand"
    )
    assert repairable(build_hdagg_group())


def test_epsilon_only_delta_replays_the_structural_prefix():
    assert affected_passes(build_hdagg_group(), ("Epsilon",)) == ("lbp", "expand")


def test_clean_inputs_replay_everything():
    assert affected_passes(build_hdagg_group(), ()) == ()


def test_ablation_group_plans_through_its_own_passes():
    assert affected_passes(build_hdagg_group(aggregate=False), ("DAG", "Cost")) == (
        "identity-grouping", "coarsen", "lbp", "expand"
    )


def test_baseline_groups_plan_without_special_cases():
    # the level decomposition ignores cost; only the emit pass re-runs
    assert affected_passes(get_pass_group("wavefront"), ("Cost",)) == ("emit-cost-chunks",)
