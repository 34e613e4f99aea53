"""Graceful degradation: inspector budgets and the fallback chain."""

import time

import numpy as np
import pytest

from repro.kernels import KERNELS
from repro.resilience.degrade import (
    FALLBACK_CHAIN,
    TERMINAL_FALLBACK,
    DegradationError,
    InspectorTimeout,
    fallback_chain,
    inspect_with_fallback,
    run_with_budget,
)
from repro.resilience.faults import FaultPlan, FaultSpec, armed
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle, poisson2d


@pytest.fixture(scope="module")
def problem():
    operand = lower_triangle(poisson2d(8, seed=3))
    kernel = KERNELS["sptrsv"]
    g = kernel.dag(operand)
    return g, kernel.cost(operand)


class TestFallbackChain:
    def test_every_chain_ends_in_serial(self):
        for algo in list(FALLBACK_CHAIN) + [TERMINAL_FALLBACK]:
            chain = fallback_chain(algo)
            assert chain[0] == algo
            assert chain[-1] == TERMINAL_FALLBACK
            assert len(chain) == len(set(chain))

    def test_hdagg_chain_shape(self):
        assert fallback_chain("hdagg") == ["hdagg", "wavefront", "serial"]
        assert fallback_chain("wavefront") == ["wavefront", "serial"]
        assert fallback_chain("serial") == ["serial"]


class TestRunWithBudget:
    def test_no_budget_is_direct_call(self):
        assert run_with_budget(lambda: 42, None) == 42

    def test_result_within_budget(self):
        assert run_with_budget(lambda: "ok", 5.0, algorithm="x") == "ok"

    def test_timeout_raises(self):
        t0 = time.perf_counter()
        with pytest.raises(InspectorTimeout) as exc_info:
            run_with_budget(lambda: time.sleep(5.0), 0.05, algorithm="slow")
        assert time.perf_counter() - t0 < 2.0
        assert exc_info.value.algorithm == "slow"
        assert exc_info.value.budget == pytest.approx(0.05)

    def test_worker_exception_reraised_on_caller(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError, match="inner"):
            run_with_budget(boom, 5.0)


class TestInspectWithFallback:
    def test_success_path_is_not_degraded(self, problem):
        g, cost = problem
        outcome = inspect_with_fallback("hdagg", g, cost, 4, epsilon=0.5)
        assert outcome.algorithm == "hdagg"
        assert not outcome.degraded
        assert outcome.degraded_from == ""
        direct = SCHEDULERS["hdagg"](g, cost, 4, epsilon=0.5)
        assert (
            outcome.schedule.execution_order().tolist()
            == direct.execution_order().tolist()
        )

    def test_injected_exception_degrades_to_wavefront(self, problem):
        g, cost = problem
        plan = FaultPlan([FaultSpec("inspector", "raise", times=-1, match="hdagg")])
        with armed(plan):
            outcome = inspect_with_fallback("hdagg", g, cost, 4)
        assert outcome.degraded
        assert outcome.algorithm == "wavefront"
        assert outcome.requested == "hdagg"
        assert outcome.degraded_from == "hdagg"
        assert outcome.failures[0].error_type == "FaultError"

    def test_budget_timeout_degrades(self, problem):
        g, cost = problem
        plan = FaultPlan(
            [FaultSpec("inspector", "stall", times=-1, match="hdagg", duration=1.0)]
        )
        with armed(plan):
            outcome = inspect_with_fallback("hdagg", g, cost, 4, budget=0.1)
        assert outcome.degraded and outcome.algorithm == "wavefront"
        assert outcome.failures[0].error_type == "InspectorTimeout"

    def test_unsafe_schedule_is_refuted_and_degraded(self, problem, monkeypatch):
        import random

        from repro.resilience.faults import corrupt_schedule

        from repro.passes import PASS_GROUPS, Contract, Pass, PassGroup

        g, cost = problem
        real = SCHEDULERS["wavefront"]

        def bad_inspector(ctx):
            schedule = real(ctx["DAG"], ctx["Cost"], ctx["Cores"])
            return {"Schedule": corrupt_schedule(schedule, random.Random(0))}

        inputs = ("DAG", "Cost", "Cores")
        bad = PassGroup(
            name="spmp",
            passes=(Pass("corrupt", Contract(requires=inputs, produces=("Schedule",)),
                         bad_inspector),),
            inputs=inputs,
        )
        monkeypatch.setitem(PASS_GROUPS, "spmp", bad)
        outcome = inspect_with_fallback("spmp", g, cost, 4)
        assert outcome.degraded
        assert outcome.algorithm == "wavefront"
        assert outcome.degraded_from == "spmp"
        assert outcome.failures[0].error_type == "ScheduleError"

    def test_validate_false_accepts_without_verification(self, problem):
        g, cost = problem
        outcome = inspect_with_fallback("wavefront", g, cost, 4, validate=False)
        assert not outcome.degraded

    def test_whole_chain_failing_raises_degradation_error(self, problem):
        g, cost = problem
        plan = FaultPlan([FaultSpec("inspector", "raise", times=-1)])
        with armed(plan):
            with pytest.raises(DegradationError) as exc_info:
                inspect_with_fallback("hdagg", g, cost, 4)
        err = exc_info.value
        assert err.requested == "hdagg"
        assert [f.algorithm for f in err.failures] == ["hdagg", "wavefront", "serial"]

    def test_multi_hop_degradation_records_all_failures(self, problem):
        g, cost = problem
        plan = FaultPlan(
            [
                FaultSpec("inspector", "raise", times=-1, match="hdagg"),
                FaultSpec("inspector", "raise", times=-1, match="wavefront"),
            ]
        )
        with armed(plan):
            outcome = inspect_with_fallback("hdagg", g, cost, 4)
        assert outcome.algorithm == "serial"
        assert outcome.degraded_from == "hdagg,wavefront"
