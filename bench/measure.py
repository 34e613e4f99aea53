"""Run a workload's operations once, as a closed loop, and turn the run into metrics.

A workload's inputs are generated from the seed before timing starts.  The
timed run then prepares them (per-system or per-matrix preparation) and runs
every operation once, in a fixed order, so a run does the same work on every
host and every commit: a slower program takes longer, it does not do less.

Every time is read from :data:`spans.clock_ns`, the process's CPU clock.
Before every timed step (preparation step or op), and once after the last,
the run takes a :func:`calibrate.reading` of the host's speed.  The
end-to-end times are each step's time divided by the host slowdown around it
(:func:`calibrate.slowdowns`), that is, seconds on the reference host.
"""

from __future__ import annotations

import resource
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc

from calibrate import reading, slowdowns
from layers import HDAGG_STAGES, LAYERS, Layers
from spans import OP, OTHER, PREP, Recorder, clock_ns, ledger


class OpFailed(Exception):
    """A correctness check refuted an operation's output; charged to ``layer``."""

    def __init__(self, layer: str, message: str) -> None:
        super().__init__(message)
        self.bench_layer = layer


def require(ok: bool, layer: str, message: str) -> None:
    if not ok:
        raise OpFailed(layer, message)


@dataclass(frozen=True)
class Skipped:
    """Preparation that failed in ``layer``; the ops depending on it cannot run."""

    layer: str


class Tally:
    """Durations and failures of the operations of one phase.

    A failed operation (an exception or a refuted check) is data: it is
    counted, charged to the layer that raised it, and the loop goes on.
    """

    def __init__(self, recorder: Recorder | None) -> None:
        self.rec = recorder
        #: ``(is_op, ns)`` per timed step
        self.steps: list[tuple[bool, int]] = []
        #: host readings (one before each step), and the time spent taking them
        self.readings: list[int] = []
        self.reading_ns = 0
        self.skipped = 0
        self.failed = 0
        self.failures: Counter = Counter()
        #: first error message per failing layer, for diagnosis
        self.errors: dict = {}

    def read_host(self) -> None:
        t0 = clock_ns()
        self.readings.append(reading())
        self.reading_ns += clock_ns() - t0

    def _run(self, name: str, fn, args) -> tuple[object, str | None]:
        """Run ``fn`` as a timed root span: ``(result, failing layer or None)``."""
        self.read_host()
        rec = self.rec
        t0 = clock_ns()
        idx = rec.begin(name) if rec is not None else -1
        result, layer = None, None
        try:
            result = fn(*args)
        except Exception as exc:  # the loop must go on: a failure is one failed op
            layer = getattr(exc, "bench_layer", OTHER)
            self.errors.setdefault(layer, f"{type(exc).__name__}: {exc}"[:500])
        if rec is not None:
            rec.end(idx)
        self.steps.append((name == OP, clock_ns() - t0))
        return result, layer

    def _fail(self, layer: str, n_ops: int) -> None:
        self.failed += n_ops
        self.failures[layer] += n_ops

    def op(self, fn, *args) -> bool:
        """Run one closed-loop operation; True when it passed its checks."""
        _, layer = self._run(OP, fn, args)
        if layer is not None:
            self._fail(layer, 1)
        return layer is None

    def prep(self, fn, *args):
        """Run preparation shared by later ops: its result, or :class:`Skipped`."""
        result, layer = self._run(PREP, fn, args)
        return result if layer is None else Skipped(layer)

    def skip(self, n_ops: int, skipped: Skipped) -> None:
        """Count ``n_ops`` ops whose preparation failed as attempted and failed."""
        self.skipped += n_ops
        self._fail(skipped.layer, n_ops)

    @property
    def attempted(self) -> int:
        return sum(is_op for is_op, _ in self.steps) + self.skipped


@dataclass
class Phase:
    """One timed phase: op times, failures, work counts and outcome data."""

    #: each op's time on the reference host
    op_ns: np.ndarray
    #: preparation steps plus ops, on the reference host
    steps_ns: float
    #: median host slowdown over the phase's steps
    slowdown: float
    #: CPU time of the phase, host readings excluded: the ledger's base
    timed_ns: int
    attempted: int
    failed: int
    failures: Counter
    errors: dict
    work: Counter
    stats: dict
    stage_seconds: Counter
    recorder: Recorder | None = None

    @property
    def ops_per_s(self) -> float:
        """Ops run ÷ the time of preparation plus ops."""
        return self.op_ns.size / (self.steps_ns / 1e9)


def run_phase(workload, inputs, recorder: Recorder | None = None) -> Phase:
    """Prepare ``inputs``, then run every op of ``workload`` once."""
    layers = Layers(recorder)
    tally = Tally(recorder)
    t0 = clock_ns()
    state = workload.prepare(layers, tally, inputs)
    stats = workload.run(layers, tally, state)
    timed_ns = clock_ns() - t0 - tally.reading_ns
    tally.read_host()
    slow = slowdowns(tally.readings)
    norm = [(is_op, ns / s) for (is_op, ns), s in zip(tally.steps, slow)]
    return Phase(
        op_ns=np.array([ns for is_op, ns in norm if is_op]),
        steps_ns=sum(ns for _, ns in norm),
        slowdown=float(np.median(slow)),
        timed_ns=timed_ns,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        errors=tally.errors,
        work=layers.work,
        stats=stats,
        stage_seconds=layers.stage_seconds,
        recorder=recorder,
    )


def quantile(values: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile: a beta-weighted mean of all order statistics.

    A plain percentile is one or two single op times, so where op times are
    sparse (paper-grid's 128 distinct cells) it moves with the noise of one
    op.  This estimator spreads its weight over the ops ranked near ``q``.
    """
    x = np.sort(values)
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(phase: Phase) -> dict:
    """What a user of the program sees: op latency, throughput, memory."""
    op_s = phase.op_ns / 1e9
    return {
        "op_s.p50": quantile(op_s, 0.5),
        "op_s.p90": quantile(op_s, 0.9),
        "ops_per_s": phase.ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


#: Work counts of one phase (0 where a layer is absent).
WORK_COUNTS = (
    "ordering.rows", "dag.edges", "inspect.hdagg.vertices", "verify.edges",
    "execute.vertices", "pcg.iters",
    "cache.hits", "cache.repairs", "cache.repair_fallbacks", "cache.fulls",
)
#: Outcome metrics a workload's ``quality`` may report (0 in a traced run of
#: a workload that has no such outcome).
OUTCOMES = (
    "model_speedup.gmean", "model_vs_best.gmean", "solver_iters.mean",
    "simulate.barriers", "simulate.p2p_syncs",
    "simulate.hit_rate.mean", "simulate.potential_gain.mean",
)


def quality(workload, phase: Phase) -> dict:
    """Deterministic outcome metrics: failure rate plus the workload's own."""
    out = {"fail_rate": phase.failed / phase.attempted}
    out.update(workload.quality(phase.stats))
    return out


def per_layer(workload, traced: Phase, untraced: Phase, rows: dict) -> dict:
    """Ledger shares, stage splits, work counts and outcome metrics of a traced phase."""
    out = {}
    for layer in (*LAYERS, OTHER):
        out[f"{layer}.share"] = 100.0 * rows.get(layer, {}).get("share", 0.0)
    timed_s = traced.timed_ns / 1e9
    for stage in HDAGG_STAGES:
        out[f"inspect.hdagg.{stage}.share"] = 100.0 * traced.stage_seconds[stage] / timed_s
    w = traced.work
    for name in WORK_COUNTS:
        out[name] = w[name]
    lookups = w["cache.hits"] + w["cache.repairs"] + w["cache.fulls"]
    repairs_tried = w["cache.repairs"] + w["cache.repair_fallbacks"]
    out["cache.hit_ratio"] = w["cache.hits"] / lookups if lookups else 0.0
    out["cache.repair_success_ratio"] = w["cache.repairs"] / repairs_tried if repairs_tried else 0.0
    out.update({name: 0.0 for name in OUTCOMES})
    out.update(quality(workload, traced))
    out["ledger.coverage"] = 100.0 - out[f"{OTHER}.share"]
    out["trace.overhead_ratio"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    return out


def measure(workload, seed: int, trace: bool, out_dir: Path | None) -> dict:
    """One benchmark run of ``workload``; with ``trace`` also writes spans and ledger.

    One warm-up on a tiny input runs first, untimed.  A traced run then runs
    the workload twice on the same inputs, untraced and traced, so the
    tracing overhead is the difference between two phases of one run.
    """
    workload.warmup(Layers())  # lazy imports and first-call set-up stay out of the ops
    inputs = workload.make_inputs(seed)
    result = {"input_digest": workload.digest(inputs)}
    if not trace:
        phase = run_phase(workload, inputs)
        metrics = {**end_to_end(phase), **quality(workload, phase)}
        phases = [phase]
    else:
        untraced = run_phase(workload, inputs)
        traced = run_phase(workload, inputs, Recorder())
        result["ledger"] = ledger(traced.recorder.spans, traced.timed_ns)
        metrics = per_layer(workload, traced, untraced, result["ledger"])
        phases = [untraced, traced]
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            traced.recorder.write_jsonl(out_dir / f"{workload.name}.spans.jsonl")
    failures: Counter = Counter()
    errors: dict = {}
    for p in phases:
        failures.update(p.failures)
        errors = {**p.errors, **errors}
    result.update(
        metrics=metrics,
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        failures=dict(failures),
        errors=errors,
        timed_cpu_s=[p.timed_ns / 1e9 for p in phases],
        host_slowdown=[p.slowdown for p in phases],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return result
