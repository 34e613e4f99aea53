"""The benchmark's only door into ``repro``: one wrapper per layer call.

Each method of :class:`Layers` enters one layer of the program.  It times the
call as a span when a :class:`spans.Recorder` is attached, counts the work it
hands the layer, and tags an exception with the layer's name so a failed
operation is charged to the layer that raised.  Every ``repro`` name the
benchmark uses is imported here; bench/README.md lists them, and a change
that renames one must keep it importable or the benchmark's ops fail.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

from repro.analysis.verifier import verify_dependences
from repro.core.backends import BackendSpec
from repro.core.hdagg import hdagg
from repro.core.incremental import IncrementalScheduleCache, family_key
from repro.core.pgp import DEFAULT_EPSILON
from repro.core.schedule_cache import schedule_key
from repro.kernels import KERNELS
from repro.perflab.fingerprint import collect_fingerprint
from repro.runtime.machine import INTEL20
from repro.runtime.simulator import simulate
from repro.schedulers import SCHEDULERS
from repro.service.replay import ReplayConfig, zipf_weights
from repro.sparse import (
    apply_ordering,
    banded_spd,
    conjugate_gradient,
    kite_chain_spd,
    lower_triangle,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_spd,
    residual_norm,
    sanitize_csr,
)
from repro.sparse.csr import CSRMatrix
from repro.suite.matrices import SUITE

from spans import Recorder

#: Input generators (untimed: workloads call them before timing starts).
GENERATORS = {
    "poisson2d": poisson2d,
    "poisson3d": poisson3d,
    "random_spd": random_spd,
    "power_law_spd": power_law_spd,
    "banded_spd": banded_spd,
    "kite_chain_spd": kite_chain_spd,
}
#: The fixed evaluation suite, by name: ``name -> (family, build)``.
SUITE_SPECS = {spec.name: (spec.family, spec.build) for spec in SUITE}
#: Zipf exponent of the program's schedule-traffic replay model.
ZIPF_S = ReplayConfig.zipf_s

#: Cores of the modelled machine; every inspector schedules for it.
P = INTEL20.n_cores
EPSILON = DEFAULT_EPSILON
BASELINES = ("spmp", "wavefront", "lbc", "dagp", "mkl")

#: Every span name a :class:`Layers` method can record, in ledger order.
LAYERS = (
    "build", "sanitize", "ordering", "dag", "cost", "memory",
    "inspect.hdagg", *(f"inspect.{b}" for b in BASELINES), "inspect.serial",
    "verify", "simulate", "execute", "check", "pcg",
    "cache.key", "cache.hit", "cache.repair", "cache.full",
)
#: Stages HDagg reports in ``schedule.meta["stage_seconds"]``.
HDAGG_STAGES = ("transitive_reduction", "aggregation", "coarsen", "lbp", "expand")

#: ``IncrementalScheduleCache.acquire`` outcome -> span name, and -> work count.
_CACHE_OUTCOME = {"hit": "cache.hit", "repaired": "cache.repair", "full": "cache.full"}
_CACHE_COUNT = {"hit": "cache.hits", "repaired": "cache.repairs", "full": "cache.fulls"}


class Layers:
    """Wrappers around the program's layer calls, sharing one recorder.

    ``work`` counts what each layer was handed (rows ordered, DAG edges built,
    vertices inspected or executed, edges verified, cache outcomes).
    ``stage_seconds`` sums the HDagg stage times the inspector itself reports.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.rec = recorder
        self.work: Counter = Counter()
        self.stage_seconds: Counter = Counter()

    def _call(self, layer: str, fn, *args, relabel=None, **kwargs):
        """``fn(*args, **kwargs)`` as one span of ``layer``.

        ``relabel(result)`` renames the span once the call's outcome is known.
        """
        rec = self.rec
        idx = rec.begin(layer) if rec is not None else -1
        name = None
        try:
            result = fn(*args, **kwargs)
            if relabel is not None:
                name = relabel(result)
            return result
        except Exception as exc:
            if not hasattr(exc, "bench_layer"):  # the innermost layer raised it
                exc.bench_layer = layer
            raise
        finally:
            if rec is not None:
                rec.end(idx, name)

    def _hdagg_stages(self, schedule) -> None:
        stages = schedule.meta.get("stage_seconds", {})
        for stage in HDAGG_STAGES:
            self.stage_seconds[stage] += stages.get(stage, 0.0)

    # -- sparse --------------------------------------------------------
    def build(self, name: str) -> CSRMatrix:
        return self._call("build", SUITE_SPECS[name][1])

    def sanitize(self, raw) -> CSRMatrix:
        """Validate raw CSR (a matrix or an ``(n, n, indptr, indices, data)`` tuple)."""
        return self._call("sanitize", sanitize_csr, raw, repair=True, ensure_diagonal=True)[0]

    def order(self, a: CSRMatrix) -> CSRMatrix:
        self.work["ordering.rows"] += a.n_rows
        return self._call("ordering", apply_ordering, a, "nd")[0]

    # -- kernels: inspector-facing -------------------------------------
    def operand(self, kernel: str, a: CSRMatrix) -> CSRMatrix:
        """The matrix the kernel's DAG is read from (SpTRSV takes the lower triangle)."""
        return self._call("dag", lower_triangle, a) if kernel == "sptrsv" else a

    def backward_operand(self, low: CSRMatrix) -> CSRMatrix:
        """``J L^T J``: the lower-triangular matrix of the backward sweep ``L^T z = y``."""
        rev = np.arange(low.n_rows - 1, -1, -1)
        return self._call("dag", lambda: low.transpose().permute_symmetric(rev))

    def dag(self, kernel: str, a: CSRMatrix):
        g = self._call("dag", KERNELS[kernel].dag, a)
        self.work["dag.edges"] += g.n_edges
        return g

    def cost(self, kernel: str, a: CSRMatrix) -> np.ndarray:
        return self._call("cost", KERNELS[kernel].cost, a)

    def memory(self, kernel: str, a: CSRMatrix, g):
        return self._call("memory", KERNELS[kernel].memory_model, a, g)

    # -- inspectors ----------------------------------------------------
    def inspect(self, algo: str, g, cost: np.ndarray):
        """Schedule ``g`` with one inspector for the modelled machine."""
        layer = f"inspect.{algo}"
        if algo == "hdagg":
            self.work["inspect.hdagg.vertices"] += g.n
            schedule = self._call(layer, hdagg, g, cost, P, EPSILON)
            self._hdagg_stages(schedule)
            return schedule
        if algo == "serial":
            return self._call(layer, SCHEDULERS["serial"], g, cost)
        if algo == "lbc":
            return self._call(layer, SCHEDULERS["lbc"], g, cost, P, epsilon=EPSILON)
        return self._call(layer, SCHEDULERS[algo], g, cost, P)

    def verify(self, schedule, g):
        self.work["verify.edges"] += g.n_edges
        return self._call(
            "verify", verify_dependences, schedule, g, max_witnesses=1, stamp_meta=False
        )

    # -- schedule reuse ------------------------------------------------
    @staticmethod
    def new_cache(max_entries: int) -> IncrementalScheduleCache:
        return IncrementalScheduleCache(max_entries=max_entries)

    def acquire(self, cache: IncrementalScheduleCache, g, cost: np.ndarray, label: str):
        """Key the SpTRSV pattern, then hit, repair or inspect through the cache.

        The span is relabelled by the outcome; an ``acquire`` that raises has
        no outcome and is charged to ``cache.full``, the path that does the
        most work.
        """
        key, family = self._call("cache.key", _cache_keys, g, label)
        fallbacks = cache.repair_fulls
        schedule, source = self._call(
            "cache.full", cache.acquire, key, family, g, cost, p=P, epsilon=EPSILON,
            relabel=lambda result: _CACHE_OUTCOME[result[1]],
        )
        if cache.repair_fulls != fallbacks:
            self.work["cache.repair_fallbacks"] += 1
        self.work[_CACHE_COUNT[source]] += 1
        if source == "full":
            self.work["inspect.hdagg.vertices"] += g.n
            self._hdagg_stages(schedule)
        return schedule

    # -- kernels: executor-facing --------------------------------------
    def execution_order(self, schedule) -> np.ndarray:
        return self._call("execute", schedule.execution_order)

    def execute(self, kernel: str, a: CSRMatrix, order: np.ndarray, b=None):
        self.work["execute.vertices"] += a.n_rows
        return self._call("execute", KERNELS[kernel].execute_in_order, a, order, b)

    def check(self, kernel: str, a: CSRMatrix, result, b=None) -> float:
        """The kernel's own defect measure of ``result`` (residual or factor defect)."""
        return self._call("check", KERNELS[kernel].verify, a, result, b)

    def residual(self, a: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
        """Relative true residual ``||b - A x|| / ||b||``."""
        return self._call("check", residual_norm, a, x, b) / float(np.linalg.norm(b))

    def pcg(self, a: CSRMatrix, b: np.ndarray, preconditioner, tol: float, max_iter: int):
        result = self._call(
            "pcg", conjugate_gradient, a, b,
            preconditioner=preconditioner, tol=tol, max_iter=max_iter,
        )
        self.work["pcg.iters"] += result.iterations
        return result

    # -- machine model -------------------------------------------------
    def simulate(self, schedule, g, cost: np.ndarray, memory, *, serial: bool = False):
        machine = INTEL20.scaled(1) if serial else INTEL20
        return self._call("simulate", simulate, schedule, g, cost, memory, machine)


def _cache_keys(g, label: str) -> tuple[str, str]:
    key = schedule_key(g, kernel="sptrsv", algorithm="hdagg", p=P, epsilon=EPSILON)
    family = family_key(kernel="sptrsv", algorithm="hdagg", p=P, epsilon=EPSILON, label=label)
    return key, family


def csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> CSRMatrix:
    """Unit-valued square CSR matrix on a stored pattern (pattern-only inputs)."""
    return CSRMatrix(n, n, indptr, indices, np.ones(indices.shape[0]))


def stamp(seed: int) -> dict:
    """Provenance of one run, so numbers from different set-ups are never compared.

    The git SHA is empty when the run's working directory is not a checkout.
    """
    backend = BackendSpec.coerce(None).effective().describe()
    fp = collect_fingerprint(backend=backend)
    return {
        "fingerprint_digest": fp.digest,
        "fingerprint": fp.as_dict(),
        "backend": backend,
        "nproc": os.cpu_count() or 0,
        "git_sha": fp.git_sha,
        "seed": seed,
    }
