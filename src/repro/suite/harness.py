"""Experiment harness: run (matrix x kernel x algorithm x machine) grids.

This is the programmatic engine behind every table and figure benchmark.
For one matrix it:

1. builds, sanitizes (:func:`~repro.sparse.sanitize.sanitize_csr`), and
   ND-reorders the matrix (the paper's METIS pre-pass, Section V);
2. derives the kernel inputs: operand matrix, dependence DAG, cost vector,
   memory model;
3. runs each inspector, validates its schedule against the DAG (structural
   + dependence safety), and simulates it on each machine;
4. records the paper's metrics per run (speedup vs the simulated sequential
   execution, locality, measured PG, sync counts, imbalance ratio, NRE).

Everything is cached per matrix so the grid costs one DAG build and one
memory model per kernel, not one per algorithm.

Resilience (all dormant-by-default, see DESIGN.md "Resilience"):

* inspectors run with a fallback chain (``hdagg → wavefront → serial``);
  a failed or refuted inspection degrades the cell — stamped
  ``RunRecord.degraded`` / ``degraded_from`` — instead of killing the grid;
* ``run_suite`` is one loop over the specs: it can isolate per-matrix
  failures into structured
  :class:`~repro.resilience.failures.FailureRecord` rows and checkpoint
  finished matrices to a JSONL :class:`~repro.resilience.journal.RunJournal`
  (killed runs resume bit-identically); with ``n_jobs > 1`` a fork pool
  runs the matrices, and a dead worker fails the run at once;
* named ``fault_point`` sites let seeded
  :class:`~repro.resilience.faults.FaultPlan` chaos runs exercise every
  failure path deterministically.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..core.backends import active_tier
from ..core.incremental import family_key
from ..core.pgp import DEFAULT_EPSILON, accumulated_pgp
from ..core.schedule_cache import ScheduleCache, schedule_key
from ..kernels import KERNELS
from ..metrics.load_balance import imbalance_ratio
from ..metrics.nre import inspector_cost_model, nre
from ..metrics.parallelism import dag_shape
from ..metrics.synchronization import equivalent_p2p_syncs
from ..observability.state import STATE as _OBS_STATE
from ..passes import get_pass_group
from ..resilience.degrade import fallback_chain, inspect_with_fallback
from ..resilience.failures import FailureRecord
from ..resilience.faults import fault_point
from ..resilience.journal import RunJournal
from ..runtime.machine import MACHINES, MachineConfig
from ..runtime.simulator import SimulationResult, simulate
from ..schedulers import SCHEDULERS
from ..sparse.csr import CSRMatrix
from ..sparse.ordering import apply_ordering
from ..sparse.sanitize import SanitizeReport, sanitize_csr
from ..sparse.triangular import lower_triangle
from .matrices import MatrixSpec

__all__ = [
    "RunRecord",
    "MatrixContext",
    "Harness",
    "BenchCell",
    "build_cell",
    "DEFAULT_ALGORITHMS",
    "FailureRecord",
]

#: The paper's comparison set (MKL is SpTRSV-only, handled by the harness).
DEFAULT_ALGORITHMS = ("hdagg", "spmp", "wavefront", "lbc", "dagp", "mkl")

#: shared no-op context manager for the disabled-observability path
_NULL_CM = nullcontext()


def _span(name: str, **attrs):
    """A harness-level span when observability is on, else a no-op."""
    return _OBS_STATE.tracer.span(name, **attrs) if _OBS_STATE.enabled else _NULL_CM


@dataclass
class RunRecord:
    """Metrics of one (matrix, kernel, algorithm, machine) execution."""

    matrix: str
    family: str
    kernel: str
    algorithm: str
    machine: str
    n: int
    nnz: int
    n_wavefronts: int
    average_parallelism: float
    nnz_per_wavefront: float
    speedup: float
    makespan_cycles: float
    serial_cycles: float
    avg_memory_access_latency: float
    hit_rate: float
    potential_gain: float
    pgp: float
    equivalent_syncs: float
    n_barriers: int
    n_p2p_syncs: int
    imbalance_ratio: float
    inspector_cycles: float
    nre: float
    schedule_levels: int
    schedule_partitions: int
    fine_grained: bool
    inspector_seconds: float
    #: per-stage inspector seconds (HDagg populates this; empty otherwise)
    stage_seconds: dict = field(default_factory=dict)
    #: True when the schedule came from the harness's structure-keyed cache
    #: (its memory or its backing store)
    schedule_cached: bool = False
    #: True when the requested inspector failed and a fallback produced the
    #: schedule; ``algorithm`` then names the fallback that succeeded
    degraded: bool = False
    #: comma-joined algorithms that failed before the fallback succeeded
    #: (the requested inspector first); empty when not degraded
    degraded_from: str = ""
    #: the tier that ran the inspector's compiled stages
    #: (``schedule.meta["backend"]``: ``"compiled"`` or ``"numpy"``); empty
    #: for algorithms that have none
    backend: str = ""
    #: True when the schedule came from an incremental pattern repair
    #: (the cache's repair rung) rather than a full inspection or an
    #: exact cache hit
    schedule_repaired: bool = False


@dataclass
class MatrixContext:
    """Cached per-matrix artefacts shared across algorithms/machines."""

    spec: MatrixSpec
    matrix: CSRMatrix  # reordered full SPD matrix
    kernels: Dict[str, dict] = field(default_factory=dict)  # kernel -> artefacts
    #: input-hardening outcome (None when sanitization was skipped)
    sanitize_report: Optional[SanitizeReport] = None


@dataclass
class BenchCell:
    """Everything needed to run one (matrix, kernel, machine) cell.

    The single-cell counterpart of :class:`MatrixContext`: the trace CLI
    and the stage differential tests need exactly one cell's operand,
    DAG, cost vector, and memory model without paying for the full grid.
    """

    matrix: str
    kernel_name: str
    machine: MachineConfig
    operand: CSRMatrix
    dag: object
    cost: np.ndarray
    memory: object
    kernel: object


def build_cell(
    matrix: str,
    kernel: str = "sptrsv",
    machine: Union[str, MachineConfig] = "intel20",
    *,
    cores: Optional[int] = None,
    ordering: str = "nd",
) -> BenchCell:
    """Build one dataset cell: reorder the matrix and derive kernel inputs.

    ``matrix`` names a dataset entry (``hdagg-bench --list``); ``cores``
    overrides the machine model's count.  This is the shared front door
    for single-cell tooling (``hdagg-bench trace``, ``hdagg-bench perf``).
    """
    from .matrices import suite_by_name

    by_name = suite_by_name()
    if matrix not in by_name:
        raise KeyError(f"unknown matrix {matrix!r}; see `hdagg-bench --list`")
    if kernel not in KERNELS:
        raise KeyError(f"unknown kernel {kernel!r}")
    mach = machine if isinstance(machine, MachineConfig) else MACHINES[machine]
    if cores is not None:
        mach = mach.scaled(cores)
    ordered, _ = apply_ordering(by_name[matrix].build(), ordering)
    k = KERNELS[kernel]
    operand = lower_triangle(ordered) if kernel == "sptrsv" else ordered
    g = k.dag(operand)
    cost = k.cost(operand)
    memory = k.memory_model(operand, g)
    return BenchCell(
        matrix=matrix,
        kernel_name=kernel,
        machine=mach,
        operand=operand,
        dag=g,
        cost=cost,
        memory=memory,
        kernel=k,
    )


class Harness:
    """Grid runner over the suite.

    Parameters
    ----------
    machines:
        Machine names (keys of :data:`repro.runtime.machine.MACHINES`) or
        :class:`MachineConfig` objects.
    kernels:
        Kernel names among ``{"sptrsv", "spic0", "spilu0"}``.
    algorithms:
        Scheduler names; ``"mkl"`` is automatically restricted to SpTRSV
        (MKL has no parallel SpIC0/SpILU0, Section V).
    ordering:
        Symmetric pre-ordering applied to every matrix (paper: METIS; here
        ``"nd"`` by default).
    epsilon:
        HDagg/LBC load-balance threshold.
    schedule_cache:
        Optional :class:`~repro.core.schedule_cache.ScheduleCache`.  When
        set, every cell's schedule comes from its reuse ladder
        (:meth:`~repro.core.schedule_cache.ScheduleCache.acquire`):
        repeated structures (re-runs, parameter sweeps sharing a matrix, a
        backing store filled by an earlier process) reuse the schedule,
        and a drifted pattern under a known matrix name is repaired
        incrementally.  Hits are flagged in ``RunRecord.schedule_cached``
        and re-verified (a corrupted entry is dropped and re-inspected);
        repairs in ``RunRecord.schedule_repaired``.  Failed inspections
        degrade down the declared fallback chain either way (stamping
        ``RunRecord.degraded``); on the success path this is
        byte-identical to a direct inspector call.
    sanitize:
        Run :func:`~repro.sparse.sanitize.sanitize_csr` over every built
        matrix in :meth:`prepare` (repairing what is repairable, rejecting
        structural corruption with a structured error).  Well-formed
        matrices pass through unchanged.

    HDagg cells run the compiled inspector stages when the native library
    is built; the tier that ran
    (:func:`~repro.core.backends.active_tier`) is folded into the cache
    keys and the journal fingerprint and stamped into ``RunRecord.backend``.
    """

    def __init__(
        self,
        machines: Sequence = ("intel20",),
        kernels: Sequence[str] = ("sptrsv", "spic0", "spilu0"),
        algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
        *,
        ordering: str = "nd",
        epsilon: float = DEFAULT_EPSILON,
        validate: bool = True,
        schedule_cache: Optional[ScheduleCache] = None,
        sanitize: bool = True,
    ) -> None:
        self.machines: List[MachineConfig] = [
            m if isinstance(m, MachineConfig) else MACHINES[m] for m in machines
        ]
        for k in kernels:
            if k not in KERNELS:
                raise KeyError(f"unknown kernel {k!r}")
        self.kernels = tuple(kernels)
        for a in algorithms:
            if a not in SCHEDULERS:
                raise KeyError(f"unknown algorithm {a!r}")
        self.algorithms = tuple(algorithms)
        self.ordering = ordering
        self.epsilon = epsilon
        self.validate = validate
        self.schedule_cache = schedule_cache
        self.sanitize = sanitize

    # ------------------------------------------------------------------
    def config_fingerprint(self, specs: Sequence[MatrixSpec]) -> str:
        """Digest of the grid configuration, used to key run journals."""
        payload = repr(
            (
                tuple(m.name for m in self.machines),
                self.kernels,
                self.algorithms,
                self.ordering,
                float(self.epsilon),
                self.validate,
                tuple(s.name for s in specs),
                active_tier(),
            )
        )
        return sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    def prepare(self, spec: MatrixSpec) -> MatrixContext:
        """Build, sanitize, reorder, and derive kernel artefacts for one matrix."""
        with _span(f"suite/prepare[{spec.name}]"):
            return self._prepare(spec)

    def _prepare(self, spec: MatrixSpec) -> MatrixContext:
        raw = spec.build()
        injected = fault_point("harness.prepare", payload=raw, label=spec.name)
        sanitize_report: Optional[SanitizeReport] = None
        if injected is not None:
            # fault injection replaced the matrix with corrupted raw arrays;
            # the sanitizer must now repair or reject them
            raw, sanitize_report = sanitize_csr(
                injected, repair=True, ensure_diagonal=True, name=spec.name
            )
        elif self.sanitize:
            raw, sanitize_report = sanitize_csr(
                raw, repair=True, ensure_diagonal=True, name=spec.name
            )
        ctx = MatrixContext(spec=spec, matrix=raw, sanitize_report=sanitize_report)
        ordered, _ = apply_ordering(raw, self.ordering)
        ctx.matrix = ordered
        for kname in self.kernels:
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            g = kernel.dag(operand)
            cost = kernel.cost(operand)
            memory = kernel.memory_model(operand, g)
            shape = dag_shape(g)
            ctx.kernels[kname] = {
                "kernel": kernel,
                "operand": operand,
                "dag": g,
                "cost": cost,
                "memory": memory,
                "shape": shape,
            }
        return ctx

    def _algorithms_for(self, kernel: str) -> Iterable[str]:
        for a in self.algorithms:
            if a == "mkl" and kernel != "sptrsv":
                continue  # MKL's SpIC0/SpILU0 are not parallel (Section V)
            yield a

    # ------------------------------------------------------------------
    def run_matrix(self, spec: MatrixSpec) -> List[RunRecord]:
        """All records for one matrix across the configured grid."""
        with _span(f"suite/matrix[{spec.name}]"):
            return self._run_matrix_grid(spec)

    def _run_matrix_grid(self, spec: MatrixSpec) -> List[RunRecord]:
        fault_point("suite.matrix", label=spec.name)
        ctx = self.prepare(spec)
        records: List[RunRecord] = []
        for kname in self.kernels:
            art = ctx.kernels[kname]
            g, cost, memory = art["dag"], art["cost"], art["memory"]
            shape = art["shape"]

            # serial reference per machine (sequential run owns the machine)
            serial_schedule = SCHEDULERS["serial"](g, cost)
            serial_results: Dict[str, SimulationResult] = {}
            for machine in self.machines:
                serial_results[machine.name] = simulate(
                    serial_schedule, g, cost, memory, machine.scaled(1)
                )

            for algo in self._algorithms_for(kname):
                for machine in self.machines:
                    if _OBS_STATE.enabled:
                        _OBS_STATE.tracer.instant(
                            f"suite/cell[{spec.name},{kname},{algo},{machine.name}]"
                        )
                    keys = (
                        None if self.schedule_cache is None
                        else self._cache_keys(spec.name, kname, algo, machine.n_cores, g)
                    )
                    t0 = time.perf_counter()
                    if keys is None:
                        # no cache: the reuse ladder's last rung
                        schedule = inspect_with_fallback(
                            algo, g, cost, machine.n_cores,
                            epsilon=self.epsilon, validate=self.validate,
                        ).schedule
                        source = "full"
                    else:
                        schedule, source = self.schedule_cache.acquire(
                            *keys, g, cost,
                            p=machine.n_cores, epsilon=self.epsilon, algorithm=algo,
                            validate=self.validate,
                        )
                    inspector_seconds = time.perf_counter() - t0
                    cached = source in ("hit", "store")
                    # every scheduler stamps its registry name, so a served
                    # schedule from another algorithm is a fallback's
                    used_algo = schedule.algorithm
                    degraded = used_algo != algo
                    chain = fallback_chain(algo)
                    degraded_from = (
                        ",".join(chain[: chain.index(used_algo)]) if degraded else ""
                    )
                    sim = simulate(schedule, g, cost, memory, machine)
                    serial = serial_results[machine.name]
                    insp_cycles = inspector_cost_model(used_algo, g, schedule)
                    if sim.makespan_cycles > 0:
                        speedup = serial.makespan_cycles / sim.makespan_cycles
                    elif serial.makespan_cycles <= 0:
                        warnings.warn(
                            f"{spec.name}/{kname}/{algo}: zero-cycle simulation; "
                            "speedup defined as 1.0",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        speedup = 1.0
                    else:
                        speedup = float("inf")
                    records.append(
                        RunRecord(
                            matrix=spec.name,
                            family=spec.family,
                            kernel=kname,
                            algorithm=used_algo,
                            machine=machine.name,
                            n=g.n,
                            nnz=ctx.matrix.nnz,
                            n_wavefronts=shape.n_wavefronts,
                            average_parallelism=shape.average_parallelism,
                            nnz_per_wavefront=ctx.matrix.nnz / max(1, shape.n_wavefronts),
                            speedup=speedup,
                            makespan_cycles=sim.makespan_cycles,
                            serial_cycles=serial.makespan_cycles,
                            avg_memory_access_latency=sim.avg_memory_access_latency,
                            hit_rate=sim.hit_rate,
                            potential_gain=sim.potential_gain,
                            pgp=accumulated_pgp(schedule, cost),
                            equivalent_syncs=equivalent_p2p_syncs(sim, machine.n_cores),
                            n_barriers=sim.n_barriers,
                            n_p2p_syncs=sim.n_p2p_syncs,
                            imbalance_ratio=imbalance_ratio(schedule, machine.n_cores),
                            inspector_cycles=insp_cycles,
                            nre=nre(insp_cycles, serial, sim),
                            schedule_levels=schedule.n_levels,
                            schedule_partitions=schedule.n_partitions,
                            fine_grained=schedule.fine_grained,
                            inspector_seconds=inspector_seconds,
                            # a cache hit never re-ran the inspector stages:
                            # copying the producer's stale stage timings here
                            # would make sum(stage_seconds) exceed the
                            # measured inspector_seconds, so a hit reports
                            # only the re-verification it actually paid for
                            stage_seconds=(
                                {"verify": inspector_seconds}
                                if cached
                                else dict(schedule.meta.get("stage_seconds", {}))
                            ),
                            schedule_cached=cached,
                            degraded=degraded,
                            degraded_from=degraded_from,
                            backend=str(schedule.meta.get("backend", "")),
                            schedule_repaired=source == "repaired",
                        )
                    )
        return records

    def _cache_keys(self, name: str, kname: str, algo: str, p: int, g) -> tuple:
        """``(schedule_key, family_key)`` of one cell; the key's fields follow
        the inputs the scheduler's group declares."""
        inputs = get_pass_group(algo).inputs
        backend_desc = active_tier() if "Backend" in inputs else ""
        key = schedule_key(
            g,
            kernel=kname,
            algorithm=algo,
            p=p,
            epsilon=self.epsilon if "Epsilon" in inputs else None,
            backend=backend_desc,
        )
        family = family_key(
            kernel=kname, algorithm=algo, p=p, epsilon=self.epsilon,
            backend=backend_desc, label=name,
        )
        return key, family

    # ------------------------------------------------------------------
    def run_suite(
        self,
        specs: Sequence[MatrixSpec],
        *,
        progress: bool = False,
        n_jobs: int = 1,
        isolate_failures: bool = False,
        failures: Optional[List[FailureRecord]] = None,
        journal: Optional[Union[RunJournal, str]] = None,
    ) -> List[RunRecord]:
        """Run the grid over many matrices; flat record list in spec order.

        One loop walks the specs in order.  A matrix already checkpointed
        in ``journal`` (a path or :class:`RunJournal`) is replayed from it
        verbatim, so a killed run resumes bit-identically; any other
        matrix is run and then checkpointed.  ``n_jobs > 1`` runs those
        matrices on a fork pool and the loop takes their records in spec
        order, so downstream tables are identical whichever mode produced
        them.

        ``isolate_failures`` turns a failing matrix into a structured
        :class:`FailureRecord` (collected into ``failures`` when given)
        while the rest of the grid continues; without it the first failure
        raises, naming the matrix.  An exception in a pool worker is
        handled the same way.  A pool worker that dies raises
        :class:`~concurrent.futures.process.BrokenProcessPool` naming the
        unfinished matrices; the finished ones are in the journal, so a
        second run on it completes the grid.
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        from concurrent.futures.process import BrokenProcessPool

        from .storage import record_from_blob, record_to_blob

        specs = list(specs)
        owns_journal = journal is not None and not isinstance(journal, RunJournal)
        if owns_journal:
            journal = RunJournal(
                journal,
                fingerprint=self.config_fingerprint(specs),
                resume=True,
            )
        failures_out: List[FailureRecord] = failures if failures is not None else []
        pending = [i for i, s in enumerate(specs) if journal is None or not journal.has(s.name)]
        pool = None
        try:
            pool = _fork_pool(self, specs, min(n_jobs, len(pending)))
            futures = {i: pool.submit(_run_in_worker, i) for i in pending} if pool else {}
            out: List[RunRecord] = []
            for i, spec in enumerate(specs):
                tag = f"[{i + 1}/{len(specs)}] {spec.name}"
                if journal is not None and journal.has(spec.name):
                    if progress:
                        print(f"{tag} (from journal)", flush=True)
                    out.extend(record_from_blob(b) for b in journal.record_blobs_for(spec.name))
                    continue
                if progress:
                    print(tag, flush=True)
                try:
                    recs = futures[i].result() if pool is not None else self.run_matrix(spec)
                except BrokenProcessPool as exc:
                    unfinished = [specs[j].name for j in pending if j >= i]
                    raise BrokenProcessPool(
                        f"a pool worker died; unfinished matrices: {unfinished}"
                    ) from exc
                except Exception as exc:
                    record = FailureRecord(
                        matrix=spec.name,
                        family=spec.family,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        site=getattr(exc, "site", None),
                    )
                    if not isolate_failures:
                        raise RuntimeError(
                            f"matrix {spec.name!r} failed: {record.describe()}"
                        ) from exc
                    failures_out.append(record)
                    if journal is not None:
                        journal.append_failure(record.as_dict())
                    if progress:
                        print(f"    {spec.name} FAILED: {record.error_type}: {record.message}",
                              flush=True)
                    continue
                out.extend(recs)
                if journal is not None:
                    journal.append_matrix(spec.name, [record_to_blob(r) for r in recs])
            return out
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            if owns_journal:
                journal.close()


def _fork_pool(harness: Harness, specs: List[MatrixSpec], n_workers: int):
    """A fork pool whose workers inherit ``(harness, specs)``, or ``None``.

    ``None`` (run in-process) for fewer than two workers, and where fork is
    unavailable: matrix builders are closures, which spawn cannot pickle.
    The grid reaches the workers through fork, so nothing of it is pickled;
    only spec indices go out and records or exceptions come back.
    """
    if n_workers < 2:
        return None
    from concurrent.futures import ProcessPoolExecutor

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=((harness, specs),),
    )


#: ``(harness, specs)`` of the pool that forked this process; set by
#: :func:`_init_worker` in pool workers only
_WORKER_GRID: Optional[tuple] = None


def _init_worker(grid: tuple) -> None:
    global _WORKER_GRID
    _WORKER_GRID = grid


def _run_in_worker(index: int) -> List[RunRecord]:
    """Pool task: run matrix ``index`` of the grid inherited through fork."""
    harness, specs = _WORKER_GRID
    spec = specs[index]
    fault_point("pool.worker", label=spec.name)
    return harness.run_matrix(spec)
