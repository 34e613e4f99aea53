"""Schedule: the object every inspector produces and every executor consumes.

Section IV-A of the paper: "The created schedule is composed of a set of
disjoint partitions called coarsened wavefronts.  Each coarsened wavefront is
composed of one or more disjoint partitions called width-partitions.  The
coarsened wavefronts execute sequentially and width-partitions of a coarsened
wavefront run in parallel."

The same container also represents the baselines:

* Wavefront / MKL-like: one coarsened wavefront per level, chunked into
  width-partitions, ``sync="barrier"``;
* SpMP: level-grouped width-partitions with ``sync="p2p"`` (no barriers —
  the simulator lets partitions start when their cross-partition dependences
  are satisfied);
* LBC: the coarsened l-partitions plus the sequential tail;
* DAGP: quotient-graph levels of the acyclic partitioning, ``sync="p2p"``;
* serial: a single width-partition.

Representation: the flat arrays the executor walks.  ``order`` lists every
vertex id in execution order; width-partition ``j`` is
``order[part_ptr[j]:part_ptr[j + 1]]`` and runs on core ``part_core[j]``
(``-1``: placed dynamically at run time); coarsened wavefront ``k`` is
partitions ``level_ptr[k]:level_ptr[k + 1]``.  Every per-vertex coordinate
is one ``np.repeat`` and one scatter over these arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from ..graph.dag import DAG, gather_slices
from ..sparse.csr import INDEX_DTYPE

__all__ = [
    "Schedule",
    "ScheduleError",
    "DependenceWitness",
    "dependence_witnesses",
    "stack_levels",
    "bucket_level",
    "ptr_from_counts",
]


class ScheduleError(ValueError):
    """Raised when a schedule violates its structural or dependence invariants.

    ``witness`` carries the first :class:`DependenceWitness` when the failure
    is a dependence-ordering violation, ``None`` for structural failures —
    callers (the static verifier, the harness, CI tooling) read it instead of
    parsing the message.
    """

    def __init__(self, message: str, *, witness: "Optional[DependenceWitness]" = None) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class DependenceWitness:
    """A minimal counterexample to schedule safety: one mis-ordered DAG edge.

    The edge ``src -> dst`` requires ``src`` to finish before ``dst`` starts,
    but the schedule places them so that neither ``level[src] < level[dst]``
    nor "same width-partition with ``src`` positioned earlier" holds.  All
    schedule coordinates of both endpoints are included so the producing
    inspector's bug is localisable without re-deriving anything.
    """

    src: int
    dst: int
    src_level: int
    dst_level: int
    src_partition: int
    dst_partition: int
    src_position: int
    dst_position: int

    def describe(self) -> str:
        """One-line human-readable account of the violation."""
        return (
            f"dependence violated: edge {self.src} -> {self.dst} "
            f"(levels {self.src_level} -> {self.dst_level}, "
            f"partitions {self.src_partition} -> {self.dst_partition}, "
            f"positions {self.src_position} -> {self.dst_position})"
        )

    def as_dict(self) -> dict:
        """JSON-ready form for reports and the ``analyze`` CLI."""
        return asdict(self)


def dependence_witnesses(
    level: np.ndarray,
    pid: np.ndarray,
    pos: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    max_witnesses: int = 1,
) -> Tuple[int, List[DependenceWitness]]:
    """Count and witness the mis-ordered edges among ``src -> dst``.

    An edge is safely ordered iff ``level[src] < level[dst]`` or the two
    endpoints share a width-partition with ``src`` positioned earlier.  The
    returned witnesses are sorted to make the *minimal* counterexample first:
    ascending destination level, then source/destination ids — so the
    earliest point in the execution where the schedule goes wrong leads.
    Returns ``(n_violations, witnesses)`` from one evaluation of the
    predicate.  Both :meth:`Schedule.validate` and the static verifier in
    :mod:`repro.analysis.verifier` report through it.
    """
    ok = (level[src] < level[dst]) | ((pid[src] == pid[dst]) & (pos[src] < pos[dst]))
    bad = np.nonzero(~ok)[0]
    if bad.shape[0] == 0:
        return 0, []
    order = np.lexsort((dst[bad], src[bad], level[dst[bad]]))
    picked = bad[order[:max_witnesses]]
    return int(bad.shape[0]), [
        DependenceWitness(
            src=int(src[e]),
            dst=int(dst[e]),
            src_level=int(level[src[e]]),
            dst_level=int(level[dst[e]]),
            src_partition=int(pid[src[e]]),
            dst_partition=int(pid[dst[e]]),
            src_position=int(pos[src[e]]),
            dst_position=int(pos[dst[e]]),
        )
        for e in picked
    ]


def ptr_from_counts(counts: ArrayLike) -> np.ndarray:
    """Boundary array ``[0, c0, c0 + c1, ...]`` of a run of counts."""
    counts = np.asarray(counts, dtype=INDEX_DTYPE)
    ptr = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _concat(chunks: Sequence[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=INDEX_DTYPE)
    return np.concatenate(chunks).astype(INDEX_DTYPE, copy=False)


def bucket_level(
    verts: np.ndarray, bucket: np.ndarray, cores: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One coarsened wavefront from a bucket label per vertex.

    Bucket ``b`` becomes the width-partition on core ``cores[b]`` holding
    its vertices smallest id first (the spatial-locality rule of Section
    IV-C); empty buckets are dropped.  Returns the ``(vertices, sizes,
    cores)`` block :func:`stack_levels` consumes.
    """
    order = np.lexsort((verts, bucket))
    sizes = np.bincount(bucket, minlength=cores.shape[0])
    used = sizes > 0
    return verts[order], sizes[used], cores[used]


def stack_levels(levels: Iterable[Tuple[ArrayLike, ArrayLike, ArrayLike]]) -> dict:
    """The four :class:`Schedule` arrays from per-level blocks.

    Each block is ``(vertices, sizes, cores)``: the level's partitions'
    vertices back to back, each partition's size, and each partition's
    core.  The result is keyword arguments for the constructor.
    """
    verts: List[np.ndarray] = []
    sizes: List[np.ndarray] = []
    cores: List[np.ndarray] = []
    widths: List[int] = []
    for v, sz, c in levels:
        verts.append(np.asarray(v))
        sizes.append(np.asarray(sz, dtype=INDEX_DTYPE))
        cores.append(np.asarray(c, dtype=INDEX_DTYPE))
        widths.append(sizes[-1].shape[0])
    return {
        "order": _concat(verts),
        "part_ptr": ptr_from_counts(_concat(sizes)),
        "part_core": _concat(cores),
        "level_ptr": ptr_from_counts(widths),
    }


def _check_pointer(name: str, ptr: np.ndarray, end: int) -> None:
    if ptr.shape[0] == 0 or ptr[0] != 0:
        raise ScheduleError(f"{name} must start at 0")
    if ptr[-1] != end:
        raise ScheduleError(f"{name} ends at {int(ptr[-1])}, expected {end}")
    if np.any(ptr[1:] < ptr[:-1]):
        raise ScheduleError(f"{name} decreases")


@dataclass
class Schedule:
    """A complete execution plan for one sparse kernel instance.

    Attributes
    ----------
    n:
        Number of kernel iterations (DAG vertices).
    order:
        Vertex ids in execution order: levels, then partitions, then each
        partition's sequential sweep.
    part_ptr:
        Width-partition boundaries in ``order`` (length partitions + 1).
    part_core:
        Core of each width-partition; ``-1`` when the runtime places it
        dynamically (fine-grained mode, Algorithm 1 Lines 36-38).
    level_ptr:
        Coarsened-wavefront boundaries over the partitions (length
        levels + 1); the partitions of one level may run concurrently.
    sync:
        ``"barrier"`` — a global barrier separates consecutive levels;
        ``"p2p"`` — partitions synchronise point-to-point on their
        cross-partition dependences (no barriers).
    algorithm:
        Producing inspector's name (``"hdagg"``, ``"wavefront"``, ...).
    n_cores:
        Core count the schedule was built for.
    fine_grained:
        True when bin packing was disabled and the runtime load-balances the
        width-partitions dynamically.
    meta:
        Free-form inspector diagnostics (grouping sizes, cut positions, ...).

    The constructor checks only the pointer shapes; :meth:`validate`
    checks the schedule against a DAG.
    """

    n: int
    order: np.ndarray
    part_ptr: np.ndarray
    part_core: np.ndarray
    level_ptr: np.ndarray
    sync: str
    algorithm: str
    n_cores: int
    fine_grained: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sync not in ("barrier", "p2p"):
            raise ScheduleError(f"unknown sync model {self.sync!r}")
        if self.n_cores < 1:
            raise ScheduleError("n_cores must be >= 1")
        for name in ("order", "part_ptr", "part_core", "level_ptr"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=INDEX_DTYPE)
            if arr.ndim != 1:
                raise ScheduleError(f"{name} must be a 1-D array")
            setattr(self, name, arr)
        _check_pointer("part_ptr", self.part_ptr, self.order.shape[0])
        if np.any(self.part_ptr[1:] == self.part_ptr[:-1]):
            raise ScheduleError("empty width-partition")
        if self.part_core.shape[0] != self.part_ptr.shape[0] - 1:
            raise ScheduleError(
                f"part_core has {self.part_core.shape[0]} entries for "
                f"{self.part_ptr.shape[0] - 1} width-partitions"
            )
        _check_pointer("level_ptr", self.level_ptr, self.part_core.shape[0])

    @classmethod
    def from_partitions(
        cls,
        n: int,
        levels: Sequence[Sequence[Tuple[int, ArrayLike]]],
        *,
        sync: str,
        algorithm: str,
        n_cores: int,
        fine_grained: bool = False,
        meta: Optional[dict] = None,
    ) -> "Schedule":
        """A schedule written out as levels of ``(core, vertices)`` pairs.

        For hand-built schedules (tests, the tutorial, the mutation
        harness); inspectors write the arrays directly.
        """
        blocks = []
        for level in levels:
            parts = [np.asarray(v, dtype=INDEX_DTYPE) for _, v in level]
            blocks.append((_concat(parts), [len(v) for v in parts], [c for c, _ in level]))
        return cls(
            n=n,
            **stack_levels(blocks),
            sync=sync,
            algorithm=algorithm,
            n_cores=n_cores,
            fine_grained=fine_grained,
            meta=meta if meta is not None else {},
        )

    # ------------------------------------------------------------------
    # shape accessors
    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of coarsened wavefronts."""
        return self.level_ptr.shape[0] - 1

    @property
    def n_partitions(self) -> int:
        """Total number of width-partitions."""
        return self.part_core.shape[0]

    def partition_level(self) -> np.ndarray:
        """Per-partition coarsened-wavefront index."""
        return np.repeat(
            np.arange(self.n_levels, dtype=INDEX_DTYPE), np.diff(self.level_ptr)
        )

    def execution_order(self) -> np.ndarray:
        """A sequential order consistent with the schedule (a copy of ``order``).

        For any *valid* schedule this is a topological order of the kernel
        DAG, which is what the dependence-checking executors consume.
        """
        return self.order.copy()

    def _scatter(self, per_partition: np.ndarray, offset=0) -> np.ndarray:
        """Per-vertex ``per_partition[j] + offset[slot]`` (``-1`` where unscheduled)."""
        out = np.full(self.n, -1, dtype=INDEX_DTYPE)
        out[self.order] = np.repeat(per_partition, np.diff(self.part_ptr)) + offset
        return out

    def level_of(self) -> np.ndarray:
        """Per-vertex coarsened-wavefront index."""
        return self._scatter(self.partition_level())

    def partition_of(self) -> np.ndarray:
        """Per-vertex global width-partition index (schedule order)."""
        return self._scatter(np.arange(self.n_partitions, dtype=INDEX_DTYPE))

    def position_of(self) -> np.ndarray:
        """Per-vertex position within its width-partition."""
        return self._scatter(-self.part_ptr[:-1], np.arange(self.order.shape[0]))

    def core_assignment(self) -> np.ndarray:
        """Per-vertex core id (-1 where dynamically scheduled)."""
        return self._scatter(self.part_core)

    def n_barriers(self) -> int:
        """Global barriers the executor will issue (levels - 1 for barrier sync)."""
        return max(0, self.n_levels - 1) if self.sync == "barrier" else 0

    def partition_costs(self, vertex_cost: np.ndarray) -> List[float]:
        """Total cost of each width-partition.

        Each partition is summed on its own, so every float is bit-identical
        to ``vertex_cost[vertices].sum()`` (a segmented ``reduceat`` adds in
        another order).
        """
        c = np.asarray(vertex_cost)[self.order]
        ptr = self.part_ptr.tolist()
        return [float(c[lo:hi].sum()) for lo, hi in zip(ptr[:-1], ptr[1:])]

    def level_loads(self, vertex_cost: np.ndarray) -> List[np.ndarray]:
        """Per-level array of per-core loads (length ``n_cores`` each).

        Fine-grained partitions (core == -1) are assigned greedily to the
        least-loaded core, mirroring what a work-stealing runtime achieves.
        """
        costs = self.partition_costs(vertex_cost)
        cores = self.part_core.tolist()
        lp = self.level_ptr.tolist()
        loads: List[np.ndarray] = []
        for k in range(self.n_levels):
            bins = np.zeros(self.n_cores, dtype=np.float64)
            for j in range(lp[k], lp[k + 1]):
                if cores[j] >= 0:
                    bins[cores[j] % self.n_cores] += costs[j]
                else:
                    bins[int(np.argmin(bins))] += costs[j]
            loads.append(bins)
        return loads

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check_structure(self, n: int) -> None:
        """Raise :class:`ScheduleError` unless the partitions exactly cover
        ``range(n)`` and no core runs two partitions of one level.

        The one structural check: :meth:`validate` and
        :func:`repro.analysis.verifier.verify_dependences` both run it.
        """
        if n != self.n:
            raise ScheduleError(f"schedule covers {self.n} vertices, DAG has {n}")
        order = self.order
        if order.shape[0] != self.n:
            raise ScheduleError(
                f"schedule holds {order.shape[0]} vertex slots for {self.n} vertices "
                "(duplicate or missing entries)"
            )
        if self.n and (int(order.min()) < 0 or int(order.max()) >= self.n):
            raise ScheduleError("vertex id out of range")
        level = self.partition_level()
        if np.any(np.bincount(order, minlength=self.n) != 1):
            # n slots over range(n): some vertex repeats; name its second slot
            again = np.ones(self.n, dtype=bool)
            again[np.unique(order, return_index=True)[1]] = False
            slot = int(np.argmax(again))
            k = level[np.searchsorted(self.part_ptr, slot, side="right") - 1]
            raise ScheduleError(f"vertex {int(order[slot])} scheduled twice (level {k})")
        # static partitions by (level, core), walk order kept within ties
        static = np.flatnonzero(self.part_core >= 0)
        key = level[static] * (int(self.part_core.max(initial=0)) + 1) + self.part_core[static]
        by_key = np.argsort(key, kind="stable")
        clash = static[by_key[1:]][key[by_key[1:]] == key[by_key[:-1]]]
        if clash.shape[0]:
            j = int(clash.min())  # the first partition to reuse a taken core
            raise ScheduleError(
                f"core {self.part_core[j]} used by two width-partitions in level {level[j]}"
            )

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(level_of, partition_of, position_of)``: the dependence predicate's inputs."""
        return self.level_of(), self.partition_of(), self.position_of()

    def validate(self, g: DAG, *, check_dependences: bool = True) -> None:
        """Raise :class:`ScheduleError` unless the schedule is well-formed.

        Structural: :meth:`check_structure`.

        Dependences: every edge ``u -> v`` must satisfy
        ``level(u) < level(v)``, or ``u`` and ``v`` share a width-partition
        with ``u`` positioned earlier.  This is the safety invariant of both
        sync models (barrier: partitions of one level run concurrently;
        p2p: partitions may overlap across levels but a partition never
        waits mid-stream for a same-level peer).
        """
        self.check_structure(g.n)
        if not check_dependences or g.n_edges == 0:
            return
        _, witnesses = dependence_witnesses(*self.coordinates(), *g.edge_list())
        if witnesses:
            raise ScheduleError(witnesses[0].describe(), witness=witnesses[0])

    def summary(self, vertex_cost: np.ndarray | None = None) -> dict:
        """Shape statistics used by reports and tests."""
        sizes = np.diff(self.part_ptr)
        widths = np.diff(self.level_ptr)
        out = {
            "algorithm": self.algorithm,
            "n": self.n,
            "n_levels": self.n_levels,
            "n_partitions": self.n_partitions,
            "sync": self.sync,
            "fine_grained": self.fine_grained,
            "max_width": int(widths.max()) if widths.size else 0,
            "mean_partition_size": float(np.mean(sizes)) if sizes.size else 0.0,
        }
        if vertex_cost is not None:
            from .pgp import accumulated_pgp

            out["accumulated_pgp"] = accumulated_pgp(self, vertex_cost)
        return out

    def reversed(self) -> "Schedule":
        """The mirror schedule, valid for the *reversed* DAG.

        Levels run in opposite order and each width-partition's internal
        order flips; cores and the partition order within a level are
        preserved.  If this schedule is valid for ``G`` then the result is
        valid for ``G.reverse()`` — which is exactly the dependence
        structure of the backward/transpose kernel (``L^T x = y``), so one
        inspection serves both sweeps of a preconditioner application.
        """
        n_parts = self.n_partitions
        # partitions in the new order: levels reversed, each level in order
        parts = gather_slices(
            self.level_ptr,
            np.arange(n_parts, dtype=INDEX_DTYPE),
            np.arange(self.n_levels, dtype=INDEX_DTYPE)[::-1],
        )
        # order[::-1] holds partition j, reversed, at slot n_parts - 1 - j
        flipped_ptr = self.order.shape[0] - self.part_ptr[::-1]
        order = gather_slices(flipped_ptr, self.order[::-1], n_parts - 1 - parts)
        return Schedule(
            n=self.n,
            order=order,
            part_ptr=ptr_from_counts(np.diff(self.part_ptr)[parts]),
            part_core=self.part_core[parts],
            level_ptr=ptr_from_counts(np.diff(self.level_ptr)[::-1]),
            sync=self.sync,
            algorithm=f"{self.algorithm}-reversed",
            n_cores=self.n_cores,
            fine_grained=self.fine_grained,
            meta=dict(self.meta, reversed=True),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.algorithm}, n={self.n}, levels={self.n_levels}, "
            f"partitions={self.n_partitions}, sync={self.sync})"
        )
