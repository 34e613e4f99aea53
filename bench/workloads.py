"""The four workloads: seeded inputs, timed preparation, closed-loop ops, checks.

Every workload has one client that starts the next operation ("op") when the
previous one finishes.  ``make_inputs(seed)`` builds everything before timing
starts; ``prepare`` does the timed per-system or per-matrix preparation;
``run`` runs every op once through a :class:`measure.Tally` and returns its
outcome data; ``quality`` turns that into deterministic metrics; ``warmup``
exercises the workload's calls on a tiny input.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from layers import BASELINES, GENERATORS, ZIPF_S, Layers, csr, zipf_weights
from measure import Skipped, Tally, require

#: Extra generator arguments per family (the size is the first argument).
_FAMILY_ARGS = {
    "poisson2d": ((), {}),
    "poisson3d": ((), {}),
    "random_spd": ((6,), {}),
    "power_law_spd": ((5,), {}),
    "banded_spd": ((8,), {"fill": 0.6}),
    "kite_chain_spd": ((9,), {}),
}
KERNELS = ("sptrsv", "spic0", "spilu0")
#: Largest accepted kernel defect (relative residual or factor defect).
DEFECT_TOL = 1e-8


def generate(family: str, size, seed: int):
    """One SPD matrix of ``family``.

    ``size`` is ``n`` for the random and banded families, the kite count for
    kite chains, and the grid side -- or a tuple of sides -- for the stencils.
    """
    args, kwargs = _FAMILY_ARGS[family]
    sides = size if isinstance(size, tuple) else (size,)
    return GENERATORS[family](*sides, *args, seed=seed, **kwargs)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


# ----------------------------------------------------------------------
class ColdSolve:
    """A fresh SPD system per op, from raw CSR to a checked kernel result.

    Every (family, kernel) pair gets ``per_pair`` systems, at fixed sizes
    spread evenly over the family's range, so every seed has the same mix of
    sizes; the seed draws the generator seeds, the right-hand sides and the
    order of the ops.
    """

    name = "cold-solve"
    FAMILIES = (
        ("poisson2d", 13, 28),
        ("poisson3d", 6, 10),
        ("random_spd", 250, 850),
        ("power_law_spd", 250, 850),
        ("banded_spd", 250, 850),
        ("kite_chain_spd", 20, 60),
    )

    def __init__(self, per_pair: int = 12) -> None:
        self.per_pair = per_pair

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        systems = []
        for family, lo, hi in self.FAMILIES:
            for kernel in KERNELS:
                for j in range(self.per_pair):
                    size = lo + (hi - lo) * (2 * j + 1) // (2 * self.per_pair)
                    a = generate(family, size, _seed(rng))
                    raw = (a.n_rows, a.n_cols, a.indptr.copy(), a.indices.copy(), a.data.copy())
                    b = rng.standard_normal(a.n_rows) if kernel == "sptrsv" else None
                    systems.append((kernel, raw, b))
        return [systems[i] for i in rng.permutation(len(systems))]

    @staticmethod
    def digest(inputs) -> str:
        arrays = []
        for kernel, raw, b in inputs:
            arrays += [np.frombuffer(kernel.encode(), np.uint8), *raw[2:]]
            if b is not None:
                arrays.append(b)
        return _digest(arrays)

    @staticmethod
    def prepare(L: Layers, tally: Tally, inputs) -> list:
        return inputs

    @staticmethod
    def run(L: Layers, tally: Tally, inputs) -> dict:
        for kernel, raw, b in inputs:
            tally.op(solve_cold, L, kernel, raw, b)
        return {}

    @staticmethod
    def quality(stats: dict) -> dict:
        return {}

    @staticmethod
    def warmup(L: Layers) -> None:
        a = generate("poisson2d", 6, 0)
        for kernel in KERNELS:
            b = np.ones(a.n_rows) if kernel == "sptrsv" else None
            solve_cold(L, kernel, (a.n_rows, a.n_cols, a.indptr, a.indices, a.data), b)


def solve_cold(L: Layers, kernel: str, raw, b) -> None:
    """sanitize -> ND order -> DAG/cost -> HDagg -> verify -> execute -> check."""
    a = L.order(L.sanitize(raw))
    m = L.operand(kernel, a)
    g = L.dag(kernel, m)
    schedule = L.inspect("hdagg", g, L.cost(kernel, m))
    report = L.verify(schedule, g)
    require(report.ok, "verify", report.describe())
    result = L.execute(kernel, m, L.execution_order(schedule), b)
    defect = L.check(kernel, m, result, b)
    require(defect <= DEFECT_TOL, "check", f"{kernel} defect {defect:.3e}")


# ----------------------------------------------------------------------
class PcgReuse:
    """IC(0)-preconditioned CG on new right-hand sides of a few fixed systems.

    Preparation, once per run: per system, ND order, SpIC0 inspection and
    factorisation, and inspection of both triangular sweeps.  Each op is one
    solve whose preconditioner runs both scheduled sweeps per iteration.
    """

    name = "pcg-reuse"
    #: poisson3d is the largest system by a clear margin, so the p90 falls
    #: inside its solves, not on the border between two systems whose solve
    #: times depend on the seed.
    SYSTEMS = (("poisson2d", 30), ("poisson3d", 11), ("random_spd", 1200), ("power_law_spd", 1200))
    TOL = 1e-8
    RESIDUAL_TOL = 1e-7
    MAX_ITER = 1000

    def __init__(self, rhs: int = 25) -> None:
        self.rhs = rhs

    def make_inputs(self, seed: int) -> tuple:
        """``(systems, ops)``: ``(a, right-hand sides)`` per system, ``(system, rhs)`` per op.

        The ops of all systems are shuffled together.  Run back to back, one
        system's solves would all land in the same stretch of host speed, and
        the quantiles, which fall inside one system's solves, would move with it.
        """
        rng = np.random.default_rng([seed, 2])
        systems = []
        for family, size in self.SYSTEMS:
            a = generate(family, size, _seed(rng))
            systems.append((a, rng.standard_normal((self.rhs, a.n_rows))))
        n = len(systems)
        return systems, [(int(k) % n, int(k) // n) for k in rng.permutation(n * self.rhs)]

    @staticmethod
    def digest(inputs) -> str:
        systems, ops = inputs
        arrays = [arr for a, bs in systems for arr in (a.indptr, a.indices, a.data, bs)]
        return _digest(arrays + [np.array(ops)])

    @staticmethod
    def prepare(L: Layers, tally: Tally, inputs) -> tuple:
        systems, ops = inputs
        return [tally.prep(prepare_pcg, L, a) for a, _ in systems], systems, ops

    @staticmethod
    def run(L: Layers, tally: Tally, state) -> dict:
        prepared, systems, ops = state
        iters: list = []
        for i, j in ops:
            if isinstance(prepared[i], Skipped):
                tally.skip(1, prepared[i])
            else:
                tally.op(solve_pcg, L, prepared[i], systems[i][1][j], iters)
        return {"iterations": iters}

    @staticmethod
    def quality(stats: dict) -> dict:
        iters = stats.get("iterations", [])
        return {"solver_iters.mean": float(np.mean(iters))} if iters else {}

    @staticmethod
    def warmup(L: Layers) -> None:
        a = generate("poisson2d", 6, 0)
        solve_pcg(L, prepare_pcg(L, a), np.ones(a.n_rows), [])


def _scheduled_order(L: Layers, kernel: str, m):
    g = L.dag(kernel, m)
    schedule = L.inspect("hdagg", g, L.cost(kernel, m))
    report = L.verify(schedule, g)
    require(report.ok, "verify", report.describe())
    return L.execution_order(schedule)


def prepare_pcg(L: Layers, a) -> tuple:
    """Order, factor with scheduled SpIC0, and schedule both triangular sweeps."""
    a = L.order(a)
    factor = L.execute("spic0", a, _scheduled_order(L, "spic0", a))
    backward = L.backward_operand(factor)
    sweeps = [(m, _scheduled_order(L, "sptrsv", m)) for m in (factor, backward)]
    return a, sweeps


def solve_pcg(L: Layers, prepared: tuple, b: np.ndarray, iters: list) -> None:
    a, ((low, forward), (up, backward)) = prepared

    def precondition(r):
        y = L.execute("sptrsv", low, forward, r)  # L y = r
        return L.execute("sptrsv", up, backward, y[::-1].copy())[::-1].copy()  # L^T z = y

    result = L.pcg(a, b, precondition, PcgReuse.TOL, PcgReuse.MAX_ITER)
    require(result.converged, "pcg", f"no convergence in {result.iterations} iterations")
    residual = L.residual(a, result.x, b)
    require(residual <= PcgReuse.RESIDUAL_TOL, "check", f"true residual {residual:.3e}")
    iters.append(result.iterations)


# ----------------------------------------------------------------------
class PaperGrid:
    """Table I regenerated: every (matrix, kernel, scheduler) cell, simulated.

    The matrices are the smallest-nnz suite matrix of each of the 8 families;
    ``--seed`` has no effect.  Preparation, once per run: per matrix, build,
    sanitize, ND order, DAG/cost/memory model and a simulated serial run.
    Each cell (schedule, verify, simulate) is one op.
    """

    name = "paper-grid"
    MATRICES = (
        "mesh2d-s", "mesh3d-s", "band-narrow", "rand-sparse",
        "chain-pure", "blocks-tiny", "arrow-few", "kite-small",
    )

    def __init__(self, matrices: tuple = MATRICES) -> None:
        self.matrices = matrices

    def make_inputs(self, seed: int) -> tuple:
        return self.matrices

    @staticmethod
    def digest(inputs) -> str:
        return hashlib.sha256(" ".join(inputs).encode()).hexdigest()[:16]

    @staticmethod
    def prepare(L: Layers, tally: Tally, inputs) -> list:
        return [(name, tally.prep(prepare_grid_matrix, L, name)) for name in inputs]

    @staticmethod
    def run(L: Layers, tally: Tally, state) -> dict:
        """Every cell once, in one fixed shuffled order.

        Matrix by matrix, the slow cells (LBC and DAGP on the larger
        matrices) would run back to back, and the p90 would move with the
        host's speed over that one stretch.
        """
        cells = [(name, prepared, k, algo)
                 for name, prepared in state for k in KERNELS for algo in algorithms(k)]
        speedups: dict = {}
        hdagg_sims: list = []
        for c in np.random.default_rng(0).permutation(len(cells)):
            name, prepared, kernel, algo = cells[c]
            if isinstance(prepared, Skipped):
                tally.skip(1, prepared)
                continue
            pair = speedups.setdefault((name, kernel), {})
            tally.op(grid_cell, L, prepared[kernel], algo, pair, hdagg_sims)
        return {"speedups": speedups, "hdagg_sims": hdagg_sims}

    @staticmethod
    def quality(stats: dict) -> dict:
        model, versus = [], []
        for pair in stats.get("speedups", {}).values():
            baselines = [pair[b] for b in BASELINES if b in pair]
            if "hdagg" in pair and baselines:
                model.append(pair["hdagg"])
                versus.append(pair["hdagg"] / max(baselines))
        sims = stats.get("hdagg_sims", [])
        if not model or not sims:
            return {}
        return {
            "model_speedup.gmean": _gmean(model),
            "model_vs_best.gmean": _gmean(versus),
            "simulate.barriers": sum(s[0] for s in sims),
            "simulate.p2p_syncs": sum(s[1] for s in sims),
            "simulate.hit_rate.mean": float(np.mean([s[2] for s in sims])),
            "simulate.potential_gain.mean": float(np.mean([s[3] for s in sims])),
        }

    @staticmethod
    def warmup(L: Layers) -> None:
        prepared = _prepare_matrix(L, generate("poisson2d", 6, 0))
        for kernel in KERNELS:
            for algo in algorithms(kernel):
                grid_cell(L, prepared[kernel], algo, {}, [])


def algorithms(kernel: str) -> tuple:
    """HDagg and the baselines; MKL has no parallel SpIC0/SpILU0 (paper, Section V)."""
    return ("hdagg", *(b for b in BASELINES if b != "mkl" or kernel == "sptrsv"))


def prepare_grid_matrix(L: Layers, name: str) -> dict:
    return _prepare_matrix(L, L.build(name))


def _prepare_matrix(L: Layers, raw) -> dict:
    a = L.order(L.sanitize(raw))
    prepared = {}
    for kernel in KERNELS:
        m = L.operand(kernel, a)
        g = L.dag(kernel, m)
        cost = L.cost(kernel, m)
        memory = L.memory(kernel, m, g)
        serial = L.simulate(L.inspect("serial", g, cost), g, cost, memory, serial=True)
        prepared[kernel] = (g, cost, memory, serial.makespan_cycles)
    return prepared


def grid_cell(L: Layers, prepared: tuple, algo: str, pair: dict, hdagg_sims: list) -> None:
    g, cost, memory, serial_cycles = prepared
    schedule = L.inspect(algo, g, cost)
    report = L.verify(schedule, g)
    require(report.ok, "verify", report.describe())
    sim = L.simulate(schedule, g, cost, memory)
    require(sim.makespan_cycles > 0, "simulate", "non-positive makespan")
    pair[algo] = serial_cycles / sim.makespan_cycles
    if algo == "hdagg":
        hdagg_sims.append((sim.n_barriers, sim.n_p2p_syncs, sim.hit_rate, sim.potential_gain))


def _gmean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
class PatternStream:
    """Verified SpTRSV schedules for a stream of incoming patterns, via the cache.

    Four base patterns (natural-order lower triangles) start the stream.  Of
    the remaining ops exactly 45% repeat an earlier pattern, 40% drift one
    family's latest pattern by dropping or adding one off-diagonal entry in 5
    rows, and 15% bring a new pattern under a new family label; drifts and new
    patterns are spread evenly over the families.  This mix and the drift size
    are assumptions, not measurements: no trace of real pattern traffic exists
    to take them from.  Which earlier pattern a repeat asks for follows the
    program's own traffic model, :func:`repro.service.replay.zipf_weights`
    with the replay's exponent, over the patterns ranked by first arrival: the
    base patterns are the head, recent drifts and new patterns the tail.  The
    stream runs through one fresh ``max_entries``-slot cache; distinct
    patterns far outnumber the slots, so the cache also evicts.
    """

    name = "pattern-stream"
    #: (family, size, grid dimensions; 0 for the random families' ``n``)
    BASES = (("poisson2d", 57, 2), ("poisson3d", 14, 3), ("random_spd", 3200, 0), ("power_law_spd", 3200, 0))
    SHARES = (("repeat", 0.45), ("drift", 0.40), ("new", 0.15))
    DRIFT_ROWS = 5

    def __init__(self, ops: int = 400, scale: float = 1.0, max_entries: int = 64) -> None:
        self.ops = ops
        self.scale = scale
        self.max_entries = max_entries

    def _size(self, size: int, dims: int, rng: np.random.Generator | None):
        """Base size scaled to ``scale`` times the rows; ``rng`` perturbs it for a new pattern.

        A stencil's new pattern changes every side by up to 10%, so its
        structure differs from the base even though its generator seed does
        not affect the structure.
        """
        if dims == 0:
            jitter = 1.0 if rng is None else rng.uniform(0.9, 1.1)
            return max(8, int(round(size * self.scale * jitter)))
        side = max(3, int(round(size * self.scale ** (1.0 / dims))))
        if rng is None:
            return side
        spread = max(1, side // 10)
        return tuple(side + int(d) for d in rng.integers(-spread, spread + 1, size=dims))

    def _plan(self, rng: np.random.Generator) -> list:
        """``(kind, base)`` per op after the bases: exact kind shares, families evenly spread."""
        n = max(0, self.ops - len(self.BASES))
        counts = [int(round(share * n)) for _, share in self.SHARES]
        counts[0] += n - sum(counts)
        plan = []
        for (kind, _), count in zip(self.SHARES, counts):
            plan += [(kind, self.BASES[i % len(self.BASES)]) for i in range(count)]
        return [plan[i] for i in rng.permutation(len(plan))]

    def make_inputs(self, seed: int) -> list:
        """The stream: ``(label, (n, indptr, indices))`` per op, patterns shared by repeats."""
        rng = np.random.default_rng([seed, 4])
        latest = {}
        for family, size, dims in self.BASES:
            a = generate(family, self._size(size, dims, None), _seed(rng))
            latest[family] = (f"{family}#0", lower_pattern(a))
        seen = list(latest.values())
        stream = list(seen)
        for kind, (family, size, dims) in self._plan(rng):
            if kind == "repeat":
                item = seen[int(rng.choice(len(seen), p=zipf_weights(len(seen), ZIPF_S)))]
            else:
                if kind == "drift":
                    label, pattern = latest[family]
                    item = (label, drift(pattern, rng, self.DRIFT_ROWS))
                else:
                    a = generate(family, self._size(size, dims, rng), _seed(rng))
                    item = (f"{family}#{len(stream)}", lower_pattern(a))
                latest[family] = item
                seen.append(item)
            stream.append(item)
        return stream[: self.ops]

    @staticmethod
    def digest(inputs) -> str:
        arrays = []
        for label, (n, indptr, indices) in inputs:
            arrays += [np.frombuffer(label.encode(), np.uint8), indptr, indices]
        return _digest(arrays)

    @staticmethod
    def prepare(L: Layers, tally: Tally, inputs) -> list:
        return inputs

    def run(self, L: Layers, tally: Tally, inputs) -> dict:
        cache = L.new_cache(self.max_entries)
        for label, pattern in inputs:
            tally.op(acquire_verified, L, cache, label, pattern)
        return {}

    @staticmethod
    def quality(stats: dict) -> dict:
        return {}

    @staticmethod
    def warmup(L: Layers) -> None:
        """A full inspection, a hit and a repair on a tiny pattern."""
        pattern = lower_pattern(generate("poisson2d", 8, 0))
        cache = L.new_cache(4)
        for p in (pattern, pattern, drift(pattern, np.random.default_rng(0), 2)):
            acquire_verified(L, cache, "warmup", p)


def lower_pattern(a) -> tuple:
    """``(n, indptr, indices)`` of the lower triangle (diagonal included), int32."""
    n = a.n_rows
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    keep = a.indices <= row
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row[keep], minlength=n), out=indptr[1:])
    return n, indptr, a.indices[keep].astype(np.int32)


def drift(pattern: tuple, rng: np.random.Generator, n_rows: int) -> tuple:
    """Drop or add one off-diagonal entry in each of ``n_rows`` random rows."""
    n, indptr, indices = pattern
    rows = np.sort(rng.choice(np.arange(1, n), size=n_rows, replace=False))
    counts = np.diff(indptr)
    pieces, prev = [], 0
    for i in rows:
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        row = indices[lo:hi]  # sorted, diagonal last
        off = row[:-1]
        if off.size and (off.size == i or rng.random() < 0.5):
            row = np.delete(row, int(rng.integers(off.size)))
        else:
            free = np.setdiff1d(np.arange(i, dtype=np.int32), off, assume_unique=True)
            row = np.sort(np.append(row, free[int(rng.integers(free.size))]))
        pieces += [indices[prev:lo], row.astype(np.int32)]
        counts[i] = row.size
        prev = hi
    pieces.append(indices[prev:])
    new_indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=new_indptr[1:])
    return n, new_indptr, np.concatenate(pieces)


def acquire_verified(L: Layers, cache, label: str, pattern: tuple) -> None:
    """DAG/cost -> cache key -> hit, repair or inspect -> verify (hits too)."""
    a = csr(*pattern)
    g = L.dag("sptrsv", a)
    schedule = L.acquire(cache, g, L.cost("sptrsv", a), label)
    report = L.verify(schedule, g)
    require(report.ok, "verify", report.describe())


#: The workloads in the order the benchmark runs them.
WORKLOADS = {w.name: w for w in (ColdSolve(), PcgReuse(), PaperGrid(), PatternStream())}
