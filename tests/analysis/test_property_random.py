"""Property tests: the analyses against brute force on random instances.

Two obligations, per the correctness-tooling contract:

* zero false positives — every registered scheduler is certified clean on
  random dependence structures (verifier and race detector agree with a
  brute-force oracle that there is nothing to find);
* zero false negatives — every applicable mutation class is flagged, and
  random mis-orderings are flagged in exact agreement with the brute-force
  oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import detect_races, kernel_footprint, run_mutation_suite, verify_dependences
from repro.core.schedule import Schedule
from repro.graph import dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle, random_spd

SETTINGS = dict(max_examples=25, deadline=None)


def _random_matrix(seed, n):
    return random_spd(n, 4.0, seed=seed)


def _random_schedule(g, seed):
    """Arbitrary (usually wrong) schedule: random order, levels, partitions."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    n_levels = int(rng.integers(1, 5))
    n_parts = int(rng.integers(1, 4))
    chunks = np.array_split(perm, n_levels)
    levels = []
    for chunk in chunks:
        if chunk.size == 0:
            continue
        parts = [p for p in np.array_split(chunk, n_parts) if p.size]
        levels.append([(c, p.astype(np.int64)) for c, p in enumerate(parts)])
    return Schedule.from_partitions(
        n=g.n,
        levels=levels,
        sync="barrier",
        algorithm="random",
        n_cores=n_parts,
    )


def _bruteforce_violations(schedule, g) -> int:
    level = schedule.level_of()
    pid = schedule.partition_of()
    pos = schedule.position_of()
    src, dst = g.edge_list()
    bad = 0
    for u, v in zip(src.tolist(), dst.tolist()):
        if level[u] < level[v]:
            continue
        if pid[u] == pid[v] and pos[u] < pos[v]:
            continue
        bad += 1
    return bad


def _bruteforce_has_race(schedule, fp) -> bool:
    level = schedule.level_of()
    pid = schedule.partition_of()
    for i in range(fp.n):
        wi = set(fp.writes(i).tolist())
        ri = set(fp.reads(i).tolist())
        for j in range(i + 1, fp.n):
            if level[i] != level[j] or pid[i] == pid[j]:
                continue
            wj = set(fp.writes(j).tolist())
            rj = set(fp.reads(j).tolist())
            if wi & (wj | rj) or wj & ri:
                return True
    return False


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(8, 120))
def test_all_schedulers_certified_on_random_dags(seed, n):
    """Zero false positives: real inspector output is never flagged."""
    a = _random_matrix(seed, n)
    low = lower_triangle(a)
    g = dag_from_matrix_lower(a)
    cost = KERNELS["sptrsv"].cost(low)
    fp = kernel_footprint("sptrsv", low)
    for algo in sorted(SCHEDULERS):
        s = SCHEDULERS[algo](g, cost, 3)
        report = verify_dependences(s, g, stamp_meta=False)
        assert report.ok, (algo, report.describe())
        races = detect_races(s, fp, stamp_meta=False)
        assert races.ok, (algo, races.describe())


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 40))
def test_verifier_matches_bruteforce(seed, n):
    """On arbitrary schedules the verifier agrees exactly with brute force."""
    g = dag_from_matrix_lower(_random_matrix(seed, n))
    s = _random_schedule(g, seed ^ 0xA5A5)
    report = verify_dependences(s, g, structural=False, stamp_meta=False)
    expected = _bruteforce_violations(s, g)
    assert report.n_violations == (expected if not report.ok else 0)
    assert report.ok == (expected == 0)
    if not report.ok:
        assert report.witnesses


@settings(**SETTINGS)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(4, 30),
    kname=st.sampled_from(["sptrsv", "spic0", "spilu0"]),
)
def test_race_detector_matches_bruteforce(seed, n, kname):
    """On arbitrary schedules the detector agrees exactly with the O(n^2)
    pairwise footprint-intersection oracle."""
    a = _random_matrix(seed, n)
    operand = lower_triangle(a) if kname == "sptrsv" else a
    g = KERNELS[kname].dag(operand)
    fp = kernel_footprint(kname, operand)
    s = _random_schedule(g, seed ^ 0x5A5A)
    report = detect_races(s, fp, stamp_meta=False)
    assert report.ok == (not _bruteforce_has_race(s, fp)), report.describe()


@settings(**SETTINGS)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 80),
    algo=st.sampled_from(["hdagg", "wavefront", "spmp", "lbc"]),
)
def test_mutations_never_escape(seed, n, algo):
    """Zero false negatives: every applicable mutation class is flagged."""
    a = _random_matrix(seed, n)
    low = lower_triangle(a)
    g = dag_from_matrix_lower(a)
    s = SCHEDULERS[algo](g, KERNELS["sptrsv"].cost(low), 3)
    results = run_mutation_suite(s, g, kernel_footprint("sptrsv", low), seed=seed)
    escaped = [r.name for r in results if r.escaped]
    assert not escaped, escaped


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 40))
def test_witness_describes_a_real_violation(seed, n):
    """Every reported witness re-checks as violating under the invariant."""
    g = dag_from_matrix_lower(_random_matrix(seed, n))
    s = _random_schedule(g, seed)
    report = verify_dependences(s, g, structural=False, stamp_meta=False, max_witnesses=8)
    for w in report.witnesses:
        ordered_by_level = w.src_level < w.dst_level
        ordered_in_partition = (
            w.src_partition == w.dst_partition and w.src_position < w.dst_position
        )
        assert not (ordered_by_level or ordered_in_partition)
