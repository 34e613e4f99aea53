"""Schedule persistence through the HDSC codec, the one serialization.

The inspector is the expensive half of the framework, so persisting its
output and reusing it across processes is part of the library contract;
``repro.store.codec`` is that format (its meta block is canonical JSON).
"""

import json

import numpy as np
import pytest

from repro.core import hdagg
from repro.graph import dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.store import decode_schedule, encode_schedule


@pytest.mark.parametrize("algo", ["hdagg", "wavefront", "spmp", "lbc", "dagp"])
def test_roundtrip_through_json(algo, mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    s = SCHEDULERS[algo](g, cost, 4)
    s2 = decode_schedule(encode_schedule(s))
    s2.validate(g)
    assert s2.algorithm == s.algorithm
    assert s2.sync == s.sync
    assert s2.n_cores == s.n_cores
    assert s2.fine_grained == s.fine_grained
    assert s2.execution_order().tolist() == s.execution_order().tolist()
    assert s2.core_assignment().tolist() == s.core_assignment().tolist()


def test_meta_filtered_to_json_safe(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 4)
    s.meta["array"] = np.arange(3)  # not JSON-safe: must be dropped
    meta = decode_schedule(encode_schedule(s)).meta
    assert "array" not in meta
    assert "epsilon" in meta
    json.dumps(meta)  # must not raise


def test_executor_accepts_deserialized(mesh_nd, rng):
    kernel = KERNELS["sptrsv"]
    from repro.sparse import lower_triangle

    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    s = decode_schedule(encode_schedule(hdagg(g, kernel.cost(low), 4)))
    b = rng.normal(size=mesh_nd.n_rows)
    got = kernel.execute_in_order(low, s.execution_order(), b)
    np.testing.assert_allclose(got, kernel.reference(low, b), rtol=1e-10)
