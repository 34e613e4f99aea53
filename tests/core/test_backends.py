"""The tier name: ``"compiled"`` exactly when the native library loads."""

import numpy as np

from repro.core import active_tier, hdagg
from repro.core.backends import BackendSpec, native
from repro.graph import dag_from_matrix_lower
from repro.sparse import poisson2d


def test_effective_folds_unavailable_tiers_to_numpy(monkeypatch):
    # the chain bench/layers.py stamps its runs with
    monkeypatch.setattr(native, "load", lambda: None)
    assert BackendSpec.coerce(None).effective().describe() == "numpy"
    monkeypatch.setattr(native, "load", lambda: object())
    assert BackendSpec.coerce(None).effective().describe() == "compiled"


def test_hdagg_stamps_effective_backend():
    g = dag_from_matrix_lower(poisson2d(12, seed=3))
    s = hdagg(g, np.ones(g.n), 4)
    assert s.meta["backend"] == active_tier()
    assert active_tier() == ("compiled" if native.available() else "numpy")
