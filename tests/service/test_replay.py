"""The traffic model the end-to-end benchmark draws pattern repeats from."""

import numpy as np
import pytest

from repro.service.replay import ReplayConfig, zipf_weights


class TestTrafficModel:
    def test_zipf_weights_normalised_and_skewed(self):
        w = zipf_weights(6, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0), "popularity must fall with rank"
        flat = zipf_weights(6, 0.0)
        np.testing.assert_allclose(flat, np.full(6, 1 / 6))

    def test_default_exponent_is_the_benchmarked_one(self):
        # bench/layers.py reads ReplayConfig.zipf_s as the pattern-stream exponent
        assert ReplayConfig.zipf_s == 1.2
