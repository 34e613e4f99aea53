"""Zipf traffic model for schedule requests.

Schedule traffic is skewed: a handful of factorisation patterns (the head
of a Zipf distribution) dominate requests, with a long tail of novel
structures forcing fresh inspections.  :func:`zipf_weights` is that
popularity law and :class:`ReplayConfig` fixes its parameters; the
end-to-end benchmark's ``pattern-stream`` workload draws its repeats from
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReplayConfig", "zipf_weights"]


@dataclass(frozen=True)
class ReplayConfig:
    """Parameters of the traffic model: pattern popularity falls off as
    ``1/rank^zipf_s``."""

    zipf_s: float = 1.2


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf popularity: weight of rank ``k`` ∝ ``1/(k+1)^s``."""
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return w / w.sum()
