"""The schedule-request traffic model (Zipf popularity over patterns).

Schedule reuse itself lives in
:meth:`repro.core.schedule_cache.ScheduleCache.acquire`; this package keeps
only the traffic model the end-to-end benchmark draws pattern repeats from.
"""

from .replay import ReplayConfig, zipf_weights

__all__ = ["ReplayConfig", "zipf_weights"]
