"""Inspector algorithms: HDagg plus the paper's baselines.

Every scheduler is a pass group registered in
:data:`repro.passes.PASS_GROUPS`; ``SCHEDULERS`` is the read-only view
mapping each name to a builder with the uniform signature
``builder(g, cost, p=None, epsilon=None, *, backend=None, **options)
-> Schedule``:

========== ====================================================
name        algorithm
========== ====================================================
hdagg       Hybrid DAG Aggregation (the paper's contribution)
wavefront   level sets + global barriers [2]
spmp        level grouping + point-to-point sync [4]
lbc         load-balanced level coarsening (ParSy) [7]
dagp        acyclic partitioning, list-scheduled quotient [1]
mkl         vendor-style level sets, count chunking (SpTRSV)
coarsenk    fixed-window wavefront coarsening [5], [6]
serial      sequential order (NRE denominator)
========== ====================================================

``epsilon`` and ``backend`` are accepted by every builder and seeded only
where the group declares them; group-specific options (``k`` for
``coarsenk`` and ``dagp``, the cap and sync model for ``hdagg``) are
rejected by the groups that do not take them.  This package keeps the
monolithic baseline algorithms the LBC and DAGP passes run.
"""

from typing import Any, Callable

from ..passes.registry import SCHEDULERS
from .dagp import acyclic_partition, edge_cut
from .lbc import elimination_tree, forest_components, tree_levels

__all__ = [
    "SCHEDULERS",
    "get_scheduler",
    "acyclic_partition",
    "edge_cut",
    "elimination_tree",
    "forest_components",
    "tree_levels",
]


def get_scheduler(name: str) -> Callable[..., Any]:
    """Look up a registered scheduler; raises ``KeyError`` with choices listed."""
    return SCHEDULERS[name]
