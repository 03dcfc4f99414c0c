"""Per-ball and per-point views that only tests read: the package works
from masks (`metric.within`, `metric.covered`) and from the classes'
(radius, count) runs."""

import numpy as np

from nukc.metric import within


def ball(space, center: int, radius: float) -> list:
    """Points within the closed ball of `radius` around `center`."""
    return [int(q) for q in np.nonzero(within(space.dist[center], radius))[0]]


def expand_radii(instance) -> list:
    """All radii as individual (sorted, non-increasing) entries, paired
    with their class index: [(radius, class_index), ...].  One entry per
    ball, so only for small k."""
    out = []
    for t, c in enumerate(instance.classes):
        out.extend([(c.radius, t)] * c.multiplicity)
    return out
