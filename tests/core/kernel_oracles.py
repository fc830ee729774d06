"""Reference dominance/selection loops: the oracles for ``repro.core.kernels``.

These are the historical implementations — one Python loop per
population row (Deb's fast non-dominated sort), per front (crowding) or
per partition (local ranking), and two full sorts for truncate-then-
re-rank.  They no longer ship in ``src/``; the production kernels must
return *bit-identical* fronts, ranks and crowding floats to them, which
``test_kernels.py``, ``test_nds_oracle.py``, ``test_pareto_oracle.py``
and ``test_determinism_regression.py`` check, and
``benchmarks/perf/bench_kernels.py`` times production against them.

:func:`oracle_kernels` patches these loops into the optimizer modules so
a whole optimizer run can be replayed on the oracle path.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.core.kernels import crowding_distance

__all__ = [
    "nds_fronts_reference",
    "constrained_fronts",
    "assign_ranks",
    "rank_and_crowd",
    "local_rank_and_crowd",
    "crowded_truncate",
    "truncate_and_rank",
    "oracle_kernels",
]


def nds_fronts_reference(objs: np.ndarray) -> List[np.ndarray]:
    """Deb's fast non-dominated sort, one Python-loop row at a time."""
    n = objs.shape[0]
    domination_count = np.zeros(n, dtype=int)
    dominated_by: List[np.ndarray] = [np.zeros(0, dtype=int)] * n
    for i in range(n):
        le = np.all(objs[i] <= objs, axis=1)
        lt = np.any(objs[i] < objs, axis=1)
        dom = le & lt  # i dominates these
        dom[i] = False
        dominated_by[i] = np.flatnonzero(dom)
        domination_count[dom] += 1

    fronts: List[np.ndarray] = []
    current = np.flatnonzero(domination_count == 0)
    remaining = domination_count.copy()
    while current.size:
        fronts.append(current)
        # Mark processed so they never reappear.
        remaining[current] = -1
        for i in current:
            remaining[dominated_by[i]] -= 1
        current = np.flatnonzero(remaining == 0)
    return fronts


def constrained_fronts(
    objectives: np.ndarray, violations: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Constrained-dominance Pareto fronts (feasible first, then
    infeasible layered by aggregate violation)."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    if n == 0:
        return []
    if violations is None:
        violations = np.zeros(n)
    violations = np.asarray(violations, dtype=float).reshape(n)
    feasible = violations <= 0.0

    fronts: List[np.ndarray] = []
    feas_idx = np.flatnonzero(feasible)
    if feas_idx.size:
        for front in nds_fronts_reference(objs[feas_idx]):
            fronts.append(feas_idx[front])

    infeas_idx = np.flatnonzero(~feasible)
    if infeas_idx.size:
        v = violations[infeas_idx]
        order = np.argsort(v, kind="stable")
        sorted_idx = infeas_idx[order]
        sorted_v = v[order]
        # Group ties in violation into a single front.  NaN sorts last and
        # compares False, so it is split off into its own last front.
        nan_v = np.isnan(sorted_v)
        start = 0
        for i in range(1, sorted_idx.size + 1):
            if (
                i == sorted_idx.size
                or sorted_v[i] > sorted_v[start]
                or nan_v[i] != nan_v[start]
            ):
                fronts.append(sorted_idx[start:i])
                start = i
    return fronts


def assign_ranks(
    objectives: np.ndarray, violations: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-point front index (0 = non-dominated) from the oracle sort."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    ranks = np.full(objs.shape[0], -1, dtype=int)
    for level, front in enumerate(constrained_fronts(objs, violations)):
        ranks[front] = level
    return ranks


def rank_and_crowd(
    objectives: np.ndarray, violations: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Global front level, then :func:`crowding_distance` front by front."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    rank = np.zeros(n, dtype=int)
    crowd = np.zeros(n, dtype=float)
    if n == 0:
        return rank, crowd
    for level, front in enumerate(constrained_fronts(objs, violations)):
        rank[front] = level
        crowd[front] = crowding_distance(objs[front])
    return rank, crowd


def local_rank_and_crowd(
    objectives: np.ndarray,
    violations: np.ndarray,
    partition: np.ndarray,
    n_partitions: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Constrained sort and crowding run partition by partition."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    rank = np.zeros(n, dtype=int)
    crowd = np.zeros(n, dtype=float)
    if n == 0:
        return rank, crowd
    viol = np.asarray(violations, dtype=float).reshape(n)
    pid = np.asarray(partition, dtype=int).reshape(n)
    for p in range(n_partitions):
        members = np.flatnonzero(pid == p)
        if members.size == 0:
            continue
        fronts = constrained_fronts(objs[members], viol[members])
        for level, front in enumerate(fronts):
            idx = members[front]
            rank[idx] = level
            crowd[idx] = crowding_distance(objs[idx])
    return rank, crowd


def crowded_truncate(
    objectives: np.ndarray, violations: Optional[np.ndarray], k: int
) -> np.ndarray:
    """NSGA-II environmental selection: whole fronts while they fit, the
    overflowing front truncated by descending crowding distance."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = objs.shape[0]
    if k >= n:
        return np.arange(n)
    chosen: List[np.ndarray] = []
    taken = 0
    for front in constrained_fronts(objs, violations):
        if taken + front.size <= k:
            chosen.append(front)
            taken += front.size
            if taken == k:
                break
        else:
            dist = crowding_distance(objs[front])
            order = np.argsort(-dist, kind="stable")
            chosen.append(front[order[: k - taken]])
            break
    return np.concatenate(chosen) if chosen else np.zeros(0, dtype=int)


def truncate_and_rank(
    objectives: np.ndarray, violations: Optional[np.ndarray], k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two full sorts: truncate the pool, then re-rank the survivors."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    keep = crowded_truncate(objs, violations, k)
    viol = None
    if violations is not None:
        viol = np.asarray(violations, dtype=float).reshape(n)[keep]
    rank, crowd = rank_and_crowd(objs[keep], viol)
    return keep, rank, crowd


#: Where each optimizer binds the kernels it calls.
_BINDINGS = {
    "repro.core.nsga2": ("rank_and_crowd", "truncate_and_rank"),
    "repro.core.islands": ("rank_and_crowd", "truncate_and_rank"),
    "repro.core.partitions": ("local_rank_and_crowd",),
    "repro.core.sacga": ("assign_ranks",),
}


@contextlib.contextmanager
def oracle_kernels() -> Iterator[None]:
    """Run every optimizer on the oracle loops for the duration."""
    oracles = globals()
    with contextlib.ExitStack() as stack:
        for module, names in _BINDINGS.items():
            for name in names:
                stack.enter_context(mock.patch(f"{module}.{name}", oracles[name]))
        yield
