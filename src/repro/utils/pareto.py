"""Pareto-dominance primitives (minimization convention throughout).

All objective arrays are ``(n_points, n_obj)`` float arrays; constraint
violation vectors are ``(n_points,)`` with 0.0 meaning feasible and
positive values meaning total violation magnitude.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Return ``True`` if objective vector *a* Pareto-dominates *b*.

    *a* dominates *b* when it is no worse in every objective and strictly
    better in at least one (minimization).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def weakly_dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Return ``True`` if *a* is no worse than *b* in every objective."""
    return bool(np.all(np.asarray(a, dtype=float) <= np.asarray(b, dtype=float)))


def constrained_dominates(
    a_obj: np.ndarray,
    b_obj: np.ndarray,
    a_violation: float = 0.0,
    b_violation: float = 0.0,
) -> bool:
    """Deb's constrained-dominance rule.

    1. A feasible solution dominates any infeasible one.
    2. Between two infeasible solutions the smaller total violation wins.
    3. Between two feasible solutions ordinary Pareto dominance applies.
    """
    a_feasible = a_violation <= 0.0
    b_feasible = b_violation <= 0.0
    if a_feasible and not b_feasible:
        return True
    if b_feasible and not a_feasible:
        return False
    if not a_feasible:  # both infeasible
        return a_violation < b_violation
    return dominates(a_obj, b_obj)


def pareto_mask(
    objectives: np.ndarray,
    violations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean mask of the non-dominated points in *objectives*.

    With *violations* supplied, constrained dominance is used: any feasible
    point beats every infeasible one, and infeasible points compete by
    violation only (a NaN violation ranks behind every finite one).

    Duplicated points are all kept (a point never dominates an exact copy
    of itself).  A point with a NaN objective neither dominates nor is
    dominated, so it is always kept among the feasible points.

    Raises ``ValueError`` when *objectives* is not 2-D or *violations*
    does not hold one value per row.
    """
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim != 2:
        raise ValueError(
            f"objectives must be 2-D (n_points, n_obj), got shape {objs.shape}"
        )
    n = objs.shape[0]
    if violations is None:
        return _nondominated(objs)
    viol = np.asarray(violations, dtype=float)
    if viol.size != n:
        raise ValueError(
            f"violations has shape {viol.shape}, expected one value per row "
            f"of objectives with shape {objs.shape}"
        )
    viol = viol.reshape(n)

    feasible = viol <= 0.0
    if feasible.any():
        # Infeasible points are dominated outright by any feasible point.
        mask = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(feasible)
        mask[idx] = _nondominated(objs[idx])
        return mask
    # All infeasible: the least violation wins; NaN only when nothing else.
    ranked = ~np.isnan(viol)
    if not ranked.any():
        return np.ones(n, dtype=bool)
    return viol <= viol[ranked].min()


#: Element budget of one ``(B, N, M)`` comparison block (about 1 MB of bools).
_BLOCK_ELEMENTS = 1 << 20


def _nondominated(objs: np.ndarray) -> np.ndarray:
    """Non-dominated mask, plain minimization: a sweep for ``M <= 2``,
    a blocked all-pairs comparison otherwise."""
    n, m = objs.shape
    if n == 0 or m == 0:
        return np.ones(n, dtype=bool)
    if m > 2:
        return _nondominated_blocked(objs)
    # NaN rows compare False both ways, so they are kept and sit out the sweep.
    keep = np.ones(n, dtype=bool)
    rows = np.flatnonzero(~np.isnan(objs).any(axis=1))
    keep[rows] = ~_dominated_sweep(objs[rows])
    return keep


def _dominated_sweep(objs: np.ndarray) -> np.ndarray:
    """Dominated mask of NaN-free rows with one or two objectives.

    After a lexicographic sort on ``(f1, f2)`` exact duplicates are
    adjacent and form one group.  Every earlier group is no worse on
    ``f1`` and differs somewhere, so it dominates a later group exactly
    when its ``f2`` is no larger: a group is dominated iff the running
    minimum of ``f2`` over the groups before it is ``<=`` its own ``f2``.
    With one objective ``f2`` is constant and only the first group (the
    minima) survives.
    """
    f1 = objs[:, 0]
    f2 = objs[:, 1] if objs.shape[1] == 2 else np.zeros(f1.size)
    order = np.lexsort((f2, f1))
    a, b = f1[order], f2[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    group_f2 = b[first]
    group_dominated = np.zeros(group_f2.size, dtype=bool)
    group_dominated[1:] = np.minimum.accumulate(group_f2)[:-1] <= group_f2[1:]
    dominated = np.empty(order.size, dtype=bool)
    dominated[order] = group_dominated[np.cumsum(first) - 1]
    return dominated


def _nondominated_blocked(objs: np.ndarray) -> np.ndarray:
    """Non-dominated mask for any ``M`` from broadcast ``(B, N, M)``
    dominance comparisons, ``B`` rows at a time."""
    n, m = objs.shape
    block = max(1, _BLOCK_ELEMENTS // (n * m))
    dominated = np.zeros(n, dtype=bool)
    for s in range(0, n, block):
        blk = objs[s : s + block, None, :]
        le = (blk <= objs[None, :, :]).all(axis=2)
        lt = (blk < objs[None, :, :]).any(axis=2)
        dominated |= (le & lt).any(axis=0)
    return ~dominated


def pareto_filter(
    objectives: np.ndarray,
    violations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of the non-dominated subset, in original order."""
    return np.flatnonzero(pareto_mask(objectives, violations))


def merge_fronts(*fronts: np.ndarray) -> np.ndarray:
    """Merge several objective arrays and return their joint Pareto front."""
    stacked = [np.atleast_2d(np.asarray(f, dtype=float)) for f in fronts if np.size(f)]
    if not stacked:
        return np.zeros((0, 0))
    allpts = np.vstack(stacked)
    return allpts[pareto_mask(allpts)]
