"""Oracle tests for :func:`repro.utils.pareto.pareto_mask`.

The library computes the non-dominated mask with an ``O(N log N)`` sweep
(``M <= 2``) or a blocked all-pairs comparison (``M > 2``).  The
historical per-row loop below is kept verbatim as the oracle: for every
input, including duplicates, ``+-inf``, NaN and ``-0.0``, the two must
return the same mask bit for bit.  The constrained mask must also equal
the first front of :func:`repro.core.kernels.constrained_fronts` and of
its reference-loop oracle in ``tests/core/kernel_oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import constrained_fronts, local_rank_and_crowd
from repro.utils.pareto import pareto_mask
from tests.core import kernel_oracles

#: Constrained sorts by name: production, and the reference-loop oracle.
SORTS = {"blocked": constrained_fronts, "reference": kernel_oracles.constrained_fronts}


def loop_pareto_mask_unconstrained(objs: np.ndarray) -> np.ndarray:
    """Non-dominated mask, plain minimization, O(n^2) vectorized by row."""
    n = objs.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        # Points dominated by i: <= in all objectives and < in at least one.
        le = np.all(objs[i] <= objs, axis=1)
        lt = np.any(objs[i] < objs, axis=1)
        dominated = le & lt
        dominated[i] = False
        keep &= ~dominated
    return keep


def loop_pareto_mask(objs: np.ndarray, violations=None) -> np.ndarray:
    """Constrained-dominance wrapper around the loop oracle."""
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    if violations is None:
        return loop_pareto_mask_unconstrained(objs)
    violations = np.asarray(violations, dtype=float)
    feasible = violations <= 0.0
    if feasible.any():
        mask = np.zeros(n, dtype=bool)
        mask[feasible] = loop_pareto_mask_unconstrained(objs[feasible])
        return mask
    if np.isnan(violations).all():
        return np.ones(n, dtype=bool)
    return violations <= np.nanmin(violations)


def first_front_mask(objs, violations, kernel) -> np.ndarray:
    mask = np.zeros(objs.shape[0], dtype=bool)
    fronts = SORTS[kernel](objs, violations)
    if fronts:
        mask[fronts[0]] = True
    return mask


# Integer grid values make exact ties (duplicates, shared coordinates)
# common; the specials exercise every IEEE corner the sweep must match.
grid_value = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)
violation_value = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.integers(0, 3).map(float),
    st.sampled_from([0.5, np.inf, np.nan]),
)


@st.composite
def objective_arrays(draw, max_rows=30):
    n = draw(st.integers(0, max_rows))
    m = draw(st.integers(0, 4))
    cells = draw(st.lists(grid_value, min_size=n * m, max_size=n * m))
    objs = np.array(cells, dtype=float).reshape(n, m)
    if n and draw(st.booleans()):
        # Append exact copies of some rows.
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
        objs = np.vstack([objs, objs[picks]])
    return objs


@st.composite
def constrained_problems(draw):
    objs = draw(objective_arrays())
    n = objs.shape[0]
    viol = np.array(
        draw(st.lists(violation_value, min_size=n, max_size=n)), dtype=float
    )
    return objs, viol


class TestMaskMatchesLoopOracle:
    @given(objective_arrays())
    @settings(max_examples=400, deadline=None)
    def test_unconstrained(self, objs):
        np.testing.assert_array_equal(
            pareto_mask(objs), loop_pareto_mask(objs)
        )

    @given(constrained_problems())
    @settings(max_examples=400, deadline=None)
    def test_constrained(self, problem):
        objs, viol = problem
        np.testing.assert_array_equal(
            pareto_mask(objs, viol), loop_pareto_mask(objs, viol)
        )

    @given(constrained_problems())
    @settings(max_examples=200, deadline=None)
    def test_first_constrained_front(self, problem):
        objs, viol = problem
        np.testing.assert_array_equal(
            pareto_mask(objs, viol), first_front_mask(objs, viol, "reference")
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_random_continuous_larger_n(self, m):
        rng = np.random.default_rng(m)
        objs = rng.random((600, m))
        # Anti-correlate two objectives so the front is large.
        if m >= 2:
            objs[:, 1] = 1.0 - objs[:, 0] + 0.05 * objs[:, 1]
        np.testing.assert_array_equal(
            pareto_mask(objs), loop_pareto_mask(objs)
        )


class TestNanViolations:
    OBJS = np.array([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]])

    def test_nan_ranks_behind_finite_violations(self):
        np.testing.assert_array_equal(
            pareto_mask(self.OBJS, [1.0, np.nan, 2.0]), [True, False, False]
        )

    def test_all_nan_violations_keep_every_point(self):
        np.testing.assert_array_equal(
            pareto_mask(self.OBJS, [np.nan] * 3), [True, True, True]
        )

    def test_nan_violation_is_infeasible(self):
        np.testing.assert_array_equal(
            pareto_mask(self.OBJS, [np.nan, 0.0, 1.0]), [False, True, False]
        )

    @pytest.mark.parametrize("kernel", ["blocked", "reference"])
    def test_constrained_fronts_gives_nan_its_own_last_front(self, kernel):
        fronts = SORTS[kernel](self.OBJS, [1.0, np.nan, 2.0])
        assert [f.tolist() for f in fronts] == [[0], [2], [1]]

    @pytest.mark.parametrize("kernel", ["blocked", "reference"])
    @pytest.mark.parametrize(
        "viol",
        [
            [1.0, np.nan, 2.0],
            [np.nan, np.nan, np.nan],
            [np.nan, 3.0, np.nan],
            [np.nan, 0.0, 1.0],
            [2.0, 2.0, np.nan],
        ],
    )
    def test_mask_equals_first_constrained_front(self, kernel, viol):
        np.testing.assert_array_equal(
            pareto_mask(self.OBJS, viol),
            first_front_mask(self.OBJS, np.array(viol), kernel),
        )

    def test_local_rank_kernels_agree_on_nan_violations(self):
        objs = np.vstack([self.OBJS, [[3.0, 3.0]]])
        viol = np.array([1.0, np.nan, 2.0, np.nan])
        part = np.array([0, 0, 0, 1])
        blocked = local_rank_and_crowd(objs, viol, part, 2)
        reference = kernel_oracles.local_rank_and_crowd(objs, viol, part, 2)
        np.testing.assert_array_equal(blocked[0], [0, 2, 1, 0])
        np.testing.assert_array_equal(blocked[0], reference[0])
        np.testing.assert_array_equal(blocked[1], reference[1])


class TestInputValidation:
    def test_one_dimensional_objectives_rejected(self):
        with pytest.raises(ValueError, match=r"2-D.*\(3,\)"):
            pareto_mask([3.0, 1.0, 2.0])

    def test_three_dimensional_objectives_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2, 2\)"):
            pareto_mask(np.zeros((2, 2, 2)))

    def test_violation_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(2,\).*\(3, 2\)"):
            pareto_mask(np.zeros((3, 2)), [0.0, 1.0])

    def test_empty_front_with_empty_violations(self):
        assert pareto_mask(np.zeros((0, 2)), np.zeros(0)).shape == (0,)

