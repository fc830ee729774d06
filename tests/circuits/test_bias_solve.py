"""Properties of the Newton bias solve that no oracle comparison pins.

* It returns the *smallest* root on ``[vt0 + 1 mV, vt0 + vov_max]``, and
  the bracket edge for targets out of reach, even where the current is not
  monotone (short NMOS, targets near the peak current).
* Each element's result depends on that element alone: the same bits
  whatever batch it is solved in.  This keeps ``test_batch_equivalence.py``
  and the shared-memory golden runs byte-identical.
* It needs few steps on the inputs a GA run produces.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.mosfet import VOV_MIN, MosfetModel
from repro.circuits.opamp import analyze_opamp
from repro.circuits.sizing_problem import IntegratorSizingProblem, _LOWER, _UPPER
from repro.circuits.technology import CORNERS, corner_technology, nominal_technology
from repro.circuits.yield_est import MonteCarloSampler, stacked_technology

VOV_MAX = 1.2
#: Half-width (V) of the crossing test around a returned root.
CROSSING = 2e-11

stacked_cards = st.one_of(
    st.just(stacked_technology([corner_technology(c) for c in CORNERS])),
    st.builds(
        lambda n, seed: MonteCarloSampler(n_samples=n, seed=seed).stacked(
            nominal_technology()
        ),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    ),
)


def card_row(dev, k):
    """Card *k* of a stacked device as a scalar device."""
    return replace(
        dev,
        u0=float(np.asarray(dev.u0).reshape(-1)[k]),
        vt0=float(np.asarray(dev.vt0).reshape(-1)[k]),
    )


def coupled_current(model, w, l, vgs, floor, offset):
    """Drain current with the drain at ``max(VGS + offset, floor)``
    (a fixed VDS when *offset* is None)."""
    vds = floor if offset is None else np.maximum(vgs + offset, floor)
    return model.drain_current(w, l, vgs, vds)


def peak_current(model, w, l, floor, offset):
    """The largest current over the bracket: a coarse grid, refined
    around its best point."""
    vt0 = model.dev.vt0
    coarse = vt0 + np.linspace(VOV_MIN, VOV_MAX, 6001)
    best = coarse[np.argmax(coupled_current(model, w, l, coarse, floor, offset))]
    fine = np.linspace(
        max(best - 4e-4, vt0 + VOV_MIN), min(best + 4e-4, vt0 + VOV_MAX), 4001
    )
    return max(
        coupled_current(model, w, l, coarse, floor, offset).max(),
        coupled_current(model, w, l, fine, floor, offset).max(),
    )


def assert_smallest_root(model, w, l, ids, floor, offset, vgs):
    vt0 = model.dev.vt0
    assert vt0 + VOV_MIN <= vgs <= vt0 + VOV_MAX
    peak = peak_current(model, w, l, floor, offset)
    if vgs == vt0 + VOV_MAX:
        assert peak < ids, "bracket edge returned for a reachable target"
        return
    current = lambda v: coupled_current(model, w, l, v, floor, offset)  # noqa: E731
    assert current(vgs + CROSSING) >= ids, "no crossing at the returned VGS"
    if vgs > vt0 + VOV_MIN + CROSSING:
        assert current(vgs - CROSSING) < ids, "no crossing at the returned VGS"
        below = vt0 + np.linspace(VOV_MIN, vgs - vt0 - 1e-9, 4001)
        assert np.all(current(below) < ids), "a smaller root exists"


class TestSmallestRoot:
    @settings(max_examples=40, deadline=None)
    @given(
        tech=stacked_cards,
        kind=st.sampled_from(["nmos", "pmos"]),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 4),
        coupled=st.booleans(),
    )
    def test_smallest_root_or_bracket_edge(self, tech, kind, seed, n, coupled):
        """Half the devices at L = 0.18 um, where an NMOS current peaks
        inside the bracket, and half the targets within 1e-9..10% of the
        peak current, on either side of it."""
        rng = np.random.default_rng(seed)
        dev = tech.device(kind)
        k = np.asarray(dev.vt0).size
        w = rng.uniform(2e-6, 800e-6, n)
        l = np.where(rng.random(n) < 0.5, 0.18e-6, rng.uniform(0.18e-6, 2e-6, n))
        floor = rng.uniform(0.05, 1.8, n)
        offset = rng.uniform(-0.6, 0.6, n) if coupled else None
        ids = np.empty((k, n))
        for r in range(k):
            row = MosfetModel(card_row(dev, r))
            for j in range(n):
                off = None if offset is None else offset[j]
                if rng.random() < 0.5:
                    peak = peak_current(row, w[j], l[j], floor[j], off)
                    near = 10.0 ** rng.uniform(-9, -1)
                    ids[r, j] = peak * (1.0 + near * rng.choice([-1.0, 1.0]))
                else:
                    ids[r, j] = 10.0 ** rng.uniform(-7, -2.5)
        vgs = MosfetModel(dev).vgs_for_current(w, l, ids, floor, vds_offset=offset)
        assert vgs.shape == (k, n)
        for r in range(k):
            row = MosfetModel(card_row(dev, r))
            for j in range(n):
                off = None if offset is None else offset[j]
                assert_smallest_root(
                    row, w[j], l[j], ids[r, j], floor[j], off, vgs[r, j]
                )

    def test_target_at_or_below_the_bracket_floor(self):
        model = MosfetModel(nominal_technology().nmos)
        low = model.drain_current(800e-6, 0.18e-6, model.dev.vt0 + VOV_MIN, 0.9)
        vgs = model.vgs_for_current(800e-6, 0.18e-6, np.array([low, 0.5 * low]), 0.9)
        assert np.all(vgs == model.dev.vt0 + VOV_MIN)


# ------------------------------------------------------ batch composition


def solve_inputs(seed):
    """A mixed batch: the five op-amp bias solves' inputs for box designs
    (some snapped to a bound), plus near-peak and out-of-reach targets."""
    rng = np.random.default_rng(seed)
    n = 30
    x = _LOWER + rng.random((n, _LOWER.size)) * (_UPPER - _LOWER)
    x = np.where(rng.random(x.shape) < 0.2, _LOWER, x)
    s = IntegratorSizingProblem.build_design(x).opamp
    ids = s.itail / 2.0
    ids[:3] = [2e-4, 3e-4, 1.0]  # near the peak of short devices; far out of reach
    s.l1[:3] = 0.18e-6
    s.w1[:3] = 2e-6
    return s.w1, s.l1, ids, rng.uniform(0.05, 1.8, n), rng.uniform(-0.5, 0.3, n)


def split_solve(model, w, l, ids, vds, offset, order, chunk):
    """Solve the elements in *order*, *chunk* at a time, and put the
    results back in their places along the design axis."""
    parts = []
    for start in range(0, len(order), chunk):
        idx = order[start:start + chunk]
        off = None if offset is None else offset[idx]
        vgs = model.vgs_for_current(w[idx], l[idx], ids[idx], vds[idx], vds_offset=off)
        parts.append((idx, vgs))
    out = np.empty(parts[0][1].shape[:-1] + (len(order),))
    for idx, vgs in parts:
        out[..., idx] = vgs
    return out


class TestBatchComposition:
    def test_same_bits_in_any_batch(self):
        tech = stacked_technology(
            [nominal_technology()]
            + [corner_technology(c) for c in ("FF", "SS", "FS", "SF")]
        )
        for kind in ("nmos", "pmos"):
            model = MosfetModel(tech.device(kind))
            for coupled in (False, True):
                w, l, ids, vds, offset = solve_inputs(7)
                offset = offset if coupled else None
                n = len(w)
                whole = split_solve(model, w, l, ids, vds, offset, np.arange(n), n)
                for order, chunk in (
                    (np.arange(n), 1),
                    (np.arange(n)[::-1], n),
                    (np.arange(n), 7),
                    (np.random.default_rng(1).permutation(n), 7),
                ):
                    got = split_solve(model, w, l, ids, vds, offset, order, chunk)
                    assert whole.tobytes() == got.tobytes(), (kind, coupled, chunk)


# ------------------------------------------------------------ step count


def recorded_solves():
    """Every bias solve ``analyze_opamp`` makes for 30 seeded box designs
    on the GA's card stack (nominal, four corners, six MC samples)."""
    base = nominal_technology()
    tech = stacked_technology(
        [base]
        + [corner_technology(c, base) for c in ("FF", "SS", "FS", "SF")]
        + MonteCarloSampler(n_samples=6, seed=11).cards(base)
    )
    rng = np.random.default_rng(2024)
    x = _LOWER + rng.random((30, _LOWER.size)) * (_UPPER - _LOWER)
    design = IntegratorSizingProblem.build_design(x)
    calls = []
    original = MosfetModel.vgs_for_current

    def record(self, w, l, ids, vds, vov_max=1.2, *, vds_offset=None):
        calls.append((self.dev, w, l, ids, vds, vds_offset))
        return original(self, w, l, ids, vds, vov_max, vds_offset=vds_offset)

    MosfetModel.vgs_for_current = record
    try:
        analyze_opamp(tech, design.opamp, design.c_load)
    finally:
        MosfetModel.vgs_for_current = original
    return calls


def element_steps(dev, w, l, ids, vds, vds_offset):
    """Newton steps per element: each element solved on its own, counting
    the fused current-and-slope evaluations after the one at the bracket
    top."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in (w, l, ids, vds, dev.vt0)))
    args = [np.broadcast_to(a, shape) for a in (w, l, ids, vds)]
    off = None if vds_offset is None else np.broadcast_to(vds_offset, shape)
    original = MosfetModel._current_and_slope
    steps = []
    for index in np.ndindex(*shape):
        model = MosfetModel(card_row(dev, index[0] if len(shape) == 2 else 0))
        count = [0]

        def counted(self, *a, _count=count):
            _count[0] += 1
            return original(self, *a)

        MosfetModel._current_and_slope = counted
        try:
            model.vgs_for_current(
                *(a[index] for a in args),
                vds_offset=None if off is None else off[index],
            )
        finally:
            MosfetModel._current_and_slope = original
        steps.append(count[0] - 1)
    return steps


def test_step_count_on_ga_shaped_inputs():
    """A solver that quietly needs more steps fails here: the median
    element converges in at most 8 Newton steps, the worst in 40."""
    steps = []
    for call in recorded_solves():
        steps += element_steps(*call)
    assert len(steps) == 5 * 11 * 30
    assert np.median(steps) <= 8
    assert max(steps) <= 40
