"""Oracles for the bias solve and the one-analysis-per-batch evaluation path.

Two rewrites change the arithmetic, so they are checked to a stated
tolerance:

* ``MosfetModel.vgs_for_current`` is a safeguarded Newton solve.  Its
  oracle is the 36-step bisection it replaced (eqn (1) evaluated in full
  at every step): VGS agrees within :data:`VGS_TOL`, the bisection's own
  resolution of 1.2 V / 2**36 plus rounding, and every
  ``OpAmpPerformance`` column within :data:`COLUMN_RTOL` (plus
  :data:`VOLTAGE_ATOL` on columns that are voltages and cross zero).
* ``analyze_opamp`` solves the diode-connected M3 and the source-coupled
  M1 directly instead of by fixed-point loops over their drain voltage.
  The oracle is those loops run to convergence, :data:`FIXED_POINT_PASSES`
  passes of the bisection; the direct solves agree within
  :data:`FIXED_POINT_TOL`.

Three exact rewrites sit above the solver, and their oracles are compared
on the float64 bytes -- never weaken one to ``allclose``.  Both sides of
those comparisons run the production bias solver, so each still tests
only its own rewrite:

* ``analyze_integrator`` reads ``cgs1`` from the geometry instead of
  running a first, "rough" op-amp analysis;
* ``IntegratorSizingProblem._evaluate`` analyses the nominal, corner and
  Monte-Carlo cards as one stacked card instead of three analyses;
* assigning ``problem.tech`` rebuilds that stacked card.
"""

import contextlib
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.devices import CapacitorModel
from repro.circuits.integrator import (
    FULL_SCALE_LIMIT,
    IntegratorPerformance,
    amplifier_load,
    analyze_integrator,
    feedback_factor,
    noise_budget,
    settling_time,
)
from repro.circuits.mosfet import MIN_VSAT_FACTOR, MosfetModel
from repro.circuits.opamp import OpAmpPerformance, analyze_opamp, phase_margin_deg
from repro.circuits.sizing_problem import (
    C_LOAD_MAX,
    MIN_OVERDRIVE,
    IntegratorSizingProblem,
    _LOWER,
    _UPPER,
)
from repro.circuits.technology import (
    CORNERS,
    corner_technology,
    nominal_technology,
)
from repro.circuits.yield_est import MonteCarloSampler, stacked_technology

#: |VGS - bisection| bound (V): the bisection stops within 1.2 / 2**37 V
#: of a root, the Newton solve within 1e-12 V.
VGS_TOL = 2e-11
#: |direct - converged fixed point| bound (V) for the coupled M1/M3 solves.
FIXED_POINT_TOL = 1e-10
#: Relative bound on every OpAmpPerformance column against the oracles.
COLUMN_RTOL = 1e-8
#: Absolute slack (V) on the columns that are voltages: margins,
#: overdrives and offsets cross zero, where a relative bound means nothing.
VOLTAGE_ATOL = 1e-10
VOLTAGE_COLUMNS = {
    "swing_low", "swing_high", "output_range", "offset_systematic",
    "vgs", "saturation_margins", "overdrives",
}

# ----------------------------------------------------------------- oracles


def oracle_drain_current(self, w, l, vgs, vds):
    """Eqn (1) written out in one piece, as ``drain_current`` was."""
    d = self.dev
    w, l, vgs, vds = np.broadcast_arrays(
        np.asarray(w, float), np.asarray(l, float),
        np.asarray(vgs, float), np.asarray(vds, float),
    )
    vov = np.maximum(vgs - d.vt0, 0.0)
    core = 0.5 * d.kprime * (w / l) * vov**2
    vsat = np.maximum(1.0 - vov / (d.esat * l), MIN_VSAT_FACTOR)
    num = core * vsat * (1.0 + (d.lambda_l / l) * vds)
    return num / self._mobility_denominator(vgs)


def oracle_bisection(self, w, l, ids, vds, vov_max=1.2, iterations=36):
    """The 36-step bisection ``vgs_for_current`` used to be, with a full
    drain-current evaluation per step."""
    d = self.dev
    w, l, ids, vds = np.broadcast_arrays(
        np.asarray(w, float), np.asarray(l, float),
        np.asarray(ids, float), np.asarray(vds, float),
    )
    base = np.zeros(np.broadcast(w, np.asarray(d.vt0, float)).shape)
    lo = base + np.asarray(d.vt0, float) + 1e-3
    hi = base + np.asarray(d.vt0, float) + vov_max
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        too_low = oracle_drain_current(self, w, l, mid, vds) < ids
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


#: Passes of the fixed-point oracle; the coupling contracts by gds/gm per
#: pass, so 40 passes are converged to the bisection's resolution.
FIXED_POINT_PASSES = 40


def oracle_fixed_point(self, w, l, ids, vds, vds_offset, passes=FIXED_POINT_PASSES):
    """A coupled bias point as ``analyze_opamp`` used to find it: bisect
    VGS at the present VDS, set ``VDS = max(VGS + vds_offset, vds)``, and
    repeat -- here for *passes* passes instead of the 3 the op-amp ran.
    Returns the last two iterates."""
    vgs = oracle_bisection(self, w, l, ids, vds)
    for _ in range(passes):
        prev = vgs
        vgs = oracle_bisection(self, w, l, ids, np.maximum(vgs + vds_offset, vds))
    return vgs, prev


def oracle_vgs_for_current(self, w, l, ids, vds, vov_max=1.2, *, vds_offset=None):
    """``vgs_for_current`` on the oracles: the bisection, iterated to the
    fixed point when the drain is coupled to the gate."""
    if vds_offset is None:
        return oracle_bisection(self, w, l, ids, vds, vov_max)
    return oracle_fixed_point(self, w, l, ids, vds, vds_offset)[0]


@contextlib.contextmanager
def oracle_mosfet():
    """Route every drain-current evaluation and bias solve through the
    oracles above."""
    with mock.patch.object(MosfetModel, "drain_current", oracle_drain_current), \
            mock.patch.object(MosfetModel, "vgs_for_current", oracle_vgs_for_current):
        yield


def oracle_analyze_integrator(tech, design, settle_epsilon=None):
    """The two-pass integrator analysis (on the production bias solver)."""
    if settle_epsilon is None:
        settle_epsilon = 1e-4
    rough = analyze_opamp(tech, design.opamp, design.c_load + design.cf)
    beta = feedback_factor(tech, design, rough.cgs1)
    c_amp = amplifier_load(tech, design, rough.cgs1, beta)
    amp = analyze_opamp(tech, design.opamp, c_amp)

    st_ = settling_time(amp, beta, settle_epsilon)
    se = 1.0 / (1.0 + amp.a0 * beta)
    noise = noise_budget(tech, design, amp, beta)
    swing = np.minimum(amp.output_range, FULL_SCALE_LIMIT)
    signal_power = swing**2 / 8.0
    dr_db = 10.0 * np.log10(
        np.maximum(signal_power, 1e-30) / np.maximum(noise, 1e-30)
    )
    pm = phase_margin_deg(amp, beta)

    caps = CapacitorModel.from_technology(tech)
    cap_area = 2.0 * (
        caps.area(design.cs) + caps.area(design.cf) + caps.area(design.coc)
    )
    return IntegratorPerformance(
        beta=beta,
        settling_time=st_,
        settling_error=se,
        dynamic_range_db=dr_db,
        output_range=amp.output_range,
        phase_margin_deg=pm,
        power=amp.power,
        area=amp.area + cap_area,
        offset_systematic=amp.offset_systematic,
        min_saturation_margin=amp.min_saturation_margin(),
        min_overdrive=amp.min_overdrive(),
        slew_rate=amp.slew_rate,
        noise_total=noise,
        amp=amp,
    )


def oracle_evaluate(problem, x):
    """``_evaluate`` as three analyses: nominal, corner stack, MC stack."""
    p = problem.decode(x)
    design = problem._design_from_params(p)
    s = problem.spec
    eps = s.se_max / 2.0
    tech = problem.tech

    nominal = oracle_analyze_integrator(tech, design, settle_epsilon=eps)
    if problem.use_corners:
        corner_tech = stacked_technology(
            [corner_technology(c, tech) for c in ("FF", "SS", "FS", "SF")]
        )
        corner = oracle_analyze_integrator(corner_tech, design, settle_epsilon=eps)
        pm_worst = np.minimum(
            nominal.phase_margin_deg, corner.phase_margin_deg.min(axis=0)
        )
        offset_worst = np.maximum(
            np.abs(nominal.offset_systematic),
            np.abs(corner.offset_systematic).max(axis=0),
        )
        margin_worst = np.minimum(
            nominal.min_saturation_margin,
            corner.min_saturation_margin.min(axis=0),
        )
        overdrive_worst = np.minimum(
            nominal.min_overdrive, corner.min_overdrive.min(axis=0)
        )
    else:
        pm_worst = nominal.phase_margin_deg
        offset_worst = np.abs(nominal.offset_systematic)
        margin_worst = nominal.min_saturation_margin
        overdrive_worst = nominal.min_overdrive

    mc = oracle_analyze_integrator(
        problem.sampler.stacked(tech), design, settle_epsilon=eps
    )
    mismatch = problem.sampler.mismatch_offsets(tech.nmos.a_vt, p["w1"], p["l1"])
    robustness = problem._spec_pass_matrix(mc, offset_extra=mismatch).mean(axis=0)

    objective_cols = [nominal.power, C_LOAD_MAX - p["c_load"]]
    if problem.include_area_objective:
        objective_cols.append(nominal.area)
    constraint_map = {
        "dynamic_range": (s.dr_min_db - nominal.dynamic_range_db) / 10.0,
        "output_range": (s.or_min - nominal.output_range) / s.or_min,
        "settling_time": (nominal.settling_time - s.st_max) / s.st_max,
        "settling_error": (nominal.settling_error - s.se_max) / s.se_max,
        "area": (nominal.area - s.area_max) / s.area_max,
        "phase_margin": (s.pm_min_deg - pm_worst) / s.pm_min_deg,
        "offset": (offset_worst - s.offset_max) / s.offset_max,
        "saturation_margin": (s.sat_margin_min - margin_worst) / 0.1,
        "inversion": (MIN_OVERDRIVE - overdrive_worst) / 0.1,
        "robustness": s.robustness_min - robustness,
    }
    return (
        np.column_stack(objective_cols),
        np.column_stack([constraint_map[n] for n in problem.constraint_names]),
    )


# ----------------------------------------------------------------- helpers


def assert_same_bits(got, want, label):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}"
    assert got.dtype == want.dtype, f"{label}: dtype {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), f"{label}: values differ"
    assert (
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    ), f"{label}: bytes differ"


def assert_same_performance(got, want):
    for f in fields(IntegratorPerformance):
        if f.name != "amp":
            assert_same_bits(getattr(got, f.name), getattr(want, f.name), f.name)
    for f in fields(OpAmpPerformance):
        g, w = getattr(got.amp, f.name), getattr(want.amp, f.name)
        if isinstance(w, dict):
            assert g.keys() == w.keys(), f"amp.{f.name}: keys differ"
            for key in w:
                assert_same_bits(g[key], w[key], f"amp.{f.name}[{key}]")
        else:
            assert_same_bits(g, w, f"amp.{f.name}")


def design_batch(seed, n, corner_frac):
    """*n* designs uniform in the box; a *corner_frac* share of the
    coordinates snapped to a box bound (where bias targets go out of
    reach and the velocity factor clamps)."""
    rng = np.random.default_rng(seed)
    x = _LOWER + rng.random((n, _LOWER.size)) * (_UPPER - _LOWER)
    snap = rng.random(x.shape) < corner_frac
    bound = np.where(rng.random(x.shape) < 0.5, _LOWER, _UPPER)
    return np.where(snap, bound, x)


def edge_designs():
    """The two box corners and the mid-box point."""
    return np.vstack([_LOWER, _UPPER, 0.5 * (_LOWER + _UPPER)])


cards = st.one_of(
    st.sampled_from(CORNERS).map(corner_technology),
    st.just(stacked_technology([corner_technology(c) for c in CORNERS])),
    st.builds(
        lambda n, seed: MonteCarloSampler(n_samples=n, seed=seed).stacked(
            nominal_technology()
        ),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    ),
)


# ------------------------------------------------------------- bias solve


def assert_matches_bisection(model, w, l, ids, vds, got):
    """*got* is within VGS_TOL of the bisection, except where the
    bisection took a larger root than the smallest one (it can, for
    targets near the peak current of a short NMOS): there *got* must be
    a smaller crossing."""
    want = oracle_bisection(model, w, l, ids, vds)
    got, want = np.broadcast_arrays(got, want)
    shape = got.shape
    w, l, ids, vds = (np.broadcast_to(a, shape) for a in (w, l, ids, vds))
    off = np.abs(got - want) > VGS_TOL
    if off.any():
        assert np.all(got[off] < want[off]), "Newton root above the bisection's"
        crossing = model.drain_current(w, l, got + VGS_TOL, vds)
        assert np.all(crossing[off] >= ids[off]), "Newton root is not a crossing"


class TestNewtonAgainstBisection:
    @settings(max_examples=60, deadline=None)
    @given(
        tech=cards,
        kind=st.sampled_from(["nmos", "pmos"]),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 12),
    )
    def test_drain_current_matches_oracle(self, tech, kind, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.uniform(2e-6, 800e-6, n)
        l = rng.uniform(0.18e-6, 2e-6, n)
        vgs = rng.uniform(0.0, 2.0, n)  # below threshold to clamped
        vds = rng.uniform(0.05, 1.8, n)
        model = MosfetModel(tech.device(kind))
        assert_same_bits(
            model.drain_current(w, l, vgs, vds),
            oracle_drain_current(model, w, l, vgs, vds),
            "ids",
        )

    @settings(max_examples=80, deadline=None)
    @given(
        tech=cards,
        kind=st.sampled_from(["nmos", "pmos"]),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 12),
    )
    def test_matches_per_step_drain_current(self, tech, kind, seed, n):
        rng = np.random.default_rng(seed)
        shape = () if n == 0 else (n,)
        w = rng.uniform(2e-6, 800e-6, shape)
        l = rng.uniform(0.18e-6, 2e-6, shape)
        ids = 10.0 ** rng.uniform(-7, -2.5, shape)  # up to out-of-reach
        vds = rng.uniform(0.05, 1.8, shape)
        if n == 0:
            w, l, ids, vds = float(w), float(l), float(ids), float(vds)
        model = MosfetModel(tech.device(kind))
        got = model.vgs_for_current(w, l, ids, vds)
        assert np.shape(got) == np.shape(oracle_bisection(model, w, l, ids, vds))
        assert_matches_bisection(model, w, l, ids, vds, got)

    def test_matches_at_clamp_and_bracket_edge(self):
        """Short, narrow devices driven hard: the velocity factor clamps
        inside the bisection's bracket and the top target is out of reach."""
        model = MosfetModel(nominal_technology().nmos)
        w = np.array([2e-6, 2e-6, 400e-6, 2e-6])
        l = np.array([0.18e-6, 0.18e-6, 2e-6, 2e-6])
        ids = np.array([6e-4, 2e-4, 5e-6, 1e-3])
        vds = np.array([0.05, 0.9, 1.8, 0.05])
        vgs = model.vgs_for_current(w, l, ids, vds)
        want = oracle_bisection(model, w, l, ids, vds)
        assert np.all(np.abs(vgs - want) <= VGS_TOL)
        assert model.velocity_headroom(want[0], l[0]) < MIN_VSAT_FACTOR
        assert vgs[0] == model.dev.vt0 + 1.2  # unreachable: the bracket edge
        assert vgs[3] == model.dev.vt0 + 1.2

    @settings(max_examples=25, deadline=None)
    @given(
        tech=cards,
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 8),
        c_load=st.floats(0.1e-12, 5e-12),
    )
    def test_opamp_columns_within_tolerance(self, tech, seed, n, c_load):
        """Every OpAmpPerformance column against the analysis run on the
        bisection and the converged fixed-point loops (interior designs:
        near the box corners the loops need not converge, see
        TestDirectFixedPointSolves)."""
        sizing = IntegratorSizingProblem.build_design(design_batch(seed, n, 0.0)).opamp
        got = analyze_opamp(tech, sizing, c_load)
        with oracle_mosfet():
            want = analyze_opamp(tech, sizing, c_load)
        for f in fields(OpAmpPerformance):
            g, w = getattr(got, f.name), getattr(want, f.name)
            atol = VOLTAGE_ATOL if f.name in VOLTAGE_COLUMNS else 0.0
            pairs = [(f"{f.name}[{k}]", g[k], w[k]) for k in w] if isinstance(w, dict) \
                else [(f.name, g, w)]
            for label, gv, wv in pairs:
                gv, wv = np.broadcast_arrays(gv, wv)
                bound = COLUMN_RTOL * np.abs(wv) + atol
                assert np.all(np.abs(gv - wv) <= bound), label


# ------------------------------------------------------ direct coupled solves


def first_stage_bias(tech, sizing):
    """The M3 and M1 bias-solve inputs of ``analyze_opamp``: (model, w,
    l, ids, floor, vds_offset) for each, with M1's offset from the direct
    M3 solve."""
    s = sizing
    nmos, pmos = MosfetModel(tech.nmos), MosfetModel(tech.pmos)
    i_half = s.itail / 2.0
    vsg3 = pmos.vgs_for_current(s.w3, s.l3, i_half, 0.0, vds_offset=0.0)
    v_first_minus_cm = (tech.vdd - vsg3) - tech.vdd / 2.0
    return (
        (pmos, s.w3, s.l3, i_half, 0.0, 0.0),
        (nmos, s.w1, s.l1, i_half, 0.05, v_first_minus_cm),
    )


class TestDirectFixedPointSolves:
    @settings(max_examples=30, deadline=None)
    @given(
        tech=cards,
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 10),
        corner_frac=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_match_converged_loops(self, tech, seed, n, corner_frac):
        """Where the fixed-point loop converges, the direct solve lands on
        its fixed point.  Where it does not (it can cycle between a root
        and the bracket edge when the target is near a short device's peak
        current), the direct solve still returns a root of the coupled
        equation or the bracket edge."""
        sizing = IntegratorSizingProblem.build_design(
            np.vstack([design_batch(seed, n, corner_frac), edge_designs()])
        ).opamp
        for model, w, l, ids, floor, offset in first_stage_bias(tech, sizing):
            got = model.vgs_for_current(w, l, ids, floor, vds_offset=offset)
            want, prev = oracle_fixed_point(model, w, l, ids, floor, offset)
            converged = np.abs(want - prev) <= VGS_TOL
            assert np.all(np.abs(got - want)[converged] <= FIXED_POINT_TOL)
            if corner_frac == 0.0:
                assert converged.all()
            edge = got == np.asarray(model.dev.vt0) + 1.2
            vds = np.maximum(got + offset, floor)
            current = model.drain_current(w, l, got, vds)
            ids_b = np.broadcast_to(ids, got.shape)
            root = np.abs(current - ids_b) <= 1e-9 * ids_b
            assert np.all((root | edge)[~converged])

    def test_m3_always_converges(self):
        """The diode-connected load is a contraction everywhere in the
        box, so its oracle covers every design."""
        tech = stacked_technology([corner_technology(c) for c in CORNERS])
        sizing = IntegratorSizingProblem.build_design(
            np.vstack([design_batch(3, 40, 1.0), design_batch(4, 40, 0.3)])
        ).opamp
        (model, w, l, ids, floor, offset), _ = first_stage_bias(tech, sizing)
        got = model.vgs_for_current(w, l, ids, floor, vds_offset=offset)
        want, prev = oracle_fixed_point(model, w, l, ids, floor, offset)
        assert np.all(np.abs(want - prev) <= VGS_TOL)
        assert np.all(np.abs(got - want) <= FIXED_POINT_TOL)

    def test_m1_floor_binds(self):
        """Designs where M1's 0.05 V drain floor binds at the solution:
        the floor sits inside the residual, and the solve still matches
        the converged loop."""
        tech = stacked_technology([corner_technology(c) for c in CORNERS])
        sizing = IntegratorSizingProblem.build_design(
            np.vstack([design_batch(s, 40, 0.3) for s in range(3)])
        ).opamp
        _, (model, w, l, ids, floor, offset) = first_stage_bias(tech, sizing)
        got = model.vgs_for_current(w, l, ids, floor, vds_offset=offset)
        want, prev = oracle_fixed_point(model, w, l, ids, floor, offset)
        binds = (want + offset < floor) & (np.abs(want - prev) <= VGS_TOL)
        assert binds.sum() >= 10
        assert np.all(np.abs(got - want)[binds] <= FIXED_POINT_TOL)

    def test_five_bias_solves_per_analysis(self):
        design = IntegratorSizingProblem.build_design(edge_designs())
        with mock.patch.object(
            MosfetModel, "vgs_for_current", autospec=True,
            side_effect=MosfetModel.vgs_for_current,
        ) as spy:
            analyze_opamp(nominal_technology(), design.opamp, design.c_load)
        assert spy.call_count == 5


# ------------------------------------------------------ integrator analysis


class TestSinglePassIntegrator:
    @settings(max_examples=40, deadline=None)
    @given(
        tech=cards,
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 6),
        corner_frac=st.sampled_from([0.0, 0.3, 1.0]),
        epsilon=st.sampled_from([None, 5e-4]),
    )
    def test_matches_two_pass_oracle(self, tech, seed, n, corner_frac, epsilon):
        design = IntegratorSizingProblem.build_design(
            design_batch(seed, n, corner_frac)
        )
        assert_same_performance(
            analyze_integrator(tech, design, settle_epsilon=epsilon),
            oracle_analyze_integrator(tech, design, settle_epsilon=epsilon),
        )

    @pytest.mark.parametrize("corner", CORNERS)
    def test_matches_at_box_corners(self, corner):
        tech = corner_technology(corner)
        design = IntegratorSizingProblem.build_design(edge_designs())
        assert_same_performance(
            analyze_integrator(tech, design), oracle_analyze_integrator(tech, design)
        )

    def test_one_opamp_analysis_per_call(self):
        design = IntegratorSizingProblem.build_design(edge_designs())
        with mock.patch(
            "repro.circuits.integrator.analyze_opamp", wraps=analyze_opamp
        ) as spy:
            analyze_integrator(nominal_technology(), design)
        assert spy.call_count == 1


# --------------------------------------------------------- fused evaluation


class TestFusedEvaluation:
    @pytest.mark.parametrize("use_corners", [True, False])
    @pytest.mark.parametrize("n_mc", [1, 6, 12])
    def test_matches_three_analyses(self, n_mc, use_corners):
        problem = IntegratorSizingProblem(n_mc=n_mc, use_corners=use_corners)
        x = np.vstack([
            design_batch(n_mc, 24, 0.0),
            design_batch(n_mc + 1, 8, 0.3),
            edge_designs(),
        ])
        got = problem._evaluate(x)
        want = oracle_evaluate(problem, x)
        assert_same_bits(got[0], want[0], "objectives")
        assert_same_bits(got[1], want[1], "constraints")

    def test_three_objective_variant(self):
        problem = IntegratorSizingProblem(n_mc=2, include_area_objective=True)
        x = np.vstack([design_batch(5, 10, 0.3), edge_designs()])
        got = problem._evaluate(x)
        want = oracle_evaluate(problem, x)
        assert_same_bits(got[0], want[0], "objectives")
        assert_same_bits(got[1], want[1], "constraints")

    def test_one_analysis_per_batch(self):
        problem = IntegratorSizingProblem(n_mc=6)
        with mock.patch(
            "repro.circuits.sizing_problem.analyze_integrator",
            wraps=analyze_integrator,
        ) as spy:
            problem.evaluate(design_batch(0, 5, 0.0))
        assert spy.call_count == 1

    @pytest.mark.parametrize("use_corners", [True, False])
    def test_assigned_tech_takes_effect(self, use_corners):
        """Assigning ``tech`` rebuilds the stacked card around it."""
        problem = IntegratorSizingProblem(n_mc=3, use_corners=use_corners)
        x = np.vstack([design_batch(9, 12, 0.0), edge_designs()])
        before = problem._evaluate(x)
        problem.tech = corner_technology("SS")
        got = problem._evaluate(x)
        want = oracle_evaluate(problem, x)
        assert_same_bits(got[0], want[0], "objectives")
        assert_same_bits(got[1], want[1], "constraints")
        assert not np.array_equal(got[1], before[1])
