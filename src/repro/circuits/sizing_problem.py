"""The paper's 15-parameter integrator sizing problem.

Decision vector (SI units)::

    0  w1   input-pair width          8  w7   sink width
    1  l1   input-pair length         9  l7   sink length
    2  w3   mirror-load width        10  itail first-stage current
    3  l3   mirror-load length       11  i2   second-stage current
    4  w5   tail width               12  cc   Miller capacitor
    5  l5   tail length              13  cs   sampling capacitor
    6  w6   driver width             14  c_load  external load (0-5 pF)
    7  l6   driver length

Objectives (both minimized):

* ``f1`` — power dissipation (W) at the nominal corner;
* ``f2`` — load-capacitance deficit ``C_MAX - c_load`` (F), i.e. the
  drivable load is maximized so that the Pareto front sweeps the whole
  0-5 pF range the paper plots.

Constraints (``g <= 0`` feasible, normalized so violations are
commensurate):

* DR, OR, ST, SE, Area at the nominal corner;
* phase margin, systematic offset and per-device saturation margins at
  the *worst of the five process corners* (the paper's "matching
  constraints across all manufacturing process corners" and "all the
  transistors in the proper DC operating region");
* robustness (Monte-Carlo yield) against the same spec.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.integrator import (
    IntegratorDesign,
    IntegratorPerformance,
    analyze_integrator,
)
from repro.circuits.opamp import OpAmpSizing
from repro.circuits.specs import IntegratorSpec, published_spec
from repro.circuits.technology import (
    Technology,
    corner_technology,
    nominal_technology,
)
from repro.circuits.yield_est import MonteCarloSampler, stacked_technology
from repro.core.partitions import PartitionGrid
from repro.problems.base import Problem

C_LOAD_MAX = 5.0e-12

# Process corners the worst-case constraints range over besides nominal.
_CORNERS = ("FF", "SS", "FS", "SF")

PARAMETER_NAMES = (
    "w1", "l1", "w3", "l3", "w5", "l5", "w6", "l6", "w7", "l7",
    "itail", "i2", "cc", "cs", "c_load",
)

_LOWER = np.array([
    2e-6, 0.18e-6,   # w1, l1
    2e-6, 0.18e-6,   # w3, l3
    4e-6, 0.18e-6,   # w5, l5
    4e-6, 0.18e-6,   # w6, l6
    4e-6, 0.18e-6,   # w7, l7
    5e-6, 1e-5,      # itail, i2
    0.2e-12, 0.25e-12,  # cc, cs
    0.02e-12,        # c_load
])

_UPPER = np.array([
    400e-6, 2.0e-6,
    300e-6, 2.0e-6,
    400e-6, 2.0e-6,
    800e-6, 1.0e-6,
    600e-6, 1.0e-6,
    4e-4, 6e-4,
    8e-12, 6e-12,
    C_LOAD_MAX,
])

CONSTRAINT_NAMES = (
    "dynamic_range",
    "output_range",
    "settling_time",
    "settling_error",
    "area",
    "phase_margin",
    "offset",
    "saturation_margin",
    "inversion",
    "robustness",
)

# Minimum gate overdrive (V): eqn (1) is a strong-inversion model, so a
# "proper DC operating region" requires every device to stay out of the
# weak-inversion regime (where the model's gm/ID would be unphysical).
MIN_OVERDRIVE = 0.10


def spec_pass_matrix(
    spec: IntegratorSpec,
    perf: IntegratorPerformance,
    offset_extra: Optional[np.ndarray] = None,
    min_overdrive: float = MIN_OVERDRIVE,
) -> np.ndarray:
    """Boolean pass/fail of the process-dependent spec subset.

    Shared by the sizing problem's robustness constraint and the
    campaign engine's scenario sweeps, so "does this design meet spec
    under that disturbance" means exactly the same thing in both.
    *offset_extra* (e.g. Pelgrom input-pair mismatch) adds to the
    systematic offset before the offset check; broadcasting against the
    performance arrays gives the usual ``(n_samples, n_designs)`` shape.
    """
    offset = perf.offset_systematic
    if offset_extra is not None:
        offset = offset + offset_extra
    return (
        (perf.dynamic_range_db >= spec.dr_min_db)
        & (perf.output_range >= spec.or_min)
        & (perf.settling_time <= spec.st_max)
        & (perf.settling_error <= spec.se_max)
        & (perf.phase_margin_deg >= spec.pm_min_deg)
        & (np.abs(offset) <= spec.offset_max)
        & (perf.min_saturation_margin >= spec.sat_margin_min)
        & (perf.min_overdrive >= min_overdrive)
    )


def _card_rows(perf: IntegratorPerformance, index) -> IntegratorPerformance:
    """Card rows *index* of an analysis under a stacked card.

    Fields that do not depend on the card (power, area, beta, ...) come
    out without the card axis; broadcasting restores it before indexing.
    The op-amp detail (``amp``) is dropped.
    """
    values = {f.name: getattr(perf, f.name) for f in fields(perf) if f.name != "amp"}
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    return IntegratorPerformance(
        **{name: np.broadcast_to(v, shape)[index] for name, v in values.items()}
    )


class IntegratorSizingProblem(Problem):
    """Constrained two-objective sizing of the CDS SC integrator.

    Parameters
    ----------
    spec:
        Constraint limits; defaults to the paper's published set.
    n_mc:
        Monte-Carlo samples for the robustness figure (common random
        numbers, deterministic given *mc_seed*).
    use_corners:
        Evaluate matching/region/stability constraints at the worst of
        the five process corners (``False`` restricts to TT — an
        ablation knob).
    include_area_objective:
        When ``True``, layout area becomes a third minimized objective
        instead of a constraint — the paper notes that "the extension to
        an arbitrary number of objective functions is straightforward",
        and this flag exercises exactly that path (partitioning still
        slices the load-capacitance axis).
    """

    def __init__(
        self,
        spec: Optional[IntegratorSpec] = None,
        n_mc: int = 12,
        use_corners: bool = True,
        mc_seed: int = 2005,
        name: Optional[str] = None,
        include_area_objective: bool = False,
    ) -> None:
        self.spec = spec or published_spec()
        self.include_area_objective = bool(include_area_objective)
        n_obj = 3 if self.include_area_objective else 2
        self.constraint_names = tuple(
            n for n in CONSTRAINT_NAMES
            if not (self.include_area_objective and n == "area")
        )
        super().__init__(
            n_var=len(PARAMETER_NAMES),
            n_obj=n_obj,
            n_con=len(self.constraint_names),
            lower=_LOWER,
            upper=_UPPER,
            name=name or f"IntegratorSizing[{self.spec.name}]",
        )
        self.use_corners = bool(use_corners)
        self.sampler = MonteCarloSampler(n_samples=n_mc, seed=mc_seed)
        self.tech = nominal_technology()

    @property
    def tech(self) -> Technology:
        """The nominal process card; corners and MC samples vary around it."""
        return self._tech

    @tech.setter
    def tech(self, tech: Technology) -> None:
        # One stacked card serves every analysis of a batch: the nominal
        # card in row 0, then the corners (if used), then the MC samples.
        cards = [tech]
        if self.use_corners:
            cards += [corner_technology(c, tech) for c in _CORNERS]
        self._n_worst = len(cards)  # rows the worst-case constraints span
        cards += self.sampler.cards(tech)
        self._tech = tech
        self._cards = stacked_technology(cards)

    # ------------------------------------------------------------- decoding

    @staticmethod
    def decode(x: np.ndarray) -> Dict[str, np.ndarray]:
        """Column-name view of a design batch."""
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        return {name: arr[:, i] for i, name in enumerate(PARAMETER_NAMES)}

    @staticmethod
    def build_design(x: np.ndarray) -> IntegratorDesign:
        """Assemble the integrator design structure from a decision batch."""
        return IntegratorSizingProblem._design_from_params(
            IntegratorSizingProblem.decode(x)
        )

    @staticmethod
    def _design_from_params(p: Dict[str, np.ndarray]) -> IntegratorDesign:
        sizing = OpAmpSizing(
            w1=p["w1"], l1=p["l1"],
            w3=p["w3"], l3=p["l3"],
            w5=p["w5"], l5=p["l5"],
            w6=p["w6"], l6=p["l6"],
            w7=p["w7"], l7=p["l7"],
            itail=p["itail"], i2=p["i2"], cc=p["cc"],
        )
        return IntegratorDesign(opamp=sizing, cs=p["cs"], c_load=p["c_load"])

    def partition_grid(self, n_partitions: int) -> PartitionGrid:
        """Partitioning induced by dividing the load-capacitance range.

        The deficit objective ``f2 = C_MAX - c_load`` is linear in the
        load capacitance, so equal slices of ``f2``'s range are equal
        slices of the 0-5 pF load range — exactly the paper's induced
        partitioning.
        """
        return PartitionGrid(
            axis=1, low=0.0, high=C_LOAD_MAX, n_partitions=n_partitions
        )

    # ------------------------------------------------------------ evaluation

    def _spec_pass_matrix(
        self,
        perf: IntegratorPerformance,
        offset_extra: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean pass/fail of the process-dependent spec subset."""
        return spec_pass_matrix(self.spec, perf, offset_extra=offset_extra)

    def _evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Batch-native end to end: the (n, 15) matrix is decoded once
        # into column views, and one analysis over the stacked card
        # (nominal, corner and MC cards as (k, 1) leading axes) serves the
        # whole generation.
        p = self.decode(x)
        design = self._design_from_params(p)
        s = self.spec
        eps = s.se_max / 2.0

        perf = analyze_integrator(self._cards, design, settle_epsilon=eps)
        nominal = _card_rows(perf, 0)
        worst = _card_rows(perf, slice(0, self._n_worst))  # nominal + corners
        mc = _card_rows(perf, slice(self._n_worst, None))

        pm_worst = worst.phase_margin_deg.min(axis=0)
        offset_worst = np.abs(worst.offset_systematic).max(axis=0)
        margin_worst = worst.min_saturation_margin.min(axis=0)
        overdrive_worst = worst.min_overdrive.min(axis=0)

        mismatch = self.sampler.mismatch_offsets(
            self.tech.nmos.a_vt, p["w1"], p["l1"]
        )
        robustness = self._spec_pass_matrix(mc, offset_extra=mismatch).mean(axis=0)

        objective_cols = [nominal.power, C_LOAD_MAX - p["c_load"]]
        if self.include_area_objective:
            objective_cols.append(nominal.area)
        objectives = np.column_stack(objective_cols)

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
        constraints = np.column_stack(
            [constraint_map[name] for name in self.constraint_names]
        )
        return objectives, constraints

    # ------------------------------------------------------------ reporting

    def performance_report(self, x: np.ndarray) -> List[Dict[str, float]]:
        """Human-readable nominal performance of each design in the batch."""
        design = self.build_design(x)
        perf = analyze_integrator(self.tech, design, settle_epsilon=self.spec.se_max / 2)
        p = self.decode(x)
        rows = []
        for i in range(np.atleast_2d(x).shape[0]):
            rows.append(
                {
                    "c_load_pF": float(p["c_load"][i] * 1e12),
                    "power_mW": float(perf.power[i] * 1e3),
                    "dr_dB": float(perf.dynamic_range_db[i]),
                    "or_V": float(perf.output_range[i]),
                    "st_ns": float(perf.settling_time[i] * 1e9),
                    "se": float(perf.settling_error[i]),
                    "pm_deg": float(perf.phase_margin_deg[i]),
                    "area_um2": float(perf.area[i] * 1e12),
                    "beta": float(perf.beta[i]),
                }
            )
        return rows
