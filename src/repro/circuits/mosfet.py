"""Deep-submicron MOSFET model — the paper's eqn (1).

    ID = 1/2 * u*Cox * W/L * (VGS-VT)^2 * (1 - (VGS-VT)/(Esat*L)) * (1 + lambda*VDS)
         -----------------------------------------------------------------------
               1 + theta1*(VGS+VT-VK)^(1/3) + theta2*(VGS+VT-VK)^n

with n = 1 for NMOS and 2 for PMOS.  The numerator combines square-law
conduction with first-order velocity saturation and channel-length
modulation; the denominator is an advanced mobility-degradation fit.

All functions are vectorized: ``w``, ``l``, ``vgs``, ``vds``, ``ids`` may
be scalars or broadcastable numpy arrays, and every voltage is the
*magnitude* of the respective quantity (PMOS handled by its own
:class:`~repro.circuits.technology.DeviceParams`).  The model covers the
saturation region, which is where every transistor of the op-amp must
operate (the sizing problem constrains this explicitly); the
velocity-saturation factor is clamped at :data:`MIN_VSAT_FACTOR` so that
out-of-range candidates degrade smoothly instead of producing negative
currents.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.circuits.technology import DeviceParams

MIN_VSAT_FACTOR = 0.05
_EPS = 1e-12


class MosfetModel:
    """Eqn (1) evaluated for one device type.

    Parameters
    ----------
    dev:
        Device parameters (NMOS or PMOS card).
    """

    def __init__(self, dev: DeviceParams) -> None:
        self.dev = dev

    # ----------------------------------------------------------- internals

    def _mobility_denominator(self, vgs: np.ndarray) -> np.ndarray:
        d = self.dev
        u = np.maximum(vgs + d.vt0 - d.vk, 0.0)
        return 1.0 + d.theta1 * np.cbrt(u) + d.theta2 * u**d.mobility_exponent

    def _mobility_denominator_derivative(self, vgs: np.ndarray) -> np.ndarray:
        d = self.dev
        u = np.maximum(vgs + d.vt0 - d.vk, 0.0)
        # d/dVGS of theta1*u^(1/3): theta1/3 * u^(-2/3); guarded at u = 0.
        cbrt_term = np.where(
            u > _EPS, d.theta1 / 3.0 * u ** (-2.0 / 3.0), 0.0
        )
        power_term = (
            d.theta2 * d.mobility_exponent * u ** max(d.mobility_exponent - 1, 0)
        )
        return cbrt_term + power_term

    def _bias_factors(
        self, w: np.ndarray, l: np.ndarray, vds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The VGS-independent factors of eqn (1):
        ``(0.5 k' W/L, Esat L, 1 + lambda VDS)``."""
        d = self.dev
        return 0.5 * d.kprime * (w / l), d.esat * l, 1.0 + (d.lambda_l / l) * vds

    def _current(
        self, factors: Tuple[np.ndarray, np.ndarray, np.ndarray], vgs: np.ndarray
    ) -> np.ndarray:
        """Eqn (1) at *vgs*, given :meth:`_bias_factors`."""
        gain, esat_l, clm = factors
        vov = np.maximum(vgs - self.dev.vt0, 0.0)
        vsat = np.maximum(1.0 - vov / esat_l, MIN_VSAT_FACTOR)
        return gain * vov**2 * vsat * clm / self._mobility_denominator(vgs)

    # ------------------------------------------------------------- currents

    def drain_current(
        self, w: np.ndarray, l: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> np.ndarray:
        """Saturation drain current of eqn (1); 0 below threshold."""
        w, l, vgs, vds = np.broadcast_arrays(
            np.asarray(w, float), np.asarray(l, float),
            np.asarray(vgs, float), np.asarray(vds, float),
        )
        return self._current(self._bias_factors(w, l, vds), vgs)

    def transconductance(
        self, w: np.ndarray, l: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> np.ndarray:
        """gm = dID/dVGS (analytic)."""
        d = self.dev
        w, l, vgs, vds = np.broadcast_arrays(
            np.asarray(w, float), np.asarray(l, float),
            np.asarray(vgs, float), np.asarray(vds, float),
        )
        vov = np.maximum(vgs - d.vt0, 0.0)
        k = 0.5 * d.kprime * (w / l) * (1.0 + (d.lambda_l / l) * vds)
        esat_l = d.esat * l
        raw_factor = 1.0 - vov / esat_l
        clamped = raw_factor <= MIN_VSAT_FACTOR
        # f(vov) = vov^2 * (1 - vov/EsatL);  f' = 2 vov - 3 vov^2 / EsatL
        f = vov**2 * np.where(clamped, MIN_VSAT_FACTOR, raw_factor)
        fprime = np.where(
            clamped, 2.0 * vov * MIN_VSAT_FACTOR, 2.0 * vov - 3.0 * vov**2 / esat_l
        )
        den = self._mobility_denominator(vgs)
        dden = self._mobility_denominator_derivative(vgs)
        gm = k * (fprime * den - f * dden) / den**2
        return np.maximum(gm, 0.0)

    def output_conductance(
        self, w: np.ndarray, l: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> np.ndarray:
        """gds = dID/dVDS = ID * lambda / (1 + lambda*VDS)."""
        l_arr = np.asarray(l, float)
        lam = self.dev.lambda_l / l_arr
        ids = self.drain_current(w, l, vgs, vds)
        return ids * lam / (1.0 + lam * np.asarray(vds, float))

    # --------------------------------------------------------- bias solving

    def vgs_for_current(
        self,
        w: np.ndarray,
        l: np.ndarray,
        ids: np.ndarray,
        vds: np.ndarray,
        vov_max: float = 1.2,
        iterations: int = 36,
    ) -> np.ndarray:
        """Solve VGS such that ``drain_current(...) == ids`` (vectorized bisection).

        The current is monotonically increasing in VGS throughout the
        usable overdrive range, so bisection on
        ``[vt0 + 1 mV, vt0 + vov_max]`` converges unconditionally.  Targets
        beyond the device's reach saturate at the bracket edge (the region
        and matching constraints will then flag the design as infeasible).
        """
        d = self.dev
        w, l, ids, vds = np.broadcast_arrays(
            np.asarray(w, float), np.asarray(l, float),
            np.asarray(ids, float), np.asarray(vds, float),
        )
        # d.vt0 may itself be an array (stacked corner / Monte-Carlo
        # technologies), so build the brackets by broadcasting, not np.full.
        base = np.zeros(np.broadcast(w, np.asarray(d.vt0, float)).shape)
        lo = base + np.asarray(d.vt0, float) + 1e-3
        hi = base + np.asarray(d.vt0, float) + vov_max
        # The VGS-independent factors are computed once, outside the loop;
        # each step is then exactly a drain_current call at VGS = mid.
        factors = self._bias_factors(w, l, vds)
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            too_low = self._current(factors, mid) < ids
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return 0.5 * (lo + hi)

    def vdsat(self, vgs: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Saturation voltage with velocity saturation:
        ``Vdsat = Vov / (1 + Vov / (Esat*L))`` (reduces to Vov for long L)."""
        vov = np.maximum(np.asarray(vgs, float) - self.dev.vt0, 0.0)
        esat_l = self.dev.esat * np.asarray(l, float)
        return vov / (1.0 + vov / esat_l)

    # ---------------------------------------------------------- capacitance

    def gate_source_cap(self, w: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Cgs in saturation: (2/3) W L Cox + overlap."""
        w = np.asarray(w, float)
        l = np.asarray(l, float)
        return (2.0 / 3.0) * w * l * self.dev.cox + self.dev.cov * w

    def gate_drain_cap(self, w: np.ndarray) -> np.ndarray:
        """Cgd in saturation: overlap only."""
        return self.dev.cov * np.asarray(w, float)

    def drain_bulk_cap(self, w: np.ndarray) -> np.ndarray:
        """Drain junction capacitance: area + sidewall of the diffusion."""
        w = np.asarray(w, float)
        d = self.dev
        return d.cj * w * d.ldif + d.cjsw * (w + 2.0 * d.ldif)

    # -------------------------------------------------------------- checks

    def saturation_margin(
        self, vds: np.ndarray, vgs: np.ndarray, l: np.ndarray
    ) -> np.ndarray:
        """``VDS - Vdsat``; positive means safely in saturation."""
        return np.asarray(vds, float) - self.vdsat(vgs, l)

    def velocity_headroom(self, vgs: np.ndarray, l: np.ndarray) -> np.ndarray:
        """``1 - Vov/(Esat*L)`` before clamping; <= MIN_VSAT_FACTOR means the
        candidate drove the device outside the model's validity range."""
        vov = np.maximum(np.asarray(vgs, float) - self.dev.vt0, 0.0)
        return 1.0 - vov / (self.dev.esat * np.asarray(l, float))


def operating_point(
    model: MosfetModel,
    w: np.ndarray,
    l: np.ndarray,
    ids: np.ndarray,
    vds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convenience: solve bias and return ``(vgs, gm, gds, vdsat)``."""
    vgs = model.vgs_for_current(w, l, ids, vds)
    gm = model.transconductance(w, l, vgs, vds)
    gds = model.output_conductance(w, l, vgs, vds)
    vdsat = model.vdsat(vgs, l)
    return vgs, gm, gds, vdsat
