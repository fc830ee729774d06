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

from typing import Optional, Tuple

import numpy as np

from repro.circuits.technology import DeviceParams

MIN_VSAT_FACTOR = 0.05
#: Smallest overdrive (V) the bias solver considers.
VOV_MIN = 1e-3
#: A bias-solve element stops once its own Newton step is below this (V).
NEWTON_TOL = 1e-12
#: Safety cap on bias-solve steps.  Bisecting the whole bracket down to
#: NEWTON_TOL takes 41 steps; GA batches stop after 4-5.
MAX_NEWTON_STEPS = 100
_EPS = 1e-12
_TINY = 1e-300


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

    # ------------------------------------------------------------- currents

    def drain_current(
        self, w: np.ndarray, l: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> np.ndarray:
        """Saturation drain current of eqn (1); 0 below threshold."""
        w, l, vgs, vds = np.broadcast_arrays(
            np.asarray(w, float), np.asarray(l, float),
            np.asarray(vgs, float), np.asarray(vds, float),
        )
        d = self.dev
        vov = np.maximum(vgs - d.vt0, 0.0)
        vsat = np.maximum(1.0 - vov / (d.esat * l), MIN_VSAT_FACTOR)
        clm = 1.0 + (d.lambda_l / l) * vds
        gain = 0.5 * d.kprime * (w / l)
        return gain * vov**2 * vsat * clm / self._mobility_denominator(vgs)

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

    def _current_and_slope(
        self,
        x: np.ndarray,
        gain: np.ndarray,
        esat_l: np.ndarray,
        shift: np.ndarray,
        *coupling: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eqn (1) and its slope in overdrive ``x = VGS - vt0``, fused.

        ``shift`` is ``2 vt0 - vk`` (so ``x + shift`` is the mobility
        term's ``VGS + VT - VK``).  Without *coupling*, ``gain`` already
        holds ``0.5 k' W/L (1 + lambda VDS)``.  With *coupling*
        ``lam, drain, floor`` the drain follows the gate,
        ``VDS = max(drain + x, floor)``, and ``gain`` is ``0.5 k' W/L``.
        The velocity factor is not clamped: the solver only evaluates
        ``x <= 2/3 Esat L``, where it is at least 1/3.
        """
        d = self.dev
        u = np.maximum(x + shift, 0.0)
        c = np.cbrt(u)
        den = 1.0 + d.theta1 * c + d.theta2 * u**d.mobility_exponent
        # d/dx of theta1 u^(1/3) is theta1 c / (3 u), reusing the cube
        # root; it is 0 where u is clamped at 0.
        dden = d.theta1 * c / (3.0 * np.maximum(u, _TINY)) + (
            d.theta2 * d.mobility_exponent * u ** (d.mobility_exponent - 1)
        )
        q = x * x * (1.0 - x / esat_l) / den
        dq = (x * (2.0 - 3.0 * x / esat_l) - q * dden) / den
        if not coupling:
            return gain * q, gain * dq
        lam, drain, floor = coupling
        vds = drain + x
        clm = 1.0 + lam * np.maximum(vds, floor)
        dclm = np.where(vds > floor, lam, 0.0)
        return gain * clm * q, gain * (clm * dq + dclm * q)

    def vgs_for_current(
        self,
        w: np.ndarray,
        l: np.ndarray,
        ids: np.ndarray,
        vds: np.ndarray,
        vov_max: float = 1.2,
        *,
        vds_offset: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Solve VGS such that the eqn (1) drain current equals ``ids``.

        With ``vds_offset`` the drain follows the gate instead of sitting
        at a fixed ``vds``: ``VDS = max(VGS + vds_offset, vds)``, so
        ``vds`` becomes the floor.  A diode-connected device is
        ``vds_offset=0``; this solves such a coupled bias point directly,
        with no fixed-point loop around the call.

        Returns the *smallest* root on ``[vt0 + 1 mV, vt0 + vov_max]``.
        The current is not monotone there: the velocity factor
        ``(1 - Vov/(Esat L))`` makes ``Vov^2 (1 - Vov/(Esat L))`` peak at
        ``Vov = 2/3 Esat L`` (0.68 V for an NMOS at L = 0.18 um, below
        ``vov_max`` for NMOS shorter than about 0.32 um), the mobility
        denominator moves the peak lower still, and past it the current
        falls and then rises again once the factor clamps at
        :data:`MIN_VSAT_FACTOR`.  The search is therefore confined to the
        rising branch below ``min(vov_max, 2/3 Esat L)``.  A target above
        the branch's peak current cannot be reached and returns
        ``vt0 + vov_max`` (the region and matching constraints then flag
        the design as infeasible); a target at or below the current at
        ``vt0 + 1 mV`` returns ``vt0 + 1 mV``.

        The solver is a safeguarded Newton iteration in overdrive space,
        started from the square-law guess ``sqrt(ids / (0.5 k' W/L
        (1 + lambda VDS)))``.  It keeps a bracket around the smallest root
        and takes a bisection step whenever the Newton step would leave it
        or the slope is not positive.  Each element stops once its own
        step is below :data:`NEWTON_TOL`, so its result does not depend
        on the other elements of the batch.
        """
        d = self.dev
        w, l, ids, vds = (np.asarray(a, float) for a in (w, l, ids, vds))
        vt0 = np.asarray(d.vt0, float)
        shape = np.broadcast_shapes(w.shape, l.shape, ids.shape, vds.shape, vt0.shape)
        # Element-wise constants stay at their own (broadcastable) shapes.
        esat_l = d.esat * l
        lam = d.lambda_l / l
        gain = 0.5 * d.kprime * (w / l)
        shift = vt0 + vt0 - d.vk
        if vds_offset is None:
            gain = gain * (1.0 + lam * vds)
            params = [gain, esat_l, shift]
            clm_guess = 1.0
        else:
            drain = vt0 + np.asarray(vds_offset, float)
            params = [gain, esat_l, shift, lam, drain, vds]
            clm_guess = 1.0 + lam * np.maximum(drain, vds)

        # The top of the rising branch's bracket: past 2/3 Esat L the
        # current falls even without mobility degradation.
        hi = np.broadcast_to(np.minimum(vov_max, (2.0 / 3.0) * esat_l), shape)
        cur, slope = self._current_and_slope(hi, *params)
        # Below the target and still rising at the top: out of reach.
        live = ~((cur < ids) & (slope > 0.0))
        # Below the target and already falling: the peak lies inside the
        # bracket, and the target may or may not be reachable.
        peaked = cur < ids
        x = np.clip(np.sqrt(np.maximum(ids, 0.0) / (gain * clm_guess)), VOV_MIN, hi)
        # NaN in, NaN out.
        nan = np.isnan(x)
        live &= ~nan
        lo = np.full(shape, VOV_MIN)
        out = np.where(nan, np.nan, vov_max)
        for _ in range(MAX_NEWTON_STEPS):
            if not live.any():
                break
            cur, slope = self._current_and_slope(x, *params)
            # At or above the target, or past the peak, the smallest root
            # is at or below x; otherwise x is below it on the rising branch.
            above = cur >= ids
            right = above | (slope <= 0.0)
            lo = np.where(right, lo, x)
            hi = np.where(right, x, hi)
            peaked = peaked & ~above
            rising = slope > 0.0
            step = (ids - cur) / np.where(rising, slope, 1.0)
            converged = rising & (np.abs(step) <= NEWTON_TOL)
            x_new = x + step
            newton = converged | (rising & (x_new > lo) & (x_new < hi))
            x_new = np.where(newton, x_new, 0.5 * (lo + hi))
            # Elements whose own step is below tolerance are final; the
            # ones already done iterate on, but their result is kept.
            done = live & (np.abs(x_new - x) <= NEWTON_TOL)
            # A bracket that closed on the peak without ever reaching the
            # target: out of reach.
            out[done] = np.where(peaked & ~converged, vov_max, x_new)[done]
            live = live & ~done
            x = x_new
        out[live] = x[live]  # only at the step cap
        return vt0 + out

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
