"""FeSQUID storage device.

Combines a Preisach ferroelectric state with superconductor closed forms
to produce a polarization-dependent critical current, a two-resistance
behavioral I-V used by the TCAM fast paths, and an RCSJ phase-dynamics
solver used for validation and I-V plotting only (the array search paths
need O(1) per-cell evaluation).

The SQUID is reduced to one effective junction at zero applied flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .device_physics import (
    SuperconductorParams,
    ab_critical_current,
    bcs_gap,
    tc_from_polarization,
)
from .errors import DomainError, NumericError
from .ferroelectric import PreisachState, remnant_fraction

if TYPE_CHECKING:
    from .tcam import BiasConfig


@dataclass
class FeSquidDevice:
    """One FeSQUID: ferroelectric occupancy + superconductor parameters.

    Its resistive-branch values are not stored here: they are the row
    record's ``r_match``/``r_mismatch``, which ``branch_voltage`` reads.
    """

    fe: PreisachState
    sc: SuperconductorParams
    t_op: float = 4.0  # K

    def __post_init__(self):
        if self.t_op <= 0.0:
            raise DomainError(f"t_op must be > 0 K, got {self.t_op}")


def critical_current_at(p: float, sc: SuperconductorParams, t_op: float) -> float:
    """Critical current (A) at remnant-polarization fraction ``p``."""
    t_c = tc_from_polarization(p, sc)
    if t_op >= t_c:
        raise DomainError(
            f"device is normal: t_op={t_op} K >= T_C({p:+.3f})={t_c:.4g} K"
        )
    return ab_critical_current(bcs_gap(t_op, t_c), t_op, sc.r_n)


def critical_current(dev: FeSquidDevice) -> float:
    """State-dependent critical current (A) at the operating temperature."""
    return critical_current_at(remnant_fraction(dev.fe), dev.sc, dev.t_op)


def critical_window(sc: SuperconductorParams, t_op: float) -> tuple[float, float]:
    """(I_C,low, I_C,high) in A: the critical currents of a fully written
    device (remnant fraction +1 and -1) at ``t_op``.  The exact-mode bias
    must sit inside this window, the HD-mode bias above it."""
    return critical_current_at(+1.0, sc, t_op), critical_current_at(-1.0, sc, t_op)


def branch_voltage(dev: FeSquidDevice, i: float, bias: BiasConfig) -> float:
    """Behavioral piecewise I-V: exactly 0 V up to the critical current,
    i * R above it.  R is the row record's ``r_match`` when the stored
    state is the low-I_C one (positive remnant) and ``r_mismatch`` when it
    is the high-I_C one (negative remnant): the high-I_C state is the
    better superconductor and has the lower resistive value."""
    if i < 0.0:
        raise DomainError(f"bias current must be >= 0, got {i}")
    p = remnant_fraction(dev.fe)
    r = bias.r_match if p >= 0.0 else bias.r_mismatch
    if r <= 0.0:
        raise DomainError(f"state resistance must be > 0, got {r}")
    if i <= critical_current_at(p, dev.sc, dev.t_op):
        return 0.0
    return i * r


@dataclass(frozen=True)
class RcsjParams:
    """Integration settings for the RCSJ solver.

    ``n_steps`` fixed RK4 steps per Josephson period at each bias point;
    ``settle_periods`` discarded before averaging; ``average_periods``
    split into two consecutive windows whose means must agree to 1e-3.
    """

    beta_c: float = 0.1
    n_steps: int = 1000
    settle_periods: int = 50
    average_periods: int = 200

    def __post_init__(self):
        if self.beta_c < 0.0:
            raise DomainError(f"beta_c must be >= 0, got {self.beta_c}")
        if self.n_steps < 1000:
            raise DomainError(f"n_steps must be >= 1000, got {self.n_steps}")
        if self.settle_periods < 1 or self.average_periods < 2:
            raise DomainError("settle/average period counts too small")


@dataclass(frozen=True)
class IvCurve:
    i_bias: np.ndarray  # A
    v_avg: np.ndarray  # V, time-averaged


# Relative tolerance between the two averaging windows, and the normalized
# phase-velocity floor below which the junction counts as phase-locked.
_WINDOW_RTOL = 1e-3
_LOCKED_ATOL = 1e-6


def _same_sign(a, b):
    return math.copysign(1.0, a) == math.copysign(1.0, b)


def _advance(phi, u, i, beta_c, h, max_steps, target=math.inf):
    """Advance (phi, u) by up to ``max_steps`` fixed RK4 steps of the phase
    equation; returns (phi, u, theta, crossed).

    beta_c == 0 integrates the first-order overdamped equation
    phi' = i - sin(phi), carrying ``u`` through unused; otherwise the full
    second-order system.  The loop ends early when ``phi`` crosses
    ``target`` (theta is then the crossing time, linearly interpolated
    within the final step; ending averaging windows on whole phase cycles
    removes the fractional-cycle residual that would otherwise dominate
    the window means), or when a step returns its input bit for bit: a
    phase-locked state at its floating-point fixed point, which every
    remaining step would return again.  theta is meaningful only when
    crossed.
    """
    sin = math.sin
    h2, h6 = 0.5 * h, h / 6.0
    theta = 0.0
    if beta_c == 0.0:
        for _ in range(max_steps):
            k1 = i - sin(phi)
            k2 = i - sin(phi + h2 * k1)
            k3 = i - sin(phi + h2 * k2)
            k4 = i - sin(phi + h * k3)
            p = phi + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            theta += h
            if p >= target:
                return p, u, theta - h + (target - phi) / (p - phi) * h, True
            if p == phi and _same_sign(p, phi):
                break
            phi = p
        return phi, u, theta, False
    inv_b = 1.0 / beta_c
    for _ in range(max_steps):
        k1u = (i - sin(phi) - u) * inv_b
        u2 = u + h2 * k1u
        k2u = (i - sin(phi + h2 * u) - u2) * inv_b
        u3 = u + h2 * k2u
        k3u = (i - sin(phi + h2 * u2) - u3) * inv_b
        u4 = u + h * k3u
        k4u = (i - sin(phi + h * u3) - u4) * inv_b
        p = phi + h6 * (u + 2.0 * (u2 + u3) + u4)
        v = u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u)
        theta += h
        if p >= target:
            return p, v, theta - h + (target - phi) / (p - phi) * h, True
        if p == phi and v == u and _same_sign(p, phi) and _same_sign(v, u):
            break
        phi, u = p, v
    return phi, u, theta, False


def simulate_rcsj_iv(dev: FeSquidDevice, i_points, params: RcsjParams) -> IvCurve:
    """Time-averaged junction voltage at each bias point.

    Integrates the normalized phase equation beta_c*phi'' + phi' + sin phi
    = i/I_C with time in units of Phi_0/(2 pi I_C R_N), then converts
    <phi'> back to volts via V = I_C R_N <phi'>.  The final state of each
    bias point seeds the next, so ascending-then-descending ``i_points``
    trace hysteretic branches at large beta_c.  Every window (settle,
    pilot and both averaging windows) stops early once a step returns its
    input bit for bit, so phase-locked points cost little and the result
    is the same as running every step.
    """
    i_points = np.asarray(i_points, dtype=float)
    if i_points.size == 0:
        raise DomainError("i_points must be non-empty")
    if not np.all(np.isfinite(i_points)) or np.any(i_points < 0.0):
        raise DomainError("i_points must be finite and >= 0")

    i_c = critical_current(dev)
    r = dev.sc.r_n
    v_scale = i_c * r

    v_avg = np.empty(i_points.size)
    phi, u = 0.0, 0.0
    half_avg = params.average_periods // 2
    for k, i_abs in enumerate(i_points):
        i = i_abs / i_c
        phi = math.fmod(phi, 2.0 * math.pi)  # keep sin() accurate on long sweeps
        # Drive-period estimate: exact for the overdamped running state, a
        # settling timescale when phase-locked (i <= 1).
        omega_est = math.sqrt(max(i * i - 1.0, 0.0625))
        h = (2.0 * math.pi / omega_est) / params.n_steps

        phi, u, _, _ = _advance(
            phi, u, i, params.beta_c, h, params.n_steps * params.settle_periods
        )
        # Pilot window measures the actual phase velocity; the averaging
        # windows then span whole oscillation cycles each.
        pilot_steps = params.n_steps * half_avg
        phi0 = phi
        phi, u, _, _ = _advance(phi, u, i, params.beta_c, h, pilot_steps)
        omega_meas = (phi - phi0) / (h * pilot_steps)
        if abs(omega_meas) < _LOCKED_ATOL:
            v_avg[k] = 0.0
            continue
        cycles = max(1, round(half_avg * abs(omega_meas) / omega_est))
        max_steps = 4 * params.n_steps * half_avg
        means = []
        for _ in range(2):
            target = phi + cycles * 2.0 * math.pi
            phi, u, theta, crossed = _advance(
                phi, u, i, params.beta_c, h, max_steps, target
            )
            if not crossed:
                raise NumericError(
                    f"time-average not converged at i={i_abs:.6g} A "
                    f"(i/I_C={i:.4g}): phase advanced only "
                    f"{(phi - target) / (2.0 * math.pi) + cycles:.3g} of "
                    f"{cycles} cycles within the step budget"
                )
            means.append(cycles * 2.0 * math.pi / theta)
        a1, a2 = means
        rel = abs(a2 - a1) / max(abs(a2), _LOCKED_ATOL)
        if rel > _WINDOW_RTOL:
            raise NumericError(
                f"time-average not converged at i={i_abs:.6g} A "
                f"(i/I_C={i:.4g}): window means {a1:.6g}, {a2:.6g}, "
                f"relative change {rel:.3g} > {_WINDOW_RTOL}"
            )
        v_avg[k] = v_scale * 0.5 * (a1 + a2)
    return IvCurve(i_bias=i_points.copy(), v_avg=v_avg)
