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
    t_c = tc_from_polarization(float(p), sc)  # in floats an overflow is inf, silently
    if t_op >= t_c:
        raise DomainError(
            f"device is normal: t_op={t_op} K >= T_C({p:+.3f})={t_c:.4g} K"
        )
    try:
        return ab_critical_current(bcs_gap(t_op, t_c), t_op, sc.r_n)
    except ZeroDivisionError as exc:  # 2 q_e R_N or 2 k_B T underflowed to 0
        raise DomainError(
            f"critical current undefined at t_op={t_op} K, r_n={sc.r_n} ohm"
        ) from exc


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
    if i <= critical_current_at(p, dev.sc, dev.t_op):
        return 0.0
    return i * (bias.r_match if p >= 0.0 else bias.r_mismatch)


@dataclass(frozen=True)
class RcsjParams:
    """Integration settings for the RCSJ solver.

    ``n_steps`` fixed RK4 steps per nominal Josephson period at each bias
    point; ``settle_periods`` nominal periods discarded before whole phase
    cycles are timed; after those, a point may step at most
    4.5 * ``average_periods`` nominal periods before two successive cycle
    periods must agree.
    """

    beta_c: float = 0.1
    n_steps: int = 1000
    settle_periods: int = 1
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


# Relative tolerance between two successive whole-cycle periods.  The
# linear crossing interpolation leaves a few 1e-9 of period-to-period
# jitter on a converged orbit, so the tolerance sits well above that.
_PERIOD_RTOL = 1e-7


def _same_sign(a, b):
    return math.copysign(1.0, a) == math.copysign(1.0, b)


def _advance(phi, u, i, beta_c, h, max_steps, target=math.inf):
    """Advance (phi, u) by up to ``max_steps`` fixed RK4 steps of the phase
    equation; returns (phi, u, steps, theta): the state after ``steps``
    steps and, when the last of them carried ``phi`` across ``target``,
    the crossing time linearly interpolated within that step (else None).

    beta_c == 0 integrates the first-order overdamped equation
    phi' = i - sin(phi), carrying ``u`` through unused; otherwise the full
    second-order system.  The loop also ends when a step returns its input
    bit for bit: a phase-locked state at its floating-point fixed point,
    which every remaining step would return again.  That step is not
    counted, so ``steps < max_steps`` with no crossing marks a fixed point.
    """
    sin = math.sin
    h2, h6 = 0.5 * h, h / 6.0
    if beta_c == 0.0:
        for n in range(max_steps):
            k1 = i - sin(phi)
            k2 = i - sin(phi + h2 * k1)
            k3 = i - sin(phi + h2 * k2)
            k4 = i - sin(phi + h * k3)
            p = phi + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            if p >= target:
                return p, u, n + 1, (n + (target - phi) / (p - phi)) * h
            if p == phi and _same_sign(p, phi):
                return phi, u, n, None
            phi = p
        return phi, u, max_steps, None
    inv_b = 1.0 / beta_c
    for n in range(max_steps):
        k1u = (i - sin(phi) - u) * inv_b
        u2 = u + h2 * k1u
        k2u = (i - sin(phi + h2 * u) - u2) * inv_b
        u3 = u + h2 * k2u
        k3u = (i - sin(phi + h2 * u2) - u3) * inv_b
        u4 = u + h * k3u
        k4u = (i - sin(phi + h * u3) - u4) * inv_b
        p = phi + h6 * (u + 2.0 * (u2 + u3) + u4)
        v = u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u)
        if p >= target:
            return p, v, n + 1, (n + (target - phi) / (p - phi)) * h
        if p == phi and v == u and _same_sign(p, phi) and _same_sign(v, u):
            return phi, u, n, None
        phi, u = p, v
    return phi, u, max_steps, None


def _trapped(phi, u, i, beta_c):
    """True when the state can never leave its potential well.

    The tilted-washboard energy E = beta_c*u^2/2 - cos(phi) - i*phi only
    falls along a trajectory (dE/dt = -u^2).  For i < 1 the next barrier
    top ahead of ``phi`` sits at pi - arcsin(i) (mod 2 pi), the one behind
    it 2 pi*i higher, so a state with E below the potential at the next
    top stays in its well for good.
    """
    if i >= 1.0:
        return False
    top = math.pi - math.asin(i)
    ahead = phi - top - 2.0 * math.pi * math.ceil((phi - top) / (2.0 * math.pi))
    # E minus the potential -cos(top) - i*top at that top, with cos(top)
    # = -sqrt(1 - i^2); ``ahead`` in (-2 pi, 0] keeps the tilt term small
    excess = 0.5 * beta_c * u * u - math.cos(phi) - math.sqrt(1.0 - i * i)
    return excess - i * ahead < 0.0


def _cycle_omega(phi, u, i, i_abs, params, h):
    """Mean phase velocity <phi'> of a settled point, and its end state.

    Steps whole phase cycles, each timed from a trajectory state to the
    interpolated crossing of its phase + 2 pi, in chunks of one nominal
    period.  A running point ends when two successive periods agree to
    ``_PERIOD_RTOL``: it then lies on its periodic orbit, and one period
    gives <phi'> = 2 pi / T.  A point is locked (0.0) when a step is a
    fixed point or ``_trapped`` holds between chunks.  A point at i <= 1
    that spends the whole step budget without closing two cycles is
    locked as well: it is creeping onto an equilibrium, which at i = 1
    exactly (barrier and well merged) no energy bound can show.  A locked
    point ends at its fixed point, or where the budget runs out.
    """
    budget = params.n_steps * 9 * params.average_periods // 2
    steps_left = budget
    periods, last, rel = 0, math.inf, math.inf
    elapsed, target = 0.0, phi + 2.0 * math.pi
    while not _trapped(phi, u, i, params.beta_c):
        if steps_left == 0:
            if i <= 1.0 and periods < 2:
                break
            raise NumericError(
                f"time-average not converged at i={i_abs:.6g} A "
                f"(i/I_C={i:.4g}): {periods} periods stepped within the "
                f"budget of {budget} steps, last relative change {rel:.3g} "
                f"(tolerance {_PERIOD_RTOL})"
            )
        chunk = min(params.n_steps, steps_left)
        phi, u, steps, theta = _advance(
            phi, u, i, params.beta_c, h, chunk, target
        )
        steps_left -= steps
        if theta is None:
            if steps < chunk:
                break
            elapsed += steps * h
            continue
        period = elapsed + theta
        periods += 1
        rel = abs(period - last) / period
        if rel <= _PERIOD_RTOL:
            return 2.0 * math.pi / period, phi, u
        last, elapsed, target = period, 0.0, phi + 2.0 * math.pi
    # Locked: step on to the fixed point within the budget, so the next
    # bias point starts from a settled state, as a slow sweep would.
    phi, u, _, _ = _advance(phi, u, i, params.beta_c, h, steps_left)
    return 0.0, phi, u


def simulate_rcsj_iv(dev: FeSquidDevice, i_points, params: RcsjParams) -> IvCurve:
    """Time-averaged junction voltage at each bias point.

    Integrates the normalized phase equation beta_c*phi'' + phi' + sin phi
    = i/I_C with time in units of Phi_0/(2 pi I_C R_N), then converts
    <phi'> back to volts via V = I_C R_N <phi'>.  The final state of each
    bias point seeds the next, so ascending-then-descending ``i_points``
    trace hysteretic branches at large beta_c.  After ``settle_periods``
    a point steps whole phase cycles until two successive periods agree
    (a running point on its periodic orbit, V = V_scale * 2 pi / T) or it
    is shown to be locked (see ``_cycle_omega``).  A bias so large that
    the step, the drive-period estimate over ``n_steps``, is not > 0
    raises NumericError: every step would then look like a fixed point.
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
    # plain floats: a bias whose square overflows gives inf, not a warning
    for k, i_abs in enumerate(i_points.tolist()):
        i = i_abs / i_c
        phi = math.fmod(phi, 2.0 * math.pi)  # keep sin() accurate on long sweeps
        # Drive-period estimate: exact for the overdamped running state, a
        # settling timescale when phase-locked (i <= 1).
        omega_est = math.sqrt(max(i * i - 1.0, 0.0625))
        h = (2.0 * math.pi / omega_est) / params.n_steps
        if not h > 0.0:  # every step would return its input: a false lock
            raise NumericError(
                f"integration step {h:.3g} at i={i_abs:.6g} A (i/I_C={i:.4g}): "
                f"the bias is too large to integrate"
            )
        settle = params.n_steps * params.settle_periods
        phi, u, steps, _ = _advance(phi, u, i, params.beta_c, h, settle)
        if steps < settle:
            v_avg[k] = 0.0
            continue
        omega, phi, u = _cycle_omega(phi, u, i, i_abs, params, h)
        v_avg[k] = v_scale * omega
    return IvCurve(i_bias=i_points.copy(), v_avg=v_avg)
