"""Preisach hysteresis model of the ferroelectric layer.

Polarization is a weighted sum over elementary bistable relays on the
switching half-plane alpha >= beta (alpha = up-switching voltage, beta =
down-switching voltage).  A rising input flips up every relay with
alpha <= v; a falling input flips down every relay with beta >= v.  The
model is rate-independent: only the sequence of reversal points matters.

State is stored per relay, not as a scalar P, so minor-loop behavior
(wipe-out, congruency) is exact on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError


class PreisachModel:
    """Hysteron grid plus weight density; shared, immutable after build.

    The density is a product of two Gaussians in the rotated plane
    coordinates h_c = (alpha - beta)/2 (coercivity) and h_u =
    (alpha + beta)/2 (bias), centered at (v_c, 0).  Each Gaussian has
    standard deviation sigma_v/sqrt(2) so that the switching thresholds
    alpha and beta themselves have spread sigma_v about +/-v_c.  Weights
    are normalized to sum to 1, so deep saturation yields +/-p_s exactly.
    """

    def __init__(
        self,
        grid_n: int = 64,
        p_s: float = 0.30,  # C/m^2 (30 uC/cm^2)
        v_c: float = 1.2,  # V
        sigma_v: float = 0.15,  # V
        v_span: float | None = None,
    ):
        if grid_n < 16:
            raise DomainError(f"grid_n must be >= 16, got {grid_n}")
        if p_s <= 0.0 or v_c <= 0.0 or sigma_v <= 0.0:
            raise DomainError("p_s, v_c and sigma_v must all be > 0")
        self.grid_n = int(grid_n)
        self.p_s = float(p_s)
        self.v_c = float(v_c)
        self.sigma_v = float(sigma_v)
        # Inputs at or beyond +/-v_span saturate the grid exactly.
        self.v_span = float(v_span) if v_span is not None else v_c + 5.0 * sigma_v

        axis = np.linspace(-self.v_span, self.v_span, self.grid_n)
        aa, bb = np.meshgrid(axis, axis, indexing="ij")
        keep = aa >= bb
        alpha = aa[keep]  # up-switching thresholds
        beta = bb[keep]  # down-switching thresholds

        h_c = 0.5 * (alpha - beta)
        h_u = 0.5 * (alpha + beta)
        sig = self.sigma_v / math.sqrt(2.0)
        w = np.exp(-0.5 * ((h_c - self.v_c) / sig) ** 2) * np.exp(
            -0.5 * (h_u / sig) ** 2
        )
        # Drop numerically irrelevant hysterons so the density has bounded
        # support: inputs below the smallest surviving threshold are exactly
        # reversible, and every occupancy sum shrinks accordingly.
        keep = w > 1e-9 * w.max()
        self.alpha = alpha[keep]
        self.beta = beta[keep]
        self.weights = w[keep] / w[keep].sum()
        #: largest |v| guaranteed to flip no hysteron from any state
        self.reversible_span = max(
            0.0, float(min(self.alpha.min(), -self.beta.max()))
        )

    @property
    def n_hysterons(self) -> int:
        return self.alpha.size

    def initial_state(self) -> "PreisachState":
        """Fresh state at deep negative saturation (all relays down)."""
        return PreisachState(
            model=self,
            relay_up=np.zeros(self.n_hysterons, dtype=bool),
            last_v=-self.v_span,
        )


@dataclass
class PreisachState:
    """Occupancy of one ferroelectric; independent mutable value.

    Never share a single state between concurrent workers -- ``clone``
    per worker instead.
    """

    model: PreisachModel
    relay_up: np.ndarray
    last_v: float
    _remnant_cache: float | None = field(default=None, repr=False, compare=False)

    def clone(self) -> "PreisachState":
        return PreisachState(self.model, self.relay_up.copy(), self.last_v)

    def polarization(self) -> float:
        """Current polarization (C/m^2) of the occupancy as-is."""
        up_weight = self.model.weights[self.relay_up].sum()
        return self.model.p_s * (2.0 * up_weight - 1.0)


def drive_voltage(state: PreisachState, v: float) -> PreisachState:
    """Update the occupancy for input ``v`` without reading P back."""
    if not math.isfinite(v):
        raise DomainError(f"voltage must be finite, got {v}")
    m = state.model
    if v > state.last_v:
        state.relay_up |= m.alpha <= v
        state._remnant_cache = None
    elif v < state.last_v:
        state.relay_up &= ~(m.beta >= v)
        state._remnant_cache = None
    state.last_v = v
    return state


def apply_voltage(state: PreisachState, v: float) -> tuple[PreisachState, float]:
    """Drive the ferroelectric to voltage ``v``; returns (state, P).

    Mutates ``state`` in place and returns it for chaining.
    """
    drive_voltage(state, v)
    return state, state.polarization()


def apply_waveform(state: PreisachState, samples) -> np.ndarray:
    """Fold ``apply_voltage`` over ``samples``; returns the P trace."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise UsageError("waveform must contain at least one sample")
    trace = np.empty(samples.size)
    for k, v in enumerate(samples):
        _, trace[k] = apply_voltage(state, float(v))
    return trace


def remnant_fraction(state: PreisachState) -> float:
    """Polarization fraction P(v=0)/p_s the state would retain at zero
    field, without mutating it.  Clamped to [-1, 1]: the normalised
    weights of a saturated grid can sum a few ulps past 1."""
    if state._remnant_cache is not None:
        return state._remnant_cache
    m = state.model
    up = state.relay_up
    if state.last_v > 0.0:
        up_eff = up & ~(m.beta >= 0.0)
    elif state.last_v < 0.0:
        up_eff = up | (m.alpha <= 0.0)
    else:
        up_eff = up
    up_weight = m.weights[up_eff].sum()
    state._remnant_cache = np.clip(2.0 * up_weight - 1.0, -1.0, 1.0)
    return state._remnant_cache
