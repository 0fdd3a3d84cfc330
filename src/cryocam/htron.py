"""Heater-cryotron access switch.

During a search the hTron's only job is its gate threshold: a gate
current above ``i_g_crit`` makes the channel resistive, any other keeps
it superconducting.  Phenomenological: no retrapping hysteresis, and the
threshold is strict -- a drive exactly at threshold keeps the channel
superconducting.  The resistive branch value and the switching time are
the row record's ``r_gate`` and ``t_search`` (``tcam.BiasConfig``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

SUPERCONDUCTING = "superconducting"
RESISTIVE = "resistive"


@dataclass(frozen=True)
class HtronDevice:
    i_g_crit: float = 20e-6  # A, gate critical current

    def __post_init__(self):
        if self.i_g_crit <= 0.0:
            raise DomainError(f"i_g_crit must be > 0, got {self.i_g_crit}")


def drive_state(dev: HtronDevice, i_g: float) -> str:
    """Channel state under gate current ``i_g``: resistive iff
    i_g > i_g_crit (strict)."""
    if i_g < 0.0:
        raise DomainError(f"gate current must be >= 0, got {i_g}")
    return RESISTIVE if i_g > dev.i_g_crit else SUPERCONDUCTING
