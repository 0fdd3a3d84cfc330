"""Heater-cryotron access switch.

Gate-current-controlled channel that is either superconducting (0 ohm)
or resistive (r_off, 50 kOhm default).  Phenomenological: each drive
application recomputes the state from the thresholds; no retrapping
hysteresis.  Thresholds are strict -- a drive exactly at threshold keeps
the channel superconducting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError

SUPERCONDUCTING = "superconducting"
RESISTIVE = "resistive"


@dataclass
class HtronDevice:
    i_g_crit: float = 20e-6  # A, gate critical current
    i_ch_crit: float = 60e-6  # A, channel critical current at zero gate drive
    r_off: float = 50e3  # ohm, resistive channel
    t_switch: float = 0.3e-9  # s, superconducting -> resistive latency
    state: str = SUPERCONDUCTING
    switch_count: int = field(default=0, repr=False)  # S->R transitions seen

    def __post_init__(self):
        if self.r_off <= 0.0:
            raise DomainError(f"r_off must be > 0, got {self.r_off}")
        if self.t_switch <= 0.0:
            raise DomainError(f"t_switch must be > 0, got {self.t_switch}")


def drive_state(dev: HtronDevice, i_g: float, i_b: float) -> str:
    """Channel state under gate current ``i_g`` and channel bias ``i_b``,
    without touching ``dev``: resistive iff i_g > i_g_crit or
    i_b > i_ch_crit (strict)."""
    if i_g < 0.0 or i_b < 0.0:
        raise DomainError("gate and channel currents must be >= 0")
    return (
        RESISTIVE if (i_g > dev.i_g_crit or i_b > dev.i_ch_crit) else SUPERCONDUCTING
    )


def apply_drive(dev: HtronDevice, i_g: float, i_b: float) -> str:
    """Apply gate current ``i_g`` and channel bias ``i_b``; returns the
    resulting channel state (see ``drive_state``).

    Each superconducting-to-resistive transition is counted; it costs
    ``t_switch`` on the search path.
    """
    new_state = drive_state(dev, i_g, i_b)
    if dev.state == SUPERCONDUCTING and new_state == RESISTIVE:
        dev.switch_count += 1
    dev.state = new_state
    return dev.state


def channel_resistance(dev: HtronDevice) -> float:
    """0 ohm when superconducting, r_off when resistive."""
    return 0.0 if dev.state == SUPERCONDUCTING else dev.r_off
