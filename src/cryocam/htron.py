"""Heater-cryotron access switch.

During a search the hTron's only job is its gate threshold: a gate
current above ``i_g_crit`` makes the channel resistive, any other keeps
it superconducting.  Phenomenological: no retrapping hysteresis, and the
threshold is strict: a drive at threshold keeps it superconducting.
Every search checks the rule, ``tcam.gate_problem``, so an asserted gate
switches its hTron and an idle one never does.  The resistive branch and
the switching time are ``tcam.BiasConfig``'s ``r_gate`` and ``t_search``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class HtronDevice:
    i_g_crit: float = 20e-6  # A, gate critical current

    def __post_init__(self):
        if self.i_g_crit <= 0.0:
            raise DomainError(f"i_g_crit must be > 0, got {self.i_g_crit}")
