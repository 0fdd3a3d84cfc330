"""Cryogenic FeSQUID/hTron TCAM simulator.

Layers, bottom to top:

* ``device_physics`` -- superconductor gap / critical-current closed forms
* ``ferroelectric``  -- Preisach hysteresis (the non-volatile state variable)
* ``fesquid``        -- storage device: polarization-dependent critical current,
  behavioral I-V, and an RCSJ dynamical solver for validation
* ``tcam``           -- cells, arrays, hTron-gated exact/HD search, write
  scheme, energy
* ``hdc``            -- hyperdimensional-computing language recognition backed
  by the HD-mode TCAM model
* ``config`` / ``cli`` -- run configuration, validation, and the command line
"""

__version__ = "0.1.0"
