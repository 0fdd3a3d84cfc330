"""Run configuration: flat key-value config files, defaults, validation.

Config files are plain text, one ``key = value`` per line, ``#`` for
comments.  Keys carry their unit (``i_rwl_hd_uA``, ``v_write_V``);
values are converted to SI at this boundary and stay SI everywhere
inside the simulator.  ``DEFAULTS`` declares each key's default (whose
type is the key's type), valid range and meaning.  Parsing validates
the whole file and reports every violation, not just the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .device_physics import SuperconductorParams
from .errors import ConfigError
from .fesquid import RcsjParams, critical_window
from .ferroelectric import PreisachModel
from .tcam import (
    BiasConfig,
    TcamArray,
    exact_bias_problem,
    gate_problem,
    hd_bias_problem,
    write_inequality_problem,
)

# key -> (default in config units, op, bound, description).  A key has
# its default's type; a valid value is finite and ``value op bound``.
DEFAULTS = {
    # superconductor & FeSQUID
    "t_c_base_K": (9.2, ">", 0, "critical temperature at neutral polarization"),
    "delta_tc_K": (2.4, ">=", 0, "full span of the polarization-induced T_C shift"),
    "r_n_ohm": (650.0, ">", 0, "SQUID normal-state resistance"),
    "t_op_K": (4.0, ">", 0, "operating temperature"),
    "r_low_state_ohm": (1800.0, ">", 0, "resistive branch, low-I_C stored state"),
    "r_high_state_ohm": (900.0, ">", 0, "resistive branch, high-I_C stored state"),
    # ferroelectric (Preisach)
    "fe_grid_n": (64, ">=", 16, "hysteron grid resolution per axis"),
    "fe_p_s_uC_cm2": (30.0, ">", 0, "saturation polarization"),
    "fe_v_c_V": (1.2, ">", 0, "coercive voltage"),
    "fe_sigma_v_V": (0.15, ">", 0, "switching-threshold spread"),
    # hTron
    "ht_i_g_crit_uA": (20.0, ">", 0, "gate critical current"),
    "ht_r_off_kohm": (50.0, ">", 0, "resistive channel resistance"),
    # TCAM bias
    "i_rwl_exact_uA": (3.2, ">", 0, "per-cell RWL current, exact mode"),
    "i_rwl_hd_uA": (5.0, ">", 0, "per-cell RWL current, HD mode"),
    "i_rbl_on_uA": (40.0, ">", 0, "asserted RBL gate current"),
    "v_write_V": (2.0, ">", 0, "write voltage"),
    "t_search_ns": (0.3, ">", 0, "search duration = hTron switching time"),
    "r_fs_exact_ohm": (
        900.0, ">", 0, "conducting FeSQUID resistance, exact-mode match"
    ),
    # RCSJ solver
    "rcsj_beta_c": (0.1, ">=", 0, "Stewart-McCumber damping parameter"),
    "rcsj_n_steps": (1000, ">=", 1000, "integration steps per Josephson period"),
    "rcsj_settle_periods": (1, ">=", 1, "periods stepped before cycles are timed"),
    "rcsj_average_periods": (
        200, ">=", 2, "a point steps at most 4.5x this many periods after settling"
    ),
    # HDC workload
    "hdc_d_bits": (10000, ">=", 8, "hypervector dimension"),
    "hdc_n_gram": (3, ">", 0, "n-gram length"),
    "hdc_block_size": (100, ">=", 1, "bits per TCAM row segment"),
    "seed": (1234, ">=", 0, "root seed for all randomness"),
}


def _si(value: float, exponent: int) -> float:
    """``value`` times 10**exponent, rounded once from its decimal form,
    so 5 uA becomes exactly 5e-6 (the library defaults)."""
    return float(Decimal(repr(value)).scaleb(exponent))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration; ``values`` keeps config units for
    the run manifest, the builder methods hand out SI-unit objects."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def superconductor(self) -> SuperconductorParams:
        v = self.values
        return SuperconductorParams(
            t_c_base=v["t_c_base_K"], r_n=v["r_n_ohm"], delta_tc=v["delta_tc_K"]
        )

    def fe_model(self) -> PreisachModel:
        v = self.values
        return PreisachModel(
            grid_n=v["fe_grid_n"],
            p_s=v["fe_p_s_uC_cm2"] * 1e-6 / 1e-4,  # uC/cm^2 -> C/m^2
            v_c=v["fe_v_c_V"],
            sigma_v=v["fe_sigma_v_V"],
        )

    def bias(self) -> BiasConfig:
        """The row record every search, closed form and calibration reads."""
        v = self.values
        return BiasConfig(
            i_rwl_exact=_si(v["i_rwl_exact_uA"], -6),
            i_rwl_hd=_si(v["i_rwl_hd_uA"], -6),
            i_rbl_on=_si(v["i_rbl_on_uA"], -6),
            v_write=v["v_write_V"],
            t_search=_si(v["t_search_ns"], -9),
            r_fs_exact=v["r_fs_exact_ohm"],
            r_gate=_si(v["ht_r_off_kohm"], 3),
            r_match=v["r_low_state_ohm"],
            r_mismatch=v["r_high_state_ohm"],
            i_g_crit=_si(v["ht_i_g_crit_uA"], -6),
        )

    def rcsj(self) -> RcsjParams:
        v = self.values
        return RcsjParams(
            beta_c=v["rcsj_beta_c"],
            n_steps=v["rcsj_n_steps"],
            settle_periods=v["rcsj_settle_periods"],
            average_periods=v["rcsj_average_periods"],
        )

    def make_array(self, rows: int, cols: int) -> TcamArray:
        v = self.values
        return TcamArray(
            rows,
            cols,
            fe_model=self.fe_model(),
            sc=self.superconductor(),
            t_op=v["t_op_K"],
            bias=self.bias(),
        )

    def critical_window(self) -> tuple[float, float]:
        """(I_C,low, I_C,high) in A at saturation remnants."""
        return critical_window(self.superconductor(), self.values["t_op_K"])


def _coerce(key: str, raw: str):
    if isinstance(DEFAULTS[key][0], int):
        return int(raw)
    return float(raw)


def validate_values(values: dict) -> list[str]:
    """All constraint violations for a fully populated value dict."""
    v = values
    problems = []
    for key, (_, op, bound, _) in DEFAULTS.items():
        x = v[key]
        if isinstance(x, float) and not math.isfinite(x):
            problems.append(f"{key} must be finite, got {x}")
        elif not (x > bound if op == ">" else x >= bound):
            problems.append(f"{key} must be {op} {bound}, got {x}")
    if problems:
        return problems

    # Composite physics constraints; each independent so every breach is
    # reported, not just the first.
    superconducting = v["t_op_K"] < v["t_c_base_K"] - v["delta_tc_K"]
    if not superconducting:
        problems.append(
            f"operating temperature {v['t_op_K']} K must stay below the "
            f"lowest polarization-shifted T_C = "
            f"{v['t_c_base_K'] - v['delta_tc_K']} K"
        )
    if v["r_low_state_ohm"] <= v["r_high_state_ohm"]:
        # else the HD match-line voltage would not rise with matched bits
        problems.append(
            f"r_low_state_ohm must exceed r_high_state_ohm, got "
            f"{v['r_low_state_ohm']} <= {v['r_high_state_ohm']}"
        )
    cfg = RunConfig(values=dict(values))
    bias = cfg.bias()
    checks = [
        write_inequality_problem(v["v_write_V"], v["fe_v_c_V"]),
        gate_problem(bias.i_rbl_on, bias.i_g_crit),
    ]
    if superconducting:
        window = cfg.critical_window()
        checks += [
            exact_bias_problem(bias.i_rwl_exact, window),
            hd_bias_problem(bias.i_rwl_hd, window),
        ]
    problems.extend(problem for problem in checks if problem)
    return problems


def split_assignment(text: str) -> tuple[str, str] | None:
    """``key = value`` split at the first ``=`` and stripped, or None."""
    key, sep, raw = text.partition("=")
    return (key.strip(), raw.strip()) if sep else None


def _assign(values: dict, key: str, raw, where: str, problems: list):
    """Set ``values[key]`` from ``raw`` or record why not in ``problems``."""
    if key not in DEFAULTS:
        problems.append(f"{where}unknown key {key!r}")
        return
    try:
        values[key] = _coerce(key, str(raw))
    except ValueError:
        problems.append(f"{where}{key}: cannot parse {raw!r} as a number")


def build_config(overrides: dict | None = None) -> RunConfig:
    """Defaults plus ``overrides`` (config-unit values), validated."""
    return parse_config(None, overrides)


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file (defaults only when ``path`` is
    None); ``overrides`` win over the file.

    Raises ConfigError carrying every violation found: unknown keys,
    malformed lines and numbers (with line numbers), and all constraint
    breaches.
    """
    values = {k: d for k, (d, *_) in DEFAULTS.items()}
    problems = []
    seen = set()
    lines = []
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        pair = split_assignment(stripped)
        if pair is None:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        key, raw = pair
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        _assign(values, key, raw, f"line {lineno}: ", problems)
    for key, raw in (overrides or {}).items():
        _assign(values, key, raw, "override: ", problems)
    if not problems:
        problems = validate_values(values)
    if problems:
        raise ConfigError(problems)
    return RunConfig(values=values)
