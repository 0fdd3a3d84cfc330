"""Run configuration: flat key-value config files, defaults, validation.

Config files are plain text, one ``key = value`` per line, ``#`` for
comments.  Keys carry their unit (``i_rwl_hd_uA``, ``v_write_V``);
values are converted to SI at this boundary and stay SI everywhere
inside the simulator.  Parsing validates the whole file and reports
every violation, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .device_physics import SuperconductorParams
from .errors import ConfigError
from .fesquid import RcsjParams, critical_window
from .ferroelectric import PreisachModel
from .htron import HtronDevice
from .tcam import (
    BiasConfig,
    TcamArray,
    exact_bias_problem,
    gate_problem,
    hd_bias_problem,
    write_inequality_problem,
)

# key -> (default in config units, description)
DEFAULTS = {
    # superconductor & FeSQUID
    "t_c_base_K": (9.2, "critical temperature at neutral polarization"),
    "delta_tc_K": (2.4, "full span of the polarization-induced T_C shift"),
    "r_n_ohm": (650.0, "SQUID normal-state resistance"),
    "t_op_K": (4.0, "operating temperature"),
    "r_low_state_ohm": (1800.0, "resistive branch, low-I_C stored state"),
    "r_high_state_ohm": (900.0, "resistive branch, high-I_C stored state"),
    # ferroelectric (Preisach)
    "fe_grid_n": (64, "hysteron grid resolution per axis"),
    "fe_p_s_uC_cm2": (30.0, "saturation polarization"),
    "fe_v_c_V": (1.2, "coercive voltage"),
    "fe_sigma_v_V": (0.15, "switching-threshold spread"),
    # hTron
    "ht_i_g_crit_uA": (20.0, "gate critical current"),
    "ht_r_off_kohm": (50.0, "resistive channel resistance"),
    # TCAM bias
    "i_rwl_exact_uA": (3.2, "per-cell RWL current, exact mode"),
    "i_rwl_hd_uA": (5.0, "per-cell RWL current, HD mode"),
    "i_rbl_on_uA": (40.0, "asserted RBL gate current"),
    "v_write_V": (2.0, "write voltage"),
    "t_search_ns": (0.3, "search duration = hTron switching time"),
    "r_fs_exact_ohm": (900.0, "conducting FeSQUID resistance, exact-mode match"),
    # RCSJ solver
    "rcsj_beta_c": (0.1, "Stewart-McCumber damping parameter"),
    "rcsj_n_steps": (1000, "integration steps per Josephson period"),
    "rcsj_settle_periods": (50, "periods discarded before averaging"),
    "rcsj_average_periods": (200, "periods averaged (two windows)"),
    # HDC workload
    "hdc_d_bits": (10000, "hypervector dimension"),
    "hdc_n_gram": (3, "n-gram length"),
    "hdc_block_size": (100, "bits per TCAM row segment"),
    "seed": (1234, "root seed for all randomness"),
}

_INT_KEYS = {
    "fe_grid_n",
    "rcsj_n_steps",
    "rcsj_settle_periods",
    "rcsj_average_periods",
    "hdc_d_bits",
    "hdc_n_gram",
    "hdc_block_size",
    "seed",
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

    def htron(self) -> HtronDevice:
        """The array's hTron record: its gate threshold.  Its resistive
        channel and switching time are the row record's r_gate and
        t_search."""
        return HtronDevice(i_g_crit=_si(self.values["ht_i_g_crit_uA"], -6))

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
            htron=self.htron(),
        )

    def critical_window(self) -> tuple[float, float]:
        """(I_C,low, I_C,high) in A at saturation remnants."""
        return critical_window(self.superconductor(), self.values["t_op_K"])


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    return float(raw)


def validate_values(values: dict) -> list[str]:
    """All constraint violations for a fully populated value dict."""
    v = values
    problems = []

    def positive(key):
        if v[key] <= 0:
            problems.append(f"{key} must be > 0, got {v[key]}")
            return False
        return True

    for key in (
        "t_c_base_K",
        "r_n_ohm",
        "t_op_K",
        "r_low_state_ohm",
        "r_high_state_ohm",
        "fe_p_s_uC_cm2",
        "fe_v_c_V",
        "fe_sigma_v_V",
        "ht_i_g_crit_uA",
        "ht_r_off_kohm",
        "i_rwl_exact_uA",
        "i_rwl_hd_uA",
        "i_rbl_on_uA",
        "v_write_V",
        "t_search_ns",
        "r_fs_exact_ohm",
        "hdc_n_gram",
    ):
        positive(key)
    if v["delta_tc_K"] < 0:
        problems.append(f"delta_tc_K must be >= 0, got {v['delta_tc_K']}")
    if v["rcsj_beta_c"] < 0:
        problems.append(f"rcsj_beta_c must be >= 0, got {v['rcsj_beta_c']}")
    if v["fe_grid_n"] < 16:
        problems.append(f"fe_grid_n must be >= 16, got {v['fe_grid_n']}")
    if v["rcsj_n_steps"] < 1000:
        problems.append(f"rcsj_n_steps must be >= 1000, got {v['rcsj_n_steps']}")
    if v["rcsj_settle_periods"] < 1:
        problems.append(
            f"rcsj_settle_periods must be >= 1, got {v['rcsj_settle_periods']}"
        )
    if v["rcsj_average_periods"] < 2:
        problems.append(
            f"rcsj_average_periods must be >= 2, got {v['rcsj_average_periods']}"
        )
    if v["hdc_d_bits"] < 8:
        problems.append(f"hdc_d_bits must be >= 8, got {v['hdc_d_bits']}")
    if v["hdc_block_size"] < 1:
        problems.append(f"hdc_block_size must be >= 1, got {v['hdc_block_size']}")
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
    cfg = RunConfig(values=dict(values))
    bias = cfg.bias()
    checks = [
        write_inequality_problem(v["v_write_V"], v["fe_v_c_V"]),
        gate_problem(bias.i_rbl_on, cfg.htron().i_g_crit),
    ]
    if superconducting:
        window = cfg.critical_window()
        checks += [
            exact_bias_problem(bias.i_rwl_exact, window),
            hd_bias_problem(bias.i_rwl_hd, window),
        ]
    problems.extend(problem for problem in checks if problem)
    return problems


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
    values = {k: d for k, (d, _) in DEFAULTS.items()}
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
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
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
