"""Run configuration: flat key-value config files, defaults, validation.

Config files are plain text, one ``key = value`` per line, ``#`` for
comments.  Keys carry their unit (``i_rwl_hd_uA``, ``v_write_V``);
values are converted to SI at this boundary and stay SI everywhere
inside the simulator.  ``DEFAULTS`` declares each key's default (whose
type is the key's type), valid range and meaning.  Parsing validates
the whole file and reports every violation, not just the first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal

from .device_physics import SuperconductorParams
from .errors import ConfigError
from .fesquid import RcsjParams, critical_window
from .ferroelectric import PreisachModel
from .tcam import BiasConfig, TcamArray, operating_problems

# key -> (default in config units, op, bound, description).  A key has
# its default's type; a valid value is one ``range_problem`` passes.
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
        200, ">=", 2,
        "step budget, no output: a point steps at most 4.5x this many "
        "periods after settling, and one that spends it fails the run (exit 4)",
    ),
    # HDC workload
    "hdc_d_bits": (10000, ">=", 8, "hypervector dimension"),
    "hdc_n_gram": (3, ">", 0, "n-gram length"),
    "hdc_block_size": (100, ">=", 1, "bits per TCAM row segment"),
    "seed": (1234, ">=", 0, "root seed for all randomness"),
}


# unit suffix -> power of ten that takes a value in that unit to SI
_SI_EXPONENTS = {"_uA": -6, "_ns": -9, "_kohm": 3, "_uC_cm2": -2}


def _si(values: dict, key: str) -> float:
    """The value of ``key`` in SI units, rounded once from its decimal
    form, so 5 uA becomes exactly 5e-6 (the library defaults)."""
    exponent = next((e for u, e in _SI_EXPONENTS.items() if key.endswith(u)), 0)
    return float(Decimal(repr(values[key])).scaleb(exponent))


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
            p_s=_si(v, "fe_p_s_uC_cm2"),
            v_c=v["fe_v_c_V"],
            sigma_v=v["fe_sigma_v_V"],
        )

    def bias(self) -> BiasConfig:
        """The row record every search, closed form and calibration reads."""
        v = self.values
        return BiasConfig(
            i_rwl_exact=_si(v, "i_rwl_exact_uA"),
            i_rwl_hd=_si(v, "i_rwl_hd_uA"),
            i_rbl_on=_si(v, "i_rbl_on_uA"),
            v_write=v["v_write_V"],
            t_search=_si(v, "t_search_ns"),
            r_fs_exact=v["r_fs_exact_ohm"],
            r_gate=_si(v, "ht_r_off_kohm"),
            r_match=v["r_low_state_ohm"],
            r_mismatch=v["r_high_state_ohm"],
            i_g_crit=_si(v, "ht_i_g_crit_uA"),
        )

    def rcsj(self) -> RcsjParams:
        v = self.values
        return RcsjParams(
            beta_c=v["rcsj_beta_c"],
            n_steps=v["rcsj_n_steps"],
            settle_periods=v["rcsj_settle_periods"],
            average_periods=v["rcsj_average_periods"],
        )

    @functools.cached_property
    def _template(self) -> TcamArray:
        """The 1 x 1 array whose construction walks the state table and
        binds the row record; made on first use and kept on this config."""
        return TcamArray(
            1,
            1,
            fe_model=self.fe_model(),
            sc=self.superconductor(),
            t_op=self.values["t_op_K"],
            bias=self.bias(),
        )

    def make_array(self, rows: int, cols: int) -> TcamArray:
        """A fresh array; every array of one config shares its state table,
        so the Preisach walk runs once per config, at validation."""
        return self._template.blank(rows, cols)

    def critical_window(self) -> tuple[float, float]:
        """(I_C,low, I_C,high) in A at saturation remnants."""
        return critical_window(self.superconductor(), self.values["t_op_K"])


def range_problem(name: str, x, op: str, bound) -> str | None:
    """Why ``x`` breaks ``name``'s declared range, or None: a float must be
    finite and ``x op bound`` hold, ``op`` one of ">", ">=", "in" [lo, hi]."""
    if isinstance(x, float) and not math.isfinite(x):
        return f"{name} must be finite, got {x}"
    lo, hi = bound if op == "in" else (bound, math.inf)
    if (x > lo if op == ">" else x >= lo) and x <= hi:
        return None
    return f"{name} must be {op} {bound}, got {x}"


def _violations(cfg: RunConfig) -> list[str]:
    """All constraint violations of a fully populated config; once every
    key is in range, the config's array template is built here."""
    v = cfg.values
    problems = []
    for key, (_, op, bound, _) in DEFAULTS.items():
        x = v[key]
        if problem := range_problem(key, x, op, bound):
            problems.append(problem)
        elif key.endswith(tuple(_SI_EXPONENTS)) and not (
            0.0 < (si := _si(v, key)) < math.inf
        ):  # the value overflowed or underflowed on its way to SI units
            problems.append(f"{key} must be finite and > 0 in SI, got {x} -> {si}")
    if problems:
        return problems

    t_c_low = v["t_c_base_K"] - v["delta_tc_K"]
    if not v["t_op_K"] < t_c_low:  # a normal device: no window, no Preisach walk
        return [
            f"operating temperature {v['t_op_K']} K must stay below the "
            f"lowest polarization-shifted T_C = {t_c_low} K",
            *operating_problems(cfg.bias(), v["fe_v_c_V"], None),
        ]
    try:  # binding the row record checks every rule over the state table
        cfg.make_array(1, 1)
    except ConfigError as exc:
        return exc.violations
    return []


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
        values[key] = type(DEFAULTS[key][0])(str(raw))
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
    cfg = RunConfig(values=values)
    if not problems:
        problems = _violations(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg
