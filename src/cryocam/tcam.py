"""TCAM cells, arrays, search semantics, and energy accounting.

One bit is stored in two FeSQUID+hTron branches in parallel; word rows
share a match line (ML).  Search is a quasi-static resistive solve of
the row network: the only temporal quantity is the hTron switching time
``t_search``.

Encoding convention (fixed; reproduces the match/mismatch truth table):

* stored 1 -> fs1 at negative remnant (high I_C), fs2 at positive;
  stored 0 is the mirror image;
* search 1 -> ht1 gate driven (resistive), ht2 gate off; search 0 the
  mirror; search d drives both gates.

Hence the branch that conducts (gate off) holds the positive-remnant,
low-I_C device exactly when the bit matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .device_physics import SuperconductorParams
from .errors import ConfigError, DomainError, UnsupportedModeError, UsageError
from .fesquid import critical_current_at, critical_window
from .ferroelectric import (
    PreisachModel,
    PreisachState,
    drive_voltage,
    remnant_fraction,
)

TRITS = ("0", "1", "d")
#: The trit that leaves fs1's branch open (0) and fs2's (1), by branch.
_OPENING_TRITS = np.frombuffer(b"01", dtype=np.uint8)


@dataclass(frozen=True)
class BiasConfig:
    """The row record: bias currents, write voltage, search time,
    match-line branch resistances and the hTron gate threshold (SI).
    Searches, closed forms, calibration and HDC plans all read it;
    ``RunConfig.bias()`` builds it.  Every field must be finite and > 0."""

    i_rwl_exact: float = 3.2e-6  # A per cell, exact mode (calibrated default)
    i_rwl_hd: float = 5e-6  # A per cell, HD mode
    i_rbl_on: float = 40e-6  # A, asserted search gate current
    v_write: float = 2.0  # V
    t_search: float = 0.3e-9  # s, one hTron switching time
    r_fs_exact: float = 900.0  # ohm, conducting FeSQUID in an exact-mode match
    r_gate: float = 50e3  # ohm, gate-driven branch (resistive hTron channel)
    r_match: float = 1.8e3  # ohm, HD-mode matched bit (low-I_C state)
    r_mismatch: float = 0.9e3  # ohm, HD-mode mismatched bit (high-I_C state)
    i_g_crit: float = 20e-6  # A, hTron gate threshold

    def __post_init__(self):
        for field in fields(self):
            x = getattr(self, field.name)
            if not (math.isfinite(x) and x > 0.0):
                raise DomainError(f"{field.name} must be finite and > 0, got {x}")


@dataclass(frozen=True)
class SearchKey:
    """Search word over {0, 1, d}; must match the array width."""

    trits: str

    def __post_init__(self):
        bad = set(self.trits) - set(TRITS)
        if bad:
            raise UsageError(f"key may only contain 0/1/d, got {sorted(bad)}")

    def __len__(self):
        return len(self.trits)

    @property
    def has_dont_care(self) -> bool:
        return "d" in self.trits


@dataclass(frozen=True)
class MatchLineResult:
    v_ml: float  # V
    n_match: int  # matched-bit count (non-d positions)
    power: float  # W, total RWL current times v_ml
    energy: float  # J, power times t_search


class TcamArray:
    """rows x cols grid of TCAM cells sharing one ML per row.

    Each cell holds two ferroelectrics, fs1 and fs2.  A device's state is
    one small integer, ``ids[row, col, branch]``, that indexes the array's
    state table (``_state_table``): every Preisach state the V/2 write
    voltages can reach, with remnants and pulse maps.  By wipe-out it is
    short (6 states at the defaults) and complete once the array is
    built, so writes and searches only read it.  The write voltage, the
    superconductor, ``t_op`` and with them each state's critical current
    (``_i_c``) and the I_C window are fixed then.  Fresh devices (id 0)
    sit at negative saturation settled at 0 V.

    Searches read the row record ``bias``, which holds every branch
    resistance, the bias currents, the search time and the gate threshold
    all hTron access switches share.
    Searches are pure, so they may run concurrently; a write needs
    exclusive access to the whole array (the V/2 scheme touches an entire
    row and column).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        fe_model: PreisachModel | None = None,
        sc: SuperconductorParams | None = None,
        t_op: float = 4.0,
        bias: BiasConfig | None = None,
    ):
        if rows < 1 or cols < 1:
            raise DomainError("array must have at least one row and column")
        self.rows = rows
        self.cols = cols
        self.fe_model = fe_model or PreisachModel()
        self.sc = sc or SuperconductorParams()
        self.t_op = t_op
        self.bias = bias = bias or BiasConfig()
        if t_op <= 0.0:
            raise DomainError(f"t_op must be > 0 K, got {t_op}")

        self._v_write = bias.v_write  # the voltage the state table holds
        self._states, self._remnants, self._pulse = _state_table(
            self.fe_model, bias.v_write
        )
        self._window = critical_window(self.sc, t_op)
        self._i_c = np.array(
            [critical_current_at(p, self.sc, t_op) for p in self._remnants]
        )
        self.ids = np.zeros((rows, cols, 2), dtype=np.int32)

    def fe_state(self, row: int, col: int, branch: int) -> PreisachState:
        """A clone of the Preisach state of ferroelectric fs1 (``branch``
        1) or fs2 (2) of cell (row, col)."""
        _check_address(self, row, col)
        if branch not in (1, 2):
            raise UsageError(f"branch must be 1 or 2, got {branch!r}")
        return self._states[self.ids[row, col, branch - 1]].clone()

    def read_bit(self, row: int, col: int) -> int:
        """Stored bit from the device states (fs1 negative remnant = 1)."""
        return 1 if self._remnants[self.ids[row, col, 0]] < 0.0 else 0

    def read_word(self, row: int) -> str:
        ones = self._remnants[self.ids[row, :, 0]] < 0.0
        return (ones.astype(np.uint8) + ord("0")).tobytes().decode()

    def remnant_signs(self):
        """(rows x cols x 2) tuple snapshot of remnant signs, for tests."""
        signs = np.copysign(1.0, self._remnants)[self.ids]
        return tuple(tuple(map(tuple, row)) for row in signs.tolist())


def _state_table(
    fe_model: PreisachModel, v_write: float
) -> tuple[list[PreisachState], np.ndarray, dict[float, np.ndarray]]:
    """Every state a fresh device reaches under (v, 0 V) pulses at
    +/-V_WRITE and +/-V_WRITE/2: (representative states, their remnant
    fractions, voltage -> int32 map from state id to state id).

    A breadth-first walk from the fresh state, id 0, that runs each
    transition once on a clone of its source state; a state with the
    relays and last input of a known one takes that one's id.
    """
    fresh = fe_model.initial_state()
    drive_voltage(fresh, 0.0)
    states = [fresh]
    ids_by_key = {(fresh.relay_up.tobytes(), fresh.last_v): 0}
    maps = {v: [] for v in (v_write, -v_write, 0.5 * v_write, -0.5 * v_write)}
    for source in states:  # states found below join the walk
        for v, pulse_map in maps.items():
            fe = source.clone()
            drive_voltage(fe, v)
            drive_voltage(fe, 0.0)
            key = (fe.relay_up.tobytes(), fe.last_v)
            sid = ids_by_key.setdefault(key, len(states))
            if sid == len(states):
                states.append(fe)
            pulse_map.append(sid)
    remnants = np.array([remnant_fraction(fe) for fe in states])
    return states, remnants, {v: np.array(m, dtype=np.int32) for v, m in maps.items()}


def _check_address(array: TcamArray, row: int, col: int):
    if not (0 <= row < array.rows and 0 <= col < array.cols):
        raise UsageError(
            f"cell ({row}, {col}) is outside the {array.rows}x{array.cols} array"
        )


def write_bit(array: TcamArray, row: int, col: int, value: int) -> TcamArray:
    """V/2 write of one bit.

    The selected cell's ferroelectrics see the full +/-V_WRITE (fs1
    negative for a 1, fs2 the opposite) and half-selected cells in the
    same row or column see half that, each pulse returning to 0 V.  Every
    other cell sees 0 V, which leaves its 0 V-settled devices as they are,
    so only the selected row and column are updated, each device by a
    gather through the state table's pulse maps at the V_WRITE it was
    built for: a write costs O(R + C) and runs no relay model.
    """
    if value not in (0, 1):
        raise UsageError(f"bit value must be 0 or 1, got {value!r}")
    _check_address(array, row, col)
    v_w = array.bias.v_write
    problem = write_inequality_problem(v_w, array.fe_model.v_c)
    if problem:
        raise ConfigError(problem)
    if v_w != array._v_write:
        raise ConfigError(
            f"V_WRITE={v_w} V is not the {array._v_write} V the array's "
            "state table was built for"
        )
    pulse = array._pulse
    v1 = -v_w if value == 1 else v_w
    ids = array.ids
    for cells, v in (
        (ids[row, :col], 0.5 * v1),
        (ids[row, col + 1 :], 0.5 * v1),
        (ids[:row, col], 0.5 * v1),
        (ids[row + 1 :, col], 0.5 * v1),
        (ids[row, col : col + 1], v1),
    ):
        cells[:, 0] = pulse[v][cells[:, 0]]
        cells[:, 1] = pulse[-v][cells[:, 1]]
    return array


def store_word(array: TcamArray, row: int, bits: str) -> TcamArray:
    """Write a whole word into one row, column by column."""
    if len(bits) != array.cols:
        raise UsageError(f"word length {len(bits)} != array width {array.cols}")
    if set(bits) - {"0", "1"}:
        raise UsageError("stored words may only contain 0/1")
    for c, b in enumerate(bits):
        write_bit(array, row, c, int(b))
    return array


def write_inequality_problem(v_write: float, v_c: float) -> str | None:
    """None when V_WRITE/2 < V_C < V_WRITE (a half-select pulse never
    switches, a full one does), else the violation message."""
    if 0.5 * v_write < v_c < v_write:
        return None
    return (
        f"write inequality violated: need V_WRITE/2 < V_C < V_WRITE, "
        f"got V_WRITE={v_write} V, V_C={v_c} V"
    )


def gate_problem(i_rbl_on: float, i_g_crit: float) -> str | None:
    """None when the asserted gate current switches an hTron, else the
    violation message.  The hTron is only a gate-threshold switch: a drive
    strictly above ``i_g_crit`` makes its channel resistive (r_gate), any
    other keeps it superconducting."""
    if i_rbl_on > i_g_crit:
        return None
    return (
        f"asserted RBL current {i_rbl_on:.4g} A must exceed the hTron gate "
        f"threshold {i_g_crit:.4g} A"
    )


def exact_bias_problem(
    i_rwl: float, window: tuple[float, float], calibrated: bool = False
) -> str | None:
    """None when I_C,low < i_rwl < I_C,high, else the violation message
    (worded for a calibration result when ``calibrated``)."""
    ic_low, ic_high = window
    if ic_low < i_rwl < ic_high:
        return None
    if calibrated:
        return (
            f"calibrated I_RWL={i_rwl:.4g} A falls outside the exact-mode "
            f"window ({ic_low:.4g}, {ic_high:.4g}) A"
        )
    return (
        f"exact mode requires I_C,low < I_RWL < I_C,high: "
        f"I_RWL={i_rwl:.4g} A vs ({ic_low:.4g}, {ic_high:.4g}) A"
    )


def hd_bias_problem(i_rwl: float, window: tuple[float, float]) -> str | None:
    """None when i_rwl > I_C,high, else the violation message."""
    ic_high = window[1]
    if i_rwl > ic_high:
        return None
    return (
        f"HD mode requires I_RWL > I_C,high: I_RWL={i_rwl:.4g} A vs "
        f"I_C,high={ic_high:.4g} A"
    )


@dataclass(frozen=True)
class SearchResults:
    """Every row's match line under each of K keys, as (K, rows) arrays."""

    v_ml: np.ndarray  # V
    n_match: np.ndarray  # matched-bit count (non-d positions)
    power: np.ndarray  # W, total RWL current times v_ml
    energy: np.ndarray  # J, power times t_search

    def rows(self, k: int) -> list[MatchLineResult]:
        """The row results of key ``k``."""
        return list(
            map(
                MatchLineResult,
                self.v_ml[k].tolist(),
                self.n_match[k].tolist(),
                self.power[k].tolist(),
                self.energy[k].tolist(),
            )
        )


def _row_conductance(n_bits, n_gated, n_low, r_low, r_high, r_gate):
    """Conductance of a row of ``n_bits`` cells whose 2 * n_bits branches
    are ``n_gated`` gate-driven ones (r_gate) and open ones: ``n_low`` of
    them in the low-I_C state (r_low), the rest in the high-I_C state
    (r_high).  The one row relation that searches, the HD closed form and
    its inverse share; counts may be arrays of integers."""
    return n_gated / r_gate + n_low / r_low + (2 * n_bits - n_gated - n_low) / r_high


def search_keys(array: TcamArray, keys, hd: bool) -> SearchResults:
    """Both modes' resistive row solve for a sequence of SearchKeys at
    once, a pure function of the stored states and the keys.

    The key sets the gates: search 1 drives ht1, 0 drives ht2, d both,
    and the gate rule, checked first, makes every driven hTron switch, so
    a driven branch is an r_gate resistor.  A 0/1 trit leaves one branch
    open, fs1's for a 0 and fs2's for a 1; a d trit leaves none.  So a row
    is fixed by counts over its open branches, each read through the
    state table: in HD mode how many have a remnant >= 0 (r_match; the
    rest conduct at r_mismatch), in exact mode whether any has
    I_C >= I_RWL (it shorts the ML; else all conduct at r_fs_exact).
    Counts are over open branches, not stored bits: a fresh cell reads
    stored 1 with both devices at negative remnant.  ``n_match`` alone
    counts stored bits: the non-d trits equal to the bit fs1 holds.

    One product of the keys' (K, 2C) open-branch matrix with the rows'
    per-branch state flags gives every count; ``_row_conductance`` and
    ``search_energy`` turn them into the (K, rows) record.
    """
    cols = array.cols
    for key in keys:
        if len(key) != cols:
            raise UsageError(f"key length {len(key)} != array width {cols}")
        if hd and key.has_dont_care:
            raise UnsupportedModeError(
                "HD mode does not support don't-care trits; use exact mode"
            )
    bias = array.bias
    i_rwl = bias.i_rwl_hd if hd else bias.i_rwl_exact
    window_problem = hd_bias_problem if hd else exact_bias_problem
    problem = window_problem(i_rwl, array._window) or gate_problem(
        bias.i_rbl_on, bias.i_g_crit
    )
    if problem:
        raise ConfigError(problem)

    n_keys, rows = len(keys), array.rows
    trits = np.frombuffer("".join(k.trits for k in keys).encode(), dtype=np.uint8)
    # (K, C, 2) in the (col, branch) order of ids: 1 where a branch is open
    opens = (trits.reshape(n_keys, cols, 1) == _OPENING_TRITS).astype(np.float64)
    remnants = array._remnants
    # a 0/1 flag per state: HD counts the low-I_C states (remnant >= 0),
    # exact mode the states whose I_C >= I_RWL shorts the ML
    flags = (remnants >= 0.0 if hd else ~(i_rwl > array._i_c)).astype(np.float64)
    stored_one = (remnants < 0.0).astype(np.float64).take(array.ids[:, :, 0])
    # float64 sums of 0/1 products are exact integers below 2**53
    n_flagged = opens.reshape(n_keys, -1) @ (
        flags.take(array.ids).reshape(rows, -1).T
    )
    key_zeros, key_ones = opens[:, :, 0], opens[:, :, 1]
    n_match = key_zeros.sum(axis=1, keepdims=True) + (key_ones - key_zeros) @ (
        stored_one.T
    )

    total_i = cols * i_rwl
    if hd:
        g = _row_conductance(
            cols, cols, n_flagged, bias.r_match, bias.r_mismatch, bias.r_gate
        )
        v_ml = total_i / g
    else:
        # every open branch conducts at r_fs_exact unless the row shorts
        n_open = opens.sum(axis=(1, 2))[:, None]
        g = _row_conductance(
            cols, 2 * cols - n_open, n_open, bias.r_fs_exact, bias.r_fs_exact,
            bias.r_gate,
        )
        v_ml = np.where(n_flagged > 0.0, 0.0, total_i / g)
    return SearchResults(
        v_ml,
        n_match.astype(np.int64),
        total_i * v_ml,
        search_energy(v_ml, cols, i_rwl, bias.t_search),
    )


def search_exact(array: TcamArray, key: SearchKey) -> list[MatchLineResult]:
    """Exact-search all rows; v_ml is 0 exactly iff any non-d trit
    mismatches the stored bit (a superconducting branch shorts the ML)."""
    return search_keys(array, [key], hd=False).rows(0)


def search_hd(array: TcamArray, key: SearchKey) -> list[MatchLineResult]:
    """Hamming-distance search: every cell is resistive and the analog ML
    voltage encodes the matched-bit count (strictly increasing in it)."""
    return search_keys(array, [key], hd=True).rows(0)


def ml_voltage_closed_form(
    n_bits: int,
    n_match: int,
    i_rwl_per_bit: float,
    bias: BiasConfig = BiasConfig(),
) -> float:
    """Closed-form HD-mode match-line voltage for an n-bit row with the
    branch resistances of ``bias``."""
    if n_bits < 1:
        raise DomainError(f"n_bits must be >= 1, got {n_bits}")
    if not 0 <= n_match <= n_bits:
        raise DomainError(f"n_match must be in [0, {n_bits}], got {n_match}")
    g = _row_conductance(
        n_bits, n_bits, n_match, bias.r_match, bias.r_mismatch, bias.r_gate
    )
    return (n_bits * i_rwl_per_bit) / g


def invert_ml_voltage_closed_form(
    v_ml: float,
    n_bits: int,
    i_rwl_per_bit: float,
    bias: BiasConfig = BiasConfig(),
) -> int:
    """Recover the matched-bit count from an HD-mode ML voltage.

    v_ml is strictly monotone in n_match, so the decode rounds the exact
    algebraic inverse to the nearest feasible integer.
    """
    if v_ml <= 0.0:
        raise DomainError(f"v_ml must be > 0, got {v_ml}")
    g = (n_bits * i_rwl_per_bit) / v_ml
    g_none = _row_conductance(
        n_bits, n_bits, 0, bias.r_match, bias.r_mismatch, bias.r_gate
    )
    m = (g - g_none) / (1.0 / bias.r_match - 1.0 / bias.r_mismatch)
    return min(n_bits, max(0, round(m)))


def search_energy(
    result,
    n_bits: int,
    i_rwl_per_bit: float,
    t_search: float = BiasConfig.t_search,
) -> float:
    """Energy (J) of one row search: n_bits * I_RWL * V_ML * t_search.

    ``result`` may be a MatchLineResult or a bare ML voltage.
    """
    v_ml = getattr(result, "v_ml", result)
    return n_bits * i_rwl_per_bit * v_ml * t_search


def invert_energy_targets(
    binary_avg: float, ternary_avg: float, bias: BiasConfig = BiasConfig()
) -> tuple[float, float]:
    """Invert the averaged 1-bit search energies to (I_RWL, r_fs) at the
    gate resistance and search time of ``bias``.

    Binary average over the four (data, search) cases is E_match/2 (two
    matches, two zero-energy mismatches); the ternary average over six
    cases adds the two don't-cares at E_d = I^2 * (r_gate/2) * t.  From
    E_match = I^2 * (r_fs || r_gate) * t the positive pair is unique.
    ``exact_energy_averages`` is the forward map.
    """
    if binary_avg <= 0.0 or ternary_avg <= 0.0:
        raise DomainError("energy targets must be > 0")
    r_gate, t_search = bias.r_gate, bias.t_search
    e_match = 2.0 * binary_avg
    e_dontcare = 3.0 * ternary_avg - e_match
    if e_dontcare <= 0.0:
        raise ConfigError(
            f"no positive solution: ternary target {ternary_avg:.4g} J too "
            f"small against binary target {binary_avg:.4g} J"
        )
    i_rwl = math.sqrt(e_dontcare / ((r_gate / 2.0) * t_search))
    r_parallel = e_match / (i_rwl * i_rwl * t_search)
    if r_parallel >= r_gate:
        raise ConfigError(
            f"no positive solution: implied match resistance {r_parallel:.4g} "
            f"ohm not below the {r_gate:.4g} ohm gate branch"
        )
    r_fs = 1.0 / (1.0 / r_parallel - 1.0 / r_gate)
    return i_rwl, r_fs


def exact_energy_averages(bias: BiasConfig) -> tuple[float, float]:
    """(binary, ternary) average 1-bit exact-mode search energies (J) of
    ``bias``; the forward map ``invert_energy_targets`` inverts."""
    i_rwl, r_fs, r_gate = bias.i_rwl_exact, bias.r_fs_exact, bias.r_gate
    r_par = r_fs * r_gate / (r_fs + r_gate)
    e_match = i_rwl**2 * r_par * bias.t_search
    e_dontcare = i_rwl**2 * (r_gate / 2.0) * bias.t_search
    return e_match / 2.0, (2 * e_match + 2 * e_dontcare) / 6.0


def calibrated_bias(
    bias: BiasConfig,
    window: tuple[float, float],
    binary_avg: float,
    ternary_avg: float,
) -> BiasConfig:
    """``bias`` with its exact-mode I_RWL and r_fs inverted from
    average-energy targets, after checking the bias sits inside the
    critical-current ``window``."""
    i_rwl, r_fs = invert_energy_targets(binary_avg, ternary_avg, bias)
    problem = exact_bias_problem(i_rwl, window, calibrated=True)
    if problem:
        raise ConfigError(problem)
    return replace(bias, i_rwl_exact=i_rwl, r_fs_exact=r_fs)


def calibrate_exact_bias(
    array: TcamArray, binary_avg: float, ternary_avg: float
) -> tuple[float, float]:
    """Set the array's exact-mode bias from average-energy targets.

    Returns (i_rwl_exact, r_fs) and stores them in the array's
    BiasConfig after checking the bias sits inside the critical-current
    window.
    """
    array.bias = calibrated_bias(array.bias, array._window, binary_avg, ternary_avg)
    return array.bias.i_rwl_exact, array.bias.r_fs_exact
