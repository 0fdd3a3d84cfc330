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
from dataclasses import dataclass, replace

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
from .htron import RESISTIVE, HtronDevice, drive_state

TRITS = ("0", "1", "d")


@dataclass(frozen=True)
class BiasConfig:
    """The row record: bias currents, write voltage, search time and
    match-line branch resistances (SI).  Searches, closed forms,
    calibration and HDC plans all read it; ``RunConfig.bias()`` builds it."""

    i_rwl_exact: float = 3.2e-6  # A per cell, exact mode (calibrated default)
    i_rwl_hd: float = 5e-6  # A per cell, HD mode
    i_rbl_on: float = 40e-6  # A, asserted search gate current
    v_write: float = 2.0  # V
    t_search: float = 0.3e-9  # s, one hTron switching time
    r_fs_exact: float = 900.0  # ohm, conducting FeSQUID in an exact-mode match
    r_gate: float = 50e3  # ohm, gate-driven branch (resistive hTron channel)
    r_match: float = 1.8e3  # ohm, HD-mode matched bit (low-I_C state)
    r_mismatch: float = 0.9e3  # ohm, HD-mode mismatched bit (high-I_C state)


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
    one small integer, ``ids[row, col, branch]``, that indexes a per-array
    table of the distinct Preisach states the devices can reach.  By
    wipe-out, V/2 pulse trains reach only a handful of them, so the table
    stays short and a pulse is a gather through a memoised
    ``(state id, voltage) -> state id`` map.  Fresh devices sit at negative
    saturation settled at 0 V.

    Searches read the row record ``bias`` and the one ``htron`` record all
    access switches share, whose r_off and t_switch must equal
    ``bias.r_gate`` and ``bias.t_search``.  Searches are pure, so they may
    run concurrently; a write needs exclusive access to the whole array
    (the V/2 scheme touches an entire row and column, and may extend the
    state table).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        fe_model: PreisachModel | None = None,
        sc: SuperconductorParams | None = None,
        t_op: float = 4.0,
        bias: BiasConfig | None = None,
        htron: HtronDevice | None = None,
    ):
        if rows < 1 or cols < 1:
            raise DomainError("array must have at least one row and column")
        self.rows = rows
        self.cols = cols
        self.fe_model = fe_model or PreisachModel()
        self.sc = sc or SuperconductorParams()
        self.t_op = t_op
        self.bias = bias = bias or BiasConfig()
        self.htron = htron or HtronDevice(r_off=bias.r_gate, t_switch=bias.t_search)
        if (self.htron.r_off, self.htron.t_switch) != (bias.r_gate, bias.t_search):
            raise ConfigError(
                "the hTron's r_off and t_switch must equal the row's r_gate "
                "and t_search"
            )
        if t_op <= 0.0:
            raise DomainError(f"t_op must be > 0 K, got {t_op}")
        if bias.r_match <= 0.0 or bias.r_mismatch <= 0.0:
            raise DomainError("state resistances must be > 0")

        self._states: list[PreisachState] = []  # representative of each id
        self._remnants: list[float] = []  # remnant_fraction of each id
        self._ids_by_key: dict[tuple[bytes, float], int] = {}
        # voltage -> the id a (v, 0 V) pulse leads to from each id
        self._next: dict[float, list[int]] = {}
        fresh = self.fe_model.initial_state()
        drive_voltage(fresh, 0.0)
        self.ids = np.full((rows, cols, 2), self._intern(fresh), dtype=np.int32)

    def _intern(self, fe: PreisachState) -> int:
        """Id of the state equal to ``fe``; ``fe`` becomes the
        representative of a new id if no state equals it."""
        key = (fe.relay_up.tobytes(), fe.last_v)
        sid = self._ids_by_key.get(key)
        if sid is None:
            sid = self._ids_by_key[key] = len(self._states)
            self._states.append(fe)
            self._remnants.append(remnant_fraction(fe))
        return sid

    def _pulse_maps(self) -> dict[float, np.ndarray]:
        """The (v, 0 V) pulse map of each write voltage +/-V_WRITE and
        +/-V_WRITE/2, as id arrays.  New transitions are run once on a
        clone of the representative, until every map is total on the
        state table."""
        v_w = self.bias.v_write
        volts = (v_w, -v_w, 0.5 * v_w, -0.5 * v_w)
        known = 0
        while known < len(self._states):
            known = len(self._states)
            for v in volts:
                nxt = self._next.setdefault(v, [])
                while len(nxt) < known:
                    fe = self._states[len(nxt)].clone()
                    drive_voltage(fe, v)
                    drive_voltage(fe, 0.0)
                    nxt.append(self._intern(fe))
        return {v: np.array(self._next[v], dtype=np.int32) for v in volts}

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
        ones = np.array(self._remnants)[self.ids[row, :, 0]] < 0.0
        return (ones.astype(np.uint8) + ord("0")).tobytes().decode()

    def remnant_signs(self):
        """(rows x cols x 2) tuple snapshot of remnant signs, for tests."""
        signs = np.copysign(1.0, self._remnants)[self.ids]
        return tuple(tuple(map(tuple, row)) for row in signs.tolist())


def _check_address(array: TcamArray, row: int, col: int):
    if not (0 <= row < array.rows and 0 <= col < array.cols):
        raise UsageError(
            f"cell ({row}, {col}) is outside the {array.rows}x{array.cols} array"
        )


def _check_write_inequality(array: TcamArray):
    v_w, v_c = array.bias.v_write, array.fe_model.v_c
    if not (0.5 * v_w < v_c < v_w):
        raise ConfigError(
            f"write inequality violated: need V_WRITE/2 < V_C < V_WRITE, "
            f"got V_WRITE={v_w} V, V_C={v_c} V"
        )


def write_bit(array: TcamArray, row: int, col: int, value: int) -> TcamArray:
    """V/2 write of one bit.

    The selected cell's ferroelectrics see the full +/-V_WRITE (fs1
    negative for a 1, fs2 the opposite) and half-selected cells in the
    same row or column see half that, each pulse returning to 0 V.  Every
    other cell sees 0 V, which leaves its 0 V-settled devices as they are,
    so only the selected row and column are updated: a write costs
    O(R + C).
    """
    if value not in (0, 1):
        raise UsageError(f"bit value must be 0 or 1, got {value!r}")
    _check_address(array, row, col)
    _check_write_inequality(array)
    maps = array._pulse_maps()
    v_w = array.bias.v_write
    v1 = -v_w if value == 1 else v_w
    ids = array.ids
    for cells, v in (
        (ids[row, :col], 0.5 * v1),
        (ids[row, col + 1 :], 0.5 * v1),
        (ids[:row, col], 0.5 * v1),
        (ids[row + 1 :, col], 0.5 * v1),
        (ids[row, col : col + 1], v1),
    ):
        cells[:, 0] = maps[v][cells[:, 0]]
        cells[:, 1] = maps[-v][cells[:, 1]]
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


def _search(array: TcamArray, key: SearchKey, hd: bool) -> list[MatchLineResult]:
    """Both modes' resistive row solve, a pure function of the stored
    states and the key.

    The key alone sets each gate through the hTron threshold; a driven
    branch is an r_gate resistor.  A branch whose gate stays off conducts
    through its FeSQUID: in exact mode at r_fs_exact above I_C (below it
    the ML is shorted), in HD mode at r_match or r_mismatch by stored
    state.  Each verdict is taken once per distinct device state, then
    gathered per device.  Conductances add branch by branch in column
    order (a sequential accumulate, not a pairwise sum); this sum is the
    reference the HD closed form is tested against.
    """
    if len(key) != array.cols:
        raise UsageError(f"key length {len(key)} != array width {array.cols}")
    if hd and key.has_dont_care:
        raise UnsupportedModeError(
            "HD mode does not support don't-care trits; use exact mode"
        )
    bias = array.bias
    window = critical_window(array.sc, array.t_op)
    i_rwl = bias.i_rwl_hd if hd else bias.i_rwl_exact
    problem = (hd_bias_problem if hd else exact_bias_problem)(i_rwl, window)
    if problem:
        raise ConfigError(problem)

    def gated(trit: str, drives: str) -> bool:
        i_g = bias.i_rbl_on if trit in drives else 0.0
        return drive_state(array.htron, i_g, 0.0) == RESISTIVE

    trits = np.frombuffer(key.trits.encode(), dtype=np.uint8)
    gates = np.empty((array.cols, 2), dtype=bool)
    for t in TRITS:
        # search 1 drives ht1, search 0 drives ht2, d drives both
        gates[trits == ord(t)] = (gated(t, "1d"), gated(t, "0d"))

    remnants = np.array(array._remnants)
    if hd:
        shorts = np.zeros(remnants.size, dtype=bool)
        g_state = np.where(remnants >= 0.0, 1.0 / bias.r_match, 1.0 / bias.r_mismatch)
    else:
        i_c = [critical_current_at(p, array.sc, array.t_op) for p in remnants]
        shorts = ~(i_rwl > np.array(i_c))
        g_state = np.where(shorts, 0.0, 1.0 / bias.r_fs_exact)
    ids = array.ids
    g = np.where(gates, 1.0 / bias.r_gate, g_state[ids])
    g_rows = np.add.accumulate(g.reshape(array.rows, -1), axis=1)[:, -1]
    shorted = (shorts[ids] & ~gates).any(axis=(1, 2))

    stored = remnants[ids[:, :, 0]] < 0.0
    matched = (stored == (trits == ord("1"))) & (trits != ord("d"))
    n_matches = matched.sum(axis=1)

    total_i = array.cols * i_rwl
    results = []
    for g_row, short, n_match in zip(
        g_rows.tolist(), shorted.tolist(), n_matches.tolist()
    ):
        v_ml = 0.0 if short else total_i / g_row
        power = total_i * v_ml
        results.append(MatchLineResult(v_ml, n_match, power, power * bias.t_search))
    return results


def search_exact(array: TcamArray, key: SearchKey) -> list[MatchLineResult]:
    """Exact-search all rows; v_ml is 0 exactly iff any non-d trit
    mismatches the stored bit (a superconducting branch shorts the ML)."""
    return _search(array, key, hd=False)


def search_hd(array: TcamArray, key: SearchKey) -> list[MatchLineResult]:
    """Hamming-distance search: every cell is resistive and the analog ML
    voltage encodes the matched-bit count (strictly increasing in it)."""
    return _search(array, key, hd=True)


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
    g = (
        n_bits / bias.r_gate
        + n_match / bias.r_match
        + (n_bits - n_match) / bias.r_mismatch
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
    m = (g - n_bits / bias.r_gate - n_bits / bias.r_mismatch) / (
        1.0 / bias.r_match - 1.0 / bias.r_mismatch
    )
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
    array.bias = calibrated_bias(
        array.bias, critical_window(array.sc, array.t_op), binary_avg, ternary_avg
    )
    return array.bias.i_rwl_exact, array.bias.r_fs_exact
