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

import copy
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .device_physics import SuperconductorParams
from .errors import ConfigError, DomainError, UnsupportedModeError, UsageError
from .fesquid import critical_current_at
from .ferroelectric import (
    PreisachModel,
    PreisachState,
    drive_voltage,
    remnant_fraction,
)

TRITS = ("0", "1", "d")


#: Search weights by (part, key byte, branch): part 0 flags the branch a
#: trit leaves open (fs1 under a 0, fs2 under a 1), part 1 weighs fs1's
#: stored bit, +1 under a 1 and -1 under a 0; a d trit weighs nothing.
_KEY_WEIGHTS = np.zeros((2, 256, 2))
_KEY_WEIGHTS[0, ord("0"), 0] = _KEY_WEIGHTS[0, ord("1"), 1] = 1.0
_KEY_WEIGHTS[1, ord("0"), 0], _KEY_WEIGHTS[1, ord("1"), 0] = -1.0, 1.0


@dataclass(frozen=True)
class BiasConfig:
    """The row record: bias currents, write voltage, search time,
    match-line branch resistances and the hTron gate threshold (SI).
    Searches, closed forms, calibration and HDC plans all read it;
    ``RunConfig.bias()`` builds it.  Every field must be finite and > 0,
    and not subnormal: a value below the smallest normal float has lost
    its precision."""

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
            if not (math.isfinite(x) and x >= sys.float_info.min):
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


class MatchLineResult(NamedTuple):
    v_ml: float  # V
    n_match: int  # matched-bit count (non-d positions)
    power: float  # W, total RWL current times v_ml
    energy: float  # J, power times t_search


#: MatchLineResult from a 4-tuple, without the generated __new__'s call
_new_result = partial(tuple.__new__, MatchLineResult)


class TcamArray:
    """rows x cols grid of TCAM cells sharing one ML per row.

    Each cell holds two ferroelectrics, fs1 and fs2.  A device's state is
    one small integer, ``ids[row, col, branch]``, that indexes the array's
    state table (``_state_table``): every Preisach state the V/2 write
    voltages can reach, with remnants and pulse maps.  By wipe-out it is
    short (6 states at the defaults) and complete once the array is
    built, so writes and searches only read it.  The write voltage, the
    superconductor, ``t_op`` and with them each state's critical current
    (``_i_c``), the I_C window (``exact_window``) and the sign table
    (``_negative``) are fixed then.  Fresh devices (id 0) sit at
    negative saturation settled at 0 V.

    Searches read the row record ``bias``, which holds every branch
    resistance, the bias currents, the search time and the gate threshold
    all hTron access switches share.  Binding a record checks it against
    every operating rule over the state table's critical currents and the
    built write voltage; a rejected record raises one ConfigError listing
    every violation and leaves the array unchanged, so writes and
    searches check nothing, and a search reads only each device's
    remnant sign.  Searches are pure, so they may run concurrently; a
    write or a bind needs exclusive access to the whole array (the V/2
    scheme touches an entire row and column).
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
        _check_shape(rows, cols)
        if t_op <= 0.0:
            raise DomainError(f"t_op must be > 0 K, got {t_op}")
        self.rows = rows
        self.cols = cols
        self.fe_model = fe_model or PreisachModel()
        self.sc = sc or SuperconductorParams()
        self.t_op = t_op
        bias = bias or BiasConfig()
        self._states, self._remnants, self._pulse = _state_table(
            self.fe_model, bias.v_write
        )
        # 1.0 per state at negative remnant: under a bound record, all a
        # search reads of a device
        self._negative = (self._remnants < 0.0).astype(np.float64)
        self._i_c = np.array(
            [critical_current_at(p, self.sc, t_op) for p in self._remnants]
        )
        self._bias = None
        self.bias = bias
        self.ids = np.zeros((rows, cols, 2), dtype=np.int32)

    @property
    def bias(self) -> BiasConfig:
        return self._bias

    @bias.setter
    def bias(self, bias: BiasConfig):
        problems = operating_problems(
            bias, self.fe_model.v_c, (self._remnants, self._i_c)
        )
        if self._bias is not None and bias.v_write != self._bias.v_write:
            problems.append(
                f"V_WRITE={bias.v_write} V is not the {self._bias.v_write} V "
                "the array's state table was built for"
            )
        if problems:
            raise ConfigError(problems)
        self._bias = bias

    def blank(self, rows: int, cols: int) -> TcamArray:
        """A fresh rows x cols array built like this one: it shares the
        devices' parameters, the (read-only) state and sign tables and the
        row record, so no Preisach walk runs and no rule is checked again."""
        _check_shape(rows, cols)
        array = copy.copy(self)
        array.rows, array.cols = rows, cols
        array.ids = np.zeros((rows, cols, 2), dtype=np.int32)
        return array

    @property
    def exact_window(self) -> tuple[float, float]:
        """The (I_C,low, I_C,high) window, in A, of the state table."""
        return _exact_window(self._remnants, self._i_c)

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


def _check_shape(rows: int, cols: int):
    if rows < 1 or cols < 1:
        raise DomainError("array must have at least one row and column")


def _check_address(array: TcamArray, row: int, col: int):
    if not (0 <= row < array.rows and 0 <= col < array.cols):
        raise UsageError(
            f"cell ({row}, {col}) is outside the {array.rows}x{array.cols} array"
        )


def _compose_scan(maps: np.ndarray, reverse: bool) -> np.ndarray:
    """Inclusive running compositions of n state maps, an (n, ..., S)
    int32 array applied in order along axis 0: out[j] applies maps 0..j
    (or, ``reverse``, maps j..n-1), so out[j][..., s] is the state that s
    reaches.  A doubling scan: ceil(log2 n) flat gathers of O(n S)."""
    n_states = maps.shape[-1]
    out = maps.copy()
    flat = out.reshape(-1)
    # the flat index of entry 0 of each map
    base = np.arange(0, out.size, n_states, dtype=np.int32).reshape(
        out.shape[:-1] + (1,)
    )
    d = 1
    while d < len(out):
        # out[j + d] after out[j]: the forward scan extends window j + d
        # back by d maps, the reverse scan extends window j forward by d
        step = flat.take(out[:-d] + base[d:])
        if reverse:
            out[:-d] = step
        else:
            out[d:] = step
        d *= 2
    return out


def _write_columns(array: TcamArray, row: int, start: int, bits: np.ndarray):
    """V/2 write of ``bits`` (0/1 uint8) into columns start, start + 1, ...
    of ``row``, one column after another.

    Writing bit b at (row, c) pulses the selected cell's ferroelectrics
    with the full +/-V_WRITE (fs1 negative for a 1, fs2 the opposite)
    and the half-selected cells in row ``row`` or column c with half
    that, each pulse returning to 0 V.  Every other cell sees 0 V, which
    leaves its 0 V-settled devices as they are.  So each device takes
    one composition of the state table's pulse maps:

    * off the row, column c's devices see only column c's half pulse;
    * on the row, cell c sees the half pulses of the columns written
      before it, its own full pulse, then the half pulses of those after;
      a cell outside the written columns sees every half pulse.

    The prefix and suffix compositions come from ``_compose_scan``, so n
    columns cost O(R n + C + n S log n) and run no relay model.
    """
    ids = array.ids
    n, stop = len(bits), start + len(bits)
    v = array.bias.v_write
    pulse = array._pulse
    # (branch, bit) -> map, flattened: a 1 drives fs1 (branch 0) to -V and
    # fs2 to +V, a 0 the mirror, so the sign is + where branch == bit
    half = np.concatenate([pulse[0.5 * v], pulse[-0.5 * v],
                           pulse[-0.5 * v], pulse[0.5 * v]])
    full = np.concatenate([pulse[v], pulse[-v], pulse[-v], pulse[v]])
    n_states = len(pulse[v])
    # (n, 2): the flat offset of the (branch, bit) map of each column
    pick = (2 * np.arange(2, dtype=np.int32) + bits[:, None]) * n_states
    # (n, 2, S): the half map each written column applies to each branch
    halves = half[pick[:, :, None] + np.arange(n_states, dtype=np.int32)]
    prefix = _compose_scan(halves, reverse=False)
    suffix = _compose_scan(halves, reverse=True)
    identity = np.broadcast_to(np.arange(n_states, dtype=np.int32), (1, 2, n_states))
    before = np.concatenate([identity, prefix[:-1]]).reshape(-1)  # left of c
    after = np.concatenate([suffix[1:], identity]).reshape(-1)  # right of c

    # (n, 2): the flat index of entry 0 of each column's maps in before
    # and after
    base = np.arange(0, halves.size, n_states, dtype=np.int32).reshape(n, 2)
    own = before.take(base + ids[row, start:stop])
    own = after.take(base + full.take(pick + own))
    # off the row, one gather through column c's half map; it runs over
    # the whole block and is overwritten on the row
    ids[:, start:stop] = half.take(ids[:, start:stop] + pick)
    ids[row, start:stop] = own
    every = prefix[-1].reshape(-1)  # all n half pulses, in order
    for cells in (ids[row, :start], ids[row, stop:]):
        cells[:] = every.take(base[0] + cells)


def write_bit(array: TcamArray, row: int, col: int, value: int) -> TcamArray:
    """V/2 write of one bit: the one-column case of ``store_word``.

    The selected cell's ferroelectrics see the full +/-V_WRITE (fs1
    negative for a 1, fs2 the opposite) and half-selected cells in the
    same row or column see half that.  Only the selected row and column
    are updated, each device by a gather through the state table's pulse
    maps at the V_WRITE it was built for: a write costs O(R + C) and
    runs no relay model.
    """
    if value not in (0, 1):
        raise UsageError(f"bit value must be 0 or 1, got {value!r}")
    _check_address(array, row, col)
    _write_columns(array, row, col, np.array([value], dtype=np.uint8))
    return array


def store_word(array: TcamArray, row: int, bits: str) -> TcamArray:
    """Write a whole word into one row, column 0 first, with the V/2
    scheme of ``write_bit``, composed per device: one word costs
    O(R C + C S log C) for S states in the table, and runs no relay
    model."""
    if len(bits) != array.cols:
        raise UsageError(f"word length {len(bits)} != array width {array.cols}")
    if set(bits) - {"0", "1"}:
        raise UsageError("stored words may only contain 0/1")
    _check_address(array, row, 0)
    word = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    _write_columns(array, row, 0, word)
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


def _exact_window(remnants, i_c) -> tuple[float, float]:
    """(largest I_C at a remnant >= 0, smallest I_C at a remnant < 0):
    exact mode reads every state as written only with I_RWL strictly
    between them.  A sign that no state has empties the window."""
    low = [float(c) for p, c in zip(remnants, i_c) if p >= 0.0]
    high = [float(c) for p, c in zip(remnants, i_c) if p < 0.0]
    return max(low, default=math.inf), min(high, default=-math.inf)


def operating_problems(bias: BiasConfig, v_c: float, states) -> list[str]:
    """The violation message of every operating rule ``bias`` breaks at
    coercive voltage ``v_c``: the write inequality, the gate rule and the
    bias windows of ``states``, the (remnant fractions, critical currents)
    of every state a device can reach (None for a normal device, which
    skips both window rules).  HD mode needs I_RWL above every I_C."""
    problems = [
        write_inequality_problem(bias.v_write, v_c),
        gate_problem(bias.i_rbl_on, bias.i_g_crit),
    ]
    if states is not None:
        ic_low, ic_high = _exact_window(*states)
        if not ic_low < bias.i_rwl_exact < ic_high:
            problems.append(
                f"exact mode requires I_C,low < I_RWL < I_C,high: "
                f"I_RWL={bias.i_rwl_exact:.4g} A vs window "
                f"({ic_low:.4g}, {ic_high:.4g}) A"
            )
        ic_max = max(states[1])
        if not bias.i_rwl_hd > ic_max:
            problems.append(
                f"HD mode requires I_RWL > I_C,high: I_RWL={bias.i_rwl_hd:.4g} A "
                f"vs I_C,high={ic_max:.4g} A"
            )
    return [problem for problem in problems if problem]


@dataclass(frozen=True)
class SearchResults:
    """Every row's match line under each of K keys, as (K, rows) arrays."""

    v_ml: np.ndarray  # V
    n_match: np.ndarray  # matched-bit count (non-d positions)
    power: np.ndarray  # W, total RWL current times v_ml
    energy: np.ndarray  # J, power times t_search

    def rows(self, k: int) -> list[MatchLineResult]:
        """The row results of key ``k``."""
        columns = (self.v_ml[k], self.n_match[k], self.power[k], self.energy[k])
        return list(map(_new_result, zip(*(column.tolist() for column in columns))))


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
    and the gate rule, checked at binding, makes every driven hTron
    switch, so a driven branch is an r_gate resistor.  A 0/1 trit leaves
    one branch open, fs1's for a 0 and fs2's for a 1; a d trit leaves
    none.  So a row is fixed by how many of its open branches hold a
    device at negative remnant.  Binding puts I_RWL,exact strictly
    between the I_C of every remnant >= 0 state and of every remnant < 0
    state and I_RWL,hd above all of them, so that sign is the whole
    per-device input: in exact mode one such branch has I_C >= I_RWL and
    shorts the ML (else all open branches conduct at r_fs_exact); in HD
    mode such a branch conducts at r_mismatch and every other open
    branch, a low-I_C one, at r_match.  Counts are over open branches, not stored bits: a
    fresh cell reads stored 1 with both devices at negative remnant.
    ``n_match`` alone counts stored bits: the non-d trits equal to the
    bit fs1 holds.

    The rows' signs come from one gather of the array's sign table, an
    (R, 2C) 0/1 matrix, and the keys' weights from one lookup of their
    bytes, a (2K, 2C) matrix: K rows of open-branch flags, then K rows
    that weigh fs1 by +1 under a 1 and -1 under a 0.  One product of the
    two gives every count; ``_row_conductance`` and ``search_energy``
    turn them into the (K, rows) record.
    """
    cols = array.cols
    zeros, n_open = [], []
    for key in keys:
        if len(key) != cols:
            raise UsageError(f"key length {len(key)} != array width {cols}")
        if hd and key.has_dont_care:
            raise UnsupportedModeError(
                "HD mode does not support don't-care trits; use exact mode"
            )
        zeros.append(key.trits.count("0"))
        n_open.append(zeros[-1] + key.trits.count("1"))
    bias = array.bias
    i_rwl = bias.i_rwl_hd if hd else bias.i_rwl_exact
    n_keys, rows = len(keys), array.rows
    trits = np.frombuffer("".join(k.trits for k in keys).encode(), dtype=np.uint8)
    weights = _KEY_WEIGHTS.take(trits, axis=1).reshape(2 * n_keys, -1)
    signs = array._negative.take(array.ids).reshape(rows, -1)
    # float64 sums of 0/+-1 products are exact integers below 2**53
    counts = weights @ signs.T
    n_negative = counts[:n_keys]
    n_match = counts[n_keys:] + np.array(zeros)[:, None]

    total_i = cols * i_rwl
    if hd:
        g = _row_conductance(
            cols, cols, cols - n_negative, bias.r_match, bias.r_mismatch,
            bias.r_gate,
        )
        v_ml = total_i / g
    else:
        # every open branch conducts at r_fs_exact unless the row shorts
        v_open = [
            total_i / _row_conductance(
                cols, 2 * cols - n, n, bias.r_fs_exact, bias.r_fs_exact,
                bias.r_gate,
            )
            for n in n_open
        ]
        v_ml = np.where(n_negative > 0.0, 0.0, np.array(v_open)[:, None])
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
    if bias.r_match == bias.r_mismatch:
        raise DomainError(
            f"r_match and r_mismatch must differ for v_ml to encode the "
            f"count, got both {bias.r_match} ohm"
        )
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
    if not (0.0 < binary_avg < math.inf and 0.0 < ternary_avg < math.inf):
        raise DomainError("energy targets must be finite and > 0")
    if binary_avg < sys.float_info.min:
        # r_fs follows from E_match = 2 * binary_avg, which would keep
        # only the few significant bits of a subnormal
        raise DomainError(
            f"r_fs_exact cannot be inverted from a subnormal binary target: "
            f"{binary_avg:.4g} J is below {sys.float_info.min:.4g} J"
        )
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


def calibrate_exact_bias(
    array: TcamArray, binary_avg: float, ternary_avg: float
) -> tuple[float, float]:
    """Set the array's exact-mode bias from average-energy targets.

    Returns (i_rwl_exact, r_fs), inverted at the array's gate resistance
    and search time, and binds them into the array's row record, which
    checks every operating rule against the array's own state table.
    """
    i_rwl, r_fs = invert_energy_targets(binary_avg, ternary_avg, array.bias)
    array.bias = replace(array.bias, i_rwl_exact=i_rwl, r_fs_exact=r_fs)
    return i_rwl, r_fs
