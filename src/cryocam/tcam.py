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
import itertools
import math
import sys
from dataclasses import dataclass, fields, replace
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
    negative saturation settled at 0 V.  ``ids`` is intp, so every
    gather by state id takes numpy's native index width.  The flat pulse
    maps a write reads (``_write_maps``) are made with the state table.
    A word write walks the closure of the two half-pulse maps
    (``_half_closure``, 5 maps on every bindable table measured), made
    on the first write of two or more columns; ``blank`` copies share
    both.  A word costs O(R C), and a 21 x 10,000 array fills in about
    0.06 s.

    Searches read the row record ``bias``, which holds every branch
    resistance, the bias currents, the search time and the gate threshold
    all hTron access switches share.  Binding a record checks it against
    every operating rule over the state table's critical currents and the
    built write voltage, and makes the row tables (``_tables``): each
    mode's v_ml, power and energy over the count that decides a row
    (``_row_tables``).  A record whose tables overflow the float range
    is refused too; a rejected record raises one ConfigError listing
    every violation and leaves the array unchanged, so writes and
    searches check nothing.  A search reads only each device's remnant
    sign, counts, and indexes the tables, with the key weights made for
    the array's width (``_key_weights``); ``blank`` makes both anew for
    another width.  Searches are pure, so they may run concurrently; a
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
        self._write_maps = _write_maps(self._pulse, bias.v_write)
        # 1.0 per state at negative remnant: under a bound record, all a
        # search reads of a device
        self._negative = (self._remnants < 0.0).astype(np.float64)
        self._key_weights = _key_weights(cols)
        self._i_c = np.array(
            [critical_current_at(p, self.sc, t_op) for p in self._remnants]
        )
        self._bias = None
        self.bias = bias
        self.ids = np.zeros((rows, cols, 2), dtype=np.intp)
        # v_write -> the closure of its half-pulse maps in branch-pair
        # form, made on the first write of two or more columns; blank()
        # copies share this dict
        self._closure = {}

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
        tables, overflows = _row_tables(bias, self.cols)
        problems += overflows
        if problems:
            raise ConfigError(problems)
        self._bias, self._tables = bias, tables

    def blank(self, rows: int, cols: int) -> TcamArray:
        """A fresh rows x cols array built like this one: it shares the
        devices' parameters, the (read-only) state, sign and write tables,
        the half-pulse closures and the row record, so no Preisach walk
        runs and no rule is checked again.  Another width makes its own
        row tables and key weights, and raises ConfigError if the record's
        search power or energy overflows at that width."""
        _check_shape(rows, cols)
        array = copy.copy(self)
        if cols != self.cols:
            array._tables, overflows = _row_tables(self._bias, cols)
            if overflows:
                raise ConfigError(overflows)
            array._key_weights = _key_weights(cols)
        array.rows, array.cols = rows, cols
        array.ids = np.zeros((rows, cols, 2), dtype=np.intp)
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
        _check_address(self, row, col)
        return 1 if self._remnants[self.ids[row, col, 0]] < 0.0 else 0

    def read_word(self, row: int) -> str:
        _check_address(self, row, 0)
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


def _write_maps(
    pulse: dict[float, np.ndarray], v_write: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pulse maps every write gathers through, made with the state
    table: (half, full, offsets), the (branch, bit) half and full maps
    flattened branch-major, and a 2 x 2 table of the flat offsets of bit
    b's (branch 0, branch 1) maps, all intp like ``ids``.  A 1 drives fs1
    (branch 0) to -V and fs2 to +V, a 0 the mirror, so the sign is +
    where branch == bit."""
    up, down = pulse[0.5 * v_write], pulse[-0.5 * v_write]
    plus, minus = pulse[v_write], pulse[-v_write]
    half = np.array([up, down, down, up], dtype=np.intp).reshape(-1)
    full = np.array([plus, minus, minus, plus], dtype=np.intp).reshape(-1)
    offsets = np.array([[0, 2], [1, 3]], dtype=np.intp) * len(up)
    return half, full, offsets


def _check_shape(rows: int, cols: int):
    if rows < 1 or cols < 1:
        raise DomainError("array must have at least one row and column")


def _check_address(array: TcamArray, row: int, col: int):
    if not (0 <= row < array.rows and 0 <= col < array.cols):
        raise UsageError(
            f"cell ({row}, {col}) is outside the {array.rows}x{array.cols} array"
        )


def _half_closure(
    pulse: dict[float, np.ndarray], v_write: float
) -> tuple[np.ndarray, list[list[int]], list[list[int]]]:
    """Every composition of the state table's +/-V_WRITE/2 pulse maps,
    generators 0 (+V_WRITE/2) and 1 (-V_WRITE/2): (maps, then, before),
    an (M, S) int32 array of maps with element 0 the identity, and two
    M x 2 tables of element ids, ``then[m][g]`` for m then g and
    ``before[m][g]`` for g then m.

    A breadth-first walk from the identity appends each generator to each
    element found; a map equal to a known one takes its id.  Wipe-out
    keeps it short (a repeated equal pulse changes nothing): 5 maps on
    every bindable table measured, but M is whatever the table gives.
    """
    gens = (pulse[0.5 * v_write], pulse[-0.5 * v_write])
    maps = [np.arange(len(gens[0]), dtype=np.int32)]
    ids_by_key = {maps[0].tobytes(): 0}
    then = []
    for m in maps:  # elements found below join the walk
        then.append([])
        for g in gens:
            composed = g[m]
            e = ids_by_key.setdefault(composed.tobytes(), len(maps))
            if e == len(maps):
                maps.append(composed)
            then[-1].append(e)
    before = [[ids_by_key[m[g].tobytes()] for g in gens] for m in maps]
    return np.array(maps), then, before


def _branch_pairs(
    closure: tuple[np.ndarray, list[list[int]], list[list[int]]],
) -> tuple[np.ndarray, list[list[int]], list[list[int]], np.ndarray]:
    """A ``_half_closure`` as one walk over both branches of a word:
    (maps, then, before, offsets), the maps flattened to intp, the
    M^2 x 2 tables of pair ids under a column's bit, and the (M^2, 2)
    intp flat offsets of each pair's two maps.  Pair e0 * M + e1 holds
    branch 0 at element e0 and branch 1 at e1; bit b moves branch 0 by
    generator b and branch 1 by generator b ^ 1."""
    maps, then, before = closure
    m, n_states = maps.shape
    pairs = list(itertools.product(range(m), repeat=2))
    then2, before2 = (
        [[table[e0][b] * m + table[e1][b ^ 1] for b in (0, 1)] for e0, e1 in pairs]
        for table in (then, before)
    )
    offsets = np.array(pairs, dtype=np.intp) * n_states
    return maps.reshape(-1).astype(np.intp), then2, before2, offsets


def _walk(table: list[list[int]], gens) -> list[int]:
    """The ids e_0, ..., e_n of the running compositions of generator
    sequence ``gens`` through ``table``: e_0 = 0, the identity, and
    e_j+1 = table[e_j][gens[j]]."""
    e, out = 0, [0]
    for g in gens:
        e = table[e][g]
        out.append(e)
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

    Branch b's half pulse in column c is generator ``bits[c] ^ b`` of
    ``_half_closure``.  Its (branch 0, branch 1) pair form
    (``_branch_pairs``) is made on the first write of two or more columns
    and shared by ``blank`` copies: a forward walk of the bits gives both
    branches' prefix compositions and a backward walk their suffixes, so
    n columns cost O(R n + C) gathers, an O(n) walk and no relay model.
    One column needs neither: its prefix and suffix are the identity.
    Only the per-word work runs here: the flat maps and offsets come
    from ``_write_maps``, built with the state table, and every gather
    indexes with intp, the width of ``ids``.
    """
    ids = array.ids
    n, stop = len(bits), start + len(bits)
    half, full, offsets = array._write_maps
    pick = offsets[bits]  # (n, 2): the flat offset of each column's maps
    own = ids[row, start:stop]
    if n == 1:
        own = full.take(pick + own)
        rest, every = half, pick[0]  # the rest of the row: one half pulse
    else:
        v = array.bias.v_write
        closure = array._closure.get(v)
        if closure is None:
            closure = array._closure.setdefault(
                v, _branch_pairs(_half_closure(array._pulse, v))
            )
        rest, then, before, pairs = closure
        gens = bits.tolist()
        # (n + 1, 2): the flat offsets of both branches' prefix maps, the
        # first j columns' half pulses, and suffix maps, those of columns
        # j, j + 1, ...
        prefix = pairs.take(np.array(_walk(then, gens)), axis=0)
        suffix = pairs.take(np.array(_walk(before, gens[::-1])[::-1]), axis=0)
        own = rest.take(prefix[:-1] + own)
        own = rest.take(suffix[1:] + full.take(pick + own))
        every = prefix[-1]  # all n half pulses, in order
    # off the row, one gather through column c's half map, straight into
    # ids; it runs over the whole block and is overwritten on the row.
    # Every index is in range, so "clip" changes nothing; it only keeps
    # take from buffering ``out``, as "raise" does
    block = ids[:, start:stop]
    half.take(block + pick, out=block, mode="clip")
    ids[row, start:stop] = own
    for cells in (ids[row, :start], ids[row, stop:]):
        if cells.size:
            cells[:] = rest.take(every + cells)


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
    scheme of ``write_bit``, composed per device: each on-row device's
    half pulses before and after its own full one come from a walk over
    the closure of the half-pulse maps, so one word costs O(R C) and
    runs no relay model (``_write_columns``)."""
    if len(bits) != array.cols:
        raise UsageError(f"word length {len(bits)} != array width {array.cols}")
    if set(bits) - {"0", "1"}:
        raise UsageError("stored words may only contain 0/1")
    _check_address(array, row, 0)
    word = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    _write_columns(array, row, 0, word)
    return array


def _exact_window(remnants, i_c) -> tuple[float, float]:
    """(largest I_C at a remnant >= 0, smallest I_C at a remnant < 0):
    exact mode reads every state as written only with I_RWL strictly
    between them.  A sign that no state has empties the window."""
    low = [float(c) for p, c in zip(remnants, i_c) if p >= 0.0]
    high = [float(c) for p, c in zip(remnants, i_c) if p < 0.0]
    return max(low, default=math.inf), min(high, default=-math.inf)


def operating_problems(bias: BiasConfig, v_c: float, states) -> list[str]:
    """The violation message of every operating rule ``bias`` breaks at
    coercive voltage ``v_c``, each rule written here only: the write
    inequality (a half-select pulse never switches, a full one does), the
    gate rule (a drive strictly above ``i_g_crit`` makes the hTron
    resistive), the resistance order (else the HD match-line voltage
    would not rise with matched bits) and the bias windows of ``states``,
    the (remnant fractions, critical currents) of every state a device
    can reach (None for a normal device, which skips both window rules).
    HD mode needs I_RWL above every I_C."""
    problems = []
    if not 0.5 * bias.v_write < v_c < bias.v_write:
        problems.append(
            f"write inequality violated: need V_WRITE/2 < V_C < V_WRITE, "
            f"got V_WRITE={bias.v_write} V, V_C={v_c} V"
        )
    if not bias.i_rbl_on > bias.i_g_crit:
        problems.append(
            f"asserted RBL current {bias.i_rbl_on:.4g} A must exceed the hTron "
            f"gate threshold {bias.i_g_crit:.4g} A"
        )
    if not bias.r_match > bias.r_mismatch:
        problems.append(
            f"HD mode requires r_match > r_mismatch: r_match={bias.r_match} ohm "
            f"vs r_mismatch={bias.r_mismatch} ohm"
        )
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
    return problems


@dataclass(frozen=True)
class SearchResults:
    """Every row's match line under each of K keys, as (K, rows) arrays.

    ``v_ml``, ``power`` and ``energy`` are one gather from the array's row
    table (``_row_tables``) and ``n_match`` a sum of the search's counts,
    so neither they nor ``rows`` evaluate any float expression."""

    v_ml: np.ndarray  # V
    n_match: np.ndarray  # matched-bit count (non-d positions)
    power: np.ndarray  # W, total RWL current times v_ml
    energy: np.ndarray  # J, power times t_search

    def rows(self, k: int) -> list[MatchLineResult]:
        """The row results of key ``k``."""
        rows = zip(
            self.v_ml[k].tolist(), self.n_match[k].tolist(),
            self.power[k].tolist(), self.energy[k].tolist(),
        )
        # each MatchLineResult from its 4-tuple, without the generated
        # __new__'s call
        return list(map(tuple.__new__, itertools.repeat(MatchLineResult), rows))


def _row_conductance(n_bits, n_gated, n_low, r_low, r_high, r_gate):
    """Conductance of a row of ``n_bits`` cells whose 2 * n_bits branches
    are ``n_gated`` gate-driven ones (r_gate) and open ones: ``n_low`` of
    them in the low-I_C state (r_low), the rest in the high-I_C state
    (r_high).  The one row relation that the row tables, the HD closed
    form and its inverse share; counts may be arrays of integers."""
    return n_gated / r_gate + n_low / r_low + (2 * n_bits - n_gated - n_low) / r_high


def _key_weights(cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Search weights of a ``cols``-bit row, (exact, hd), each a read-only
    array by (part, key byte, branch).  Part 0 flags the branch a trit
    leaves open (fs1 under a 0, fs2 under a 1), by 1 in HD mode and by
    cols + 1 in exact mode, so there one open branch at negative remnant
    lifts the row's table index past every open count; part 1 weighs
    fs1's stored bit, +1 under a 1 and -1 under a 0.  A d trit weighs
    nothing."""
    weights = np.zeros((2, 2, 256, 2))
    weights[:, 0, ord("0"), 0] = weights[:, 0, ord("1"), 1] = (cols + 1, 1)
    weights[:, 1, ord("0"), 0], weights[:, 1, ord("1"), 0] = -1.0, 1.0
    weights.flags.writeable = False
    return weights[0], weights[1]


def _row_tables(
    bias: BiasConfig, cols: int
) -> tuple[tuple[np.ndarray, np.ndarray], list[str]]:
    """A ``cols``-bit row's match line in each mode under ``bias``, made
    when a record is bound: ((exact, hd), problems).

    Each table is a read-only (3, cols + 2) float64 array whose rows are
    v_ml, power and energy, indexed by the count that decides a row (see
    ``search_keys``): exact mode's by the open branches 0..cols, all
    conducting at r_fs_exact, HD mode's by the open branches at negative
    remnant 0..cols, through ``ml_voltage_closed_form``.  The last entry,
    zeros, is exact mode's shorted row; HD counts never reach it.  Power
    is cols * I_RWL * v_ml and energy ``search_energy``, so every entry
    is the one IEEE expression for its count.  ``problems`` names each
    mode whose table holds a value past the float range."""
    n = np.arange(cols + 1)
    r_fs = bias.r_fs_exact
    currents = (bias.i_rwl_exact, bias.i_rwl_hd)
    tables = np.zeros((2, 3, cols + 2))
    v_ml = tables[:, 0]
    i_rwl = np.array(currents)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        g_open = _row_conductance(cols, 2 * cols - n, n, r_fs, r_fs, bias.r_gate)
        v_ml[0, :-1] = (cols * bias.i_rwl_exact) / g_open
        v_ml[1, :-1] = ml_voltage_closed_form(cols, n[::-1], bias.i_rwl_hd, bias)
        tables[:, 1] = cols * i_rwl * v_ml
        tables[:, 2] = search_energy(v_ml, cols, i_rwl, bias.t_search)
    problems = [
        problem
        for mode, i, table in zip(("exact", "HD"), currents, tables)
        for problem in overflow_problems(mode, cols, i, table)
    ]
    tables.flags.writeable = False
    return (tables[0], tables[1]), problems


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

    Only per-search work runs here.  The rows' signs come from one
    gather of the array's sign table, an (R, 2C) 0/1 matrix, and the
    keys' weights from one lookup of their bytes in the array's key
    weights (``_key_weights``), a (2K, 2C) matrix: K rows that flag each
    open branch, then K rows that weigh fs1 by +1 under a 1 and -1 under
    a 0.  One product of the two, plus per-key offsets, gives every
    ``n_match`` and one integer index per key and row into the mode's
    row table, made when the record was bound (``_row_tables``), whose
    one gather gives each row's v_ml, power and energy.  In HD mode the
    index is the negative-remnant count.  In exact mode a flag weighs
    cols + 1, so the index is the key's open branches when none of them
    is at negative remnant and lies past them otherwise, which take's
    "clip" reads as the table's last entry, a shorted row's zeros.
    """
    cols = array.cols
    words, zeros, n_open = [], [], []
    for key in keys:
        trits = key.trits
        if len(trits) != cols:
            raise UsageError(f"key length {len(trits)} != array width {cols}")
        if hd and key.has_dont_care:
            raise UnsupportedModeError(
                "HD mode does not support don't-care trits; use exact mode"
            )
        words.append(trits)
        zeros.append(trits.count("0"))
        n_open.append(zeros[-1] + trits.count("1"))
    n_keys, rows = len(keys), array.rows
    trits = np.frombuffer("".join(words).encode(), dtype=np.uint8)
    weights = array._key_weights[hd].take(trits, axis=1)
    signs = array._negative.take(array.ids).reshape(rows, -1)
    # float64 sums of products of small integers are exact below 2**53
    offsets = [0] * n_keys if hd else n_open
    counts = np.add(
        weights.reshape(2 * n_keys, 2 * cols) @ signs.T,
        np.array(offsets + zeros)[:, None],
        dtype=np.int64,
        casting="unsafe",
    )
    index, n_match = counts[:n_keys], counts[n_keys:]
    entries = array._tables[hd].take(index, axis=1, mode="clip")
    return SearchResults(entries[0], n_match, entries[1], entries[2])


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
    n_match: int | np.ndarray,
    i_rwl_per_bit: float,
    bias: BiasConfig = BiasConfig(),
) -> float | np.ndarray:
    """Closed-form HD-mode match-line voltage for an n-bit row with the
    branch resistances of ``bias``.  ``n_match`` is one count, giving a
    float, or an integer array of counts, giving an array of voltages."""
    if n_bits < 1:
        raise DomainError(f"n_bits must be >= 1, got {n_bits}")
    if not np.all((0 <= n_match) & (n_match <= n_bits)):  # NaN fails too
        raise DomainError(f"n_match must be in [0, {n_bits}], got {n_match}")
    g = _row_conductance(
        n_bits, n_bits, n_match, bias.r_match, bias.r_mismatch, bias.r_gate
    )
    return (n_bits * i_rwl_per_bit) / g


def invert_ml_voltage_closed_form(
    v_ml: float | np.ndarray,
    n_bits: int,
    i_rwl_per_bit: float,
    bias: BiasConfig = BiasConfig(),
) -> int | np.ndarray:
    """Recover the matched-bit count from an HD-mode ML voltage: an int
    from one voltage, an int64 array from an array of them.

    v_ml is strictly monotone in n_match, so the decode rounds the exact
    algebraic inverse to the nearest feasible integer, half to even.
    """
    if not np.all(v_ml > 0.0):  # NaN fails too
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
    counts = np.clip(np.rint(m), 0, n_bits).astype(np.int64)
    return counts if np.ndim(counts) else int(counts)


def search_energy(
    v_ml: float | np.ndarray,
    n_bits: int,
    i_rwl_per_bit: float,
    t_search: float = BiasConfig.t_search,
) -> float | np.ndarray:
    """Energy (J) of one row search: n_bits * I_RWL * V_ML * t_search.

    ``v_ml`` is one ML voltage, giving a float, or an array of voltages,
    giving an array of energies.
    """
    return n_bits * i_rwl_per_bit * v_ml * t_search


def overflow_problems(
    mode: str, n_bits: int, i_rwl_per_bit: float, values
) -> list[str]:
    """The one rule that a search's match-line voltages, powers and
    energies (``values``) be finite floats: [] when they are, else the
    message naming ``mode``, the ``n_bits`` searched and the current
    that put them past the float range."""
    if np.isfinite(values).all():
        return []
    return [
        f"{mode} mode search power or energy of {n_bits} bits overflows "
        f"the float range at I_RWL={i_rwl_per_bit:.4g} A per cell"
    ]


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
