"""TCAM cells and arrays: write scheme, search semantics, energy model."""

import itertools
import pickle

import numpy as np
import pytest

from cryocam import tcam
from cryocam.config import build_config
from cryocam.device_physics import SuperconductorParams
from cryocam.errors import ConfigError, DomainError, UnsupportedModeError, UsageError
from cryocam.ferroelectric import PreisachModel, drive_voltage, remnant_fraction
from cryocam.fesquid import critical_current_at
from cryocam.htron import HtronDevice
from cryocam.tcam import (
    BiasConfig,
    SearchKey,
    TcamArray,
    calibrate_exact_bias,
    invert_energy_targets,
    ml_voltage_closed_form,
    search_energy,
    search_exact,
    search_hd,
    store_word,
    write_bit,
)

# Algebraic inversion of the published average search energies, done by
# hand before the build: E_d = 3*E_t - 2*E_b, I = sqrt(E_d/(25k*0.3ns)).
CAL_I_RWL = 3.199583e-6  # A
CAL_R_FS = 901.6176  # ohm

BINARY_TARGET = 1.36e-18  # J
TERNARY_TARGET = 26.5e-18  # J


def exact_v_match(bias: BiasConfig) -> float:
    r_par = bias.r_fs_exact * 50e3 / (bias.r_fs_exact + 50e3)
    return bias.i_rwl_exact * r_par


class TestWriteScheme:
    def test_store_one_sets_opposite_remnants(self):
        array = TcamArray(1, 1)
        write_bit(array, 0, 0, 1)
        assert remnant_fraction(array.fe_state(0, 0, 1)) < 0.0  # high-I_C state
        assert remnant_fraction(array.fe_state(0, 0, 2)) > 0.0
        assert array.read_bit(0, 0) == 1

    def test_store_zero_mirrors(self):
        array = TcamArray(1, 1)
        write_bit(array, 0, 0, 0)
        assert remnant_fraction(array.fe_state(0, 0, 1)) > 0.0
        assert remnant_fraction(array.fe_state(0, 0, 2)) < 0.0
        assert array.read_bit(0, 0) == 0

    def test_single_write_changes_exactly_one_cell(self):
        array = TcamArray(4, 4)
        for r in range(4):
            store_word(array, r, "0110")
        before = array.remnant_signs()
        write_bit(array, 0, 0, 1)
        after = array.remnant_signs()
        changed = [
            (r, c)
            for r in range(4)
            for c in range(4)
            if before[r][c] != after[r][c]
        ]
        assert changed == [(0, 0)]

    def test_overwrite_equals_direct_write(self):
        a1 = TcamArray(1, 1)
        write_bit(a1, 0, 0, 0)
        write_bit(a1, 0, 0, 1)
        a2 = TcamArray(1, 1)
        write_bit(a2, 0, 0, 1)
        for branch in (1, 2):
            assert np.array_equal(
                a1.fe_state(0, 0, branch).relay_up, a2.fe_state(0, 0, branch).relay_up
            )

    def test_store_word_idempotent(self):
        a1 = TcamArray(2, 4)
        store_word(a1, 0, "1011")
        snapshot = [
            (a1.fe_state(0, c, 1).relay_up, a1.fe_state(0, c, 2).relay_up)
            for c in range(4)
        ]
        store_word(a1, 0, "1011")
        for c, (up1, up2) in enumerate(snapshot):
            assert np.array_equal(a1.fe_state(0, c, 1).relay_up, up1)
            assert np.array_equal(a1.fe_state(0, c, 2).relay_up, up2)

    def test_store_leaves_other_rows_readable(self):
        array = TcamArray(3, 4)
        store_word(array, 0, "0101")
        store_word(array, 1, "1100")
        store_word(array, 2, "0011")
        assert array.read_word(0) == "0101"
        assert array.read_word(1) == "1100"
        assert array.read_word(2) == "0011"

    def test_write_inequality_checked_before_mutation(self):
        array = TcamArray(2, 2, bias=BiasConfig(v_write=2.6))  # v_c 1.2 < 1.3
        before = array.remnant_signs()
        with pytest.raises(ConfigError, match="V_WRITE/2 < V_C < V_WRITE"):
            write_bit(array, 0, 0, 1)
        assert array.remnant_signs() == before

    def test_bad_inputs(self):
        array = TcamArray(1, 2)
        with pytest.raises(UsageError):
            write_bit(array, 0, 0, 2)
        with pytest.raises(UsageError):
            store_word(array, 0, "011")
        with pytest.raises(UsageError):
            store_word(array, 0, "0d")

    @pytest.mark.parametrize("row,col", [(5, 0), (0, 2), (-1, 0), (0, -1)])
    def test_address_outside_array_rejected_before_mutation(self, row, col):
        array = TcamArray(2, 2)
        store_word(array, 0, "10")
        before = pickle.dumps(array)
        with pytest.raises(UsageError, match="outside"):
            write_bit(array, row, col, 1)
        if not 0 <= row < 2:
            with pytest.raises(UsageError, match="outside"):
                store_word(array, row, "11")
        assert pickle.dumps(array) == before

    def test_fe_state_is_a_clone(self):
        array = TcamArray(2, 2)
        store_word(array, 0, "10")
        store_word(array, 1, "10")
        drive_voltage(array.fe_state(0, 0, 1), array.fe_model.v_span)
        for row in (0, 1):  # (1, 0) shares its state with (0, 0)
            assert remnant_fraction(array.fe_state(row, 0, 1)) < 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_op": 0.0}, {"bias": BiasConfig(r_match=0.0)},
         {"bias": BiasConfig(r_mismatch=-1.0)}],
    )
    def test_device_parameters_validated(self, kwargs):
        with pytest.raises(DomainError):
            TcamArray(1, 1, **kwargs)

    def test_write_cost_is_linear_in_rows_plus_columns(self, monkeypatch):
        rows, cols = 16, 32
        rng = np.random.default_rng(11)
        words = ["".join(map(str, rng.integers(0, 2, cols))) for _ in range(rows + 1)]
        array = TcamArray(rows, cols)
        for r in range(rows):
            store_word(array, r, words[r])
        calls = []

        def counting_drive(state, v):
            calls.append(v)
            return drive_voltage(state, v)

        monkeypatch.setattr(tcam, "drive_voltage", counting_drive)
        store_word(array, 3, words[rows])
        assert len(calls) <= 4 * (rows + cols) * cols
        assert array.read_word(3) == words[rows]


class TestExactSearch:
    def test_six_case_truth_table(self):
        array = TcamArray(2, 1)
        store_word(array, 0, "0")
        store_word(array, 1, "1")
        v_match = exact_v_match(array.bias)
        v_dontcare = array.bias.i_rwl_exact * 25e3
        expected = {
            ("0", 0): v_match,
            ("0", 1): 0.0,
            ("1", 0): 0.0,
            ("1", 1): v_match,
            ("d", 0): v_dontcare,
            ("d", 1): v_dontcare,
        }
        for key in ("0", "1", "d"):
            results = search_exact(array, SearchKey(key))
            for row, res in enumerate(results):
                want = expected[(key, row)]
                if want == 0.0:
                    assert res.v_ml == 0.0
                    assert res.energy == 0.0
                else:
                    assert res.v_ml == pytest.approx(want, rel=1e-12)
                    assert res.v_ml > 0.0

    def test_match_voltage_at_calibrated_defaults(self):
        array = TcamArray(1, 1)
        store_word(array, 0, "1")
        res = search_exact(array, SearchKey("1"))[0]
        assert res.v_ml == pytest.approx(2.83e-3, rel=5e-3)

    def test_dont_care_voltage_at_defaults(self):
        array = TcamArray(1, 1)
        store_word(array, 0, "0")
        res = search_exact(array, SearchKey("d"))[0]
        assert res.v_ml == pytest.approx(80e-3, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_ternary_zero_iff_hard_mismatch(self, n):
        words = ["".join(bits) for bits in itertools.product("01", repeat=n)]
        array = TcamArray(len(words), n)
        for r, w in enumerate(words):
            store_word(array, r, w)
        assert [array.read_word(r) for r in range(len(words))] == words
        for key_trits in itertools.product("01d", repeat=n):
            key = SearchKey("".join(key_trits))
            results = search_exact(array, key)
            for word, res in zip(words, results):
                mismatch = any(
                    t != "d" and t != b for t, b in zip(key.trits, word)
                )
                if mismatch:
                    assert res.v_ml == 0.0
                else:
                    assert res.v_ml > 0.0

    def test_mode_window_enforced(self):
        array = TcamArray(1, 1, bias=BiasConfig(i_rwl_exact=5e-6))
        store_word(array, 0, "1")
        with pytest.raises(ConfigError, match="I_C,low < I_RWL < I_C,high"):
            search_exact(array, SearchKey("1"))

    def test_key_length_checked(self):
        array = TcamArray(1, 2)
        with pytest.raises(UsageError):
            search_exact(array, SearchKey("101"))


class TestHdSearch:
    @pytest.mark.parametrize("n_bits", [1, 4, 16, 64])
    def test_row_solve_equals_closed_form(self, n_bits):
        array = TcamArray(1, n_bits)
        word = "".join("01"[k % 2] for k in range(n_bits))
        store_word(array, 0, word)
        i = array.bias.i_rwl_hd
        for n_match in range(n_bits + 1):
            key = "".join(
                word[k] if k < n_match else ("1" if word[k] == "0" else "0")
                for k in range(n_bits)
            )
            res = search_hd(array, SearchKey(key))[0]
            assert res.n_match == n_match
            expected = ml_voltage_closed_form(n_bits, n_match, i)
            assert abs(res.v_ml - expected) / expected < 1e-12

    def test_strictly_increasing_in_matches(self):
        for n_bits in (4, 16, 64):
            i = 5e-6
            levels = [ml_voltage_closed_form(n_bits, m, i) for m in range(n_bits + 1)]
            assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_dont_care_rejected(self):
        array = TcamArray(1, 2)
        store_word(array, 0, "01")
        with pytest.raises(UnsupportedModeError):
            search_hd(array, SearchKey("0d"))

    def test_mode_window_enforced(self):
        array = TcamArray(1, 1, bias=BiasConfig(i_rwl_hd=3e-6))
        store_word(array, 0, "1")
        with pytest.raises(ConfigError, match="HD mode requires I_RWL > I_C,high"):
            search_hd(array, SearchKey("1"))


class TestClosedForm:
    def test_published_operating_point(self):
        assert ml_voltage_closed_form(10000, 5000, 5e-6) == pytest.approx(
            5.86e-3, rel=2e-3
        )

    def test_single_matched_bit(self):
        v = 5e-6 / (1.0 / 50e3 + 1.0 / 1.8e3)
        assert ml_voltage_closed_form(1, 1, 5e-6) == pytest.approx(v, rel=1e-12)
        assert ml_voltage_closed_form(1, 1, 5e-6) == pytest.approx(8.69e-3, rel=1e-3)

    def test_four_bit_extremes(self):
        assert ml_voltage_closed_form(4, 4, 5e-6) == pytest.approx(8.687e-3, rel=1e-3)
        assert ml_voltage_closed_form(4, 0, 5e-6) == pytest.approx(4.420e-3, rel=1e-3)

    def test_ratio_invariance(self):
        for n, m in [(8, 3), (50, 25), (512, 100)]:
            v1 = ml_voltage_closed_form(n, m, 5e-6)
            v2 = ml_voltage_closed_form(2 * n, 2 * m, 5e-6)
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_zero_current_zero_voltage(self):
        assert ml_voltage_closed_form(16, 8, 0.0) == 0.0

    @pytest.mark.parametrize("n,m", [(4, 5), (4, -1), (0, 0)])
    def test_domain_errors(self, n, m):
        with pytest.raises(DomainError):
            ml_voltage_closed_form(n, m, 5e-6)


class TestEnergy:
    def test_vector_comparison_energy_10k(self):
        v = ml_voltage_closed_form(10000, 5000, 5e-6)
        e = search_energy(v, 10000, 5e-6)
        assert abs(e - 89.4e-15) / 89.4e-15 < 0.03

    def test_vector_comparison_energy_5k(self):
        v = ml_voltage_closed_form(5000, 2500, 5e-6)
        e = search_energy(v, 5000, 5e-6)
        assert abs(e - 44.7e-15) / 44.7e-15 < 0.03

    def test_mismatch_energy_zero(self):
        array = TcamArray(1, 1)
        store_word(array, 0, "1")
        res = search_exact(array, SearchKey("0"))[0]
        assert search_energy(res, 1, array.bias.i_rwl_exact) == 0.0

    def test_per_bit_energy_constant_at_fixed_match_fraction(self):
        i = 5e-6
        per_bit = [
            search_energy(ml_voltage_closed_form(n, n // 2, i), n, i) / n
            for n in (10, 50, 100, 500)
        ]
        spread = (max(per_bit) - min(per_bit)) / per_bit[0]
        assert spread < 1e-12

    def test_result_energy_consistent_with_helper(self):
        array = TcamArray(1, 4)
        store_word(array, 0, "0110")
        res = search_hd(array, SearchKey("0110"))[0]
        assert res.energy == pytest.approx(
            search_energy(res, 4, array.bias.i_rwl_hd, array.bias.t_search),
            rel=1e-12,
        )
        assert res.power == pytest.approx(4 * array.bias.i_rwl_hd * res.v_ml)


class TestCalibration:
    def test_inversion_matches_hand_oracle(self):
        i_rwl, r_fs = invert_energy_targets(BINARY_TARGET, TERNARY_TARGET)
        assert i_rwl == pytest.approx(CAL_I_RWL, rel=1e-6)
        assert r_fs == pytest.approx(CAL_R_FS, rel=1e-6)

    def test_round_trip_through_array_searches(self):
        array = TcamArray(2, 1)
        store_word(array, 0, "0")
        store_word(array, 1, "1")
        calibrate_exact_bias(array, BINARY_TARGET, TERNARY_TARGET)
        energies = {}
        for key in ("0", "1", "d"):
            for row, res in enumerate(search_exact(array, SearchKey(key))):
                energies[(key, row)] = res.energy
        binary_avg = (
            energies[("0", 0)]
            + energies[("1", 1)]
            + energies[("0", 1)]
            + energies[("1", 0)]
        ) / 4.0
        ternary_avg = sum(energies.values()) / 6.0
        assert abs(binary_avg - BINARY_TARGET) / BINARY_TARGET < 0.02
        assert abs(ternary_avg - TERNARY_TARGET) / TERNARY_TARGET < 0.02

    def test_round_trip_at_configured_gate_resistance(self):
        array = build_config({"ht_r_off_kohm": "40"}).make_array(2, 1)
        store_word(array, 0, "0")
        store_word(array, 1, "1")
        calibrate_exact_bias(array, BINARY_TARGET, TERNARY_TARGET)
        energies = [
            res.energy
            for key in ("0", "1", "d")
            for res in search_exact(array, SearchKey(key))
        ]
        binary_avg = sum(energies[:4]) / 4.0
        ternary_avg = sum(energies) / 6.0
        assert abs(binary_avg - BINARY_TARGET) / BINARY_TARGET < 1e-9
        assert abs(ternary_avg - TERNARY_TARGET) / TERNARY_TARGET < 1e-9

    def test_scaling_targets_scales_current_only(self):
        i1, r1 = invert_energy_targets(BINARY_TARGET, TERNARY_TARGET)
        i2, r2 = invert_energy_targets(2 * BINARY_TARGET, 2 * TERNARY_TARGET)
        assert i2 == pytest.approx(i1 * np.sqrt(2.0), rel=1e-12)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_window_violation_rejected(self):
        array = TcamArray(1, 1)
        with pytest.raises(ConfigError, match="window"):
            calibrate_exact_bias(array, 100 * BINARY_TARGET, 100 * TERNARY_TARGET)

    def test_no_positive_solution_rejected(self):
        with pytest.raises(ConfigError, match="no positive solution"):
            invert_energy_targets(1e-18, 1e-21)
        with pytest.raises(ConfigError, match="no positive solution"):
            # implied match resistance above the gate branch
            invert_energy_targets(1e-15, 26.5e-18)

    def test_stored_into_bias(self):
        array = TcamArray(1, 1)
        i_rwl, r_fs = calibrate_exact_bias(array, BINARY_TARGET, TERNARY_TARGET)
        assert array.bias.i_rwl_exact == i_rwl
        assert array.bias.r_fs_exact == r_fs


class TestSearchPurity:
    def test_searches_change_no_state(self):
        array = TcamArray(3, 4)
        for r, word in enumerate(("0110", "1010", "0001")):
            store_word(array, r, word)
        array.remnant_signs()  # warm the remnant caches the searches read
        before = pickle.dumps(array)
        for key in ("0110", "1d0d", "dddd", "1111"):
            search_exact(array, SearchKey(key))
        for key in ("0110", "1001", "0000"):
            search_hd(array, SearchKey(key))
        assert pickle.dumps(array) == before

    def test_htron_must_agree_with_row_record(self):
        with pytest.raises(ConfigError, match="r_gate"):
            TcamArray(1, 1, bias=BiasConfig(r_gate=40e3), htron=HtronDevice())
        with pytest.raises(ConfigError, match="t_search"):
            TcamArray(1, 1, bias=BiasConfig(t_search=1e-9), htron=HtronDevice())


class TestSearchKeyAndTiming:
    def test_key_charset_validated(self):
        with pytest.raises(UsageError):
            SearchKey("01x")

    def test_search_time_is_one_switching_depth(self):
        array = TcamArray(1, 8)
        assert array.bias.t_search == array.htron.t_switch


class _ReferenceArray:
    """The one-object-per-device model the array is checked against: one
    Preisach state per ferroelectric, every write pulsing every device,
    and a search summing branch conductances one at a time in column
    order."""

    def __init__(self, rows, cols, bias):
        self.model = PreisachModel()
        self.sc = SuperconductorParams()
        self.bias = bias
        self.fe = [
            [[self.model.initial_state(), self.model.initial_state()] for _ in range(cols)]
            for _ in range(rows)
        ]

    def write_bit(self, row, col, value):
        v_w = self.bias.v_write
        v1 = -v_w if value == 1 else v_w
        for r, cells in enumerate(self.fe):
            for c, (fs1, fs2) in enumerate(cells):
                if r == row and c == col:
                    v = v1
                elif r == row or c == col:
                    v = 0.5 * v1
                else:
                    v = 0.0
                for fe, pulse in ((fs1, v), (fs2, -v)):
                    drive_voltage(fe, pulse)
                    drive_voltage(fe, 0.0)

    def search(self, trits, hd):
        bias = self.bias
        i_rwl = bias.i_rwl_hd if hd else bias.i_rwl_exact
        total_i = len(trits) * i_rwl
        results = []
        for cells in self.fe:
            g_row, shorted, n_match = 0.0, False, 0
            for t, (fs1, fs2) in zip(trits, cells):
                stored = 1 if remnant_fraction(fs1) < 0.0 else 0
                n_match += t != "d" and int(t) == stored
                for fe, driven in ((fs1, t in "1d"), (fs2, t in "0d")):
                    p = remnant_fraction(fe)
                    if driven:
                        g_row += 1.0 / bias.r_gate
                    elif hd:
                        g_row += 1.0 / (bias.r_match if p >= 0.0 else bias.r_mismatch)
                    elif i_rwl > critical_current_at(p, self.sc, 4.0):
                        g_row += 1.0 / bias.r_fs_exact
                    else:
                        shorted = True
            v_ml = 0.0 if shorted else total_i / g_row
            power = total_i * v_ml
            results.append(
                tcam.MatchLineResult(v_ml, n_match, power, power * bias.t_search)
            )
        return results


class TestAgainstReferenceModel:
    @pytest.mark.parametrize("v_write", [2.0, 1.5])
    def test_seeded_stream_matches_per_device_model(self, v_write):
        # 2.0 V saturates; 1.5 V stays below v_span and walks minor loops
        rows, cols = 4, 24  # 48 branches per row: a pairwise sum would differ
        bias = BiasConfig(v_write=v_write)
        array = TcamArray(rows, cols, bias=bias)
        ref = _ReferenceArray(rows, cols, bias)
        rng = np.random.default_rng(2024)

        def word():
            return "".join(map(str, rng.integers(0, 2, cols)))

        def key(ternary):
            stored = array.read_word(int(rng.integers(rows)))
            flips = rng.random(cols) < 0.1
            cares = rng.random(cols) >= (0.2 if ternary else 0.0)
            return "".join(
                ("10"[int(b)] if f else b) if c else "d"
                for b, f, c in zip(stored, flips, cares)
            )

        ops = ["fill"] * rows + list(rng.choice(["word", "bit", "exact", "hd"], 40))
        for i, op in enumerate(ops):
            if op in ("fill", "word"):
                row = i if op == "fill" else int(rng.integers(rows))
                bits = word()
                store_word(array, row, bits)
                for c, b in enumerate(bits):
                    ref.write_bit(row, c, int(b))
            elif op == "bit":
                row, col, value = (int(x) for x in rng.integers(0, [rows, cols, 2]))
                write_bit(array, row, col, value)
                ref.write_bit(row, col, value)
            else:
                k = key(ternary=op == "exact")
                search = search_hd if op == "hd" else search_exact
                got = search(array, SearchKey(k))
                assert repr(got) == repr(ref.search(k, hd=op == "hd"))
            for r in range(rows):
                for c in range(cols):
                    for branch in (1, 2):
                        fe = array.fe_state(r, c, branch)
                        want = ref.fe[r][c][branch - 1]
                        assert np.array_equal(fe.relay_up, want.relay_up)
                        assert fe.last_v == want.last_v
