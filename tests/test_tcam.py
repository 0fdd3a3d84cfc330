"""TCAM cells and arrays: write scheme, search semantics, energy model."""

import itertools
import pickle

import numpy as np
import pytest

from cryocam.config import build_config
from cryocam.errors import ConfigError, DomainError, UnsupportedModeError, UsageError
from cryocam.ferroelectric import remnant_fraction
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
        cell = array.cells[0][0]
        assert remnant_fraction(cell.fs1.fe) < 0.0  # high-I_C state
        assert remnant_fraction(cell.fs2.fe) > 0.0
        assert array.read_bit(0, 0) == 1

    def test_store_zero_mirrors(self):
        array = TcamArray(1, 1)
        write_bit(array, 0, 0, 0)
        cell = array.cells[0][0]
        assert remnant_fraction(cell.fs1.fe) > 0.0
        assert remnant_fraction(cell.fs2.fe) < 0.0
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
        c1, c2 = a1.cells[0][0], a2.cells[0][0]
        assert np.array_equal(c1.fs1.fe.relay_up, c2.fs1.fe.relay_up)
        assert np.array_equal(c1.fs2.fe.relay_up, c2.fs2.fe.relay_up)

    def test_store_word_idempotent(self):
        a1 = TcamArray(2, 4)
        store_word(a1, 0, "1011")
        snapshot = [
            (c.fs1.fe.relay_up.copy(), c.fs2.fe.relay_up.copy())
            for c in a1.cells[0]
        ]
        store_word(a1, 0, "1011")
        for cell, (up1, up2) in zip(a1.cells[0], snapshot):
            assert np.array_equal(cell.fs1.fe.relay_up, up1)
            assert np.array_equal(cell.fs2.fe.relay_up, up2)

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
