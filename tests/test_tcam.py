"""TCAM cells and arrays: write scheme, search semantics, energy model."""

import dataclasses
import hashlib
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryocam import tcam
from cryocam.config import build_config
from cryocam.device_physics import SuperconductorParams
from cryocam.errors import ConfigError, DomainError, UnsupportedModeError, UsageError
from cryocam.ferroelectric import PreisachModel, drive_voltage, remnant_fraction
from cryocam.fesquid import critical_current_at, critical_window
from cryocam.tcam import (
    BiasConfig,
    SearchKey,
    TcamArray,
    calibrate_exact_bias,
    invert_energy_targets,
    invert_ml_voltage_closed_form,
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


@pytest.fixture
def drive_calls(monkeypatch):
    """The voltage of every relay-model call ``tcam`` makes from here on."""
    calls = []

    def counting_drive(state, v):
        calls.append(v)
        return drive_voltage(state, v)

    monkeypatch.setattr(tcam, "drive_voltage", counting_drive)
    return calls


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
        array = TcamArray(2, 2)
        store_word(array, 0, "10")
        before = pickle.dumps(array)
        with pytest.raises(ConfigError, match="V_WRITE/2 < V_C < V_WRITE"):
            TcamArray(2, 2, bias=BiasConfig(v_write=2.6))  # v_c 1.2 < 1.3
        with pytest.raises(ConfigError, match="V_WRITE/2 < V_C < V_WRITE"):
            array.bias = dataclasses.replace(array.bias, v_write=2.6)
        assert pickle.dumps(array) == before
        store_word(array, 1, "01")
        assert array.read_word(1) == "01"

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

    @pytest.mark.parametrize("row,col", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_reads_check_the_address(self, row, col):
        array = TcamArray(2, 2)
        store_word(array, 1, "10")
        with pytest.raises(UsageError, match="outside"):
            array.read_bit(row, col)
        if not 0 <= row < 2:
            with pytest.raises(UsageError, match="outside"):
                array.read_word(row)
        assert array.read_word(1) == "10" and array.read_bit(1, 1) == 0

    def test_fe_state_is_a_clone(self):
        array = TcamArray(2, 2)
        store_word(array, 0, "10")
        store_word(array, 1, "10")
        drive_voltage(array.fe_state(0, 0, 1), array.fe_model.v_span)
        for row in (0, 1):  # (1, 0) shares its state with (0, 0)
            assert remnant_fraction(array.fe_state(row, 0, 1)) < 0.0

    @pytest.mark.parametrize(
        "kwargs", [{"t_op": 0.0}, {"r_match": 0.0}, {"r_mismatch": -1.0}]
    )
    def test_device_parameters_validated(self, kwargs):
        # the row record rejects a bad field when built, so build it here
        bias_fields = dict(kwargs)
        t_op = bias_fields.pop("t_op", 4.0)
        with pytest.raises(DomainError):
            TcamArray(1, 1, t_op=t_op, bias=BiasConfig(**bias_fields))

    def test_write_cost_is_linear_in_rows_plus_columns(self, drive_calls):
        rows, cols = 16, 32
        rng = np.random.default_rng(11)
        words = ["".join(map(str, rng.integers(0, 2, cols))) for _ in range(rows + 1)]
        array = TcamArray(rows, cols)
        drive_calls.clear()
        for r in range(rows):
            store_word(array, r, words[r])
        store_word(array, 3, words[rows])
        assert drive_calls == []  # the state table is complete once built
        assert array.read_word(3) == words[rows]

    def test_build_runs_each_transition_once(self, drive_calls):
        array = TcamArray(3, 5)
        # the fresh state's settle, then (v, 0 V) for each of four voltages
        assert len(drive_calls) == 8 * len(array._states) + 1

    @pytest.mark.parametrize("grid_n", [16, 64])
    @pytest.mark.parametrize("v_write", [2.0, 1.5])
    def test_state_table_is_complete(self, v_write, grid_n):
        model = PreisachModel(grid_n=grid_n)
        array = TcamArray(1, 1, fe_model=model, bias=BiasConfig(v_write=v_write))
        states, remnants = array._states, array._remnants
        keys = [(fe.relay_up.tobytes(), fe.last_v) for fe in states]
        assert len(set(keys)) == len(states) == remnants.size
        fresh = drive_voltage(model.initial_state(), 0.0)
        assert keys[0] == (fresh.relay_up.tobytes(), fresh.last_v)
        assert sorted(array._pulse) == sorted(
            (v_write, -v_write, 0.5 * v_write, -0.5 * v_write)
        )
        for v, pulse_map in array._pulse.items():
            assert pulse_map.dtype == np.int32 and pulse_map.shape == (len(states),)
            assert ((0 <= pulse_map) & (pulse_map < len(states))).all()
            for sid, fe in enumerate(states):
                fe = fe.clone()
                drive_voltage(fe, v)
                drive_voltage(fe, 0.0)
                assert keys[pulse_map[sid]] == (fe.relay_up.tobytes(), fe.last_v)
        for sid, fe in enumerate(states):
            assert remnants[sid] == remnant_fraction(fe.clone())

    def test_write_voltage_fixed_when_built(self):
        array = TcamArray(2, 2)
        store_word(array, 0, "10")
        before = pickle.dumps(array)
        with pytest.raises(ConfigError, match=r"V_WRITE=1\.5 V .* 2\.0 V") as info:
            array.bias = dataclasses.replace(array.bias, v_write=1.5)
        assert "state table" in str(info.value)
        assert pickle.dumps(array) == before
        store_word(array, 1, "01")
        assert array.read_word(1) == "01"


class TestHalfPulseClosure:
    @pytest.mark.parametrize(
        "model, n_states",
        [(PreisachModel(), 6), (PreisachModel(sigma_v=0.4), 10)],
        ids=["6-state", "10-state"],
    )
    def test_walks_equal_pulse_by_pulse_folds(self, model, n_states):
        array = TcamArray(1, 2, fe_model=model)  # binds at the default bias
        v = array.bias.v_write
        pulses = (array._pulse[0.5 * v], array._pulse[-0.5 * v])
        maps, then, before = tcam._half_closure(array._pulse, v)
        assert len(array._states) == n_states
        assert maps.dtype == np.int32 and maps.shape[1] == n_states
        assert np.array_equal(maps[0], np.arange(n_states))
        n_maps = len(maps)
        for table in (then, before):
            assert np.shape(table) == (n_maps, 2)
            assert ((0 <= np.array(table)) & (np.array(table) < n_maps)).all()
        for m, g in itertools.product(range(n_maps), (0, 1)):
            assert np.array_equal(maps[then[m][g]], pulses[g][maps[m]])
            assert np.array_equal(maps[before[m][g]], maps[m][pulses[g]])

        def fold(gens):
            state = np.arange(n_states)
            for g in gens:
                state = pulses[g][state]
            return state

        # every element is the fold of the pulses on its path from the
        # identity
        paths, queue = {0: []}, [0]
        for m in queue:  # elements found below join the walk
            for g in (0, 1):
                if then[m][g] not in paths:
                    paths[then[m][g]] = paths[m] + [g]
                    queue.append(then[m][g])
        assert sorted(paths) == list(range(n_maps))
        for e, gens in paths.items():
            assert np.array_equal(maps[e], fold(gens))

        rng = np.random.default_rng(27)
        for length in range(65):
            gens = rng.integers(0, 2, length).tolist()
            prefix = tcam._walk(then, gens)
            suffix = tcam._walk(before, gens[::-1])
            assert len(prefix) == len(suffix) == length + 1
            for j in range(length + 1):
                assert np.array_equal(maps[prefix[j]], fold(gens[:j]))
                assert np.array_equal(maps[suffix[j]], fold(gens[length - j :]))

    def test_made_by_the_first_word_write_and_shared_by_blank_copies(self):
        array = TcamArray(3, 4)
        copy = array.blank(2, 5)
        write_bit(array, 0, 0, 1)
        store_word(array.blank(2, 1), 1, "0")
        assert array._closure == {}  # one column needs no closure
        store_word(copy, 1, "10110")
        v = array.bias.v_write
        assert list(array._closure) == [v]
        closure = array._closure[v]
        store_word(array, 2, "0110")
        assert array._closure[v] is closure
        assert build_config({})._template._closure == {}


class TestWritePath:
    """What a write reads is made with the state table, once."""

    def test_ids_are_intp_in_built_arrays_and_blank_copies(self):
        array = TcamArray(2, 3)
        store_word(array, 0, "101")
        write_bit(array, 1, 2, 1)
        assert array.ids.dtype == np.intp
        assert array.blank(4, 5).ids.dtype == np.intp
        assert build_config({}).make_array(2, 2).ids.dtype == np.intp

    def test_blank_copies_share_the_write_constants(self):
        array = TcamArray(2, 3)
        copy = array.blank(3, 4)
        store_word(copy, 0, "0110")
        assert copy._write_maps is array._write_maps

    def test_writes_make_no_concatenation(self, monkeypatch):
        array = TcamArray(3, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("a write concatenated")

        monkeypatch.setattr(np, "concatenate", refuse)
        store_word(array, 1, "110001")
        write_bit(array, 2, 4, 1)
        write_bit(array, 1, 0, 0)
        assert array.read_word(1) == "010001" and array.read_bit(2, 4) == 1

    def test_seeded_fill_hashes_to_the_recorded_ids(self):
        # written at a parent whose ids were int32; the hash pins every
        # device's state id, whatever the width ids are kept in
        rng = np.random.default_rng(2000)
        array = TcamArray(8, 2000)
        for r in range(8):
            store_word(array, r, "".join(map(str, rng.integers(0, 2, 2000))))
            for _ in range(3):
                write_bit(array, int(rng.integers(8)), int(rng.integers(2000)),
                          int(rng.integers(2)))
        store_word(array, 3, "".join(map(str, rng.integers(0, 2, 2000))))
        digest = hashlib.sha256(array.ids.astype(np.int32).tobytes()).hexdigest()
        assert digest == (
            "9641b876d41688270ac14321d0a20661a2c6c0ddc6d85f2ba6b3232c530187ec"
        )


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
        with pytest.raises(ConfigError, match="I_C,low < I_RWL < I_C,high"):
            TcamArray(1, 1, bias=BiasConfig(i_rwl_exact=5e-6))

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
        with pytest.raises(ConfigError, match="HD mode requires I_RWL > I_C,high"):
            TcamArray(1, 1, bias=BiasConfig(i_rwl_hd=3e-6))


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

    # NaN fails every "value in range" check; an array check of "any value
    # out of range" would let it through
    @pytest.mark.parametrize(
        "n_match", [math.nan, np.array([1.0, math.nan])], ids=["scalar", "array"]
    )
    def test_nan_count_rejected(self, n_match):
        with pytest.raises(DomainError, match="n_match must be in"):
            ml_voltage_closed_form(4, n_match, 5e-6)

    @pytest.mark.parametrize(
        "v_ml", [math.nan, np.array([5e-3, math.nan])], ids=["scalar", "array"]
    )
    def test_inverse_rejects_nan_voltage(self, v_ml):
        # round(nan) once raised ValueError instead
        with pytest.raises(DomainError, match="v_ml must be > 0"):
            invert_ml_voltage_closed_form(v_ml, 4, 5e-6)

    def test_inverse_rejects_equal_branch_resistances(self):
        # every count then gives one voltage; the decode once divided by 0
        bias = BiasConfig(r_match=900.0)
        v = ml_voltage_closed_form(4, 2, 5e-6, bias)
        with pytest.raises(DomainError, match="r_match and r_mismatch must differ"):
            invert_ml_voltage_closed_form(v, 4, 5e-6, bias)


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
        assert search_energy(res.v_ml, 1, array.bias.i_rwl_exact) == 0.0

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
            search_energy(res.v_ml, 4, array.bias.i_rwl_hd, array.bias.t_search),
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("which", ["binary", "ternary"])
    def test_non_finite_targets_rejected(self, which, bad):
        # an infinite ternary target once ended in a ZeroDivisionError, a
        # NaN one in a NaN bias
        targets = {"binary": BINARY_TARGET, "ternary": TERNARY_TARGET, which: bad}
        with pytest.raises(DomainError, match="finite and > 0"):
            invert_energy_targets(targets["binary"], targets["ternary"])

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


class TestRowRecord:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(BiasConfig)])
    def test_every_field_must_be_finite_and_positive(self, field, bad):
        # r_fs_exact = 0 once gave an exact hit v_ml = nan, and a negative
        # one a negative voltage and energy
        with pytest.raises(DomainError, match=f"^{field} must be finite and > 0"):
            BiasConfig(**{field: bad})


class TestOperatingPoint:
    def test_rejected_record_lists_every_broken_rule(self):
        array = TcamArray(2, 2)
        store_word(array, 0, "01")
        before = pickle.dumps(array)
        bad = dataclasses.replace(array.bias, i_rbl_on=10e-6, i_rwl_hd=3e-6)
        with pytest.raises(ConfigError) as info:
            array.bias = bad
        gate, hd_window = info.value.violations
        assert "hTron gate threshold" in gate
        assert "HD mode requires I_RWL > I_C,high" in hd_window
        assert pickle.dumps(array) == before

    # ranges that straddle each rule's bound at the defaults: V_C = 1.2 V,
    # i_g_crit = 20 uA, the array's exact window ~ (2.30, 4.04) uA at
    # V_WRITE = 2 V and the largest state I_C ~ 4.19 uA; both branch
    # resistances draw 900 ohm often, so r_match = r_mismatch comes up
    @given(
        v_write=st.floats(1.1, 2.5),
        i_rbl_on=st.floats(18e-6, 60e-6),
        i_rwl_exact=st.floats(2e-6, 4.3e-6),
        i_rwl_hd=st.floats(4e-6, 9e-6),
        r_match=st.just(900.0) | st.floats(600.0, 1200.0),
        r_mismatch=st.just(900.0) | st.floats(600.0, 1200.0),
    )
    def test_binding_fails_exactly_on_operating_problems(
        self, v_write, i_rbl_on, i_rwl_exact, i_rwl_hd, r_match, r_mismatch
    ):
        bias = BiasConfig(
            v_write=v_write, i_rbl_on=i_rbl_on, i_rwl_exact=i_rwl_exact,
            i_rwl_hd=i_rwl_hd, r_match=r_match, r_mismatch=r_mismatch,
        )
        _, remnants, _ = tcam._state_table(PreisachModel(), v_write)
        i_c = [critical_current_at(p, SuperconductorParams(), 4.0) for p in remnants]
        expected = tcam.operating_problems(
            bias, PreisachModel().v_c, (remnants, i_c)
        )
        if expected:
            with pytest.raises(ConfigError) as info:
                TcamArray(1, 2, bias=bias)
            assert info.value.violations == expected
        else:
            assert TcamArray(1, 2, bias=bias).bias is bias

    # the exact window narrows as V_WRITE falls, to ~ (3.01, 3.73) uA at
    # 1.25 V: a record checked against the fully written device's window
    # (2.11, 4.19) uA binds there and misreads stored words
    @given(
        v_write=st.floats(1.25, 2.35),
        i_rwl_exact=st.floats(2.0e-6, 4.3e-6),
        words=st.lists(st.text("01", min_size=6, max_size=6), min_size=1,
                       max_size=4),
    )
    def test_bound_exact_bias_reads_every_written_word(
        self, v_write, i_rwl_exact, words
    ):
        bias = BiasConfig(v_write=v_write, i_rwl_exact=i_rwl_exact)
        try:
            array = TcamArray(len(words), 6, bias=bias)
        except ConfigError as exc:
            (problem,) = exc.violations
            assert problem.startswith("exact mode requires I_C,low < I_RWL")
            return
        for r, word in enumerate(words):
            store_word(array, r, word)
        for word in words:
            flips = [word[:k] + "10"[int(word[k])] + word[k + 1 :] for k in range(6)]
            for key in [word, *flips]:
                results = search_exact(array, SearchKey(key))
                assert [res.v_ml > 0.0 for res in results] == [
                    stored == key for stored in words
                ]

    @pytest.mark.parametrize("r_match", [800.0, 900.0])
    def test_resistance_order_checked_at_binding(self, r_match):
        # a matched branch no more resistive than a mismatched one (900
        # ohm) once bound, and the HD match line then fell, or stayed
        # flat, as the matched count grew
        rule = "HD mode requires r_match > r_mismatch"
        bad = BiasConfig(r_match=r_match)
        with pytest.raises(ConfigError) as info:
            TcamArray(1, 1, bias=bad)
        assert info.value.violations == [
            f"{rule}: r_match={r_match} ohm vs r_mismatch=900.0 ohm"
        ]
        array = TcamArray(2, 2)
        store_word(array, 0, "01")
        before = pickle.dumps(array)
        with pytest.raises(ConfigError, match=rule):
            array.bias = bad
        assert pickle.dumps(array) == before

    def test_normal_device_skips_the_window_rules(self):
        bias = BiasConfig(i_rbl_on=10e-6, i_rwl_exact=9e-6, i_rwl_hd=1e-6)
        (gate,) = tcam.operating_problems(bias, 1.2, None)
        assert "hTron gate threshold" in gate
        states = ((1.0, -1.0), (2e-6, 4e-6))
        assert len(tcam.operating_problems(bias, 1.2, states)) == 3


class TestSearchPurity:
    def test_searches_change_no_state(self):
        array = TcamArray(3, 4)
        for r, word in enumerate(("0110", "1010", "0001")):
            store_word(array, r, word)
        before = pickle.dumps(array)
        for key in ("0110", "1d0d", "dddd", "1111"):
            search_exact(array, SearchKey(key))
        for key in ("0110", "1001", "0000"):
            search_hd(array, SearchKey(key))
        assert pickle.dumps(array) == before

    @staticmethod
    def _stored(rows, cols, seed):
        array = TcamArray(rows, cols)
        rng = np.random.default_rng(seed)
        for r in range(rows - 1):  # the last row stays unwritten
            store_word(array, r, "".join(map(str, rng.integers(0, 2, cols))))
        return array, rng

    @pytest.mark.parametrize("hd", [False, True])
    @pytest.mark.parametrize("n_keys", [0, 1, 5])
    def test_batches_change_no_state(self, hd, n_keys):
        array, rng = self._stored(4, 6, 5)
        keys = [
            SearchKey("".join(rng.choice(list("01" if hd else "01d"), 6)))
            for _ in range(n_keys)
        ]
        before = pickle.dumps(array)
        for _ in range(2):
            batch = tcam.search_keys(array, keys, hd)
            assert batch.v_ml.shape == (n_keys, 4)
            assert pickle.dumps(array) == before

    def test_searches_of_a_blank_copy_change_neither_array(self):
        array, _ = self._stored(3, 4, 6)
        before = pickle.dumps(array)
        copy = array.blank(2, 7)
        store_word(copy, 0, "0110101")
        copied = pickle.dumps(copy)
        for key in ("0110101", "1d0dd11", "ddddddd"):
            search_exact(copy, SearchKey(key))
        search_hd(copy, SearchKey("0110100"))
        search_exact(array, SearchKey("0110"))
        assert pickle.dumps(copy) == copied
        assert pickle.dumps(array) == before

    def test_searches_of_a_rebound_array_change_no_state(self):
        array, _ = self._stored(3, 5, 7)
        calibrate_exact_bias(array, BINARY_TARGET, TERNARY_TARGET)
        before = pickle.dumps(array)
        for key in ("01101", "1d0d1", "ddddd"):
            search_exact(array, SearchKey(key))
        search_hd(array, SearchKey("01100"))
        assert pickle.dumps(array) == before

    @pytest.mark.parametrize("hd", [False, True])
    def test_rebound_array_searches_like_one_built_with_the_record(self, hd):
        # the row tables follow a bind: a calibrated array searches as
        # one built with the calibrated record, to the bit
        array, rng = self._stored(4, 8, 8)
        keys = [SearchKey(array.read_word(0))] + [
            SearchKey("".join(rng.choice(list("01" if hd else "01d"), 8)))
            for _ in range(6)
        ]
        before = tcam.search_keys(array, keys, hd)
        calibrate_exact_bias(array, 1.2 * BINARY_TARGET, 1.2 * TERNARY_TARGET)
        fresh = TcamArray(4, 8, bias=array.bias)
        fresh.ids[:] = array.ids
        after, want = (tcam.search_keys(a, keys, hd) for a in (array, fresh))
        for k in range(len(keys)):
            assert repr(after.rows(k)) == repr(want.rows(k))
        if not hd:  # exact mode's current changed, and with it the energies
            assert after.energy[0, 0] != before.energy[0, 0]


class TestPerSearchWork:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The number of row-relation evaluations ``tcam`` makes from here
        on, by function name."""
        made = {"_row_conductance": 0, "search_energy": 0}

        def counted(name):
            original = getattr(tcam, name)

            def call(*args, **kwargs):
                made[name] += 1
                return original(*args, **kwargs)

            return call

        for name in made:
            monkeypatch.setattr(tcam, name, counted(name))
        return made

    def test_searches_evaluate_no_row_relation(self, calls):
        array = TcamArray(3, 6)
        bound = dict(calls)
        assert 0 < bound["_row_conductance"] <= 2  # one per mode
        assert 0 < bound["search_energy"] <= 2
        array.blank(5, 6)  # the same width shares the tables
        assert calls == bound
        copy = array.blank(4, 9)
        for name, n in calls.items():
            assert n - bound[name] <= 2
        bound = dict(calls)
        rng = np.random.default_rng(9)
        for target in (array, copy):
            store_word(target, 0, "".join(map(str, rng.integers(0, 2, target.cols))))
            for _ in range(100):
                word = "".join(map(str, rng.integers(0, 2, target.cols)))
                search_exact(target, SearchKey(word))
                search_hd(target, SearchKey(word))
        assert calls == bound


class TestRowTables:
    @pytest.mark.parametrize(
        "bias",
        [BiasConfig(), BiasConfig(i_rwl_exact=3.0e-6, i_rwl_hd=6e-6,
                                  r_match=2000.0, r_gate=40e3)],
        ids=["default", "second-record"],
    )
    def test_entries_equal_each_counts_scalar_evaluation(self, bias):
        # each entry is the expression a row's own scalar evaluation
        # gives, to the bit
        for cols in (1, 2, 7, 48, 200):
            exact, hd = tcam._row_tables(bias, cols)[0]
            assert exact.shape == hd.shape == (3, cols + 2)
            assert exact[:, -1].tolist() == [0.0, 0.0, 0.0]  # a shorted row
            for table, i_rwl, v_of in (
                (exact, bias.i_rwl_exact, lambda n: cols * bias.i_rwl_exact / (
                    (2 * cols - n) / bias.r_gate + n / bias.r_fs_exact
                    + 0 / bias.r_fs_exact)),
                (hd, bias.i_rwl_hd, lambda n: ml_voltage_closed_form(
                    cols, cols - n, bias.i_rwl_hd, bias)),
            ):
                for n in range(cols + 1):
                    v = v_of(n)
                    want = [v, cols * i_rwl * v,
                            search_energy(v, cols, i_rwl, bias.t_search)]
                    assert table[:, n].tolist() == want, (cols, n)


class TestRowTableOverflow:
    # a current whose HD-mode power or energy passes the float range at
    # 16 bits: the CLI once wrote inf into tcam_search.csv
    I_RWL_HD = 3.2e152  # A

    def test_binding_refuses_an_overflowing_record(self):
        array = TcamArray(2, 16)
        good = array.bias
        before = search_hd(array, SearchKey("0" * 16))
        bad = dataclasses.replace(good, i_rwl_hd=self.I_RWL_HD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as exc:
                array.bias = bad
        (message,) = exc.value.violations
        assert message.startswith("HD mode search power or energy of 16 bits")
        assert array.bias is good
        assert search_hd(array, SearchKey("0" * 16)) == before

    def test_a_wider_blank_copy_is_refused(self):
        # the record binds at 1 bit and overflows at 16
        narrow = TcamArray(1, 1, bias=BiasConfig(i_rwl_hd=self.I_RWL_HD))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="16 bits overflows"):
                narrow.blank(2, 16)
        assert narrow.blank(3, 1).cols == 1

    def test_every_table_entry_is_finite_at_the_defaults(self):
        for table in TcamArray(1, 10000)._tables:
            assert np.isfinite(table).all()
            assert not table.flags.writeable


class TestSearchKeyAndTiming:
    def test_key_charset_validated(self):
        with pytest.raises(UsageError):
            SearchKey("01x")

    @pytest.mark.parametrize("search", [search_exact, search_hd])
    @pytest.mark.parametrize("i_rbl_on, i_g_crit", [(10e-6, 20e-6), (40e-6, 40e-6)])
    def test_gate_drive_must_switch_the_htron(self, search, i_rbl_on, i_g_crit):
        # An asserted gate current at or below the threshold switches no
        # branch, so the key never reaches the row: in exact mode every
        # row would read 0 V, even an exact hit.  Binding such a record
        # fails and leaves the array searching with the one it had.
        array = TcamArray(2, 4)
        store_word(array, 0, "1010")
        good = array.bias
        before = search(array, SearchKey("1010"))
        with pytest.raises(ConfigError, match="hTron gate threshold"):
            array.bias = dataclasses.replace(good, i_rbl_on=i_rbl_on, i_g_crit=i_g_crit)
        assert array.bias is good
        assert search(array, SearchKey("1010")) == before
        assert before[0].v_ml > 0.0


class _ReferenceArray:
    """The one-object-per-device model the array is checked against: one
    Preisach state per ferroelectric, every write pulsing every device,
    and a search that visits every branch, counting the gate-driven ones
    and reading each open one's state: in HD mode its remnant sign, in
    exact mode its critical current against I_RWL.  The row conductance
    is then the counted sum: n_gated/r_gate + n_low/r_match +
    (n_open - n_low)/r_mismatch in HD mode, n_gated/r_gate +
    n_open/r_fs_exact in exact mode."""

    def __init__(self, rows, cols, bias, model=None):
        self.model = model or PreisachModel()
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
            n_gated, n_open, n_low, shorted, n_match = 0, 0, 0, False, 0
            for t, (fs1, fs2) in zip(trits, cells):
                stored = 1 if remnant_fraction(fs1) < 0.0 else 0
                n_match += t != "d" and int(t) == stored
                for fe, driven in ((fs1, t in "1d"), (fs2, t in "0d")):
                    p = remnant_fraction(fe)
                    if driven:
                        n_gated += 1
                        continue
                    n_open += 1
                    if hd:
                        n_low += int(p >= 0.0)
                    elif not i_rwl > critical_current_at(p, self.sc, 4.0):
                        shorted = True
            if hd:
                g_row = (
                    n_gated / bias.r_gate
                    + n_low / bias.r_match
                    + (n_open - n_low) / bias.r_mismatch
                )
            else:
                g_row = n_gated / bias.r_gate + n_open / bias.r_fs_exact
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
        rows, cols = 4, 24
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

    @pytest.mark.parametrize("v_write", [2.0, 1.5])
    def test_unwritten_rows_match_per_device_model(self, v_write):
        # A fresh cell reads stored 1, yet both its ferroelectrics sit at
        # negative remnant, so under key 1 its open branch is a mismatched
        # one: the HD count must come from the open branches' states.
        rows, cols = 4, 12
        bias = BiasConfig(v_write=v_write)
        array = TcamArray(rows, cols, bias=bias)
        ref = _ReferenceArray(rows, cols, bias)
        rng = np.random.default_rng(7)
        for row in (1, 3):  # rows 0 and 2 are only ever half-selected
            bits = "".join(map(str, rng.integers(0, 2, cols)))
            store_word(array, row, bits)
            for c, b in enumerate(bits):
                ref.write_bit(row, c, int(b))
        word = array.read_word(1)
        keys = ["1" * cols, "0" * cols, word, word[:-3] + "ddd", "d" * cols]
        keys += ["".join(rng.choice(list("01d"), cols)) for _ in range(6)]
        for k in keys:
            if "d" not in k:
                assert repr(search_hd(array, SearchKey(k))) == repr(ref.search(k, True))
            assert repr(search_exact(array, SearchKey(k))) == repr(ref.search(k, False))


def _state_window(array: TcamArray) -> tuple[float, float]:
    """(largest I_C of a positive-remnant state, smallest I_C of a
    negative one) over the array's state table: the exact-mode bias must
    sit between them for every written bit to read as written."""
    i_c = np.array([critical_current_at(p, array.sc, array.t_op)
                    for p in array._remnants])
    positive = array._remnants >= 0.0
    return i_c[positive].max(), i_c[~positive].min()


@st.composite
def searched_arrays(draw):
    """A random array, some rows left unwritten (None), with a random
    row record inside the valid windows: V_WRITE/2 < V_C < V_WRITE, the
    exact bias inside the state table's I_C window, the HD bias above
    I_C,high, r_match > r_mismatch and a gate drive above threshold."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    v_write = draw(st.floats(1.25, 2.35))
    array = TcamArray(rows, cols, bias=BiasConfig(v_write=v_write))
    word = st.text("01", min_size=cols, max_size=cols)
    words = draw(st.lists(st.none() | word, min_size=rows, max_size=rows))
    for r, w in enumerate(words):
        if w is not None:
            store_word(array, r, w)
    lo, hi = _state_window(array)
    r_mismatch = draw(st.floats(100.0, 5e3))
    array.bias = dataclasses.replace(
        array.bias,
        i_rwl_exact=lo + (hi - lo) * draw(st.floats(0.01, 0.99)),
        i_rwl_hd=critical_window(array.sc, array.t_op)[1]
        * draw(st.floats(1.01, 3.0)),
        i_rbl_on=array.bias.i_g_crit * draw(st.floats(1.01, 5.0)),
        t_search=draw(st.floats(0.05e-9, 2e-9)),
        r_fs_exact=draw(st.floats(100.0, 5e3)),
        r_gate=draw(st.floats(5e3, 1e6)),
        r_match=r_mismatch * draw(st.floats(1.01, 10.0)),
        r_mismatch=r_mismatch,
    )
    # keys near a stored word (kept, flipped or don't-care per trit)
    edits = st.text("kkkkfd", min_size=cols, max_size=cols)
    keys = []
    for base, edit in draw(st.lists(st.tuples(st.sampled_from(words), edits),
                                    min_size=1, max_size=4)):
        base = base or "1" * cols
        keys.append("".join("10"[int(b)] if e == "f" else "d" if e == "d" else b
                            for b, e in zip(base, edit)))
    return array, words, keys


class TestSearchProperties:
    @given(searched_arrays())
    def test_exact_zero_iff_hard_mismatch(self, case):
        array, words, keys = case
        for key in keys:
            for word, res in zip(words, search_exact(array, SearchKey(key))):
                # an unwritten cell has both branches at high I_C, so any
                # open branch shorts its row
                mismatch = any(t != "d" and (word is None or t != b)
                               for t, b in zip(key, word or key))
                assert (res.v_ml == 0.0) == mismatch
                assert res.v_ml >= 0.0

    @given(searched_arrays())
    def test_hd_counts_and_voltage_order(self, case):
        array, words, keys = case
        bias, cols = array.bias, array.cols
        by_count = {}
        for key in (k.replace("d", "0") for k in keys):
            for word, res in zip(words, search_hd(array, SearchKey(key))):
                stored = word or "1" * cols  # fresh devices read stored 1
                assert res.n_match == sum(t == b for t, b in zip(key, stored))
                if word is None:  # every open branch is a mismatched one
                    zero = ml_voltage_closed_form(cols, 0, bias.i_rwl_hd, bias)
                    assert res.v_ml == pytest.approx(zero, rel=1e-12)
                else:
                    by_count.setdefault(res.n_match, []).append(res.v_ml)
        counts = sorted(by_count)
        for lo, hi in zip(counts, counts[1:]):
            assert max(by_count[lo]) < min(by_count[hi])

    @given(searched_arrays())
    def test_sign_is_the_critical_current_rule(self, case):
        # under every record the binding accepts, exact mode's "I_C >=
        # I_RWL shorts the ML" is "remnant < 0" for every reachable state,
        # and HD mode's low-I_C (remnant >= 0) states are the rest
        array = case[0]
        negative = array._remnants < 0.0
        lo, hi = array.exact_window
        for i_rwl in (math.nextafter(lo, math.inf), array.bias.i_rwl_exact,
                      math.nextafter(hi, -math.inf)):
            array.bias = dataclasses.replace(array.bias, i_rwl_exact=i_rwl)
            shorts = array._i_c >= array.bias.i_rwl_exact
            assert np.array_equal(negative, shorts)
            assert np.array_equal(array._negative, shorts.astype(np.float64))
        low_ic = array._remnants >= 0.0
        assert np.array_equal(low_ic, ~shorts)
        assert (array._i_c < array.bias.i_rwl_hd).all()

    @given(
        block=st.integers(1, 1000),
        i_rwl=st.floats(1e-7, 1e-4),
        r_gate=st.floats(5e3, 1e6),
        r_mismatch=st.floats(100.0, 5e3),
        ratio=st.floats(1.01, 10.0),
    )
    def test_decode_round_trips_every_count(self, block, i_rwl, r_gate,
                                            r_mismatch, ratio):
        bias = BiasConfig(r_gate=r_gate, r_match=r_mismatch * ratio,
                          r_mismatch=r_mismatch)
        for m in range(block + 1):
            v = ml_voltage_closed_form(block, m, i_rwl, bias)
            assert invert_ml_voltage_closed_form(v, block, i_rwl, bias) == m


@st.composite
def write_sequences(draw):
    """A random array and a mixed sequence of word writes (row, word) and
    bit writes (row, col, bit)."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    v_write = draw(st.floats(1.25, 2.35))
    row = st.integers(0, rows - 1)
    word = st.text("01", min_size=cols, max_size=cols)
    bit = st.tuples(row, st.integers(0, cols - 1), st.integers(0, 1))
    ops = draw(st.lists(st.tuples(row, word) | bit, max_size=16))
    return TcamArray(rows, cols, bias=BiasConfig(v_write=v_write)), ops


@st.composite
def write_histories(draw):
    """A small array, its write voltage and up to four word writes (row,
    word) and bit writes (row, col, bit) into its first k rows, k drawn
    from 1..rows, so the rows after them are only ever half-selected."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    v_write = draw(st.floats(1.25, 2.35))
    row = st.integers(0, draw(st.integers(1, rows)) - 1)
    word = st.text("01", min_size=cols, max_size=cols)
    bit = st.tuples(row, st.integers(0, cols - 1), st.integers(0, 1))
    return rows, cols, v_write, draw(st.lists(st.tuples(row, word) | bit, max_size=4))


_TEN_STATE = TcamArray(1, 1, fe_model=PreisachModel(sigma_v=0.4))


@st.composite
def wide_write_histories(draw):
    """A 10-state array of up to 3 rows and 40 columns, and one to three
    word writes (row, word) and bit writes (row, col, bit) into its
    first k rows, k drawn from 1..rows."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    row = st.integers(0, draw(st.integers(1, rows)) - 1)
    word = st.text("01", min_size=cols, max_size=cols)
    bit = st.tuples(row, st.integers(0, cols - 1), st.integers(0, 1))
    ops = st.lists(st.tuples(row, word) | bit, min_size=1, max_size=3)
    return rows, cols, draw(ops)


class TestWriteProperties:
    @given(wide_write_histories())
    def test_ten_state_devices_follow_the_per_device_model(self, case):
        # wide words walk long pulse sequences through the closure of a
        # table larger than the default one
        rows, cols, ops = case
        array = _TEN_STATE.blank(rows, cols)
        assert len(array._states) == 10
        ref = _ReferenceArray(rows, cols, array.bias, array.fe_model)
        for op in ops:
            if len(op) == 2:
                row, word = op
                store_word(array, row, word)
                for c, b in enumerate(word):
                    ref.write_bit(row, c, int(b))
            else:
                write_bit(array, *op)
                ref.write_bit(*op)
            for r, c, branch in itertools.product(range(rows), range(cols), (1, 2)):
                fe = array.fe_state(r, c, branch)
                want = ref.fe[r][c][branch - 1]
                assert np.array_equal(fe.relay_up, want.relay_up)
                assert fe.last_v == want.last_v

    @given(write_histories())
    def test_every_device_follows_the_per_device_model(self, case):
        # the composed word write against one relay model per device,
        # every write pulsing every device column by column
        rows, cols, v_write, ops = case
        bias = BiasConfig(v_write=v_write)
        array = TcamArray(rows, cols, bias=bias)
        ref = _ReferenceArray(rows, cols, bias)
        for op in ops:
            if len(op) == 2:
                row, word = op
                store_word(array, row, word)
                for c, b in enumerate(word):
                    ref.write_bit(row, c, int(b))
            else:
                write_bit(array, *op)
                ref.write_bit(*op)
            for r, c, branch in itertools.product(range(rows), range(cols), (1, 2)):
                fe = array.fe_state(r, c, branch)
                want = ref.fe[r][c][branch - 1]
                assert np.array_equal(fe.relay_up, want.relay_up)
                assert fe.last_v == want.last_v

    @given(write_sequences())
    def test_reads_return_the_last_write(self, case):
        # criterion 7's law on random sequences: a half-select pulse
        # shrinks a remnant but never flips its sign
        array, ops = case
        expected = [["1"] * array.cols for _ in range(array.rows)]  # fresh
        for op in ops:
            before = [list(array.read_word(r)) for r in range(array.rows)]
            if len(op) == 2:
                row, word = op
                store_word(array, row, word)
                expected[row] = list(word)
            else:
                row, col, value = op
                write_bit(array, row, col, value)
                expected[row][col] = str(value)
                before[row][col] = str(value)
                after = [[str(array.read_bit(r, c)) for c in range(array.cols)]
                         for r in range(array.rows)]
                assert after == before  # no other cell's bit changed
            assert [array.read_word(r) for r in range(array.rows)] == [
                "".join(bits) for bits in expected
            ]


class TestBatchedSearch:
    @pytest.mark.parametrize("hd", [False, True])
    def test_batch_rows_equal_single_key_searches(self, hd):
        array = TcamArray(5, 10)
        rng = np.random.default_rng(3)
        for row in (0, 1, 3):  # rows 2 and 4 stay unwritten
            store_word(array, row, "".join(map(str, rng.integers(0, 2, 10))))
        trits = "01" if hd else "01d"
        keys = [SearchKey("".join(rng.choice(list(trits), 10))) for _ in range(7)]
        keys.append(SearchKey(array.read_word(3)))
        batch = tcam.search_keys(array, keys, hd)
        assert batch.v_ml.shape == batch.n_match.shape == (len(keys), 5)
        search = search_hd if hd else search_exact
        for k, key in enumerate(keys):
            assert repr(batch.rows(k)) == repr(search(array, key))

    def test_rows_are_match_line_results(self):
        array = TcamArray(3, 4)
        store_word(array, 0, "0110")
        batch = tcam.search_keys(array, [SearchKey("0110"), SearchKey("d11d")],
                                 hd=False)
        for k in range(2):
            rows = batch.rows(k)
            assert len(rows) == 3
            for r, result in enumerate(rows):
                assert type(result) is tcam.MatchLineResult
                assert list(map(type, result)) == [float, int, float, float]
                assert result._fields == ("v_ml", "n_match", "power", "energy")
                assert result._asdict() == {
                    "v_ml": batch.v_ml[k, r], "n_match": batch.n_match[k, r],
                    "power": batch.power[k, r], "energy": batch.energy[k, r],
                }
                assert result.v_ml == result[0] and result.energy == result[3]
        assert batch.rows(0)[0].v_ml > 0.0 and batch.rows(0)[1].v_ml == 0.0

    @pytest.mark.parametrize("hd", [False, True])
    def test_no_keys_give_no_results(self, hd):
        array = TcamArray(3, 4)
        store_word(array, 0, "0110")
        batch = tcam.search_keys(array, [], hd)
        for field in (batch.v_ml, batch.n_match, batch.power, batch.energy):
            assert field.shape == (0, 3)
