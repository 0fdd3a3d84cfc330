"""Preisach hysteresis: saturation, remnant behavior, classic loop laws."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryocam.errors import DomainError, UsageError
from cryocam.ferroelectric import (
    PreisachModel,
    apply_voltage,
    apply_waveform,
    remnant_fraction,
)


@pytest.fixture
def model():
    return PreisachModel()


def saturated(model, sign=+1):
    state = model.initial_state()
    apply_voltage(state, sign * model.v_span)
    apply_voltage(state, 0.0)
    return state


class TestSaturationAndRemnant:
    def test_deep_positive_saturation_reaches_ps(self, model):
        state = model.initial_state()
        _, p = apply_voltage(state, model.v_span)
        assert p == pytest.approx(model.p_s, rel=1e-12)

    def test_deep_negative_saturation_reaches_minus_ps(self, model):
        state = saturated(model, +1)
        _, p = apply_voltage(state, -model.v_span)
        assert p == pytest.approx(-model.p_s, rel=1e-12)

    def test_remnant_positive_after_positive_saturation(self, model):
        state = saturated(model, +1)
        r = remnant_fraction(state)
        assert r > 0.99

    def test_remnant_negative_after_negative_saturation(self, model):
        state = saturated(model, -1)
        assert remnant_fraction(state) < -0.99

    def test_saturated_remnant_clamped_on_coarse_grid(self):
        # the normalised weights of this grid sum to 1 + 2 ulp
        coarse = PreisachModel(grid_n=32)
        assert remnant_fraction(saturated(coarse, +1)) == 1.0
        assert remnant_fraction(saturated(coarse, -1)) == -1.0

    def test_remnant_fraction_does_not_mutate(self, model):
        state = model.initial_state()
        apply_voltage(state, model.v_span)  # leave last_v above zero
        before = state.relay_up.copy()
        v_before = state.last_v
        remnant_fraction(state)
        remnant_fraction(state)
        assert np.array_equal(state.relay_up, before)
        assert state.last_v == v_before

    @pytest.mark.parametrize("end", [-1.0, 0.0, 1.0])
    @given(
        history=st.lists(st.floats(-3.0, 3.0), max_size=6),
        size=st.floats(0.05, 3.0),
    )
    def test_remnant_is_the_fraction_left_at_zero_volts(self, end, history, size):
        # a history ending below, at or above 0 V: remnant_fraction reads
        # what driving the device back to 0 V would leave.  The spread is
        # wide enough that a return to 0 V flips hysterons both ways; at
        # the defaults it flips none
        model = PreisachModel(grid_n=32, v_c=0.6, sigma_v=0.4)
        state = model.initial_state()
        apply_waveform(state, [*history, end * size])
        settled = state.clone()
        _, p = apply_voltage(settled, 0.0)
        assert remnant_fraction(state) == pytest.approx(
            np.clip(p / model.p_s, -1.0, 1.0), rel=0.0, abs=1e-12
        )

    def test_odd_symmetry_for_saturating_histories(self, model):
        history = [-model.v_span, 1.4, -0.6, 0.9, 0.0]
        s_pos = model.initial_state()
        trace_pos = apply_waveform(s_pos, history)
        s_neg = model.initial_state()
        trace_neg = apply_waveform(s_neg, [-v for v in history])
        assert np.allclose(trace_pos, -trace_neg, atol=1e-12 * model.p_s)


class TestClassicLoopLaws:
    def test_wipe_out(self, model):
        a, b = 1.5, -0.9
        s1 = model.initial_state()
        apply_waveform(s1, [-model.v_span, a, b, a])
        s2 = model.initial_state()
        apply_waveform(s2, [-model.v_span, a])
        assert np.array_equal(s1.relay_up, s2.relay_up)

    def test_wipe_out_nested(self, model):
        s1 = model.initial_state()
        apply_waveform(s1, [-1.9, 1.6, -0.4, 1.0, 0.2, 1.0, 1.6])
        s2 = model.initial_state()
        apply_waveform(s2, [-1.9, 1.6])
        assert np.array_equal(s1.relay_up, s2.relay_up)

    def test_congruency(self, model):
        v_lo, v_hi = -0.6, 0.9

        def minor_loop_excursion(prefix):
            state = model.initial_state()
            apply_waveform(state, prefix)
            apply_waveform(state, [v_hi, v_lo])  # enter the minor loop
            _, p_hi = apply_voltage(state, v_hi)
            _, p_lo = apply_voltage(state, v_lo)
            _, p_hi2 = apply_voltage(state, v_hi)
            assert p_hi2 == p_hi  # loop is closed once entered
            return p_hi - p_lo

        d1 = minor_loop_excursion([-model.v_span, 1.8])
        d2 = minor_loop_excursion([model.v_span, -1.2, 1.1])
        assert abs(d1 - d2) < 1e-12

    def test_rate_independence(self, model):
        base = [-1.9, 1.2, -0.5, 0.8, 0.0]
        repeated = [-1.9, -1.9, 1.2, 1.2, 1.2, -0.5, 0.8, 0.8, 0.0, 0.0]
        s1 = model.initial_state()
        apply_waveform(s1, base)
        s2 = model.initial_state()
        apply_waveform(s2, repeated)
        assert np.array_equal(s1.relay_up, s2.relay_up)
        assert s1.last_v == s2.last_v

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_small_inputs_flip_under_one_percent(self, model, sign):
        v = sign * (model.v_c - 3.0 * model.sigma_v) * 0.999
        state = saturated(model, -sign)  # opposite saturation, worst case
        before = state.relay_up.copy()
        apply_voltage(state, v)
        flipped = model.weights[state.relay_up != before].sum()
        assert flipped < 0.01


class TestWaveforms:
    def test_trace_length_and_fold_equivalence(self, model):
        samples = [0.3, 1.1, -0.2, 0.5]
        s1 = model.initial_state()
        trace = apply_waveform(s1, samples)
        assert trace.shape == (4,)
        s2 = model.initial_state()
        for v in samples:
            _, p = apply_voltage(s2, v)
        assert trace[-1] == p
        assert np.array_equal(s1.relay_up, s2.relay_up)

    def test_empty_waveform_rejected(self, model):
        with pytest.raises(UsageError):
            apply_waveform(model.initial_state(), [])

    def test_major_loop_retraces_after_first_cycle(self, model):
        leg = 120
        v_max = model.v_span
        up = np.linspace(-v_max, v_max, leg)
        down = np.linspace(v_max, -v_max, leg)
        cycle = np.concatenate([up, down])
        state = model.initial_state()
        apply_waveform(state, [-v_max])
        first = apply_waveform(state, cycle)
        second = apply_waveform(state, cycle)
        assert np.array_equal(first, second)

    def test_major_loop_opening_at_zero(self, model):
        state = model.initial_state()
        trace = apply_waveform(state, [0.0, model.v_span, 0.0])
        assert trace[-1] > trace[0]  # remnant opened up by the excursion

    def test_major_loop_area_positive(self, model):
        leg = 200
        v_max = model.v_span
        cycle = np.concatenate(
            [np.linspace(-v_max, v_max, leg), np.linspace(v_max, -v_max, leg)]
        )
        state = model.initial_state()
        apply_waveform(state, [-v_max])
        p = apply_waveform(state, cycle)
        # hysteresis loss per cycle = loop integral of V dP > 0
        v_closed = np.append(cycle, cycle[0])
        p_closed = np.append(p, p[0])
        area = np.sum(0.5 * (v_closed[1:] + v_closed[:-1]) * np.diff(p_closed))
        assert area > 0.0

    def test_subthreshold_sweep_is_loopless(self, model):
        assert model.reversible_span > 0.0
        v_small = 0.9 * model.reversible_span
        leg = 50
        cycle = np.concatenate(
            [np.linspace(-v_small, v_small, leg), np.linspace(v_small, -v_small, leg)]
        )
        state = saturated(model, +1)
        before = state.relay_up.copy()
        trace = apply_waveform(state, cycle)
        assert np.array_equal(state.relay_up, before)
        assert float(np.ptp(trace)) == 0.0


class TestDisturbProtocol:
    @pytest.mark.parametrize("stored_sign", [+1, -1])
    def test_half_select_pulses_never_flip_sign(self, model, stored_sign):
        v_half = 1.0  # V_WRITE/2 at the default 2 V write
        state = saturated(model, stored_sign)
        for k in range(1000):
            apply_voltage(state, v_half if k % 2 == 0 else -v_half)
            apply_voltage(state, 0.0)
        r = remnant_fraction(state)
        assert r * stored_sign > 0.0


class TestModelValidation:
    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            PreisachModel(grid_n=8)

    @pytest.mark.parametrize(
        "kwargs", [{"p_s": 0.0}, {"v_c": -1.0}, {"sigma_v": 0.0}]
    )
    def test_bad_density_parameters(self, kwargs):
        with pytest.raises(DomainError):
            PreisachModel(**kwargs)

    def test_weights_normalized_on_half_plane(self, model):
        assert model.weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(model.weights >= 0.0)
        assert np.all(model.alpha >= model.beta)

    def test_non_finite_voltage_rejected(self, model):
        with pytest.raises(DomainError):
            apply_voltage(model.initial_state(), float("nan"))
