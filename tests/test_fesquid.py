"""FeSQUID device: state-dependent I_C, behavioral I-V, RCSJ validation."""

import math

import numpy as np
import pytest

from cryocam import fesquid
from cryocam.device_physics import SuperconductorParams
from cryocam.errors import DomainError, NumericError
from cryocam.fesquid import (
    FeSquidDevice,
    RcsjParams,
    branch_voltage,
    critical_current,
    simulate_rcsj_iv,
)
from cryocam.ferroelectric import PreisachModel, apply_voltage
from cryocam.tcam import BiasConfig

# Hand-evaluated through the gap and critical-current closed forms at
# t_c_base 9.2 K, delta_tc 0.4 K, r_n 1 kOhm, t_op 4 K.
IC_HIGH_NB_LIKE = 2.198021e-6  # A, negative remnant (T_C = 9.6 K)
IC_LOW_NB_LIKE = 1.977447e-6  # A, positive remnant (T_C = 8.8 K)


@pytest.fixture(scope="module")
def fe_model():
    return PreisachModel()


def make_device(fe_model, remnant_sign, sc=None, **kwargs):
    state = fe_model.initial_state()
    apply_voltage(state, remnant_sign * fe_model.v_span)
    apply_voltage(state, 0.0)
    return FeSquidDevice(fe=state, sc=sc or SuperconductorParams(), **kwargs)


class TestCriticalCurrent:
    def test_high_exceeds_low(self, fe_model):
        high = critical_current(make_device(fe_model, -1))
        low = critical_current(make_device(fe_model, +1))
        assert high > low

    def test_values_at_spec_example_parameters(self, fe_model):
        sc = SuperconductorParams(t_c_base=9.2, r_n=1e3, delta_tc=0.4)
        high = critical_current(make_device(fe_model, -1, sc=sc))
        low = critical_current(make_device(fe_model, +1, sc=sc))
        assert high == pytest.approx(IC_HIGH_NB_LIKE, rel=1e-5)
        assert low == pytest.approx(IC_LOW_NB_LIKE, rel=1e-5)

    def test_partial_remnant_sits_between_extremes(self, fe_model):
        dev = make_device(fe_model, -1)
        low = critical_current(make_device(fe_model, +1))
        high = critical_current(dev)
        # knock the remnant partway down with a sub-saturating pulse
        apply_voltage(dev.fe, 1.1)
        apply_voltage(dev.fe, 0.0)
        mid = critical_current(dev)
        assert low < mid < high

    def test_normal_state_error(self, fe_model):
        sc = SuperconductorParams(t_c_base=4.2, r_n=1e3, delta_tc=0.4)
        dev = make_device(fe_model, +1, sc=sc)  # T_C = 3.8 K < t_op
        with pytest.raises(DomainError, match="normal"):
            critical_current(dev)


class TestBranchVoltage:
    def test_zero_bias_zero_voltage(self, fe_model):
        assert branch_voltage(make_device(fe_model, -1), 0.0, BiasConfig()) == 0.0

    def test_zero_exactly_up_to_critical_current(self, fe_model):
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        for i in np.linspace(0.0, i_c, 40):
            assert branch_voltage(dev, float(i), BiasConfig()) == 0.0

    def test_state_discrimination_in_window(self, fe_model):
        dev_high = make_device(fe_model, -1)
        dev_low = make_device(fe_model, +1)
        i_low = critical_current(dev_low)
        i_high = critical_current(dev_high)
        for i in np.linspace(i_low * 1.01, i_high * 0.99, 25):
            v_high = branch_voltage(dev_high, float(i), BiasConfig())
            v_low = branch_voltage(dev_low, float(i), BiasConfig())
            assert v_high == 0.0
            assert v_low == pytest.approx(i * BiasConfig().r_match)
            assert v_low > 0.0

    def test_monotone_non_decreasing(self, fe_model):
        dev = make_device(fe_model, +1)
        grid = np.linspace(0.0, 3.0 * critical_current(dev), 200)
        volts = [branch_voltage(dev, float(i), BiasConfig()) for i in grid]
        assert all(v2 >= v1 for v1, v2 in zip(volts, volts[1:]))

    def test_negative_bias_rejected(self, fe_model):
        with pytest.raises(DomainError):
            branch_voltage(make_device(fe_model, -1), -1e-6, BiasConfig())


class TestRcsj:
    def test_overdamped_matches_analytic_iv(self, fe_model):
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        r = dev.sc.r_n
        ratios = [1.1, 1.5, 2.0, 3.0]
        curve = simulate_rcsj_iv(
            dev, [x * i_c for x in ratios], RcsjParams(beta_c=0.0)
        )
        for x, v in zip(ratios, curve.v_avg):
            oracle = r * i_c * math.sqrt(x * x - 1.0)
            assert abs(v - oracle) / oracle < 0.01

    def test_double_critical_current_gives_sqrt3(self, fe_model):
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        curve = simulate_rcsj_iv(dev, [2.0 * i_c], RcsjParams(beta_c=0.0))
        assert curve.v_avg[0] == pytest.approx(
            math.sqrt(3.0) * i_c * dev.sc.r_n, rel=1e-3
        )

    def test_phase_locks_below_critical_current(self, fe_model):
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        curve = simulate_rcsj_iv(dev, [0.3 * i_c, 0.9 * i_c], RcsjParams(beta_c=0.0))
        assert np.all(np.abs(curve.v_avg) < 1e-9 * i_c * dev.sc.r_n)

    def test_underdamped_sweep_is_hysteretic(self, fe_model):
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        params = RcsjParams(beta_c=25.0)
        probe = 0.6 * i_c
        up = simulate_rcsj_iv(dev, [0.2 * i_c, probe], params)
        down = simulate_rcsj_iv(dev, [1.6 * i_c, probe], params)
        v_scale = i_c * dev.sc.r_n
        assert abs(up.v_avg[1]) < 1e-6 * v_scale  # still trapped on the way up
        assert down.v_avg[1] > 0.3 * v_scale  # running state persists down

    def test_behavioral_and_dynamic_agree_overdamped(self, fe_model):
        # the two-resistance behavioral model is a TCAM abstraction; the
        # dynamical solver must still reproduce the r_n-normalized branch
        dev = make_device(fe_model, +1)
        i_c = critical_current(dev)
        i_points = np.array([0.5, 1.2, 2.0, 3.0]) * i_c
        curve = simulate_rcsj_iv(dev, i_points, RcsjParams(beta_c=0.0))
        for i, v in zip(i_points, curve.v_avg):
            oracle = dev.sc.r_n * math.sqrt(max(0.0, i * i - i_c * i_c))
            assert abs(v - oracle) / (dev.sc.r_n * i_c) < 0.01

    def test_bad_bias_points_rejected(self, fe_model):
        dev = make_device(fe_model, -1)
        with pytest.raises(DomainError):
            simulate_rcsj_iv(dev, [], RcsjParams())
        with pytest.raises(DomainError):
            simulate_rcsj_iv(dev, [-1e-6], RcsjParams())


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"beta_c": -0.1}, {"n_steps": 999}, {"settle_periods": 0}],
    )
    def test_invalid_rcsj_params(self, kwargs):
        with pytest.raises(DomainError):
            RcsjParams(**kwargs)

    def test_invalid_device(self, fe_model):
        state = fe_model.initial_state()
        with pytest.raises(DomainError):
            FeSquidDevice(fe=state, sc=SuperconductorParams(), t_op=0.0)
        with pytest.raises(DomainError):
            branch_voltage(make_device(fe_model, +1), 1e-6, BiasConfig(r_match=0.0))
        with pytest.raises(DomainError):
            branch_voltage(
                make_device(fe_model, -1), 1e-6, BiasConfig(r_mismatch=-1.0)
            )


def _rk4_step_ref(phi, u, i, beta_c, h):
    """One fixed RK4 step of the phase equation, written as a plain
    scalar function (the reference for the inlined loop)."""
    sin = math.sin
    h2, h6 = 0.5 * h, h / 6.0
    if beta_c == 0.0:
        k1 = i - sin(phi)
        k2 = i - sin(phi + h2 * k1)
        k3 = i - sin(phi + h2 * k2)
        k4 = i - sin(phi + h * k3)
        return phi + h6 * (k1 + 2.0 * (k2 + k3) + k4), 0.0
    inv_b = 1.0 / beta_c
    k1p = u
    k1u = (i - sin(phi) - u) * inv_b
    p2 = phi + h2 * k1p
    u2 = u + h2 * k1u
    k2p = u2
    k2u = (i - sin(p2) - u2) * inv_b
    p3 = phi + h2 * k2p
    u3 = u + h2 * k2u
    k3p = u3
    k3u = (i - sin(p3) - u3) * inv_b
    p4 = phi + h * k3p
    u4 = u + h * k3u
    k4p = u4
    k4u = (i - sin(p4) - u4) * inv_b
    return (
        phi + h6 * (k1p + 2.0 * (k2p + k3p) + k4p),
        u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u),
    )


def _advance_ref(phi, u, i, beta_c, h, max_steps, target=math.inf):
    """Every step of the budget, with no fixed-point exit; same crossing
    interpolation as the solver."""
    theta = 0.0
    for _ in range(max_steps):
        prev = phi
        phi, u = _rk4_step_ref(phi, u, i, beta_c, h)
        theta += h
        if phi >= target:
            frac = (target - prev) / (phi - prev)
            return phi, u, theta - h + frac * h, True
    return phi, u, theta, False


def _outcome(dev, i_points, params):
    """Bit patterns of the I-V voltages, or the convergence error text."""
    try:
        return [v.hex() for v in simulate_rcsj_iv(dev, i_points, params).v_avg]
    except NumericError as exc:
        return str(exc)


class TestRcsjFixedPointExit:
    @pytest.mark.parametrize("periods", [(1, 2), (5, 10)], ids=["1-2", "5-10"])
    @pytest.mark.parametrize(
        "sweep", [[0.0, 0.5, 1.3], [1.6, 0.6, 1.2]], ids=["up", "down"]
    )
    @pytest.mark.parametrize("beta_c", [0.0, 0.1, 25.0])
    @pytest.mark.parametrize("sign", [-1, +1], ids=["high", "low"])
    def test_matches_every_step_reference(
        self, fe_model, monkeypatch, sign, beta_c, sweep, periods
    ):
        dev = make_device(fe_model, sign)
        i_c = critical_current(dev)
        i_points = [x * i_c for x in sweep]
        params = RcsjParams(
            beta_c=beta_c, settle_periods=periods[0], average_periods=periods[1]
        )
        with monkeypatch.context() as patch:
            patch.setattr(fesquid, "_advance", _advance_ref)
            expected = _outcome(dev, i_points, params)
        assert _outcome(dev, i_points, params) == expected

    @pytest.mark.parametrize(
        ("phi", "u", "beta_c"),
        [(0.0, -0.0, 0.1), (-0.0, 0.0, 0.1), (-0.0, 0.0, 0.0)],
    )
    def test_signed_zero_is_not_a_fixed_point(self, phi, u, beta_c):
        # at i = 0 the first step turns a -0.0 into +0.0: equal as floats,
        # but not the same state, so the loop must take the next step too
        got = fesquid._advance(phi, u, 0.0, beta_c, 1e-3, 10)
        ref = _advance_ref(phi, u, 0.0, beta_c, 1e-3, 10)
        assert [x.hex() for x in got[:2]] == [x.hex() for x in ref[:2]]

    def test_locked_points_stop_early(self, fe_model, monkeypatch):
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        calls = 0
        real_sin = math.sin

        def counting_sin(x):
            nonlocal calls
            calls += 1
            return real_sin(x)

        monkeypatch.setattr(math, "sin", counting_sin)
        params = RcsjParams()
        curve = simulate_rcsj_iv(dev, [0.0, 0.5 * i_c], params)
        assert list(curve.v_avg) == [0.0, 0.0]
        every_step = (
            4 * 2 * params.n_steps
            * (params.settle_periods + params.average_periods // 2)
        )
        assert calls < 0.05 * every_step

    def test_unconverged_phase_reports_cycles(self, fe_model):
        # at beta_c = 25 a locked point still rings after one settle period,
        # so the pilot reads it as running and the window never closes
        dev = make_device(fe_model, -1)
        i_c = critical_current(dev)
        params = RcsjParams(beta_c=25.0, settle_periods=1, average_periods=2)
        with pytest.raises(
            NumericError, match=r"phase advanced only -0\.0275 of 1 cycles"
        ):
            simulate_rcsj_iv(dev, [0.5 * i_c], params)
