"""hTron switch semantics: thresholds, tie-breaks, latency bookkeeping."""

import numpy as np
import pytest

from cryocam.errors import DomainError
from cryocam.htron import (
    RESISTIVE,
    SUPERCONDUCTING,
    HtronDevice,
    apply_drive,
    channel_resistance,
    drive_state,
)


class TestSwitching:
    def test_idle_stays_superconducting(self):
        dev = HtronDevice()
        assert apply_drive(dev, 0.0, 30e-6) == SUPERCONDUCTING

    def test_gate_overdrive_switches(self):
        dev = HtronDevice()
        assert apply_drive(dev, 25e-6, 0.0) == RESISTIVE
        assert channel_resistance(dev) == 50e3

    def test_channel_overdrive_switches(self):
        dev = HtronDevice()
        assert apply_drive(dev, 0.0, 70e-6) == RESISTIVE

    def test_exact_threshold_stays_superconducting(self):
        dev = HtronDevice()
        assert apply_drive(dev, dev.i_g_crit, 0.0) == SUPERCONDUCTING
        assert apply_drive(dev, 0.0, dev.i_ch_crit) == SUPERCONDUCTING

    def test_state_recomputed_each_drive(self):
        dev = HtronDevice()
        apply_drive(dev, 25e-6, 0.0)
        assert dev.state == RESISTIVE
        apply_drive(dev, 0.0, 0.0)
        assert dev.state == SUPERCONDUCTING

    def test_monotone_threshold_property(self):
        rng = np.random.default_rng(11)
        dev = HtronDevice()
        for _ in range(200):
            g1, g2 = sorted(rng.uniform(0.0, 50e-6, size=2))
            b = rng.uniform(0.0, 80e-6)
            s1 = apply_drive(HtronDevice(), g1, b)
            s2 = apply_drive(HtronDevice(), g2, b)
            if s1 == RESISTIVE:
                assert s2 == RESISTIVE
        assert dev.state == SUPERCONDUCTING  # untouched template

    def test_drive_state_leaves_device_untouched(self):
        dev = HtronDevice()
        assert drive_state(dev, 25e-6, 0.0) == RESISTIVE
        assert drive_state(dev, 0.0, 70e-6) == RESISTIVE
        assert dev.state == SUPERCONDUCTING
        assert dev.switch_count == 0

    def test_negative_currents_rejected(self):
        with pytest.raises(DomainError):
            apply_drive(HtronDevice(), -1e-6, 0.0)


class TestResistanceAndLatency:
    def test_resistance_pure_function_of_state(self):
        dev = HtronDevice()
        apply_drive(dev, 30e-6, 0.0)
        assert channel_resistance(dev) == channel_resistance(dev) == dev.r_off
        apply_drive(dev, 0.0, 0.0)
        assert channel_resistance(dev) == 0.0

    def test_switch_events_counted_once_per_transition(self):
        dev = HtronDevice()
        apply_drive(dev, 30e-6, 0.0)  # S -> R
        apply_drive(dev, 30e-6, 0.0)  # stays R, no new event
        apply_drive(dev, 0.0, 0.0)  # R -> S, not counted
        apply_drive(dev, 30e-6, 0.0)  # S -> R
        assert dev.switch_count == 2

    def test_default_latency_is_search_time(self):
        assert HtronDevice().t_switch == pytest.approx(0.3e-9)

    @pytest.mark.parametrize("kwargs", [{"r_off": 0.0}, {"t_switch": 0.0}])
    def test_invalid_device_rejected(self, kwargs):
        with pytest.raises(DomainError):
            HtronDevice(**kwargs)
