"""hTron switch semantics: the strict gate threshold, and the resistance
and latency it takes from the row record."""

import dataclasses

import numpy as np
import pytest

from cryocam.errors import DomainError
from cryocam.htron import RESISTIVE, SUPERCONDUCTING, HtronDevice, drive_state
from cryocam.tcam import BiasConfig, TcamArray


class TestSwitching:
    def test_idle_stays_superconducting(self):
        assert drive_state(HtronDevice(), 0.0) == SUPERCONDUCTING

    def test_gate_overdrive_switches(self):
        assert drive_state(HtronDevice(), 25e-6) == RESISTIVE

    def test_exact_threshold_stays_superconducting(self):
        dev = HtronDevice()
        assert drive_state(dev, dev.i_g_crit) == SUPERCONDUCTING

    def test_monotone_threshold_property(self):
        rng = np.random.default_rng(11)
        dev = HtronDevice()
        for _ in range(200):
            g1, g2 = sorted(rng.uniform(0.0, 50e-6, size=2))
            if drive_state(dev, g1) == RESISTIVE:
                assert drive_state(dev, g2) == RESISTIVE

    def test_drive_state_leaves_device_untouched(self):
        dev = HtronDevice()
        assert drive_state(dev, 25e-6) == RESISTIVE
        assert dev == HtronDevice()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dev.i_g_crit = 0.0

    def test_negative_currents_rejected(self):
        with pytest.raises(DomainError):
            drive_state(HtronDevice(), -1e-6)

    def test_default_gate_threshold(self):
        assert [f.name for f in dataclasses.fields(HtronDevice)] == ["i_g_crit"]
        assert HtronDevice().i_g_crit == pytest.approx(20e-6)

    @pytest.mark.parametrize("i_g_crit", [0.0, -1e-6])
    def test_non_positive_threshold_rejected(self, i_g_crit):
        # a threshold at or below 0 A would switch every branch, driven or not
        with pytest.raises(DomainError):
            HtronDevice(i_g_crit=i_g_crit)


class TestResistanceAndLatency:
    """The resistive channel and the switching time are the row record's
    r_gate and t_search; the array validates them."""

    def test_default_latency_is_search_time(self):
        assert BiasConfig().t_search == pytest.approx(0.3e-9)

    @pytest.mark.parametrize("kwargs", [{"r_gate": 0.0}, {"t_search": 0.0}])
    def test_invalid_device_rejected(self, kwargs):
        with pytest.raises(DomainError):
            TcamArray(1, 1, bias=BiasConfig(**kwargs))
