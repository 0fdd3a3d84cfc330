"""hTron switch semantics: the strict gate threshold, which the gate rule
``tcam.gate_problem`` states, and the resistance and latency it takes
from the row record."""

import dataclasses

import numpy as np
import pytest

from cryocam.errors import DomainError
from cryocam.htron import HtronDevice
from cryocam.tcam import BiasConfig, TcamArray, gate_problem

I_G_CRIT = HtronDevice().i_g_crit


class TestSwitching:
    """``gate_problem(i, i_g_crit)`` is None exactly when a gate drive of
    ``i`` switches the hTron: strictly above the threshold."""

    def test_idle_stays_superconducting(self):
        assert "hTron gate threshold" in gate_problem(0.0, I_G_CRIT)

    def test_gate_overdrive_switches(self):
        assert gate_problem(25e-6, I_G_CRIT) is None
        assert gate_problem(np.nextafter(I_G_CRIT, 1.0), I_G_CRIT) is None

    def test_exact_threshold_stays_superconducting(self):
        assert gate_problem(I_G_CRIT, I_G_CRIT) is not None
        assert gate_problem(np.nextafter(I_G_CRIT, 0.0), I_G_CRIT) is not None

    def test_monotone_threshold_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g1, g2 = sorted(rng.uniform(0.0, 50e-6, size=2))
            if gate_problem(g1, I_G_CRIT) is None:
                assert gate_problem(g2, I_G_CRIT) is None

    def test_negative_currents_rejected(self):
        assert gate_problem(-1e-6, I_G_CRIT) is not None

    def test_record_is_frozen(self):
        dev = HtronDevice()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dev.i_g_crit = 0.0
        assert dev == HtronDevice()

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
