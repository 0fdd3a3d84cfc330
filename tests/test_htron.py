"""hTron switch semantics: the strict gate threshold, which the gate rule
of ``tcam.operating_problems`` states, and the threshold, resistance and
latency it takes from the row record."""

import dataclasses

import numpy as np
import pytest

from cryocam.errors import DomainError
from cryocam.ferroelectric import PreisachModel
from cryocam.tcam import BiasConfig, TcamArray, operating_problems

I_G_CRIT = BiasConfig().i_g_crit
V_C = PreisachModel().v_c


def gate_problems(i_rbl_on: float) -> list[str]:
    """The operating problems of the default record driven at
    ``i_rbl_on``; every other rule holds there, so only the gate rule can
    speak."""
    return operating_problems(BiasConfig(i_rbl_on=i_rbl_on), V_C, None)


class TestSwitching:
    """``gate_problems(i)`` is empty exactly when a gate drive of ``i``
    switches the hTron: strictly above the threshold."""

    def test_idle_stays_superconducting(self):
        # a record never carries an idle drive: 0 A is no asserted current
        with pytest.raises(DomainError, match="i_rbl_on"):
            BiasConfig(i_rbl_on=0.0)

    def test_gate_overdrive_switches(self):
        assert gate_problems(25e-6) == []
        assert gate_problems(np.nextafter(I_G_CRIT, 1.0)) == []

    def test_exact_threshold_stays_superconducting(self):
        for i in (I_G_CRIT, np.nextafter(I_G_CRIT, 0.0)):
            (problem,) = gate_problems(i)
            assert "hTron gate threshold" in problem

    def test_monotone_threshold_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g1, g2 = sorted(rng.uniform(0.0, 50e-6, size=2))
            if not gate_problems(g1):
                assert not gate_problems(g2)

    def test_negative_currents_rejected(self):
        with pytest.raises(DomainError, match="i_rbl_on"):
            BiasConfig(i_rbl_on=-1e-6)

    def test_record_is_frozen(self):
        bias = BiasConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            bias.i_g_crit = 0.0
        assert bias == BiasConfig()

    def test_default_gate_threshold(self):
        assert BiasConfig().i_g_crit == pytest.approx(20e-6)

    @pytest.mark.parametrize("i_g_crit", [0.0, -1e-6])
    def test_non_positive_threshold_rejected(self, i_g_crit):
        # a threshold at or below 0 A would switch every branch, driven or not
        with pytest.raises(DomainError, match="i_g_crit"):
            BiasConfig(i_g_crit=i_g_crit)


class TestResistanceAndLatency:
    """The resistive channel and the switching time are the row record's
    r_gate and t_search; the record validates them."""

    def test_default_latency_is_search_time(self):
        assert BiasConfig().t_search == pytest.approx(0.3e-9)

    @pytest.mark.parametrize("kwargs", [{"r_gate": 0.0}, {"t_search": 0.0}])
    def test_invalid_device_rejected(self, kwargs):
        with pytest.raises(DomainError):
            TcamArray(1, 1, bias=BiasConfig(**kwargs))
