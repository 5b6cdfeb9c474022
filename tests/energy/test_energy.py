"""Tests for the energy model."""

import pytest

from repro.energy.components import ComponentEnergies, DEFAULT_ENERGIES
from repro.energy.model import EnergyBreakdown, EnergyModel


class TestComponents:
    def test_extended_llc_costs_more_per_byte_than_conventional(self):
        assert DEFAULT_ENERGIES.extended_llc_pj_per_byte > DEFAULT_ENERGIES.llc_pj_per_byte

    def test_dram_is_most_expensive_per_byte(self):
        e = DEFAULT_ENERGIES
        assert e.dram_pj_per_byte > e.extended_llc_pj_per_byte > e.llc_pj_per_byte

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ComponentEnergies(dram_pj_per_byte=-1.0)
        with pytest.raises(ValueError):
            ComponentEnergies(core_clock_ghz=0.0)


class TestEnergyModel:
    def _compute(self, **overrides):
        defaults = dict(
            execution_cycles=1e9,
            instructions=2e9,
            dram_bytes=1e11,
            llc_bytes=5e10,
            extended_llc_bytes=0.0,
            l1_bytes=2e11,
            noc_bytes=1e11,
            num_compute_sms=68,
        )
        defaults.update(overrides)
        return EnergyModel().compute(**defaults)

    def test_total_is_sum_of_components(self):
        breakdown = self._compute()
        assert breakdown.total_j == pytest.approx(sum(breakdown.as_dict().values()))

    def test_more_dram_traffic_costs_more_energy(self):
        low = self._compute(dram_bytes=1e10)
        high = self._compute(dram_bytes=2e11)
        assert high.total_j > low.total_j

    def test_power_gating_saves_static_energy(self):
        all_on = self._compute(num_compute_sms=68, num_gated_sms=0)
        gated = self._compute(num_compute_sms=24, num_gated_sms=44)
        assert gated.static_j < all_on.static_j

    def test_morpheus_controller_energy_only_when_enabled(self):
        off = self._compute(morpheus_enabled=False)
        on = self._compute(morpheus_enabled=True)
        assert off.morpheus_controller_j == 0.0
        assert on.morpheus_controller_j > 0.0

    def test_cache_mode_sms_cost_less_static_power_than_compute(self):
        compute_heavy = self._compute(num_compute_sms=68, num_cache_sms=0)
        cache_heavy = self._compute(num_compute_sms=24, num_cache_sms=44)
        assert cache_heavy.static_j < compute_heavy.static_j

    def test_performance_per_watt(self):
        model = EnergyModel()
        breakdown = self._compute()
        perf_per_watt = model.performance_per_watt(ipc=20.0, breakdown=breakdown, execution_cycles=1e9)
        assert perf_per_watt > 0
        # Same energy, higher IPC -> better efficiency.
        assert model.performance_per_watt(40.0, breakdown, 1e9) > perf_per_watt

    def test_average_power_reasonable_for_gpu(self):
        model = EnergyModel()
        breakdown = self._compute()
        watts = model.average_power_watts(breakdown, execution_cycles=1e9)
        assert 50 < watts < 600

    def test_zero_cycles_handled(self):
        model = EnergyModel()
        breakdown = EnergyBreakdown()
        assert model.performance_per_watt(10.0, breakdown, 0.0) == 0.0
        assert model.average_power_watts(breakdown, 0.0) == 0.0

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            self._compute(execution_cycles=-1.0)
