"""Tests for Figure 13's predictor axis: Morpheus systems named with a predictor.

A plan spans the axis by naming each predictor as a system, as in
``"Morpheus-Basic(none)"``; :func:`get_system` resolves every name a
:class:`MorpheusSystem` gives itself.
"""

from __future__ import annotations

import pytest

from repro.runner import ExperimentRunner, ExperimentSpec, using_runner
from repro.systems.morpheus_system import MorpheusSystem, MorpheusVariant
from repro.systems.registry import get_system
from runner_test_utils import TINY_FIDELITY

#: Every (variant, predictor) pair, identified by the name its system takes.
MORPHEUS_NAMES = {
    MorpheusSystem(variant, predictor=predictor).name: (variant, predictor)
    for variant in MorpheusVariant
    for predictor in ("bloom", "none", "perfect")
}


class TestPredictorExecution:
    def test_result_get_requires_disambiguation(self, tmp_path):
        spec = ExperimentSpec(
            systems=("Morpheus-Basic(none)",),
            applications=("kmeans",),
            fidelity=TINY_FIDELITY,
            seeds=(1, 2),
        )
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with using_runner(runner):
            result = runner.run_plan(spec)
        with pytest.raises(KeyError, match="ambiguous"):
            result.get("Morpheus-Basic(none)", "kmeans")
        assert result.get("Morpheus-Basic(none)", "kmeans", seed=2).system == (
            "Morpheus-Basic(none)"
        )

    def test_get_system_predictor_override(self):
        system = get_system("Morpheus-ALL(perfect)")
        assert system.predictor == "perfect"
        assert system.name == "Morpheus-ALL(perfect)"
        with pytest.raises(ValueError, match="unknown system"):
            get_system("BL(bloom)")
        with pytest.raises(ValueError, match="unknown system"):
            get_system("Morpheus-ALL(none")


@pytest.mark.parametrize("name", sorted(MORPHEUS_NAMES))
def test_get_system_round_trips_every_morpheus_name(name):
    variant, predictor = MORPHEUS_NAMES[name]
    system = get_system(name, fidelity=TINY_FIDELITY, seed=3)
    assert isinstance(system, MorpheusSystem)
    assert system.name == name
    assert (system.variant, system.predictor) == (variant, predictor)
    assert system.morpheus_config == variant.to_config(predictor)
    assert (system.fidelity, system.seed) == (TINY_FIDELITY, 3)
