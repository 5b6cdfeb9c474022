"""Search problems: how a candidate configuration earns its fitness.

A :class:`SearchProblem` binds a :class:`~repro.search.space.SearchSpace`
to an evaluator; :meth:`SearchProblem.evaluate` turns one candidate into an
:class:`Evaluation` (fitness plus diagnostic metrics), and
:meth:`SearchProblem.baseline` scores the hand-tuned reference
configuration every search is trying to beat.

Both concrete problems ride the two-phase cache:

* :class:`ScenarioSearchProblem` — scores a policy-knob candidate by
  running a scenario timeline through
  :class:`~repro.scenarios.engine.ScenarioEngine` and measuring the
  multi-tenant weighted speedup against *fixed* solo references (computed
  once, under the default hand-tuned policy, so every candidate is judged
  against the same yardstick).  Replay-affecting axes (predictor, SM
  splits) miss the replay tier at most once per distinct leaf; a re-run of
  the same seeded search is served entirely from the scenario tier.
* :class:`EnvelopeSearchProblem` — tunes one leaf's
  :class:`~repro.sim.performance_model.ResourceEnvelope` bandwidth shares
  under a total-share budget.  The single replay measurement is fetched
  once, one :meth:`~repro.runner.runner.ExperimentRunner.scorer_for`
  scorer hoists it, and every candidate is scored analytically via
  :meth:`~repro.sim.vector_model.MeasurementScorer.score_envelope` — no
  cache traffic per candidate, zero replays after the first fetch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from repro.analysis.scenarios import fairness, weighted_speedup
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.runner.runner import ExperimentRunner, active_runner
from repro.scenarios.engine import ContentionModel, ScenarioEngine
from repro.scenarios.library import get_scenario
from repro.scenarios.policy import DynamicCapacityManager, TransitionCostModel
from repro.scenarios.spec import ScenarioSpec
from repro.sim.performance_model import ResourceEnvelope
from repro.sim.simulator import SimulationConfig
from repro.sim.vector_model import MeasurementScorer
from repro.systems.fidelity import FAST_FIDELITY, Fidelity, get_fidelity
from repro.workloads.applications import get_application

from .space import Candidate, SearchSpace, envelope_space, morpheus_policy_space

#: Transition-model axes forwarded verbatim to :class:`TransitionCostModel`.
_TRANSITION_AXES = (
    "dirty_fraction",
    "warmup_fill_fraction",
    "flush_bandwidth_gbps_per_sm",
)


@dataclass(frozen=True)
class Evaluation:
    """One candidate's measured outcome."""

    candidate: Dict[str, object]
    fitness: float
    metrics: Dict[str, float] = field(default_factory=dict)


class SearchProblem(abc.ABC):
    """Binds a search space to a candidate evaluator."""

    space: SearchSpace

    @abc.abstractmethod
    def evaluate(self, candidate: Candidate) -> Evaluation:
        """Score one candidate (higher fitness is better)."""

    @abc.abstractmethod
    def baseline(self) -> Evaluation:
        """Score the hand-tuned reference configuration (the bar to beat)."""


class ScenarioSearchProblem(SearchProblem):
    """Tune the dynamic-policy knobs on one scenario timeline.

    Fitness is :func:`~repro.analysis.scenarios.weighted_speedup` against
    per-application solo references computed **once** with the default
    hand-tuned :class:`DynamicCapacityManager` — a fixed yardstick, so two
    candidates' fitnesses are always comparable and the baseline's fitness
    is exactly the hand-tuned configuration's weighted speedup.

    Args:
        scenario: A :class:`ScenarioSpec` or a library scenario name
            (default ``"mixed_tenancy"``, the co-run timeline ROADMAP open
            item 1 targets).
        system: Scenario system to evaluate under.
        runner: Runner executing the leaves; ``None`` resolves the
            process-wide runner at call time.
        space: Knob space; default :func:`morpheus_policy_space` for the
            given GPU.
    """

    def __init__(
        self,
        scenario: Union[str, ScenarioSpec] = "mixed_tenancy",
        system: str = "Morpheus-Basic",
        runner: Optional[ExperimentRunner] = None,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Union[str, Fidelity] = FAST_FIDELITY,
        seed: int = 1,
        space: Optional[SearchSpace] = None,
        contention: Optional[ContentionModel] = None,
    ) -> None:
        self.scenario = (
            get_scenario(scenario) if isinstance(scenario, str) else scenario
        )
        self.system = system
        self.runner = runner
        self.gpu = gpu
        self.fidelity = get_fidelity(fidelity)
        self.seed = seed
        self.space = space or morpheus_policy_space(gpu)
        self.contention = contention
        self._references: Optional[Dict[str, float]] = None

    # -- candidate lowering ------------------------------------------------------------

    def policy_for(self, candidate: Mapping[str, object]) -> DynamicCapacityManager:
        """The :class:`DynamicCapacityManager` a candidate configures.

        Axes a reduced space omits keep their hand-tuned defaults, so the
        problem works over any subset of :func:`morpheus_policy_space`.
        """
        return DynamicCapacityManager(
            hysteresis_sms=int(candidate.get("hysteresis_sms", 0)),
            arbitration=str(candidate.get("arbitration", "proportional")),
            pool_cap_sms=candidate.get("pool_cap_sms"),  # type: ignore[arg-type]
        )

    def transition_model_for(
        self, candidate: Mapping[str, object]
    ) -> TransitionCostModel:
        """The :class:`TransitionCostModel` a candidate configures."""
        kwargs = {axis: candidate[axis] for axis in _TRANSITION_AXES if axis in candidate}
        return TransitionCostModel(**kwargs)  # type: ignore[arg-type]

    def _engine(
        self,
        transition_model: Optional[TransitionCostModel] = None,
        predictor: str = "bloom",
    ) -> ScenarioEngine:
        return ScenarioEngine(
            runner=self.runner,
            gpu=self.gpu,
            fidelity=self.fidelity,
            seed=self.seed,
            transition_model=transition_model,
            predictor=predictor,
            contention=self.contention,
        )

    def reference_ipcs(self) -> Dict[str, float]:
        """The fixed per-application solo references (memoized)."""
        if self._references is None:
            engine = self._engine()
            self._references = engine.solo_reference_ipcs(
                self.scenario, self.system, DynamicCapacityManager()
            )
        return dict(self._references)

    # -- SearchProblem interface -------------------------------------------------------

    def evaluate(self, candidate: Candidate) -> Evaluation:
        self.space.validate(candidate)
        engine = self._engine(
            transition_model=self.transition_model_for(candidate),
            predictor=str(candidate.get("predictor", "bloom")),
        )
        return self._evaluate_with(engine, self.policy_for(candidate), dict(candidate))

    def baseline(self) -> Evaluation:
        """The hand-tuned default: ``DynamicCapacityManager()`` + default
        transition model + default predictor (an empty candidate)."""
        return self._evaluate_with(self._engine(), DynamicCapacityManager(), {})

    def _evaluate_with(
        self,
        engine: ScenarioEngine,
        policy: DynamicCapacityManager,
        candidate: Dict[str, object],
    ) -> Evaluation:
        references = self.reference_ipcs()
        result = engine.run(self.scenario, self.system, policy)
        fitness = weighted_speedup(result, references)
        metrics = {
            "weighted_speedup": fitness,
            "fairness": fairness(result, references),
            "transition_cycles": result.transition_cycles,
            "total_cycles": result.total_cycles,
        }
        return Evaluation(candidate=candidate, fitness=fitness, metrics=metrics)


class EnvelopeSearchProblem(SearchProblem):
    """Tune one leaf's resource-envelope shares under a share budget.

    Models a fabric-allocation question: each of the three shared channels
    (DRAM, LLC, NoC) can be granted at most its full bandwidth, but the sum
    of grants is capped at ``budget`` — giving every channel 100 % is not
    allowed, so the search must find where bandwidth matters most for the
    application.  Fitness is the scored IPC minus a linear penalty per unit
    of budget overrun (soft constraint, so agents get a gradient back
    toward feasibility instead of a cliff).

    The replay measurement is fetched once (one replay-tier access for the
    whole search) and hoisted into one
    :meth:`ExperimentRunner.scorer_for` scorer; every candidate is scored
    with its ``score_envelope`` — pure analytic scoring, zero cache
    traffic per step.
    """

    def __init__(
        self,
        application: str = "kmeans",
        runner: Optional[ExperimentRunner] = None,
        fidelity: Union[str, Fidelity] = FAST_FIDELITY,
        num_compute_sms: int = 34,
        seed: int = 1,
        budget: float = 2.2,
        penalty: float = 2.0,
        space: Optional[SearchSpace] = None,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self.application = application
        self.runner = runner
        self.fidelity = get_fidelity(fidelity)
        self.num_compute_sms = num_compute_sms
        self.seed = seed
        self.budget = budget
        self.penalty = penalty
        self.space = space or envelope_space()
        self.profile = get_application(application)
        self._scorer: Optional[MeasurementScorer] = None

    def _base_config(self) -> SimulationConfig:
        return self.fidelity.config(
            num_compute_sms=self.num_compute_sms,
            power_gate_unused=True,
            system_name="envelope-search",
            seed=self.seed,
        )

    def _active_runner(self) -> ExperimentRunner:
        return self.runner if self.runner is not None else active_runner()

    def evaluate(self, candidate: Candidate) -> Evaluation:
        self.space.validate(candidate)
        envelope = ResourceEnvelope(**{k: float(v) for k, v in candidate.items()})
        return self._evaluate_envelope(envelope, dict(candidate))

    def baseline(self) -> Evaluation:
        """An even split of the budget across the three channels."""
        share = min(1.0, self.budget / 3.0)
        envelope = ResourceEnvelope(
            dram_bandwidth_share=share,
            llc_bandwidth_share=share,
            noc_bandwidth_share=share,
        )
        return self._evaluate_envelope(envelope, {})

    def _evaluate_envelope(
        self, envelope: ResourceEnvelope, candidate: Dict[str, object]
    ) -> Evaluation:
        if self._scorer is None:
            runner = self._active_runner()
            base = self._base_config()
            measurement = runner.measurement_for(self.profile, base)
            self._scorer = runner.scorer_for(self.profile, base, measurement)
        stats = self._scorer.score_envelope(envelope)
        spent = (
            envelope.dram_bandwidth_share
            + envelope.llc_bandwidth_share
            + envelope.noc_bandwidth_share
        )
        overrun = max(0.0, spent - self.budget)
        fitness = stats.ipc - self.penalty * overrun
        metrics = {
            "ipc": stats.ipc,
            "share_total": spent,
            "budget_overrun": overrun,
        }
        return Evaluation(candidate=candidate, fitness=fitness, metrics=metrics)
