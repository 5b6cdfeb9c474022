"""Declarative descriptions of simulation work with stable content-hash keys.

Three layers:

* :class:`RunSpec` — one leaf simulation (an application profile under a
  :class:`~repro.sim.simulator.SimulationConfig`).  It derives **two**
  content keys, one per cache tier: :meth:`~RunSpec.replay_key` hashes the
  replay-affecting inputs (profile, GPU, Morpheus config, SM split, trace
  sizing, request interval, seed) plus :data:`REPLAY_SCHEMA_VERSION`, and
  addresses cached :class:`~repro.sim.performance_model.ReplayMeasurement`
  entries; :meth:`~RunSpec.score_key` extends the replay key with the
  analytic scoring parameters (peak IPC, MLP, power gating, system label,
  the shared-bandwidth :class:`~repro.sim.performance_model.ResourceEnvelope`),
  the energy constants and :data:`SCORE_SCHEMA_VERSION`, and addresses
  cached scored :class:`~repro.sim.stats.SimulationStats`.  Changing an
  analytic parameter therefore changes only the score key — the replay tier
  still hits and no trace is re-replayed.
* :class:`ExperimentCell` — one cell of a run matrix: a named evaluated
  system on one application with one seed.
* :class:`ExperimentSpec` — the full matrix (systems x applications x
  seeds at one fidelity) and its :attr:`~ExperimentSpec.cells`.

Every key is :func:`content_hash`: the SHA-256 of a payload's canonical JSON
text — dataclasses as objects of their fields, enums as their values, lists
and tuples as arrays, dict keys converted with ``str``, every object's keys
sorted, no spaces — byte for byte the text that copying the payload into
dicts and lists and passing the copy to ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` gives.  :func:`_render` writes that text in one
recursive pass, encoding each leaf as :mod:`json` does, with no copy.
Between calls it keeps only each dataclass type's sorted field names: it
caches no text or hash of a payload, so every call renders its payload in
full.  (:meth:`RunSpec.replay_key` and
:meth:`~repro.scenarios.spec.ScenarioSpec.scenario_key` memoize their own
keys on their instances.)
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, Tuple

from repro.energy.components import ComponentEnergies, DEFAULT_ENERGIES
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.sim.simulator import SimulationConfig
from repro.systems.fidelity import Fidelity, STANDARD_FIDELITY, get_fidelity
from repro.workloads.applications import ApplicationProfile

#: Version of the cached replay-measurement schema.  Bump whenever the
#: functional replay behaviour (engine, trace generation, cache/controller
#: models) or the :class:`~repro.sim.performance_model.ReplayMeasurement`
#: layout changes — this invalidates both cache tiers, because score keys
#: embed the replay key.
#: Version 3: the replay key loses two fields no replay read — the
#: config's replay-mode switch (with the closed-form analytic measurement
#: tier it selected) and the conventional LLC's MSHR count.  Replay
#: behaviour is unchanged; the bump records that every replay key, and
#: with it every score and scenario key, changed with the key payload.
#: Version 4: the replay key loses nine fields no replay read, which
#: nothing reads once the per-SM core models are gone — the GPU config's
#: warps per SM, threads per warp, maximum threads per SM, CUDA cores per
#: SM, registers per warp, L1 data-cache bytes, L1 hit latency and
#: warp-scheduler name, and the Morpheus config's compression epoch
#: length.  Replay behaviour is unchanged again.
#: Version 5: the replay key loses the GPU config's name, a label that no
#: code read.  Replay behaviour is unchanged again.
#: Version 6: the replay key loses the Morpheus config's shared-memory warp
#: count, a field with one value in use (0: the kernel combines only the
#: register-file and L1 stores, as the paper does).  Replay behaviour is
#: unchanged again.
REPLAY_SCHEMA_VERSION = 6

#: Version of the cached scored-result schema.  Bump whenever the analytic
#: scoring step (:class:`~repro.sim.performance_model.PerformanceModel`, the
#: energy model) or the :class:`~repro.sim.stats.SimulationStats` layout
#: changes — cached measurements stay valid and are merely re-scored.
#: Version 2: shared-channel bandwidth limits are granted through a
#: :class:`~repro.sim.performance_model.ResourceEnvelope` (a new
#: score-keyed ``SimulationConfig`` field; the default envelope scores
#: bit-identically to version 1).
#: Version 3: no scored number changed.  Operating-point searches stopped
#: scoring the candidates whose compute roof is below the best IPC already
#: scored, so a search stores fewer stats entries, and no key covers which
#: leaves a search scores; the bump marks that change in the stats tier.
#: Cached measurements stay valid and re-score at zero replay cost.
SCORE_SCHEMA_VERSION = 3


#: The JSON encoder of each exact leaf type (subclasses go to ``json.dumps``).
#: ``float.__repr__`` writes the non-finite floats as ``nan``/``inf``/``-inf``;
#: :data:`_FLOAT_NAMES` maps those three texts, which no other leaf encoding
#: produces, to the names :mod:`json` writes.
_LEAVES: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _DataclassFields(dict):
    """Per type: its fields' encoded ``"name":`` prefixes and a getter.

    Both in sorted name order; the getter returns a dataclass instance's
    field values as a tuple.  ``None`` for a type that is not a dataclass.
    """

    def __missing__(self, cls: type):
        entry = None
        if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
            names = tuple(sorted(field.name for field in dataclasses.fields(cls)))
            if len(names) > 1:
                getter = operator.attrgetter(*names)
            else:  # attrgetter returns a bare value for one name
                getter = lambda value: tuple(getattr(value, name) for name in names)
            entry = (tuple(encode_basestring_ascii(name) + ":" for name in names), getter)
        self[cls] = entry
        return entry


_FIELDS = _DataclassFields()

#: The (empty) prefix of every item of a list or tuple.
_NO_PREFIXES = itertools.repeat("")


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _render(value: Any) -> str:
    """The canonical JSON text of ``value`` (see the module docstring).

    The leaves of a dataclass, list, tuple or dict are encoded in place
    rather than by a recursive call: a fleet timeline has tens of thousands.
    """
    cls = type(value)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        text = leaf(value)
        return _FLOAT_NAMES.get(text, text)
    fields = _FIELDS[cls]
    if fields is not None:
        prefixes, getter = fields
        items, opening, closing = getter(value), "{", "}"
    elif isinstance(value, enum.Enum):
        item = value.value
        return _render(item) if type(item) in _LEAVES else _dumps(item)
    elif isinstance(value, (list, tuple)):
        prefixes, items, opening, closing = _NO_PREFIXES, value, "[", "]"
    elif isinstance(value, dict):
        # str() first: keys that convert equal collapse, the last one winning.
        converted = {str(key): item for key, item in value.items()}
        keys = sorted(converted)
        prefixes = [encode_basestring_ascii(key) + ":" for key in keys]
        items, opening, closing = map(converted.__getitem__, keys), "{", "}"
    else:
        return _dumps(value)
    parts = []
    for prefix, item in zip(prefixes, items):
        leaf = _LEAVES.get(type(item))
        if leaf is None:
            parts.append(prefix + _render(item))
        else:
            text = leaf(item)
            parts.append(prefix + _FLOAT_NAMES.get(text, text))
    return opening + ",".join(parts) + closing


def content_hash(payload: Any) -> str:
    """SHA-256 hex digest of ``payload`` rendered as canonical JSON."""
    return hashlib.sha256(_render(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One leaf simulation: ``profile`` replayed under ``config``.

    ``energies`` holds the energy-model constants the run is scored with;
    they are part of the content key because they shape the energy and
    performance/watt fields of the cached result.
    """

    profile: ApplicationProfile
    config: SimulationConfig
    energies: ComponentEnergies = DEFAULT_ENERGIES

    def replay_key(self) -> str:
        """Content-hash key of the replay phase (addresses the measurement tier).

        Covers only the replay-affecting inputs — profile, GPU, Morpheus
        config, SM split, capacity scale, trace/warm-up sizing, request
        interval and seed — plus :data:`REPLAY_SCHEMA_VERSION`.  Runs that
        differ only in analytic scoring parameters share one replay key.

        Memoized per instance: the canonical-JSON render of the profile and
        replay params is the hot part of key derivation, and score keys and
        the runner both need the replay key for every leaf.
        """
        cached = self.__dict__.get("_replay_key")
        if cached is None:
            cached = content_hash(
                {
                    "schema": REPLAY_SCHEMA_VERSION,
                    "profile": self.profile,
                    "replay": self.config.replay_params(),
                }
            )
            object.__setattr__(self, "_replay_key", cached)
        return cached

    def score_key(self) -> str:
        """Content-hash key of the scored result (addresses the stats tier).

        Extends :meth:`replay_key` with the analytic parameters, the energy
        constants and :data:`SCORE_SCHEMA_VERSION`, so any input change —
        replay-affecting or analytic — addresses a different stats entry.
        """
        return content_hash(
            {
                "schema": SCORE_SCHEMA_VERSION,
                "replay_key": self.replay_key(),
                "score": self.config.score_params(),
                "energies": self.energies,
            }
        )


@dataclass(frozen=True)
class ExperimentCell:
    """One cell of a run matrix: a named system on one application with one seed.

    The system is evaluated at its own operating point (registry semantics,
    including per-application SM-count searches).
    """

    system: str
    application: str
    seed: int = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative run matrix: systems x applications x seeds.

    Attributes:
        systems: Evaluated-system names (see
            :data:`repro.systems.registry.EVALUATED_SYSTEMS`; a Morpheus
            variant may name its predictor, as in ``"Morpheus-Basic(none)"``).
        applications: Application names (Table 2).
        fidelity: Trace sizing preset shared by all cells.
        gpu: Baseline GPU configuration.
        seeds: Trace-generation seeds; each seed is an independent cell.
    """

    systems: Tuple[str, ...]
    applications: Tuple[str, ...]
    fidelity: Fidelity = STANDARD_FIDELITY
    gpu: GPUConfig = RTX3080_CONFIG
    seeds: Tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        # Accept any sequences and normalize to tuples so specs stay hashable.
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(self, "applications", tuple(self.applications))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "fidelity", get_fidelity(self.fidelity))
        if not self.systems:
            raise ValueError("an experiment needs at least one system")
        if not self.applications:
            raise ValueError("an experiment needs at least one application")
        if not self.seeds:
            raise ValueError("an experiment needs at least one seed")
        # A repeated entry would name one cell twice: results are keyed by
        # cell, so the result would hold fewer cells than it iterates.
        for axis, values in (
            ("system", self.systems),
            ("application", self.applications),
            ("seed", self.seeds),
        ):
            seen = set()
            for value in values:
                if value in seen:
                    raise ValueError(f"an experiment lists {axis} {value!r} twice")
                seen.add(value)

    @property
    def cells(self) -> Tuple[ExperimentCell, ...]:
        """One :class:`ExperimentCell` per run, systems outermost, seeds innermost."""
        return tuple(
            ExperimentCell(system, application, seed)
            for system in self.systems
            for application in self.applications
            for seed in self.seeds
        )
