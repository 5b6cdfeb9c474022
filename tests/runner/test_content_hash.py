"""Content keys: the one-pass renderer against the two-step reference.

:func:`repro.runner.spec.content_hash` writes a payload's canonical JSON in
one recursive pass.  The reference below is the two-step rendering it
replaced: copy the payload into plain dicts and lists, then
``json.dumps(sort_keys=True, separators=(",", ":"))``.  Every key the
repository derives must stay byte for byte the same, or every cache entry
written before would silently miss.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.runner.spec as runner_spec
import repro.scenarios.engine as scenario_engine
import repro.scenarios.spec as scenario_spec
from repro.energy.model import EnergyModel
from repro.runner import ExperimentRunner, RunSpec, content_hash
from repro.scenarios import SCENARIO_LIBRARY, ScenarioEngine, get_scenario
from repro.workloads.applications import get_application
from fidelity_utils import TINY_FIDELITY
from test_golden_stats import GOLDEN_CASES


def _jsonable(value: Any) -> Any:
    """Render configs/profiles as canonical JSON-compatible structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def reference_text(payload: Any) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def reference_hash(payload: Any) -> str:
    return hashlib.sha256(reference_text(payload).encode("utf-8")).hexdigest()


def outcome(render, payload):
    """``("text", text)``, or ``("raises", exception type)``."""
    try:
        return "text", render(payload)
    except (TypeError, ValueError) as error:
        return "raises", type(error)


# -- payload shapes ---------------------------------------------------------------


class Colour(enum.Enum):
    RED = "red"
    GREEN = 2
    BLUE = 1.5
    PAIR = (1, "two")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"


class Label(str):
    pass


class Count(int):
    pass


class Point(NamedTuple):
    x: Any
    y: Any


# Fields declared out of name order, so a renderer that skips sorting differs.
@dataclass(frozen=True)
class Frozen:
    zeta: Any
    alpha: Any


@dataclass
class Mutable:
    mid: Any
    zeta: Any
    alpha: Any


@dataclass(frozen=True)
class Single:
    only: Any


@dataclass(frozen=True)
class Empty:
    pass


SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -1e300, 1.0,
]
SPECIAL_STRINGS = [
    "", "\xe9", "\u6f22\u5b57", "\x00", "\x1f", "\n\t\"\\", "\u2028", "\U0001f600", "\ud800",
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(SPECIAL_STRINGS),
    st.text().map(Label),
    st.integers().map(Count),
    st.sampled_from(list(Colour) + list(Level) + list(Mode)),
    st.just(Empty()),
)


def equal_twins(number: int, other: Any) -> list:
    """Equal items whose leaves render differently: 1, 1.0 and True; 0.0 and -0.0."""
    twins = [Frozen(number, other), Frozen(float(number), other)]
    if number in (0, 1):
        twins.append(Frozen(bool(number), other))
    if number == 0:
        twins.append(Frozen(-0.0, other))
    return twins


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.integers() | st.text(), children, max_size=4),
        st.builds(Frozen, children, children),
        st.builds(Mutable, children, children, children),
        st.builds(Single, children),
        st.builds(Point, children, children),
        # Repeated items: the same object, and equal objects built apart.
        st.tuples(children, st.integers(1, 4)).map(lambda pair: [pair[0]] * pair[1]),
        st.tuples(children, children).map(
            lambda pair: (Frozen(*pair), Frozen(*pair), Frozen(*pair))
        ),
        st.builds(equal_twins, st.integers(-2, 2), children),
    )


payloads = st.recursive(scalars, containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_renders_the_reference_text(payload):
    assert outcome(runner_spec._render, payload) == outcome(reference_text, payload)


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({1: "int key", "1": "str key"}, id="colliding-keys"),
        pytest.param({10: "a", 9: "b", "x": [Level.HIGH, Mode.FAST]}, id="int-keys"),
        pytest.param([Frozen(1, "a"), Frozen(1.0, "a"), Frozen(True, "a")], id="one-twins"),
        pytest.param((Frozen(0.0, None), Frozen(-0.0, None)), id="zero-twins"),
        pytest.param(
            [Mutable(mid={"k": (1, 2)}, zeta=[], alpha=Colour.PAIR)] * 3,
            id="repeated-object",
        ),
        pytest.param(
            {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
            id="non-finite",
        ),
        pytest.param(["\xe9\x00\u2028", Label("\xe9"), Count(7)], id="subclasses"),
        pytest.param(object(), id="object"),
        pytest.param({"nested": [object()]}, id="nested-object"),
        pytest.param({1, 2}, id="set"),
        pytest.param(b"bytes", id="bytes"),
        pytest.param(Frozen, id="dataclass-type"),
        pytest.param(Frozen(zeta=Empty, alpha=1), id="dataclass-type-field"),
    ],
)
def test_edge_payloads_render_or_raise_as_the_reference(payload):
    assert outcome(runner_spec._render, payload) == outcome(reference_text, payload)


#: Leaves whose JSON encodings differ in some way from one another.
LEAVES = [
    pytest.param(None, id="none"),
    pytest.param(True, id="true"),
    pytest.param(False, id="false"),
    pytest.param(0, id="int-zero"),
    pytest.param(-1, id="int-negative"),
    pytest.param(2**64, id="int-beyond-64-bits"),
    pytest.param(-(2**70), id="int-negative-beyond-64-bits"),
    pytest.param(0.0, id="float-zero"),
    pytest.param(-0.0, id="float-negative-zero"),
    pytest.param(0.1, id="float-inexact"),
    pytest.param(1 / 3, id="float-seventeen-digits"),
    pytest.param(1e16, id="float-exponent"),
    pytest.param(1e-7, id="float-negative-exponent"),
    pytest.param(5e-324, id="float-smallest-subnormal"),
    pytest.param(1.7976931348623157e308, id="float-largest"),
    pytest.param(float("nan"), id="float-nan"),
    pytest.param(float("inf"), id="float-inf"),
    pytest.param(float("-inf"), id="float-negative-inf"),
    pytest.param("", id="str-empty"),
    pytest.param("plain", id="str-plain"),
    pytest.param('"', id="str-quote"),
    pytest.param("\\", id="str-backslash"),
    pytest.param("\b\f\n\r\t", id="str-short-escapes"),
    pytest.param("\x00", id="str-nul"),
    pytest.param("\x1f", id="str-unit-separator"),
    pytest.param("\x7f", id="str-delete"),
    pytest.param("\xe9", id="str-latin-1"),
    pytest.param("\u2028\u2029", id="str-line-separators"),
    pytest.param("\U0001f600", id="str-astral"),
    pytest.param("\ud800", id="str-lone-surrogate"),
    pytest.param("</script>", id="str-slash"),
    pytest.param(Colour.RED, id="enum-str-value"),
    pytest.param(Colour.GREEN, id="enum-int-value"),
    pytest.param(Colour.BLUE, id="enum-float-value"),
    pytest.param(Colour.PAIR, id="enum-tuple-value"),
    pytest.param(Level.HIGH, id="int-enum"),
    pytest.param(Mode.FAST, id="str-enum"),
    pytest.param(Label("\xe9"), id="str-subclass"),
    pytest.param(Count(7), id="int-subclass"),
    pytest.param(Empty(), id="empty-dataclass"),
]


@pytest.mark.parametrize("leaf", LEAVES)
def test_leaf_renders_as_the_reference_alone_and_nested(leaf):
    # A payload that is itself a leaf is encoded on entry to _render; a leaf
    # inside a list, tuple, dataclass or dict is encoded by that container's
    # own loop.  Both must write what json writes.
    assert runner_spec._render(leaf) == reference_text(leaf)
    nested = [leaf, (leaf,), Single(leaf), {"key": leaf}]
    assert runner_spec._render(nested) == reference_text(nested)


@pytest.mark.parametrize(
    "mapping",
    [
        pytest.param({True: 1, False: 0}, id="bool"),
        pytest.param({None: 1}, id="none"),
        pytest.param({1.5: 1, -0.0: 2}, id="float"),
        pytest.param({float("nan"): 1, float("inf"): 2}, id="non-finite-float"),
        pytest.param({Colour.RED: 1, Level.HIGH: 2}, id="enum"),
        pytest.param({(1, "two"): 1}, id="tuple"),
        pytest.param({Label("b"): 1, "a": 2}, id="str-subclass"),
        pytest.param({"\xe9": 1, "e": 2, "\U0001f600": 3}, id="non-ascii"),
        pytest.param({"\x00": 1, "\n": 2, "": 3}, id="control-and-empty"),
        pytest.param({10: 1, 9: 2, 100: 3}, id="int-sorted-as-text"),
        pytest.param({"b": 1, "a": 2, "B": 3}, id="case"),
        pytest.param({"1": "str first", 1: "int last"}, id="int-overwrites-str"),
        pytest.param({True: 1, "True": 2}, id="bool-collides-with-str"),
        pytest.param({1: 1, 1.0: 2, "1.0": 3}, id="int-float-collapse"),
    ],
)
def test_dict_keys_convert_collapse_and_sort_as_the_reference(mapping):
    # Keys go through str() first, so keys that convert equal collapse, the
    # last one winning, before the texts are sorted.
    assert runner_spec._render(mapping) == reference_text(mapping)
    assert runner_spec._render([mapping, Single(mapping)]) == reference_text(
        [mapping, Single(mapping)]
    )


# -- the keys the repository derives ----------------------------------------------


@pytest.fixture
def checked_hashes(monkeypatch):
    """Route every content hash through a check against the reference."""
    checked = []

    def checking_hash(payload):
        key = content_hash(payload)
        assert key == reference_hash(payload), f"key differs for {payload!r:.200}"
        checked.append(key)
        return key

    for module in (runner_spec, scenario_spec, scenario_engine):
        monkeypatch.setattr(module, "content_hash", checking_hash)
    return checked


SHAPES = [
    (name, {}) for name in sorted(SCENARIO_LIBRARY) if name != "fleet"
] + [("fleet", {"seed": seed}) for seed in (1, 2, 3)]


@pytest.mark.parametrize(
    "name,kwargs", SHAPES, ids=[f"{name}{kwargs.get('seed', '')}" for name, kwargs in SHAPES]
)
def test_scenario_and_run_keys_match_the_reference(checked_hashes, tmp_path, name, kwargs):
    scenario = get_scenario(name, **kwargs)
    engine = ScenarioEngine(
        runner=ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0),
        fidelity=TINY_FIDELITY,
    )
    scenario.scenario_key()
    for system in ("BL", "IBL", "Morpheus-Basic", "Morpheus-ALL"):
        engine.run_key(scenario, system)
    assert len(checked_hashes) == 5


@pytest.mark.parametrize("system", sorted(GOLDEN_CASES))
def test_golden_replay_and_score_keys_match_the_reference(checked_hashes, system):
    application, config = GOLDEN_CASES[system]
    run = RunSpec(get_application(application), config, EnergyModel().energies)
    run.replay_key()
    run.score_key()
    assert len(checked_hashes) == 2
