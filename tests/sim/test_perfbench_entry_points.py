"""Every layer entry point the benchmark wraps still exists.

``perfbench/layers.py`` charges host time to a layer through the methods
listed in its ``ENTRY_POINTS``.  A refactor that renames or deletes one
would silently move that layer's time into its caller, so the benchmark
reports such a run as incorrect; this test catches it in the tier-1 suite.
The benchmark's fig12 workload also keeps its own copy of the figure
checks' fidelity, which must not drift from the repository's.  The files
are loaded by path because ``perfbench`` is not a package on the import
path.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.systems.fidelity import BENCH_FIDELITY

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
LAYERS_PATH = PERFBENCH / "layers.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses look their module up.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _load_layers():
    return _load(LAYERS_PATH, "perfbench_layers")


def test_every_perfbench_entry_point_resolves():
    recorder = _load_layers().Recorder()
    try:
        missing = recorder.install()
    finally:
        recorder.uninstall()
    assert missing == []


def test_perfbench_fig12_fidelity_is_the_repositorys():
    workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
    assert workloads.BENCH_FIDELITY == BENCH_FIDELITY
