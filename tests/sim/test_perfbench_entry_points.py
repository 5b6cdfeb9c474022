"""Every layer entry point the benchmark wraps still exists.

``perfbench/layers.py`` charges host time to a layer through the methods
listed in its ``ENTRY_POINTS``.  A refactor that renames or deletes one
would silently move that layer's time into its caller, so the benchmark
reports such a run as incorrect; this test catches it in the tier-1 suite.
The file is loaded by path because ``perfbench`` is not a package on the
import path.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_entry_point_resolves():
    recorder = _load_layers().Recorder()
    try:
        missing = recorder.install()
    finally:
        recorder.uninstall()
    assert missing == []
