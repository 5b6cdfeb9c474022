#!/usr/bin/env python3
"""Print digests of the benchmark workloads' outputs, to check bit-identity.

A change that only makes the simulator faster must leave every simulated
number as it was.  This script runs each operation of the ``fig12`` and
``fleet`` workloads of ``perfbench/workloads.py`` once, cold (its own empty
cache directory under a temporary directory, an empty trace cache), and
prints one JSON line: the sha256 of
``repr(Workload.inspect(i, Workload.run(i, dir)).output)`` for every
Figure-12 row, keyed by application, and for the fleet timeline, and under
``"keys"`` the sha256 of the sorted relative paths of every cache entry the
operations wrote.  An entry's path names its tier and its content key, so a
change that moves a key changes the line even when every output stays the
same.  Run it at two commits on the same seed; equal lines mean equal
outputs under equal keys.

A broken workload invariant is printed to stderr and makes the exit status 1.

Usage, from the repository root::

    python3 scripts/output_digest.py --seed 19
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(workload, index: int, cache_dir: str):
    """(sha256 of the output, broken invariants) of ``workload``'s operation ``index``."""
    from repro.workloads.generator import SHARED_TRACE_CACHE

    SHARED_TRACE_CACHE.clear()
    outcome = workload.inspect(index, workload.run(index, cache_dir))
    problems = [f"{workload.name}[{index}]: {problem}" for problem in outcome.problems]
    return hashlib.sha256(repr(outcome.output).encode()).hexdigest(), problems


def keys_digest(scratch: str) -> str:
    """sha256 of the sorted paths, relative to ``scratch``, of its cache entries."""
    paths = sorted(
        path.relative_to(scratch).as_posix()
        for path in Path(scratch).rglob("*.json")
        if not path.name.startswith(".")
    )
    return hashlib.sha256("\n".join(paths).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    args = parser.parse_args(argv)
    # As perfbench does: the simulator's REPRO_* settings play no part.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import Fig12, Fleet

    fig12, fleet = Fig12(args.seed), Fleet(args.seed)
    rows, problems = {}, []
    with tempfile.TemporaryDirectory(prefix="output-digest-") as scratch:
        for index, spec in enumerate(fig12.specs):
            cache_dir = os.path.join(scratch, f"fig12-{index}")
            rows[spec.applications[0]], row_problems = digest(fig12, index, cache_dir)
            problems += row_problems
        fleet_digest, fleet_problems = digest(fleet, 0, os.path.join(scratch, "fleet"))
        problems += fleet_problems
        keys = keys_digest(scratch)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        json.dumps({"seed": args.seed, "fig12": rows, "fleet": fleet_digest, "keys": keys})
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
