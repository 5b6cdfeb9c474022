#!/usr/bin/env python3
"""List the functions in ``src/repro`` that no user-facing run calls.

The script runs every entry point of the repository that is not a unit
test, as CI's benchmark-smoke and telemetry jobs run them: the figure
checks under ``benchmarks/``, the five examples, the other eight scripts, the
cache and telemetry command lines, and perfbench on both workloads in both
trace modes (one second each).  A ``sitecustomize.py`` on ``PYTHONPATH``
records, in every process, each ``src/repro`` code object called under
``sys.setprofile`` and ``threading.setprofile``, and writes its record at
exit and inside ``os._exit``, so process-pool workers report too.  Every
step uses its own cache directories under a temporary directory.

The script then walks ``src/repro`` with :mod:`ast` and prints each
function that was never called, with its line count (decorators
included), followed by the totals.  A function nested in one that was never
called is part of it: it is neither listed nor counted on its own.

It takes about two minutes on 2 vCPUs, so no CI step runs it.  Each step's
outcome and time go to stderr.  A step that fails is reported and the run
goes on: a timing gate may fail under the profiler without hiding any
call.

Usage, from the repository root::

    python3 scripts/reachability.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: The profiling hook, installed in every Python process the steps start.
SITECUSTOMIZE = textwrap.dedent(
    '''
    import atexit
    import os
    import sys
    import threading

    _PACKAGE = os.environ["REACHABILITY_PACKAGE"]
    _RECORDS = os.environ["REACHABILITY_RECORDS"]
    _called = set()


    def _profile(frame, event, arg, _add=_called.add):
        if event == "call":
            _add(frame.f_code)


    def _dump():
        paths = {}
        lines = set()
        for code in list(_called):
            path = paths.get(code.co_filename)
            if path is None:
                path = paths[code.co_filename] = os.path.realpath(code.co_filename)
            if path.startswith(_PACKAGE):
                lines.add(f"{path[len(_PACKAGE):]}:{code.co_firstlineno}\\n")
        with open(os.path.join(_RECORDS, f"calls-{os.getpid()}.txt"), "a") as out:
            out.writelines(sorted(lines))


    _exit = os._exit


    def _dump_and_exit(status):
        _dump()
        _exit(status)


    os._exit = _dump_and_exit
    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    '''
)


def steps(scratch: Path):
    """``(label, command, extra environment)`` of every step, in CI order."""
    python = sys.executable

    def cache(name: str) -> str:
        return str(scratch / name)

    trace = cache("fleet-trace")
    return [
        ("figure checks", [python, "-m", "pytest", "benchmarks", "-x", "-q", "-p",
                           "no:cacheprovider"], {"REPRO_BENCH_CACHE_DIR": cache("bench")}),
        ("morpheus_system_comparison.py spmv (cold)",
         [python, "examples/morpheus_system_comparison.py", "spmv"],
         {"REPRO_CACHE_DIR": cache("comparison")}),
        ("morpheus_system_comparison.py spmv (warm)",
         [python, "examples/morpheus_system_comparison.py", "spmv"],
         {"REPRO_CACHE_DIR": cache("comparison")}),
        ("warm_cache_check.py", [python, "scripts/warm_cache_check.py", cache("warm")], {}),
        ("repro.runner stats", [python, "-m", "repro.runner", "stats"],
         {"REPRO_CACHE_DIR": cache("warm")}),
        ("scenario_warm_check.py",
         [python, "scripts/scenario_warm_check.py", cache("scenario")], {}),
        ("dynamic_scenarios.py", [python, "examples/dynamic_scenarios.py"],
         {"REPRO_CACHE_DIR": cache("corun")}),
        ("quickstart.py", [python, "examples/quickstart.py"],
         {"REPRO_CACHE_DIR": cache("examples")}),
        ("llc_scaling_study.py kmeans", [python, "examples/llc_scaling_study.py", "kmeans"],
         {"REPRO_CACHE_DIR": cache("examples")}),
        ("extended_llc_characterization.py",
         [python, "examples/extended_llc_characterization.py"],
         {"REPRO_CACHE_DIR": cache("examples")}),
        ("calibrate.py",
         [python, "scripts/calibrate.py", "--apps", "kmeans", "--skip-fig2",
          "--mlp-sensitivity", "--workers", "0"],
         {"REPRO_CACHE_DIR": cache("calibrate")}),
        ("bench_report.py --smoke",
         [python, "scripts/bench_report.py", "--smoke", "--output", "-"], {}),
        ("fleet_smoke_check.py",
         [python, "scripts/fleet_smoke_check.py", cache("fleet"), trace],
         {"REPRO_TELEMETRY": "1"}),
        ("repro.telemetry validate", [python, "-m", "repro.telemetry", "validate", trace], {}),
        ("repro.telemetry report", [python, "-m", "repro.telemetry", "report", trace], {}),
        ("output_digest.py --seed 1", [python, "scripts/output_digest.py", "--seed", "1"], {}),
        ("output_digest.py --seed 5", [python, "scripts/output_digest.py", "--seed", "5"], {}),
        ("telemetry_overhead_check.py", [python, "scripts/telemetry_overhead_check.py"], {}),
        ("bench_report.py --smoke --trace",
         [python, "scripts/bench_report.py", "--smoke", "--trace", cache("bench-trace"),
          "--output", "-"], {}),
        ("spotcheck_fig12.py", [python, "scripts/spotcheck_fig12.py"],
         {"REPRO_CACHE_DIR": cache("spotcheck")}),
    ] + [
        (f"perfbench {workload} --trace {mode}",
         [python, "perfbench/run.py", "--workload", workload, "--seed", "1",
          "--seconds", "1", "--trace", mode], {})
        for workload in ("fig12", "fleet")
        for mode in ("1", "0")
    ]


def run_steps(scratch: Path) -> set:
    """Run every step under the hook; the ``(file, first line)`` pairs called."""
    hook = scratch / "hook"
    records = scratch / "records"
    hook.mkdir()
    records.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    base = {
        name: value for name, value in os.environ.items() if not name.startswith("REPRO_")
    }
    base.update(
        PYTHONPATH=os.pathsep.join([str(hook), str(ROOT / "src")]),
        REACHABILITY_PACKAGE=str(PACKAGE.resolve()) + os.sep,
        REACHABILITY_RECORDS=str(records),
    )
    for label, command, extra in steps(scratch):
        start = time.perf_counter()
        status = subprocess.run(
            command, cwd=ROOT, env={**base, **extra}, stdout=subprocess.DEVNULL
        ).returncode
        outcome = f"exited {status}" if status else "ok"
        print(
            f"reachability: {label}: {outcome} in {time.perf_counter() - start:.1f} s",
            file=sys.stderr,
            flush=True,
        )
    called = set()
    for path in records.glob("calls-*.txt"):
        for line in path.read_text().splitlines():
            relative, _, first_line = line.rpartition(":")
            called.add((relative, int(first_line)))
    return called


def functions(path: Path):
    """``(qualified name, first line, last line, enclosing function)`` of each def.

    The first line is the one the compiler gives the function's code
    object: its first decorator's, or the ``def`` line.
    """
    found = []

    def visit(node, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                entry = (name, first, child.end_lineno, enclosing)
                found.append(entry)
                visit(child, f"{name}.<locals>.", entry)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", enclosing)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        called = run_steps(Path(scratch))
    total = never = lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        unreached = set()
        for name, first, last, enclosing in functions(path):
            total += 1
            if (relative, first) in called:
                continue
            unreached.add((name, first))
            # A never-called function's nested ones are part of it.
            if enclosing is not None and enclosing[:2] in unreached:
                continue
            never += 1
            lines += last - first + 1
            print(f"{relative}:{first} {name} ({last - first + 1} lines)")
    print(f"{never} of {total} functions in src/repro never called ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
