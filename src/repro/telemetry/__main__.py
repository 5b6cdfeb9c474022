"""CLI: ``python -m repro.telemetry {report,validate} <trace-dir>``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .report import render, summarize
from .schema import validate_directory


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect telemetry trace directories.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report_parser = subparsers.add_parser(
        "report", help="summarize a trace directory (stages, cache, slowest replays)"
    )
    report_parser.add_argument("directory", type=Path, help="trace directory")
    report_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    validate_parser = subparsers.add_parser(
        "validate", help="check every sink file against the event schema"
    )
    validate_parser.add_argument("directory", type=Path, help="trace directory")

    args = parser.parse_args(argv)

    if not args.directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 2

    if args.command == "report":
        summary = summarize(args.directory)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render(summary))
        return 0

    files, errors = validate_directory(args.directory)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"{files} file(s) checked, {len(errors)} error(s)", file=sys.stderr)
        return 1
    print(f"{files} file(s) checked, all valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
