"""Plain-text table/series formatting for the benchmark harness.

The benchmark harness prints the rows and series the paper's tables and
figures report; these helpers keep that formatting consistent and readable in
pytest output.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.2f}",
) -> str:
    """Format a simple fixed-width table.

    Args:
        headers: Column headers.
        rows: Row values; floats are formatted with ``float_format``.
        title: Optional title line printed above the table.
        float_format: Format spec applied to float cells.
    """
    def cell(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered_rows = [[cell(value) for value in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, value in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(value))

    def format_row(values: Sequence[str]) -> str:
        return "  ".join(value.rjust(widths[i]) for i, value in enumerate(values))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(format_row([str(h) for h in headers]))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(
    name: str,
    series: Mapping[object, float],
    float_format: str = "{:.3f}",
) -> str:
    """Format one named series (e.g. one application's Figure 1 curve)."""
    points = ", ".join(
        f"{key}: {float_format.format(value)}" for key, value in series.items()
    )
    return f"{name}: {points}"
