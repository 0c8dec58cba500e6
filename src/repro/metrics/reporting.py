"""Plain-text reporting of experiment results.

The benchmarks print the same rows and series the paper's figures show;
these helpers render them as aligned text tables so the output of
``pytest benchmarks/ --benchmark-only`` (and of the examples) is readable
without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple aligned text table.

    Floats are printed with three decimals; other values use ``str``.
    Column widths adapt to the longest cell.
    """
    if not headers:
        raise ReproError("a table needs at least one column")

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    rendered_rows = [[render(cell) for cell in row] for row in rows]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
    widths = [
        max(len(str(headers[column])), *(len(row[column]) for row in rendered_rows))
        if rendered_rows
        else len(str(headers[column]))
        for column in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_comparison(
    metric_name: str,
    baseline_name: str,
    baseline_value: float,
    other: Dict[str, float],
) -> str:
    """Render a baseline-vs-alternatives comparison with improvement factors."""
    headers = ["policy", metric_name, f"vs {baseline_name}"]
    rows: List[List[object]] = [[baseline_name, baseline_value, "1.00x"]]
    for name, value in other.items():
        if value > 0:
            factor = baseline_value / value
            rows.append([name, value, f"{factor:.2f}x"])
        else:
            rows.append([name, value, "n/a"])
    return format_table(headers, rows)
