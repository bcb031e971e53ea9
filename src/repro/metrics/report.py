"""Plain-text reporting helpers.

The benchmark harness prints the same rows/series the paper's figures show.
These helpers format aligned text tables and simple series without pulling in
any plotting dependency (the environment is offline); the output is meant to
be diffed and eyeballed.  The figure benchmarks write it to
``benchmarks/results/<figure>.txt``, which CI uploads as the
``figure-results`` artifact.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Union

__all__ = ["format_table", "format_series", "format_mapping"]

Cell = Union[str, int, float, None]


def _format_cell(value: Cell, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    *,
    float_format: str = ".4f",
    title: Optional[str] = None,
) -> str:
    """Render an aligned, pipe-separated text table."""
    rendered_rows: List[List[str]] = [
        [_format_cell(cell, float_format) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    xs: Sequence[Cell],
    ys: Sequence[Cell],
    *,
    x_label: str = "x",
    y_label: str = "y",
    float_format: str = ".4f",
    title: Optional[str] = None,
) -> str:
    """Render a two-column series (one figure line) as a text table."""
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    return format_table(
        [x_label, y_label], zip(xs, ys), float_format=float_format, title=title
    )


def format_mapping(
    mapping: Mapping[str, Cell], *, float_format: str = ".4f", title: Optional[str] = None
) -> str:
    """Render a flat key→value mapping as a two-column table."""
    return format_table(
        ["key", "value"], mapping.items(), float_format=float_format, title=title
    )
