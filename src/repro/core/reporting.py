"""Plain-text table rendering for the experiment drivers and benchmarks.

The experiment drivers return structured results; these helpers turn them
into aligned text tables so the benchmark harness can print exactly the rows
and columns the paper's tables contain.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_cell(value) -> str:
    """Human-readable cell: floats to 3 decimals, NaN as '-', ints verbatim."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows: List[List[str]] = [[format_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(rendered[i]) for rendered in rendered_rows))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
    return "\n".join(lines)


def render_matrix(
    matrix: Mapping[object, Mapping[str, float]],
    row_label: str = "row",
    title: str | None = None,
) -> str:
    """Render a nested mapping (row -> column -> value) as a table."""
    rows = []
    columns: List[str] = [row_label]
    for row_key, cells in matrix.items():
        row: Dict[str, object] = {row_label: row_key}
        for column, value in cells.items():
            row[str(column)] = value
            if str(column) not in columns:
                columns.append(str(column))
        rows.append(row)
    return render_table(rows, columns=columns, title=title)


def render_key_values(values: Mapping[str, object], title: str | None = None) -> str:
    """Render a flat mapping as 'key: value' lines."""
    lines = [title] if title else []
    for key, value in values.items():
        lines.append(f"  {key}: {format_cell(value)}")
    return "\n".join(lines)


def render_audit_summary(
    redundancy,
    leakage=None,
    cartesian: Sequence[object] | None = None,
    title: str | None = None,
) -> str:
    """The §4 audit's key figures as 'key: value' lines.

    ``redundancy`` is a :class:`~repro.core.redundancy.RedundancyReport`;
    the Cartesian count and the three leakage shares follow when
    ``cartesian`` (the detected relations) and ``leakage`` (a
    :class:`~repro.core.leakage.LeakageReport`) are given.  Keys come in the
    order ``repro-kgc audit`` prints them; each caller supplies its title.
    """
    summary: Dict[str, object] = {
        "reverse relation pairs": len(redundancy.reverse_pairs),
        "duplicate relation pairs": len(redundancy.duplicate_pairs),
        "reverse-duplicate relation pairs": len(redundancy.reverse_duplicate_pairs),
        "symmetric relations": len(redundancy.symmetric_relations),
    }
    if cartesian is not None:
        summary["Cartesian product relations"] = len(cartesian)
    if leakage is not None:
        summary["train triples in reverse pairs"] = leakage.training_reverse_share
        summary["test triples with reverse in train"] = leakage.test_reverse_in_train_share
        summary["test triples with any redundancy"] = leakage.test_redundant_share
    return render_key_values(summary, title=title)
