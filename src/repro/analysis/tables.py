"""Plain-text tables for experiment reports.

:class:`Table` is a minimal column-aligned renderer (no third-party
dependency); the ``format_fig*_table`` helpers render the standard
paper-figure results through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import MetricError

if TYPE_CHECKING:
    from repro.experiments.fig6_candidate_size import Fig6Result
    from repro.experiments.fig7_policies import Fig7Result

__all__ = ["Table", "format_fig6_table", "format_fig7_table"]


class Table:
    """A column-aligned text table: the first column left-aligned, the
    rest right-aligned, which suits label-plus-numbers layouts.

    Args:
        headers: Column titles.
    """

    def __init__(self, headers: Sequence[str]):
        if not headers:
            raise MetricError("a table needs at least one column")
        self._headers = [str(h) for h in headers]
        self._align = ["<"] + [">"] * (len(headers) - 1)
        self._rows: list[list[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append a row (cells are stringified; count must match)."""
        if len(cells) != len(self._headers):
            raise MetricError(
                f"row has {len(cells)} cells, table has {len(self._headers)} columns"
            )
        self._rows.append([str(c) for c in cells])

    def render(self) -> str:
        """The table as a multi-line string with a header separator."""
        widths = [
            max(len(self._headers[i]), *(len(r[i]) for r in self._rows))
            if self._rows
            else len(self._headers[i])
            for i in range(len(self._headers))
        ]
        def fmt(row: list[str]) -> str:
            return "  ".join(
                f"{cell:{self._align[i]}{widths[i]}}" for i, cell in enumerate(row)
            ).rstrip()

        lines = [fmt(self._headers), "  ".join("-" * w for w in widths)]
        lines.extend(fmt(r) for r in self._rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_fig6_table(result: Fig6Result) -> str:
    """Render a :class:`~repro.experiments.fig6_candidate_size.Fig6Result`
    as the paper's Figure 6: normalised P_max and ΔP×T per size/policy."""
    table = Table(
        ["|A_candidate|", "policy", "Pmax (norm)", "dPxT (norm)", "Performance"]
    )
    for point in sorted(result.points, key=lambda p: (p.policy, p.size)):
        table.add_row(
            point.size,
            point.policy,
            f"{point.p_max_ratio:.3f}",
            f"{point.overspend_ratio:.3f}",
            f"{point.performance:.4f}",
        )
    return table.render()


def format_fig7_table(result: Fig7Result) -> str:
    """Render a :class:`~repro.experiments.fig7_policies.Fig7Result` as
    the paper's Figure 7 summary rows."""
    table = Table(
        [
            "policy",
            "Performance",
            "loss",
            "CPLJ",
            "Pmax (norm)",
            "dPxT reduction",
            "red?",
        ]
    )
    base = result.baseline.metrics
    table.add_row(
        "uncapped",
        f"{base.performance:.4f}",
        "-",
        f"{base.cplj}/{base.finished_jobs}",
        "1.000",
        "-",
        "-",
    )
    for row in result.outcomes:
        table.add_row(
            row.policy,
            f"{row.performance:.4f}",
            f"{row.performance_loss:.1%}",
            f"{row.cplj}/{row.result.metrics.finished_jobs}",
            f"{row.p_max_ratio:.3f}",
            f"{row.overspend_reduction:.1%}",
            "yes" if row.entered_red else "no",
        )
    return table.render()
