"""Result post-processing: tables, ASCII charts and run reports.

Experiment harnesses return structured results; this package renders them
the way the paper presents its evaluation — normalised tables (Figure 6),
policy-comparison rows (Figure 7) and simple trend charts — entirely in
text, so reports work in CI logs and terminals without a plotting stack.
"""

from repro.analysis.figures import ascii_chart
from repro.analysis.report import render_run_report
from repro.analysis.tables import Table, format_fig6_table, format_fig7_table

__all__ = [
    "Table",
    "ascii_chart",
    "render_run_report",
    "format_fig6_table",
    "format_fig7_table",
]
