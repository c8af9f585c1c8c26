"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's experiment harnesses so the whole
reproduction is drivable without writing Python:

* ``run``      — one §V.C protocol (baseline or a chosen policy);
* ``compare``  — baseline + several policies on the identical stream;
* ``fig5`` / ``fig6`` / ``fig7`` — regenerate a paper figure;
* ``zoo``      — the full policy ablation;
* ``report``   — a Markdown report of the baseline and chosen policies;
* ``policies`` — list registered selection policies;
* ``list-presets`` — the fault, corruption and provision presets.
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
