"""The gate itself: the simulator (and the linter) lint clean.

This is the test that keeps every invariant the rule catalogue encodes —
seeded determinism, SI-unit annotations, fenced actuation, hygiene —
machine-enforced for all future changes to ``src/repro``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tests.lint.conftest import REPO_ROOT, SRC_REPRO
from tools.reprolint.runner import lint_paths, run

#: Where a reference reaches a definition from: the shipped sources and
#: every runnable entry point, never the test suite.
CALLER_ROOTS = ("src", "benchmarks", "examples", "perfbench", "tools")

#: Definitions kept although nothing outside the tests uses them.
ORPHAN_EXEMPT = {
    # The unit vocabulary: RL203's advice points code at its
    # constructors and formatters, so they stay whole for code to come.
    "repro/units.py": None,
    # The scheduler tests' closed-list feeder, next to the production
    # feeder so both satisfy the same ``Feeder`` protocol.
    "repro/scheduler/feeder.py": {"ListFeeder"},
}


def test_src_repro_lints_clean() -> None:
    """Full pipeline — per-file rules, whole-program flow (RL5xx) and
    suppression-usage accounting — over the shipped package."""
    result = run([SRC_REPRO], warn_unused=True)
    assert result.parse_errors == []
    assert result.diagnostics == [], "\n".join(
        d.format_text() for d in result.diagnostics
    )


def test_src_repro_has_no_flow_suppressions() -> None:
    """Zero ``disable=RL5xx`` comments anywhere in src/: real flow
    violations were fixed at the source, not waved through."""
    pattern = re.compile(r"reprolint:\s*disable[^=]*=\s*[^#\n]*RL5")
    offenders = [
        str(path)
        for path in sorted(SRC_REPRO.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_reprolint_lints_itself_clean() -> None:
    diagnostics, parse_errors = lint_paths([REPO_ROOT / "tools"])
    assert parse_errors == []
    assert diagnostics == [], "\n".join(d.format_text() for d in diagnostics)


def _references(tree: ast.AST) -> set[str]:
    """Names a module refers to: names, attributes, import aliases and
    identifier-like string constants outside ``__all__``."""
    exported: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(id(n) for n in ast.walk(node.value))
    refs: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                refs.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            refs.add(node.value)
    return refs


def _caller_files() -> list[Path]:
    """Every ``.py`` file a run can start from, except package
    ``__init__.py`` files under ``src/``: a re-export is not a use."""
    files: list[Path] = []
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if root == "src" and path.name == "__init__.py":
                continue
            files.append(path)
    return files


def test_every_public_definition_has_a_caller_outside_tests() -> None:
    """Each public top-level function and class in ``src/repro`` is
    referenced by its own module or by code outside ``tests/``.  A
    definition registered by a decorator call (``@register_policy``)
    counts as reached."""
    reached: set[str] = set()
    for path in _caller_files():
        reached |= _references(ast.parse(path.read_text(encoding="utf-8")))
    orphans = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        rel = path.relative_to(SRC_REPRO.parent).as_posix()
        if rel in ORPHAN_EXEMPT and ORPHAN_EXEMPT[rel] is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("_") or name in (ORPHAN_EXEMPT.get(rel) or ()):
                continue
            if any(isinstance(d, ast.Call) for d in node.decorator_list):
                continue
            rest = ast.Module(
                body=[other for other in tree.body if other is not node],
                type_ignores=[],
            )
            if name in reached or name in _references(rest):
                continue
            orphans.append(f"{rel}:{node.lineno} {name}")
    assert orphans == [], "defined but never used outside tests:\n" + "\n".join(
        orphans
    )
