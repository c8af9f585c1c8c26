"""The gate itself: the simulator (and the linter) lint clean.

This is the test that keeps every invariant the rule catalogue encodes —
seeded determinism, SI-unit annotations, fenced actuation, hygiene —
machine-enforced for all future changes to ``src/repro``.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import typing
from pathlib import Path

from repro.experiments.common import ExperimentConfig
from tests.lint.conftest import REPO_ROOT, SRC_REPRO
from tools.reprolint.runner import lint_paths, run

#: Where a reference reaches a definition from: the shipped sources and
#: every runnable entry point, never the test suite.
CALLER_ROOTS = ("src", "benchmarks", "examples", "perfbench", "tools")

#: Trees the stdlib stand-in for ruff's F401 and E741 checks walks.
RUFF_ROOTS = ("src", "tools", "tests")

#: Names ruff's E741 rejects: each reads like a digit in some fonts.
AMBIGUOUS_NAMES = frozenset({"l", "O", "I"})

#: Definitions kept although nothing outside the tests uses them.
ORPHAN_EXEMPT = {
    # The unit vocabulary: RL203's advice points code at its
    # constructors and formatters, so they stay whole for code to come.
    "repro/units.py": None,
    # The scheduler tests' closed-list feeder, next to the production
    # feeder so both satisfy the same ``Feeder`` protocol.
    "repro/scheduler/feeder.py": {"ListFeeder"},
}

#: Run-configuration fields kept although no run gives them a
#: non-default value, with the reason each stays.
KNOB_EXEMPT = {
    "ExperimentConfig.privileged_nodes": "the paper's own input: "
    "A_uncontrollable, the privileged set of §II.A",
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


def _config_sections() -> dict[str, type]:
    """The run configuration's classes by CLI section name:
    ``ExperimentConfig`` itself, and the config class of each of its
    fields under that field's name."""
    sections: dict[str, type] = {"experiment": ExperimentConfig}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        for arg in (hint, *typing.get_args(hint)):
            if isinstance(arg, type) and dataclasses.is_dataclass(arg):
                sections[name] = arg
    return sections


def _is_replace(func: ast.expr) -> bool:
    """Whether a call's function is ``replace`` or ``dataclasses.replace``."""
    if isinstance(func, ast.Attribute):
        return (
            func.attr == "replace"
            and isinstance(func.value, ast.Name)
            and func.value.id == "dataclasses"
        )
    return isinstance(func, ast.Name) and func.id == "replace"


class _KnobSettings:
    """The ``(class, field)`` pairs some code gives a non-default value.

    A field is set by a keyword of a call that builds or replaces a
    config (``cls(...)`` counts for its own class, and ``replace`` of
    an unknown config for every class with that field), by a
    string-keyed store into a dict splatted into such a call, or by a
    CLI option-table row ``(flag, section, field, ...)``.  A literal
    equal to the field's default sets nothing.
    """

    def __init__(self) -> None:
        sections = _config_sections()
        self.sections = {name: cls.__name__ for name, cls in sections.items()}
        self.fields = {
            cls.__name__: {f.name: f for f in dataclasses.fields(cls)}
            for cls in sections.values()
        }
        self.found: set[tuple[str, str]] = set()

    def _targets(self, call: ast.Call, owner: str | None) -> set[str]:
        """The config classes a call builds or replaces."""
        func = call.func
        base = func.value if isinstance(func, ast.Attribute) else func
        if isinstance(base, ast.Name):
            name = owner if base.id == "cls" else base.id
            if name in self.fields:
                return {name}
        if not _is_replace(func):
            return set()
        first = call.args[0] if call.args else None
        if isinstance(first, ast.Call):
            return self._targets(first, owner) or set(self.fields)
        return set(self.fields)

    def _set(self, classes: set[str], field: str, value: ast.expr | None) -> None:
        """Record ``field`` of ``classes`` as set to ``value`` (``None``:
        a value only known at run time)."""
        for name in classes:
            spec = self.fields[name].get(field)
            if spec is None:
                continue
            if value is not None:
                if spec.default is not dataclasses.MISSING:
                    default = spec.default
                else:
                    default = spec.default_factory()
                try:
                    if ast.literal_eval(value) == default:
                        continue
                except ValueError:
                    pass
            self.found.add((name, field))

    def _cli_row(self, row: ast.Tuple) -> None:
        parts = row.elts[:3]
        if len(parts) == 3 and all(
            isinstance(p, ast.Constant) and isinstance(p.value, str) for p in parts
        ):
            flag, section, field = (p.value for p in parts)
            if flag.startswith("--") and section in self.sections:
                self._set({self.sections[section]}, field, None)

    def scan(self, scope: list[ast.AST], owner: str | None) -> None:
        """Record what one function (or module-level statement) sets."""
        splats: dict[str, set[str]] = {}
        stores: list[tuple[str, str, ast.expr]] = []
        for node in (sub for top in scope for sub in ast.walk(top)):
            if isinstance(node, ast.Call):
                targets = self._targets(node, owner)
                for kw in node.keywords if targets else ():
                    if kw.arg is not None:
                        self._set(targets, kw.arg, kw.value)
                    elif isinstance(kw.value, ast.Name):
                        splats.setdefault(kw.value.id, set()).update(targets)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and isinstance(t.slice, ast.Constant)
                        and isinstance(t.slice.value, str)
                    ):
                        stores.append((t.value.id, t.slice.value, node.value))
            elif isinstance(node, ast.Tuple):
                self._cli_row(node)
        for name, field, value in stores:
            self._set(splats.get(name, set()), field, value)

    def visit(self, node: ast.AST, owner: str | None = None) -> None:
        """Scan each function of a module, and each other statement."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self.visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scan([*child.body, *child.args.defaults], owner)
            else:
                self.scan([child], owner)


def test_every_config_field_is_set_by_some_run() -> None:
    """A knob no run sets is a constant: each field of the run
    configuration gets a non-default value from code outside
    ``tests/`` (a preset, a harness, the CLI's option table, ...)."""
    settings = _KnobSettings()
    for path in _caller_files():
        settings.visit(ast.parse(path.read_text(encoding="utf-8")))
    unset = [
        f"{name}.{field}"
        for name, fields in settings.fields.items()
        for field in fields
        if (name, field) not in settings.found
        and f"{name}.{field}" not in KNOB_EXEMPT
    ]
    assert unset == [], "fields no run sets (make them constants):\n" + "\n".join(
        unset
    )


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations (``"BatchScheduler | None"``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    parsed = ast.parse(part.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Module-level imports (top level, or under a top-level ``if`` or
    ``try``) whose name the module never loads or lists in ``__all__``."""
    bound: list[tuple[int, str]] = []
    blocks = [tree.body]
    while blocks:
        for stmt in blocks.pop():
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound += [
                    (stmt.lineno, alias.asname or alias.name.split(".")[0])
                    for alias in stmt.names
                ]
            elif isinstance(stmt, (ast.If, ast.Try)):
                blocks += [stmt.body, stmt.orelse]
                blocks += [h.body for h in getattr(stmt, "handlers", [])]
    used = _annotation_names(tree) | {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return [(line, name) for line, name in bound if name not in used]


def _ambiguous_bindings(tree: ast.AST) -> list[tuple[int, str]]:
    """Every binding of an ``l``, ``O`` or ``I`` name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = node.name
        elif isinstance(node, (ast.ExceptHandler, ast.alias)):
            name = node.name if isinstance(node, ast.ExceptHandler) else node.asname
        else:
            continue
        if name in AMBIGUOUS_NAMES:
            found.append((node.lineno, name))
    return found


def test_no_unused_imports_or_ambiguous_names() -> None:
    """A stdlib stand-in for ruff's F401 and E741 where ruff is absent:
    no module-level import goes unused (package ``__init__`` re-exports
    excepted, as ruff's per-file ignore has it) and no name is ``l``,
    ``O`` or ``I``.  The lint fixtures are exempt: they are bad on
    purpose."""
    fixtures = REPO_ROOT / "tests" / "lint" / "fixtures"
    problems = []
    for root in RUFF_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.is_relative_to(fixtures):
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.name != "__init__.py":
                problems += [
                    f"{rel}:{line} unused import {name}"
                    for line, name in _unused_imports(tree)
                ]
            problems += [
                f"{rel}:{line} ambiguous name {name}"
                for line, name in _ambiguous_bindings(tree)
            ]
    assert problems == [], "\n".join(problems)
