#!/usr/bin/env python3
"""Docstring-coverage gate for the public surfaces of this library.

Walks the given source trees (default: :data:`DEFAULT_TARGETS` —
``repro.exec``, ``repro.serving``, ``repro.kernels``, ``repro.obs``,
``repro.mapreduce``, ``repro.resilience``, ``repro.validation`` and
``repro.data.scale``) and fails — exit code 1, one line per violation —
when any of these lacks a docstring:

* a module;
* a public (non-underscore) module-level function or class;
* a public method (including properties) of a public class.

Private names (leading underscore) and dunder methods are exempt:
their contracts belong to the enclosing public object's docs.  This is
deliberately a small, dependency-free checker rather than pydocstyle —
the container pins the toolchain, and the single rule we gate on
("exported names explain themselves") does not need a style engine.

Usage::

    python tools/check_docstrings.py [PATH ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: The packages whose public surfaces are gated by default.
DEFAULT_TARGETS = (
    "src/repro/exec",
    "src/repro/serving",
    "src/repro/kernels",
    "src/repro/obs",
    "src/repro/mapreduce",
    "src/repro/resilience",
    "src/repro/validation",
    "src/repro/data/scale.py",
)

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in_class(node: ast.ClassDef, module: str) -> list[str]:
    problems = []
    if ast.get_docstring(node) is None:
        problems.append(f"{module}: class {node.name} has no docstring")
    if not _is_public(node.name):
        return problems
    for child in node.body:
        if isinstance(child, FunctionNode) and _is_public(child.name):
            if ast.get_docstring(child) is None:
                problems.append(
                    f"{module}: method {node.name}.{child.name} "
                    f"has no docstring"
                )
    return problems


def check_file(path: Path) -> list[str]:
    """Return the docstring violations of one Python file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = str(path)
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{module}: module has no docstring")
    for node in tree.body:
        if isinstance(node, FunctionNode) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{module}: function {node.name} has no docstring"
                )
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            problems.extend(_missing_in_class(node, module))
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    targets = (argv if argv is not None else sys.argv[1:]) or list(
        DEFAULT_TARGETS
    )
    root = Path(__file__).resolve().parent.parent
    files: list[Path] = []
    for target in targets:
        path = (root / target) if not Path(target).is_absolute() else Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(
            f"\ndocstring coverage FAILED: {len(problems)} missing "
            f"docstring(s) across {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"docstring coverage OK: {checked} file(s) fully documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
