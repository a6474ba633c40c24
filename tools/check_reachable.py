#!/usr/bin/env python
"""CI reachability check: every ``src/`` definition has a caller.

Stdlib only, and reads sources with ``ast`` rather than importing them,
so it runs in the lint job with no package install (no NumPy).

A *definition* is a top-level function or class of a module under
``src/``, or a public method (no leading underscore) of a top-level
class.  It is *reached* when its name occurs somewhere in ``src/``,
``examples/``, ``perfbench/`` or ``tools/`` outside

- its own body (recursion is not a caller),
- docstrings (prose is not a caller), and
- ``__init__.py`` re-exports and every module's ``__all__`` list
  (exporting is not calling).

Names match by spelling, not by scope: a method is reached by any
``.name`` access or any bare ``name``, and a string constant that spells
a dotted name (``"RegressionTree.fit"``, as ``perfbench/spans.py`` binds
its layers) counts as a reference to each of its parts.  So the check
can miss dead code that shares a name with live code, but it never
flags a definition that a caller does reach by name.

Tests are not callers: code that only ``tests/`` reaches fails the
check.  :data:`ALLOW` lists deliberate exceptions, one reason each; an
entry that names no definition, or one that is reached after all, fails
too, so the list stays as short as the code needs.

Usage: ``python tools/check_reachable.py`` from anywhere.  Exit status
is the number of problems (0 = pass).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parent.parent

#: Trees whose code counts as a caller.
CALLER_DIRS = ("src", "examples", "perfbench", "tools")

#: A string constant that spells a (dotted) name.
DOTTED_NAME = re.compile(r"^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$")

#: ``module:qualname`` -> why it stays although nothing in the caller
#: trees reaches it.
ALLOW: dict[str, str] = {
    # Test hooks that reset module-global state between tests.
    "repro.core.campaign:clear_em_cache": "test hook: resets the EM-reference cache",
    "repro.reliability.retry:reset_reliability_stats": "test hook: resets the global ledger",
    "repro.reliability.faults:armed_injector": "test hook: reads the armed fault injector",
    # Counter readers, test inputs and oracles.
    "repro.machines.simulator:PlatformSimulator.experiment_count": "counter the tests read",
    "repro.dna.motifs:motif_set": "builds motif sets from plain strings in tests",
    "repro.dna.ingest:ingest_fasta_string": "builds ingest reports from inline FASTA in tests",
    "repro.dna.ingest:dinucleotide_counts": "oracle: the invariant the shuffle preserves",
    "repro.dna.parem:compose_state_maps": "PaREM oracle: associativity of chunk maps",
    "repro.dna.matching:scan_naive_windows": "oracle for the windowed scanner",
    "repro.dna.matching:scan_windowed": "one-shot form of WindowedScanner.scan",
    "repro.ml.boosting:BoostedDecisionTreeRegressor.staged_predict": "learning-curve oracle",
    "repro.machines.memory:host_scan_roofline_mbs": "scalar oracle of the roofline array",
    "repro.machines.memory:combine_rates": "scalar oracle of combine_rates_array",
    # Public application API and fault plans.
    "repro.dna.analysis:DNASequenceAnalysis.analyze": "public application entry point",
    "repro.reliability.faults:FaultPlan.adversarial_service": "chaos-suite fault plan",
    "repro.ml.metrics:ErrorHistogram.n_predictions": "public histogram total",
    "repro.machines.perfmodel:_SidePerformanceModel.rate_mbs": "public perf-model scan rate",
}


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _is_all_assignment(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def references(path: Path, tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every use of a name in one module."""
    docstrings = _docstring_nodes(tree)
    skipped: set[int] = set()
    for node in tree.body:
        if (
            isinstance(node, (ast.Import, ast.ImportFrom)) and path.name == "__init__.py"
        ) or (
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and _is_all_assignment(node)
        ):
            skipped.update(id(n) for n in ast.walk(node))
    refs: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and DOTTED_NAME.match(node.value)
        ):
            refs.extend((part, node.lineno) for part in node.value.split("."))
    return refs


def definitions(module: str, tree: ast.Module) -> list[tuple[str, str, int, int]]:
    """``(qualname, name, first line, last line)`` of one module's defs."""
    defs: list[tuple[str, str, int, int]] = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        defs.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    defs.append(
                        (f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno)
                    )
    return [(f"{module}:{q}", n, a, b) for q, n, a, b in defs]


def module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def parse_tree(root: Path) -> Iterator[tuple[str, Path, ast.Module]]:
    """``(top, path, tree)`` of every module in the caller trees under ``root``."""
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            yield top, path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def in_body(where: Path, line: int, path: Path, first: int, last: int) -> bool:
    """Whether ``where:line`` lies in the definition at ``path:first-last``."""
    return where == path and first <= line <= last


def judge(
    entries: list[tuple[str, Path, int]],
    used: set[str],
    allow: dict[str, str],
    root: Path,
    *,
    unused: str,
    used_word: str,
    noun: str,
) -> list[str]:
    """Problems of ``(key, path, line)`` entries given the ``used`` keys.

    An entry fails when it is unused and not allowed, or allowed but
    used; an allow-list key that names no entry fails too.
    """
    problems: list[str] = []
    for key, path, line in entries:
        if key in allow:
            if key in used:
                problems.append(f"{key} is {used_word}: drop it from ALLOW")
        elif key not in used:
            problems.append(f"{path.relative_to(root)}:{line}: {key} {unused}")
    keys = {key for key, _path, _line in entries}
    problems.extend(f"ALLOW names {key}, which is not {noun}" for key in sorted(set(allow) - keys))
    return problems


def find_problems(root: Path, allow: dict[str, str]) -> list[str]:
    """Unreached definitions and stale allow-list entries under ``root``."""
    src = root / "src"
    uses: dict[str, list[tuple[Path, int]]] = {}
    defs: list[tuple[str, str, Path, int, int]] = []
    for top, path, tree in parse_tree(root):
        for name, line in references(path, tree):
            uses.setdefault(name, []).append((path, line))
        if top == "src":
            defs.extend(
                (qual, name, path, first, last)
                for qual, name, first, last in definitions(module_name(path, src), tree)
            )
    reached = {
        qual
        for qual, name, path, first, last in defs
        if any(not in_body(where, line, path, first, last) for where, line in uses.get(name, ()))
    }
    return judge(
        [(qual, path, first) for qual, _name, path, first, _last in defs],
        reached,
        allow,
        root,
        unused="has no caller outside tests",
        used_word="reached",
        noun="defined",
    )


def main() -> int:
    problems = find_problems(REPO, ALLOW)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"reachability: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
