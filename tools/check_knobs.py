#!/usr/bin/env python
"""CI option check: every defaulted ``src/`` parameter has a caller that sets it.

Stdlib only, and reads sources with ``ast`` rather than importing them,
so it runs in the lint job with no package install (no NumPy).

A *knob* is a parameter with a default value of a top-level function of
a module under ``src/``, or of a method of a top-level class (``self`` /
``cls`` are not parameters).  It is *set* when some call in ``src/``,
``examples/``, ``perfbench/`` or ``tools/``, outside the definition's
own body (recursion is not a caller),

- passes it by keyword (``name=...``),
- passes enough positional arguments to reach it, or
- unpacks ``*args`` / ``**kwargs`` into the call (which may set it).

Calls match definitions by spelling, as in ``tools/check_reachable.py``:
a call spelled ``f(...)`` or ``obj.f(...)`` matches every definition
named ``f``, and a constructor call ``Cls(...)`` (or a
``super().__init__(...)``, or a ``cls(...)`` in the body of ``Cls``)
matches ``__init__``.  A call through an import alias
(``from m import f as g`` then ``g(...)``) is spelled ``f``.  So the
check can miss a knob that shares its function's name with a set one,
but it never flags a knob that a caller does set by name.  The walk
over the caller trees, the own-body rule and the allow-list rules are
``check_reachable``'s.

Tests are not callers: a default that only ``tests/`` override is a
constant.  Definitions that ``tools/check_reachable.py`` allows without
a caller (test hooks and oracles) are skipped, since nothing outside
tests calls them at all.  :data:`ALLOW` lists deliberate exceptions, one
reason each; an entry that names no knob, or one that is set after all,
fails too.

Usage: ``python tools/check_knobs.py`` from anywhere.  Prints the
number of knobs, how many a caller sets and how many are allowed; exit
status is the number of problems (0 = pass).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_reachable import (  # noqa: E402
    ALLOW as UNREACHED,
    in_body,
    judge,
    module_name,
    parse_tree,
)

REPO = Path(__file__).resolve().parent.parent

#: ``module:qualname.parameter`` -> why it stays although no caller in
#: the caller trees sets it.
ALLOW: dict[str, str] = {
    # Safety limits: bounds a caller may tighten, never part of a result.
    "repro.dna.automaton:window_table_feasible.max_entries": "safety limit on table size",
    "repro.dna.regex:compile_regex.max_states": "safety limit on automaton size",
    # Evaluation-engine plumbing, deleted with the engine axis (ROADMAP item 2).
    "repro.core.enumeration:enumerate_best.batch_size": "engine plumbing (ROADMAP item 2)",
    "repro.search.base:BudgetedSearch.__init__.engine": "engine plumbing (ROADMAP item 2)",
    # Set through a call the scan cannot spell.
    "repro.search.base:BudgetedSearch.__init__.seed": "set via the portfolio's name table",
    # Test seams: inputs the tests vary to reach a path or shrink a run.
    "repro.service.client:submit.retry": "test seam: chaos tests inject a retry policy",
    "repro.service.server:CampaignServer.__init__.retry": "test seam: chaos retry policy",
    "repro.service.store:ResultStore.__init__.schema_version": "test seam: stale-schema stores",
    "repro.dna.parem:parem_scan.executor": "test seam: drives the thread-pool chunk path",
    "repro.dna.regex:CompiledRegex.count.start_state": "test seam: resumes a scan mid-stream",
    "repro.dna.sequence:generate_sequence.unknown_rate": "test seam: sequences holding Ns",
    "repro.experiments.iterations:run_iteration_study.genomes": "test seam: fewer genomes",
    "repro.experiments.iterations:run_iteration_study.checkpoints": "test seam: fewer budgets",
}


def _spellings(node: ast.FunctionDef | ast.AsyncFunctionDef, owner: str | None) -> set[str]:
    """The call spellings that reach a definition."""
    if owner is not None and node.name == "__init__":
        return {owner, "__init__"}
    return {node.name}


def _is_static(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def knobs(module: str, tree: ast.Module) -> list[tuple[str, set[str], str, int | None, int, int]]:
    """``(qualname, spellings, parameter, position, first, last)`` per knob.

    ``position`` is the parameter's index among the positional
    arguments a call passes (``None`` for keyword-only parameters).
    """
    funcs: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.append((node, None))
        elif isinstance(node, ast.ClassDef):
            funcs.extend(
                (item, node.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    out = []
    for node, owner in funcs:
        qual = f"{module}:{owner + '.' if owner else ''}{node.name}"
        if qual in UNREACHED:
            continue
        names = _spellings(node, owner)
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        if owner is not None and not _is_static(node):
            positional = positional[1:]
        first_default = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional):
            if index >= first_default:
                out.append((qual, names, arg.arg, index, node.lineno, node.end_lineno))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((qual, names, arg.arg, None, node.lineno, node.end_lineno))
    return out


def calls(tree: ast.Module) -> list[tuple[str, int, float, set[str] | None]]:
    """``(spelling, line, positional count, keywords)`` of every call.

    A name imported under an alias is spelled as the imported name.  The
    positional count is infinite after a ``*args`` unpacking, and the
    keyword set is ``None`` (any keyword) after a ``**kwargs`` one.
    """
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    owners = {
        id(inner): node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for inner in ast.walk(node)
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            spelling = aliases.get(node.func.id, node.func.id)
            if spelling == "cls":
                spelling = owners.get(id(node), spelling)
        elif isinstance(node.func, ast.Attribute):
            spelling = node.func.attr
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        out.append((
            spelling,
            node.lineno,
            float("inf") if starred else len(node.args),
            None if None in keywords else keywords,
        ))
    return out


def scan(root: Path) -> tuple[list[tuple[str, Path, int]], set[str]]:
    """Every knob under ``root`` (``(key, path, line)``) and the set ones."""
    src = root / "src"
    found: list[tuple[str, set[str], str, int | None, Path, int, int]] = []
    by_spelling: dict[str, list[tuple[Path, int, float, set[str] | None]]] = {}
    for top, path, tree in parse_tree(root):
        for spelling, line, npos, keywords in calls(tree):
            by_spelling.setdefault(spelling, []).append((path, line, npos, keywords))
        if top == "src":
            found.extend(
                (qual, names, param, index, path, first, last)
                for qual, names, param, index, first, last in knobs(module_name(path, src), tree)
            )
    every: list[tuple[str, Path, int]] = []
    set_keys: set[str] = set()
    for qual, names, param, index, path, first, last in found:
        key = f"{qual}.{param}"
        every.append((key, path, first))
        for name in names:
            for where, line, npos, keywords in by_spelling.get(name, ()):
                if in_body(where, line, path, first, last):
                    continue
                if keywords is None or param in keywords or (
                    index is not None and npos > index
                ):
                    set_keys.add(key)
    return every, set_keys


def find_problems(root: Path, allow: dict[str, str]) -> tuple[list[str], str]:
    """Unset knobs and stale allow-list entries, plus a one-line count."""
    every, set_keys = scan(root)
    problems = judge(
        every,
        set_keys,
        allow,
        root,
        unused="is set by no caller outside tests",
        used_word="set by a caller",
        noun="a knob",
    )
    keys = {key for key, _path, _line in every}
    count = (
        f"{len(every)} defaulted parameters: {len(set_keys & keys)} set by a caller, "
        f"{len(keys & set(allow) - set_keys)} allowed"
    )
    return problems, count


def main() -> int:
    problems, count = find_problems(REPO, ALLOW)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"knobs: {count}")
    print(f"knobs: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
