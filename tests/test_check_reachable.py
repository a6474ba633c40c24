"""``tools/check_reachable.py``: the tree passes, planted dead code fails.

The check runs in the lint job; these cases pin what it guarantees: the
committed tree has no unreached ``src/`` definition and no stale
allow-list entry, and a definition that nothing calls is reported.  The
cases on small synthetic trees pin each rule of the scan: which trees
count as callers, and which mentions (recursion, docstrings, re-exports,
``__all__`` lists) do not.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "check_reachable.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_reachable", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = load_tool()


def copy_tree(dest: Path) -> Path:
    for top in check.CALLER_DIRS:
        shutil.copytree(
            REPO / top, dest / top, ignore=shutil.ignore_patterns("__pycache__", "*.pyc")
        )
    return dest


def run_tool(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "tools" / "check_reachable.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tree_passes():
    result = run_tool(REPO)
    assert result.returncode == 0, result.stderr
    assert "reachability: ok" in result.stdout


def test_planted_dead_function_fails(tmp_path):
    root = copy_tree(tmp_path)
    params = root / "src" / "repro" / "core" / "params.py"
    params.write_text(
        params.read_text(encoding="utf-8")
        + "\n\ndef planted_dead_helper(x):\n    return planted_dead_helper(x - 1) if x else 0\n",
        encoding="utf-8",
    )
    result = run_tool(root)
    assert result.returncode == 1
    assert "repro.core.params:planted_dead_helper has no caller" in result.stderr

    allow = {**check.ALLOW, "repro.core.params:planted_dead_helper": "planted"}
    assert check.find_problems(root, allow) == []


def test_stale_allow_entry_fails():
    allow = {**check.ALLOW, "repro.core.params:no_such_definition": "stale"}
    assert check.find_problems(REPO, allow) == [
        "ALLOW names repro.core.params:no_such_definition, which is not defined"
    ]


# -- the scan's rules, each on a small synthetic tree ------------------------


def mini_tree(root: Path, files: dict[str, str]) -> Path:
    """A tree with the caller directories and ``files`` (path -> source)."""
    for top in check.CALLER_DIRS:
        (root / top).mkdir(parents=True, exist_ok=True)
    (root / "src" / "pkg").mkdir()
    (root / "src" / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def unreached(root: Path, allow: dict[str, str] | None = None) -> list[str]:
    """Qualnames the check reports as having no caller."""
    return [
        problem.split(": ", 1)[1].split(" has no caller")[0]
        for problem in check.find_problems(root, allow or {})
        if "has no caller" in problem
    ]


def test_a_call_from_src_reaches(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def used():\n    return 1\n",
            "src/pkg/other.py": "from .mod import used\n\nVALUE = used()\n",
        },
    )
    assert check.find_problems(root, {}) == []


@pytest.mark.parametrize("caller_dir", ["examples", "perfbench", "tools"])
def test_a_call_from_every_caller_tree_reaches(tmp_path, caller_dir):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def used():\n    return 1\n",
            f"{caller_dir}/script.py": "from pkg.mod import used\n\nused()\n",
        },
    )
    assert check.find_problems(root, {}) == []


def test_tests_are_not_callers(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def only_tested():\n    return 1\n",
            "tests/test_mod.py": "from pkg.mod import only_tested\n\nonly_tested()\n",
        },
    )
    assert unreached(root) == ["pkg.mod:only_tested"]


def test_recursion_is_not_a_caller(tmp_path):
    root = mini_tree(
        tmp_path,
        {"src/pkg/mod.py": "def loop(n):\n    return loop(n - 1) if n else 0\n"},
    )
    assert unreached(root) == ["pkg.mod:loop"]


def test_docstring_mentions_are_not_callers(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def prose():\n    return 1\n",
            "src/pkg/other.py": '"""See prose for details."""\n\n\ndef f():\n'
            '    """prose"""\n    return 2\n\n\nf()\n',
        },
    )
    assert unreached(root) == ["pkg.mod:prose"]


def test_package_reexports_are_not_callers(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def exported():\n    return 1\n",
            "src/pkg/__init__.py": 'from .mod import exported\n\n__all__ = ["exported"]\n',
        },
    )
    assert unreached(root) == ["pkg.mod:exported"]


def test_module_all_lists_are_not_callers(tmp_path):
    root = mini_tree(
        tmp_path,
        {"src/pkg/mod.py": '__all__ = ["listed"]\n\n\ndef listed():\n    return 1\n'},
    )
    assert unreached(root) == ["pkg.mod:listed"]


def test_an_import_outside_an_init_reaches(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def helper():\n    return 1\n",
            "src/pkg/other.py": "from .mod import helper  # noqa: F401\n",
        },
    )
    assert check.find_problems(root, {}) == []


def test_a_dotted_string_constant_reaches_each_part(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "class Model:\n    def fit(self):\n        return self\n",
            "perfbench/spans.py": 'LAYERS = ["Model.fit"]\n',
        },
    )
    assert check.find_problems(root, {}) == []


def test_unreached_public_method_is_reported_by_qualname(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "class Box:\n    def open(self):\n        return 1\n\n"
            "    def _private(self):\n        return 2\n",
            "examples/use.py": "from pkg.mod import Box\n\nBox()\n",
        },
    )
    assert unreached(root) == ["pkg.mod:Box.open"]


def test_nested_functions_are_not_definitions(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def outer():\n    def inner():\n        return 1\n"
            "    return 2\n",
            "examples/use.py": "from pkg.mod import outer\n\nouter()\n",
        },
    )
    assert check.find_problems(root, {}) == []


def test_async_definitions_are_checked(tmp_path):
    root = mini_tree(
        tmp_path,
        {"src/pkg/mod.py": "async def serve():\n    return 1\n"},
    )
    assert unreached(root) == ["pkg.mod:serve"]


def test_an_allow_entry_that_is_reached_is_stale(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def used():\n    return 1\n",
            "examples/use.py": "from pkg.mod import used\n\nused()\n",
        },
    )
    assert check.find_problems(root, {"pkg.mod:used": "kept"}) == [
        "pkg.mod:used is reached: drop it from ALLOW"
    ]


def test_problem_lines_name_the_file_and_line(tmp_path):
    root = mini_tree(
        tmp_path,
        {"src/pkg/mod.py": "X = 1\n\n\ndef dead():\n    return X\n"},
    )
    assert check.find_problems(root, {}) == [
        "src/pkg/mod.py:4: pkg.mod:dead has no caller outside tests"
    ]
