"""``tools/check_knobs.py``: the tree passes, a planted unused option fails.

The check runs in the lint job; these cases pin what it guarantees: the
committed tree has no defaulted ``src/`` parameter that only tests set
and no stale allow-list entry.  The cases on small synthetic trees pin
each rule of the scan: which calls set a parameter (keyword, position,
unpacking, constructor spellings, import aliases) and which do not (tests, recursion).
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "check_knobs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_knobs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = load_tool()


def mini_tree(root: Path, files: dict[str, str]) -> Path:
    """A tree with the caller directories and ``files`` (path -> source)."""
    for top in ("src", "examples", "perfbench", "tools"):
        (root / top).mkdir(parents=True, exist_ok=True)
    (root / "src" / "pkg").mkdir()
    (root / "src" / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def unset(root: Path, allow: dict[str, str] | None = None) -> list[str]:
    """Keys the check reports as set by no caller."""
    problems, _count = check.find_problems(root, allow or {})
    return [
        problem.split(": ", 1)[1].split(" is set by no caller")[0]
        for problem in problems
        if "is set by no caller" in problem
    ]


def test_tree_passes():
    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "knobs: ok" in result.stdout
    assert "defaulted parameters" in result.stdout


def test_every_allow_entry_has_a_reason():
    assert all(reason.strip() for reason in check.ALLOW.values())


def test_stale_allow_entry_fails():
    allow = {**check.ALLOW, "repro.core.params:host_only_config.no_such": "stale"}
    problems, _count = check.find_problems(REPO, allow)
    assert problems == [
        "ALLOW names repro.core.params:host_only_config.no_such, which is not a knob"
    ]


# -- the scan's rules, each on a small synthetic tree ------------------------


def test_a_keyword_from_src_sets(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(x, *, knob=1):\n    return x + knob\n",
            "src/pkg/use.py": "from .mod import f\n\nVALUE = f(1, knob=2)\n",
        },
    )
    assert unset(root) == []


@pytest.mark.parametrize("caller_dir", ["examples", "perfbench", "tools"])
def test_a_keyword_from_every_caller_tree_sets(tmp_path, caller_dir):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(*, knob=1):\n    return knob\n",
            f"{caller_dir}/script.py": "from pkg.mod import f\n\nf(knob=3)\n",
        },
    )
    assert unset(root) == []


def test_tests_are_not_callers(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(*, knob=1):\n    return knob\n",
            "examples/use.py": "from pkg.mod import f\n\nf()\n",
            "tests/test_mod.py": "from pkg.mod import f\n\nf(knob=2)\n",
        },
    )
    assert unset(root) == ["pkg.mod:f.knob"]


def test_enough_positional_arguments_set(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(a, b=1, c=2):\n    return a + b + c\n",
            "examples/use.py": "from pkg.mod import f\n\nf(0, 5)\n",
        },
    )
    assert unset(root) == ["pkg.mod:f.c"]


def test_self_is_not_a_position(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "class Box:\n    def put(self, item=None, tag=''):\n"
            "        return item, tag\n",
            "examples/use.py": "from pkg.mod import Box\n\nBox().put(1)\n",
        },
    )
    assert unset(root) == ["pkg.mod:Box.put.tag"]


def test_unpacking_may_set_anything(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(a=0, *, knob=1):\n    return a + knob\n",
            "examples/use.py": "from pkg.mod import f\n\nf(*[1])\nf(**{'knob': 2})\n",
        },
    )
    assert unset(root) == []


@pytest.mark.parametrize(
    "call",
    [
        "Box(size=2)",
        "class Big(Box):\n    def __init__(self):\n        super().__init__(size=3)\n",
    ],
)
def test_constructor_spellings_set_init_parameters(tmp_path, call):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "class Box:\n    def __init__(self, size=1):\n"
            "        self.size = size\n",
            "examples/use.py": f"from pkg.mod import Box\n\n{call}\n",
        },
    )
    assert unset(root) == []


def test_a_classmethod_cls_call_sets_init_parameters(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "class Box:\n    def __init__(self, size=1):\n"
            "        self.size = size\n\n    @classmethod\n    def big(cls):\n"
            "        return cls(size=9)\n",
            "examples/use.py": "from pkg.mod import Box\n\nBox.big()\n",
        },
    )
    assert unset(root) == []


def test_a_cls_call_sets_only_its_own_class(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "class Box:\n    def __init__(self, size=1):\n"
            "        self.size = size\n\n\nclass Crate:\n"
            "    def __init__(self, size=1):\n        self.size = size\n\n"
            "    @classmethod\n    def big(cls):\n        return cls(size=9)\n",
            "examples/use.py": "from pkg.mod import Box, Crate\n\nBox()\nCrate.big()\n",
        },
    )
    assert unset(root) == ["pkg.mod:Box.__init__.size"]


def test_a_call_through_an_import_alias_sets(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(a, *, host='x', port=1):\n    return a, host, port\n",
            "examples/use.py": "from pkg.mod import f as g\n\ng(0, host='y')\n",
        },
    )
    assert unset(root) == ["pkg.mod:f.port"]


def test_recursion_is_not_a_caller(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(n, *, depth=0):\n"
            "    return f(n - 1, depth=depth + 1) if n else depth\n",
            "examples/use.py": "from pkg.mod import f\n\nf(3)\n",
        },
    )
    assert unset(root) == ["pkg.mod:f.depth"]


def test_nested_functions_are_not_definitions(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def outer():\n    def inner(knob=1):\n        return knob\n"
            "    return inner()\n",
            "examples/use.py": "from pkg.mod import outer\n\nouter()\n",
        },
    )
    assert unset(root) == []


def test_an_allowed_knob_passes_and_a_set_one_is_stale(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def f(*, port=7911, host='x'):\n    return host, port\n",
            "examples/use.py": "from pkg.mod import f\n\nf(host='y')\n",
        },
    )
    assert unset(root, {"pkg.mod:f.port": "deployment"}) == []
    problems, _count = check.find_problems(
        root, {"pkg.mod:f.port": "deployment", "pkg.mod:f.host": "kept"}
    )
    assert problems == ["pkg.mod:f.host is set by a caller: drop it from ALLOW"]


def test_problem_lines_name_the_file_and_line(tmp_path):
    root = mini_tree(
        tmp_path,
        {
            "src/pkg/mod.py": "X = 1\n\n\ndef f(*, knob=X):\n    return knob\n",
            "examples/use.py": "from pkg.mod import f\n\nf()\n",
        },
    )
    problems, count = check.find_problems(root, {})
    assert problems == ["src/pkg/mod.py:4: pkg.mod:f.knob is set by no caller outside tests"]
    assert count == "1 defaulted parameters: 0 set by a caller, 0 allowed"
