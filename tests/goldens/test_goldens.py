"""Every searcher and method reproduces its pinned digest.

``digests.json`` was written by ``tools/regen_goldens.py`` (see its
docstring for what each case runs and hashes).  A case that moves names
the searcher or method whose trajectory or result changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "regen_goldens", REPO / "tools" / "regen_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()
CASES = tool.cases()
PINNED = json.loads(tool.GOLDENS.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_matches(name):
    assert CASES[name]() == PINNED[name]
