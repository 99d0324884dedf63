"""Every module-level import of the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossmoji"
# bench/tracer.py wraps these names in crossmoji.pipeline, which calls none of them
PINNED = {"pipeline.py": {"ingest_handle", "train_run_set", "read_tensor_csv"}}


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    unused = set(unused_imports(path.read_text(encoding="utf-8")))
    pinned = PINNED.get(path.name, set())
    assert unused - pinned == set()
    # a pinned name that its module reads needs no pin: take it off the list
    assert pinned <= unused


def test_unused_import_found():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Optional, Sequence\nos.sep\nx: Optional[int]\n")
    assert unused_imports(source) == ["np", "Sequence"]
