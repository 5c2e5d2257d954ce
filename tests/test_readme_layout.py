"""README's library layout table against the package's public surface.

`jetsid/__init__.py` is read with `ast`: each name it imports from a
submodule must be named, in backticks, in that submodule's row of the
table, so that a change to the exports cannot leave README stale.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "jetsid" / "__init__.py"
README = ROOT / "README.md"


def exports():
    """(submodule, name) for every name `jetsid/__init__.py` imports."""
    return [(node.module, alias.asname or alias.name)
            for node in ast.parse(INIT.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def layout_rows():
    """Submodule -> the text of its row in README's layout table."""
    return dict(re.findall(r"^\| `jetsid\.(\w+)` \|(.*)\|\s*$", README.read_text(), re.M))


def test_every_export_has_a_row():
    assert {module for module, _ in exports()} <= set(layout_rows())


@pytest.mark.parametrize("module, name", exports())
def test_export_named_in_its_row(module, name):
    assert re.search(rf"`{re.escape(name)}\b", layout_rows().get(module, "")), (
        f"README's `jetsid.{module}` row does not name `{name}`")
