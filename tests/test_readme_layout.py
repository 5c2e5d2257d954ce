"""README against the package's public surface and its command line.

`jetsid/__init__.py` is read with `ast`: each name it imports from a
submodule must be named, in backticks, in that submodule's row of the
layout table.  Each command `build_parser()` accepts must be named in the
"Command line" section, and each of its options in backticks there, so
that a change to the exports or the parser cannot leave README stale.
The quick tour's Python block must run and print a risk, and the example
config must load and run `bounds`.
"""

import argparse
import ast
import json
import re
from pathlib import Path

import pytest

from jetsid.cli import build_parser, cmd_bounds, config_from_dict

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


def commands():
    """Command -> the option strings its subparser accepts, help aside."""
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [option for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   for option in action.option_strings]
            for name, parser in sub.choices.items()}


def cli_section():
    return README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("command", list(commands()))
def test_command_and_options_named(command):
    section = cli_section()
    options = commands()[command]
    assert re.search(rf"\bjetsid {command}\b", section), f"README does not show `jetsid {command}`"
    missing = [o for o in options if not re.search(rf"`{re.escape(o)}\b", section)]
    assert not missing, f"README's command line section does not name {missing}"


def code_block(language):
    """The one fenced block of `language` in README."""
    block, = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.S | re.M)
    return block


def test_quick_tour_runs(capsys):
    exec(code_block("python"), {})
    risk = float(capsys.readouterr().out.split()[0])
    assert risk >= 0


def test_example_config_runs_bounds(tmp_path):
    config = config_from_dict(json.loads(code_block("json")), out_override=str(tmp_path))
    assert cmd_bounds(config).exists()
