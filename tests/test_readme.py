"""README sections that name code: the config keys, the CLI options and
the package's modules."""

import argparse
import re
from pathlib import Path

from iterkg import pipeline
from iterkg.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def section(heading):
    """The README text under ``## heading``, up to the next such heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def first_column_names(heading):
    """The backticked names in the first column of the table under ``## heading``."""
    rows = [line for line in section(heading).splitlines() if line.startswith("| ") and not line.startswith("| ---")]
    return [name for row in rows[1:] for name in re.findall(r"`([^`]+)`", row.split(" | ", 1)[0])]


def test_config_table_lists_exactly_the_config_keys():
    names = first_column_names("Config file")
    assert len(names) == len(set(names))
    assert set(names) == set(pipeline._CONFIG_KEYS)


def test_package_layout_lists_exactly_the_modules():
    modules = {f"iterkg.{p.stem}" for p in (ROOT / "src" / "iterkg").glob("*.py") if p.stem != "__init__"}
    names = first_column_names("Package layout")
    assert len(names) == len(set(names))
    assert set(names) == modules


def test_cli_bullets_list_exactly_each_subcommands_options():
    # a bullet's code span may cross a line break
    bullets = re.findall(r"^- `iterkg (\w+) ([^`]*)`", section("CLI"), re.MULTILINE)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(command for command, _ in bullets) == sorted(subparsers.choices)
    for command, usage in bullets:
        options = {flag for action in subparsers.choices[command]._actions for flag in action.option_strings}
        assert set(re.findall(r"--[\w-]+", usage)) == options - {"-h", "--help"}, command
