"""README tables that name code: the config keys and the package's modules."""

import re
from pathlib import Path

from iterkg import pipeline

ROOT = Path(__file__).resolve().parents[1]


def first_column_names(heading):
    """The backticked names in the first column of the table under ``## heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith("| ---")]
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
