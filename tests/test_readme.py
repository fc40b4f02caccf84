"""The README's caps table against the package: each row's value is the
value of the module constant it names, and every cap constant of the
package has a row."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "schurscope").glob("*.py"))


def _caps_table():
    """{"module.CONSTANT": value as written} for the rows of the README's
    caps table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([^|]+) \|", section, re.MULTILINE)
    return {name: value.strip() for name, value in rows}


def _number(text):
    """The int of a table value: `200 000`, `2^20` or `10^9`."""
    text = text.strip("`").replace(" ", "")
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    return int(text)


def test_number_reads_each_way_the_table_writes_one():
    assert _number("200 000") == 200_000
    assert _number("`2^20`") == 1 << 20
    assert _number("`10^9`") == 10 ** 9
    assert _number("4096") == 4096


def test_each_caps_row_has_the_value_of_its_constant():
    table = _caps_table()
    assert table
    for name, value in table.items():
        module, constant = name.split(".")
        got = getattr(importlib.import_module(f"schurscope.{module}"), constant)
        assert _number(value) == got, name


def test_every_cap_constant_has_a_row():
    constants = {f"{path.stem}.{target.id}"
                 for path in SRC for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and "_CAP" in target.id}
    assert constants == set(_caps_table())
