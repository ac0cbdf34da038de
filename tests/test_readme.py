"""README's Python examples run as written, and its module table names the
package API that ``momentkit`` exports."""

import re
from pathlib import Path

import momentkit
from momentkit import errors

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)


def test_module_table_lists_the_package_api():
    rows = [line for line in TEXT.splitlines() if line.startswith("| `momentkit.")]
    listed = {name for row in rows for name in re.findall(r"`(\w+)`", row.split(" | ")[1])}
    assert listed == set(momentkit.__all__) - set(dir(errors))
