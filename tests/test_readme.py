"""What the README states about the code, checked against the code."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycproof"


def test_the_trusted_base_table_gives_each_module_its_line_count():
    section = (ROOT / "README.md").read_text().split("\n## Trusted base\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `cycproof(?:\.(\w+))?`.*\| (\d+) \|$", section, re.M)
    assert len(rows) == section.count("\n| `cycproof") > 10
    for module, lines in rows:
        path = PACKAGE / f"{module or '__init__'}.py"
        assert (module, int(lines)) == (module, path.read_bytes().count(b"\n"))
