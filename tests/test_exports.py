"""Every name ``polyboot`` exports has a caller outside the test suite: the
package's other modules, ``scripts/`` or ``perfbench/``. A name only the
tests use belongs with them (``tests/oracles.py``), not in the package."""

import ast
import re
from pathlib import Path

import polyboot as pb

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(pb.__file__).parent


def exported_names():
    """The names ``polyboot/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def caller_sources():
    """The text of every file that may call an export."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    return "\n".join(p.read_text(encoding="utf-8") for p in sorted(files))


def test_every_export_has_a_caller_outside_the_tests():
    text = caller_sources()
    uncalled = []
    for name in exported_names():
        # the name's own def or class line is no caller
        others = re.sub(rf"^[ \t]*(?:def|class) {name}\b.*$", "", text, flags=re.M)
        if not re.search(rf"\b{name}\b", others):
            uncalled.append(name)
    assert uncalled == []
