"""The library is stdlib-only: sympy and hypothesis are test-only."""

import ast
import sys
from pathlib import Path

import pdc

SOURCES = sorted(Path(pdc.__file__).parent.glob("*.py"))


def outside_imports(path: Path) -> list[str]:
    """The modules path imports that are neither relative nor in the
    standard library."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [name for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names]
    return out


def test_every_pdc_module_imports_only_the_standard_library():
    assert len(SOURCES) > 10
    found = {path.name: outside_imports(path) for path in SOURCES}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_the_guard_sees_a_third_party_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nfrom . import text\n"
                    "from sympy.polys import ring\nimport hypothesis.strategies\n")
    assert outside_imports(path) == ["sympy.polys", "hypothesis.strategies"]
