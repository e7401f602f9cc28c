"""Acceptance suite: one test per criterion, run at exact arithmetic.

Every check is exact (Fraction / Gaussian-rational / parameter-field
arithmetic throughout), so the pass tolerance is equality.  Run with
``pytest -v tests/test_acceptance.py`` to get one line per criterion.
"""

import ast
import sys
from pathlib import Path

import pytest

import pdc
from pdc.checks import CHECKS, run_all, run_check

CHECK_IDS = [cid for cid, _, _ in CHECKS]


@pytest.mark.parametrize("check_id,title,fn",
                         CHECKS, ids=CHECK_IDS)
def test_criterion(check_id, title, fn):
    ok, detail = fn()
    assert ok, f"{check_id} ({title}) failed: {detail}"


def test_registry_ids_unique_and_ordered():
    assert len(set(CHECK_IDS)) == len(CHECK_IDS)
    assert CHECK_IDS == sorted(CHECK_IDS)


def test_run_check_and_run_all_agree():
    single = run_check("AC3")
    assert single.ok and single.check_id == "AC3"
    everything = run_all()
    assert [r.check_id for r in everything] == CHECK_IDS
    assert all(r.ok for r in everything)
    with pytest.raises(KeyError):
        run_check("AC99")


def test_library_imports_only_the_standard_library():
    # sympy and hypothesis are test-only oracles; the library itself
    # imports nothing outside the standard library and pdc
    modules = sorted(Path(pdc.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "pdc"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
