"""Acceptance suite: one test per criterion, run at exact arithmetic.

Every check is exact (Fraction / Gaussian-rational / parameter-field
arithmetic throughout), so the pass tolerance is equality.  Run with
``pytest -v tests/test_acceptance.py`` to get one line per criterion.
"""

import pytest

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
