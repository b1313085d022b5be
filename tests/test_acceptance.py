"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is an exact (==) comparison; the only numeric tolerances are the
per-criterion wall-clock budgets, which are asserted as stated.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the one-line-per-criterion
summary as it happens.
"""

import time

from freelie import verify
from freelie.partition import partitions_of
from freelie.superlie import super_brandt_char
from freelie.symfunc import first_bad_multiplicity, schur_expand
from freelie.tableau import count_super_tableaux

# Checks per suite at the "full" profile, which is the acceptance spec: a
# change to a full bound changes one of these counts.
FULL_CHECKS = {
    "brandt-diagonal": 88,
    "petrogradsky": 80,
    "witt-oracle": 136,
    "thrall": 20,
    "klyachko": 94,
    "super-klyachko": 44,
    "hook": 132,
    "qps": 31,
    "sps": 47,
    "cauchy": 5,
    "reu": 202,
    "kw": 45,
    "symmetry": 86,
    "degree-two": 4,
}


def test_full_profile_covers_every_suite():
    assert list(FULL_CHECKS) == list(verify.SUITES)
    assert sum(FULL_CHECKS.values()) == 1014


def _criterion(criterion: str, budget_s: float, *suites: str) -> None:
    """Run the suites at the full profile, print one pass/fail line, and
    assert every check passed, the check counts and the wall-clock budget."""
    t0 = time.monotonic()
    runs = {name: verify.run_suite(name, "full") for name in suites}
    elapsed = time.monotonic() - t0
    reports = [r for name in suites for r in runs[name]]
    failed = [r for r in reports if r["status"] == "fail"]
    status = "PASS" if not failed else "FAIL"
    print(
        f"{status} {criterion} ({elapsed:.1f}s): {len(reports) - len(failed)}/{len(reports)} checks"
    )
    for r in failed[:5]:
        print(f"   failed: {r['check']} {r['parameters']} {r.get('first_discrepancy')}")
    assert not failed, f"{criterion}: {len(failed)} checks failed"
    counts = {name: len(runs[name]) for name in suites}
    assert counts == {name: FULL_CHECKS[name] for name in suites}
    assert elapsed < budget_s, f"{criterion} exceeded {budget_s}s: {elapsed:.1f}s"


def test_criterion_1_brandt_consistency():
    _criterion("criterion 1 (brandt consistency)", 30, "brandt-diagonal", "petrogradsky")


def test_criterion_2_witt_dimensions():
    _criterion("criterion 2 (witt dimensions)", 60, "witt-oracle")


def test_criterion_3_super_thrall():
    _criterion("criterion 3 (super thrall)", 60, "thrall")


def test_criterion_4_klyachko():
    _criterion("criterion 4 (klyachko inductions)", 120, "klyachko", "super-klyachko")


def test_criterion_5_qt_hook_formula():
    _criterion("criterion 5 (q,t-hook formula)", 120, "hook")


def test_criterion_6_specialization_suite():
    _criterion("criterion 6 (specialization suite)", 180, "qps", "sps", "cauchy")


def test_criterion_7_kw_multiplicities():
    _criterion("criterion 7 (multiplicity pipeline)", 180, "kw", "reu")

    # spot check: direct tableau counts match schur multiplicities
    for n, m in ((3, 2), (4, 1), (2, 3)):
        total = n + m
        expansion = schur_expand(super_brandt_char(n, m))
        for lam in partitions_of(total):
            mult = expansion.get(lam, 0)
            assert count_super_tableaux(lam, total, 1, m) == mult


def test_criterion_8_section_seven_checks():
    _criterion("criterion 8 (counting symmetries)", 120, "symmetry", "degree-two")


def test_criterion_9_schur_positivity():
    # bundled with criterion 1's sweep: every bidegree character through
    # total degree 8 has nonnegative integer Schur multiplicities
    t0 = time.monotonic()
    bad = []
    for total in range(1, 9):
        for m in range(total + 1):
            expansion = schur_expand(super_brandt_char(total - m, m))
            if first_bad_multiplicity(expansion) is not None:
                bad.append((total - m, m))
    elapsed = time.monotonic() - t0
    status = "PASS" if not bad else "FAIL"
    print(f"{status} criterion 9 (schur positivity, {elapsed:.1f}s)")
    assert not bad, f"non-character expansions at {bad}"
