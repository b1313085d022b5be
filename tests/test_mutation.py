"""Every check can fail, visibly.

Each check name that ``verify all --profile quick`` emits has a mutant here:
a monkeypatch that corrupts one of the check's two routes (for the one-route
``schur-positivity``, its one route).  Under the mutant the check must fail,
and its failure must say why: both routes or where they differ, in the
report, in text output and in JSON output.  A new check without a mutant
fails ``test_every_emitted_check_has_a_mutant``.
"""

import json
from fractions import Fraction

import pytest

from freelie import (
    cli,
    cyclic,
    exactalg,
    partition,
    specialization,
    superlie,
    symfunc,
    tableau,
    verify,
)
from freelie.cyclic import CyclicClassFunction
from freelie.exactalg import CycloElem, MultiPoly, QTPoly
from freelie.specialization import SpecSeries
from freelie.symfunc import BiSymFunc, SymFunc


def _clear_caches():
    symfunc.clear_character_cache()
    for module in (tableau, partition, exactalg, specialization):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    # a mutant may leave corrupted values in a memo table; clear them on both
    # sides so that no result depends on test order
    _clear_caches()
    yield
    _clear_caches()


def _corrupt(value):
    """The value plus a nonzero term of its own kind, so that it differs;
    a tuple or dict of values has its first value corrupted."""
    if isinstance(value, tuple):
        return (_corrupt(value[0]), *value[1:])
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _corrupt(value[first])}
    if isinstance(value, SymFunc):
        # negative and fractional, so that a Schur expansion is no character
        return value + SymFunc.term(value.basis, (1,), Fraction(-1, 2))
    if isinstance(value, BiSymFunc):
        return value + BiSymFunc.term((1,), (1,))
    if isinstance(value, SpecSeries):
        return value + SpecSeries(value.q_cap, {(0, 1): 1})
    if isinstance(value, QTPoly):
        return value + QTPoly.q()
    if isinstance(value, MultiPoly):
        return value + MultiPoly.const(value.nx, value.ny, 1)
    if isinstance(value, CycloElem):
        return value + CycloElem.from_rational(value.modulus, 1)
    if isinstance(value, CyclicClassFunction):
        return CyclicClassFunction(value.order, _corrupt(value.values))
    return value + 1


def value_of(real):
    """The mutant that corrupts the function's value."""
    return lambda *args: _corrupt(real(*args))


def second_route(real):
    """The mutant that corrupts the second of the two routes returned."""

    def mutant(*args):
        lhs, rhs = real(*args)
        return lhs, _corrupt(rhs)

    return mutant


def residue_one(bars=None):
    """The mutant of ``symmetry_counts`` that adds one tableau to residue 1,
    at every bar count or only at ``bars``."""

    def mutate(real):
        def mutant(lam, r_total, m):
            counts = real(lam, r_total, m)
            if bars in (None, m):
                counts[1] += 1
            return counts

        return mutant

    return mutate


# check name -> (suite, module, attribute, mutant factory)
MUTANTS = {
    "brandt-diagonal": ("brandt-diagonal", symfunc, "diagonal", value_of),
    "schur-positivity": ("brandt-diagonal", symfunc, "schur_expand", value_of),
    "petrogradsky-series": ("petrogradsky", superlie, "petrogradsky_series", value_of),
    "witt-vs-specialization": ("witt-oracle", symfunc, "expand_truncated", value_of),
    "witt-vs-bracket-rank": ("witt-oracle", superlie, "brute_force_lie_dim", value_of),
    "thrall-sum": ("thrall", superlie, "thrall_routes", second_route),
    "klyachko-classical": ("klyachko", superlie, "super_brandt_char", value_of),
    "induction-vs-oracle": ("klyachko", symfunc, "frobenius_characteristic", value_of),
    "subset-rotation-character": ("klyachko", cyclic, "chi_cyc_oracle", value_of),
    "super-klyachko": ("super-klyachko", cyclic, "super_klyachko_char", value_of),
    "hook-formula": ("hook", tableau, "maj_neg_generating_polys", value_of),
    "hook-classical-slice": ("hook", specialization, "hook_product", value_of),
    "qsym-principal-specialization": ("qps", specialization, "qps_routes", second_route),
    "schur-principal-specialization": ("sps", specialization, "s_ps_routes", second_route),
    "qt-hook-specialization": ("sps", specialization, "qt_hook_routes", second_route),
    "super-cauchy": ("cauchy", specialization, "super_cauchy_routes", second_route),
    "pi-root": ("reu", specialization, "pi_root_routes", second_route),
    "kw-multiplicity": ("kw", specialization, "kw_routes", second_route),
    "omega-filter-vs-roots": ("kw", specialization, "omega_extract_roots", value_of),
    "residue-symmetry-classical": ("symmetry", specialization, "symmetry_counts", residue_one()),
    "residue-symmetry-signed": ("symmetry", specialization, "symmetry_counts", residue_one()),
    # the odd symmetry compares two bar counts, so corrupt only one of them
    "bar-count-symmetry-odd": ("symmetry", specialization, "symmetry_counts", residue_one(1)),
    "degree-two": ("degree-two", specialization, "degree_two_routes", second_route),
}


def test_every_emitted_check_has_a_mutant():
    emitted = {r.check: name for name in verify.SUITES for r in verify.run_suite(name, "quick")}
    assert {check: suite for check, (suite, *_) in MUTANTS.items()} == emitted
    assert {r.check for r in verify.run_suite("all", "quick")} == set(MUTANTS)


@pytest.mark.parametrize("check", sorted(MUTANTS))
def test_every_check_fails_visibly_under_its_mutant(check, monkeypatch, capsys):
    suite, module, attribute, mutant = MUTANTS[check]
    monkeypatch.setattr(module, attribute, mutant(getattr(module, attribute)))

    failed = [r for r in verify.run_suite(suite, "quick") if r.check == check and not r.ok]
    assert failed, f"{check} still passes under its mutant"
    for r in failed:
        assert r.lhs is not None and r.rhs is not None or r.first_discrepancy is not None, r

    argv = ["verify", suite, "--profile", "quick", "--format"]
    assert cli.main([*argv, "json"]) == cli.EXIT_IDENTITY_FAILURE
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    failed = [c for c in checks if c["check"] == check and c["status"] == "fail"]
    assert failed
    for c in failed:
        assert {"lhs", "rhs"} <= c.keys() or "first_discrepancy" in c, c

    assert cli.main([*argv, "text"]) == cli.EXIT_IDENTITY_FAILURE
    lines = capsys.readouterr().out.splitlines()
    fail_rows = [i for i, line in enumerate(lines) if line.startswith(f"  [fail] {check} ")]
    assert len(fail_rows) == len(failed)
    for i in fail_rows:
        assert lines[i + 1].startswith(("    discrepancy: ", "    lhs: ")), lines[i : i + 2]
