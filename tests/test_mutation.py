"""Every check can fail, visibly.

Each check name that ``verify all --profile quick`` emits has a mutant here:
a monkeypatch that corrupts one of the check's two routes (for the one-route
``schur-positivity``, its one route).  Under the mutant the check must fail,
and its failure must say why: both routes or where they differ, in the
report, in text output and in JSON output.  A new check without a mutant
fails ``test_every_emitted_check_has_a_mutant``.
"""

import importlib
import inspect
import json
import math
import pkgutil

import pytest

import freelie
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
from freelie.exactalg import CycloElem, MultiPoly, QTPoly, Rational
from freelie.specialization import SpecSeries
from freelie.symfunc import BiSymFunc, SymFunc


def _submodules():
    """Every module of the package, imported."""
    for info in pkgutil.iter_modules(freelie.__path__):
        yield importlib.import_module(f"freelie.{info.name}")


def _caches():
    """Every module-level lru_cache of the package."""
    for module in _submodules():
        yield from (value for value in vars(module).values() if hasattr(value, "cache_info"))


def _clear_caches():
    symfunc.clear_character_cache()
    for cache in _caches():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    # a mutant may leave corrupted values in a memo table; clear them on both
    # sides so that no result depends on test order
    _clear_caches()
    yield
    _clear_caches()


def _corrupt(value):
    """The value plus a nonzero term of its own kind, so that it differs;
    a tuple or dict of values, a Schur expansion among them, has its first
    value corrupted, and a number loses a half, so that a Schur multiplicity
    is no integer."""
    if isinstance(value, tuple):
        return (_corrupt(value[0]), *value[1:])
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _corrupt(value[first])}
    if isinstance(value, SymFunc):
        # negative and fractional, so that its Schur expansion is no character
        return value + SymFunc.term((1,), Rational(-1, 2))
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
    return value - Rational(1, 2)


def value_of(real):
    """The mutant that corrupts the function's value."""
    return lambda *args: _corrupt(real(*args))


def second_route(real):
    """The mutant that corrupts the second of the two routes returned."""

    def mutant(*args, **kwargs):
        lhs, rhs = real(*args, **kwargs)
        return lhs, _corrupt(rhs)

    return mutant


def residue_one(bars=None):
    """The mutant of ``symmetry_counts`` that adds one tableau to residue 1,
    at every bar count or only at ``bars``."""

    def mutate(real):
        def mutant(lam, r_total, m, *sweep):
            counts = real(lam, r_total, m, *sweep)
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


def test_clear_caches_reaches_the_oracle_tables():
    cyclic.induce_oracle(cyclic.chi_power(3, 1))
    symfunc.expand_truncated(SymFunc.term((2, 1)), 2)
    tables = (cyclic._conjugation_counts, symfunc._power_sum_product)
    assert all(table.cache_info().currsize for table in tables)
    _clear_caches()
    assert not any(table.cache_info().currsize for table in tables)


def test_clear_caches_empties_every_cache_of_the_package():
    # a memo table that _clear_caches misses would carry a mutant's values
    # from one test into the next
    assert cli.main(["verify", "all", "--profile", "quick"]) == cli.EXIT_OK
    caches = set(_caches())
    # each @lru_cache in the source is one of them, so none is out of reach
    sources = [inspect.getsource(module) for module in _submodules()]
    assert len(caches) == sum(source.count("@lru_cache") for source in sources)
    assert {tableau._maj_sweep, partition._hook_lengths, specialization._root_sum} <= caches
    assert any(cache.cache_info().currsize for cache in caches)
    _clear_caches()
    assert [c for c in caches if c.cache_info().currsize] == []
    assert not symfunc._character_cache


def test_every_emitted_check_has_a_mutant():
    emitted = {
        r["check"]: name for name in verify.SUITES for r in verify.run_suite(name, "quick")
    }
    assert {check: suite for check, (suite, *_) in MUTANTS.items()} == emitted
    assert {r["check"] for r in verify.run_suite("all", "quick")} == set(MUTANTS)


@pytest.mark.parametrize("check", sorted(MUTANTS))
def test_every_check_fails_visibly_under_its_mutant(check, monkeypatch, capsys):
    suite, module, attribute, mutant = MUTANTS[check]
    monkeypatch.setattr(module, attribute, mutant(getattr(module, attribute)))

    reports = verify.run_suite(suite, "quick")
    failed = [r for r in reports if r["check"] == check and r["status"] == "fail"]
    assert failed, f"{check} still passes under its mutant"
    for r in failed:
        assert {"lhs", "rhs"} <= r.keys(), r

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


# typo -> the numerator of Brandt's coefficient at (n, m, d) with that typo;
# the true one is (-1)^(m + m/d) mu(d) C((n+m)/d, m/d)
BRANDT_TYPOS = {
    "sign": lambda n, m, d: (-1) ** (m // d) * exactalg.mobius(d) * exactalg.binom(
        (n + m) // d, m // d
    ),
    "binomial": lambda n, m, d: (-1) ** (m + m // d) * exactalg.mobius(d) * exactalg.binom(
        (n + m) // d, m // d + (m > 0)
    ),
    "mobius": lambda n, m, d: (-1) ** (m + m // d) * abs(exactalg.mobius(d)) * exactalg.binom(
        (n + m) // d, m // d
    ),
}


@pytest.mark.parametrize("typo", sorted(BRANDT_TYPOS))
def test_a_typo_in_brandts_sum_fails_checks_beyond_its_restatements(typo, monkeypatch):
    # brandt-diagonal and witt-vs-specialization compare one placing of the
    # sum with another; the other routes of the formula must catch a typo
    numerator = BRANDT_TYPOS[typo]

    def mutant(n, m):
        superlie.check_bidegree(n, m)
        terms = (
            (d, Rational(numerator(n, m, d), n + m)) for d in exactalg.divisors(math.gcd(n, m))
        )
        return [(d, c) for d, c in terms if c]

    monkeypatch.setattr(superlie, "_brandt_terms", mutant)
    failed = set()
    for suite in verify.SUITES:
        try:
            reports = verify.run_suite(suite, "quick")
        except ArithmeticError:
            failed.add(f"{suite} (raised)")
            continue
        failed.update(r["check"] for r in reports if r["status"] == "fail")
    beyond = failed - {"brandt-diagonal", "witt-vs-specialization"}
    assert len(beyond) >= 2, failed
