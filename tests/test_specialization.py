import random
from fractions import Fraction
from itertools import combinations

import pytest

from freelie import specialization
from freelie.exactalg import (
    CycloElem,
    MultiPoly,
    QTPoly,
)
from freelie.partition import cells, hook_length, partitions_of, z_lambda
from freelie.specialization import (
    SpecSeries,
    _schur_principal_spec,
    degree_two_routes,
    half_if_even,
    hook_product,
    kw_routes,
    kw_generating_function,
    omega_extract,
    omega_extract_roots,
    pi_lambda,
    pi_root_routes,
    qps_routes,
    qsym_principal_spec,
    qt_hook_routes,
    s_ps_routes,
    super_cauchy_routes,
    super_power_sum_truncated,
    super_qsym_truncated,
    super_schur_truncated,
    symmetry_counts,
)
from freelie.superlie import super_brandt_char
from freelie.symfunc import SymFunc, expand_truncated, schur_expand, to_p
from freelie.tableau import (
    count_super_tableaux,
    descent_set,
    maj_neg_generating_poly,
    syt_enumerate,
)


# -- quasisymmetric polynomials

def test_fundamental_qsym_degree_two():
    # with no barred letters the two-alphabet polynomial is the fundamental one
    assert super_qsym_truncated(2, set(), 2, 0) == MultiPoly(
        2, 0, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    )
    assert super_qsym_truncated(2, {1}, 2, 0) == MultiPoly(2, 0, {(1, 1): 1})


def test_schur_is_sum_of_fundamentals():
    from freelie.tableau import descent_set, syt_enumerate

    for n in range(1, 7):
        for lam in partitions_of(n):
            for N in range(1, 4):
                total = MultiPoly(N, 0)
                for t in syt_enumerate(lam):
                    total = total + super_qsym_truncated(n, descent_set(t), N, 0)
                assert total == expand_truncated(to_p({lam: 1}), N)


def test_super_qsym_single_letter():
    assert super_qsym_truncated(1, set(), 1, 1) == MultiPoly(
        1, 1, {(1, 0): 1, (0, 1): 1}
    )


def test_super_qsym_degree_two():
    # enumeration over 1 < 1' with the equal-letter rules
    assert super_qsym_truncated(2, set(), 1, 1) == MultiPoly(
        1, 1, {(2, 0): 1, (1, 1): 1}
    )
    assert super_qsym_truncated(2, {1}, 1, 1) == MultiPoly(
        1, 1, {(1, 1): 1, (0, 2): 1}
    )


def test_super_schur_small():
    assert super_schur_truncated((1,), 2, 2) == MultiPoly(
        2, 2, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
    )
    assert super_schur_truncated((2,), 1, 1) == MultiPoly(1, 1, {(2, 0): 1, (1, 1): 1})
    assert super_schur_truncated((1, 1), 1, 1) == MultiPoly(1, 1, {(1, 1): 1, (0, 2): 1})


def test_super_schur_reduces_to_classical_when_no_bars():
    for n in range(1, 6):
        for lam in partitions_of(n):
            lhs = super_schur_truncated(lam, 2, 0)
            rhs = expand_truncated(to_p({lam: 1}), 2)
            assert lhs == MultiPoly(2, 0, dict(rhs.items()))


def test_super_power_sum_degree_one():
    # p~_(1) = p_1(x) + p_1(y)
    assert super_power_sum_truncated((1,), 1, 1) == MultiPoly(
        1, 1, {(1, 0): 1, (0, 1): 1}
    )
    # p~_(2) = p_2(x) - p_2(y)
    assert super_power_sum_truncated((2,), 1, 1) == MultiPoly(
        1, 1, {(2, 0): 1, (0, 2): -1}
    )


def test_super_cauchy_degree_one():
    # both sides are p_1(x) (p_1(x) + p_1(y)) in x1, x2, y1, y2
    lhs, rhs = super_cauchy_routes(1, 2, 2)
    assert lhs == rhs
    assert lhs == MultiPoly(
        2, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (1, 1, 0, 0): 2,
               (1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}
    )


def test_super_cauchy_sweep():
    for n, N, M in [(n, 2, 2) for n in range(1, 6)] + [(3, 3, 2), (3, 1, 3)]:
        lhs, rhs = super_cauchy_routes(n, N, M)
        assert lhs == rhs, (n, N, M)


# -- principal specializations

def test_qsym_principal_single_letter():
    series = qsym_principal_spec(1, set(), 6)
    for a in range(7):
        assert series.coefficient(a, 0) == 1
        assert series.coefficient(a, 1) == 1


def test_qsym_principal_t0_slice_is_classical():
    # dropping the barred letters recovers the one-alphabet specialization:
    # weakly increasing words with strict growth at D, weighted q^(sum(b)-n)
    def classical(n, d, cap):
        terms = {}

        def rec(pos, minimum, used):
            if pos == n:
                terms[(used, 0)] = terms.get((used, 0), Fraction(0)) + 1
                return
            v = minimum
            while used + (v - 1) * (n - pos) <= cap:
                rec(pos + 1, v + 1 if (pos + 1) in d else v, used + v - 1)
                v += 1

        rec(0, 1, 0)
        return SpecSeries(cap, terms)

    for n in range(1, 5):
        for mask in range(1 << (n - 1)):
            d = {i + 1 for i in range(n - 1) if mask >> i & 1}
            series = qsym_principal_spec(n, d, 8)
            slice0 = SpecSeries(
                8, {(a, 0): c for (a, b), c in series.items() if b == 0}
            )
            assert slice0 == classical(n, d, 8), (n, d)


def test_qps_identity_examples_and_sweep():
    # n = 2, D = {}: the word series is (1 + t)(1 + qt) / ((1 - q)(1 - q^2))
    words, formula = qps_routes(2, set(), 12)
    assert words == formula
    assert words.coefficient(0, 0) == 1 and words.coefficient(1, 1) == 2
    for n in range(1, 6):
        for mask in range(1 << (n - 1)):
            d = {i + 1 for i in range(n - 1) if mask >> i & 1}
            words, formula = qps_routes(n, d, 12)
            assert words == formula, (n, d)


def test_word_dp_counts_every_admissible_word(word_principal_spec):
    for n in range(1, 8):
        for mask in range(1 << (n - 1)):
            d = {i + 1 for i in range(n - 1) if mask >> i & 1}
            for q_cap in (0, 1, 5, 12, 15):
                assert qsym_principal_spec(n, d, q_cap) == word_principal_spec(n, d, q_cap), (
                    n, d, q_cap
                )


def test_schur_principal_spec_groups_tableaux_by_descent_set():
    for n in range(1, 8):
        for lam in partitions_of(n):
            per_tableau = SpecSeries(12, {})
            for t in syt_enumerate(lam):
                per_tableau = per_tableau + qsym_principal_spec(n, descent_set(t), 12)
            assert _schur_principal_spec(lam, 12) == per_tableau, lam


def test_word_counts_are_computed_once_per_descent_set(monkeypatch):
    specialization._word_counts.cache_clear()
    specialization._schur_principal_spec.cache_clear()
    calls = []
    real = specialization.qsym_principal_spec

    def counted(n, d, q_cap):
        calls.append((n, frozenset(d), q_cap))
        return real(n, d, q_cap)

    monkeypatch.setattr(specialization, "qsym_principal_spec", counted)
    for lam in partitions_of(5):
        s_ps_routes(lam, 12)
        qt_hook_routes(lam, 12)
    # one call per distinct (shape, descent set), one count per (n, D, q_cap)
    pairs = {(lam, descent_set(t)) for lam in partitions_of(5) for t in syt_enumerate(lam)}
    assert len(calls) == len(pairs)
    assert specialization._word_counts.cache_info().misses == len(set(calls))


# -- hook products

def test_hook_product_base_cases():
    assert hook_product((1,)) == QTPoly({(0, 0): 1, (0, 1): 1})
    one_plus_t = QTPoly({(0, 0): 1, (0, 1): 1})
    one_plus_qt = QTPoly({(0, 0): 1, (1, 1): 1})
    assert hook_product((2,)) == one_plus_t * one_plus_qt
    q_plus_t = QTPoly({(1, 0): 1, (0, 1): 1})
    assert hook_product((1, 1)) == one_plus_t * q_plus_t


def test_hook_formula_sweep():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert maj_neg_generating_poly(lam) == hook_product(lam), lam


def test_division_free_quotients_match_long_division(
    qpoly_exact_div, q_int, q_factorial, q_pochhammer_product, t_slices, from_t_slices
):
    def hook_product_by_division(lam):
        """[n]_q! times the cell factors, each t-slice divided by
        prod [hook]_q with Fraction long division."""
        num = q_factorial(sum(lam))
        den = QTPoly.one()
        for r, c in cells(lam):
            num = num * (QTPoly.monomial(r - 1, 0) + QTPoly.monomial(c - 1, 1))
            den = den * q_int(hook_length(lam, r, c))
        den = t_slices(den)[0]
        return from_t_slices({b: qpoly_exact_div(s, den) for b, s in t_slices(num).items()})

    def pi_lambda_by_division(lam):
        """(q;q)_n / prod (1 - q^part) by Fraction long division."""
        den = QTPoly.one()
        for part in lam:
            den = den * (QTPoly.one() - QTPoly.monomial(part, 0))
        return qpoly_exact_div(t_slices(q_pochhammer_product(sum(lam)))[0], t_slices(den)[0])

    for n in range(1, 11):
        for lam in partitions_of(n):
            assert hook_product(lam) == hook_product_by_division(lam), lam
            assert tuple(pi_lambda(lam)) == pi_lambda_by_division(lam), lam


def test_hook_formula_specializations():
    from freelie.tableau import syt_count

    for n in range(1, 7):
        for lam in partitions_of(n):
            poly = hook_product(lam)
            # q = t = 1 counts all signed tableaux
            total = sum(c for _, c in poly.items())
            assert total == (1 << n) * syt_count(lam)


def test_s_ps_sweep():
    # one box, barred or not: 1 + t, over (q;q)_1 = 1 - q
    routes = s_ps_routes((1,), 4)
    one_box = QTPoly({(0, 0): 1, (0, 1): 1})
    series = SpecSeries(4, {(a, b): 1 for a in range(5) for b in (0, 1)})
    assert routes == ((one_box, series), (one_box, series))
    for n in range(1, 6):
        for lam in partitions_of(n):
            lhs, rhs = s_ps_routes(lam, 12)
            assert lhs == rhs, lam


def test_sps_suite_reads_each_sizes_tables_once(monkeypatch):
    # one maj and one comaj table of every shape of n per size n, not one
    # per shape, and every shape's routes still agree
    from freelie import tableau, verify

    names = ("maj_neg_generating_polys", "comaj_neg_generating_polys")
    calls = []
    for name in names:
        real = getattr(tableau, name)
        monkeypatch.setattr(
            tableau, name, lambda n, *rest, real=real, name=name: calls.append((name, n)) or real(n, *rest)
        )
    checks = verify.run_suite("sps", "quick", {"max_n": 5})
    assert sorted(calls) == sorted((name, n) for name in names for n in range(1, 6))
    assert all(check["status"] == "pass" for check in checks)


def test_inv_pochhammer_is_a_product_of_geometric_series():
    for q_cap in range(15):
        for n in range(9):
            product = SpecSeries(q_cap, {(0, 0): 1})
            for k in range(1, n + 1):
                product = product * SpecSeries(q_cap, {(j * k, 0): 1 for j in range(q_cap // k + 1)})
            assert SpecSeries.inv_pochhammer(n, q_cap) == product, (n, q_cap)


def test_qt_hook_consistency_sweep():
    for n in range(1, 5):
        for lam in partitions_of(n):
            lhs, rhs = qt_hook_routes(lam, 12)
            assert lhs == rhs, lam


# -- root-of-unity machinery

def test_pi_lambda_examples(q_pochhammer_product, t_slices):
    assert pi_lambda((2,)) == [1, -1]
    assert pi_lambda((1, 1)) == [1, 1]
    for n in range(1, 7):
        expected = t_slices(q_pochhammer_product(n - 1))[0]
        assert tuple(pi_lambda((n,))) == expected
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert all(type(c) is int for c in pi_lambda(lam)), lam


def test_pi_root_examples():
    # (1 - q)/(1 - q^2)... at q = -1: pi_(2) = 1 - q gives 2 = z_(2)
    assert pi_root_routes((2,), 2) == (CycloElem.from_rational(2, 2),) * 2
    assert pi_root_routes((1, 1), 2) == (CycloElem.from_rational(2, 0),) * 2
    assert pi_root_routes((1, 1, 1), 1) == (CycloElem.from_rational(1, 6),) * 2
    with pytest.raises(ValueError):
        pi_root_routes((2, 1), 2)


def test_pi_root_sweep():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for d in range(1, n + 1):
                if n % d == 0:
                    value, closed = pi_root_routes(lam, d)
                    assert value == closed, (lam, d)


def test_omega_extract_examples():
    # the operators take and give dicts {lambda: q,t-polynomial}
    f = {(1,): QTPoly({(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4, (4, 0): 5})}
    assert omega_extract(f, 3, 1) == {(1,): QTPoly.monomial(0, 0, 7)}
    assert omega_extract(f, 1, 0) == {(1,): QTPoly.monomial(0, 0, 15)}
    g = {(2,): QTPoly.monomial(3, 1), (1, 1): QTPoly.monomial(1, 0)}
    # a coefficient that vanishes is dropped, as in a term map
    assert omega_extract(g, 3, 0) == omega_extract_roots(g, 3, 0) == {(2,): QTPoly.t()}


def test_omega_residues_partition_the_total():
    rng = random.Random(7)
    for _ in range(20):
        coeff = QTPoly(
            {
                (rng.randint(0, 15), rng.randint(0, 3)): rng.randint(-5, 5)
                for _ in range(6)
            }
        )
        f = {(2, 1): coeff}
        r = rng.randint(1, 6)
        total = QTPoly()
        for s in range(r):
            total = total + omega_extract(f, r, s).get((2, 1), QTPoly())
        assert total == coeff.eval_q_one()


def test_omega_filter_equals_root_average():
    rng = random.Random(11)
    for _ in range(60):
        coeff = QTPoly(
            {
                (rng.randint(0, 20), rng.randint(0, 3)): Fraction(
                    rng.randint(-6, 6), rng.randint(1, 4)
                )
                for _ in range(5)
            }
        )
        f = {(rng.randint(1, 3),): coeff}
        r = rng.randint(1, 12)
        s = rng.randint(0, r)
        assert omega_extract(f, r, s) == omega_extract_roots(f, r, s)


def _omega_extract_per_root(f, r, s):
    """Reference root-of-unity average: one reduced CycloElem addition per
    root, r of them for each term."""

    def average(c):
        pairs = {}
        for (a, b), v in c.items():
            total = CycloElem.from_rational(r, 0)
            for k in range(1, r + 1):
                total = total + CycloElem.root_power(r, k * (a - s))
            pairs[b] = pairs.get(b, 0) + total.rational_value() * v / r
        return QTPoly({(0, b): v for b, v in pairs.items()})

    return {lam: v for lam, c in f.items() if (v := average(c))}


def test_omega_roots_match_per_root_loop():
    rng = random.Random(14)
    for r in range(1, 13):
        for _ in range(8):
            coeff = QTPoly(
                {
                    (rng.randint(0, 3 * r), rng.randint(0, 3)): Fraction(
                        rng.randint(-6, 6), rng.randint(1, 4)
                    )
                    for _ in range(6)
                }
            )
            f = {(rng.randint(1, 3),): coeff}
            s = rng.randint(-r, 2 * r)
            assert omega_extract_roots(f, r, s) == _omega_extract_per_root(f, r, s), (r, s)


def test_root_sum_is_r_or_zero():
    # the sum of zeta^(kj) over the r-th roots, one cyclotomic reduction per
    # (r, j mod r): r when r divides j, else 0
    specialization._root_sum.cache_clear()
    for r in range(1, 13):
        for j in range(r):
            assert specialization._root_sum(r, j) == (r if j == 0 else 0), (r, j)
    assert specialization._root_sum.cache_info().currsize == 78


# -- the multiplicity pipeline

def test_kw_generating_function_small():
    # the Schur coefficients, {lambda: q,t-polynomial}
    assert kw_generating_function(1) == {(1,): QTPoly({(0, 0): 1, (0, 1): 1})}
    assert kw_generating_function(2) == {lam: hook_product(lam) for lam in ((2,), (1, 1))}


def test_kw_classical_degree_three():
    # the degree-3 classical character is s_(2,1); tableau counts: the two
    # standard tableaux of (2,1) have maj 1 and 2, one of each residue
    counts, multiplicities = kw_routes(3, 0)
    assert counts == multiplicities == {(2, 1): 1}
    filtered = omega_extract(kw_generating_function(3), 3, 1)
    by_shape = {lam: c.coefficient(0, 0) for lam, c in filtered.items()}
    assert by_shape == {(3,): 0, (2, 1): 1, (1, 1, 1): 0}


def test_kw_sweep_mixed():
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 0), (0, 3)):
        counts, multiplicities = kw_routes(n, m)
        assert counts == multiplicities, (n, m)


def test_kw_counts_match_schur_multiplicities():
    for n, m in ((2, 1), (3, 1), (2, 2)):
        total = n + m
        expansion = schur_expand(super_brandt_char(n, m))
        for lam in partitions_of(total):
            mult = expansion.get(lam, 0)
            assert count_super_tableaux(lam, total, 1, m) == mult, (lam, n, m)


# -- counting symmetries

def test_half_if_even():
    assert half_if_even(0) == 0
    assert half_if_even(4) == 2
    assert half_if_even(3) == 0


def test_symmetry_counts_match_direct_enumeration():
    for lam in ((3, 2), (2, 2, 1)):
        n = sum(lam)
        counts = symmetry_counts(lam, n, 0)
        for s in range(n):
            assert counts[s] == count_super_tableaux(lam, n, s, 0)


def test_sym1_equal_gcd_residues():
    # all residues coprime to 5 are equidistributed for shapes of 5
    lam = (3, 2)
    counts = symmetry_counts(lam, 5, 0)
    assert len({counts[r] for r in (1, 2, 3, 4)}) == 1
    for lam in partitions_of(6):
        counts = symmetry_counts(lam, 6, 0)
        assert counts[1] == counts[5]  # gcd 1
        assert counts[2] == counts[4]  # gcd 2


def test_sym2_small_sweep():
    import math

    for total in range(2, 7):
        for m in range(total + 1):
            shift = half_if_even(m)
            for lam in partitions_of(total):
                counts = symmetry_counts(lam, total, m)
                for r in range(1, total + 1):
                    for s in range(1, total + 1):
                        if math.gcd(r + shift, total) == math.gcd(s + shift, total):
                            assert counts[r % total] == counts[s % total], (lam, m, r, s)


def test_sym3_odd_pairs():
    for n, m in ((3, 1), (1, 3), (3, 3), (5, 1)):
        for lam in partitions_of(n + m):
            bars_m = symmetry_counts(lam, n + m, m)
            assert bars_m == symmetry_counts(lam, n + m, n), (lam, n, m)


# -- degree-two identities

def test_degree_two_expansions():
    computed, closed = degree_two_routes(2)
    assert computed == closed
    # frozen expectations for d = 2
    from freelie.symfunc import h_pleth

    e2 = super_brandt_char(2, 0)
    h2 = super_brandt_char(0, 2)
    assert schur_expand(h_pleth(2, e2)) == {(2, 2): 1, (1, 1, 1, 1): 1}
    assert schur_expand(h_pleth(2, h2)) == {(4,): 1, (2, 2): 1}


def test_degree_two_convolution_base():
    from freelie.symfunc import e_pleth, multiply

    # d = 1: the exterior power of the (1,1) piece is p_1^2 = h_2 + e_2
    lhs = e_pleth(1, super_brandt_char(1, 1))
    assert lhs == SymFunc({(1, 1): 1})
    for d in range(0, 4):
        computed, closed = degree_two_routes(d)
        assert computed == closed, d
