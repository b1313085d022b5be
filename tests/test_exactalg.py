import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelie.exactalg import (
    CycloElem,
    ExactDivisionError,
    MultiPoly,
    QTPoly,
    SparseEchelon,
    binom,
    cyclo_reduce,
    cyclotomic_poly,
    divisors,
    euler_phi,
    mobius,
    monic_divmod,
    q_pochhammer,
    q_pochhammer_quotient,
)
from freelie.specialization import SpecSeries, qsym_principal_spec, s_ps_routes
from freelie.symfunc import SymFunc


def _qt(coeffs):
    """A dense q-polynomial, constant term first, as a QTPoly."""
    return QTPoly({(a, 0): c for a, c in enumerate(coeffs)})


def _dense(elem):
    """The reduced representative of a CycloElem as a dense list."""
    out = [0] * (max(elem.terms, default=-1) + 1)
    for a, c in elem.terms.items():
        out[a] = c
    return out


# -- number theory

def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1


def test_mobius_divisor_sum_oracle():
    # sum of mu(d) over d | n is 1 exactly at n = 1
    for n in range(1, 60):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_binom():
    assert binom(4, 2) == 6
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


def test_euler_phi():
    assert [euler_phi(d) for d in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


# -- cyclotomic polynomials

def test_cyclotomic_base_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)


def test_cyclotomic_six():
    # derived by dividing q^6 - 1 by Phi_1 Phi_2 Phi_3 exactly
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_product_oracle():
    # prod over d | n of Phi_d(q) = q^n - 1
    for n in range(1, 61):
        prod = QTPoly.one()
        for d in divisors(n):
            prod = prod * _qt(cyclotomic_poly(d))
        assert prod == _qt([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_degree_is_phi():
    for d in range(1, 31):
        assert len(cyclotomic_poly(d)) - 1 == euler_phi(d)


# -- q-series

def test_q_int(q_int):
    assert q_int(1) == QTPoly.one()
    assert q_int(3) == QTPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1})
    assert q_int(0) == QTPoly()


def test_q_pochhammer_two():
    expected = QTPoly({(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): 1})
    assert q_pochhammer(2) == expected


def test_pochhammer_vs_factorial(q_factorial):
    one_minus_q_to_n = QTPoly.one()
    for n in range(0, 21):
        assert q_pochhammer(n) == one_minus_q_to_n * q_factorial(n)
        one_minus_q_to_n = one_minus_q_to_n * (QTPoly.one() - QTPoly.q())


def test_q_pochhammer_quotient(q_factorial, q_pochhammer_product):
    for n in range(0, 13):
        assert q_pochhammer(n) == q_pochhammer_product(n)
        assert _qt(q_pochhammer_quotient(n, [])) == q_pochhammer_product(n)
        assert _qt(q_pochhammer_quotient(n, [1] * n)) == q_factorial(n)
    # (1 - q^4) / (1 - q^2) = 1 + q^2
    assert q_pochhammer_quotient(4, [1, 3, 2, 2]) == [1, 0, 1]


def test_q_pochhammer_quotient_raises_on_negative_exponent():
    # [2]_q! / [3]_q: Phi_3 divides the denominator only
    with pytest.raises(ExactDivisionError):
        q_pochhammer_quotient(2, [3, 1])
    # more factors 1 - q^k than (q;q)_n has
    with pytest.raises(ExactDivisionError):
        q_pochhammer_quotient(1, [1, 1])


# -- cyclotomic quotient arithmetic

def test_cyclo_reduce_examples():
    assert cyclo_reduce([0, 0, 1], 2) == CycloElem.from_rational(2, 1)
    assert cyclo_reduce([1, 1, 1, 1], 4) == CycloElem.from_rational(4, 0)
    assert cyclo_reduce([0, 1], 1) == CycloElem.from_rational(1, 1)


def test_cyclo_reduce_invariants():
    for d in range(1, 31):
        assert cyclo_reduce(cyclotomic_poly(d), d).rational_value() == 0
        q_to_d = [0] * d + [1]
        assert cyclo_reduce(q_to_d, d) == cyclo_reduce([1], d)


def test_cyclo_rational_has_degree_zero():
    # omega^3 * omega^3 = 1 in the ring for d = 6, etc: reduced form is unique
    for d in range(1, 13):
        w = CycloElem.root_power(d, 1)
        prod = CycloElem.from_rational(d, 1)
        for _ in range(d):
            prod = prod * w
        assert prod.is_rational and prod.rational_value() == 1


def test_root_power_sums_are_mobius():
    # sum of the primitive d-th roots of unity is mu(d)
    import math

    for d in range(1, 20):
        acc = CycloElem.from_rational(d, 0)
        for k in range(1, d + 1):
            if math.gcd(k, d) == 1:
                acc = acc + CycloElem.root_power(d, k)
        assert acc.rational_value() == mobius(d)


def test_cyclo_modulus_mismatch():
    with pytest.raises(ValueError):
        CycloElem.from_rational(2, 1) + CycloElem.from_rational(3, 1)


def test_cyclo_elem_is_a_value():
    w = CycloElem.root_power(6, 1)
    assert w * w * w == CycloElem.from_rational(6, -1)
    assert hash(CycloElem.root_power(6, 7)) == hash(w)
    assert len({w, CycloElem.root_power(6, 7), CycloElem.root_power(3, 1)}) == 2
    assert {w: "omega"}[CycloElem(6, {1: 1})] == "omega"
    assert CycloElem.root_power(3, 1) != CycloElem.root_power(6, 1)
    assert repr(w) == "CycloElem[6](w)"
    assert str(CycloElem(6, {0: 4, 1: -1})) == "4 - w"
    assert w.coefficient(1) == 1 and w.coefficient(0) == 0
    # one term, but not the constant one: no rational value
    assert not w.is_rational
    with pytest.raises(ValueError):
        w.rational_value()


def test_zero_values_are_false():
    from freelie.symfunc import BiSymFunc

    zeros = [QTPoly(), CycloElem(3), MultiPoly(1), SpecSeries(4), SymFunc("p"), BiSymFunc()]
    assert [bool(z) for z in zeros] == [False] * len(zeros)
    # terms that cancel leave a false value too
    w = CycloElem.root_power(3, 1)
    assert not (w - w) and not (SymFunc.term("s", (2,)) - SymFunc.term("s", (2,)))
    nonzero = [QTPoly.q(), w, MultiPoly.const(1, 0, 2), SpecSeries(4, {(1, 0): 1}),
               SymFunc.term("p", (1,)), BiSymFunc.one()]
    assert all(nonzero)


def test_shared_products_and_renderings():
    # every term map scales by a scalar from either side; only the term maps
    # with a product of keys multiply two values
    x = MultiPoly.monomial(1, 1, (1, 0))
    assert 2 * x == x * 2 == x + x
    f = SymFunc.term("p", (2,))
    assert 2 * f == f * Fraction(2) == f + f
    with pytest.raises(TypeError):
        f * f
    assert 1 - QTPoly.q() == QTPoly({(0, 0): 1, (1, 0): -1})
    # repr is the class, its layout and the rendered terms
    assert repr(QTPoly.q() + 1) == "QTPoly(1 + q)"
    assert repr(MultiPoly(2, 1, {(1, 0, 2): 3})) == "MultiPoly[2,1](3*x1*y1^2)"
    assert repr(SpecSeries(4, {(0, 1): 1})) == "SpecSeries[4](t + O(q^5))"


def test_cyclo_elem_rejects_bad_input():
    with pytest.raises(ValueError):
        CycloElem(0)
    with pytest.raises(ValueError):
        CycloElem(4, {2: 3})  # phi(4) = 2, so degree 2 is not reduced
    with pytest.raises(ValueError):
        CycloElem(4, {-1: 1})
    with pytest.raises(TypeError):
        CycloElem.from_rational(4, 1) + 1


def _random_poly(rng, degree, fractions):
    if fractions:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)]
    return [rng.randint(-9, 9) for _ in range(degree + 1)]


def _padded_sum(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def test_cyclo_reduce_matches_long_division(qpoly_divmod):
    rng = random.Random(14)
    for d in range(1, 31):
        for fractions in (False, True):
            for _ in range(4):
                p = _random_poly(rng, rng.randint(0, 3 * d), fractions)
                _, rem = qpoly_divmod(p, cyclotomic_poly(d))
                expected = {a: c for a, c in enumerate(rem) if c}
                assert cyclo_reduce(p, d).terms == expected, (d, p)
                assert cyclo_reduce(map(Fraction, p), d).terms == expected, (d, p)


def test_monic_division_keeps_integers():
    rng = random.Random(15)
    for d in range(1, 31):
        p = _random_poly(rng, 3 * d, False)
        quot, rem = monic_divmod(p, cyclotomic_poly(d))
        assert all(type(c) is int for c in quot + rem)
        assert len(rem) <= euler_phi(d)
        assert _qt(quot) * _qt(cyclotomic_poly(d)) + _qt(rem) == _qt(p)


def test_cyclo_sum_needs_no_reduction():
    rng = random.Random(16)
    for d in range(1, 31):
        for _ in range(4):
            p1 = _random_poly(rng, rng.randint(0, 2 * d), rng.random() < 0.5)
            p2 = _random_poly(rng, rng.randint(0, 2 * d), rng.random() < 0.5)
            a, b = cyclo_reduce(p1, d), cyclo_reduce(p2, d)
            assert a + b == cyclo_reduce(_padded_sum(_dense(a), _dense(b)), d)
            assert a + b == cyclo_reduce(_padded_sum(p1, p2), d)
            assert a - b == cyclo_reduce(_padded_sum(_dense(a), [-c for c in _dense(b)]), d)


def test_cyclo_products_keep_int_coefficients():
    rng = random.Random(17)
    for d in range(1, 31):
        a = cyclo_reduce(_random_poly(rng, 2 * d, False), d)
        b = cyclo_reduce(_random_poly(rng, 2 * d, False), d)
        for value in (a, a * b, a * 3 - b, CycloElem.root_power(d, 5) * a):
            assert all(type(c) is int for c in value.terms.values()), (d, value)
        assert type(CycloElem.from_rational(d, 0).rational_value()) is int
        # the product is the reduced product of the representatives
        product = _qt(_dense(a)) * _qt(_dense(b))
        assert a * b == cyclo_reduce(
            [product.coefficient(k, 0) for k in range(product.q_degree() + 1)], d
        )


# -- dense division

def test_qpoly_divmod_roundtrip(qpoly_divmod):
    num = [1, 2, 0, -1, 5]
    den = [1, 1]
    quot, rem = qpoly_divmod(num, den)
    assert len(rem) < len(den)
    assert _qt(quot) * _qt(den) + _qt(rem) == _qt(num)
    # the subtract-only route agrees on a monic divisor
    quot2, rem2 = monic_divmod(num, den)
    assert (_qt(quot2), _qt(rem2)) == (_qt(quot), _qt(rem))


def test_exact_division_raises_on_remainder(qpoly_exact_div):
    with pytest.raises(ExactDivisionError):
        qpoly_exact_div([1, 1, 1], [1, 1])
    assert monic_divmod([1, 1, 1], [1, 1]) == ([0, 1], [1])


def test_monic_division_rejects_non_monic_divisor():
    with pytest.raises(ValueError):
        monic_divmod([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        monic_divmod([1, 2, 3], [])


# -- ring axioms, once for every TermMap subclass

coeffs = st.integers(min_value=-6, max_value=6)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
term_dicts = st.dictionaries(exponents, coeffs, max_size=5)
qt_polys = term_dicts.map(QTPoly)


def _cyclo6(terms):
    """Terms (a, b) -> c as the sum of c q^(a + 5b), reduced modulo Phi_6."""
    dense = [0] * 25
    for (a, b), c in terms.items():
        dense[a + 5 * b] += c
    return cyclo_reduce(dense, 6)


def _ring(make, one, zero):
    values = term_dicts.map(make)
    return st.tuples(values, values, values, st.just(one), st.just(zero))


rings = st.one_of(
    _ring(QTPoly, QTPoly.one(), QTPoly()),
    _ring(lambda t: MultiPoly(1, 1, t), MultiPoly.const(1, 1, 1), MultiPoly(1, 1)),
    _ring(lambda t: SpecSeries(3, t), SpecSeries(3, {(0, 0): 1}), SpecSeries(3)),
    _ring(_cyclo6, CycloElem.from_rational(6, 1), CycloElem(6)),
)


@given(rings)
@settings(max_examples=120)
def test_qtpoly_ring_axioms(ring):
    a, b, c, one, zero = ring
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a
    assert a + zero == a
    assert a - a == zero
    assert a * 3 - a - a == a + a * 0


def test_qtpoly_structural_ops():
    p = QTPoly({(0, 0): 1, (3, 1): 2, (4, 2): -1})
    assert p.substitute_powers(2) == QTPoly({(0, 0): 1, (6, 2): 2, (8, 4): -1})
    assert p.filter_q_residue(3, 0) == QTPoly({(0, 0): 1, (3, 1): 2})
    assert p.eval_q_one() == QTPoly({(0, 0): 1, (0, 1): 2, (0, 2): -1})
    assert p.coefficient(3, 1) == 2
    assert p.q_degree() == 4 and p.t_degree() == 2


def test_qtpoly_json_roundtrip():
    # the JSON form loses nothing: reading its entries back gives p
    p = QTPoly({(1, 2): Fraction(3, 2), (0, 0): -1})
    assert p.to_json() == [[0, 0, "-1"], [1, 2, "3/2"]]
    assert QTPoly({(a, b): Fraction(c) for a, b, c in p.to_json()}) == p


def test_qtpoly_rendering():
    assert str(QTPoly({(0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 1): 1})) == "1 + t + q*t + q*t^2"
    assert str(QTPoly()) == "0"


def test_qtpoly_scalar_compare_builds_no_polynomial(monkeypatch):
    values = [QTPoly(), QTPoly.one(), QTPoly.const(-1), QTPoly.const(Fraction(1, 2)),
              QTPoly.q(), QTPoly({(0, 0): 1, (1, 0): 1})]
    scalars = [0, 1, -1, Fraction(1, 2), Fraction(2), True]
    # the reference: equality with the constant polynomial of the scalar
    expected = [[p == QTPoly.const(c) for c in scalars] for p in values]
    monkeypatch.setattr(QTPoly, "__init__", None)
    assert [[p == c for c in scalars] for p in values] == expected
    assert [[p != c for c in scalars] for p in values] == [[not e for e in row] for row in expected]
    assert expected[0][0] and expected[1][1] and expected[1][5] and expected[3][3]
    assert not any(expected[4]) and not any(expected[5])


def test_float_coefficients_are_refused():
    # 0.1 is a binary fraction, 3602879701896397/2**55, not one tenth
    for make in (
        lambda c: QTPoly({(0, 0): c}),
        lambda c: SpecSeries(3, {(1, 0): c}),
        lambda c: MultiPoly(1, 1, {(1, 0): c}),
        lambda c: SymFunc("p", {(1,): c}),
    ):
        with pytest.raises(TypeError):
            make(0.1)
        with pytest.raises(TypeError):
            make(2.0)
    with pytest.raises(TypeError):
        CycloElem.from_rational(3, 0.1)
    with pytest.raises(TypeError):
        cyclo_reduce([0.1, 1], 3)
    # every other coefficient still goes through Fraction()
    assert QTPoly({(0, 0): "1/10"}) == Fraction(1, 10)
    assert type(QTPoly({(0, 0): True}).coefficient(0, 0)) is Fraction


def test_non_integer_keys_are_refused():
    # an exponent, part, cell or entry that is not an integer is refused, not
    # truncated: int(1.5) == 1 and int("3") == 3 would silently rewrite it
    from freelie.partition import check_partition
    from freelie.superlie import SupportMatrix
    from freelie.tableau import StandardTableau, SuperTableau

    for bad in (1.5, 2.0, "3"):
        for make in (
            lambda x: QTPoly({(x, 0): 1}),
            lambda x: QTPoly({(0, x): 1}),
            lambda x: MultiPoly(1, 0, {(x,): 1}),
            lambda x: SpecSeries(3, {(x, 0): 1}),
            lambda x: check_partition([x, 1]),
            lambda x: SymFunc.term("p", (x,)),
            lambda x: SupportMatrix({(x, 0): 2}),
            lambda x: SupportMatrix({(1, 0): x}),
            lambda x: StandardTableau([[1, x]]),
            lambda x: SuperTableau(StandardTableau([[1, 2]]), {x}),
        ):
            with pytest.raises(TypeError):
                make(bad)
    # integers of any integer type still pass
    assert check_partition((True, 1)) == (1, 1)
    assert SupportMatrix({(1, 0): 2}).entries == {(1, 0): 2}
    assert SpecSeries(3, {(1, 0): 1, (4, 0): 1}).terms == {(1, 0): 1}


def test_integer_products_keep_int_coefficients():
    p = QTPoly({(0, 0): 1, (1, 1): -2, (2, 0): 3})
    series = SpecSeries.inv_pochhammer(4, 10) * p
    values = [
        p * p,
        p * p * p,
        q_pochhammer(5) * p - p,
        series,
        series * series,
        SpecSeries(10, {(2 * j, 0): 1 for j in range(6)}) + series.scale(3),
        qsym_principal_spec(4, {1, 3}, 8),
        *s_ps_routes((2, 1), 8)[0],
    ]
    for value in values:
        assert all(type(c) is int for c in value.terms.values()), value
    # a Fraction stays a Fraction
    half = p * Fraction(1, 2)
    assert all(type(c) is Fraction for c in (half * p).terms.values())


# -- MultiPoly

def test_multipoly_basics():
    x1 = MultiPoly.monomial(2, 1, (1, 0, 0))
    y1 = MultiPoly.monomial(2, 1, (0, 0, 1))
    p = (x1 + y1) * (x1 + y1)
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((1, 0, 1)) == 2
    assert p.eval_all_ones() == 4


def test_multipoly_layout_mismatch():
    with pytest.raises(ValueError):
        MultiPoly.monomial(2, 0, (1, 0)) + MultiPoly.monomial(1, 0, (1,))
    with pytest.raises(ValueError):
        MultiPoly.monomial(1, 1, (1, 0)) * MultiPoly.monomial(2, 0, (1, 0))
    with pytest.raises(ValueError):
        MultiPoly(1, 0, {(1, 1): 1})
    with pytest.raises(ValueError):
        MultiPoly(1, 0, {(-1,): 1})
    # q-caps must agree
    with pytest.raises(ValueError):
        SpecSeries(3, {(0, 0): 1}) + SpecSeries(4, {(0, 0): 1})
    with pytest.raises(ValueError):
        SpecSeries(3, {(0, 0): 1}) * SpecSeries(4, {(0, 0): 1})


# -- exact linear algebra

def test_sparse_echelon_rank():
    ech = SparseEchelon()
    assert ech.add({0: 1, 1: 1})
    assert ech.add({1: 1})
    assert not ech.add({0: 2, 1: 4})  # 2*(row1) + 2*(row2)
    assert ech.rank == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=6),
        max_size=8,
    )
)
def test_integer_echelon_matches_fraction_echelon(fraction_rank, rows):
    ech = SparseEchelon()
    grew = [ech.add(row) for row in rows]
    assert ech.rank == fraction_rank(rows) == sum(grew)


def test_sparse_echelon_rejects_non_int_coefficients():
    for bad in (Fraction(1), Fraction(1, 2), 1.0):
        with pytest.raises(TypeError):
            SparseEchelon().add({0: 1, 1: bad})

