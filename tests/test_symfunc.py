from fractions import Fraction

import pytest

from freelie import symfunc
from freelie.exactalg import MultiPoly, QTPoly, ResourceLimitError
from freelie.partition import partitions_of, z_lambda
from freelie.symfunc import (
    BiSymFunc,
    ClassFunctionSn,
    SymFunc,
    bi_schur_expand,
    diagonal,
    e_pleth,
    expand_truncated,
    first_bad_multiplicity,
    frobenius_characteristic,
    h_pleth,
    mn_character,
    multiply,
    plethysm_p,
    schur_expand,
    sym_to_json,
    to_p,
)


def p(*parts, coeff=1):
    return SymFunc.term("p", tuple(parts), coeff)


# h_2 = (p_11 + p_2)/2 and e_2 = (p_11 - p_2)/2
H2 = SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
E2 = SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})


# -- characters

def test_symfunc_renders_its_partitions_as_the_cli_prints_them():
    f = SymFunc("p", {(2, 1): Fraction(1, 2), (): 1, (3,): -1})
    assert str(f) == "1 - 1*p_(3) + 1/2*p_(2,1)"
    assert repr(SymFunc.term("s", (2, 2))) == "SymFunc[s](s_(2,2))"


def test_mn_trivial_character():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1


def test_mn_sign_character():
    assert mn_character((1, 1), (2,)) == -1
    # sign character value is (-1)^(n - number of cycles)
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_mn_dimension():
    from freelie.tableau import syt_count

    assert mn_character((2, 1), (1, 1, 1)) == 2
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == syt_count(lam)


def test_mn_orthogonality():
    # first orthogonality of characters: independent consistency check
    for n in range(1, 7):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                total = sum(
                    Fraction(mn_character(lam, mu) * mn_character(nu, mu), z_lambda(mu))
                    for mu in partitions_of(n)
                )
                assert total == (1 if lam == nu else 0)


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2,), (1, 1, 1))


def _reference_mn(lam, mu, memo):
    """chi^lam(mu) by removing one border strip of size mu[0] from the
    beta-set of lam at a time, memoized on (lam, mu): the recursion that the
    column DP replaced, kept as its reference."""
    if not lam:
        return 1
    key = (lam, mu)
    if key in memo:
        return memo[key]
    k, rest, ell = mu[0], mu[1:], len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in beta:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted([x for x in beta if x != b] + [c], reverse=True)
        new_lam = tuple(
            part for i, x in enumerate(new_beta) if (part := x - (ell - 1 - i)) > 0
        )
        total += (-1) ** height * _reference_mn(new_lam, rest, memo)
    memo[key] = total
    return total


def test_character_columns_equal_the_border_strip_recursion():
    # every entry of every character table up to n = 12; a column holds
    # exactly the nonzero entries, in the canonical order
    memo = {}
    for n in range(13):
        shapes = partitions_of(n)
        for mu in shapes:
            expected = {lam: chi for lam in shapes if (chi := _reference_mn(lam, mu, memo))}
            column = symfunc._column(mu)
            assert column == expected, mu
            assert list(column) == list(expected), mu
            for lam in shapes:
                assert mn_character(lam, mu) == expected.get(lam, 0)


def test_identity_column_counts_standard_tableaux():
    from freelie.tableau import syt_count

    column = symfunc._column((1,) * 20)
    assert len(column) == len(partitions_of(20))
    for lam in partitions_of(20):
        assert column[lam] == syt_count(lam), lam


def test_schur_price_counts_partitions_without_listing_them():
    # the ceiling admits degree 49 and refuses 50, for one alphabet, and
    # prices two alphabets by the product of their p(d); p(d) comes from the
    # pentagonal recurrence, which agrees with the listing
    symfunc.admit_schur(49)
    symfunc.admit_schur(0)
    symfunc.admit_schur(16, 16)
    for degrees in ((50,), (10**20,), (20, 20), (40, 40), (0, 10**20)):
        with pytest.raises(ResourceLimitError, match="more than 200000 terms"):
            symfunc.admit_schur(*degrees)
    assert symfunc._PARTITION_COUNTS[:31] == tuple(len(partitions_of(d)) for d in range(31))
    assert symfunc._PARTITION_COUNTS[49:] == (173525, 204226)


# -- basis conversions

def test_p_to_s_square_of_p1():
    assert schur_expand(p(1, 1)) == SymFunc("s", {(2,): 1, (1, 1): 1})


def test_p_to_s_degree_three_lie_character():
    f = p(1, 1, 1, coeff=Fraction(1, 3)) + p(3, coeff=Fraction(-1, 3))
    assert schur_expand(f) == SymFunc("s", {(2, 1): 1})


def test_s_p_roundtrip():
    for n in range(1, 9):
        for lam in partitions_of(n):
            s = SymFunc.term("s", lam)
            assert schur_expand(to_p(s)) == s


def test_only_power_sum_and_schur_bases():
    for basis in ("h", "e", "m"):
        with pytest.raises(ValueError):
            SymFunc.term(basis, (2,))


def test_h_e_to_p():
    # h_2 = s_2 and e_2 = s_11
    assert to_p(SymFunc.term("s", (2,))) == H2
    assert to_p(SymFunc.term("s", (1, 1))) == E2
    # in two variables: h_2 = x1^2 + x1 x2 + x2^2, e_2 = x1 x2
    assert expand_truncated(H2, 2) == MultiPoly(2, 0, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert expand_truncated(E2, 2) == MultiPoly(2, 0, {(1, 1): 1})


# -- products and Frobenius characteristic

def test_multiply_examples():
    assert multiply(p(2), p(1)) == p(2, 1)
    f = p(2, coeff=3) + p(1, 1)
    assert multiply(f, SymFunc.one("p")) == f


def test_h2_squared_schur_expansion():
    # h_2 * h_2 = s_4 + s_31 + s_22 (Kostka numbers for content (2,2))
    prod = schur_expand(multiply(H2, H2))
    assert prod == SymFunc("s", {(4,): 1, (3, 1): 1, (2, 2): 1})


def test_frobenius_characteristic_small():
    triv = ClassFunctionSn(2, {(2,): 1, (1, 1): 1})
    sign = ClassFunctionSn(2, {(2,): -1, (1, 1): 1})
    assert frobenius_characteristic(triv) == H2
    assert frobenius_characteristic(sign) == E2
    regular = ClassFunctionSn(3, {(1, 1, 1): 6, (2, 1): 0, (3,): 0})
    assert frobenius_characteristic(regular) == p(1, 1, 1)


def test_class_function_is_not_hashable():
    # it holds a dict, so it claims no hash (Record's rule for a mutable record)
    assert ClassFunctionSn.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type: 'ClassFunctionSn'"):
        hash(ClassFunctionSn(1, {(1,): 1}))


def test_class_function_refuses_floats():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        ClassFunctionSn(2, {(2,): 0.1, (1, 1): 1})
    chi = ClassFunctionSn(2, {(2,): Fraction(1, 10), (1, 1): 1})
    assert chi.values == {(2,): Fraction(1, 10), (1, 1): 1}


def test_frobenius_of_irreducible_characters():
    for n in range(1, 8):
        for lam in partitions_of(n):
            chi = ClassFunctionSn(
                n, {mu: mn_character(lam, mu) for mu in partitions_of(n)}
            )
            assert frobenius_characteristic(chi) == to_p(SymFunc.term("s", lam))


def test_class_function_requires_all_types():
    with pytest.raises(ValueError):
        ClassFunctionSn(2, {(2,): 1})


# -- plethysm

def test_plethysm_p_examples():
    f = p(2, 1, coeff=QTPoly({(1, 1): 1}))
    assert plethysm_p(1, f) == f
    assert plethysm_p(2, p(1)) == p(2)
    assert plethysm_p(2, E2) == SymFunc(
        "p", {(2, 2): Fraction(1, 2), (4,): Fraction(-1, 2)}
    )


def test_plethysm_substitutes_coefficients():
    f = p(1, coeff=QTPoly({(1, 2): 1}))
    assert plethysm_p(3, f) == SymFunc("p", {(3,): QTPoly({(3, 6): 1})})


def test_h_e_pleth_of_p1():
    # h_a[p_1] = h_a and e_a[p_1] = e_a are the Frobenius characteristics of
    # the trivial and the sign character of S_a, and equal s_(a) and s_(1^a)
    for a in range(0, 9):
        triv = ClassFunctionSn(a, {mu: 1 for mu in partitions_of(a)})
        sign = ClassFunctionSn(a, {mu: (-1) ** (a - len(mu)) for mu in partitions_of(a)})
        assert h_pleth(a, p(1)) == frobenius_characteristic(triv)
        assert e_pleth(a, p(1)) == frobenius_characteristic(sign)
        assert h_pleth(a, p(1)) == to_p(SymFunc.term("s", (a,) if a else ()))
        assert e_pleth(a, p(1)) == to_p(SymFunc.term("s", (1,) * a))
    assert h_pleth(2, p(1)) == H2
    assert e_pleth(2, p(1)) == E2


def test_h_pleth_degree_two_identities():
    assert schur_expand(h_pleth(2, E2)) == SymFunc("s", {(2, 2): 1, (1, 1, 1, 1): 1})
    assert schur_expand(h_pleth(2, H2)) == SymFunc("s", {(4,): 1, (2, 2): 1})
    assert h_pleth(0, E2) == SymFunc.one("p")


# -- expansion in finitely many variables

def _ssyt_monomials(lam, N):
    """Independent oracle: enumerate semistandard tableaux of the shape with
    entries <= N; rows weakly increase, columns strictly increase."""
    rows = []

    def fill(r, prev_row):
        if r == len(lam):
            yield tuple(rows)
            return
        width = lam[r]

        def fill_row(c, row):
            if c == width:
                rows.append(tuple(row))
                yield from fill(r + 1, tuple(row))
                rows.pop()
                return
            lo = row[c - 1] if c > 0 else 1
            if prev_row is not None and c < len(prev_row):
                lo = max(lo, prev_row[c] + 1)
            for v in range(lo, N + 1):
                yield from fill_row(c + 1, row + [v])

        yield from fill_row(0, [])

    counts = {}
    for filling in fill(0, None):
        exp = [0] * N
        for row in filling:
            for v in row:
                exp[v - 1] += 1
        key = tuple(exp)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_expand_truncated_examples():
    assert expand_truncated(p(2), 2) == MultiPoly(2, 0, {(2, 0): 1, (0, 2): 1})
    assert not expand_truncated(SymFunc.term("s", (1, 1)), 1)
    s21 = expand_truncated(SymFunc.term("s", (2, 1)), 2)
    assert s21 == MultiPoly(2, 0, {(2, 1): 1, (1, 2): 1})


def test_expand_schur_matches_ssyt_oracle():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for N in range(1, 4):
                expected = MultiPoly(N, 0, _ssyt_monomials(lam, N))
                assert expand_truncated(SymFunc.term("s", lam), N) == expected


def test_expand_schur_zero_iff_too_few_variables():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for N in range(0, 5):
                poly = expand_truncated(SymFunc.term("s", lam), N)
                assert (not poly) == (len(lam) > N)


def test_expand_requires_constant_coefficients():
    f = p(1, coeff=QTPoly.q())
    with pytest.raises(ValueError):
        expand_truncated(f, 2)


# -- Schur expansion reporting

def test_schur_expand_examples():
    result = schur_expand(E2)
    assert result == SymFunc("s", {(1, 1): QTPoly.one()})
    assert first_bad_multiplicity(result) is None

    result = schur_expand(p(1, 1))
    assert result == SymFunc("s", {(2,): QTPoly.one(), (1, 1): QTPoly.one()})

    negative = schur_expand(p(2))  # p_2 = s_2 - s_11 is not a character
    assert first_bad_multiplicity(negative) == (1, 1)
    # the first bad coefficient in the canonical order, negative or fractional
    half = SymFunc("s", {(3,): Fraction(1, 2), (2, 1): -1, (1,): QTPoly.q()})
    assert first_bad_multiplicity(half) == (3,)
    assert first_bad_multiplicity(SymFunc("s", {(2,): QTPoly({(1, 1): -1})})) == (2,)


# -- two-alphabet functions

def test_bi_multiply_and_plethysm():
    x1 = BiSymFunc.term((1,), ())
    y1 = BiSymFunc.term((), (1,))
    prod = multiply(x1, y1)
    assert prod == BiSymFunc.term((1,), (1,))
    assert plethysm_p(2, prod) == BiSymFunc.term((2,), (2,))


def test_bi_h_pleth_example():
    both = BiSymFunc.term((1,), (1,))
    expected = BiSymFunc(
        {
            ((1, 1), (1, 1)): Fraction(1, 2),
            ((2,), (2,)): Fraction(1, 2),
        }
    )
    assert h_pleth(2, both) == expected
    assert e_pleth(1, both) == both


def test_one_alphabet_operations_take_a_bi_sym_func():
    # the values of the two-alphabet copies these operations replace
    q = QTPoly.monomial(1, 0)
    f = BiSymFunc.term((2,), (1,), 3)
    assert multiply(f, BiSymFunc.term((1,), (), q)) == BiSymFunc.term((2, 1), (1,), q.scale(3))
    assert plethysm_p(2, BiSymFunc.term((1,), (1,), q)) == BiSymFunc.term(
        (2,), (2,), QTPoly.monomial(2, 0)
    )
    # h_2 and e_2 of p_1(x) + p_1(y) = s_1(x, y)
    s1 = BiSymFunc({((1,), ()): 1, ((), (1,)): 1})
    half = Fraction(1, 2)
    square = {((1, 1), ()): half, ((1,), (1,)): 1, ((), (1, 1)): half}
    assert h_pleth(2, s1) == BiSymFunc({**square, ((2,), ()): half, ((), (2,)): half})
    assert e_pleth(2, s1) == BiSymFunc({**square, ((2,), ()): -half, ((), (2,)): -half})
    # p_2(x) p_1(y) in one x and two y variables: x1^2 (y1 + y2)
    assert expand_truncated(f, 1, 2) == MultiPoly(1, 2, {(2, 1, 0): 3, (2, 0, 1): 3})
    assert expand_truncated(BiSymFunc.term((), (2,)), 1, 1) == MultiPoly(1, 1, {(0, 2): 1})
    # an empty y partition expands like the one-alphabet function
    g = BiSymFunc({((2, 1), ()): Fraction(-2, 3), ((1,), ()): 5})
    assert expand_truncated(g, 2, 1) == expand_truncated(diagonal(g), 2, 1)
    # the two containers do not mix, the one-alphabet conversions refuse a
    # pair key, and the degree checks still hold
    for bad in (lambda: multiply(f, p(1)), lambda: schur_expand(f), lambda: sym_to_json(f)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError):
        plethysm_p(0, f)
    with pytest.raises(ValueError):
        h_pleth(-1, f)


def test_diagonal():
    f = BiSymFunc({((1,), (1,)): 1})
    assert diagonal(f) == p(1, 1)
    assert diagonal(BiSymFunc()) == SymFunc("p")


def test_bi_expand_matches_diagonal_expand():
    # setting the y alphabet equal to the x alphabet: expand with M = N and
    # merge variables by adding exponents
    import random

    rng = random.Random(3)
    for _ in range(8):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            lam = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True))
            mu = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True))
            terms[(lam, mu)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = BiSymFunc(terms)
        N = rng.randint(1, 3)
        bi = expand_truncated(f, N, N)
        merged = {}
        for exp, c in bi.items():
            key = tuple(exp[i] + exp[N + i] for i in range(N))
            merged[key] = merged.get(key, 0) + c
        direct = expand_truncated(diagonal(f), N)
        assert MultiPoly(N, 0, merged) == direct


def test_bi_schur_expand_of_p11():
    f = BiSymFunc({((1,), (1,)): 1})
    expansion = bi_schur_expand(f)
    assert expansion == {((1,), (1,)): QTPoly.one()}


# -- the integer character transform against the per-pair loops it replaced

def _p_to_s_reference(f):
    out = {}
    for mu, c in f.terms.items():
        for lam in partitions_of(sum(mu)):
            out[lam] = out.get(lam, QTPoly()) + c * mn_character(lam, mu)
    return SymFunc("s", out)


def _bi_schur_reference(f):
    out = {}
    for (lam, mu), c in f.terms.items():
        for alpha in partitions_of(sum(lam)):
            for beta in partitions_of(sum(mu)):
                chi = mn_character(alpha, lam) * mn_character(beta, mu)
                out[(alpha, beta)] = out.get((alpha, beta), QTPoly()) + c * chi
    return {key: c for key, c in out.items() if c}


def test_p_to_s_matches_per_pair_loop():
    for n in range(8):
        for lam in partitions_of(n):
            assert schur_expand(p(*lam)) == _p_to_s_reference(p(*lam)), lam
    # every p_lambda with |lambda| <= 5 at once, with q,t coefficients over
    # several denominators, so the common denominator and cancellations matter
    mixed = SymFunc(
        "p",
        {
            lam: QTPoly({(0, 0): Fraction(1, z_lambda(lam)), (len(lam), 1): Fraction(-len(lam), 3)})
            for n in range(6)
            for lam in partitions_of(n)
        },
    )
    assert schur_expand(mixed) == _p_to_s_reference(mixed)
    assert schur_expand(SymFunc("p")) == SymFunc("s")
    assert schur_expand(SymFunc.one("p")) == SymFunc.one("s")


def test_bi_schur_expand_matches_per_pair_loop():
    from freelie.superlie import enumerate_bidegree_matrices, super_lie_module_char

    for total in range(7):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    f = BiSymFunc.term(lam, mu)
                    assert bi_schur_expand(f) == _bi_schur_reference(f), (lam, mu)
    fractional = 0
    for total in range(1, 7):
        for n in range(total + 1):
            for matrix in enumerate_bidegree_matrices(n, total - n):
                f = super_lie_module_char(matrix)
                fractional += any(
                    c.denominator > 1 for coeff in f.terms.values() for _, c in coeff.items()
                )
                assert bi_schur_expand(f) == _bi_schur_reference(f), matrix.entries
    assert fractional
    assert bi_schur_expand(BiSymFunc()) == {}
    assert bi_schur_expand(BiSymFunc.one()) == {((), ()): QTPoly.one()}
    assert bi_schur_expand(BiSymFunc.term((), (), Fraction(-2, 3))) == {
        ((), ()): QTPoly.const(Fraction(-2, 3))
    }


# -- serialization

def test_sym_json_roundtrip():
    # the JSON form loses nothing: reading its entries back gives f
    f = SymFunc("p", {(2, 1): QTPoly({(1, 0): Fraction(1, 2)}), (1,): 3})
    data = sym_to_json(f)
    assert data == {
        "basis": "p",
        "terms": [
            {"partition": [1], "coeff": [[0, 0, "3"]]},
            {"partition": [2, 1], "coeff": [[1, 0, "1/2"]]},
        ],
    }
    terms = {
        tuple(entry["partition"]): QTPoly({(a, b): Fraction(c) for a, b, c in entry["coeff"]})
        for entry in data["terms"]
    }
    assert SymFunc(data["basis"], terms) == f
