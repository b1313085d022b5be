from fractions import Fraction
from itertools import combinations, product

import pytest

from freelie.exactalg import ResourceLimitError, SparseEchelon, collect, divisors, mobius
from freelie.symfunc import (
    BiSymFunc,
    SymFunc,
    bi_e_pleth,
    bi_expand_truncated,
    diagonal,
    expand_truncated,
    schur_expand,
)
from freelie.superlie import (
    SupportMatrix,
    brute_force_lie_dim,
    enumerate_bidegree_matrices,
    gamma_char,
    petrogradsky_series,
    super_bi_brandt_char,
    super_brandt_char,
    super_lie_module_char,
    super_witt_dim,
    thrall_sum_check,
)


def test_super_brandt_base_cases():
    assert super_brandt_char(2, 0) == SymFunc(
        "p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )
    assert super_brandt_char(0, 2) == SymFunc(
        "p", {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    )
    assert super_brandt_char(1, 1) == SymFunc("p", {(1, 1): 1})
    with pytest.raises(ValueError):
        super_brandt_char(0, 0)


def test_super_brandt_reduces_to_classical():
    # m = 0 must give the classical free Lie algebra character formula
    for n in range(1, 11):
        classical = SymFunc(
            "p",
            {
                (d,) * (n // d): Fraction(mobius(d), n)
                for d in divisors(n)
                if mobius(d) != 0
            },
        )
        assert super_brandt_char(n, 0) == classical


def test_super_bi_brandt_base_cases():
    assert super_bi_brandt_char(1, 1) == BiSymFunc({((1,), (1,)): 1})
    assert super_bi_brandt_char(1, 0) == BiSymFunc({((1,), ()): 1})
    assert super_bi_brandt_char(0, 1) == BiSymFunc({((), (1,)): 1})


def test_diagonal_of_bi_char_is_one_alphabet_char():
    for total in range(1, 9):
        for m in range(total + 1):
            n = total - m
            assert diagonal(super_bi_brandt_char(n, m)) == super_brandt_char(n, m)


def test_super_witt_dim_closed_forms():
    for N in range(0, 7):
        assert super_witt_dim(2, 0, N) == N * (N - 1) // 2
        assert super_witt_dim(0, 2, N) == N * (N + 1) // 2
        assert super_witt_dim(1, 1, N) == N * N
        assert super_witt_dim(1, 0, N) == N


def test_super_witt_matches_specialized_character():
    for total in range(1, 7):
        for m in range(total + 1):
            n = total - m
            char = super_brandt_char(n, m)
            for N in range(0, 4):
                value = expand_truncated(char, N).eval_all_ones()
                assert value == super_witt_dim(n, m, N)


def test_petrogradsky_small_coefficients():
    series = petrogradsky_series(2, 2)
    assert series[(1, 0)] == BiSymFunc({((1,), ()): 1})
    assert series[(1, 1)] == BiSymFunc({((1,), (1,)): 1})


def test_petrogradsky_matches_closed_formula():
    series = petrogradsky_series(4, 4)
    for (n, m), component in series.items():
        assert component == super_bi_brandt_char(n, m), (n, m)


def test_gamma_char():
    p1x = BiSymFunc.term((1,), ())
    p1y = BiSymFunc.term((), (1,))
    assert gamma_char(0, 2, p1x) == BiSymFunc(
        {((1, 1), ()): Fraction(1, 2), ((2,), ()): Fraction(1, 2)}
    )
    assert gamma_char(1, 2, p1y) == BiSymFunc(
        {((), (1, 1)): Fraction(1, 2), ((), (2,)): Fraction(-1, 2)}
    )
    f = BiSymFunc.term((2, 1), (1,), coeff=7)
    assert gamma_char(1, 1, f) == f
    assert gamma_char(3, 0, f) == BiSymFunc.one()


def test_support_matrix_validation():
    with pytest.raises(ValueError):
        SupportMatrix({(0, 0): 1})
    with pytest.raises(ValueError):
        SupportMatrix({(1, 0): -1})
    m = SupportMatrix({(1, 0): 2, (0, 1): 0})
    assert m.entries == {(1, 0): 2}
    assert m.bidegree() == (2, 0)


def test_support_matrix_json_roundtrip():
    m = SupportMatrix({(1, 1): 2, (3, 0): 1})
    assert SupportMatrix.from_json(m.to_json()) == m
    assert m.to_json() == [[1, 1, 2], [3, 0, 1]]


def test_support_matrix_rejects_input_it_would_drop_or_rewrite():
    # keeping only the last multiplicity of a repeated cell would drop input
    with pytest.raises(ValueError):
        SupportMatrix.from_json([[1, 0, 1], [1, 0, 2]])
    # int() would round a non-integer entry silently
    for bad in ([[1, 1, 1.5]], [[1, 1, True]], [["1", 1, 1]]):
        with pytest.raises(ValueError):
            SupportMatrix.from_json(bad)
    # the empty matrix has bidegree (0, 0), which no character has
    with pytest.raises(ValueError):
        super_lie_module_char(SupportMatrix.from_json([[0, 0, 0]]))


def test_enumerate_bidegree_matrices_small():
    assert enumerate_bidegree_matrices(1, 0) == [SupportMatrix({(1, 0): 1})]
    two = enumerate_bidegree_matrices(1, 1)
    assert len(two) == 2
    assert SupportMatrix({(1, 1): 1}) in two
    assert SupportMatrix({(1, 0): 1, (0, 1): 1}) in two
    deg2 = enumerate_bidegree_matrices(2, 0)
    assert len(deg2) == 2
    assert SupportMatrix({(2, 0): 1}) in deg2
    assert SupportMatrix({(1, 0): 2}) in deg2


def test_enumerate_bidegree_matrices_bidegrees():
    for n, m in ((2, 1), (1, 2), (3, 0), (2, 2)):
        mats = enumerate_bidegree_matrices(n, m)
        assert len(set(mats)) == len(mats)
        for mat in mats:
            assert mat.bidegree() == (n, m)


def test_super_lie_module_char_examples():
    single = SupportMatrix({(2, 0): 1})
    assert super_lie_module_char(single) == super_bi_brandt_char(2, 0)

    split = SupportMatrix({(1, 0): 1, (0, 1): 1})
    assert super_lie_module_char(split) == BiSymFunc({((1,), (1,)): 1})

    exterior = SupportMatrix({(1, 1): 2})
    assert super_lie_module_char(exterior) == bi_e_pleth(2, super_bi_brandt_char(1, 1))


def test_thrall_sum_small():
    rep = thrall_sum_check(1, 1)
    assert rep.ok
    rep = thrall_sum_check(2, 0)
    assert rep.ok
    for total in range(1, 5):
        for m in range(total + 1):
            assert thrall_sum_check(total - m, m).ok


def test_schur_expansion_forced_small_cases():
    from freelie.exactalg import QTPoly

    assert schur_expand(super_brandt_char(0, 2)).coefficients == {(2,): QTPoly.one()}
    assert schur_expand(super_brandt_char(2, 0)).coefficients == {(1, 1): QTPoly.one()}
    assert schur_expand(super_brandt_char(1, 1)).coefficients == {
        (2,): QTPoly.one(),
        (1, 1): QTPoly.one(),
    }


def test_schur_positivity_of_characters():
    for total in range(1, 7):
        for m in range(total + 1):
            n = total - m
            assert schur_expand(super_brandt_char(n, m)).is_nonneg_integral, (n, m)


def test_brute_force_examples():
    assert brute_force_lie_dim(1, 1, 2, 2) == 4
    assert brute_force_lie_dim(2, 0, 2, 0) == 1
    assert brute_force_lie_dim(0, 2, 0, 2) == 3
    assert brute_force_lie_dim(3, 2, 3, 3) == 486


def _all_bracketings(word, parities):
    """Every full bracketing of the word, each expanded into the tensor space
    as (tensor, parity) with [A, B] = AB - (-1)^(|A||B|) BA."""
    if len(word) == 1:
        return [({word: Fraction(1)}, parities[word[0]])]
    out = []
    for cut in range(1, len(word)):
        for left, lp in _all_bracketings(word[:cut], parities):
            for right, rp in _all_bracketings(word[cut:], parities):
                sign = -((-1) ** (lp * rp))
                tensor = collect(
                    pair
                    for wl, cl in left.items()
                    for wr, cr in right.items()
                    for pair in ((wl + wr, cl * cr), (wr + wl, sign * cl * cr))
                )
                out.append((tensor, (lp + rp) % 2))
    return out


def _all_bracketings_rank(n, m, N):
    """Rank of every full bracketing of every word with n of the N even and
    m of the N odd generators: the oracle's span before the left-normed
    reduction."""
    parities = {g: 0 for g in range(N)}
    parities.update({N + g: 1 for g in range(N)})
    evens, odds = range(N), range(N, 2 * N)
    echelon = SparseEchelon()
    for odd_positions in combinations(range(n + m), m):
        slots = [odds if i in odd_positions else evens for i in range(n + m)]
        for word in product(*slots):
            for tensor, _ in _all_bracketings(word, parities):
                if tensor:
                    echelon.add(tensor)
    return echelon.rank


def test_left_normed_brackets_span_all_bracketings():
    # left-normed brackets are among all bracketings, so equal rank means
    # equal span
    for total in range(1, 5):
        for m in range(total + 1):
            n = total - m
            for N in range(1, 3):
                assert brute_force_lie_dim(n, m, N, N) == _all_bracketings_rank(n, m, N), (n, m, N)


def test_brute_force_matches_witt():
    for total in range(1, 6):
        for m in range(total + 1):
            n = total - m
            for N in range(1, 3):
                assert brute_force_lie_dim(n, m, N, N) == super_witt_dim(n, m, N)


def test_brute_force_caps():
    with pytest.raises(ResourceLimitError):
        brute_force_lie_dim(4, 3, 2, 2)
    with pytest.raises(ResourceLimitError):
        brute_force_lie_dim(1, 1, 4, 4)


def test_tensor_degree_totals():
    # sum over all bidegree matrices of module dimensions = (N+M)^(n+m),
    # evaluated through the characters at x = y = 1
    N = M = 2
    for total in range(1, 5):
        acc = Fraction(0)
        for m in range(total + 1):
            n = total - m
            for mat in enumerate_bidegree_matrices(n, m):
                acc += bi_expand_truncated(super_lie_module_char(mat), N, M).eval_all_ones()
        assert acc == (N + M) ** total
