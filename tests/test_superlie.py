import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from freelie.exactalg import ResourceLimitError, SparseEchelon, collect, divisors, mobius
from freelie.symfunc import (
    BiSymFunc,
    SymFunc,
    diagonal,
    e_pleth,
    expand_truncated,
    first_bad_multiplicity,
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
    thrall_routes,
    weight_exponents,
)


def test_super_brandt_base_cases():
    assert super_brandt_char(2, 0) == SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert super_brandt_char(0, 2) == SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert super_brandt_char(1, 1) == SymFunc({(1, 1): 1})
    with pytest.raises(ValueError):
        super_brandt_char(0, 0)


def test_super_brandt_reduces_to_classical():
    # m = 0 must give the classical free Lie algebra character formula
    for n in range(1, 11):
        classical = SymFunc(
            {(d,) * (n // d): Fraction(mobius(d), n) for d in divisors(n) if mobius(d) != 0}
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


def test_petrogradsky_series_is_graded_by_its_keys():
    # p_lambda(x) p_mu(y) has bidegree (|lambda|, |mu|): the series has one
    # component per bidegree under the caps but (0, 0), each holding only
    # the keys of its bidegree
    for max_n, max_m in ((0, 0), (3, 0), (0, 2), (4, 3), (2, 5)):
        series = petrogradsky_series(max_n, max_m)
        expected = {(n, m) for n in range(max_n + 1) for m in range(max_m + 1)} - {(0, 0)}
        assert set(series) == expected, (max_n, max_m)
        for (n, m), component in series.items():
            assert component, (n, m)
            assert all(sum(lam) == n and sum(mu) == m for lam, mu in component.terms), (n, m)


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
    assert super_lie_module_char(exterior) == e_pleth(2, super_bi_brandt_char(1, 1))


def test_thrall_sum_small():
    # (1, 1): the modules [1,1] and [1,0]+[0,1] sum to 2 p_1(x) p_1(y)
    assert thrall_routes(1, 1) == (BiSymFunc({((1,), (1,)): 2}),) * 2
    for total in range(1, 5):
        for m in range(total + 1):
            lhs, rhs = thrall_routes(total - m, m)
            assert lhs == rhs, (total - m, m)


def test_schur_expansion_forced_small_cases():
    assert schur_expand(super_brandt_char(0, 2)) == {(2,): 1}
    assert schur_expand(super_brandt_char(2, 0)) == {(1, 1): 1}
    assert schur_expand(super_brandt_char(1, 1)) == {(2,): 1, (1, 1): 1}


def test_schur_positivity_of_characters():
    for total in range(1, 7):
        for m in range(total + 1):
            n = total - m
            assert first_bad_multiplicity(schur_expand(super_brandt_char(n, m))) is None, (n, m)


def test_brute_force_examples():
    assert brute_force_lie_dim(1, 1, 2, 2)[0] == 4
    assert brute_force_lie_dim(2, 0, 2, 0)[0] == 1
    assert brute_force_lie_dim(0, 2, 0, 2)[0] == 3
    assert brute_force_lie_dim(3, 2, 3, 3)[0] == 486
    # x1 x1 y1 in the (2, 1) piece at N = M = 2 is spanned by [[x1, y1], x1]
    assert brute_force_lie_dim(2, 1, 2, 2)[1][((2,), (1,))] == 1


def _fraction_left_normed(word, parities):
    """[[...[w1, w2], ...], wn] in the tensor space, with Fraction
    coefficients and [A, B] = AB - (-1)^(|A||B|) BA."""
    tensor = {(word[0],): Fraction(1)}
    parity = parities[word[0]]
    for letter in word[1:]:
        lp = parities[letter]
        sign = -((-1) ** (parity * lp))
        tensor = collect(
            pair
            for w, c in tensor.items()
            for pair in ((w + (letter,), c), ((letter,) + w, sign * c))
        )
        parity = (parity + lp) % 2
    return tensor


def _words(n, m, N, M):
    """Every word with n letters from the N even generators 0..N-1 and m from
    the M odd generators N..N+M-1."""
    evens, odds = range(N), range(N, N + M)
    for odd_positions in combinations(range(n + m), m):
        slots = [odds if i in odd_positions else evens for i in range(n + m)]
        yield from product(*slots)


def _all_words_rank(n, m, N, M, fraction_rank):
    """The oracle before weight blocks: the Fraction rank of the left-normed
    bracket of every word of the bidegree."""
    parities = [0] * N + [1] * M
    return fraction_rank(_fraction_left_normed(w, parities) for w in _words(n, m, N, M))


def test_weight_block_oracle_matches_all_words_oracle(fraction_rank):
    cases = [(t - m, m, N, M) for t in range(1, 6) for m in range(t + 1) for N in range(3) for M in range(3)]
    for n, m, N, M in cases + [(3, 2, 3, 3)]:
        assert brute_force_lie_dim(n, m, N, M)[0] == _all_words_rank(n, m, N, M, fraction_rank), (n, m, N, M)


def _block_letters(alpha, beta, N):
    return [g for g, c in enumerate(alpha) for _ in range(c)] + [
        N + g for g, c in enumerate(beta) for _ in range(c)
    ]


def test_fixed_first_letter_spans_each_weight_block(fraction_rank):
    for total in range(1, 6):
        for m in range(total + 1):
            n = total - m
            for N in range(1, 4):
                parities = [0] * N + [1] * N
                for (alpha, beta), rank in brute_force_lie_dim(n, m, N, N)[1].items():
                    words = set(permutations(_block_letters(alpha, beta, N)))
                    full = fraction_rank(_fraction_left_normed(w, parities) for w in words)
                    assert rank == full, (alpha, beta, N)


def test_weight_block_ranks_match_character_coefficients():
    for total in range(1, 7):
        for m in range(total + 1):
            n = total - m
            for N in range(1, 4):
                char = expand_truncated(super_bi_brandt_char(n, m), N, N)
                blocks = brute_force_lie_dim(n, m, N, N)[1]
                assert blocks
                for (alpha, beta), rank in blocks.items():
                    weight = weight_exponents(alpha, beta, N, N)
                    assert rank == char.coefficient(weight), (n, m, N, alpha, beta)


def _all_bracketings(word, parities):
    """Every full bracketing of the word, each expanded into the tensor space
    as (tensor, parity) with [A, B] = AB - (-1)^(|A||B|) BA."""
    if len(word) == 1:
        return [({word: 1}, parities[word[0]])]
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
    parities = [0] * N + [1] * N
    echelon = SparseEchelon()
    for word in _words(n, m, N, N):
        for tensor, _ in _all_bracketings(word, parities):
            echelon.add(tensor)
    return echelon.rank


def test_left_normed_brackets_span_all_bracketings():
    # left-normed brackets are among all bracketings, so equal rank means
    # equal span
    for total in range(1, 5):
        for m in range(total + 1):
            n = total - m
            for N in range(1, 3):
                assert brute_force_lie_dim(n, m, N, N)[0] == _all_bracketings_rank(n, m, N), (n, m, N)


def test_brute_force_matches_witt():
    for total in range(1, 6):
        for m in range(total + 1):
            n = total - m
            for N in range(1, 3):
                assert brute_force_lie_dim(n, m, N, N)[0] == super_witt_dim(n, m, N)


def test_brute_force_caps():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        brute_force_lie_dim(5, 5, 3, 3)
    assert time.perf_counter() - start < 1
    with pytest.raises(ResourceLimitError):
        brute_force_lie_dim(1, 1, 4, 4)
    # a degree whose single word is over the budget is refused before its
    # partitions are listed, with or without weight blocks
    start = time.perf_counter()
    for args in ((100, 0, 1, 1), (100, 0, 0, 0), (0, 200, 2, 2), (19, 0, 0, 0)):
        with pytest.raises(ResourceLimitError):
            brute_force_lie_dim(*args)
    assert time.perf_counter() - start < 1
    assert brute_force_lie_dim(18, 0, 0, 0) == (0, {})


def test_term_bound_admits_degree_seven_at_dimension_three():
    # the largest of these, (4, 3, 3, 3), has 166,400 expansion terms
    for m in range(8):
        assert brute_force_lie_dim(7 - m, m, 3, 3)[0] == super_witt_dim(7 - m, m, 3)


def test_tensor_degree_totals():
    # sum over all bidegree matrices of module dimensions = (N+M)^(n+m),
    # evaluated through the characters at x = y = 1
    N = M = 2
    for total in range(1, 5):
        acc = Fraction(0)
        for m in range(total + 1):
            n = total - m
            for mat in enumerate_bidegree_matrices(n, m):
                acc += expand_truncated(super_lie_module_char(mat), N, M).eval_all_ones()
        assert acc == (N + M) ** total
