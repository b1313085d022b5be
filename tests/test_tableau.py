import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelie import specialization, tableau, verify
from freelie.exactalg import QTPoly, ResourceLimitError
from freelie.partition import partitions_of
from freelie.tableau import (
    StandardTableau,
    SuperTableau,
    comaj,
    comaj_neg_generating_poly,
    comaj_neg_generating_polys,
    count_super_tableaux,
    descent_set,
    maj,
    maj_neg_generating_poly,
    maj_neg_generating_polys,
    negg,
    relative_comaj,
    relative_maj,
    super_comaj,
    super_descent_set,
    super_maj,
    syt_count,
    syt_descent_sets,
    syt_enumerate,
    syt_row_words,
)

EXAMPLE = StandardTableau([(1, 3, 4, 6), (2, 5), (7,)])


def test_standard_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau([(1, 2), (4,)])  # entries not 1..n
    with pytest.raises(ValueError):
        StandardTableau([(2, 1), (3,)])  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau([(1, 4), (2, 3)])  # column not increasing
    with pytest.raises(ValueError):
        StandardTableau([(1,), (2, 3)])  # shape not a partition


def test_syt_counts_against_hook_formula():
    assert syt_count((1,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((4, 2, 1)) == 35
    for n in range(0, 11):
        for lam in partitions_of(n):
            assert len(syt_enumerate(lam)) == syt_count(lam)


def test_syt_enumerate_builds_valid_tableaux():
    for n in range(9):
        for lam in partitions_of(n):
            tableaux = syt_enumerate(lam)
            assert len(tableaux) == syt_count(lam)
            for t in tableaux:
                checked = StandardTableau(t.rows)
                assert t == checked and t.shape == checked.shape == lam
                assert [t.row_of(e) for e in range(1, n + 1)] == [
                    checked.row_of(e) for e in range(1, n + 1)
                ]


def test_syt_enumerate_entries_valid():
    for lam in ((3, 2), (2, 2, 1)):
        tableaux = syt_enumerate(lam)
        assert len(set(t.rows for t in tableaux)) == len(tableaux)
        for t in tableaux:
            assert t.shape == lam


def test_row_words_are_the_tableaux_in_order():
    # each word lists the row of 1..n; the walk is depth-first, so the words
    # are distinct and increasing
    for n in range(9):
        for lam in partitions_of(n):
            words = list(syt_row_words(lam))
            assert words == sorted(set(words))
            assert [tuple(t.row_of(e) - 1 for e in range(1, n + 1)) for t in syt_enumerate(lam)] == words


def test_descent_sets_read_off_the_row_words():
    for n in range(9):
        for lam in partitions_of(n):
            assert list(syt_descent_sets(lam)) == [descent_set(t) for t in syt_enumerate(lam)], lam
    assert list(syt_descent_sets(())) == [frozenset()]


def test_descent_set_worked_example():
    assert descent_set(EXAMPLE) == {1, 4, 6}
    assert maj(EXAMPLE) == 11


def test_descent_set_extremes():
    row = StandardTableau([(1, 2, 3, 4)])
    assert descent_set(row) == frozenset()
    assert maj(row) == 0
    column = StandardTableau([(1,), (2,), (3,)])
    assert descent_set(column) == {1, 2}
    assert maj(column) == 3
    assert comaj(column) == 3


def test_super_descent_worked_example():
    st_ = SuperTableau(EXAMPLE, frozenset({2, 3, 7}))
    assert super_descent_set(st_) == {2, 3, 4}
    assert super_maj(st_) == 9
    assert negg(st_) == 3


def test_super_tableau_is_a_value():
    a = SuperTableau(EXAMPLE, frozenset({2, 3, 7}))
    b = SuperTableau.parse(a.render())
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert len({a, b, SuperTableau(EXAMPLE, frozenset({2}))}) == 2
    assert SuperTableau(EXAMPLE, [2, 3, 7]).neg == frozenset({2, 3, 7})
    for bad in ({0}, {8}, {-1}):
        with pytest.raises(ValueError):
            SuperTableau(EXAMPLE, frozenset(bad))


def test_super_descent_reductions():
    st_ = SuperTableau(EXAMPLE, frozenset())
    assert super_descent_set(st_) == descent_set(EXAMPLE)
    assert super_maj(st_) == maj(EXAMPLE)

    two = SuperTableau(StandardTableau([(1, 2)]), frozenset({1}))
    assert super_descent_set(two) == {1}

    single = SuperTableau(StandardTableau([(1,)]), frozenset({1}))
    assert super_maj(single) == 0
    assert negg(single) == 1


def test_relative_maj_examples():
    assert relative_maj({1, 4, 6}, {2, 3, 7}, 7) == 9
    assert relative_maj({1, 4, 6}, set(), 7) == 11
    assert relative_maj(set(), {1, 2, 3}, 3) == 3
    assert relative_comaj({1, 2}, set(), 3) == 3


def test_super_descent_two_definitions_agree():
    # the filling-based rule and the relative-statistic rule are equivalent
    for n in range(1, 7):
        for lam in partitions_of(n):
            for t in syt_enumerate(lam):
                d = descent_set(t)
                for mask in range(1 << n):
                    s = frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
                    st_ = SuperTableau(t, s)
                    direct = super_descent_set(st_)
                    assert sum(direct) == relative_maj(d, s, n)
                    assert sum(n - i for i in direct) == relative_comaj(d, s, n)
                    assert super_maj(st_) == sum(direct)
                    assert super_comaj(st_) == sum(n - i for i in direct)


def test_super_descent_no_bars_reduction_full_sweep():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for t in syt_enumerate(lam):
                assert super_descent_set(SuperTableau(t, frozenset())) == descent_set(t)


def test_generating_poly_single_cell():
    assert maj_neg_generating_poly((1,)) == QTPoly({(0, 0): 1, (0, 1): 1})


def test_generating_poly_row_two():
    expected = QTPoly({(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1})
    assert maj_neg_generating_poly((2,)) == expected


def test_generating_poly_column_two():
    # q + t + qt + t^2, derived by enumerating the four signed tableaux
    expected = QTPoly({(1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1})
    assert maj_neg_generating_poly((1, 1)) == expected


def test_generating_poly_t_zero_slice_is_classical_maj():
    for n in range(1, 8):
        for lam in partitions_of(n):
            poly = maj_neg_generating_poly(lam)
            classical = QTPoly()
            for t in syt_enumerate(lam):
                classical = classical + QTPoly.monomial(maj(t), 0)
            slice0 = QTPoly({(a, 0): c for (a, b), c in poly.items() if b == 0})
            assert slice0 == classical


def test_generating_poly_total_count():
    for n in range(1, 8):
        for lam in partitions_of(n):
            poly = maj_neg_generating_poly(lam)
            total = sum(c for _, c in poly.items())
            assert total == (1 << n) * syt_count(lam)


def test_maj_comaj_equidistribution():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert maj_neg_generating_poly(lam) == comaj_neg_generating_poly(lam)


def test_count_super_tableaux_examples():
    assert count_super_tableaux((2, 1), 3, 1, 0) == 1
    for n in range(1, 7):
        assert count_super_tableaux((n,), n, 0, 0) == 1


def test_count_super_tableaux_matches_generating_poly():
    for lam in ((2, 1), (3, 1), (2, 2)):
        n = sum(lam)
        poly = maj_neg_generating_poly(lam)
        for r in (2, 3, n):
            for s in range(r):
                for m in range(n + 1):
                    direct = count_super_tableaux(lam, r, s, m)
                    via_poly = sum(
                        int(c)
                        for (a, b), c in poly.items()
                        if b == m and a % r == s
                    )
                    assert direct == via_poly


# The enumerations the DP replaced, kept as references for small shapes.
REFERENCE_PAIR_BUDGET = 200_000


def _check_reference_budget(pairs):
    if pairs > REFERENCE_PAIR_BUDGET:
        raise ResourceLimitError(f"{pairs} tableau-subset pairs exceed the reference budget")


def _enumerated_sign_poly(lam, use_comaj):
    """Sum of q^stat t^|S| over every (standard tableau, sign subset S) pair."""
    n = sum(lam)
    _check_reference_budget(syt_count(lam) << n)
    counts = {}
    for t in syt_enumerate(lam):
        d = descent_set(t)
        for mask in range(1 << n):
            s = {i for i in range(1, n + 1) if mask >> (i - 1) & 1}
            stat = relative_comaj(d, s, n) if use_comaj else relative_maj(d, s, n)
            counts[(stat, len(s))] = counts.get((stat, len(s)), 0) + 1
    return QTPoly(counts)


def _enumerated_count(lam, modulus, residue, m):
    """Signed tableaux with maj = residue mod modulus and m bars, by listing
    every m-subset of barred entries for every standard tableau."""
    n = sum(lam)
    _check_reference_budget(syt_count(lam) * math.comb(n, m))
    return sum(
        1
        for t in syt_enumerate(lam)
        for chosen in combinations(range(1, n + 1), m)
        if relative_maj(descent_set(t), set(chosen), n) % modulus == residue % modulus
    )


def test_dp_matches_enumeration():
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert maj_neg_generating_poly(lam) == _enumerated_sign_poly(lam, False), lam
            assert comaj_neg_generating_poly(lam) == _enumerated_sign_poly(lam, True), lam
            for m in range(n + 1):
                assert count_super_tableaux(lam, max(n, 1), 1, m) == _enumerated_count(
                    lam, max(n, 1), 1, m
                ), (lam, m)


def test_dp_matches_signed_filling_definition():
    # super maj and super comaj read straight off the signed filling
    for n in range(1, 7):
        for lam in partitions_of(n):
            by_maj, by_comaj = {}, {}
            for t in syt_enumerate(lam):
                for mask in range(1 << n):
                    st_ = SuperTableau(t, frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1))
                    descents = super_descent_set(st_)
                    for table, stat in ((by_maj, sum(descents)), (by_comaj, sum(n - i for i in descents))):
                        key = (stat, negg(st_))
                        table[key] = table.get(key, 0) + 1
            assert maj_neg_generating_poly(lam) == QTPoly(by_maj), lam
            assert comaj_neg_generating_poly(lam) == QTPoly(by_comaj), lam


def test_all_shapes_dp_matches_enumeration():
    for n in range(0, 8):
        majs, comajs = maj_neg_generating_polys(n), comaj_neg_generating_polys(n)
        assert set(majs) == set(comajs) == set(partitions_of(n))
        for lam in partitions_of(n):
            assert majs[lam] == _enumerated_sign_poly(lam, False), lam
            assert comajs[lam] == _enumerated_sign_poly(lam, True), lam


def test_all_shapes_dp_matches_single_shape_dp():
    for n in range(0, 11):
        majs, comajs = maj_neg_generating_polys(n), comaj_neg_generating_polys(n)
        assert set(majs) == set(comajs) == set(partitions_of(n))
        for lam in partitions_of(n):
            assert majs[lam] == maj_neg_generating_poly(lam), lam
            assert comajs[lam] == comaj_neg_generating_poly(lam), lam


def test_all_shapes_result_is_a_copy():
    polys = maj_neg_generating_polys(3)
    polys.clear()
    assert set(maj_neg_generating_polys(3)) == set(partitions_of(3))


def test_sweeps_compute_each_size_and_statistic_once(monkeypatch):
    real = tableau._sign_generating_polys
    for suite in ("hook", "kw", "symmetry", "sps"):
        real.cache_clear()
        for value in vars(specialization).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        calls = []

        def counted(bound, n, use_comaj):
            calls.append((bound, n, use_comaj))
            return real(bound, n, use_comaj)

        monkeypatch.setattr(tableau, "_sign_generating_polys", counted)
        verify.run_suite(suite, "quick")
        assert calls, suite
        computed = set(calls)
        # one table per (n, statistic), over every shape of n at once
        assert real.cache_info().misses == len(computed) == len({(n, c) for _, n, c in computed}), suite
        assert all(bound == tableau._every_shape(n) for bound, n, _ in computed), suite


def _reference_budget_bound(lam):
    """The bound of the per-shape DP on its table-entry updates, summed over
    the shapes inside lam, layer by layer."""
    n = sum(lam)
    bound = 0
    layer = {(1,) + (0,) * (len(lam) - 1)} if n else set()
    for i in range(1, n):
        table = i * ((i - 1) * (2 * n - i) // 2 + 1)
        nxt = set()
        for mu in layer:
            corners = sum(1 for a, b in zip(mu, mu[1:] + (0,)) if a > b)
            moves = [nu for _, nu in tableau._moves(lam, mu)]
            nxt.update(moves)
            bound += 4 * corners * len(moves) * table
        layer = nxt
    return bound


def _admitted(bound, n):
    try:
        tableau._check_budget(bound, n)
    except ResourceLimitError:
        return False
    return True


def test_budget_admits_all_shapes_exactly_when_each_shape_alone(monkeypatch):
    for n in range(2, 9):
        bounds = {lam: _reference_budget_bound(lam) for lam in partitions_of(n)}
        for lam, bound in bounds.items():
            monkeypatch.setattr(tableau, "DEFAULT_PAIR_BUDGET", bound)
            assert _admitted(lam, n), lam
            monkeypatch.setattr(tableau, "DEFAULT_PAIR_BUDGET", bound - 1)
            assert not _admitted(lam, n) or bound == 0, lam
        largest = max(bounds.values())
        monkeypatch.setattr(tableau, "DEFAULT_PAIR_BUDGET", largest)
        assert _admitted(tableau._every_shape(n), n), n
        monkeypatch.setattr(tableau, "DEFAULT_PAIR_BUDGET", largest - 1)
        assert not _admitted(tableau._every_shape(n), n), n


def test_default_budget_admits_every_shape_to_18():
    for n in range(1, 19):
        for lam in partitions_of(n):
            tableau._check_budget(lam, n)


def test_default_budget_admits_every_size_to_18():
    # the all-shapes call, admission only: the DP is not run
    for n in range(1, 19):
        tableau._check_budget(tableau._every_shape(n), n)
    with pytest.raises(ResourceLimitError):
        tableau._check_budget(tableau._every_shape(19), 19)


def test_budget_refuses_before_computing():
    with pytest.raises(ResourceLimitError):
        maj_neg_generating_poly((500, 500, 500, 500))
    with pytest.raises(ResourceLimitError):
        count_super_tableaux((1,) * 300, 300, 1, 0)


def test_budget_errors(monkeypatch):
    tableau._sign_generating_polys.cache_clear()
    monkeypatch.setattr(tableau, "DEFAULT_PAIR_BUDGET", 10)
    with pytest.raises(ResourceLimitError):
        maj_neg_generating_poly((3, 2, 1))
    with pytest.raises(ResourceLimitError):
        count_super_tableaux((3, 2, 1), 6, 1, 3)


def test_render_and_parse_tableaux():
    assert EXAMPLE.render() == "1,3,4,6/2,5/7"
    assert StandardTableau.parse("1,3,4,6/2,5/7") == EXAMPLE
    st_ = SuperTableau(EXAMPLE, frozenset({2, 3, 7}))
    assert st_.render() == "1,-3,4,6/-2,5/-7"
    parsed = SuperTableau.parse("1,-3,4,6/-2,5/-7")
    assert parsed.plus_part == EXAMPLE
    assert parsed.neg == {2, 3, 7}


@st.composite
def partition_strategy(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


@given(partition_strategy())
@settings(max_examples=40, deadline=None)
def test_super_tableau_count_property(lam):
    n = sum(lam)
    total = sum(
        count_super_tableaux(lam, 1, 0, m) for m in range(n + 1)
    )
    assert total == (1 << n) * syt_count(lam)
