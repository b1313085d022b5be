import math
from itertools import permutations

import pytest

from freelie.partition import (
    check_partition,
    conjugate,
    format_partition,
    hook_length,
    hook_lengths,
    parse_partition,
    partitions_of,
    z_lambda,
)


def euler_partition_counts(bound):
    """Pentagonal-number recurrence: independent oracle for p(n)."""
    p = [1]
    for n in range(1, bound + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_counts_match_euler_recurrence():
    counts = euler_partition_counts(14)
    for n in range(15):
        assert len(partitions_of(n)) == counts[n]
    assert len(partitions_of(10)) == 42


def test_partitions_are_unique_and_valid():
    for n in range(11):
        seen = set(partitions_of(n))
        assert len(seen) == len(partitions_of(n))
        for lam in seen:
            assert sum(lam) == n
            check_partition(lam)


def test_partitions_reverse_lex_order():
    for n in range(11):
        lams = partitions_of(n)
        assert list(lams) == sorted(lams, reverse=True)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def _conjugate_via_cells(lam):
    cells = {(r, c) for r, part in enumerate(lam, 1) for c in range(1, part + 1)}
    flipped = {(c, r) for (r, c) in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return tuple(rows[r] for r in sorted(rows))


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


def test_conjugate_matches_cell_transpose_and_is_involutive():
    for n in range(13):
        for lam in partitions_of(n):
            assert conjugate(lam) == _conjugate_via_cells(lam)
            assert conjugate(conjugate(lam)) == lam


def test_hook_length_examples():
    assert hook_length((2, 1), 1, 1) == 3
    assert hook_length((4, 2, 1), 1, 2) == 4
    assert hook_length((1,), 1, 1) == 1


def test_hook_length_outside_diagram():
    with pytest.raises(ValueError):
        hook_length((2, 1), 2, 2)
    with pytest.raises(ValueError):
        hook_length((2, 1), 3, 1)


def test_hook_multiset_invariant_under_conjugation():
    for n in range(1, 11):
        for lam in partitions_of(n):
            mine = sorted(
                hook_length(lam, r, c)
                for r, part in enumerate(lam, 1)
                for c in range(1, part + 1)
            )
            conj = conjugate(lam)
            theirs = sorted(
                hook_length(conj, r, c)
                for r, part in enumerate(conj, 1)
                for c in range(1, part + 1)
            )
            assert mine == theirs


def test_hook_lengths_match_each_cell():
    for n in range(13):
        for lam in partitions_of(n):
            cells = [(r, c) for r, part in enumerate(lam, 1) for c in range(1, part + 1)]
            assert hook_lengths(lam) == tuple(hook_length(lam, r, c) for r, c in cells), lam
    with pytest.raises(TypeError):
        hook_lengths((2.0, 1))


def test_z_lambda_examples():
    assert z_lambda((1, 1)) == 2
    assert z_lambda((2,)) == 2
    assert z_lambda((2, 2, 1)) == 8
    assert z_lambda(()) == 1


def _cycle_type(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def test_conjugacy_class_sizes_sum_to_factorial():
    # n!/z_lambda is the size of the conjugacy class of cycle type lambda;
    # checked against brute-force enumeration of permutations.
    for n in range(1, 9):
        by_type = {}
        for perm in permutations(range(n)):
            t = _cycle_type(perm)
            by_type[t] = by_type.get(t, 0) + 1
        for lam in partitions_of(n):
            assert by_type[lam] == math.factorial(n) // z_lambda(lam)
        assert sum(by_type.values()) == math.factorial(n)


def test_format_and_parse():
    assert format_partition((4, 2, 1)) == "(4,2,1)"
    assert format_partition(()) == "()"
    assert parse_partition("(4,2,1)") == (4, 2, 1)
    assert parse_partition("( 4 , 2 , 1 )") == (4, 2, 1)
    assert parse_partition("()") == ()
    with pytest.raises(ValueError):
        parse_partition("4,2,1")
    with pytest.raises(ValueError):
        parse_partition("(1,2)")
