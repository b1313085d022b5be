"""Shared test-side references."""

from fractions import Fraction

import pytest


def _fraction_rank(rows) -> int:
    """Rank over Q by the Fraction elimination the integer echelon replaced:
    each pivot row is scaled to a leading 1."""
    pivots: dict = {}
    for vector in rows:
        row = {k: Fraction(v) for k, v in vector.items() if v != 0}
        while row:
            pivot = min(row)
            basis_row = pivots.get(pivot)
            if basis_row is None:
                scale = row[pivot]
                pivots[pivot] = {k: v / scale for k, v in row.items()}
                break
            factor = row[pivot]
            for k, v in basis_row.items():
                s = row.get(k, Fraction(0)) - factor * v
                if s == 0:
                    row.pop(k, None)
                else:
                    row[k] = s
    return len(pivots)


@pytest.fixture(scope="session")
def fraction_rank():
    """Rank over Q of an iterable of sparse rows, by Fraction elimination."""
    return _fraction_rank
