"""Shared test-side references."""

from fractions import Fraction

import pytest

from freelie.exactalg import ExactDivisionError, qpoly


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


def _qpoly_divmod(num, den):
    """Fraction long division of dense q-polynomials, the route that
    subtract-only reduction by a monic divisor replaced; returns the trimmed
    (quotient, remainder)."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in num]
    dd = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quot[i - dd] = f
        for j, cd in enumerate(den):
            rem[i - dd + j] -= f * cd
    return qpoly(quot), qpoly(rem)


def _qpoly_exact_div(num, den):
    quot, rem = _qpoly_divmod(num, den)
    if rem:
        raise ExactDivisionError("polynomial division left a remainder")
    return quot


@pytest.fixture(scope="session")
def qpoly_divmod():
    """(quotient, remainder) of two dense q-polynomials by Fraction long division."""
    return _qpoly_divmod


@pytest.fixture(scope="session")
def qpoly_exact_div():
    """Exact quotient by Fraction long division; raises on a remainder."""
    return _qpoly_exact_div
