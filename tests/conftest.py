"""Shared test-side references."""

from fractions import Fraction

import pytest

from freelie.exactalg import ExactDivisionError, QTPoly, collect
from freelie.specialization import SpecSeries


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


def _trim(coeffs):
    """A dense q-polynomial, constant term first, as a tuple of Fractions
    without trailing zeros; the zero polynomial is the empty tuple."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _qpoly_divmod(num, den):
    """Fraction long division of dense q-polynomials, the route that
    subtract-only reduction by a monic divisor replaced; returns the trimmed
    (quotient, remainder)."""
    den = _trim(den)
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
    return _trim(quot), _trim(rem)


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


def _q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError(f"q_int requires n >= 0, got {n}")
    return QTPoly({(a, 0): 1 for a in range(n)})


def _q_factorial(n):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    result = QTPoly.one()
    for k in range(1, n + 1):
        result = result * _q_int(k)
    return result


def _q_pochhammer_product(n):
    """(q;q)_n as the product of its n factors 1 - q^k."""
    result = QTPoly.one()
    for k in range(1, n + 1):
        result = result * (QTPoly.one() - QTPoly.monomial(k, 0))
    return result


@pytest.fixture(scope="session")
def q_pochhammer_product():
    """(q;q)_n factor by factor, a reference for the division-free route."""
    return _q_pochhammer_product


def _t_slices(p):
    """The terms of a QTPoly grouped by t-exponent, each slice a trimmed
    dense q-polynomial."""
    acc = {}
    for (a, b), c in p.terms.items():
        acc.setdefault(b, {})[a] = c
    return {
        b: _trim(qs.get(a, 0) for a in range(max(qs) + 1)) for b, qs in acc.items()
    }


def _from_t_slices(slices):
    """The QTPoly whose t^b slice is the dense q-polynomial slices[b]."""
    return QTPoly({(a, b): c for b, dense in slices.items() for a, c in enumerate(dense)})


@pytest.fixture(scope="session")
def q_int():
    """[n]_q, a reference for the division routes."""
    return _q_int


@pytest.fixture(scope="session")
def q_factorial():
    """[n]_q!, a reference for the division routes."""
    return _q_factorial


@pytest.fixture(scope="session")
def t_slices():
    """QTPoly -> {t-exponent: dense q-polynomial}."""
    return _t_slices


@pytest.fixture(scope="session")
def from_t_slices():
    """{t-exponent: dense q-polynomial} -> QTPoly."""
    return _from_t_slices


def _word_principal_spec(n, d, q_cap):
    """Principal specialization of the two-alphabet quasisymmetric function
    of D by one recursion step per letter of every admissible word, the route
    that the integer transfer DP replaced."""
    d = frozenset(d)
    weights = []

    def rec(pos, prev, used, bars):
        if pos == n:
            weights.append((used, bars))
            return
        remaining = n - pos
        v = prev[0] if prev is not None else 1
        while used + (v - 1) * remaining <= q_cap:
            for barred in (False, True):
                letter = (v, barred)
                if prev is not None:
                    if letter < prev:
                        continue
                    if letter == prev and barred != (pos in d):
                        continue
                rec(pos + 1, letter, used + v - 1, bars + barred)
            v += 1

    rec(0, None, 0, 0)
    return SpecSeries(q_cap, collect((w, 1) for w in weights))


@pytest.fixture(scope="session")
def word_principal_spec():
    """(n, D, q_cap) -> the truncated principal specialization, word by word."""
    return _word_principal_spec
