"""Characters of the cyclic group C_r, the subset-rotation character, and
Frobenius characteristics of inductions up to the symmetric group.

All root-of-unity arithmetic is exact in the cyclotomic quotient ring
Q[q]/(Phi_r): rationality of the root-of-unity sums that arise during
induction is asserted, never assumed.  A class function on C_r is stored by
power of the generator, with the identity at k = r.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter

from .exactalg import CycloElem, RatLike, Rational, Record, ResourceLimitError, binom, divisors
from .partition import Partition, partitions_of
from .superlie import check_bidegree
from .symfunc import ClassFunctionSn, SymFunc

_INDUCE_ORACLE_MAX = 7
_CHI_CYC_ORACLE_MAX = 16


class CyclicClassFunction(Record):
    """Values of a class function on C_r at generator powers k = 1..r."""

    __slots__ = ("order", "values")

    def __init__(self, order: int, values: tuple[CycloElem, ...]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        vals = tuple(values)
        if len(vals) != order:
            raise ValueError(f"expected {order} values, got {len(vals)}")
        if any(v.modulus != order for v in vals):
            raise ValueError("all values must live modulo the group order")
        self.order = order
        self.values = vals

    def at_power(self, k: int) -> CycloElem:
        """Value at the k-th power of the generator (k taken mod the order,
        with the identity at k = order)."""
        k = k % self.order
        return self.values[(k - 1) % self.order]


def chi_power(r: int, k0: int) -> CyclicClassFunction:
    """The linear character sending the generator to the k0-th power of the
    chosen primitive r-th root of unity."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return CyclicClassFunction(
        r, tuple(CycloElem.root_power(r, k0 * k) for k in range(1, r + 1))
    )


def chi_cyc(n: int, m: int) -> CyclicClassFunction:
    """Character of C_{n+m} rotating m-element subsets of {1..n+m}: the value
    at the k-th generator power is C((n+m)/d, m/d) when d | m and 0 otherwise,
    where d = (n+m)/gcd(k, n+m) is the cycle length of that power."""
    check_bidegree(n, m)
    r = n + m
    values = []
    for k in range(1, r + 1):
        d = r // math.gcd(k, r)
        count = binom(r // d, m // d) if m % d == 0 else 0
        values.append(CycloElem.from_rational(r, count))
    return CyclicClassFunction(r, tuple(values))


def chi_cyc_oracle(n: int, m: int) -> CyclicClassFunction:
    """Same character by direct orbit counting: enumerate all m-subsets, each
    as a bitmask, and count the ones fixed by each rotation."""
    check_bidegree(n, m)
    r = n + m
    if r > _CHI_CYC_ORACLE_MAX:
        raise ResourceLimitError(f"subset oracle capped at n + m <= {_CHI_CYC_ORACLE_MAX}")
    full = (1 << r) - 1
    subsets = [sum(1 << x for x in s) for s in combinations(range(r), m)]
    values = []
    for k in range(1, r + 1):
        # x -> x + k mod r: bits past r - 1 come round to the bottom
        fixed = sum(1 for s in subsets if ((s << k) | (s >> (r - k))) & full == s)
        values.append(CycloElem.from_rational(r, fixed))
    return CyclicClassFunction(r, tuple(values))


def pointwise_product(
    chi1: CyclicClassFunction, chi2: CyclicClassFunction
) -> CyclicClassFunction:
    """Tensor product of characters: value-wise product in the quotient ring."""
    if chi1.order != chi2.order:
        raise ValueError(f"order mismatch: {chi1.order} vs {chi2.order}")
    return CyclicClassFunction(
        chi1.order, tuple(a * b for a, b in zip(chi1.values, chi2.values))
    )


def induce_frobenius(chi: CyclicClassFunction) -> SymFunc:
    """Frobenius characteristic of the induction of chi up to S_r:
    (1/r) sum over d | r of [sum over k with gcd(k, r) = r/d of chi(pi^k)]
    p_d^(r/d).  Each inner sum is a sum over a full Galois orbit of roots of
    unity, so it must reduce to a rational; that reduction is asserted."""
    r = chi.order
    terms: dict[Partition, RatLike] = {}
    for d in divisors(r):
        inner = CycloElem.from_rational(r, 0)
        for k in range(1, r + 1):
            if math.gcd(k, r) == r // d:
                inner = inner + chi.at_power(k)
        if not inner.is_rational:
            raise ArithmeticError(
                f"root-of-unity sum failed to reduce to a rational: {inner}"
            )
        c = inner.rational_value() * Rational(1, r)
        if c != 0:
            terms[(d,) * (r // d)] = c
    return SymFunc(terms)


# ---------------------------------------------------------------------------
# brute-force induction oracle


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a after b): x -> a[b[x]]
    return tuple(a[b[x]] for x in range(len(a)))


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


@lru_cache(maxsize=None)
def _conjugation_counts(r: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """The part of the induced character that depends only on r: for one
    representative sigma of each cycle type mu, the counts N[k - 1] =
    #{x in S_r : x^-1 sigma x = g^k} for k = 1..r, where g is the r-cycle
    x -> x + 1, found by conjugating sigma by every x in S_r.  Each
    permutation acts on tuples as an ``itemgetter`` built once, so that
    x^-1 sigma x is two C-level lookups, (xinv o sigma) read at x."""
    generator = tuple((i + 1) % r for i in range(r))
    power_of: dict[tuple[int, ...], int] = {}
    g = generator
    for k in range(1, r + 1):
        power_of[g] = k
        g = _compose(generator, g)

    def representative(mu: Partition) -> tuple[int, ...]:
        out = []
        base = 0
        for part in mu:
            out.extend([base + (i + 1) % part for i in range(part)])
            base += part
        return tuple(out)

    def reader(p: tuple[int, ...]):
        # seq -> (seq[p[0]], ..., seq[p[-1]]); itemgetter of one index
        # returns the item itself, not a 1-tuple
        return itemgetter(*p) if len(p) > 1 else lambda seq: (seq[p[0]],)

    everyone = [(reader(x), _inverse(x)) for x in permutations(range(r))]
    table = []
    for mu in partitions_of(r):
        at_sigma = reader(representative(mu))
        counts = [0] * r
        for at_x, xinv in everyone:
            k = power_of.get(at_x(at_sigma(xinv)))  # x^-1 sigma x
            if k is not None:
                counts[k - 1] += 1
        table.append((mu, tuple(counts)))
    return tuple(table)


def induce_oracle(chi: CyclicClassFunction) -> ClassFunctionSn:
    """Textbook induced character: for one representative sigma of each cycle
    type, chi_up(sigma) = (1/r) sum over x in S_r with x^-1 sigma x in C_r of
    chi(x^-1 sigma x), with the conjugations counted once per r.  Independent
    of the power-sum shortcut above."""
    r = chi.order
    if r > _INDUCE_ORACLE_MAX:
        raise ResourceLimitError(f"induction oracle capped at r <= {_INDUCE_ORACLE_MAX}")
    values: dict[Partition, RatLike] = {}
    for mu, counts in _conjugation_counts(r):
        acc = CycloElem.from_rational(r, 0)
        for k, count in enumerate(counts, 1):
            if count:
                acc = acc + chi.at_power(k) * count
        if not acc.is_rational:
            raise ArithmeticError(f"induced character value not rational: {acc}")
        values[mu] = acc.rational_value() * Rational(1, r)
    return ClassFunctionSn(r, values)


def super_klyachko_char(n: int, m: int) -> SymFunc:
    """Induced-character description of the (n, m) bidegree character: twist
    the subset-rotation character by the first root-of-unity power when m is
    odd, by the (m/2 + 1)-st when m is even, then induce up to S_{n+m}."""
    check_bidegree(n, m)
    r = n + m
    exponent = 1 if m % 2 == 1 else m // 2 + 1
    twisted = pointwise_product(chi_cyc(n, m), chi_power(r, exponent))
    return induce_frobenius(twisted)
