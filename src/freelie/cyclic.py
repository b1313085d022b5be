"""Characters of the cyclic group C_r, the subset-rotation character, and
Frobenius characteristics of inductions up to the symmetric group.

All root-of-unity arithmetic is exact in the cyclotomic quotient ring
Q[q]/(Phi_r): rationality of the root-of-unity sums that arise during
induction is asserted, never assumed.  A class function on C_r is stored by
power of the generator, with the identity at k = r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from .exactalg import CycloElem, Record, ResourceLimitError, binom, divisors
from .partition import Partition, partitions_of
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
    if n < 0 or m < 0 or n + m <= 0:
        raise ValueError(f"need n + m > 0: ({n}, {m})")
    r = n + m
    values = []
    for k in range(1, r + 1):
        d = r // math.gcd(k, r)
        count = binom(r // d, m // d) if m % d == 0 else 0
        values.append(CycloElem.from_rational(r, count))
    return CyclicClassFunction(r, tuple(values))


def chi_cyc_oracle(n: int, m: int) -> CyclicClassFunction:
    """Same character by direct orbit counting: enumerate all m-subsets and
    count the ones fixed by each rotation."""
    if n < 0 or m < 0 or n + m <= 0:
        raise ValueError(f"need n + m > 0: ({n}, {m})")
    r = n + m
    if r > _CHI_CYC_ORACLE_MAX:
        raise ResourceLimitError(f"subset oracle capped at n + m <= {_CHI_CYC_ORACLE_MAX}")
    subsets = [frozenset(s) for s in combinations(range(r), m)]
    values = []
    for k in range(1, r + 1):
        fixed = sum(
            1 for s in subsets if frozenset((x + k) % r for x in s) == s
        )
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
    terms: dict[Partition, Fraction] = {}
    for d in divisors(r):
        inner = CycloElem.from_rational(r, 0)
        for k in range(1, r + 1):
            if math.gcd(k, r) == r // d:
                inner = inner + chi.at_power(k)
        if not inner.is_rational:
            raise ArithmeticError(
                f"root-of-unity sum failed to reduce to a rational: {inner}"
            )
        c = Fraction(inner.rational_value(), r)
        if c != 0:
            terms[(d,) * (r // d)] = c
    return SymFunc("p", terms)


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


def induce_oracle(chi: CyclicClassFunction) -> ClassFunctionSn:
    """Textbook induced character: for one representative sigma of each cycle
    type, chi_up(sigma) = (1/r) sum over x in S_r with x^-1 sigma x in C_r of
    chi(x^-1 sigma x).  Independent of the power-sum shortcut above."""
    r = chi.order
    if r > _INDUCE_ORACLE_MAX:
        raise ResourceLimitError(f"induction oracle capped at r <= {_INDUCE_ORACLE_MAX}")

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

    everyone = [(x, _inverse(x)) for x in permutations(range(r))]
    values: dict[Partition, Fraction] = {}
    for mu in partitions_of(r):
        sigma = representative(mu)
        acc = CycloElem.from_rational(r, 0)
        for x, xinv in everyone:
            conj = tuple(xinv[sigma[y]] for y in x)  # x^-1 sigma x
            k = power_of.get(conj)
            if k is not None:
                acc = acc + chi.at_power(k)
        if not acc.is_rational:
            raise ArithmeticError(f"induced character value not rational: {acc}")
        values[mu] = Fraction(acc.rational_value(), r)
    return ClassFunctionSn(r, values)


def super_klyachko_char(n: int, m: int) -> SymFunc:
    """Induced-character description of the (n, m) bidegree character: twist
    the subset-rotation character by the first root-of-unity power when m is
    odd, by the (m/2 + 1)-st when m is even, then induce up to S_{n+m}."""
    if n < 0 or m < 0 or (n, m) == (0, 0):
        raise ValueError(f"bidegree must be nonzero and nonnegative: ({n}, {m})")
    r = n + m
    exponent = 1 if m % 2 == 1 else m // 2 + 1
    twisted = pointwise_product(chi_cyc(n, m), chi_power(r, exponent))
    return induce_frobenius(twisted)
