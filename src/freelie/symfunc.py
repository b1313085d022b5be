"""Symmetric functions in one and two alphabets, over exact q,t-coefficients.

The internal canonical basis is the power sums: every formula this package
verifies is native to p, so the Schur basis s is a conversion layer on top.
Both containers are :class:`SymTerms`, a term map from index keys to
:class:`~freelie.exactalg.QTPoly` coefficients: a :class:`SymFunc` is a basis
tag plus partition keys; a :class:`BiSymFunc` indexes p_lambda(x) * p_mu(y)
monomials by pairs of partitions and is always read in the power-sum sense
(its ``basis`` is the class constant "p").  One set of public operations
serves both: :func:`multiply`, :func:`plethysm_p`, :func:`h_pleth`,
:func:`e_pleth` and :func:`expand_truncated` take either container.  The one
exception is :func:`bi_schur_expand`: no container holds an s-basis
expansion keyed by pairs of partitions, so it returns a plain dict.

Schur <-> power-sum conversion goes through the symmetric group character
table, one column {lambda: chi^lambda(mu)} per cycle type mu at a time.  A
column is one Murnaghan-Nakayama dynamic program over bead bitmasks (each
border strip is one bead move) and is memoized per mu in a module-level
table (the only shared mutable state here: a single-writer, multi-reader
table of integers with deterministic values).  It lives only as long as the
process; recomputing it is cheaper than reading it from disk.  A Schur
expansion is priced before any column is built (:func:`admit_schur`): p(d)
terms for each alphabet of degree d, against :data:`SCHUR_TERM_CEILING`.
The table imports nothing from the tableau side, so the Schur route of a
check stays independent of the signed-tableau route it is compared with.

The symbol p_d(-y) is never stored: it is normalized at construction via
p_d(-y) = (-1)^d p_d(y), so the two-alphabet term map stays a true basis.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from itertools import accumulate

from .exactalg import MultiPoly, QTPoly, RatLike, Record, ResourceLimitError, TermMap, collect, exact
from .partition import (
    Partition,
    check_partition,
    format_partition,
    partitions_of,
    z_lambda,
)

BASES = ("p", "s")


def _partition_sort_key(lam: Partition):
    # ascending degree, then reverse lexicographic within a degree
    return (sum(lam), tuple(-p for p in lam))


def _union_parts(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


class SymTerms(TermMap):
    """Sparse symmetric function: a term map from index keys (products of
    power sums) to nonzero QTPoly coefficients.

    Subclasses fix the key: ``_union`` multiplies two keys, ``_scaled`` is
    the key of p_d plethysm, ``_unit`` is the key of 1, ``_alphabets``
    splits a key into one partition per alphabet and ``_name`` renders a
    key.  A scalar scales; two values multiply only through :func:`multiply`.
    """

    __slots__ = ()
    _zero = QTPoly()

    def map_coefficients(self, fn: Callable[[QTPoly], QTPoly]) -> SymTerms:
        return self._with({k: v for k, c in self._terms.items() if (v := fn(c))})

    def _unite(self, other: SymTerms) -> SymTerms:
        """Product in the power-sum sense: keys multiply by ``_union``."""
        return self._product(other, self._union)

    def _pleth_p(self, d: int) -> SymTerms:
        """p_d plethysm: every part times d, coefficients q -> q^d, t -> t^d."""
        return self._with(
            {self._scaled(k, d): c.substitute_powers(d) for k, c in self._terms.items()}
        )


class SymFunc(SymTerms):
    """Basis-tagged sparse symmetric function with QTPoly coefficients.

    Terms need not share a degree; each index partition carries its own.
    Zero coefficients are never stored.
    """

    __slots__ = ("basis",)
    _layout = ("basis",)
    _sort_key = staticmethod(_partition_sort_key)
    _union = staticmethod(_union_parts)
    _unit: Partition = ()

    def __init__(self, basis: str, terms: Mapping[Partition, QTPoly | RatLike] | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
        self.basis = basis
        self._fill(terms, check_partition, QTPoly._coerce)

    @classmethod
    def one(cls, basis: str = "p") -> SymFunc:
        return cls(basis, {(): QTPoly.one()})

    @classmethod
    def term(cls, basis: str, lam, coeff: QTPoly | RatLike = 1) -> SymFunc:
        return cls(basis, {check_partition(lam): coeff})

    def _key(self, lam) -> Partition:
        return check_partition(lam)

    @staticmethod
    def _scaled(lam: Partition, d: int) -> Partition:
        return tuple(d * part for part in lam)

    @staticmethod
    def _alphabets(lam: Partition) -> tuple[Partition]:
        return (lam,)

    def _name(self, lam: Partition) -> str:
        return f"{self.basis}_{format_partition(lam)}" if lam else ""

    def degrees(self) -> list[int]:
        return sorted({sum(lam) for lam in self._terms})


def _check_pair(key) -> tuple[Partition, Partition]:
    lam, mu = key
    return (check_partition(lam), check_partition(mu))


class BiSymFunc(SymTerms):
    """Sparse two-alphabet function: finite map (lambda, mu) -> coefficient,
    indexing p_lambda(x) * p_mu(y)."""

    __slots__ = ()
    basis = "p"
    _sort_key = staticmethod(lambda key: (_partition_sort_key(key[0]), _partition_sort_key(key[1])))
    _union = staticmethod(lambda a, b: (_union_parts(a[0], b[0]), _union_parts(a[1], b[1])))
    _unit = ((), ())

    def __init__(self, terms: Mapping[tuple[Partition, Partition], QTPoly | RatLike] | None = None):
        self._fill(terms, _check_pair, QTPoly._coerce)

    @classmethod
    def one(cls) -> BiSymFunc:
        return cls({((), ()): QTPoly.one()})

    @classmethod
    def term(cls, lam, mu, coeff: QTPoly | RatLike = 1) -> BiSymFunc:
        return cls({(lam, mu): coeff})

    def _key(self, lam, mu) -> tuple[Partition, Partition]:
        return _check_pair((lam, mu))

    @staticmethod
    def _scaled(key: tuple[Partition, Partition], d: int) -> tuple[Partition, Partition]:
        return (SymFunc._scaled(key[0], d), SymFunc._scaled(key[1], d))

    @staticmethod
    def _alphabets(key: tuple[Partition, Partition]) -> tuple[Partition, Partition]:
        return key

    @staticmethod
    def _name(key: tuple[Partition, Partition]) -> str:
        """``[lambda|mu]`` for p_lambda(x) * p_mu(y), e.g. ``[(2,1)|()]``."""
        return f"[{format_partition(key[0])}|{format_partition(key[1])}]"


class ClassFunctionSn(Record):
    """A class function on the symmetric group: one rational value per cycle type."""

    __slots__ = ("n", "values")
    __hash__ = None  # it holds a dict

    def __init__(self, n: int, values: Mapping[Partition, RatLike]):
        vals = {check_partition(mu): exact(v) for mu, v in values.items()}
        expected = set(partitions_of(n))
        if set(vals) != expected:
            missing = sorted(expected - set(vals))
            raise ValueError(f"class function must cover all cycle types; missing {missing}")
        self.n = n
        self.values = vals


# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama)

# The most terms a Schur expansion may have: prod p(d) over the degrees d of
# its alphabets.  It admits degree 49 (p(49) = 173,525): `char lie 25 24`
# took 8-9 s at 225 MB as one process on a 2-vCPU Xeon host, and
# `char lie 25 25` (p(50) = 204,226) 12-13 s at 270 MB.
SCHUR_TERM_CEILING = 200_000


def _partition_counts(ceiling: int) -> tuple[int, ...]:
    """p(0), p(1), ... up to the first value above ``ceiling``, by Euler's
    pentagonal recurrence."""
    counts = [1]
    while counts[-1] <= ceiling:
        n, k, total = len(counts), 1, 0
        while (g := k * (3 * k - 1) // 2) <= n:
            sign = 1 if k % 2 else -1
            total += sign * (counts[n - g] + (counts[n - g - k] if g + k <= n else 0))
            k += 1
        counts.append(total)
    return tuple(counts)


_PARTITION_COUNTS = _partition_counts(SCHUR_TERM_CEILING)


def admit_schur(*degrees: int) -> None:
    """Refuse a Schur expansion in alphabets of these degrees whose term
    count, the product of p(d), is above :data:`SCHUR_TERM_CEILING`.  Every
    degree past the counts held is above it, so pricing a huge degree costs
    nothing."""
    counts = _PARTITION_COUNTS
    terms = 1
    for d in degrees:
        terms *= counts[min(d, len(counts) - 1)]
    if terms > SCHUR_TERM_CEILING:
        shown = f"degree {degrees[0]}" if len(degrees) == 1 else f"degrees {degrees}"
        raise ResourceLimitError(
            f"a Schur expansion in {shown} has more than"
            f" {SCHUR_TERM_CEILING} terms (the ceiling)"
        )


# cycle type mu -> its column {lambda: chi^lambda(mu)}, the nonzero entries only
_character_cache: dict[Partition, dict[Partition, int]] = {}


def mn_character(lam, mu) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu (|lam| = |mu|),
    read from the column of mu (see :func:`_column`), memoized per mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"sizes differ: |{lam}| != |{mu}|")
    return _column(mu).get(lam, 0)


def _column(mu: Partition) -> dict[Partition, int]:
    """The nonzero chi^lambda(mu) over lambda |- |mu|, in the canonical order,
    by the Murnaghan-Nakayama rule on beads (James-Kerber, 2.7).

    A state is a bitmask of n = |mu| beads, the beta-set of a partition; the
    empty partition is beads 0..n-1.  Adding a border strip of size k moves
    one bead b up to an empty b + k, with the sign of the number of beads
    strictly between.  One layer per part of mu, smallest first (the fewest
    states early), sums the signed paths from the empty partition."""
    column = _character_cache.get(mu)
    if column is not None:
        return column
    n = sum(mu)
    admit_schur(n)
    layer = {(1 << n) - 1: 1}
    for k in reversed(mu):
        moved: dict[int, int] = {}
        get = moved.get
        for mask, chi in layer.items():
            free = mask & ~(mask >> k)  # the beads b whose b + k is empty
            while free:
                low = free & -free
                free ^= low
                top = low << k
                key = mask ^ low ^ top
                if (mask & (top - (low << 1))).bit_count() & 1:
                    moved[key] = get(key, 0) - chi
                else:
                    moved[key] = get(key, 0) + chi
        layer = {mask: chi for mask, chi in moved.items() if chi}
    # with n beads, masks compare as their partitions do, top bead first
    column = _character_cache[mu] = {
        _beads_to_partition(mask): layer[mask] for mask in sorted(layer, reverse=True)
    }
    return column


def _beads_to_partition(mask: int) -> Partition:
    """The partition whose beta-set is the set bits of mask: each bead's part
    is the number of empty slots below it."""
    mask >>= (~mask & (mask + 1)).bit_length() - 1  # beads with no gap below
    if not mask:
        return ()
    # runs[i]: the empty slots between bead i and the next bead down, top
    # bead first, so bead i's part is the sum of runs[i:]
    runs = bin(mask)[3:].split("1")
    return tuple(accumulate(map(len, reversed(runs))))[::-1]


def clear_character_cache() -> None:
    _character_cache.clear()


def _character_transform(terms: Mapping[tuple[Partition, ...], QTPoly]) -> dict:
    """Replace every power sum by its Schur expansion, one alphabet at a time.

    ``terms`` maps tuples (mu_1, ..., mu_k) of canonical partitions to the
    coefficient of p_{mu_1}(x_1) ... p_{mu_k}(x_k); the result maps tuples
    (lambda_1, ..., lambda_k) to the nonzero coefficients of
    s_{lambda_1}(x_1) ... s_{lambda_k}(x_k), using
    p_mu = sum over lambda of chi^lambda(mu) s_lambda.  Coefficients are
    cleared to integer numerators over one common denominator, and slot j
    is replaced only after the terms that agree on slots up to j have merged.
    """
    den = math.lcm(*(c.denominator for poly in terms.values() for c in poly.terms.values()))
    # one integer numerator per (q,t exponent, mu_1, ..., mu_k)
    layer = {
        (e, *key): c.numerator * (den // c.denominator)
        for key, poly in terms.items()
        for e, c in poly.terms.items()
    }
    width = len(next(iter(terms), ()))  # alphabets per key
    for slot in range(1, width + 1):
        merged: dict = {}
        for key, v in layer.items():
            head, tail = key[:slot], key[slot + 1 :]
            for lam, chi in _column(key[slot]).items():
                k = head + (lam,) + tail
                merged[k] = merged.get(k, 0) + chi * v
        layer = {key: v for key, v in merged.items() if v}
    coeffs: dict = {}
    for key, v in layer.items():
        coeffs.setdefault(key[1:], {})[key[0]] = Fraction(v, den)
    zero = QTPoly()
    return {key: zero._with(poly) for key, poly in coeffs.items()}


# ---------------------------------------------------------------------------
# basis conversions


def to_p(f: SymTerms) -> SymTerms:
    """Convert to the power-sum basis: s_lambda = sum over mu of
    chi^lambda(mu) / z_mu * p_mu.  A :class:`BiSymFunc` is already there."""
    if f.basis == "p":
        return f
    return f._with(
        collect(
            (mu, c * Fraction(chi, z_lambda(mu)))
            for lam, c in f.terms.items()
            for mu in partitions_of(sum(lam))
            if (chi := _column(mu).get(lam))
        ),
        basis="p",
    )


# ---------------------------------------------------------------------------
# ring structure, Frobenius characteristic, plethysm


def multiply(f: SymTerms, g: SymTerms) -> SymTerms:
    """Product in the p basis: p_lambda p_mu = p_{lambda union mu}, bilinearly,
    in each alphabet.  Other bases are converted first."""
    return to_p(f)._unite(to_p(g))


def frobenius_characteristic(chi: ClassFunctionSn) -> SymFunc:
    """sum over cycle types mu of chi(mu)/z_mu * p_mu."""
    return SymFunc(
        "p", {mu: Fraction(v, 1) / z_lambda(mu) for mu, v in chi.values.items()}
    )


def plethysm_p(d: int, f: SymTerms) -> SymTerms:
    """Plethysm by p_d: each p_k becomes p_{dk}, in every alphabet, and
    coefficients map q -> q^d, t -> t^d (the standard lambda-ring convention
    on q,t)."""
    if d < 1:
        raise ValueError(f"plethysm_p requires d >= 1, got {d}")
    if f.basis != "p":
        raise ValueError(f"plethysm_p expects the p basis, got {f.basis}")
    return f._pleth_p(d)


def _pleth_sum(a: int, f: SymTerms, signed: bool) -> SymTerms:
    """h_a[f] = sum over mu |- a of z_mu^{-1} prod_j p_{mu_j}[f]; with
    ``signed`` each term also gets (-1)^(a - length(mu)), giving e_a[f]."""
    if a < 0:
        raise ValueError(f"plethysm degree must be >= 0, got {a}")
    out = f._with({})
    for mu in partitions_of(a):
        piece = f._with({f._unit: QTPoly.one()})
        for part in mu:
            piece = piece._unite(f._pleth_p(part))
        sign = (-1) ** (a - len(mu)) if signed else 1
        out = out + piece.scale(Fraction(sign, z_lambda(mu)))
    return out


def h_pleth(a: int, f: SymTerms) -> SymTerms:
    """h_a[f] = sum over mu |- a of z_mu^{-1} prod_j p_{mu_j}[f]."""
    return _pleth_sum(a, to_p(f), signed=False)


def e_pleth(a: int, f: SymTerms) -> SymTerms:
    """e_a[f], like h_a[f] but with the sign (-1)^(a - length(mu))."""
    return _pleth_sum(a, to_p(f), signed=True)


# ---------------------------------------------------------------------------
# expansion into finitely many variables


def _power_sum_poly(k: int, N: int, M: int, offset: int, count: int) -> MultiPoly:
    """p_k of the ``count`` variables from ``offset`` on, in N + M variables."""
    terms: dict[tuple[int, ...], int] = {}
    for i in range(offset, offset + count):
        exp = [0] * (N + M)
        exp[i] = k
        terms[tuple(exp)] = 1
    return MultiPoly(N, M, terms)


def expand_truncated(f: SymTerms, N: int, M: int = 0) -> MultiPoly:
    """Substitute p_k(x) -> x_1^k + ... + x_N^k and, for a :class:`BiSymFunc`,
    p_k(y) -> y_1^k + ... + y_M^k (finite-variable specialization).

    The result lives in the (N, M)-variable layout, so a one-alphabet
    expansion can be combined with two-alphabet ones; by default M = 0.
    Coefficients must be rational constants (no free q or t).
    """
    out = MultiPoly(N, M)
    for key, coeff in to_p(f).terms.items():
        piece = MultiPoly.const(N, M, coeff.constant_value())
        for (offset, count), parts in zip(((0, N), (N, M)), f._alphabets(key)):
            for part in parts:
                piece = piece * _power_sum_poly(part, N, M, offset, count)
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# Schur expansion


def schur_expand(f: SymFunc) -> SymFunc:
    """The Schur expansion of f, from either basis, via the character table;
    the inverse of :func:`to_p`."""
    s_terms = _character_transform({(mu,): c for mu, c in to_p(f).terms.items()})
    return f._with({lam: c for (lam,), c in s_terms.items()}, basis="s")


def first_bad_multiplicity(f: SymFunc) -> Partition | None:
    """The first partition, in the canonical order, whose coefficient is not a
    polynomial in q, t with nonnegative integer coefficients, or None.  A
    character's Schur expansion has none; one found flags a bug or a
    non-character input, it is not an error by itself."""
    for lam, coeff in f.items():
        if any(c.denominator != 1 or c < 0 for _, c in coeff.items()):
            return lam
    return None


# ---------------------------------------------------------------------------
# two-alphabet functions


def diagonal(f: BiSymFunc) -> SymFunc:
    """Set the second alphabet equal to the first:
    p_lambda(x) p_mu(y) -> p_{lambda union mu}(x)."""
    return SymFunc("p")._with(
        collect((_union_parts(lam, mu), c) for (lam, mu), c in f.terms.items())
    )


def bi_schur_expand(f: BiSymFunc) -> dict[tuple[Partition, Partition], QTPoly]:
    """Expansion in products s_alpha(x) s_beta(y), via the character table on
    each alphabet in turn.  The one two-alphabet-only operation: its result,
    an s-basis expansion keyed by pairs, has no container."""
    return _character_transform(f.terms)


# ---------------------------------------------------------------------------
# JSON serialization


def sym_to_json(f: SymFunc) -> dict:
    if not isinstance(f, SymFunc):
        raise TypeError(f"sym_to_json takes a SymFunc, got {type(f).__name__}")
    return {
        "basis": f.basis,
        "terms": [
            {"partition": list(lam), "coeff": coeff.to_json()} for lam, coeff in f.items()
        ],
    }

