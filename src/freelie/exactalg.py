"""Exact arithmetic substrate for all character computations.

Everything is exact and no floating point appears anywhere in the package:
coefficients are ``int`` or ``fractions.Fraction``, and a ``float`` is
refused.  Integer input stays ``int`` through the term maps, their products
and the cyclotomic reduction, and the row reduction takes ``int`` only.  This
module provides

* :class:`TermMap`, the one sparse key -> coefficient container, with the
  accumulate-and-drop-zero loop :func:`collect` and the term renderer
  :func:`render_terms`; every polynomial, series, cyclotomic element and
  symmetric function in the package is a thin subclass of it,
* sparse two-variable polynomials in q and t (:class:`QTPoly`),
* products of dense coefficient lists (constant term first) and
  subtract-only division by monic integer polynomials,
* cyclotomic polynomials and the quotient rings Q[q]/(Phi_d(q))
  (:class:`CycloElem`, a term map over the reduced exponents), used for
  exact root-of-unity sums,
* polynomials in finitely many variables of two alphabets (:class:`MultiPoly`),
* the q-Pochhammer symbol (q;q)_n, division-free q-Pochhammer quotients and
  number-theoretic helpers,
* incremental fraction-free sparse elimination of integer vectors (rank
  over Q).

All values are immutable after construction and all operations are pure, so
they are safe to share between concurrent execution contexts.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

RatLike = int | Fraction


class ResourceLimitError(Exception):
    """An enumeration or cap-limited operation was asked to exceed its budget."""


class Record:
    """A small record: equality, hash and repr read ``__slots__`` in order.

    Each subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__``; a mutable record sets ``__hash__ = None``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ExactDivisionError(ArithmeticError):
    """A division that is guaranteed exact left a nonzero remainder.

    Raising this signals an implementation bug, not bad input.
    """


# ---------------------------------------------------------------------------
# number-theoretic helpers


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(d: int) -> int:
    """Moebius function: 0 on non-squarefree d, else (-1)^(number of prime factors)."""
    if d < 1:
        raise ValueError(f"mobius requires d >= 1, got {d}")
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    if d > 1:
        result = -result
    return result


def binom(a: int, b: int) -> int:
    """Binomial coefficient, 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def euler_phi(d: int) -> int:
    """Euler totient of d >= 1."""
    if d < 1:
        raise ValueError(f"euler_phi requires d >= 1, got {d}")
    result = d
    p = 2
    n = d
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


# ---------------------------------------------------------------------------
# dense univariate polynomials: coefficient lists, constant term first


def monic_divmod(num: Sequence[RatLike], den: Sequence[int]) -> tuple[list, list]:
    """Divide by a monic integer polynomial, constant terms first, by
    subtraction alone; returns (quotient, remainder) as lists, the remainder
    of length at most deg(den).  No division happens, so integer input gives
    integer output."""
    dd = len(den) - 1
    if dd < 0 or den[-1] != 1:
        raise ValueError(f"divisor must be monic: {tuple(den)}")
    rem = list(num)
    quot = [0] * max(len(rem) - dd, 0)
    low = den[:-1]
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            base = i - dd
            quot[base] = c
            for j, cd in enumerate(low):
                if cd:
                    rem[base + j] -= c * cd
    return quot, rem[:dd]


def _poly_mul(a: Sequence[RatLike], b: Sequence[RatLike]) -> list:
    """Product of two dense coefficient lists; ``int`` input gives ``int``
    output."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial Phi_d(q), with integer coefficients.

    Computed by dividing q^d - 1 by the monic product of all Phi_e with
    e | d, e < d; a nonzero remainder raises ExactDivisionError.
    """
    if d < 1:
        raise ValueError(f"cyclotomic_poly requires d >= 1, got {d}")
    den = [1]
    for e in divisors(d):
        if e < d:
            den = _poly_mul(den, cyclotomic_poly(e))
    quot, rem = monic_divmod([-1] + [0] * (d - 1) + [1], den)
    if any(rem):
        raise ExactDivisionError(f"q^{d} - 1 left remainder {rem}")
    return tuple(quot)


def q_pochhammer_quotient(n: int, ks: Iterable[int]) -> list[int]:
    """(q;q)_n / prod_k (1 - q^k) as integer coefficients, constant term
    first, computed without division.

    1 - q^k = -prod_{d | k} Phi_d(q), so the quotient is
    (-1)^(n - #ks) prod_{d >= 1} Phi_d^(floor(n/d) - #{k : d | k}).  A
    negative exponent means the quotient is no polynomial and raises
    ExactDivisionError.
    """
    exponents = {d: n // d for d in range(1, n + 1)}
    count = 0
    for k in ks:
        count += 1
        for d in divisors(k):
            exponents[d] = exponents.get(d, 0) - 1
    out = [-1 if (n - count) % 2 else 1]
    for d, e in sorted(exponents.items()):
        if e < 0:
            raise ExactDivisionError(
                f"(q;q)_{n} / prod (1 - q^k) is not a polynomial: Phi_{d} has exponent {e}"
            )
        for _ in range(e):
            out = _poly_mul(out, cyclotomic_poly(d))
    return out


# ---------------------------------------------------------------------------
# sparse term maps


def exact(c) -> RatLike:
    """A coefficient as an exact number: an ``int`` or a ``Fraction`` stays
    as it is, a ``float`` raises TypeError (its binary value is rarely the
    number meant), and anything else goes through ``Fraction()``."""
    if type(c) in (int, Fraction):
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficients must be exact, got the float {c!r}")
    return Fraction(c)


def collect(pairs: Iterable[tuple[Hashable, object]], start: Mapping | None = None) -> dict:
    """Sum the coefficients of (key, coefficient) pairs by key, on top of the
    terms of ``start``, and drop every key whose sum is zero."""
    out = dict(start) if start else {}
    get = out.get
    for k, c in pairs:
        s = get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def render_terms(pairs: Iterable[tuple[str, object]]) -> str:
    """Render (monomial name, coefficient) pairs as a signed sum; "0" if empty.

    An empty name is the unit monomial.  A coefficient of 1 is left implicit,
    and so is a rational -1.  A q,t-polynomial coefficient is written as its
    value when it is constant and in parentheses otherwise.
    """
    parts = []
    for name, c in pairs:
        poly = isinstance(c, QTPoly)
        if poly:
            text = str(c.constant_value()) if c.is_constant else f"({c})"
        else:
            text = str(c)
        if not name:
            parts.append(text)
        elif c == 1:
            parts.append(name)
        elif c == -1 and not poly:
            parts.append("-" + name)
        else:
            parts.append(f"{text}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _monomial_name(names: Iterable[str], exponents: Iterable[int]) -> str:
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e
    )


class TermMap:
    """Immutable sparse map from keys to nonzero coefficients, the one
    container behind every exact polynomial, series and symmetric function.

    Zero coefficients are never stored, so equality of the term dicts is
    equality of the values.  Coefficients are exact (:func:`exact`): an
    ``int`` stays ``int``, so products of integer values never touch
    ``fractions``.  ``_layout`` names the attributes that two values
    must share to be added, multiplied or equal (a variable layout, a
    truncation cap, a basis); any other slot of a subclass is carried along.
    Public constructors validate outside input through :meth:`_fill`; results
    of ring operations are canonical already and are built by :meth:`_with`
    without re-validation.  A value is false exactly when it is zero; ``*``
    by a scalar scales, by a value calls :meth:`_times`; ``str`` renders the
    terms through the subclass's ``_name`` of a key.
    """

    __slots__ = ("_terms",)
    _layout: tuple[str, ...] = ()
    _zero: object = Fraction(0)
    _sort_key = None  # order of items() by key; None is the natural order
    _combine = None  # key of the product of two keys; None: no product

    def _fill(self, terms: Mapping | None, key, coeff=exact) -> None:
        """Set the terms from outside input: ``key`` validates and normalizes
        a key (None drops the term), ``coeff`` converts a coefficient."""
        canon = {}
        for k, c in (terms or {}).items():
            k = key(k)
            if k is not None:
                c = coeff(c)
                if c:
                    canon[k] = c
        self._terms = canon

    def _with(self, terms: dict, **changes) -> TermMap:
        """A value laid out like self, except for ``changes``, holding
        ``terms``, which must already be canonical."""
        out = object.__new__(type(self))
        for name in type(self).__slots__:
            setattr(out, name, changes[name] if name in changes else getattr(self, name))
        out._terms = terms
        return out

    def _check(self, other: TermMap) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        for name in self._layout:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(f"{name} mismatch: {mine} vs {theirs}")

    def _coerce(self, other):
        """Turn a scalar operand into a value; subclasses that allow it override."""
        return other

    def _key(self, *key):
        """The stored key for the arguments of :meth:`coefficient`."""
        return key

    # -- inspection

    @property
    def terms(self) -> dict:
        """The term map itself, unordered; read-only by convention."""
        return self._terms

    def items(self) -> list:
        """Terms in the canonical order of the container."""
        if self._sort_key is None:
            return sorted(self._terms.items())
        order = self._sort_key
        return sorted(self._terms.items(), key=lambda kv: order(kv[0]))

    def coefficient(self, *key):
        return self._terms.get(self._key(*key), self._zero)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._layout
        ) and self._terms == other._terms

    def __hash__(self) -> int:
        layout = tuple(getattr(self, name) for name in self._layout)
        return hash((layout, frozenset(self._terms.items())))

    def first_difference(self, other: TermMap):
        """The first key, in the canonical order, whose coefficients differ
        between the two values, or None if their terms agree."""
        keys = set(self._terms) | set(other._terms)
        for k in sorted(keys, key=self._sort_key):
            if self._terms.get(k) != other._terms.get(k):
                return k
        return None

    # -- linear structure and products

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self._with(collect(other._terms.items(), self._terms))

    __radd__ = __add__

    def __neg__(self):
        return self._with({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times(other)

    __rmul__ = __mul__

    def _times(self, other):
        """The term-by-term product through ``_combine``, if there is one."""
        if self._combine is None:
            return NotImplemented
        return self._product(other, self._combine)

    def scale(self, factor):
        """Multiply every coefficient by ``factor``."""
        if not factor:
            return self._with({})
        return self._with({k: c * factor for k, c in self._terms.items()})

    def _product(self, other, combine, keep=None, **changes):
        """Bilinear product: the terms at keys k1 and k2 multiply into key
        combine(k1, k2); keys failing ``keep`` are dropped before multiplying."""
        self._check(other)
        right = other._terms.items()
        return self._with(
            collect(
                (k, c1 * c2)
                for k1, c1 in self._terms.items()
                for k2, c2 in right
                for k in [combine(k1, k2)]
                if keep is None or keep(k)
            ),
            **changes,
        )

    # -- rendering

    def __str__(self) -> str:
        return render_terms((self._name(k), c) for k, c in self.items())

    def __repr__(self) -> str:
        layout = ",".join(str(getattr(self, name)) for name in self._layout)
        name = type(self).__name__ + (f"[{layout}]" if layout else "")
        return f"{name}({self})"


# ---------------------------------------------------------------------------
# sparse q,t-polynomials


def add_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] + b[0], a[1] + b[1])


def _qt_key(key) -> tuple[int, int]:
    a, b = map(operator.index, key)
    if a < 0 or b < 0:
        raise ValueError(f"negative exponent pair ({a}, {b})")
    return (a, b)


class QTPoly(TermMap):
    """Sparse polynomial in q and t with exact rational coefficients.

    Terms map exponent pairs (a, b) >= (0, 0), meaning q^a * t^b, to nonzero
    ``int`` or ``Fraction`` coefficients.  Items come by total degree, then
    q, then t exponent.
    """

    __slots__ = ()
    _sort_key = staticmethod(lambda k: (k[0] + k[1], k))
    _combine = staticmethod(add_pairs)
    _name = staticmethod(lambda k: _monomial_name("qt", k))

    def __init__(self, terms: Mapping[tuple[int, int], RatLike] | None = None):
        self._fill(terms, _qt_key)

    def _coerce(self, other: QTPoly | RatLike) -> QTPoly:
        return other if isinstance(other, QTPoly) else QTPoly.const(other)

    # -- constructors

    @classmethod
    def one(cls) -> QTPoly:
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: RatLike) -> QTPoly:
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, c: RatLike = 1) -> QTPoly:
        return cls({(a, b): c})

    @classmethod
    def q(cls) -> QTPoly:
        return cls({(1, 0): 1})

    @classmethod
    def t(cls) -> QTPoly:
        return cls({(0, 1): 1})

    # -- inspection

    @property
    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises if q or t actually occurs."""
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0), Fraction(0))

    def q_degree(self) -> int:
        return max((a for a, _ in self._terms), default=0)

    def t_degree(self) -> int:
        return max((b for _, b in self._terms), default=0)

    # -- comparison

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._terms == ({(0, 0): other} if other else {})
        return TermMap.__eq__(self, other)

    __hash__ = TermMap.__hash__

    # -- structural operations

    def substitute_powers(self, d: int) -> QTPoly:
        """q -> q^d, t -> t^d (the coefficient action of degree-d plethysm)."""
        if d < 1:
            raise ValueError(f"substitute_powers requires d >= 1, got {d}")
        return self._with({(a * d, b * d): c for (a, b), c in self._terms.items()})

    def filter_q_residue(self, r: int, s: int) -> QTPoly:
        """Keep only the monomials whose q-exponent is congruent to s mod r."""
        if r < 1:
            raise ValueError(f"modulus must be >= 1, got {r}")
        s %= r
        return self._with({k: c for k, c in self._terms.items() if k[0] % r == s})

    def eval_q_one(self) -> QTPoly:
        """Set q = 1, leaving a polynomial in t only."""
        return self._with(collect(((0, b), c) for (_, b), c in self._terms.items()))

    # -- rendering

    def to_json(self) -> list[list]:
        """Canonical JSON form: [[a, b, "num/den"], ...] in term order."""
        return [[a, b, str(c)] for (a, b), c in self.items()]

# ---------------------------------------------------------------------------
# q-series primitives


def q_pochhammer(n: int) -> QTPoly:
    """(q;q)_n = (1 - q)(1 - q^2) ... (1 - q^n)."""
    if n < 0:
        raise ValueError(f"q_pochhammer requires n >= 0, got {n}")
    return QTPoly({(a, 0): c for a, c in enumerate(q_pochhammer_quotient(n, ()))})


# ---------------------------------------------------------------------------
# cyclotomic quotient rings


class CycloElem(TermMap):
    """Element of Q[q]/(Phi_d(q)): exact arithmetic with d-th roots of unity.

    Terms map an exponent a, 0 <= a < phi(d), to its coefficient in the
    reduced representative.  Uniqueness of the reduced form means an element
    equals a rational constant exactly when no exponent above 0 occurs.
    """

    __slots__ = ("modulus",)
    _layout = ("modulus",)
    _zero = 0
    _name = staticmethod(lambda a: _monomial_name("w", [a]))

    def __init__(self, modulus: int, terms: Mapping[int, RatLike] | None = None):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        self.modulus = modulus
        self._fill(terms, self._key)

    def _key(self, a: int) -> int:
        if not 0 <= a < euler_phi(self.modulus):
            raise ValueError(f"representative not reduced: q^{a} modulo Phi_{self.modulus}")
        return a

    @classmethod
    def from_rational(cls, d: int, value: RatLike) -> CycloElem:
        return cyclo_reduce([value], d)

    @classmethod
    def root_power(cls, d: int, k: int) -> CycloElem:
        """omega_d^k for the chosen primitive d-th root omega_d (the class of q)."""
        return cyclo_reduce([0] * (k % d) + [1], d)

    def _dense(self) -> list:
        out = [0] * (max(self._terms, default=-1) + 1)
        for a, c in self._terms.items():
            out[a] = c
        return out

    def _times(self, other: CycloElem) -> CycloElem:
        self._check(other)
        return cyclo_reduce(_poly_mul(self._dense(), other._dense()), self.modulus)

    @property
    def is_rational(self) -> bool:
        return set(self._terms) <= {0}

    def rational_value(self) -> RatLike:
        """The value of a degree-0 element; raises if the root genuinely occurs."""
        if not self.is_rational:
            raise ValueError(f"not a rational element: {self}")
        return self._terms.get(0, 0)


def cyclo_reduce(p: Iterable[RatLike], d: int) -> CycloElem:
    """Reduce a dense q-polynomial, constant term first, modulo Phi_d(q),
    i.e. evaluate it at omega_d.

    Phi_d is monic, so the reduction only subtracts multiples of it and the
    coefficients keep their exact type; a ``float`` raises TypeError.  The
    remainder is reduced by construction and becomes the terms unchecked."""
    zero = CycloElem(d)
    _, rem = monic_divmod([exact(c) for c in p], cyclotomic_poly(d))
    return zero._with({a: c for a, c in enumerate(rem) if c})


# ---------------------------------------------------------------------------
# truncated multivariate polynomials over two alphabets


def _add_vectors(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


class MultiPoly(TermMap):
    """Sparse polynomial in x_1..x_N and y_1..y_M with rational coefficients.

    Exponent vectors have length N + M (x-block first).
    """

    __slots__ = ("nx", "ny")
    _layout = ("nx", "ny")
    _combine = staticmethod(_add_vectors)

    def __init__(
        self, nx: int, ny: int = 0, terms: Mapping[tuple[int, ...], RatLike] | None = None
    ):
        if nx < 0 or ny < 0:
            raise ValueError("variable counts must be >= 0")
        self.nx = nx
        self.ny = ny
        self._fill(terms, self._exponent_key)

    def _exponent_key(self, exp) -> tuple[int, ...]:
        exp = tuple(map(operator.index, exp))
        if len(exp) != self.nx + self.ny:
            raise ValueError(f"exponent vector length {len(exp)} != {self.nx + self.ny}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        return exp

    def _key(self, exp):
        return tuple(exp)

    @classmethod
    def const(cls, nx: int, ny: int, c: RatLike) -> MultiPoly:
        return cls(nx, ny, {(0,) * (nx + ny): c})

    @classmethod
    def monomial(cls, nx: int, ny: int, exp: tuple[int, ...], c: RatLike = 1) -> MultiPoly:
        return cls(nx, ny, {exp: c})

    def eval_all_ones(self) -> Fraction:
        """Value with every variable set to 1 (the sum of all coefficients)."""
        return sum(self._terms.values(), Fraction(0))

    def _name(self, exp: tuple[int, ...]) -> str:
        names = [f"x{i + 1}" for i in range(self.nx)] + [f"y{i + 1}" for i in range(self.ny)]
        return _monomial_name(names, exp)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


class SparseEchelon:
    """Incremental fraction-free row reduction of sparse integer vectors;
    tracks the rank over Q.

    Vectors are dicts column-index -> int.  Elimination is fraction-free
    (after Bareiss, 1968): a vector is reduced by integer combinations
    a * row - b * basis_row with a != 0, each invertible over Q, and a new
    basis row is made primitive by dividing it by the gcd of its entries.
    Single-context use only.
    """

    def __init__(self):
        self._pivots: dict[object, dict] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vector: Mapping) -> bool:
        """Reduce a vector against the basis; returns True if the rank grew.
        Raises TypeError on a coefficient that is not an int."""
        row = {}
        for k, v in vector.items():
            if not isinstance(v, int):
                raise TypeError(f"echelon coefficients must be int, got {v!r}")
            if v:
                row[k] = v
        while row:
            pivot = min(row)
            basis_row = self._pivots.get(pivot)
            if basis_row is None:
                g = math.gcd(*row.values())
                if row[pivot] < 0:
                    g = -g
                self._pivots[pivot] = {k: v // g for k, v in row.items()}
                return True
            a, b = basis_row[pivot], row[pivot]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in basis_row.items():
                s = row.get(k, 0) - b * v
                if s:
                    row[k] = s
                else:
                    del row[k]
        return False

