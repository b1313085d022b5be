"""Standard and super standard Young tableaux and their statistics.

A super tableau is stored as a plain standard tableau (its projection to
unbarred entries) together with the set of barred entries; the filling over
the signed alphabet is equivalent data.  The (statistic, bar count)
generating polynomials are computed by a forward DP over the shapes inside a
bounding shape, never by listing the signed tableaux: one DP yields every
shape of n inside the bound, so a single shape is the DP bounded by itself,
and every shape of n at once is the DP bounded by (n, n//2, n//3, ...).
Standard tableaux are walked once, as their row words, for the tableaux
themselves and for their descent sets.

Descent conventions are fixed to English notation, longest row on top:
i is a descent of T when i+1 sits in a strictly lower row than i.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations, compress

from .exactalg import QTPoly, Record, ResourceLimitError
from .partition import Partition, cells, check_partition, hook_length

# The signed-tableau DP refuses, before it starts, a shape whose bound on
# table-entry updates exceeds this many, rather than hanging; an update costs
# a few tenths of a microsecond.  The DP of every shape of n at once is
# admitted exactly when each of its shapes would be alone, so it does at most
# p(n) times this much work.  Every shape with n <= 18 is admitted, and so is
# every all-shapes call with n <= 18.
DEFAULT_PAIR_BUDGET = 20_000_000


class StandardTableau:
    """Bijective filling of a partition shape by 1..n, rows and columns
    strictly increasing."""

    __slots__ = ("rows", "shape", "_row_of")

    def __init__(self, rows):
        self.rows = tuple(tuple(map(operator.index, row)) for row in rows)
        self.shape = check_partition(len(row) for row in self.rows)
        n = sum(self.shape)
        seen = sorted(e for row in self.rows for e in row)
        if seen != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}: {self.rows}")
        for row in self.rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"rows must strictly increase: {self.rows}")
        for r in range(len(self.rows) - 1):
            lower = self.rows[r + 1]
            for c in range(len(lower)):
                if self.rows[r][c] >= lower[c]:
                    raise ValueError(f"columns must strictly increase: {self.rows}")
        self._row_of = {e: r for r, row in enumerate(self.rows, start=1) for e in row}

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...], shape: Partition) -> StandardTableau:
        """A tableau from rows already known to be standard of the given shape."""
        t = object.__new__(cls)
        t.rows = rows
        t.shape = shape
        t._row_of = {e: r for r, row in enumerate(rows, start=1) for e in row}
        return t

    @property
    def n(self) -> int:
        return sum(self.shape)

    def row_of(self, entry: int) -> int:
        return self._row_of[entry]

    def __eq__(self, other) -> bool:
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def render(self) -> str:
        return "/".join(",".join(str(e) for e in row) for row in self.rows)

    @classmethod
    def parse(cls, text: str) -> StandardTableau:
        rows = [
            [int(tok) for tok in row.split(",") if tok.strip()]
            for row in text.strip().split("/")
        ]
        return cls(rows)

    def __repr__(self) -> str:
        return f"StandardTableau({self.render()!r})"


class SuperTableau(Record):
    """A standard tableau plus the set of entries carrying a bar."""

    __slots__ = ("plus_part", "neg")

    def __init__(self, plus_part: StandardTableau, neg: frozenset[int]):
        n = plus_part.n
        neg = frozenset(map(operator.index, neg))
        if any(i < 1 or i > n for i in neg):
            raise ValueError(f"negated entries must lie in 1..{n}: {sorted(neg)}")
        self.plus_part = plus_part
        self.neg = neg

    def render(self) -> str:
        return "/".join(
            ",".join(("-" if e in self.neg else "") + str(e) for e in row)
            for row in self.plus_part.rows
        )

    @classmethod
    def parse(cls, text: str) -> SuperTableau:
        rows, neg = [], set()
        for chunk in text.strip().split("/"):
            row = []
            for tok in chunk.split(","):
                tok = tok.strip()
                if not tok:
                    continue
                value = int(tok)
                if value < 0:
                    neg.add(-value)
                    row.append(-value)
                else:
                    row.append(value)
            rows.append(row)
        return cls(StandardTableau(rows), frozenset(neg))


def syt_count(lam: Partition) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    lam = check_partition(lam)
    n = sum(lam)
    denom = 1
    for r, c in cells(lam):
        denom *= hook_length(lam, r, c)
    count, rem = divmod(math.factorial(n), denom)
    if rem:
        raise ArithmeticError(f"hook product does not divide {n}! for {lam}")
    return count


def syt_row_words(lam: Partition):
    """The row (0 for the top row) of each entry 1..n, for every standard
    tableau of the shape (its Yamanouchi word), in a fixed depth-first order:
    entries placed 1..n, candidate rows scanned top to bottom."""
    lam = check_partition(lam)
    n, depth = sum(lam), len(lam)
    fill = [0] * depth
    word = [0] * n
    i = r = 0  # the next entry to place, less one, and the next row to try
    while True:
        if i == n:
            yield tuple(word)
            r = depth
        while r < depth and (fill[r] == lam[r] or (r and fill[r - 1] == fill[r])):
            r += 1
        if r < depth:
            word[i] = r
            fill[r] += 1
            i, r = i + 1, 0
        elif i:
            i -= 1
            r = word[i]
            fill[r] -= 1
            r += 1
        else:
            return


def syt_enumerate(lam: Partition) -> list[StandardTableau]:
    """All standard tableaux of the shape, in the order of :func:`syt_row_words`."""
    lam = check_partition(lam)
    out = []
    for word in syt_row_words(lam):
        rows: list[list[int]] = [[] for _ in lam]
        for entry, r in enumerate(word, 1):
            rows[r].append(entry)
        out.append(StandardTableau._unchecked(tuple(map(tuple, rows)), lam))
    return out


def syt_descent_sets(lam: Partition):
    """The descent set of every standard tableau of the shape, in the order
    of :func:`syt_row_words`, read off the row word: i is a descent when
    i+1 sits in a strictly lower row than i."""
    n = sum(check_partition(lam))
    for word in syt_row_words(lam):
        yield frozenset(compress(range(1, n), map(operator.gt, word[1:], word)))


def descent_set(t: StandardTableau) -> frozenset[int]:
    """{ i in [n-1] : i+1 appears in a strictly lower row than i }."""
    return frozenset(
        i for i in range(1, t.n) if t.row_of(i + 1) > t.row_of(i)
    )


def maj(t: StandardTableau) -> int:
    return sum(descent_set(t))


def comaj(t: StandardTableau) -> int:
    n = t.n
    return sum(n - i for i in descent_set(t))


def super_descent_set(st: SuperTableau) -> frozenset[int]:
    """Super descents, straight from the signed filling: i is a descent when
    either i+1 is unbarred and sits strictly lower than i, or i is barred and
    i+1 does not sit strictly lower."""
    t, neg = st.plus_part, st.neg
    out = set()
    for i in range(1, t.n):
        lower = t.row_of(i + 1) > t.row_of(i)
        if (i + 1 not in neg and lower) or (i in neg and not lower):
            out.add(i)
    return frozenset(out)


def relative_maj(d, s, n: int) -> int:
    """Sum of i over i in [n-1] with (i in D, i+1 not in S) or (i not in D, i in S)."""
    d, s = set(d), set(s)
    return sum(
        i
        for i in range(1, n)
        if (i in d and i + 1 not in s) or (i not in d and i in s)
    )


def relative_comaj(d, s, n: int) -> int:
    """Same index set as :func:`relative_maj`, summing n - i instead of i."""
    d, s = set(d), set(s)
    return sum(
        n - i
        for i in range(1, n)
        if (i in d and i + 1 not in s) or (i not in d and i in s)
    )


def super_maj(st: SuperTableau) -> int:
    return relative_maj(descent_set(st.plus_part), st.neg, st.plus_part.n)


def super_comaj(st: SuperTableau) -> int:
    return relative_comaj(descent_set(st.plus_part), st.neg, st.plus_part.n)


def negg(st: SuperTableau) -> int:
    return len(st.neg)


def _moves(bound: Partition, mu: tuple[int, ...]):
    """(row, shape) for each cell that can be added to mu inside bound."""
    for r, part in enumerate(mu):
        if part < bound[r] and (r == 0 or mu[r - 1] > part):
            yield r, mu[:r] + (part + 1,) + mu[r + 1 :]


def _corners(mu: tuple[int, ...]) -> list[int]:
    """The rows of the removable cells of mu."""
    return [r for r, part in enumerate(mu) if part and (r + 1 == len(mu) or mu[r + 1] < part)]


def _check_budget(bound: Partition, n: int) -> None:
    """Refuse the DP of the shapes of n inside ``bound`` unless each of them
    would be admitted alone: unless, for each such shape lam, a bound on the
    table-entry updates of the DP of lam alone is at most DEFAULT_PAIR_BUDGET,
    read at call time.

    After i is placed in a shape mu, the row of i is a removable corner of mu
    and i may be barred or not; each such state moves by the addable rows of
    mu, barred or not; and its table has at most i * (sum_{j<i} (n - j) + 1)
    entries, as the bar count takes i values and the statistic, maj or comaj,
    is at most sum_{j<i} (n - j).  So the bound of lam is F(lam), the sum of
    W(nu) over the shapes nu of size >= 2 inside lam, where W(nu) sums
    4 * corners(mu) * table(|mu|) over the shapes mu = nu minus one corner.
    F is computed for every shape inside ``bound`` in one walk, layer by
    layer, by inclusion-exclusion over the corners of nu: the shapes strictly
    inside nu are those inside some nu - c, and those inside nu - c for every
    c in a set S of corners are the shapes inside nu - S.  F only grows
    upwards, and every shape of size <= n inside ``bound`` lies in one of size
    n, so the walk stops at the first F over the budget: a huge shape is
    refused after a few layers."""
    budget = DEFAULT_PAIR_BUDGET
    layer = [(1,) + (0,) * (len(bound) - 1)] if n else []
    below: dict[tuple[int, ...], int] = {}
    for i in range(1, n):
        table = i * ((i - 1) * (2 * n - i) // 2 + 1)
        own: dict[tuple[int, ...], int] = {}
        for mu in layer:
            weight = 4 * len(_corners(mu)) * table
            for _, nu in _moves(bound, mu):
                own[nu] = own.get(nu, 0) + weight
        for nu, total in own.items():
            corners = _corners(nu)
            for k in range(1, len(corners) + 1):
                for rows in combinations(corners, k):
                    smaller = list(nu)
                    for r in rows:
                        smaller[r] -= 1
                    total -= (-1) ** k * below.get(tuple(smaller), 0)
            if total > budget:
                if sum(bound) == n:
                    shapes = bound
                else:
                    shapes = f"the shapes of {n} containing {tuple(part for part in nu if part)}"
                raise ResourceLimitError(
                    f"the signed-tableau DP of {shapes} needs more than {budget}"
                    " table-entry updates"
                )
            below[nu] = total
        layer = list(own)


@lru_cache(maxsize=None)
def _sign_generating_polys(bound: Partition, n: int, use_comaj: bool) -> dict[Partition, QTPoly]:
    """Counts of (statistic, bar count) over all signed tableaux of each
    shape of n inside ``bound``, from one DP over the shapes inside it.

    Entries 1..n are placed in order.  A state after placing i is (shape mu,
    row of i, whether i is barred); its table maps stat * (n+1) + bar count
    to the number of signed fillings of mu reaching it.  Placing i+1 in row
    r, barred or not, puts i in the index set of :func:`relative_maj` when r
    is strictly lower than the row of i and i+1 is unbarred, or r is not
    strictly lower and i is barred; i then adds i to maj, or n - i to comaj.
    A state's table does not depend on the shape it grows into, so each shape
    inside ``bound`` is walked once for all the shapes of n above it.
    """
    _check_budget(bound, n)
    if n == 0:
        return {(): QTPoly.one()}
    base = n + 1
    # before 1 is placed: the empty shape, and a "row of 0" below every row,
    # so that placing 1 joins nothing; the last step keeps one table per shape
    layer = {((0,) * len(bound), len(bound), False): {0: 1}}
    for i in range(n):
        step = (n - i if use_comaj else i) * base
        last = i == n - 1
        nxt: dict = {}
        while layer:
            (mu, row, barred), table = layer.popitem()
            for r, nu in _moves(bound, mu):
                lower = r > row
                for barred_next in (False, True):
                    joins = (lower and not barred_next) or (barred and not lower)
                    shift = step * joins + barred_next
                    target = nxt.setdefault(nu if last else (nu, r, barred_next), {})
                    get = target.get
                    for key, c in table.items():
                        key += shift
                        target[key] = get(key, 0) + c
        layer = nxt
    return {
        tuple(part for part in mu if part): QTPoly({divmod(key, base): c for key, c in table.items()})
        for mu, table in layer.items()
    }


def maj_neg_generating_poly(lam: Partition) -> QTPoly:
    """Sum of q^maj t^negg over all signed standard tableaux of the shape."""
    lam = check_partition(lam)
    return _sign_generating_polys(lam, sum(lam), False)[lam]


def comaj_neg_generating_poly(lam: Partition) -> QTPoly:
    """Sum of q^comaj t^negg over all signed standard tableaux of the shape."""
    lam = check_partition(lam)
    return _sign_generating_polys(lam, sum(lam), True)[lam]


def _every_shape(n: int) -> Partition:
    """(n, n//2, n//3, ..., 1): the smallest shape holding every shape of n,
    as the k-th part of a shape of n is at most n/k."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return tuple(n // k for k in range(1, n + 1))


def maj_neg_generating_polys(n: int) -> dict[Partition, QTPoly]:
    """:func:`maj_neg_generating_poly` of every shape of n, from one DP."""
    return dict(_sign_generating_polys(_every_shape(n), n, False))


def comaj_neg_generating_polys(n: int) -> dict[Partition, QTPoly]:
    """:func:`comaj_neg_generating_poly` of every shape of n, from one DP."""
    return dict(_sign_generating_polys(_every_shape(n), n, True))


def count_super_tableaux(lam: Partition, modulus: int, residue: int, m: int) -> int:
    """Number of signed standard tableaux with maj congruent to ``residue``
    mod ``modulus`` and exactly ``m`` barred entries."""
    lam = check_partition(lam)
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if m < 0:
        raise ValueError(f"number of barred entries must be >= 0, got {m}")
    if m > sum(lam):
        return 0
    residue %= modulus
    poly = maj_neg_generating_poly(lam)
    return sum(int(c) for (a, b), c in poly.items() if b == m and a % modulus == residue)
