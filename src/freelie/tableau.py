"""Standard and super standard Young tableaux and their statistics.

A super tableau is stored as a plain standard tableau (its projection to
unbarred entries) together with the set of barred entries; the filling over
the signed alphabet is equivalent data.  The (statistic, bar count)
generating polynomials are computed by a forward DP over the shapes inside
the target shape, never by listing the signed tableaux.

Descent conventions are fixed to English notation, longest row on top:
i is a descent of T when i+1 sits in a strictly lower row than i.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .exactalg import QTPoly, Record, ResourceLimitError, collect
from .partition import Partition, cells, check_partition, hook_length

# The signed-tableau DP refuses, before it starts, a shape whose bound on
# table-entry updates exceeds this many, rather than hanging; an update costs
# a few tenths of a microsecond.  Every shape with n <= 18 is admitted.
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


def syt_enumerate(lam: Partition) -> list[StandardTableau]:
    """All standard tableaux of the shape, in a fixed depth-first order
    (entries placed 1..n, candidate rows scanned top to bottom)."""
    lam = check_partition(lam)
    n = sum(lam)
    fill = [0] * len(lam)
    rows: list[list[int]] = [[] for _ in lam]
    out: list[StandardTableau] = []

    def place(entry: int) -> None:
        if entry > n:
            out.append(StandardTableau._unchecked(tuple(map(tuple, rows)), lam))
            return
        for r in range(len(lam)):
            if fill[r] < lam[r] and (r == 0 or fill[r - 1] > fill[r]):
                rows[r].append(entry)
                fill[r] += 1
                place(entry + 1)
                fill[r] -= 1
                rows[r].pop()

    place(1)
    return out


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


def _moves(lam: Partition, mu: tuple[int, ...]):
    """(row, shape) for each cell that can be added to mu inside lam."""
    for r, part in enumerate(mu):
        if part < lam[r] and (r == 0 or mu[r - 1] > part):
            yield r, mu[:r] + (part + 1,) + mu[r + 1 :]


def _check_budget(lam: Partition) -> None:
    """Refuse the shape when a bound on the DP's table-entry updates exceeds
    DEFAULT_PAIR_BUDGET, read at call time.  After i is placed in a shape mu,
    the row of i is a removable corner of mu and i may be barred or not; each
    such state moves by the addable rows of mu, barred or not; and its table
    has at most i * (sum_{j<i} (n - j) + 1) entries, as the bar count takes i
    values and the statistic, maj or comaj, is at most sum_{j<i} (n - j).  The
    shapes are walked layer by layer, so a huge shape is refused after a few
    layers."""
    n = sum(lam)
    bound = 0
    layer = {(1,) + (0,) * (len(lam) - 1)} if n else set()
    for i in range(1, n):
        table = i * ((i - 1) * (2 * n - i) // 2 + 1)
        nxt = set()
        for mu in layer:
            corners = sum(1 for a, b in zip(mu, mu[1:] + (0,)) if a > b)
            moves = [nu for _, nu in _moves(lam, mu)]
            nxt.update(moves)
            bound += 4 * corners * len(moves) * table
        if bound > DEFAULT_PAIR_BUDGET:
            raise ResourceLimitError(
                f"the signed-tableau DP of {lam} needs more than {DEFAULT_PAIR_BUDGET}"
                " table-entry updates"
            )
        layer = nxt


@lru_cache(maxsize=None)
def _sign_generating_poly(lam: Partition, use_comaj: bool) -> QTPoly:
    """Counts of (statistic, bar count) over all signed tableaux of the shape.

    Entries 1..n are placed in order.  A state after placing i is (shape mu,
    row of i, whether i is barred); its table maps stat * (n+1) + bar count
    to the number of signed fillings of mu reaching it.  Placing i+1 in row
    r, barred or not, puts i in the index set of :func:`relative_maj` when r
    is strictly lower than the row of i and i+1 is unbarred, or r is not
    strictly lower and i is barred; i then adds i to maj, or n - i to comaj.
    """
    _check_budget(lam)
    n = sum(lam)
    if n == 0:
        return QTPoly.one()
    base = n + 1
    first = (1,) + (0,) * (len(lam) - 1)
    layer = {(first, 0, False): {0: 1}, (first, 0, True): {1: 1}}
    for i in range(1, n):
        step = (n - i if use_comaj else i) * base
        nxt: dict = {}
        while layer:
            (mu, row, barred), table = layer.popitem()
            for r, nu in _moves(lam, mu):
                lower = r > row
                for barred_next in (False, True):
                    joins = (lower and not barred_next) or (barred and not lower)
                    shift = step * joins + barred_next
                    target = nxt.setdefault((nu, r, barred_next), {})
                    get = target.get
                    for key, c in table.items():
                        key += shift
                        target[key] = get(key, 0) + c
        layer = nxt
    return QTPoly(
        collect((divmod(key, base), c) for table in layer.values() for key, c in table.items())
    )


def maj_neg_generating_poly(lam: Partition) -> QTPoly:
    """Sum of q^maj t^negg over all signed standard tableaux of the shape."""
    return _sign_generating_poly(check_partition(lam), use_comaj=False)


def comaj_neg_generating_poly(lam: Partition) -> QTPoly:
    """Sum of q^comaj t^negg over all signed standard tableaux of the shape."""
    return _sign_generating_poly(check_partition(lam), use_comaj=True)


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
