"""Standard and super standard Young tableaux and their statistics.

A super tableau is stored as a plain standard tableau (its projection to
unbarred entries) together with the set of barred entries; the filling over
the signed alphabet is equivalent data, and the split form makes enumerating
all 2^n sign choices a product space.

Descent conventions are fixed to English notation, longest row on top:
i is a descent of T when i+1 sits in a strictly lower row than i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .exactalg import QTPoly, ResourceLimitError
from .partition import Partition, cells, check_partition, hook_length

# Enumerations over (tableau, sign subset) pairs fail loudly past this many
# pairs rather than silently truncating.
DEFAULT_PAIR_BUDGET = 20_000_000


class StandardTableau:
    """Bijective filling of a partition shape by 1..n, rows and columns
    strictly increasing."""

    __slots__ = ("rows", "shape", "_row_of")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(e) for e in row) for row in rows)
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
        row_of = {}
        for r, row in enumerate(self.rows, start=1):
            for e in row:
                row_of[e] = r
        self._row_of = row_of

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


@dataclass(frozen=True)
class SuperTableau:
    """A standard tableau plus the set of entries carrying a bar."""

    plus_part: StandardTableau
    neg: frozenset[int]

    def __post_init__(self):
        n = self.plus_part.n
        object.__setattr__(self, "neg", frozenset(int(i) for i in self.neg))
        if any(i < 1 or i > n for i in self.neg):
            raise ValueError(f"negated entries must lie in 1..{n}: {sorted(self.neg)}")

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
            out.append(StandardTableau([tuple(row) for row in rows]))
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


def _check_budget(pairs: int, budget: int) -> None:
    if pairs > budget:
        raise ResourceLimitError(
            f"enumeration of {pairs} tableau-subset pairs exceeds budget {budget}"
        )


@lru_cache(maxsize=None)
def _sign_generating_poly(lam: Partition, budget: int, use_comaj: bool) -> QTPoly:
    """Counts of (statistic, bar count) over all signed tableaux of the shape."""
    n = sum(lam)
    _check_budget(syt_count(lam) * (1 << n), budget)
    counts: dict[tuple[int, int], int] = {}
    for t in syt_enumerate(lam):
        d = descent_set(t)
        for mask in range(1 << n):
            s = {i for i in range(1, n + 1) if mask >> (i - 1) & 1}
            stat = relative_comaj(d, s, n) if use_comaj else relative_maj(d, s, n)
            key = (stat, len(s))
            counts[key] = counts.get(key, 0) + 1
    return QTPoly(counts)


def maj_neg_generating_poly(lam: Partition, budget: int = DEFAULT_PAIR_BUDGET) -> QTPoly:
    """Sum of q^maj t^negg over all signed standard tableaux of the shape."""
    return _sign_generating_poly(check_partition(lam), budget, use_comaj=False)


def comaj_neg_generating_poly(lam: Partition, budget: int = DEFAULT_PAIR_BUDGET) -> QTPoly:
    """Sum of q^comaj t^negg over all signed standard tableaux of the shape."""
    return _sign_generating_poly(check_partition(lam), budget, use_comaj=True)


def count_super_tableaux(
    lam: Partition,
    modulus: int,
    residue: int,
    m: int,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> int:
    """Number of signed standard tableaux with maj congruent to ``residue``
    mod ``modulus`` and exactly ``m`` barred entries."""
    lam = check_partition(lam)
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if m < 0:
        raise ValueError(f"number of barred entries must be >= 0, got {m}")
    n = sum(lam)
    if m > n:
        return 0
    _check_budget(syt_count(lam) * math.comb(n, m), budget)
    residue %= modulus
    total = 0
    for t in syt_enumerate(lam):
        d = descent_set(t)
        for chosen in combinations(range(1, n + 1), m):
            if relative_maj(d, set(chosen), n) % modulus == residue:
                total += 1
    return total
