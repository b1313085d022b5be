"""Standard and super standard Young tableaux and their statistics.

A super tableau is stored as a plain standard tableau (its projection to
unbarred entries) together with the set of barred entries; the filling over
the signed alphabet is equivalent data.  The (statistic, bar count)
generating polynomials are computed by a forward DP over the shapes inside a
bounding shape, never by listing the signed tableaux: one DP yields every
shape of n inside the bound, so a single shape is the DP bounded by itself,
and every shape of n at once is the DP bounded by (n, n//2, n//3, ...).
For maj, layer k of that DP is already the table of every shape of k, so a
sweep over the sizes up to N runs one DP, of N, per sweep; comaj, whose
step depends on n, runs one DP per size.
Each state's table of counts is one Kronecker-packed ``int``, a fixed-width
slot per (statistic, bar count) pair, so a move shifts and adds a whole
table in one big-integer operation.
Standard tableaux are walked once, as their row words, for the tableaux
themselves and for their descent sets; their maj counts come from one
depth-first walk over every standard tableau up to a size, carrying maj.

Descent conventions are fixed to English notation, longest row on top:
i is a descent of T when i+1 sits in a strictly lower row than i.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import compress

from .exactalg import QTPoly, Record, ResourceLimitError, slot_width
from .partition import Partition, check_partition, hook_lengths, partitions_of

# The signed-tableau DP refuses, before it builds any table, a bound whose
# walk counts more than this many table-entry updates by :func:`_price`,
# which is at least the real number (at most 6.2 times it for every bound
# of n <= 9).  Every shape of 18 at once counts 116,679,306 and every shape
# of 19 192,828,394, so every all-shapes call with n <= 18 is admitted and
# n = 19 is not; the largest single shape of n <= 18, (7, 4, 3, 2, 1, 1),
# counts 13,867,778.  On a shared 2-vCPU x86-64 host (Python 3.11) the maj
# DP of every shape of 18 ran in 0.7 s (6 ns per counted update), and the
# largest admitted single shapes, such as (1^74), (74) and (19, 9, 2), in
# 0.6-1.8 s under 100 MB.
DEFAULT_PAIR_BUDGET = 120_000_000

# :func:`syt_maj_counts` refuses, before it visits any tableau, a walk over
# more standard tableaux than this: the 3,148,063 of every size up to 14
# are admitted, the 13,497,599 up to 15 are not.
DEFAULT_WALK_BUDGET = 4_000_000


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
    """Number of standard tableaux of the shape, by the hook length formula
    (memoized per shape)."""
    return _syt_count(check_partition(lam))


@lru_cache(maxsize=None)
def _syt_count(lam: Partition) -> int:
    count, rem = divmod(math.factorial(sum(lam)), math.prod(hook_lengths(lam)))
    if rem:
        raise ArithmeticError(f"hook product does not divide {sum(lam)}! for {lam}")
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


def syt_maj_counts(max_n: int) -> dict[Partition, dict[int, int]]:
    """For every shape of every size 1..max_n, how many of its standard
    tableaux have each maj, by one depth-first walk over every standard
    tableau of size <= max_n: a tableau of size k+1 is one of size k with
    k+1 placed at the end of a row, and placing it strictly below k adds k
    to maj.  Each tableau is visited once, so the counts rest on no formula.

    The walk is priced before it starts: the standard tableaux of every
    shape of n are summed for n = 1, 2, ..., and the first n at which the
    sum passes DEFAULT_WALK_BUDGET, read at call time, is refused."""
    budget, walked = DEFAULT_WALK_BUDGET, 0
    for n in range(1, max_n + 1):
        walked += sum(_syt_count(lam) for lam in partitions_of(n))
        if walked > budget:
            raise ResourceLimitError(
                f"the maj walk up to n = {max_n} visits {walked} standard tableaux"
                f" of size <= {n}, more than {budget}"
            )
    counts: dict[Partition, dict[int, int]] = {}
    if max_n > 0:
        _place_maj(counts, max_n, (), 0, 0, 0)  # 1 joins nothing: it adds k = 0
    return counts


def _place_maj(counts: dict, max_n: int, mu: Partition, row: int, stat: int, k: int) -> None:
    """The walk of :func:`syt_maj_counts` below one tableau of shape mu,
    which holds 1..k with k in ``row`` and has maj ``stat``: place k+1 in
    each addable row, and so on up to max_n."""
    for r in range(len(mu) + 1):
        if r == len(mu):
            nu = mu + (1,)
        elif r == 0 or mu[r - 1] > mu[r]:
            nu = mu[:r] + (mu[r] + 1,) + mu[r + 1 :]
        else:
            continue
        s = stat + k if r > row else stat
        by_maj = counts.setdefault(nu, {})
        by_maj[s] = by_maj.get(s, 0) + 1
        if k + 1 < max_n:
            _place_maj(counts, max_n, nu, r, s, k + 1)


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


def _price(bound: Partition, n: int) -> int:
    """How many table-entry updates the DP of the shapes of n inside
    ``bound`` may make, counted without building a table; past
    DEFAULT_PAIR_BUDGET, read at call time, it is refused.

    The walk meets the shapes inside ``bound`` layer by layer, as
    :func:`_sign_layers` does.  After i is placed in a shape mu, the row of
    i is a corner of mu and i may be barred or not; each such state moves by
    the addable rows of mu, barred or not; and its table has at most
    i * (sum_{j<i} (n - j) + 1) entries, as the bar count takes i values and
    the statistic, maj or comaj, is at most sum_{j<i} (n - j).  Placing 1
    makes two updates.  The count only grows, so a huge bound is refused
    after a few layers.  Past n = 24 a slot of :func:`_slots` spans more
    than one 64-bit word, and an update counts once per word."""
    budget = DEFAULT_PAIR_BUDGET
    count = 2 if n else 0
    layer = {(1,) + (0,) * (len(bound) - 1)} if n else set()
    for i in range(1, n):
        if count > budget:
            break
        table = i * ((i - 1) * (2 * n - i) // 2 + 1)
        nxt = set()
        for mu in layer:
            moves = [nu for _, nu in _moves(bound, mu)]
            nxt.update(moves)
            count += 4 * len(_corners(mu)) * len(moves) * table
        layer = nxt
    else:  # the walk ran to the end: weigh each update by its slot's words
        count *= _slots(n)[1] // 64
    if count > budget:
        shapes = bound if sum(bound) == n else f"the shapes of {n} inside {bound}"
        raise ResourceLimitError(
            f"the signed-tableau DP of {shapes} needs more than {budget} table-entry updates"
        )
    return count


def _slots(n: int) -> tuple[int, int]:
    """The (base, width) of the packed tables of the DP of n: slot
    stat * (n+1) + bar count, wide enough for f^lam * 2^n."""
    return n + 1, slot_width(math.isqrt(math.factorial(n)) << n)


def _sign_layers(bound: Partition, n: int, use_comaj: bool):
    """The DP of :func:`_sign_generating_polys`, one layer at a time: after
    0, 1, ..., n entries are placed, {mu: packed table} for each shape mu
    inside ``bound``, summed over the row of the last entry and its bar.

    For maj, layer k is the size-k table of every shape of k inside
    ``bound``: the contribution of entry i is fixed only when i+1 is placed,
    and the step i * (n+1) does not depend on n.  For comaj, whose step
    n - i does, only layer n is a table."""
    base, width = _slots(n)
    # before 1 is placed: the empty shape, and a "row of 0" below every row,
    # so that placing 1 joins nothing
    layer = {(0,) * len(bound): {(len(bound), False): 1}}
    yield {(0,) * len(bound): 1}
    for i in range(n):
        step = (n - i if use_comaj else i) * base * width
        nxt: dict = {}
        for mu, states in layer.items():
            moves = [(r, nxt.setdefault(nu, {})) for r, nu in _moves(bound, mu)]
            for (row, barred), table in states.items():
                for r, targets in moves:
                    lower = r > row
                    for barred_next in (False, True):
                        joins = (lower and not barred_next) or (barred and not lower)
                        key = (r, barred_next)
                        shift = step * joins + width * barred_next
                        targets[key] = targets.get(key, 0) + (table << shift)
        layer = nxt
        yield {mu: sum(states.values()) for mu, states in layer.items()}


def _unpacked(tables: dict, base: int, width: int) -> dict[Partition, QTPoly]:
    """The packed tables of one layer of :func:`_sign_layers` as
    polynomials, each checked against f^lam * 2^|lam|."""
    out = {}
    for mu, table in tables.items():
        lam = tuple(part for part in mu if part)
        out[lam] = QTPoly.unpack(table, base, width, _syt_count(lam) << sum(lam))
    return out


@lru_cache(maxsize=None)
def _sign_generating_polys(bound: Partition, n: int, use_comaj: bool) -> dict[Partition, QTPoly]:
    """Counts of (statistic, bar count) over all signed tableaux of each
    shape of n inside ``bound``, from one DP over the shapes inside it.

    Entries 1..n are placed in order.  A state after placing i is (shape mu,
    row of i, whether i is barred); its table is one ``int`` in the slots
    that :meth:`~freelie.exactalg.QTPoly.unpack` reads: slot stat * (n+1) +
    bar count holds the number of signed fillings of mu reaching it.  Placing
    i+1 in row r, barred or not, puts i in the index set of
    :func:`relative_maj` when r is strictly lower than the row of i and i+1
    is unbarred, or r is not strictly lower and i is barred; i then adds i to
    maj, or n - i to comaj.  Either way the move shifts every slot of the
    table by the same amount, so it adds the whole table, shifted, to the
    target's in one big-integer operation.  The counts of a shape lam of n
    sum to f^lam * 2^n, and f^lam <= sqrt(n!) as the squares of the f^lam
    sum to n!, so slots of that many bits never overflow; unpacking checks
    each shape's sum.  A state's table does not depend on the shape it grows
    into, so each shape inside ``bound`` is walked once for all the shapes
    of n above it.  Its callers price the DP first, by :func:`_price`.
    """
    for last in _sign_layers(bound, n, use_comaj):
        pass  # each layer is dropped once the next is built
    return _unpacked(last, *_slots(n))


@lru_cache(maxsize=None)
def _maj_sweep(max_n: int) -> tuple[dict[Partition, QTPoly], ...]:
    """The maj tables of every shape of every size 0..max_n, indexed by
    size: the layers of the one DP of every shape of max_n."""
    bound = admit_sweep(max_n)
    slots = _slots(max_n)
    return tuple(_unpacked(tables, *slots) for tables in _sign_layers(bound, max_n, False))


def maj_neg_generating_poly(lam: Partition) -> QTPoly:
    """Sum of q^maj t^negg over all signed standard tableaux of the shape."""
    lam = check_partition(lam)
    _price(lam, sum(lam))
    return _sign_generating_polys(lam, sum(lam), False)[lam]


def comaj_neg_generating_poly(lam: Partition) -> QTPoly:
    """Sum of q^comaj t^negg over all signed standard tableaux of the shape."""
    lam = check_partition(lam)
    _price(lam, sum(lam))
    return _sign_generating_polys(lam, sum(lam), True)[lam]


def admit_sweep(n: int) -> Partition:
    """(n, n//2, n//3, ..., 1), the smallest shape holding every shape of n
    (the k-th part of a shape of n is at most n/k), once the DP of every
    shape of n inside it is priced by :func:`_price`.  The bound has n
    parts, so it is priced inside its two rows (n, n//2) first: that walk
    meets some of the whole walk's shapes, each with no more moves, so its
    refusal is the whole walk's, and a huge n is refused before the bound
    is built."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    _price((n, n // 2), n)
    bound = tuple(n // k for k in range(1, n + 1))
    _price(bound, n)
    return bound


def maj_neg_generating_polys(n: int, up_to: int | None = None) -> dict[Partition, QTPoly]:
    """:func:`maj_neg_generating_poly` of every shape of n, read off the one
    DP of every shape of every size up to ``up_to``: a sweep passes its
    largest size, so that its DP runs once.  Without ``up_to``, only the
    last layer of the DP of n is read."""
    if up_to is None:
        return dict(_sign_generating_polys(admit_sweep(n), n, False))
    if not 0 <= n <= up_to:
        raise ValueError(f"need 0 <= n <= up_to, got n = {n}, up_to = {up_to}")
    return dict(_maj_sweep(up_to)[n])


def comaj_neg_generating_polys(n: int) -> dict[Partition, QTPoly]:
    """:func:`comaj_neg_generating_poly` of every shape of n, from one DP: the
    comaj step n - i depends on n, so each n runs its own."""
    return dict(_sign_generating_polys(admit_sweep(n), n, True))


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
