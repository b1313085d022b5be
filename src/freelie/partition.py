"""Integer partitions, their diagrams, hooks, conjugates and the z statistic.

A partition is a plain tuple of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  Cells are 1-indexed (row, column) in
English notation, longest row on top.  Partitions of a fixed n are always
generated in reverse lexicographic order, e.g. (4), (3,1), (2,2), (2,1,1),
(1,1,1,1), so every listing and cached table in the package is reproducible
byte for byte.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and return a canonical partition tuple; a part that is not an
    integer (a float, a string) raises TypeError rather than being truncated."""
    lam = tuple(map(operator.index, parts))
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in reverse lexicographic order."""
    if n < 0:
        raise ValueError(f"partitions_of requires n >= 0, got {n}")

    def gen(rest: int, max_part: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, max_part), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def conjugate(lam: Partition) -> Partition:
    """Column lengths of lam, read as a partition (transpose of the diagram)."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def cells(lam: Partition):
    """All cells (r, c) of the diagram, 1-indexed, row-major order."""
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            yield (r, c)


def hook_length(lam: Partition, r: int, c: int) -> int:
    """Arm + leg + 1 of cell (r, c); the cell must lie inside the diagram."""
    lam = check_partition(lam)
    if not (1 <= r <= len(lam) and 1 <= c <= lam[r - 1]):
        raise ValueError(f"cell ({r}, {c}) outside the diagram of {lam}")
    arm = lam[r - 1] - c
    leg = sum(1 for i in range(r, len(lam)) if lam[i] >= c)
    return arm + leg + 1


def hook_lengths(lam: Partition) -> tuple[int, ...]:
    """The hook length of every cell, in the row-major order of :func:`cells`:
    lam_r - c + lam'_c - r + 1 at (r, c), read off the conjugate once per
    shape (memoized)."""
    return _hook_lengths(check_partition(lam))


@lru_cache(maxsize=None)
def _hook_lengths(lam: Partition) -> tuple[int, ...]:
    conj = conjugate(lam)
    return tuple(
        part - c + conj[c - 1] - r + 1
        for r, part in enumerate(lam, start=1)
        for c in range(1, part + 1)
    )


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part value -> multiplicity."""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def z_lambda(lam: Partition) -> int:
    """prod_i i^{a_i} a_i! over part multiplicities a_i: the centralizer size
    of a permutation of cycle type lam."""
    lam = check_partition(lam)
    result = 1
    for part, mult in multiplicities(lam).items():
        result *= part**mult * math.factorial(mult)
    return result


def format_partition(lam: Partition) -> str:
    """Render as comma-separated parts in parentheses, e.g. "(4,2,1)"."""
    return "(" + ",".join(str(p) for p in lam) + ")"


def parse_partition(text: str) -> Partition:
    """Parse the format produced by :func:`format_partition`."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"partition must be parenthesized: {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = [int(tok.strip()) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition: {text!r}") from None
    return check_partition(parts)
