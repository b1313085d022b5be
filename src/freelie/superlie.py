"""Characters and dimensions of the bigraded pieces of the free Lie
superalgebra and of the higher super Lie modules built from them.

Conventions fixed here:

* The divisor set "d | gcd(n, m)" with one of n, m possibly zero means
  {d >= 1 : d divides n and d divides m}, so gcd(n, 0) = n; this is what
  ``math.gcd`` computes and it makes the m = 0 case reduce to the classical
  power-sum formula for free Lie algebra characters.
* p_d(-y) is normalized to (-1)^d p_d(y) at construction (see symfunc).
* Characters have exact rational coefficients.  The bigraded series of the
  whole algebra needs no formal q, t to mark bidegrees: p_lambda(x) p_mu(y)
  has bidegree (|lambda|, |mu|), read off its key.
* Exterior powers of formal characters never vanish for large exponents: the
  formal ring corresponds to infinitely many variables.  Vanishing in a fixed
  finite dimension emerges on its own under truncated expansion.
"""

from __future__ import annotations

import math
import operator
from collections import Counter

from .exactalg import (
    Rational,
    ResourceLimitError,
    SparseEchelon,
    binom,
    collect,
    divisors,
    mobius,
)
from . import symfunc
from .partition import format_partition, partitions_of
from .symfunc import BiSymFunc, SymFunc, e_pleth, h_pleth, multiply


class SupportMatrix:
    """Finite-support matrix of nonnegative multiplicities a_{i,j}, i, j >= 0,
    with a_{0,0} = 0; the index of one higher super Lie module.

    The bidegree is (sum of i * a_{i,j}, sum of j * a_{i,j}).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        canon: dict[tuple[int, int], int] = {}
        for (i, j), a in dict(entries).items():
            i, j, a = map(operator.index, (i, j, a))
            if i < 0 or j < 0:
                raise ValueError(f"negative cell ({i}, {j})")
            if a < 0:
                raise ValueError(f"negative multiplicity at ({i}, {j})")
            if (i, j) == (0, 0) and a != 0:
                raise ValueError("cell (0, 0) must be empty")
            if a > 0:
                canon[(i, j)] = a
        self.entries = canon

    def bidegree(self) -> tuple[int, int]:
        n = sum(i * a for (i, _), a in self.entries.items())
        m = sum(j * a for (_, j), a in self.entries.items())
        return (n, m)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def to_json(self) -> list[list[int]]:
        return [[i, j, a] for (i, j), a in self.items()]

    @classmethod
    def from_json(cls, data) -> SupportMatrix:
        entries: dict[tuple[int, int], int] = {}
        for i, j, a in data:
            if any(type(x) is not int for x in (i, j, a)):
                raise ValueError(f"entries must be integers: {[i, j, a]}")
            if (i, j) in entries:
                raise ValueError(f"cell {(i, j)} given twice")
            entries[(i, j)] = a
        return cls(entries)

    def __repr__(self) -> str:
        return f"SupportMatrix({self.to_json()})"


def check_bidegree(n: int, m: int) -> None:
    """Refuse a bidegree (n, m) unless both are nonnegative and not both zero."""
    if n < 0 or m < 0 or (n, m) == (0, 0):
        raise ValueError(f"bidegree must be nonzero and nonnegative: ({n}, {m})")


def _brandt_terms(n: int, m: int) -> list[tuple[int, Rational]]:
    """The nonzero terms (d, c) of Brandt's sum at the bidegree (n, m): for
    each d | gcd(n, m), c = (-1)^(m + m/d) mu(d) C((n+m)/d, m/d) / (n+m).
    Each caller places c at its own image of the d-th summand."""
    check_bidegree(n, m)
    total = n + m
    terms = (
        (d, Rational((-1) ** (m + m // d) * mobius(d) * binom(total // d, m // d), total))
        for d in divisors(math.gcd(n, m))
    )
    return [(d, c) for d, c in terms if c]


def super_brandt_char(n: int, m: int) -> SymFunc:
    """One-alphabet character of the (n, m) bidegree piece:
    1/(n+m) * sum over d | gcd(n,m) of (-1)^(m + m/d) mu(d) C((n+m)/d, m/d) p_d^((n+m)/d).
    """
    return SymFunc({(d,) * ((n + m) // d): c for d, c in _brandt_terms(n, m)})


def super_bi_brandt_char(n: int, m: int) -> BiSymFunc:
    """Two-alphabet character of the (n, m) bidegree piece:
    1/(n+m) * sum over d | gcd(n,m) of (-1)^(m/d) mu(d) C((n+m)/d, m/d)
    p_d(x)^(n/d) p_d(-y)^(m/d).  With p_d(-y)^(m/d) = (-1)^m p_d(y)^(m/d),
    the sign (-1)^(m/d) (-1)^m is the one of Brandt's one-alphabet sum, so
    each term is c p_d(x)^(n/d) p_d(y)^(m/d) for its (d, c).
    """
    return BiSymFunc({((d,) * (n // d), (d,) * (m // d)): c for d, c in _brandt_terms(n, m)})


def super_witt_dim(n: int, m: int, N: int) -> int:
    """Dimension of the (n, m) piece when both generating spaces have dim N."""
    terms = _brandt_terms(n, m)
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    dim = sum(c * N ** ((n + m) // d) for d, c in terms)
    if dim.denominator != 1:
        raise ArithmeticError(f"dimension formula gave non-integer {dim} at ({n}, {m}, {N})")
    return int(dim)


def petrogradsky_series(max_n: int, max_m: int) -> dict[tuple[int, int], BiSymFunc]:
    """Bigraded character series of the whole free Lie superalgebra, expanded
    independently of the closed per-bidegree formula.

    Expands -sum_d (mu(d)/d) ln(1 - (p_d(x) - p_d(-y))) via
    ln(1-u) = -sum_{s>=1} u^s / s, multiplying the series out with generic
    two-alphabet arithmetic.  A term p_lambda(x) p_mu(y) has bidegree
    (|lambda|, |mu|), so the series is truncated to n <= max_n, m <= max_m
    and split into its bidegree components by its keys.  Only finitely many
    d and s contribute per bidegree.
    """
    if max_n < 0 or max_m < 0:
        raise ValueError("caps must be >= 0")
    bound = max_n + max_m

    def truncate(f: BiSymFunc) -> BiSymFunc:
        return f._with(
            {k: c for k, c in f.terms.items() if sum(k[0]) <= max_n and sum(k[1]) <= max_m}
        )

    series = BiSymFunc()
    for d in range(1, bound + 1):
        mu_d = mobius(d)
        if mu_d == 0:
            continue
        # u_d = p_d(x) - p_d(-y) = p_d(x) + (-1)^(d+1) p_d(y)
        u = BiSymFunc({((d,), ()): 1, ((), (d,)): (-1) ** (d + 1)})
        power = truncate(u)
        s = 1
        while d * s <= bound and power:
            series = series + power.scale(Rational(mu_d, d * s))
            power = truncate(multiply(power, u))
            s += 1

    components: dict[tuple[int, int], dict] = {
        (n, m): {} for n in range(max_n + 1) for m in range(max_m + 1) if (n, m) != (0, 0)
    }
    for key, c in series.terms.items():
        components[(sum(key[0]), sum(key[1]))][key] = c
    return {nm: series._with(terms) for nm, terms in components.items()}


def gamma_char(j: int, a: int, f: BiSymFunc) -> BiSymFunc:
    """Character of the a-th symmetric power of f when j is even, of the a-th
    exterior power when j is odd."""
    if j < 0 or a < 0:
        raise ValueError("j and a must be >= 0")
    return h_pleth(a, f) if j % 2 == 0 else e_pleth(a, f)


def super_lie_module_char(matrix: SupportMatrix) -> BiSymFunc:
    """Product over the support of Gamma_j^{a_{i,j}} applied to the (i, j)
    bidegree character.  The empty matrix, of bidegree (0, 0), is rejected
    like the bidegree (0, 0) itself."""
    if not matrix.entries:
        raise ValueError("support matrix is empty: bidegree (0, 0)")
    out = BiSymFunc.one()
    for (i, j), a in matrix.items():
        out = multiply(out, gamma_char(j, a, super_bi_brandt_char(i, j)))
    return out


def enumerate_bidegree_matrices(n: int, m: int) -> list[SupportMatrix]:
    """All support matrices of bidegree exactly (n, m), in the deterministic
    order given by lexicographic sorted support."""
    check_bidegree(n, m)
    cells = [
        (i, j)
        for i in range(n + 1)
        for j in range(m + 1)
        if (i, j) != (0, 0)
    ]

    results: list[SupportMatrix] = []
    chosen: dict[tuple[int, int], int] = {}

    def assign(idx: int, rem_n: int, rem_m: int) -> None:
        if idx == len(cells):
            if rem_n == 0 and rem_m == 0:
                results.append(SupportMatrix(dict(chosen)))
            return
        i, j = cells[idx]
        max_a_n = rem_n // i if i > 0 else None
        max_a_m = rem_m // j if j > 0 else None
        caps = [c for c in (max_a_n, max_a_m) if c is not None]
        max_a = min(caps)
        for a in range(max_a + 1):
            if a > 0:
                chosen[(i, j)] = a
            assign(idx + 1, rem_n - a * i, rem_m - a * j)
            chosen.pop((i, j), None)

    assign(0, n, m)
    results.sort(key=lambda mat: sorted(mat.entries.items()))
    return results


def thrall_routes(n: int, m: int) -> tuple[BiSymFunc, BiSymFunc]:
    """The two sides of the super Thrall decomposition in bidegree (n, m):
    the sum of the higher super Lie module characters, and the tensor-space
    character C(n+m, m) p_1(x)^n p_1(y)^m."""
    lhs = BiSymFunc()
    for matrix in enumerate_bidegree_matrices(n, m):
        lhs = lhs + super_lie_module_char(matrix)
    return lhs, BiSymFunc.term((1,) * n, (1,) * m, binom(n + m, m))


# ---------------------------------------------------------------------------
# brute-force oracle over actual bracketed tensors

_BRUTE_MAX_DIM = 3
# The oracle refuses a bidegree whose left-normed expansions hold more than
# this many terms in all, before expanding any.  Every n + m <= 7 at
# N = M <= 3 is admitted; the largest, (4, 3, 3, 3), has 166,400 terms.
_BRUTE_TERM_BUDGET = 200_000


def _multinomial(counts) -> int:
    """(sum of the counts)! / (product of their factorials)."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def _orbit(parts: tuple, slots: int) -> int:
    """Number of distinct rearrangements of the parts, padded with zeros to
    the given number of slots."""
    return _multinomial(Counter(parts + (0,) * (slots - len(parts))).values())


def _arrangements(counts: list[int]):
    """Every word with these letter counts, as a tuple of generator ids.
    The list is changed while the words are generated and restored after."""
    if not any(counts):
        yield ()
        return
    for g, c in enumerate(counts):
        if c:
            counts[g] -= 1
            for tail in _arrangements(counts):
                yield (g,) + tail
            counts[g] += 1


def _left_normed(word, parities) -> dict:
    """Expand the left-normed bracket [[...[w1, w2], ...], wn] of the word
    into the tensor space, as a map from basis words (tuples of generator
    ids) to integer coefficients.  The super commutator is
    [A, B] = AB - (-1)^(|A||B|) BA.
    """
    tensor = {(word[0],): 1}
    parity = parities[word[0]]
    for letter in word[1:]:
        lp = parities[letter]
        sign = -((-1) ** (parity * lp))
        tensor = collect(
            pair
            for w, c in tensor.items()
            for pair in ((w + (letter,), c), ((letter,) + w, sign * c))
        )
        parity = (parity + lp) % 2
    return tensor


def weight_exponents(alpha, beta, N: int, M: int) -> tuple:
    """The exponent vector of x^alpha y^beta over N even and M odd
    variables: alpha and beta each padded with zeros, then joined."""
    return tuple(alpha) + (0,) * (N - len(alpha)) + tuple(beta) + (0,) * (M - len(beta))


def brute_force_lie_dim(n: int, m: int, N: int, M: int) -> tuple[int, dict]:
    """Dimension of the span of all brackets of words with n even and m odd
    generators, inside the bidegree-(n, m) tensor space, by exact Gaussian
    elimination.  Deliberately independent of every formula here.

    Returns the dimension and the rank of each sorted weight block, a map
    from (alpha, beta) to the dimension of the weight space x^alpha y^beta.

    * Weight blocks.  A bracket of a word lies in the tensor subspace of the
      word's content, so the bidegree is the direct sum of its weight spaces.
      Permuting the even generators among themselves, and the odd ones, is a
      parity-preserving automorphism of the tensor algebra that maps
      brackets to brackets and weight spaces onto weight spaces.  So every
      rearrangement of a weight has the same dimension, and the total is the
      sum over sorted weights of the block rank times the orbit sizes of
      alpha under S_N and of beta under S_M.
    * Left-normed brackets with a fixed first letter span.  The super Jacobi
      identity rewrites any bracket as a sum of left-normed ones, and the
      brackets [x1, x_s(2), ..., x_s(k)] of distinct letters span the
      multilinear part (super Dynkin-Specht-Wever; Bahturin, Mikhalev,
      Petrogradsky and Zaicev, 1992).  A bracket of a word is the image of
      a multilinear bracket under the parity-preserving substitution of its
      letters; naming a position of the block's first letter x1 makes every
      image a left-normed bracket of a word of the same content that begins
      with that letter.  So one block needs only those words.
    * Integer rows.  The expansions have integer coefficients, and
      :class:`~freelie.exactalg.SparseEchelon` reduces them by integer
      combinations a * row - b * pivot row with a != 0, each invertible over
      Q, so its rank is the rank over Q.
    """
    check_bidegree(n, m)
    # every word's bracket has 2^(n+m-1) terms, so a degree whose single
    # word is over the budget is refused before its partitions are listed,
    # even when it has no weight block at all
    if n + m - 1 >= _BRUTE_TERM_BUDGET.bit_length():
        raise ResourceLimitError(
            f"the bracket oracle at ({n}, {m}, {N}, {M}) needs 2^{n + m - 1}"
            f" expansion terms per word, more than {_BRUTE_TERM_BUDGET}"
        )
    if N > _BRUTE_MAX_DIM or M > _BRUTE_MAX_DIM:
        raise ResourceLimitError(f"brute force capped at dimension {_BRUTE_MAX_DIM}")
    if N < 0 or M < 0:
        raise ValueError("dimensions must be >= 0")

    # generators 0..N-1 are even and N..N+M-1 odd; every word of a block
    # begins with the first generator present, 0 if n > 0, else N
    first = 0 if n else N
    blocks = []
    for alpha in partitions_of(n):
        for beta in partitions_of(m):
            if len(alpha) <= N and len(beta) <= M:
                rest = list(weight_exponents(alpha, beta, N, M))
                rest[first] -= 1
                blocks.append((alpha, beta, rest))
    terms = sum(_multinomial(rest) for _, _, rest in blocks) << (n + m - 1)
    if terms > _BRUTE_TERM_BUDGET:
        raise ResourceLimitError(
            f"the bracket oracle at ({n}, {m}, {N}, {M}) needs {terms} expansion terms,"
            f" more than {_BRUTE_TERM_BUDGET}"
        )

    parities = [0] * N + [1] * M
    ranks: dict[tuple[tuple, tuple], int] = {}
    total = 0
    for alpha, beta, rest in blocks:
        echelon = SparseEchelon()
        for tail in _arrangements(rest):
            echelon.add(_left_normed((first,) + tail, parities))
        ranks[(alpha, beta)] = echelon.rank
        total += echelon.rank * _orbit(alpha, N) * _orbit(beta, M)
    return total, ranks


def bracket_oracle_routes(n: int, m: int, N: int) -> tuple[dict, dict]:
    """The two routes of the bracket oracle of the (n, m) piece with N even
    and N odd generators, each a dict with one key "weight alpha|beta" per
    weight block, then "dimension": the bracket ranks of the blocks and
    their total, and the coefficients of x^alpha y^beta in the truncated
    character and the dimension formula."""
    total, blocks = brute_force_lie_dim(n, m, N, N)
    # through the module, so that a substitute installed there reaches it
    char = symfunc.expand_truncated(super_bi_brandt_char(n, m), N, N)
    ranks, formula = {}, {}
    for (alpha, beta), rank in blocks.items():
        weight = f"weight {format_partition(alpha)}|{format_partition(beta)}"
        ranks[weight] = rank
        formula[weight] = char.coefficient(weight_exponents(alpha, beta, N, N))
    ranks["dimension"] = total
    formula["dimension"] = super_witt_dim(n, m, N)
    return ranks, formula
