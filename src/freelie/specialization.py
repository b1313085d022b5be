"""Quasisymmetric and super quasisymmetric expansions, principal
specializations, the q,t-hook product, root-of-unity coefficient extraction,
and the identities that tie the tableau statistics to the Lie superalgebra
characters: each ``*_routes`` function returns an identity's two sides, and
:mod:`freelie.verify` compares them.

Infinite principal-specialization series are compared by truncation at a
configurable q-cap (default 12) with exact coefficients; every comparison is
made per fixed q-degree, so truncation loses nothing at the compared degrees.
The Kraskiewicz-Weyman generating function, the one symmetric function
here with q,t-coefficients, is the dict {lambda: QTPoly} of its Schur
coefficients, and the coefficient-residue extraction operator acts on such
dicts.  It is implemented as exact exponent filtering; the equivalent
root-of-unity average is implemented separately on top of cyclotomic
arithmetic so the two can be checked against each other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations

from .exactalg import (
    CycloElem,
    MultiPoly,
    QTPoly,
    RatLike,
    Rational,
    TermMap,
    add_pairs,
    collect,
    cyclo_reduce,
    q_pochhammer,
    q_pochhammer_quotient,
    qt_key,
    slot_width,
)
from .partition import (
    Partition,
    cells,
    check_partition,
    conjugate,
    hook_lengths,
    partitions_of,
    z_lambda,
)
from .superlie import super_brandt_char
from .symfunc import (
    BiSymFunc,
    SymFunc,
    e_pleth,
    expand_truncated,
    h_pleth,
    multiply,
    schur_expand,
    to_p,
)
from .tableau import (
    comaj_neg_generating_poly,
    maj_neg_generating_poly,
    maj_neg_generating_polys,
    relative_comaj,
    syt_descent_sets,
)

DEFAULT_Q_CAP = 12


# ---------------------------------------------------------------------------
# truncated q,t-series


@lru_cache(maxsize=None)
def _partition_counts(n: int, q_cap: int) -> tuple[int, ...]:
    """The number of partitions of k into parts <= n, for k = 0..q_cap: one
    running sum per part size."""
    counts = [1] + [0] * q_cap
    for part in range(1, n + 1):
        for k in range(part, q_cap + 1):
            counts[k] += counts[k - part]
    return tuple(counts)


class SpecSeries(TermMap):
    """Series in q and t truncated at a fixed maximal q-exponent.

    Terms map (q-exponent, t-exponent) to rationals; anything with q-exponent
    above the cap is dropped on every operation.  Two series are compared
    termwise, which is meaningful only at a shared cap; mixing caps raises.
    """

    __slots__ = ("q_cap",)
    _layout = ("q_cap",)

    def __init__(self, q_cap: int, terms: Mapping[tuple[int, int], RatLike] | None = None):
        if q_cap < 0:
            raise ValueError(f"q_cap must be >= 0, got {q_cap}")
        self.q_cap = q_cap
        self._fill(terms, self._capped_key)

    def _capped_key(self, key) -> tuple[int, int] | None:
        key = qt_key(key)
        return key if key[0] <= self.q_cap else None

    @classmethod
    def from_qtpoly(cls, p: QTPoly, q_cap: int) -> SpecSeries:
        return cls(q_cap, dict(p.items()))

    @classmethod
    def inv_pochhammer(cls, n: int, q_cap: int) -> SpecSeries:
        """1/(q;q)_n truncated: the coefficient of q^k counts the partitions
        of k into parts <= n (memoized per (n, q_cap))."""
        return cls(q_cap, {(k, 0): c for k, c in enumerate(_partition_counts(n, q_cap))})

    def _times(self, other: SpecSeries | QTPoly) -> SpecSeries:
        if isinstance(other, QTPoly):
            other = SpecSeries.from_qtpoly(other, self.q_cap)
        return self._product(other, add_pairs, lambda k: k[0] <= self.q_cap)

    def __str__(self) -> str:
        return str(QTPoly(self._terms)) + f" + O(q^{self.q_cap + 1})"


# ---------------------------------------------------------------------------
# quasisymmetric expansions in finitely many variables


def _qsym_enumerate(n: int, d, letters, nx: int, ny: int) -> MultiPoly:
    """Sum of monomials over weakly increasing length-n sequences from the
    ordered signed alphabet, subject to: equal adjacent unbarred letters at
    position i force i not in D, equal adjacent barred letters force i in D.
    ``letters`` is the ordered list of (value, barred) pairs."""
    d = frozenset(d)
    words: list[tuple[int, ...]] = []
    exp = [0] * (nx + ny)

    def rec(pos: int, min_idx: int) -> None:
        if pos == n:
            words.append(tuple(exp))
            return
        for idx in range(min_idx, len(letters)):
            value, barred = letters[idx]
            # idx == min_idx past position 0 means this letter repeats the
            # previous one, constraining position pos (1-based)
            if pos > 0 and idx == min_idx and barred != (pos in d):
                continue
            slot = nx + value - 1 if barred else value - 1
            exp[slot] += 1
            rec(pos + 1, idx)
            exp[slot] -= 1

    rec(0, 0)
    return MultiPoly(nx, ny, collect((w, 1) for w in words))


def super_qsym_truncated(n: int, d, N: int, M: int) -> MultiPoly:
    """Two-alphabet quasisymmetric polynomial over the ordered alphabet
    1 < 1' < 2 < 2' < ... truncated to N unbarred and M barred letters.
    Mixed adjacent pairs are strictly increasing in the alphabet order and
    hence never constrained.  At M = 0 this is the fundamental
    quasisymmetric polynomial in x_1..x_N."""
    if n < 1:
        raise ValueError("need n >= 1")
    letters = []
    for v in range(1, max(N, M) + 1):
        if v <= N:
            letters.append((v, False))
        if v <= M:
            letters.append((v, True))
    return _qsym_enumerate(n, d, letters, N, M)


def super_schur_truncated(lam: Partition, N: int, M: int) -> MultiPoly:
    """Two-alphabet Schur polynomial as the sum of super quasisymmetric
    polynomials over the descent sets of standard tableaux of the shape."""
    lam = check_partition(lam)
    n = sum(lam)
    out = MultiPoly(N, M)
    for d in syt_descent_sets(lam):
        out = out + super_qsym_truncated(n, d, N, M)
    return out


def super_power_sum_truncated(lam: Partition, N: int, M: int) -> MultiPoly:
    """prod_j (p_{lam_j}(x) + (-1)^(lam_j + 1) p_{lam_j}(y)) in N + M variables."""
    lam = check_partition(lam)
    out = MultiPoly.const(N, M, 1)
    for part in lam:
        px = expand_truncated(SymFunc.term((part,)), N, M)
        py = expand_truncated(BiSymFunc.term((), (part,)), N, M)
        out = out * (px + py * Rational((-1) ** (part + 1)))
    return out


def super_cauchy_routes(n: int, N: int, M: int) -> tuple[MultiPoly, MultiPoly]:
    """The two sides of the two-alphabet Cauchy identity in degree n, in N + M
    variables: sum_lam s_lam(x) stilde_lam and sum_lam p_lam(x) ptilde_lam / z_lam."""
    if n < 1:
        raise ValueError("need n >= 1")
    lhs = MultiPoly(N, M)
    rhs = MultiPoly(N, M)
    for lam in partitions_of(n):
        s_poly = expand_truncated(to_p({lam: 1}), N, M)
        if s_poly:
            lhs = lhs + s_poly * super_schur_truncated(lam, N, M)
        p_poly = expand_truncated(SymFunc.term(lam), N, M)
        rhs = rhs + (p_poly * super_power_sum_truncated(lam, N, M)) * Rational(1, z_lambda(lam))
    return lhs, rhs


# ---------------------------------------------------------------------------
# principal specializations


@lru_cache(maxsize=None)
def _word_counts(n: int, d: frozenset, q_cap: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """((q-weight, bar count), number of words) for the admissible words of
    length n whose q-weight fits under q_cap, by a forward transfer over
    positions.  Letter (v, barred) has index 2(v - 1) + barred and q-weight
    v - 1; the state maps (weight used, bars used) to the prefix counts by
    last letter.  A letter follows any smaller one, and repeats the last one
    at position pos exactly when it is barred iff pos is in D, so one running
    sum over the letters makes each transfer.  Letter v is placed only if
    used + (v-1)*remaining fits under the cap, as no later letter weighs less."""
    size = 2 * (q_cap + 1)
    rows: dict[tuple[int, int], list[int]] = {}
    for i in range(2 * (q_cap // n + 1)):
        rows.setdefault((i >> 1, i & 1), [0] * size)[i] = 1
    for pos in range(1, n):
        remaining = n - pos
        repeat_barred = int(pos in d)
        nxt: dict[tuple[int, int], list[int]] = {}
        for (used, bars), row in rows.items():
            running = 0
            for i in range(2 * ((q_cap - used) // remaining + 1)):
                c = row[i]
                into = running + c if (i & 1) == repeat_barred else running
                running += c
                if into:
                    key = (used + (i >> 1), bars + (i & 1))
                    target = nxt.get(key)
                    if target is None:
                        target = nxt[key] = [0] * size
                    target[i] += into
        rows = nxt
    return tuple((key, sum(row)) for key, row in rows.items())


def qsym_principal_spec(n: int, d, q_cap: int) -> SpecSeries:
    """Principal specialization x_i = q^(i-1), y_i = t q^(i-1) of the
    two-alphabet quasisymmetric function, truncated at q_cap: the admissible
    words over the full signed alphabet whose total q-weight fits under the
    cap, counted by (q-weight, bar count) with an integer DP over positions
    (memoized per (n, D, q_cap); each call builds a fresh series)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return SpecSeries(q_cap, dict(_word_counts(n, frozenset(d), q_cap)))


def qps_routes(n: int, d, q_cap: int) -> tuple[SpecSeries, SpecSeries]:
    """The principal specialization of the quasisymmetric function of one
    descent set, truncated at q_cap, along two routes: the word enumeration,
    and the formula (sum over S subsets of [n] of q^comaj(D,S) t^|S|) / (q;q)_n."""
    d = frozenset(d)
    subsets = QTPoly(
        collect(
            ((relative_comaj(d, set(chosen), n), size), 1)
            for size in range(n + 1)
            for chosen in combinations(range(1, n + 1), size)
        )
    )
    return qsym_principal_spec(n, d, q_cap), SpecSeries.inv_pochhammer(n, q_cap) * subsets


# ---------------------------------------------------------------------------
# the q,t-hook product


def hook_product(lam: Partition) -> QTPoly:
    """[n]_q! * prod over cells (q^(row-1) + t q^(col-1)) / [hook]_q, as an
    exact polynomial.  [n]_q! / prod [hook]_q = (q;q)_n / prod (1 - q^hook)
    is a product of cyclotomic polynomials, so nothing is divided.  That
    quotient is the maj generating polynomial of the standard tableaux of
    lam up to a power of q, so its coefficients are nonnegative and sum to
    f^lam, and the product's sum to f^lam * 2^n.  The product therefore runs
    on one packed ``int`` (:meth:`~freelie.exactalg.QTPoly.pack`) with slots
    of that many bits, and each cell is two shifts and an add."""
    lam = check_partition(lam)
    n = sum(lam)
    quotient = q_pochhammer_quotient(n, hook_lengths(lam))
    total = sum(quotient) << n
    base, width = n + 1, slot_width(total)
    acc = QTPoly({(a, 0): v for a, v in enumerate(quotient)}).pack(base, width)
    q_shift = base * width
    for r, c in cells(lam):
        acc = (acc << (r - 1) * q_shift) + (acc << (c - 1) * q_shift + width)
    return QTPoly.unpack(acc, base, width, total)


@lru_cache(maxsize=None)
def _schur_principal_spec(lam: Partition, q_cap: int) -> SpecSeries:
    """The specialized tableau expansion: sum over standard tableaux T of the
    principal specialization of the quasisymmetric function of Des(T), one
    specialization per distinct descent set, times its number of tableaux."""
    acc = SpecSeries(q_cap, {})
    for d, k in Counter(syt_descent_sets(lam)).items():
        acc = acc + qsym_principal_spec(sum(lam), d, q_cap).scale(k)
    return acc


def s_ps_routes(
    lam: Partition,
    q_cap: int = DEFAULT_Q_CAP,
    *,
    maj_poly: QTPoly | None = None,
    comaj_poly: QTPoly | None = None,
) -> tuple[tuple[QTPoly, SpecSeries], tuple[QTPoly, SpecSeries]]:
    """Two facts about the principal specialization of the two-alphabet Schur
    function, as (maj polynomial, specialized tableau expansion) against
    (comaj polynomial, maj polynomial / (q;q)_n): the comaj and maj
    sign-generating polynomials agree, and the specialized tableau expansion
    equals that polynomial over (q;q)_n.  A sweep over every shape of n
    passes the two polynomials of the shape, read off its tables of n once;
    either one left out is computed for the shape alone."""
    lam = check_partition(lam)
    if maj_poly is None:
        maj_poly = maj_neg_generating_poly(lam)
    if comaj_poly is None:
        comaj_poly = comaj_neg_generating_poly(lam)
    return (maj_poly, _schur_principal_spec(lam, q_cap)), (
        comaj_poly,
        SpecSeries.inv_pochhammer(sum(lam), q_cap) * maj_poly,
    )


def qt_hook_routes(lam: Partition, q_cap: int = DEFAULT_Q_CAP) -> tuple[SpecSeries, SpecSeries]:
    """(q;q)_n times the specialized tableau expansion, and the hook product,
    as truncated series."""
    lam = check_partition(lam)
    lhs = _schur_principal_spec(lam, q_cap) * q_pochhammer(sum(lam))
    return lhs, SpecSeries.from_qtpoly(hook_product(lam), q_cap)


# ---------------------------------------------------------------------------
# root-of-unity evaluations


def pi_lambda(lam: Partition) -> list[int]:
    """(q;q)_n / prod_i (1 - q^(lam_i)) as integer coefficients, constant
    term first, computed without division."""
    lam = check_partition(lam)
    if not lam:
        raise ValueError("need a nonempty partition")
    return q_pochhammer_quotient(sum(lam), lam)


def pi_root_routes(lam: Partition, d: int) -> tuple[CycloElem, CycloElem]:
    """The quotient at a primitive d-th root of unity (d | n), and its closed
    value: zero unless the partition is rectangular with all parts d, where
    it is z_lambda."""
    lam = check_partition(lam)
    n = sum(lam)
    if d < 1 or n % d != 0:
        raise ValueError(f"need d | n: d={d}, n={n}")
    expected = z_lambda(lam) if lam == (d,) * (n // d) else 0
    return cyclo_reduce(pi_lambda(lam), d), CycloElem.from_rational(d, expected)


def omega_extract(f: dict[Partition, QTPoly], r: int, s: int = 1) -> dict[Partition, QTPoly]:
    """Keep the monomials of every q,t-coefficient of ``f``, a dict
    {lambda: QTPoly}, whose q-exponent is congruent to s mod r, then set
    q = 1 (exact exponent filtering); coefficients that vanish are dropped."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return {lam: v for lam, c in f.items() if (v := c.filter_q_residue(r, s).eval_q_one())}


@lru_cache(maxsize=None)
def _root_sum(r: int, j: int) -> RatLike:
    """The sum of zeta^(kj) over k = 1..r for a primitive r-th root zeta, as
    q^(kj mod r) reduced modulo Phi_r, asserted rational; it depends only on
    j mod r (memoized per (r, j mod r))."""
    powers = [0] * r
    for k in range(1, r + 1):
        powers[k * j % r] += 1
    return cyclo_reduce(powers, r).rational_value()


def omega_extract_roots(f: dict[Partition, QTPoly], r: int, s: int = 1) -> dict[Partition, QTPoly]:
    """The same operator as a root-of-unity average, (1/r) sum over r-th
    roots zeta of zeta^(-s) f(q=zeta), computed with exact cyclotomic
    arithmetic: the term q^a t^b contributes the sum of zeta^(k(a - s)) over
    the roots, one cyclotomic reduction per (r, (a - s) mod r), and each
    power of t is divided by r once."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")

    def average(c: QTPoly) -> QTPoly:
        sums: dict[int, RatLike] = {}
        for (a, b), v in c.terms.items():
            total = _root_sum(r, (a - s) % r)
            if total:
                sums[b] = sums.get(b, 0) + total * v
        return QTPoly({(0, b): x * Rational(1, r) for b, x in sums.items()})

    return {lam: v for lam, c in f.items() if (v := average(c))}


# ---------------------------------------------------------------------------
# the multiplicity pipeline


def kw_generating_function(n_total: int, up_to: int | None = None) -> dict[Partition, QTPoly]:
    """The Kraskiewicz-Weyman generating function sum over shapes lambda of
    n_total of (sum over signed standard tableaux T of q^maj t^negg) s_lambda,
    as the dict {lambda: that (maj, bar count) generating polynomial}, from
    the DP up to ``up_to``, as
    :func:`~freelie.tableau.maj_neg_generating_polys` takes it."""
    if n_total < 1:
        raise ValueError("need n_total >= 1")
    return maj_neg_generating_polys(n_total, up_to)


@lru_cache(maxsize=None)
def _kw_filtered(total: int, up_to: int | None) -> dict[Partition, QTPoly]:
    """The q-exponents congruent to 1 mod total of the generating function,
    at q = 1: shared by every bidegree of the total."""
    return omega_extract(kw_generating_function(total, up_to), total, 1)


def kw_routes(n: int, m: int, up_to: int | None = None) -> tuple[dict, dict]:
    """The Schur multiplicities {lambda: c} of the bidegree-(n, m) character
    along two routes: the tableau count (the q-exponents congruent to 1 mod
    n+m of the generating function, then the t^m coefficient), and the Schur
    expansion of the character.  A sweep over the totals up to ``up_to``
    passes it, so that the tableau DP runs once."""
    filtered = _kw_filtered(n + m, up_to)
    counts = {lam: c for lam, poly in filtered.items() if (c := poly.terms.get((0, m)))}
    return counts, schur_expand(super_brandt_char(n, m))


# ---------------------------------------------------------------------------
# residue-class counting symmetries


def half_if_even(m: int) -> int:
    """m/2 for even m, 0 for odd m."""
    return m // 2 if m % 2 == 0 else 0


def symmetry_counts(
    lam: Partition, r_total: int, m: int, up_to: int | None = None
) -> dict[int, int]:
    """For each residue s mod r_total, the number of signed standard tableaux
    of the shape with maj congruent to s and exactly m bars, read off the
    DP of every shape of every size up to ``up_to`` (the size of lam by
    default), which the shapes of a sweep share."""
    if r_total < 1:
        raise ValueError(f"r_total must be >= 1, got {r_total}")
    lam = check_partition(lam)
    poly = maj_neg_generating_polys(sum(lam), up_to)[lam]
    counts = {s: 0 for s in range(r_total)}
    for (a, b), c in poly.terms.items():  # summing needs no term order
        if b == m:
            counts[a % r_total] += int(c)
    return counts


# ---------------------------------------------------------------------------
# degree-two plethysms


def degree_two_routes(d: int) -> tuple[tuple, tuple]:
    """Three closed-form facts about degree-two building blocks, returned as
    the three computed sides and the three closed forms, two Schur
    expansions and a symmetric function:

    (a) the d-th symmetric power of the antisymmetric square expands into
        Schur functions over shapes of 2d with all column lengths even;
    (b) the d-th symmetric power of the symmetric square expands over shapes
        with all parts even;
    (c) the d-th exterior power of the (1,1) bidegree character equals the
        convolution sum_k e_k[h_2] e_{d-k}[e_2].
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    anti = super_brandt_char(2, 0)  # (p_11 - p_2)/2
    symm = super_brandt_char(0, 2)  # (p_11 + p_2)/2

    got_a = schur_expand(h_pleth(d, anti))
    want_a = {mu: 1 for mu in partitions_of(2 * d) if all(col % 2 == 0 for col in conjugate(mu))}
    got_b = schur_expand(h_pleth(d, symm))
    want_b = {mu: 1 for mu in partitions_of(2 * d) if all(part % 2 == 0 for part in mu)}

    lhs_c = e_pleth(d, super_brandt_char(1, 1))
    rhs_c = SymFunc()
    for k in range(d + 1):
        rhs_c = rhs_c + multiply(e_pleth(k, symm), e_pleth(d - k, anti))
    return (got_a, got_b, lhs_c), (want_a, want_b, rhs_c)
