"""The identity-verification suites and their registry.

A check computes one identity along two independent routes and compares them
with ``==``; a suite is a sweep of checks over bounded parameters.  The
registry :data:`SUITES` holds every suite's bounds in the two reproducible
profiles, ``full`` (the acceptance criteria) and ``quick``, and the override
names that bound it.  An override is an upper bound on every check of the
suite: it sets the first parameter it names and caps the others at its
value.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import cyclic, specialization, superlie, symfunc, tableau
from .exactalg import QTPoly, Record, TermMap, collect
from .partition import format_partition, partitions_of
from .symfunc import SymFunc


class UsageError(Exception):
    pass


class CheckReport(Record):
    """Outcome of one verification check, serializable to JSON.

    ``lhs``/``rhs`` carry printable renderings of the two computation routes;
    ``first_discrepancy`` is populated only when the check failed.
    """

    __slots__ = ("check", "parameters", "ok", "lhs", "rhs", "first_discrepancy")
    __hash__ = None

    def __init__(
        self,
        check: str,
        parameters: dict,
        ok: bool,
        lhs: object = None,
        rhs: object = None,
        first_discrepancy: object = None,
    ):
        self.check = check
        self.parameters = parameters
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs
        self.first_discrepancy = first_discrepancy

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
        }
        for key in ("lhs", "rhs", "first_discrepancy"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


def _bidegrees(max_total: int, min_total: int = 1) -> list[tuple[int, int]]:
    """(n, m) with min_total <= n + m <= max_total, by total, then by m."""
    return [(t - m, m) for t in range(min_total, max_total + 1) for m in range(t + 1)]


def _equal_gcd_pairs(total: int, shift: int) -> list[tuple[int, int]]:
    """Residues r < s in 1..total with gcd(r + shift, total) = gcd(s + shift, total)."""
    return [
        (r, s)
        for r in range(1, total + 1)
        for s in range(r + 1, total + 1)
        if math.gcd(r + shift, total) == math.gcd(s + shift, total)
    ]


def _render(route) -> str:
    """A route as a failed check prints it: a tuple's values joined by "; ",
    a dict as {key: value, ...}, anything else by str()."""
    if isinstance(route, tuple):
        return "; ".join(map(_render, route))
    if isinstance(route, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in route.items()) + "}"
    return str(route)


def _first_difference(lhs, rhs):
    """Where two unequal routes first differ, or None if that cannot be named:
    the first key of two term maps (in their canonical order) or of two dicts
    (in their own order), and for two tuples the index of the first unequal
    pair, with where that pair differs."""
    if isinstance(lhs, TermMap) and type(rhs) is type(lhs):
        return lhs.first_difference(rhs)
    if isinstance(lhs, dict) and isinstance(rhs, dict):
        keys = [*lhs, *(k for k in rhs if k not in lhs)]
        return next((k for k in keys if lhs.get(k) != rhs.get(k)), None)
    if isinstance(lhs, tuple) and isinstance(rhs, tuple):
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            if a != b:
                where = _first_difference(a, b)
                return i if where is None else (i, where)
    return None


def _equality(check: str, parameters: dict, lhs, rhs, case: str | None = None) -> CheckReport:
    """Compare two routes with ==.  On a failure both are rendered and the
    first key where they differ is named, after ``case``, which names the
    failing case when the routes are one case of many."""
    if lhs == rhs:
        return CheckReport(check, parameters, True)
    where = ", at ".join(str(x) for x in (case, _first_difference(lhs, rhs)) if x is not None)
    return CheckReport(check, parameters, False, _render(lhs), _render(rhs), where or None)


def _bracket_oracle(n: int, m: int, N: int, expected: int) -> tuple[int, str | None]:
    """Bracket rank of the (n, m) piece with N even and N odd generators, and
    the first disagreement, or None: a weight block whose rank differs from
    the coefficient of x^alpha y^beta in the truncated character, else a
    total rank that differs from the dimension formula's ``expected``."""
    rank, blocks = superlie.brute_force_lie_dim(n, m, N, N)
    char = symfunc.expand_truncated(superlie.super_bi_brandt_char(n, m), N, N)
    for (alpha, beta), block_rank in blocks.items():
        coeff = char.coefficient(superlie.weight_exponents(alpha, beta, N, N))
        if block_rank != coeff:
            weight = f"{format_partition(alpha)}|{format_partition(beta)}"
            return rank, f"weight {weight}: rank {block_rank}, character coefficient {coeff}"
    if rank != expected:
        return rank, f"rank {rank}, dimension formula {expected}"
    return rank, None


# ---------------------------------------------------------------------------
# the suites: each returns a list of CheckReports


def suite_brandt_diagonal(max_total: int) -> list[CheckReport]:
    """Diagonal restriction of the two-alphabet character formula equals the
    one-alphabet formula, and the Schur expansion is a genuine character
    (nonnegative integer multiplicities)."""
    reports = []
    for n, m in _bidegrees(max_total):
        lhs = symfunc.diagonal(superlie.super_bi_brandt_char(n, m))
        rhs = superlie.super_brandt_char(n, m)
        reports.append(_equality("brandt-diagonal", {"n": n, "m": m}, lhs, rhs))
        # one route: a character's Schur multiplicities are nonnegative integers
        expansion = symfunc.schur_expand(rhs)
        bad = symfunc.first_bad_multiplicity(expansion)
        reports.append(
            CheckReport(
                "schur-positivity",
                {"n": n, "m": m},
                bad is None,
                lhs=None if bad is None else str(expansion),
                first_discrepancy=None
                if bad is None
                else f"s_{format_partition(bad)}: {expansion.coefficient(bad)}",
            )
        )
    return reports


def suite_petrogradsky(max_n: int, max_m: int) -> list[CheckReport]:
    """Log-series expansion of the full graded character agrees with the
    closed per-bidegree formula."""
    series = superlie.petrogradsky_series(max_n, max_m)
    return [
        _equality(
            "petrogradsky-series",
            {"n": n, "m": m},
            component,
            superlie.super_bi_brandt_char(n, m),
        )
        for (n, m), component in sorted(series.items())
    ]


def suite_witt_oracle(
    max_total: int, max_dim: int, brute_max_total: int, brute_max_dim: int
) -> list[CheckReport]:
    """Dimension formula vs character specialization at x = 1, and vs the
    brute-force rank of actual bracketed tensors."""
    reports = []
    for n, m in _bidegrees(max_total):
        char = superlie.super_brandt_char(n, m)
        for N in range(0, max_dim + 1):
            expected = superlie.super_witt_dim(n, m, N)
            via_char = symfunc.expand_truncated(char, N).eval_all_ones()
            reports.append(
                CheckReport(
                    "witt-vs-specialization",
                    {"n": n, "m": m, "N": N},
                    Fraction(expected) == via_char,
                    lhs=str(via_char),
                    rhs=str(expected),
                )
            )
    for n, m in _bidegrees(brute_max_total):
        for N in range(1, brute_max_dim + 1):
            expected = superlie.super_witt_dim(n, m, N)
            rank, discrepancy = _bracket_oracle(n, m, N, expected)
            reports.append(
                CheckReport(
                    "witt-vs-bracket-rank",
                    {"n": n, "m": m, "N": N},
                    discrepancy is None,
                    lhs=str(rank),
                    rhs=str(expected),
                    first_discrepancy=discrepancy,
                )
            )
    return reports


def suite_thrall(max_total: int) -> list[CheckReport]:
    """Higher module characters sum to the tensor-space character."""
    return [
        _equality("thrall-sum", {"n": n, "m": m}, *superlie.thrall_routes(n, m))
        for n, m in _bidegrees(max_total)
    ]


def suite_klyachko(max_n: int, oracle_max_r: int, chi_cyc_max_total: int) -> list[CheckReport]:
    """Classical single-row case via induction, the induction shortcut vs the
    brute-force induced character, and the subset-rotation character vs orbit
    counting."""
    reports = []
    for n in range(1, max_n + 1):
        lhs = cyclic.induce_frobenius(cyclic.chi_power(n, 1))
        rhs = superlie.super_brandt_char(n, 0)
        reports.append(
            CheckReport(
                "klyachko-classical",
                {"n": n},
                lhs == rhs,
                lhs=str(lhs),
                rhs=str(rhs),
            )
        )
    for r in range(1, oracle_max_r + 1):
        for k0 in range(1, r + 1):
            chi = cyclic.chi_power(r, k0)
            direct = cyclic.induce_frobenius(chi)
            via_oracle = symfunc.frobenius_characteristic(cyclic.induce_oracle(chi))
            reports.append(
                CheckReport(
                    "induction-vs-oracle",
                    {"r": r, "k0": k0},
                    direct == via_oracle,
                    lhs=str(via_oracle),
                    rhs=str(direct),
                )
            )
    for n, m in _bidegrees(chi_cyc_max_total):
        # the values at generator powers k = 1..n+m
        fast = dict(enumerate(cyclic.chi_cyc(n, m).values, 1))
        slow = dict(enumerate(cyclic.chi_cyc_oracle(n, m).values, 1))
        reports.append(_equality("subset-rotation-character", {"n": n, "m": m}, fast, slow))
    return reports


def suite_super_klyachko(max_total: int) -> list[CheckReport]:
    """Twisted-induction description equals the power-sum formula."""
    return [
        _equality(
            "super-klyachko",
            {"n": n, "m": m},
            cyclic.super_klyachko_char(n, m),
            superlie.super_brandt_char(n, m),
        )
        for n, m in _bidegrees(max_total)
    ]


def suite_hook(max_n: int) -> list[CheckReport]:
    """q,t-hook product equals the (maj, bar count) generating polynomial,
    and its t = 0 slice is the classical maj generating polynomial."""
    reports = []
    for n in range(1, max_n + 1):
        gens = tableau.maj_neg_generating_polys(n)
        for lam in partitions_of(n):
            product = specialization.hook_product(lam)
            reports.append(
                _equality("hook-formula", {"partition": format_partition(lam)}, gens[lam], product)
            )
            classical = QTPoly(collect(((sum(d), 0), 1) for d in tableau.syt_descent_sets(lam)))
            t0_slice = QTPoly({k: c for k, c in product.items() if k[1] == 0})
            reports.append(
                _equality(
                    "hook-classical-slice",
                    {"partition": format_partition(lam)},
                    classical,
                    t0_slice,
                )
            )
    return reports


def suite_qps(max_n: int, q_cap: int) -> list[CheckReport]:
    """Principal specialization formula for every descent set."""
    reports = []
    for n in range(1, max_n + 1):
        positions = list(range(1, n))
        for mask in range(1 << len(positions)):
            d = {positions[i] for i in range(len(positions)) if mask >> i & 1}
            reports.append(
                _equality(
                    "qsym-principal-specialization",
                    {"n": n, "D": sorted(d), "q_cap": q_cap},
                    *specialization.qps_routes(n, d, q_cap),
                )
            )
    return reports


def suite_sps(max_n: int, q_cap: int, qt_hook_max_n: int) -> list[CheckReport]:
    """Principal specialization of the two-alphabet Schur functions: maj and
    comaj equidistribution plus the series identity, and the numerical check
    of the closed hook-product specialization."""
    reports = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            reports.append(
                _equality(
                    "schur-principal-specialization",
                    {"partition": format_partition(lam), "q_cap": q_cap},
                    *specialization.s_ps_routes(lam, q_cap),
                )
            )
    for n in range(1, qt_hook_max_n + 1):
        for lam in partitions_of(n):
            reports.append(
                _equality(
                    "qt-hook-specialization",
                    {"partition": format_partition(lam), "q_cap": q_cap},
                    *specialization.qt_hook_routes(lam, q_cap),
                )
            )
    return reports


def suite_cauchy(max_n: int, N: int, M: int) -> list[CheckReport]:
    """The two-alphabet Cauchy identity in each degree, in N + M variables."""
    return [
        _equality(
            "super-cauchy",
            {"n": n, "N": N, "M": M},
            *specialization.super_cauchy_routes(n, N, M),
        )
        for n in range(1, max_n + 1)
    ]


def suite_reu(max_n: int) -> list[CheckReport]:
    """Root-of-unity values of the hook-length-style quotient pi_lambda."""
    reports = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                reports.append(
                    _equality(
                        "pi-root",
                        {"partition": format_partition(lam), "d": d},
                        *specialization.pi_root_routes(lam, d),
                    )
                )
    return reports


def suite_kw(max_total: int, omega_trials: int, omega_max_r: int, seed: int) -> list[CheckReport]:
    """Multiplicity formula for all bidegrees, plus agreement of the two
    implementations of residue extraction on random polynomials."""
    reports = [
        _equality("kw-multiplicity", {"n": n, "m": m}, *specialization.kw_routes(n, m))
        for n, m in _bidegrees(max_total)
    ]

    # one check over all trials: it stops at the first failing trial and
    # names it; if none fails, it compares the last trial's routes
    rng = random.Random(seed)
    by_filter = by_roots = case = None
    for trial in range(omega_trials):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            parts = tuple(
                sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True)
            )
            coeff = QTPoly(
                {
                    (rng.randint(0, 24), rng.randint(0, 4)): Fraction(
                        rng.randint(-9, 9), rng.randint(1, 5)
                    )
                    for _ in range(rng.randint(1, 6))
                }
            )
            if coeff:
                terms[parts] = coeff
        f = SymFunc("p", terms)
        r = rng.randint(1, omega_max_r)
        s = rng.randint(0, r)
        by_filter = specialization.omega_extract(f, r, s)
        by_roots = specialization.omega_extract_roots(f, r, s)
        if by_filter != by_roots:
            case = f"trial {trial}: r = {r}, s = {s}, f = {f}"
            break
    reports.append(
        _equality(
            "omega-filter-vs-roots",
            {"trials": omega_trials, "max_r": omega_max_r, "seed": seed},
            by_filter,
            by_roots,
            case,
        )
    )
    return reports


def suite_symmetry(sym1_max_n: int, sym2_max_total: int, sym3_max_total: int) -> list[CheckReport]:
    """Residue-class counting symmetries of the maj statistic.  Each check
    compares two dicts of tableau counts, keyed by what the symmetry says
    agrees: plain tableaux of a shape of n hold equally many with maj = r and
    maj = s mod n when gcd(r, n) = gcd(s, n) (classical); so do those with m
    bars over shapes of n+m when gcd(r + h, n+m) = gcd(s + h, n+m), where
    h = half_if_even(m) (signed); and for odd n and m, bar counts m and n are
    equidistributed within every maj residue class mod n+m (odd)."""
    reports = []
    for n in range(2, sym1_max_n + 1):
        pairs = _equal_gcd_pairs(n, 0)
        for lam in partitions_of(n):
            counts = specialization.symmetry_counts(lam, n, 0)
            reports.append(
                _equality(
                    "residue-symmetry-classical",
                    {"partition": format_partition(lam)},
                    {(r, s): counts[r % n] for r, s in pairs},
                    {(r, s): counts[s % n] for r, s in pairs},
                )
            )
    for n, m in _bidegrees(sym2_max_total, 2):
        total = n + m
        pairs = _equal_gcd_pairs(total, specialization.half_if_even(m))
        shapes = partitions_of(total)
        counts = {lam: specialization.symmetry_counts(lam, total, m) for lam in shapes}
        by_r = {(lam, r, s): c[r % total] for lam, c in counts.items() for r, s in pairs}
        by_s = {(lam, r, s): c[s % total] for lam, c in counts.items() for r, s in pairs}
        reports.append(_equality("residue-symmetry-signed", {"n": n, "m": m}, by_r, by_s))
    for total in range(2, sym3_max_total + 1):
        for m in range(1, total, 2):
            n = total - m
            if n % 2 == 0 or n < 1:
                continue
            bars_m, bars_n = (
                {
                    (lam, r): c
                    for lam in partitions_of(total)
                    for r, c in specialization.symmetry_counts(lam, total, bars).items()
                }
                for bars in (m, n)
            )
            reports.append(_equality("bar-count-symmetry-odd", {"n": n, "m": m}, bars_m, bars_n))
    return reports


def suite_degree_two(max_d: int) -> list[CheckReport]:
    """Three closed forms of degree-two plethysms, one check per degree."""
    return [
        _equality(
            "degree-two",
            {"d": d},
            *specialization.degree_two_routes(d),
        )
        for d in range(1, max_d + 1)
    ]


# ---------------------------------------------------------------------------
# the registry


class Suite(Record):
    """A registered suite: the function that runs it, its keyword bounds in
    each profile, and its overrides.  ``flags`` maps an override name to the
    parameters it bounds: the first is set to the override's value, and each
    other one is capped at that value."""

    __slots__ = ("run", "profiles", "flags")
    __hash__ = None

    def __init__(self, run, full: dict, quick: dict, flags: dict):
        self.run = run
        self.profiles = {"full": full, "quick": quick}
        self.flags = flags


PROFILES = ("quick", "full")

SUITES = {
    "brandt-diagonal": Suite(
        suite_brandt_diagonal,
        full={"max_total": 8},
        quick={"max_total": 6},
        flags={"max_total": ("max_total",)},
    ),
    "petrogradsky": Suite(
        suite_petrogradsky,
        full={"max_n": 8, "max_m": 8},
        quick={"max_n": 3, "max_m": 3},
        flags={"max_n": ("max_n",), "max_m": ("max_m",)},
    ),
    "witt-oracle": Suite(
        suite_witt_oracle,
        full={"max_total": 6, "max_dim": 3, "brute_max_total": 4, "brute_max_dim": 2},
        quick={"max_total": 5, "max_dim": 2, "brute_max_total": 3, "brute_max_dim": 2},
        flags={"max_total": ("max_total", "brute_max_total")},
    ),
    "thrall": Suite(
        suite_thrall,
        full={"max_total": 5},
        quick={"max_total": 4},
        flags={"max_total": ("max_total",)},
    ),
    "klyachko": Suite(
        suite_klyachko,
        full={"max_n": 8, "oracle_max_r": 6, "chi_cyc_max_total": 10},
        quick={"max_n": 6, "oracle_max_r": 4, "chi_cyc_max_total": 8},
        flags={"max_n": ("max_n", "oracle_max_r", "chi_cyc_max_total")},
    ),
    "super-klyachko": Suite(
        suite_super_klyachko,
        full={"max_total": 8},
        quick={"max_total": 6},
        flags={"max_total": ("max_total",)},
    ),
    "hook": Suite(
        suite_hook,
        full={"max_n": 8},
        quick={"max_n": 6},
        flags={"max_n": ("max_n",)},
    ),
    "qps": Suite(
        suite_qps,
        full={"max_n": 5, "q_cap": 12},
        quick={"max_n": 4, "q_cap": 10},
        flags={"max_n": ("max_n",), "q_cap": ("q_cap",)},
    ),
    "sps": Suite(
        suite_sps,
        full={"max_n": 6, "q_cap": 12, "qt_hook_max_n": 5},
        quick={"max_n": 4, "q_cap": 10, "qt_hook_max_n": 4},
        flags={"max_n": ("max_n", "qt_hook_max_n"), "q_cap": ("q_cap",)},
    ),
    "cauchy": Suite(
        suite_cauchy,
        full={"max_n": 5, "N": 2, "M": 2},
        quick={"max_n": 4, "N": 2, "M": 2},
        flags={"max_n": ("max_n",)},
    ),
    "reu": Suite(
        suite_reu,
        full={"max_n": 8},
        quick={"max_n": 6},
        flags={"max_n": ("max_n",)},
    ),
    # omega_max_r is a modulus, not a degree, so max_total leaves it alone
    "kw": Suite(
        suite_kw,
        full={"max_total": 8, "omega_trials": 100, "omega_max_r": 12, "seed": 2025},
        quick={"max_total": 6, "omega_trials": 25, "omega_max_r": 8, "seed": 2025},
        flags={"max_total": ("max_total",)},
    ),
    "symmetry": Suite(
        suite_symmetry,
        full={"sym1_max_n": 7, "sym2_max_total": 7, "sym3_max_total": 8},
        quick={"sym1_max_n": 5, "sym2_max_total": 5, "sym3_max_total": 6},
        flags={},
    ),
    "degree-two": Suite(
        suite_degree_two,
        full={"max_d": 4},
        quick={"max_d": 3},
        flags={"max_d": ("max_d",)},
    ),
}


def run_suite(name: str, profile: str = "full", overrides: dict | None = None) -> list[CheckReport]:
    """Run one suite (or "all") and return the list of CheckReports.

    An override that none of the selected suites takes, and a run whose
    bounds select no check at all, are usage errors: neither may pass.
    """
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}")
    names = list(SUITES) if name == "all" else [name]
    if any(n not in SUITES for n in names):
        raise UsageError(f"unknown suite {name!r}")
    overrides = overrides or {}
    unused = set(overrides).difference(*(SUITES[n].flags for n in names))
    if unused:
        raise UsageError(f"{', '.join(sorted(unused))} does not apply to suite {name!r}")
    reports: list[CheckReport] = []
    for n in names:
        suite = SUITES[n]
        bounds = dict(suite.profiles[profile])
        for flag, value in overrides.items():
            if flag in suite.flags:
                first, *capped = suite.flags[flag]
                bounds[first] = value
                bounds.update((p, min(bounds[p], value)) for p in capped)
        reports.extend(suite.run(**bounds))
    if not reports:
        raise UsageError(f"these bounds select no checks in suite {name!r}")
    return reports
