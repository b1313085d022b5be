"""The identity-verification suites and their registry.

A check computes one identity along two independent routes.  A suite is a
generator over bounded parameters that yields each of its checks as
(check, parameters, lhs, rhs); a check that stands for many cases adds the
case it stopped at as a fifth item.  :func:`run_suite` alone compares them,
with ``==`` in :func:`_equality`, which returns the check's report as the
dict that the CLI prints: ``check``, ``parameters`` and ``status``, so a
passing check shows nothing more and a failed one adds both routes and where
they first differ.  A property with one route, such as Schur positivity,
yields what breaks it (empty when nothing does) against ``{}``.

The registry :data:`SUITES` holds every suite's bounds in the two
reproducible profiles, ``full`` (the acceptance criteria) and ``quick``, and
the override names that bound it.  An override is an upper bound on every
check of the suite: it sets the first parameter it names and caps the others
at its value.
"""

from __future__ import annotations

import math

from . import cyclic, specialization, superlie, symfunc, tableau
from .exactalg import QTPoly, Rational, Record, UsageError, first_difference
from .partition import format_partition, partitions_of


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


def _equality(check: str, parameters: dict, lhs, rhs, case: str | None = None) -> dict:
    """Compare two routes with ==; the check's report is the dict it prints.
    On a failure it holds both routes, rendered, and the first key where they
    differ, after ``case``, which names the failing case when the routes are
    one case of many; ``first_discrepancy`` is left out when neither names
    anything."""
    report = {"check": check, "parameters": parameters, "status": "pass"}
    if lhs == rhs:
        return report
    report.update(status="fail", lhs=_render(lhs), rhs=_render(rhs))
    where = ", at ".join(str(x) for x in (case, first_difference(lhs, rhs)) if x is not None)
    if where:
        report["first_discrepancy"] = where
    return report


# ---------------------------------------------------------------------------
# the suites: each yields (check, parameters, lhs, rhs), and the omega check
# the case it names as a fifth item; run_suite compares them


def suite_brandt_diagonal(max_total: int):
    """Diagonal restriction of the two-alphabet character formula equals the
    one-alphabet formula, and the Schur expansion is a genuine character
    (nonnegative integer multiplicities): its first bad multiplicity, if
    any, against none."""
    for n, m in _bidegrees(max_total):
        lhs = symfunc.diagonal(superlie.super_bi_brandt_char(n, m))
        rhs = superlie.super_brandt_char(n, m)
        yield "brandt-diagonal", {"n": n, "m": m}, lhs, rhs
        expansion = symfunc.schur_expand(rhs)
        bad = symfunc.first_bad_multiplicity(expansion)
        first_bad = {} if bad is None else {f"s_{format_partition(bad)}": expansion[bad]}
        yield "schur-positivity", {"n": n, "m": m}, first_bad, {}


def suite_petrogradsky(max_n: int, max_m: int):
    """Log-series expansion of the full graded character agrees with the
    closed per-bidegree formula."""
    series = superlie.petrogradsky_series(max_n, max_m)
    for (n, m), component in sorted(series.items()):
        closed = superlie.super_bi_brandt_char(n, m)
        yield "petrogradsky-series", {"n": n, "m": m}, component, closed


def suite_witt_oracle(max_total: int, max_dim: int, brute_max_total: int, brute_max_dim: int):
    """Dimension formula vs character specialization at x = 1, and vs the
    brute-force rank of actual bracketed tensors."""
    for n, m in _bidegrees(max_total):
        char = superlie.super_brandt_char(n, m)
        for N in range(0, max_dim + 1):
            via_char = symfunc.expand_truncated(char, N).eval_all_ones()
            expected = superlie.super_witt_dim(n, m, N)
            yield "witt-vs-specialization", {"n": n, "m": m, "N": N}, via_char, expected
    for n, m in _bidegrees(brute_max_total):
        for N in range(1, brute_max_dim + 1):
            routes = superlie.bracket_oracle_routes(n, m, N)
            yield "witt-vs-bracket-rank", {"n": n, "m": m, "N": N}, *routes


def suite_thrall(max_total: int):
    """Higher module characters sum to the tensor-space character."""
    for n, m in _bidegrees(max_total):
        yield "thrall-sum", {"n": n, "m": m}, *superlie.thrall_routes(n, m)


def suite_klyachko(max_n: int, oracle_max_r: int, chi_cyc_max_total: int):
    """Classical single-row case via induction, the induction shortcut vs the
    brute-force induced character, and the subset-rotation character vs orbit
    counting."""
    for n in range(1, max_n + 1):
        lhs = cyclic.induce_frobenius(cyclic.chi_power(n, 1))
        yield "klyachko-classical", {"n": n}, lhs, superlie.super_brandt_char(n, 0)
    for r in range(1, oracle_max_r + 1):
        for k0 in range(1, r + 1):
            chi = cyclic.chi_power(r, k0)
            direct = cyclic.induce_frobenius(chi)
            via_oracle = symfunc.frobenius_characteristic(cyclic.induce_oracle(chi))
            yield "induction-vs-oracle", {"r": r, "k0": k0}, via_oracle, direct
    for n, m in _bidegrees(chi_cyc_max_total):
        # the values at generator powers k = 1..n+m
        fast = dict(enumerate(cyclic.chi_cyc(n, m).values, 1))
        slow = dict(enumerate(cyclic.chi_cyc_oracle(n, m).values, 1))
        yield "subset-rotation-character", {"n": n, "m": m}, fast, slow


def suite_super_klyachko(max_total: int):
    """Twisted-induction description equals the power-sum formula."""
    for n, m in _bidegrees(max_total):
        twisted = cyclic.super_klyachko_char(n, m)
        yield "super-klyachko", {"n": n, "m": m}, twisted, superlie.super_brandt_char(n, m)


def suite_hook(max_n: int):
    """q,t-hook product equals the (maj, bar count) generating polynomial,
    and its t = 0 slice is the classical maj generating polynomial, counted
    over the standard tableaux themselves by one walk that carries maj.
    Every size reads its generating polynomials off the one DP up to max_n,
    priced before the slice walk prices itself."""
    tableau.admit_sweep(max_n)
    slices = tableau.syt_maj_counts(max_n)
    for n in range(1, max_n + 1):
        gens = tableau.maj_neg_generating_polys(n, max_n)
        for lam in partitions_of(n):
            product = specialization.hook_product(lam)
            yield "hook-formula", {"partition": format_partition(lam)}, gens[lam], product
            classical = QTPoly({(a, 0): c for a, c in slices[lam].items()})
            t0_slice = QTPoly({k: c for k, c in product.terms.items() if k[1] == 0})
            yield "hook-classical-slice", {"partition": format_partition(lam)}, classical, t0_slice


def suite_qps(max_n: int, q_cap: int):
    """Principal specialization formula for every descent set."""
    for n in range(1, max_n + 1):
        positions = list(range(1, n))
        for mask in range(1 << len(positions)):
            d = {positions[i] for i in range(len(positions)) if mask >> i & 1}
            routes = specialization.qps_routes(n, d, q_cap)
            yield "qsym-principal-specialization", {"n": n, "D": sorted(d), "q_cap": q_cap}, *routes


def suite_sps(max_n: int, q_cap: int, qt_hook_max_n: int):
    """Principal specialization of the two-alphabet Schur functions: maj and
    comaj equidistribution plus the series identity, and the numerical check
    of the closed hook-product specialization."""
    tableau.admit_sweep(max_n)
    for n in range(1, max_n + 1):
        majs = tableau.maj_neg_generating_polys(n, max_n)
        comajs = tableau.comaj_neg_generating_polys(n)
        for lam in partitions_of(n):
            parameters = {"partition": format_partition(lam), "q_cap": q_cap}
            routes = specialization.s_ps_routes(
                lam, q_cap, maj_poly=majs[lam], comaj_poly=comajs[lam]
            )
            yield "schur-principal-specialization", parameters, *routes
    for n in range(1, qt_hook_max_n + 1):
        for lam in partitions_of(n):
            parameters = {"partition": format_partition(lam), "q_cap": q_cap}
            yield "qt-hook-specialization", parameters, *specialization.qt_hook_routes(lam, q_cap)


def suite_cauchy(max_n: int):
    """The two-alphabet Cauchy identity in each degree, in 2 + 2 variables."""
    N = M = 2
    for n in range(1, max_n + 1):
        yield "super-cauchy", {"n": n, "N": N, "M": M}, *specialization.super_cauchy_routes(n, N, M)


def suite_reu(max_n: int):
    """Root-of-unity values of the hook-length-style quotient pi_lambda."""
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                parameters = {"partition": format_partition(lam), "d": d}
                yield "pi-root", parameters, *specialization.pi_root_routes(lam, d)


def suite_kw(max_total: int, omega_trials: int, omega_max_r: int):
    """Multiplicity formula for all bidegrees, plus agreement of the two
    implementations of residue extraction on random dicts {lambda: QTPoly}."""
    tableau.admit_sweep(max_total)
    for n, m in _bidegrees(max_total):
        yield "kw-multiplicity", {"n": n, "m": m}, *specialization.kw_routes(n, m, max_total)

    # one check over all trials: it stops at the first failing trial and
    # names it; if none fails, it compares the last trial's routes
    import random  # here, so that only a run of this suite pays for the import

    seed = 2025
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
                    (rng.randint(0, 24), rng.randint(0, 4)): Rational(
                        rng.randint(-9, 9), rng.randint(1, 5)
                    )
                    for _ in range(rng.randint(1, 6))
                }
            )
            if coeff:
                terms[parts] = coeff
        r = rng.randint(1, omega_max_r)
        s = rng.randint(0, r)
        by_filter = specialization.omega_extract(terms, r, s)
        by_roots = specialization.omega_extract_roots(terms, r, s)
        if by_filter != by_roots:
            case = f"trial {trial}: r = {r}, s = {s}, f = {_render(terms)}"
            break
    parameters = {"trials": omega_trials, "max_r": omega_max_r, "seed": seed}
    yield "omega-filter-vs-roots", parameters, by_filter, by_roots, case


def suite_symmetry(sym1_max_n: int, sym2_max_total: int, sym3_max_total: int):
    """Residue-class counting symmetries of the maj statistic.  Each check
    compares two dicts of tableau counts, keyed by what the symmetry says
    agrees: plain tableaux of a shape of n hold equally many with maj = r and
    maj = s mod n when gcd(r, n) = gcd(s, n) (classical); so do those with m
    bars over shapes of n+m when gcd(r + h, n+m) = gcd(s + h, n+m), where
    h = half_if_even(m) (signed); and for odd n and m, bar counts m and n are
    equidistributed within every maj residue class mod n+m (odd)."""
    largest = max(sym1_max_n, sym2_max_total, sym3_max_total)
    tableau.admit_sweep(largest)
    for n in range(2, sym1_max_n + 1):
        pairs = _equal_gcd_pairs(n, 0)
        for lam in partitions_of(n):
            counts = specialization.symmetry_counts(lam, n, 0, largest)
            yield (
                "residue-symmetry-classical",
                {"partition": format_partition(lam)},
                {(r, s): counts[r % n] for r, s in pairs},
                {(r, s): counts[s % n] for r, s in pairs},
            )
    for n, m in _bidegrees(sym2_max_total, 2):
        total = n + m
        pairs = _equal_gcd_pairs(total, specialization.half_if_even(m))
        shapes = partitions_of(total)
        counts = {lam: specialization.symmetry_counts(lam, total, m, largest) for lam in shapes}
        by_r = {(lam, r, s): c[r % total] for lam, c in counts.items() for r, s in pairs}
        by_s = {(lam, r, s): c[s % total] for lam, c in counts.items() for r, s in pairs}
        yield "residue-symmetry-signed", {"n": n, "m": m}, by_r, by_s
    for total in range(2, sym3_max_total + 1):
        for m in range(1, total, 2):
            n = total - m
            if n % 2 == 0 or n < 1:
                continue
            bars_m, bars_n = (
                {
                    (lam, r): c
                    for lam in partitions_of(total)
                    for r, c in specialization.symmetry_counts(lam, total, bars, largest).items()
                }
                for bars in (m, n)
            )
            yield "bar-count-symmetry-odd", {"n": n, "m": m}, bars_m, bars_n


def suite_degree_two(max_d: int):
    """Three closed forms of degree-two plethysms, one check per degree."""
    for d in range(1, max_d + 1):
        yield "degree-two", {"d": d}, *specialization.degree_two_routes(d)


# ---------------------------------------------------------------------------
# the registry


class Suite(Record):
    """A registered suite: the generator of its checks, its keyword bounds in
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
        full={"max_n": 5},
        quick={"max_n": 4},
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
        full={"max_total": 8, "omega_trials": 100, "omega_max_r": 12},
        quick={"max_total": 6, "omega_trials": 25, "omega_max_r": 8},
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


def run_suite(name: str, profile: str = "full", overrides: dict | None = None) -> list[dict]:
    """Run one suite (or "all") and return the reports of its checks, as
    :func:`_equality` builds them: the one loop that compares the routes
    every suite yields.

    A negative override, an override that none of the selected suites
    takes, and a run whose bounds select no check at all, are usage errors,
    raised before any suite runs or, for the last, after: none may pass.
    """
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}")
    names = list(SUITES) if name == "all" else [name]
    if any(n not in SUITES for n in names):
        raise UsageError(f"unknown suite {name!r}")
    overrides = overrides or {}
    negative = [f"{flag} = {value}" for flag, value in overrides.items() if value < 0]
    if negative:
        raise UsageError(f"an override must be >= 0: {', '.join(negative)}")
    unused = set(overrides).difference(*(SUITES[n].flags for n in names))
    if unused:
        raise UsageError(f"{', '.join(sorted(unused))} does not apply to suite {name!r}")
    reports: list[dict] = []
    for n in names:
        suite = SUITES[n]
        bounds = dict(suite.profiles[profile])
        for flag, value in overrides.items():
            if flag in suite.flags:
                first, *capped = suite.flags[flag]
                bounds[first] = value
                bounds.update((p, min(bounds[p], value)) for p in capped)
        reports.extend(_equality(*c) for c in suite.run(**bounds))
    if not reports:
        raise UsageError(f"these bounds select no checks in suite {name!r}")
    return reports
