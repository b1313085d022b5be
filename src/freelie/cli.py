"""Command-line surface: compute characters, dimensions and tableau counts,
and run the identity-verification suites.

Exit codes: 0 success, 1 a verified identity failed, 2 usage error, 3 domain
error, 4 resource budget exceeded.

All output is deterministic for fixed flags: partitions, terms and report
rows are always emitted in the canonical orders, and timing information is
only included on request (``--timing``) so that repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import cyclic, specialization, superlie, symfunc, tableau
from .exactalg import CheckReport, QTPoly, Record, ResourceLimitError, collect, render_terms
from .partition import format_partition, parse_partition, partitions_of
from .specialization import DEFAULT_Q_CAP
from .symfunc import SymFunc

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


class UsageError(Exception):
    pass


class RunReport(Record):
    """Envelope for one command invocation, serialized to JSON or text."""

    __slots__ = ("command", "parameters", "status", "payload", "elapsed_ms")
    __hash__ = None

    def __init__(self, command: str, parameters: dict, status: str, payload: dict):
        self.command = command
        self.parameters = parameters
        self.status = status
        self.payload = payload
        self.elapsed_ms = None  # set under --timing

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "payload": self.payload,
        }
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out


# ---------------------------------------------------------------------------
# rendering helpers


def _render_sym(f: SymFunc) -> str:
    return render_terms(
        (f"{f.basis}_{format_partition(lam)}" if lam else "", c) for lam, c in f.items()
    )


def _render_bi_terms(terms) -> str:
    return render_terms(
        (f"[{format_partition(lam)}|{format_partition(mu)}]", c) for (lam, mu), c in terms
    )


def _sym_payload(f: SymFunc) -> dict:
    expansion = symfunc.schur_expand(f)
    return {
        "p_expansion": _render_sym(symfunc.to_p(f)),
        "s_expansion": _render_sym(SymFunc("s", expansion.coefficients)),
        "schur_nonneg_integral": expansion.is_nonneg_integral,
        "json": symfunc.sym_to_json(symfunc.to_p(f)),
    }


def _bi_payload(f) -> dict:
    return {
        "p_expansion": _render_bi_terms(f.items()),
        "s_expansion": _render_bi_terms(sorted(symfunc.bi_schur_expand(f).items())),
    }


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite returns a list of CheckReports; bounds default to the "full"
# profile used by the acceptance criteria.


def _bidegrees(max_total: int, min_total: int = 1) -> list[tuple[int, int]]:
    """(n, m) with min_total <= n + m <= max_total, by total, then by m."""
    return [(t - m, m) for t in range(min_total, max_total + 1) for m in range(t + 1)]


def _equality(check: str, parameters: dict, lhs, rhs, render=str) -> CheckReport:
    """Compare two routes with ==; both are rendered only if they differ."""
    ok = lhs == rhs
    return CheckReport(
        check, parameters, ok, lhs=None if ok else render(lhs), rhs=None if ok else render(rhs)
    )


def suite_brandt_diagonal(max_total: int = 8) -> list[CheckReport]:
    """Diagonal restriction of the two-alphabet character formula equals the
    one-alphabet formula, and the Schur expansion is a genuine character
    (nonnegative integer multiplicities)."""
    reports = []
    for n, m in _bidegrees(max_total):
        lhs = symfunc.diagonal(superlie.super_bi_brandt_char(n, m))
        rhs = superlie.super_brandt_char(n, m)
        reports.append(_equality("brandt-diagonal", {"n": n, "m": m}, lhs, rhs, _render_sym))
        expansion = symfunc.schur_expand(rhs)
        reports.append(
            CheckReport(
                "schur-positivity",
                {"n": n, "m": m},
                expansion.is_nonneg_integral,
                lhs=None
                if expansion.is_nonneg_integral
                else _render_sym(SymFunc("s", expansion.coefficients)),
            )
        )
    return reports


def suite_petrogradsky(max_n: int = 8, max_m: int = 8) -> list[CheckReport]:
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
    max_total: int = 6,
    max_dim: int = 3,
    brute_max_total: int = 4,
    brute_max_dim: int = 2,
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


def _bracket_oracle(n: int, m: int, N: int, expected: int) -> tuple[int, str | None]:
    """Bracket rank of the (n, m) piece with N even and N odd generators, and
    the first disagreement, or None: a weight block whose rank differs from
    the coefficient of x^alpha y^beta in the truncated character, else a
    total rank that differs from the dimension formula's ``expected``."""
    rank, blocks = superlie.brute_force_lie_dim(n, m, N, N)
    char = symfunc.bi_expand_truncated(superlie.super_bi_brandt_char(n, m), N, N)
    for (alpha, beta), block_rank in blocks.items():
        coeff = char.coefficient(superlie.weight_exponents(alpha, beta, N, N))
        if block_rank != coeff:
            weight = f"{format_partition(alpha)}|{format_partition(beta)}"
            return rank, f"weight {weight}: rank {block_rank}, character coefficient {coeff}"
    if rank != expected:
        return rank, f"rank {rank}, dimension formula {expected}"
    return rank, None


def suite_thrall(max_total: int = 5) -> list[CheckReport]:
    """Higher module characters sum to the tensor-space character."""
    return [superlie.thrall_sum_check(n, m) for n, m in _bidegrees(max_total)]


def suite_klyachko(
    max_n: int = 8, oracle_max_r: int = 6, chi_cyc_max_total: int = 10
) -> list[CheckReport]:
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
                lhs=_render_sym(lhs),
                rhs=_render_sym(rhs),
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
                    lhs=_render_sym(via_oracle),
                    rhs=_render_sym(direct),
                )
            )
    for n, m in _bidegrees(chi_cyc_max_total):
        fast = cyclic.chi_cyc(n, m)
        slow = cyclic.chi_cyc_oracle(n, m)
        reports.append(
            CheckReport(
                "subset-rotation-character",
                {"n": n, "m": m},
                fast.values == slow.values,
            )
        )
    return reports


def suite_super_klyachko(max_total: int = 8) -> list[CheckReport]:
    """Twisted-induction description equals the power-sum formula."""
    return [
        _equality(
            "super-klyachko",
            {"n": n, "m": m},
            cyclic.super_klyachko_char(n, m),
            superlie.super_brandt_char(n, m),
            _render_sym,
        )
        for n, m in _bidegrees(max_total)
    ]


def suite_hook(max_n: int = 8) -> list[CheckReport]:
    """q,t-hook product equals the (maj, bar count) generating polynomial,
    and its t = 0 slice is the classical maj generating polynomial."""
    reports = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            product = specialization.hook_product(lam)
            gen = tableau.maj_neg_generating_poly(lam)
            reports.append(
                _equality("hook-formula", {"partition": format_partition(lam)}, gen, product)
            )
            classical = QTPoly(
                collect(((tableau.maj(t), 0), 1) for t in tableau.syt_enumerate(lam))
            )
            t0_slice = QTPoly({k: c for k, c in product.items() if k[1] == 0})
            reports.append(
                CheckReport(
                    "hook-classical-slice",
                    {"partition": format_partition(lam)},
                    classical == t0_slice,
                )
            )
    return reports


def suite_qps(max_n: int = 5, q_cap: int = DEFAULT_Q_CAP) -> list[CheckReport]:
    """Principal specialization formula for every descent set."""
    reports = []
    for n in range(1, max_n + 1):
        positions = list(range(1, n))
        for mask in range(1 << len(positions)):
            d = {positions[i] for i in range(len(positions)) if mask >> i & 1}
            reports.append(specialization.qps_check(n, d, q_cap))
    return reports


def suite_sps(
    max_n: int = 6, q_cap: int = DEFAULT_Q_CAP, qt_hook_max_n: int = 5
) -> list[CheckReport]:
    """Principal specialization of the two-alphabet Schur functions: maj and
    comaj equidistribution plus the series identity, and the numerical check
    of the closed hook-product specialization."""
    reports = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            reports.append(
                CheckReport(
                    "schur-principal-specialization",
                    {"partition": format_partition(lam), "q_cap": q_cap},
                    specialization.s_ps_check(lam, q_cap),
                )
            )
    for n in range(1, qt_hook_max_n + 1):
        for lam in partitions_of(n):
            reports.append(
                CheckReport(
                    "qt-hook-specialization",
                    {"partition": format_partition(lam), "q_cap": q_cap},
                    specialization.qt_hook_consistency_check(lam, q_cap),
                )
            )
    return reports


def suite_cauchy(max_n: int = 5, N: int = 2, M: int = 2) -> list[CheckReport]:
    reports = []
    for n in range(1, max_n + 1):
        reports.append(specialization.super_cauchy_check(n, N, M))
    return reports


def suite_reu(max_n: int = 8) -> list[CheckReport]:
    """Root-of-unity values of the hook-length-style quotient pi_lambda."""
    reports = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                reports.append(
                    CheckReport(
                        "pi-root",
                        {"partition": format_partition(lam), "d": d},
                        specialization.pi_root_check(lam, d),
                    )
                )
    return reports


def suite_kw(
    max_total: int = 8,
    omega_trials: int = 100,
    omega_max_r: int = 12,
    seed: int = 20_25,
) -> list[CheckReport]:
    """Multiplicity formula for all bidegrees, plus agreement of the two
    implementations of residue extraction on random polynomials."""
    reports = [specialization.kw_check(n, m) for n, m in _bidegrees(max_total)]

    rng = random.Random(seed)
    failures = 0
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
            if not coeff.is_zero:
                terms[parts] = coeff
        f = SymFunc("p", terms)
        r = rng.randint(1, omega_max_r)
        s = rng.randint(0, r)
        by_filter = specialization.omega_extract(f, r, s)
        by_roots = specialization.omega_extract_roots(f, r, s)
        if by_filter != by_roots:
            failures += 1
    reports.append(
        CheckReport(
            "omega-filter-vs-roots",
            {"trials": omega_trials, "max_r": omega_max_r, "seed": seed},
            failures == 0,
            first_discrepancy=None if failures == 0 else f"{failures} mismatches",
        )
    )
    return reports


def suite_symmetry(
    sym1_max_n: int = 7, sym2_max_total: int = 7, sym3_max_total: int = 8
) -> list[CheckReport]:
    """Residue-class counting symmetries of the maj statistic."""
    reports = []
    for n in range(2, sym1_max_n + 1):
        for lam in partitions_of(n):
            ok = all(
                specialization.sym1_check(lam, r, s)
                for r in range(1, n + 1)
                for s in range(r + 1, n + 1)
                if math.gcd(r, n) == math.gcd(s, n)
            )
            reports.append(
                CheckReport(
                    "residue-symmetry-classical",
                    {"partition": format_partition(lam)},
                    ok,
                )
            )
    for n, m in _bidegrees(sym2_max_total, 2):
        total = n + m
        shift = specialization.half_if_even(m)
        pairs = [
            (r, s)
            for r in range(1, total + 1)
            for s in range(r + 1, total + 1)
            if math.gcd(r + shift, total) == math.gcd(s + shift, total)
        ]
        ok = all(
            specialization.sym2_check(lam, n, m, r, s)
            for lam in partitions_of(total)
            for (r, s) in pairs
        )
        reports.append(
            CheckReport(
                "residue-symmetry-signed",
                {"n": n, "m": m},
                ok,
            )
        )
    for total in range(2, sym3_max_total + 1):
        for m in range(1, total, 2):
            n = total - m
            if n % 2 == 0 or n < 1:
                continue
            ok = all(
                specialization.sym3_check(lam, n, m, r)
                for lam in partitions_of(total)
                for r in range(total)
            )
            reports.append(
                CheckReport(
                    "bar-count-symmetry-odd",
                    {"n": n, "m": m},
                    ok,
                )
            )
    return reports


def suite_degree_two(max_d: int = 4) -> list[CheckReport]:
    return [specialization.degree_two_checks(d) for d in range(1, max_d + 1)]


SUITES = {
    "brandt-diagonal": suite_brandt_diagonal,
    "petrogradsky": suite_petrogradsky,
    "witt-oracle": suite_witt_oracle,
    "thrall": suite_thrall,
    "klyachko": suite_klyachko,
    "super-klyachko": suite_super_klyachko,
    "hook": suite_hook,
    "qps": suite_qps,
    "sps": suite_sps,
    "cauchy": suite_cauchy,
    "reu": suite_reu,
    "kw": suite_kw,
    "symmetry": suite_symmetry,
    "degree-two": suite_degree_two,
}

# Per-suite keyword bounds for the two reproducible profiles.
PROFILES: dict[str, dict[str, dict]] = {
    "full": {name: {} for name in SUITES},
    "quick": {
        "brandt-diagonal": {"max_total": 6},
        "petrogradsky": {"max_n": 3, "max_m": 3},
        "witt-oracle": {"max_total": 5, "max_dim": 2, "brute_max_total": 3},
        "thrall": {"max_total": 4},
        "klyachko": {"max_n": 6, "oracle_max_r": 4, "chi_cyc_max_total": 8},
        "super-klyachko": {"max_total": 6},
        "hook": {"max_n": 6},
        "qps": {"max_n": 4, "q_cap": 10},
        "sps": {"max_n": 4, "q_cap": 10, "qt_hook_max_n": 4},
        "cauchy": {"max_n": 4},
        "reu": {"max_n": 6},
        "kw": {"max_total": 6, "omega_trials": 25, "omega_max_r": 8},
        "symmetry": {"sym1_max_n": 5, "sym2_max_total": 5, "sym3_max_total": 6},
        "degree-two": {"max_d": 3},
    },
}


def _parameters(suite) -> tuple[str, ...]:
    code = suite.__code__
    return code.co_varnames[: code.co_argcount]


def run_suite(name: str, profile: str = "full", overrides: dict | None = None):
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
    unused = set(overrides).difference(*(_parameters(SUITES[n]) for n in names))
    if unused:
        raise UsageError(f"{', '.join(sorted(unused))} does not apply to suite {name!r}")
    reports: list[CheckReport] = []
    for n in names:
        kwargs = dict(PROFILES[profile][n])
        kwargs.update((k, v) for k, v in overrides.items() if k in _parameters(SUITES[n]))
        reports.extend(SUITES[n](**kwargs))
    if not reports:
        raise UsageError(f"these bounds select no checks in suite {name!r}")
    return reports


# ---------------------------------------------------------------------------
# command implementations


def cmd_char(args) -> RunReport:
    if args.kind in ("lie", "bilie"):
        if args.matrix is not None:
            raise UsageError("--matrix is only valid for 'char higher'")
        if len(args.args) != 2:
            raise UsageError(f"char {args.kind} requires two integers n m")
        try:
            n, m = int(args.args[0]), int(args.args[1])
        except ValueError:
            raise UsageError(f"cannot parse bidegree from {args.args!r}") from None
        if args.kind == "lie":
            payload = _sym_payload(superlie.super_brandt_char(n, m))
        else:
            payload = _bi_payload(superlie.super_bi_brandt_char(n, m))
        return RunReport("char", {"kind": args.kind, "n": n, "m": m}, "pass", payload)

    if args.matrix is None:
        raise UsageError("char higher requires --matrix")
    if args.args:
        raise UsageError(f"char higher takes no positional arguments, got {args.args!r}")
    text = args.matrix
    if text.startswith("@") or os.path.exists(text):
        path = text[1:] if text.startswith("@") else text
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read matrix file: {exc}") from None
    try:
        data = json.loads(text)
        matrix = superlie.SupportMatrix.from_json(data)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse support matrix: {exc}") from None
    payload = _bi_payload(superlie.super_lie_module_char(matrix))
    payload["bidegree"] = list(matrix.bidegree())
    return RunReport(
        "char", {"kind": "higher", "matrix": matrix.to_json()}, "pass", payload
    )


def cmd_dim(args) -> RunReport:
    value = superlie.super_witt_dim(args.n, args.m, args.N)
    payload: dict = {"dim": value}
    status = "pass"
    if args.oracle:
        rank, discrepancy = _bracket_oracle(args.n, args.m, args.N, value)
        payload["oracle"] = rank
        payload["match"] = discrepancy is None
        if discrepancy is not None:
            payload["first_discrepancy"] = discrepancy
            status = "fail"
    return RunReport(
        "dim",
        {"n": args.n, "m": args.m, "N": args.N, "oracle": bool(args.oracle)},
        status,
        payload,
    )


def cmd_count(args) -> RunReport:
    try:
        lam = parse_partition(args.partition)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    parameters: dict = {"partition": format_partition(lam)}
    payload: dict = {}
    if args.gf:
        if (args.mod, args.res, args.neg) != (None, None, None):
            raise UsageError("--gf cannot be combined with --mod, --res or --neg")
        poly = tableau.maj_neg_generating_poly(lam)
        payload["generating_polynomial"] = str(poly)
        payload["monomials"] = poly.to_json()
        parameters["gf"] = True
    else:
        modulus = args.mod if args.mod is not None else sum(lam)
        residue = 1 if args.res is None else args.res
        neg = 0 if args.neg is None else args.neg
        parameters.update({"mod": modulus, "res": residue, "neg": neg})
        payload["count"] = tableau.count_super_tableaux(lam, modulus, residue, neg)
    return RunReport("count", parameters, "pass", payload)


# verify flag (argparse dest) -> the suite parameter it overrides
VERIFY_OVERRIDES = {
    "max_n": "max_n",
    "max_total": "max_total",
    "max_m": "max_m",
    "qcap": "q_cap",
    "max_degree": "max_d",
}


def cmd_verify(args) -> RunReport:
    overrides = {
        parameter: getattr(args, flag)
        for flag, parameter in VERIFY_OVERRIDES.items()
        if getattr(args, flag) is not None
    }
    reports = run_suite(args.suite, args.profile, overrides)
    ok = all(r.ok for r in reports)
    payload = {
        "total": len(reports),
        "failed": sum(1 for r in reports if not r.ok),
        "checks": [r.to_json() for r in reports],
    }
    return RunReport(
        "verify",
        {"suite": args.suite, "profile": args.profile, **overrides},
        "pass" if ok else "fail",
        payload,
    )


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _StoreOnce(argparse.Action):
    """Store the flag's value; a second occurrence is a usage error, since
    argparse would otherwise drop the first value silently."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freelie",
        description="Exact free Lie superalgebra characters and identity verification",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--timing", action="store_true", help="include elapsed_ms in the report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", parents=[common], help="print a character")
    p_char.add_argument("kind", choices=("lie", "bilie", "higher"))
    p_char.add_argument("args", nargs="*")
    p_char.add_argument("--matrix", help="JSON [[i,j,a],...] for 'higher'")
    p_char.set_defaults(func=cmd_char)

    p_dim = sub.add_parser("dim", parents=[common], help="bigraded dimension")
    p_dim.add_argument("n", type=int)
    p_dim.add_argument("m", type=int)
    p_dim.add_argument("N", type=int)
    p_dim.add_argument("--oracle", action="store_true")
    p_dim.set_defaults(func=cmd_dim)

    p_count = sub.add_parser("count", parents=[common], help="signed tableau counts")
    p_count.add_argument("partition", help='partition, e.g. "(2,1)"')
    p_count.add_argument("--mod", type=int, default=None)
    p_count.add_argument("--res", type=int, default=None, help="residue (default 1)")
    p_count.add_argument("--neg", type=int, default=None, help="bar count (default 0)")
    p_count.add_argument("--gf", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", parents=[common], help="run identity suites")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--profile", choices=("quick", "full"), default="full")
    for flag in VERIFY_OVERRIDES:
        p_verify.add_argument(
            "--" + flag.replace("_", "-"), dest=flag, type=int, default=None, action=_StoreOnce
        )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _print_report(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True, default=str))
        return
    print(f"{report.command} {json.dumps(report.parameters, sort_keys=True, default=str)}: {report.status}")
    for key, value in report.payload.items():
        if key == "checks":
            for check in value:
                line = f"  [{check['status']}] {check['check']} {json.dumps(check['parameters'], sort_keys=True, default=str)}"
                print(line)
                if check["status"] == "fail" and "first_discrepancy" in check:
                    print(f"    discrepancy: {check['first_discrepancy']}")
        elif key == "json":
            continue
        else:
            print(f"  {key}: {value}")
    if report.elapsed_ms is not None:
        print(f"  elapsed_ms: {report.elapsed_ms}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.timing:
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
    try:
        _print_report(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``).  That says nothing about the
        # run, so the exit code stays the one it earned; stdout is pointed at
        # devnull so that the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if report.status == "fail":
        return EXIT_IDENTITY_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
