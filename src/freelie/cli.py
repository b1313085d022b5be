"""Command-line surface: argument parsing, the four commands (``char``,
``dim``, ``count``, ``verify``) and the rendering of their reports.  The
suites that ``verify`` runs, and their bounds, live in :mod:`freelie.verify`.

Each run is one short process, so a command loads only what it runs: the
parser gets the arguments of the command named first (of every command when
none is), and only ``verify`` imports :mod:`freelie.verify`, with the suites'
modules behind it.

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
import os
import sys
import time

from . import superlie, symfunc, tableau
from .exactalg import Record, ResourceLimitError, UsageError, first_difference, render_terms
from .partition import format_partition, parse_partition
from .symfunc import BiSymFunc, SymFunc

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


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


def _sym_payload(f: SymFunc) -> dict:
    expansion = symfunc.schur_expand(f)
    return {
        "p_expansion": str(symfunc.to_p(f)),
        "s_expansion": str(expansion),
        "schur_nonneg_integral": symfunc.first_bad_multiplicity(expansion) is None,
        "json": symfunc.sym_to_json(symfunc.to_p(f)),
    }


def _bi_payload(f) -> dict:
    return {
        "p_expansion": str(f),
        "s_expansion": render_terms(
            (f._name(key), c)
            for key, c in sorted(
                symfunc.bi_schur_expand(f).items(), key=lambda kv: BiSymFunc._sort_key(kv[0])
            )
        ),
    }


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
        superlie.check_bidegree(n, m)  # a bad bidegree is a domain error, not priced
        if args.kind == "lie":
            symfunc.admit_schur(n + m)
            payload = _sym_payload(superlie.super_brandt_char(n, m))
        else:
            symfunc.admit_schur(n, m)
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
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read matrix file: {exc}") from None
    try:
        data = json.loads(text)
        matrix = superlie.SupportMatrix.from_json(data)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse support matrix: {exc}") from None
    symfunc.admit_schur(*matrix.bidegree())
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
        ranks, formula = superlie.bracket_oracle_routes(args.n, args.m, args.N)
        payload["oracle"] = ranks["dimension"]
        where = first_difference(ranks, formula)
        payload["match"] = where is None
        if where is not None:
            rank, other = ranks[where], formula[where]
            payload["first_discrepancy"] = (
                f"rank {rank}, dimension formula {other}"
                if where == "dimension"
                else f"{where}: rank {rank}, character coefficient {other}"
            )
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


# verify flag -> the override it gives, by the name the registry bounds with
VERIFY_FLAGS = {
    "--max-n": "max_n",
    "--max-total": "max_total",
    "--max-m": "max_m",
    "--qcap": "q_cap",
    "--max-degree": "max_d",
}


def cmd_verify(args) -> RunReport:
    from . import verify

    overrides = {
        name: getattr(args, name)
        for name in VERIFY_FLAGS.values()
        if getattr(args, name) is not None
    }
    reports = verify.run_suite(args.suite, args.profile, overrides)
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


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter at the width argparse picks, found without
    ``shutil``, whose import (with zlib, bz2, lzma and fnmatch behind it)
    costs more than building the whole parser: ``COLUMNS`` if it is a
    positive integer, else the width of the terminal on stdout, else 80,
    less 2."""

    def __init__(self, prog):
        try:
            width = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            width = 0
        if width <= 0:
            try:
                width = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
            except (AttributeError, ValueError, OSError):
                width = 80
        super().__init__(prog, width=width - 2)


def _char_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("lie", "bilie", "higher"))
    p.add_argument("args", nargs="*")
    p.add_argument("--matrix", help="JSON [[i,j,a],...] for 'higher'")
    p.set_defaults(func=cmd_char)


def _dim_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_dim)


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("partition", help='partition, e.g. "(2,1)"')
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--res", type=int, default=None, help="residue (default 1)")
    p.add_argument("--neg", type=int, default=None, help="bar count (default 0)")
    p.add_argument("--gf", action="store_true")
    p.set_defaults(func=cmd_count)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from . import verify

    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--profile", choices=verify.PROFILES, default="full")
    for flag, name in VERIFY_FLAGS.items():
        p.add_argument(flag, dest=name, type=int, default=None, action=_StoreOnce)
    p.set_defaults(func=cmd_verify)


# command -> (its help line, the function that adds its arguments)
COMMANDS = {
    "char": ("print a character", _char_arguments),
    "dim": ("bigraded dimension", _dim_arguments),
    "count": ("signed tableau counts", _count_arguments),
    "verify": ("run identity suites", _verify_arguments),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.  Every command is listed,
    but when ``argv`` begins with a command's name, only that command gets
    its arguments: argparse hands the rest of the line to it alone.  Without
    ``argv``, or when it begins with anything else (``--help``, a misspelt
    command), every command gets them, so that every help and error text is
    the full one."""
    parser = argparse.ArgumentParser(
        prog="freelie",
        description="Exact free Lie superalgebra characters and identity verification",
        formatter_class=_HelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False, formatter_class=_HelpFormatter)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--timing", action="store_true", help="include elapsed_ms in the report"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (help_line, add_arguments) in COMMANDS.items():
        p = sub.add_parser(
            name, parents=[common], help=help_line, formatter_class=_HelpFormatter
        )
        if chosen in (None, name):
            add_arguments(p)
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
                if check["status"] == "fail":
                    # where the routes differ, then both routes
                    for label, field in (
                        ("discrepancy", "first_discrepancy"), ("lhs", "lhs"), ("rhs", "rhs")
                    ):
                        if field in check:
                            print(f"    {label}: {check[field]}")
        elif key == "json":
            continue
        else:
            print(f"  {key}: {value}")
    if report.elapsed_ms is not None:
        print(f"  elapsed_ms: {report.elapsed_ms}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
