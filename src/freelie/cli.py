"""Command-line surface: argument parsing, the four commands (``char``,
``dim``, ``count``, ``verify``) and the rendering of their reports.  A
command's report is the dict that ``--format json`` prints (``command``,
``parameters``, ``status``, ``payload``), and the text format renders the
same dict; ``verify`` puts the check dicts of :mod:`freelie.verify`, where
its suites and their bounds live, into its payload as they are.

Each run is one short process, so a command loads only what it runs.  One
table declares every command's arguments.  A plain command line is read off
it without argparse, and only help and usage errors build argparse's parser
from the same table.  ``dim`` imports :mod:`freelie.superlie`, ``char``
that and :mod:`freelie.symfunc`, ``count`` :mod:`freelie.tableau`, and only
``verify`` imports :mod:`freelie.verify`, with the suites' modules behind it.
Reports are written by this module's own JSON writer, byte for byte as
``json.dumps`` writes them, so that only ``char higher``, which parses its
``--matrix``, loads :mod:`json` (and ``re`` behind it).

Exit codes: 0 success, 1 a verified identity failed, 2 usage error, 3 domain
error, 4 resource budget exceeded.

All output is deterministic for fixed flags: partitions, terms and report
rows are always emitted in the canonical orders, and timing information is
only included on request (``--timing``) so that repeated runs are
byte-identical.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .exactalg import ResourceLimitError, UsageError, first_difference, render_terms
from .partition import format_partition, parse_partition

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


def _run(command: str, parameters: dict, status: str, payload: dict) -> dict:
    """One command's report, the dict that ``--format json`` prints; ``main``
    adds ``elapsed_ms`` under ``--timing``."""
    return {"command": command, "parameters": parameters, "status": status, "payload": payload}


# ---------------------------------------------------------------------------
# rendering helpers


def _sym_payload(f) -> dict:
    from . import symfunc

    expansion = symfunc.schur_expand(f)
    return {
        "p_expansion": str(f),
        "s_expansion": symfunc.render_schur(expansion),
        "schur_nonneg_integral": symfunc.first_bad_multiplicity(expansion) is None,
        "json": symfunc.sym_to_json(f),
    }


def _bi_payload(f) -> dict:
    from . import symfunc

    return {
        "p_expansion": str(f),
        "s_expansion": render_terms(
            (f._name(key), c)
            for key, c in sorted(
                symfunc.bi_schur_expand(f).items(), key=lambda kv: f._sort_key(kv[0])
            )
        ),
    }


# ---------------------------------------------------------------------------
# command implementations


def cmd_char(args) -> dict:
    from . import superlie, symfunc

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
        return _run("char", {"kind": args.kind, "n": n, "m": m}, "pass", payload)

    if args.matrix is None:
        raise UsageError("char higher requires --matrix")
    if args.args:
        raise UsageError(f"char higher takes no positional arguments, got {args.args!r}")
    import json  # here, so that only the one command that reads JSON loads it

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
    return _run("char", {"kind": "higher", "matrix": matrix.to_json()}, "pass", payload)


def cmd_dim(args) -> dict:
    from . import superlie

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
    return _run(
        "dim",
        {"n": args.n, "m": args.m, "N": args.N, "oracle": bool(args.oracle)},
        status,
        payload,
    )


def cmd_count(args) -> dict:
    from . import tableau

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
    return _run("count", parameters, "pass", payload)


def cmd_verify(args) -> dict:
    from . import verify

    # the bounds are the flags given at most once
    bounds = [_dest(flag, spec) for flag, spec in COMMANDS["verify"][2] if spec.get("action") == "once"]
    overrides = {name: getattr(args, name) for name in bounds if getattr(args, name) is not None}
    checks = verify.run_suite(args.suite, args.profile, overrides)
    failed = sum(c["status"] == "fail" for c in checks)
    return _run(
        "verify",
        {"suite": args.suite, "profile": args.profile, **overrides},
        "fail" if failed else "pass",
        {"total": len(checks), "failed": failed, "checks": checks},
    )


# ---------------------------------------------------------------------------
# the command grammar, its two parsers and the entry point


def _verify():
    """:mod:`freelie.verify`, imported on first use."""
    from . import verify

    return verify


# The one declaration of the command line, read by both parsers.  An argument
# is its name, a positional or a flag spelt in full, and the keywords
# argparse's ``add_argument`` takes for it.  A "choices" function is called
# when the command's arguments are read, as only freelie.verify knows its
# suites and profiles.  The "once" action stores a flag that may be given
# only once; the registry bounds by its ``dest``.
_COMMON = (
    ("--format", {"choices": ("text", "json"), "default": "text"}),
    ("--timing", {"action": "store_true", "help": "include elapsed_ms in the report"}),
)

# command -> (its help line, the function that runs it, its own arguments)
COMMANDS = {
    "char": ("print a character", cmd_char, (
        ("kind", {"choices": ("lie", "bilie", "higher")}),
        ("args", {"nargs": "*"}),
        ("--matrix", {"help": "JSON [[i,j,a],...] for 'higher'"}),
    )),
    "dim": ("bigraded dimension", cmd_dim, (
        ("n", {"type": int}),
        ("m", {"type": int}),
        ("N", {"type": int}),
        ("--oracle", {"action": "store_true"}),
    )),
    "count": ("signed tableau counts", cmd_count, (
        ("partition", {"help": 'partition, e.g. "(2,1)"'}),
        ("--mod", {"type": int}),
        ("--res", {"type": int, "help": "residue (default 1)"}),
        ("--neg", {"type": int, "help": "bar count (default 0)"}),
        ("--gf", {"action": "store_true"}),
    )),
    "verify": ("run identity suites", cmd_verify, (
        ("suite", {"choices": lambda: sorted(_verify().SUITES) + ["all"]}),
        ("--profile", {"choices": lambda: _verify().PROFILES, "default": "full"}),
        ("--max-n", {"type": int, "action": "once"}),
        ("--max-total", {"type": int, "action": "once"}),
        ("--max-m", {"type": int, "action": "once"}),
        ("--qcap", {"dest": "q_cap", "type": int, "action": "once"}),
        ("--max-degree", {"dest": "max_d", "type": int, "action": "once"}),
    )),
}


def _arguments(command: str) -> list:
    """The command's arguments in the order argparse adds them, the common
    flags first, each "choices" function called."""
    return [
        (name, {**spec, "choices": spec["choices"]()} if callable(spec.get("choices")) else spec)
        for name, spec in (*_COMMON, *COMMANDS[command][2])
    ]


def _dest(flag: str, spec: dict) -> str:
    """The attribute a flag stores, named as argparse names it."""
    return spec.get("dest", flag[2:].replace("-", "_"))


def _value(token: str, spec: dict):
    """The token converted and checked as argparse does, or None where
    argparse would refuse it."""
    try:
        value = spec.get("type", str)(token)
    except ValueError:
        return None
    return value if value in spec.get("choices", (value,)) else None


def _plain_parse(argv: list):
    """The namespace that argparse builds for ``argv``, read off the table
    without argparse, or None when the line is not plain.  A plain line
    names a command, then gives its positionals, then its flags, each flag
    spelt in full and given once, and no other token begins with "-".  Help,
    ``--``, ``--flag=value``, abbreviations, negative numbers, bad values and
    missing arguments are all left to argparse, the one source of help and
    usage texts."""
    if not argv or argv[0] not in COMMANDS:
        return None
    values: dict = {"command": argv[0], "func": COMMANDS[argv[0]][1]}
    tokens = argv[1:]
    cut = next((i for i, token in enumerate(tokens) if token.startswith("-")), len(tokens))
    given, rest = tokens[:cut], iter(tokens[cut:])
    flags = {}
    for name, spec in _arguments(argv[0]):
        if name.startswith("-"):
            flags[name] = spec
            default = False if spec.get("action") == "store_true" else None
            values[_dest(name, spec)] = spec.get("default", default)
            continue
        # "*" takes every positional left, any other positional one
        many = spec.get("nargs") == "*"
        taken, given = (given, []) if many else (given[:1], given[1:])
        parsed = [_value(token, spec) for token in taken]
        if None in parsed or not (many or parsed):
            return None
        values[name] = parsed if many else parsed[0]
    if given:
        return None
    for flag in rest:
        spec = flags.pop(flag, None)  # so a flag given twice is not plain
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            values[_dest(flag, spec)] = True
            continue
        token = next(rest, "-")  # a missing value is not plain either
        value = None if token.startswith("-") else _value(token, spec)
        if value is None:
            return None
        values[_dest(flag, spec)] = value
    return SimpleNamespace(**values)


def build_parser(argv=None):
    """The argparse parser of the command line ``argv``, built from the
    table.  Every command is listed, but when ``argv`` begins with a
    command's name, only that command gets its arguments: argparse hands the
    rest of the line to it alone.  Without ``argv``, or when it begins with
    anything else (``--help``, a misspelt command), every command gets them,
    so that every help and error text is the full one."""
    import argparse

    class StoreOnce(argparse.Action):
        """Store the flag's value; a second occurrence is a usage error,
        since argparse would otherwise drop the first value silently."""

        def __call__(self, parser, namespace, values, option_string=None):
            if getattr(namespace, self.dest) is not None:
                raise argparse.ArgumentError(self, "given more than once")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="freelie",
        description="Exact free Lie superalgebra characters and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (help_line, run, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if chosen in (None, name):
            p.register("action", "once", StoreOnce)
            for argument, spec in _arguments(name):
                p.add_argument(argument, **spec)
            p.set_defaults(func=run)
    return parser


# The escapes of the ASCII characters that JSON strings escape, as json.dumps
# writes them: the short forms where JSON has one, \u00XX otherwise.
_ESCAPES = {
    **{i: f"\\u{i:04x}" for i in (*range(0x20), 0x7F)},
    **{ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')},
}


def _json_string(text: str) -> str:
    """A JSON string literal in ASCII: every other character is written as
    \\uXXXX, one beyond U+FFFF as its UTF-16 surrogate pair."""
    text = text.translate(_ESCAPES)
    if not text.isascii():
        text = "".join(c if c.isascii() else _unicode_escape(ord(c)) for c in text)
    return f'"{text}"'


def _unicode_escape(code: int) -> str:
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _dumps(value, indent: str | None = None, level: str = "") -> str:
    """``json.dumps(value, indent=len(indent), sort_keys=True, default=str)``
    for what a report holds: strings, ints, bools, None, lists and tuples,
    and dicts with string keys; any other value is written as its str().
    Without ``indent`` the separators are ", " and ": " on one line."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = level if indent is None else level + indent
    if isinstance(value, dict):
        items = [f"{_json_string(k)}: {_dumps(v, indent, inner)}" for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_dumps(v, indent, inner) for v in value]
        brackets = "[]"
    else:
        return _json_string(str(value))
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{level}{brackets[1]}"


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(report, indent="  "))
        return
    print(f"{report['command']} {_dumps(report['parameters'])}: {report['status']}")
    for key, value in report["payload"].items():
        if key == "checks":
            for check in value:
                line = f"  [{check['status']}] {check['check']} {_dumps(check['parameters'])}"
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
    if "elapsed_ms" in report:
        print(f"  elapsed_ms: {report['elapsed_ms']}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_parse(argv)
    if args is None:
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
        report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
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
    if report["status"] == "fail":
        return EXIT_IDENTITY_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    # The report is out and flushed: skip the interpreter's teardown, which
    # frees every memo table object by object.  An exception or argparse's
    # SystemExit leaves main the usual way.
    code = main()
    sys.stderr.flush()
    os._exit(code)
