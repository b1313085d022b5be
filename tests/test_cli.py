import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelie import cli, cyclic, specialization, superlie, symfunc, tableau, verify
from freelie.exactalg import MultiPoly, Rational, ResourceLimitError
from freelie.partition import parse_partition
from freelie.symfunc import SymFunc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.fixture(autouse=True)
def isolated_cache():
    symfunc.clear_character_cache()
    yield
    symfunc.clear_character_cache()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_lie_text(capsys):
    code, out, _ = run(capsys, "char", "lie", "1", "1")
    assert code == cli.EXIT_OK
    assert "p_(1,1)" in out
    assert "s_(2) + s_(1,1)" in out


def test_char_lie_degree_two(capsys):
    code, out, _ = run(capsys, "char", "lie", "2", "0")
    assert code == cli.EXIT_OK
    assert "s_(1,1)" in out


def test_char_json_payload(capsys):
    code, out, _ = run(capsys, "char", "lie", "1", "1", "--format", "json")
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["payload"]["schur_nonneg_integral"] is True
    assert "elapsed_ms" not in data


def test_char_bilie_and_higher(capsys):
    code, out, _ = run(capsys, "char", "bilie", "1", "1")
    assert code == cli.EXIT_OK
    assert "[(1)|(1)]" in out

    code, out, _ = run(capsys, "char", "higher", "--matrix", "[[1,1,2]]")
    assert code == cli.EXIT_OK
    assert "bidegree: [2, 2]" in out


def test_char_bilie_schur_terms_in_canonical_order(capsys):
    # degree, then reverse lexicographic, in each alphabet: (2) before (1,1)
    code, out, _ = run(capsys, "char", "bilie", "2", "1")
    assert code == cli.EXIT_OK
    assert "  s_expansion: [(2)|(1)] + [(1,1)|(1)]\n" in out


def test_char_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "char", "lie", "0", "0")
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in err


def test_char_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "char", "lie", "1")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "char", "higher")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "char", "higher", "7", "9", "--matrix", "[[1,0,1]]")
    assert code == cli.EXIT_USAGE


def test_dim_with_oracle(capsys):
    code, out, _ = run(capsys, "dim", "1", "1", "2", "--oracle")
    assert code == cli.EXIT_OK
    assert "dim: 4" in out
    assert "oracle: 4" in out

    code, out, _ = run(capsys, "dim", "1", "1", "3")
    assert "dim: 9" in out


def test_dim_resource_exit_code(capsys):
    code, _, err = run(capsys, "dim", "5", "5", "3", "--oracle")
    assert code == cli.EXIT_RESOURCE
    assert "resource limit" in err


def test_dim_oracle_refuses_high_degree_at_once(capsys):
    for argv in (("100", "0", "1"), ("100", "0", "0"), ("0", "200", "2")):
        start = time.perf_counter()
        code, _, err = run(capsys, "dim", *argv, "--oracle")
        assert time.perf_counter() - start < 1, argv
        assert code == cli.EXIT_RESOURCE, argv
        assert "resource limit" in err


def test_char_refused_before_any_character_column(capsys, monkeypatch):
    # a Schur expansion is priced by p(d) for each alphabet's degree d before
    # the character is built: no column of the character table is computed,
    # and a degree beyond any index-sized integer is refused the same way
    calls = []

    def counted(mu):
        calls.append(mu)
        raise AssertionError(f"the column of {mu} was computed before the price")

    monkeypatch.setattr(symfunc, "_column", counted)
    symfunc.clear_character_cache()
    terms = "has more than 200000 terms"
    for argv, refusal in (
        (("lie", "40", "40"), f"in degree 80 {terms}"),
        (("bilie", "40", "40"), f"in degrees (40, 40) {terms}"),
        (("lie", "99999999999999999999", "1"), f"in degree 100000000000000000000 {terms}"),
        (("higher", "--matrix", "[[1,1,100]]"), f"in degrees (100, 100) {terms}"),
        # h_30[p_1] has p(30) = 5,604 terms, under the term ceiling, and needs
        # a column for each: the columns are priced, p(|mu|) each, too
        (
            ("higher", "--matrix", "[[1,0,30]]"),
            "needs 5605 character-table columns of up to 31404817 entries in all,"
            " more than 2500000",
        ),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "char", *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == cli.EXIT_RESOURCE, argv
        assert f"resource limit: a Schur expansion {refusal}" in err and out == "", err
    # a bad bidegree stays a domain error, whatever its price would be
    for argv in (("bilie", "-1", "2"), ("lie", "99999999999999999999", "-1")):
        code, _, err = run(capsys, "char", *argv)
        assert code == cli.EXIT_DOMAIN and "bidegree must be nonzero" in err, argv
    assert calls == []


def test_oracle_names_mismatched_weight(capsys, monkeypatch):
    # one weight's character coefficient is off by one; the total rank and
    # the dimension formula still agree, so only the per-weight check sees it
    real = symfunc.expand_truncated

    def off_by_one(f, N, M=0):
        char = real(f, N, M)
        return char + MultiPoly.monomial(2, 2, (1, 1, 1, 0)) if (N, M) == (2, 2) else char

    monkeypatch.setattr(symfunc, "expand_truncated", off_by_one)
    code, out, _ = run(capsys, "dim", "2", "1", "2", "--oracle", "--format", "json")
    assert code == cli.EXIT_IDENTITY_FAILURE
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["payload"]["match"] is False
    assert report["payload"]["first_discrepancy"].startswith("weight (1,1)|(1):")

    code, out, _ = run(capsys, "verify", "witt-oracle", "--profile", "quick")
    assert code == cli.EXIT_IDENTITY_FAILURE
    assert "discrepancy: weight (1,1)|(1)\n" in out


def test_oracle_names_mismatched_dimension(capsys, monkeypatch):
    # the dimension formula is off by one; every weight block still agrees
    real = superlie.super_witt_dim
    monkeypatch.setattr(superlie, "super_witt_dim", lambda n, m, N: real(n, m, N) + 1)
    code, out, _ = run(capsys, "dim", "2", "1", "2", "--oracle", "--format", "json")
    assert code == cli.EXIT_IDENTITY_FAILURE
    payload = json.loads(out)["payload"]
    assert payload["match"] is False
    expected = f"rank {payload['oracle']}, dimension formula {payload['dim']}"
    assert payload["first_discrepancy"] == expected

    code, out, _ = run(capsys, "verify", "witt-oracle", "--profile", "quick")
    assert code == cli.EXIT_IDENTITY_FAILURE
    assert "discrepancy: dimension\n" in out


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "(2,1)", "--mod", "3", "--res", "1", "--neg", "0")
    assert code == cli.EXIT_OK
    assert "count: 1" in out


def test_count_gf(capsys):
    code, out, _ = run(capsys, "count", "(2)", "--gf")
    assert code == cli.EXIT_OK
    assert "1 + t + q*t + q*t^2" in out
    code, out, _ = run(capsys, "count", "(1)", "--gf")
    assert "1 + t" in out


def test_count_gf_rejects_counting_flags(capsys):
    for flags in (["--mod", "5"], ["--res", "1"], ["--neg", "0"], ["--mod", "5", "--neg", "2"]):
        code, out, err = run(capsys, "count", "(2,1)", "--gf", *flags)
        assert code == cli.EXIT_USAGE, flags
        assert out == ""
        assert "--gf" in err
    # the counting path still echoes the default residue and bar count
    code, out, _ = run(capsys, "count", "(2,1)", "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["parameters"] == {"partition": "(2,1)", "mod": 3, "res": 1, "neg": 0}


def test_count_bad_partition_usage_error(capsys):
    code, _, err = run(capsys, "count", "2,1")
    assert code == cli.EXIT_USAGE


def test_count_budget_resource_error(capsys):
    # the DP's update bound for (12,12,12) is far beyond the default budget
    code, _, err = run(capsys, "count", "(12,12,12)")
    assert code == cli.EXIT_RESOURCE


def test_verify_sweep_refused_before_any_dp(capsys, monkeypatch):
    # each sweep over the all-shapes DP is priced at its bound before the DP
    # of n = 1 runs, not after computing every n <= 18, and without building
    # the bound's n parts; a DP layer or a tableau walked fails the test
    calls = []

    def refuse(*key):
        calls.append(key)
        raise AssertionError(f"{key} was computed before the sweep was priced")

    monkeypatch.setattr(tableau, "_sign_layers", refuse)
    monkeypatch.setattr(tableau, "_place_maj", refuse)
    for flag in (("hook", "--max-n"), ("kw", "--max-total"), ("sps", "--max-n")):
        for n in ("40", "1000000000"):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", *flag, n)
            assert time.perf_counter() - start < 1, (flag, n)
            assert code == cli.EXIT_RESOURCE, (flag, n)
            assert "resource limit" in err and f"shapes of {n}" in err, err
            assert out == ""
    # symmetry takes no override; its profile bounds are priced the same way
    with pytest.raises(ResourceLimitError, match="shapes of 40"):
        list(verify.suite_symmetry(2, 2, 40))
    assert calls == []


def test_sweep_admission_agrees_with_the_whole_bound(monkeypatch):
    # pricing the first two rows of the bound before the whole refuses
    # exactly the sizes that pricing the whole bound alone refuses, at the
    # default budget and a smaller one
    for budget in (tableau.DEFAULT_PAIR_BUDGET, 200_000):
        monkeypatch.setattr(tableau, "DEFAULT_PAIR_BUDGET", budget)
        for n in range(0, 41):
            try:
                tableau._price(tuple(n // k for k in range(1, n + 1)), n)
                whole = True
            except ResourceLimitError:
                whole = False
            try:
                tableau.admit_sweep(n)
                rows = True
            except ResourceLimitError:
                rows = False
            assert rows == whole, (budget, n)


def test_classical_slice_refused_before_any_tableau(capsys, monkeypatch):
    # the DP admits every shape of 15, but the slice would walk the
    # 13,497,599 standard tableaux of sizes up to 15; the walk prices itself
    # before any DP layer is computed or any tableau is walked
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapper

    for name in ("_place_maj", "_sign_layers"):
        monkeypatch.setattr(tableau, name, counted(getattr(tableau, name)))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "hook", "--max-n", "15")
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_RESOURCE
    assert "resource limit" in err and "maj walk up to n = 15" in err, err
    assert "13497599 standard tableaux" in err
    assert out == "" and calls == []
    # the 3,148,063 tableaux of sizes up to 14 are admitted: the walk starts
    monkeypatch.setattr(tableau, "_place_maj", lambda *args: calls.append(args[2:]))
    assert tableau.syt_maj_counts(14) == {} and calls == [((), 0, 0, 0)]


@pytest.mark.parametrize("routes", [(tableau,), (specialization,), (tableau, specialization)])
def test_overflowed_slots_never_pass(routes, capsys, monkeypatch):
    # 8-bit slots cannot hold the counts of shapes of 9; whether the DP, the
    # hook product or both get them, the run refuses instead of passing
    for module in routes:
        monkeypatch.setattr(module, "slot_width", lambda bound: 8)
    tables = (tableau._maj_sweep, tableau._sign_generating_polys)
    for table in tables:
        table.cache_clear()
    try:
        code, out, err = run(capsys, "verify", "hook", "--max-n", "9")
    finally:
        for table in tables:
            table.cache_clear()
    assert code == cli.EXIT_DOMAIN
    assert "8-bit slots" in err
    assert "[pass]" not in out


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "hook", "--max-n", "4")
    assert code == cli.EXIT_OK
    assert "[pass]" in out
    assert "[fail]" not in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "thrall", "--max-total", "3", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "thrall", "--max-total", "3", "--format", "json")
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    data = json.loads(out1)
    assert data["payload"]["failed"] == 0
    for check in data["payload"]["checks"]:
        assert set(check) >= {"check", "parameters", "status"}


def test_verify_unknown_suite_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_timing_flag(capsys):
    code, out, _ = run(capsys, "count", "(2)", "--gf", "--timing")
    assert code == cli.EXIT_OK
    assert "elapsed_ms" in out


def test_timing_adds_only_the_elapsed_time(capsys):
    argv = ["verify", "degree-two", "--profile", "quick", "--format", "json"]
    plain = json.loads(run(capsys, *argv)[1])
    code, out, _ = run(capsys, *argv, "--timing")
    timed = json.loads(out)
    assert code == cli.EXIT_OK
    assert type(timed.pop("elapsed_ms")) is int
    assert timed == plain
    code, out, _ = run(capsys, *argv[:-2], "--timing")
    assert code == cli.EXIT_OK
    last = out.splitlines()[-1]
    assert last.startswith("  elapsed_ms: ") and last[len("  elapsed_ms: "):].isdigit(), last


def test_run_suite_rejects_unknown_profile():
    with pytest.raises(verify.UsageError):
        verify.run_suite("hook", "fastest")
    with pytest.raises(verify.UsageError):
        verify.run_suite("bogus", "quick")


def test_verify_inapplicable_override_is_usage_error(capsys):
    # thrall takes max_total, not max_n: ignoring the override must not pass
    code, out, err = run(capsys, "verify", "thrall", "--max-n", "2")
    assert code == cli.EXIT_USAGE
    assert out == "" and "max_n" in err
    # an override that some of the suites take still applies to those
    reports = verify.run_suite("all", "quick", {"max_n": 2})
    assert {r["check"] for r in reports} >= {"hook-formula", "pi-root"}
    assert len([r for r in reports if r["check"] == "hook-formula"]) == 3


def _degree(parameters: dict) -> int:
    if "partition" in parameters:
        return sum(parse_partition(parameters["partition"]))
    return parameters.get("n", parameters.get("r", 0)) + parameters.get("m", 0)


def test_override_bounds_every_check_of_its_suite(capsys):
    # an override caps every degree of its suite, not only the parameter it
    # is named after; checks per suite at the full profile with the override
    for suite, name, value, total in (
        ("witt-oracle", "max_total", 2, 30),
        ("sps", "max_n", 2, 6),
        ("klyachko", "max_n", 3, 18),
        ("kw", "max_total", 3, 10),
    ):
        reports = verify.run_suite(suite, "full", {name: value})
        assert len(reports) == total, suite
        degrees = {
            _degree(r["parameters"]) for r in reports if r["check"] != "omega-filter-vs-roots"
        }
        assert max(degrees) == value, suite
    # omega_max_r is a modulus, not a degree: max_total leaves it alone
    assert reports[-1]["parameters"] == {"trials": 100, "max_r": 12, "seed": 2025}
    code, out, _ = run(capsys, "verify", "klyachko", "--max-n", "3", "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["payload"]["total"] == 18
    # an override above a capped bound leaves that bound at its profile value
    reports = verify.run_suite("witt-oracle", "full", {"max_total": 7})
    assert max(_degree(r["parameters"]) for r in reports if r["check"] == "witt-vs-bracket-rank") == 4


def test_verify_empty_run_is_usage_error(capsys):
    # a negative bound is refused before that, as any negative override is
    for argv in (["hook", "--max-n", "0"], ["hook", "--max-n", "-3"], ["reu", "--max-n", "-3"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == cli.EXIT_USAGE
        assert "pass" not in out and ("no checks" if argv[2] == "0" else ">= 0") in err


def test_repeated_verify_bound_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "hook", "--max-n", "3", "--max-n", "4"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--max-n: given more than once" in capsys.readouterr().err


def test_closed_stdout_keeps_exit_code():
    # the reader is gone before anything is written, as with `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "freelie.cli", "verify", "hook", "--max-n", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == b""


EXIT_CASES = {
    "pass": ["verify", "hook", "--max-n", "2"],
    "usage error from main": ["verify", "hook", "--max-n", "0"],
    "usage error from argparse": ["verify", "hook", "--max-n", "3", "--max-n", "4"],
    "domain error": ["char", "lie", "0", "0"],
    "refusal": ["char", "lie", "40", "40"],
    # lines that only argparse reads
    "abbreviated flag": ["verify", "hook", "--max-n", "2", "--form", "json"],
    "negative positional": ["dim", "-1", "2", "2"],
}
EXIT_CODES = {"pass": 0, "abbreviated flag": 0, "refusal": 4, "domain error": 3, "negative positional": 3}


def _run_module(argv, stdout):
    return subprocess.run(
        [sys.executable, "-S", "-m", "freelie.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_module_run_reports_as_main_does(case, capsys, tmp_path):
    argv = EXIT_CASES[case]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    expected = (captured.out.encode(), captured.err.encode(), code)
    assert code == EXIT_CODES.get(case, cli.EXIT_USAGE)

    piped = _run_module(argv, subprocess.PIPE)
    assert (piped.stdout, piped.stderr, piped.returncode) == expected
    path = tmp_path / "out"
    with open(path, "wb") as fh:
        to_file = _run_module(argv, fh)
    assert (path.read_bytes(), to_file.stderr, to_file.returncode) == expected


def test_module_run_skips_interpreter_teardown():
    # an exit handler registered before the run never runs after it
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'teardown')\n"
        "sys.argv = ['freelie', 'char', 'lie', '2', '1']\n"
        "runpy.run_module('freelie.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.startswith("char ") and "teardown" not in proc.stdout


def _modules_loaded(heavy, *argvs):
    """Which of the heavy modules a fresh ``python -S`` process holds after
    importing the CLI and running ``cli.main`` on each command line, with
    the exit codes of the runs."""
    code = (
        "import io, sys\n"
        "import freelie.cli as cli\n"
        "def run(argv):\n"
        "    try:\n"
        "        return cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"codes = [run(argv) for argv in {list(argvs)!r}]\n"
        "sys.stdout = out\n"
        f"print(codes, sorted(set({heavy!r}) & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_heavy_modules():
    # a one-shot query pays for every module the import loads; these come in
    # only through dataclasses and typing
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    assert _modules_loaded(heavy) == "[] []"
    # argparse's own formatter imports shutil (with zlib, bz2 and lzma) for
    # the terminal width, argparse itself gettext and then locale, all for
    # help and usage texts; only verify needs the suites and their modules
    parsing = ("argparse", "gettext", "locale")
    heavy = ("shutil", "random", *parsing, "freelie.verify", "freelie.cyclic", "freelie.specialization")
    char_dim = (
        ["char", "lie", "2", "1"],
        ["char", "higher", "--matrix", "[[1,1,1]]", "--format", "json"],
        ["dim", "2", "1", "2", "--oracle", "--timing"],
    )
    counts = (["count", "(2,1)", "--gf"], ["count", "(2,1)", "--mod", "3", "--neg", "1"])
    assert _modules_loaded(heavy, *char_dim, *counts) == "[0, 0, 0, 0, 0] []"
    verified = _modules_loaded(heavy, ["verify", "hook", "--max-n", "3"])
    assert verified == "[0] ['freelie.cyclic', 'freelie.specialization', 'freelie.verify']"
    # each command imports only the modules it runs
    assert _modules_loaded(("freelie.tableau",), *char_dim) == "[0, 0, 0] []"
    assert _modules_loaded(("freelie.symfunc", "freelie.superlie"), *counts) == "[0, 0] []"
    # help still comes from argparse
    assert _modules_loaded(parsing, ["dim", "--help"]) == "[0] ['argparse', 'gettext', 'locale']"


def _exit_texts(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("columns", [None, "40", "100", "abc", "-5"])
def test_help_and_usage_texts_are_argparse_own(columns, capsys, monkeypatch):
    # a parser built with only the named command's arguments must write
    # each help and usage error byte for byte as the parser of every
    # command does
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    argvs = [[*command, "--help"] for command in ([], ["char"], ["dim"], ["count"], ["verify"])]
    argvs += [[], ["bogus"], ["verify", "nosuch"], ["dim", "1"]]
    ours = [_exit_texts(capsys, argv) for argv in argvs]
    every = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: every)
    assert [_exit_texts(capsys, argv) for argv in argvs] == ours
    assert [code for code, _, _ in ours] == [0] * 5 + [cli.EXIT_USAGE] * 4


def test_a_negative_override_is_a_usage_error(capsys, monkeypatch):
    # every bound flag of verify, negative, on each suite that takes it and
    # on "all": exit 2 before any suite runs
    def refuse(**bounds):
        raise AssertionError(f"a suite ran at {bounds}")

    for suite in verify.SUITES.values():
        monkeypatch.setattr(suite, "run", refuse)
    flags = [(f, spec) for f, spec in cli.COMMANDS["verify"][2] if spec.get("action") == "once"]
    assert len(flags) == 5
    for flag, spec in flags:
        dest = cli._dest(flag, spec)
        names = [name for name, suite in verify.SUITES.items() if dest in suite.flags]
        for name in [*names, "all"]:
            code, out, err = run(capsys, "verify", name, flag, "-3")
            assert (code, out) == (cli.EXIT_USAGE, ""), (name, flag)
            assert err == f"usage error: an override must be >= 0: {dest} = -3\n", err


def test_one_bidegree_message(capsys):
    # n + m = 1 here, so "need n + m > 0" was no reason; every bidegree
    # check gives the same one
    code, out, err = run(capsys, "dim", "-1", "2", "2")
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == "domain error: bidegree must be nonzero and nonnegative: (-1, 2)\n"
    checks = (
        superlie.super_brandt_char,
        superlie.super_bi_brandt_char,
        lambda n, m: superlie.super_witt_dim(n, m, 2),
        superlie.enumerate_bidegree_matrices,
        lambda n, m: superlie.brute_force_lie_dim(n, m, 1, 1),
        cyclic.chi_cyc,
        cyclic.chi_cyc_oracle,
        cyclic.super_klyachko_char,
    )
    for n, m in ((-1, 2), (0, 0), (3, -3)):
        for check in checks:
            with pytest.raises(ValueError) as exc:
                check(n, m)
            assert str(exc.value) == f"bidegree must be nonzero and nonnegative: ({n}, {m})"


def test_repeated_matrix_cell_is_usage_error(capsys):
    code, _, err = run(capsys, "char", "higher", "--matrix", "[[1,0,1],[1,0,2]]")
    assert code == cli.EXIT_USAGE
    assert "twice" in err


def test_matrix_file_reads_like_the_inline_matrix(capsys, tmp_path):
    inline = "[[1,1,2],[2,0,1]]"
    path = tmp_path / "matrix.json"
    path.write_text(inline, encoding="utf-8")
    code, expected, _ = run(capsys, "char", "higher", "--matrix", inline)
    assert code == cli.EXIT_OK
    for form in (f"@{path}", str(path)):
        assert run(capsys, "char", "higher", "--matrix", form) == (cli.EXIT_OK, expected, "")
    code, _, err = run(capsys, "char", "higher", "--matrix", f"@{tmp_path / 'missing.json'}")
    assert code == cli.EXIT_USAGE
    assert "cannot read matrix file" in err


def test_undecodable_matrix_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_bytes(b"\xff\xfe[[1,1,2]]")
    code, out, err = run(capsys, "char", "higher", "--matrix", f"@{path}")
    assert code == cli.EXIT_USAGE
    assert out == "" and "cannot read matrix file" in err


def test_empty_support_matrix_is_domain_error(capsys):
    code, _, err = run(capsys, "char", "higher", "--matrix", "[[0,0,0]]")
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in err


def test_negative_bar_count_is_domain_error(capsys):
    code, _, err = run(capsys, "count", "(2,1)", "--neg", "-1")
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in err


# sha256 of stdout in text and in JSON format for fixed flags.  Output for
# fixed flags is part of the interface: a change to the arithmetic core must
# leave these bytes alone.  Each report is computed once and rendered in both
# formats, exactly as main() prints it, to keep the test fast.
GOLDEN_DIGESTS = {
    "verify brandt-diagonal --profile quick": (
        "f392fb9b345a82a4ab258ae1aed815bc76dd9b7076b69367d8abf41a76c2bb9e",
        "5d149613398c5d12fc83be833eb8fb2580907bff9660194163d4f4646706b35b",
    ),
    "verify petrogradsky --profile quick": (
        "a57cc1bcccb3fb6f114d5a5a60c390b87a6f39f897f09f323beff4a24887c66e",
        "d26635f7858f768a23e8601535760907341c17d1d2944ff0df24c6d3843dfcf6",
    ),
    "verify witt-oracle --profile quick": (
        "c730e2b16c31acdd97abe783fdfca33523ff20a34989752157ab07652e7378ac",
        "05fff3f3394e9fa179fa19941e1abaa5a4d553289c331e0c84c5398d0937e0d9",
    ),
    "verify thrall --profile quick": (
        "0556c1ed244de68428852a88e77e27dcf166342d1ffd2de352db5c159d7e2682",
        "c4134a45954b8cff781525d192cac4deda02148da1bb0f1f288e07d6e8efc204",
    ),
    "verify klyachko --profile quick": (
        "a9c22f0944a7c00cc40cfd361f41effc9f241bd83cffbad2a67e742428bf82e3",
        "c66a3bc30144fbb81fc9526c846c7f9570a75e236dd755bb5a00d90c154e4678",
    ),
    "verify super-klyachko --profile quick": (
        "ff6dd08997102fe54883a95529543f6e8bee26941fffd65a345df189d1d98d77",
        "33752f8cd3f005fbbfecaaf0789d8caa6516713f02e368d2ed1825aa421719c6",
    ),
    "verify hook --profile quick": (
        "d7936c8be290ec1e4621211b43c72a39c8aca2dbfbd4a4c0f4cc999703c1998f",
        "3e8f8c96a368f5215c85daac06220a546c138657297da089e7b5db501dd31ca8",
    ),
    "verify qps --profile quick": (
        "890bdfe77a1a7dded7606de6d6c9f6d2fcbd18028080e06d32aea76e74a93bd3",
        "b10d1ca58229c11e40dd237fbe64136c6f4c3b149d824313f484e9621e93cc74",
    ),
    "verify sps --profile quick": (
        "412fcf60fe767f99a6214a8f26de7a044be57021d1fac176f667c7e87b348f95",
        "e2acb7052b0fbf50330d948d66328e5cf50a20fedae850d93d01a4c88b00acf6",
    ),
    "verify cauchy --profile quick": (
        "c7c4841756b17a68f0d05103314e524b97eb092f50f14dec0f323531c6998dda",
        "45413a0509727520ec8bf8e719297ff90e68d06308e73fb9d9462625a85d10e3",
    ),
    "verify reu --profile quick": (
        "5b9164274bb931e3cda85f028c1fea404e4bc79d78c8a2dce075f00fd663de78",
        "17741d69218127b7ca2cb3e92b09de33f707f0b4092b315be1a195d74916703b",
    ),
    "verify kw --profile quick": (
        "2cc8b73f7d1bc40293d93108cc9f67923019495b03300c682bdc965734f9b3bb",
        "df576a543f102816827251d828e34a1cdcae594327f8cb72b52ae8a8a29a23e0",
    ),
    "verify symmetry --profile quick": (
        "3a7607db3ca3b5db6f5b14f15bdd1c06ae0780ec234792ced3939d8fbf1d1c64",
        "cc06eddfd56bc72cb4d925c4af1d39ab92f97c98021b26b19da2b110f31dca53",
    ),
    "verify degree-two --profile quick": (
        "beff2e1baf7fb598ba6f694518238293d59ba533fd09b617dc2afcde2cf33904",
        "6972707f0b1a62c46c6efb661d0a5af966e920363dd81f6c313b6f50b8d1bdf9",
    ),
    "char lie 4 2": (
        "9c4b91fe729dc454f283035c4685be5b8bde67d4d9c90ee15decb1e4337ee205",
        "4e213c457d39b6728dcc7b2f1f55e2cf466aebd8ecd4a4f0f3daee28b8b0f732",
    ),
    # the smallest char lie whose p-expansion has a -1 coefficient
    "char lie 6 4": (
        "dc234ee76956359c4f31c667f8d0ec5d78c31d227ecd1b99c20d88adf03e6a95",
        "e5b835dec5d88f7cada7a8cba375a72dab6c169a990f61969d1043932ce4269b",
    ),
    "char bilie 3 2": (
        "cd1083717ed7d977cf3399a30f11dcb12b951d4e8adf8b786e58e44285f8fbcd",
        "e71694394ad03b1186c5046e940e91d4a3395f55fb7c682ad77c1c822f47d099",
    ),
    "char higher --matrix [[1,1,2],[2,0,1]]": (
        "23d5aa8c8c59c3a7049ef906a60546bbf06be78edb8e36c3001e0456d8ea17d9",
        "a0113fb52f8e63444b4f9281d1c3974d0d2eeab65382373ad4ede8e1cfc4882f",
    ),
    "char lie 11 9": (
        "54cb6dfaaec36c5ea8c9d952f25c7c77464659a212e53e089cfc93c666972ecd",
        "bd08fa0a622424d0f7b1572a4a5a346877f6c9c99bccde11b6173ef1f36ae072",
    ),
    "char bilie 7 8": (
        "854fbd96b27d65c713cfda4c03321ddbad894bc12ec9876980c755ec650a37ee",
        "03dbf25c5bb18aebd5d89dc6bb5b5e3be1f35c5b5a12dbeaf4796a830222ef82",
    ),
    "count (3,2) --gf": (
        "a9dea921810568e426bbc0b3f3dd3f44bed14bf785a12ba136905960db15ff87",
        "3ddc3f1747073ba9087c5b689b4a2e7478c93e0230e28a5bbc4da32b5585c8ef",
    ),
    "count (3,2) --mod 5 --res 1 --neg 2": (
        "05d8c218240379b4481be1259259efd7002aaab6996f25018e1bdf20f60523b0",
        "352e29a09721803fb6e04afe4481446381ecc44a8adf5bb87be474dbd9b4b179",
    ),
    "dim 2 1 2 --oracle": (
        "f25bfe18609744bb73b46cc8a76f54c8709a2d70eed99ff559a31bc5f4dcca4f",
        "31d0c9fd8a85c1b90ae42615530369a660bdf3a58dc11d1b961d278426108009",
    ),
}


def test_golden_output_digests():
    parser = cli.build_parser()
    for command, digests in GOLDEN_DIGESTS.items():
        args = parser.parse_args(command.split())
        report = args.func(args)
        for fmt, digest in zip(("text", "json"), digests):
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli._print_report(report, fmt)
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (command, fmt)


class _Level(int):
    """An int that reprs as no number: json.dumps writes it as an int."""

    def __repr__(self):
        return "level"


def _assert_written_as_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, default=str)
    assert cli._dumps(value, "  ") == json.dumps(value, indent=2, sort_keys=True, default=str)


def test_report_writer_matches_json_dumps(monkeypatch):
    # the CLI writes its reports without the json module, byte for byte as
    # json.dumps does in the two forms it used: indented for --format json,
    # on one line for the parameters of the text format
    parser = cli.build_parser()
    for command in GOLDEN_DIGESTS:
        args = parser.parse_args(command.split())
        _assert_written_as_json_dumps(args.func(args))
    args = parser.parse_args(["verify", "all", "--profile", "quick"])
    _assert_written_as_json_dumps(args.func(args))
    # a failing check's report holds both routes and where they differ
    real = superlie.super_witt_dim
    monkeypatch.setattr(superlie, "super_witt_dim", lambda n, m, N: real(n, m, N) + 1)
    args = parser.parse_args(["verify", "witt-oracle", "--profile", "quick"])
    report = args.func(args)
    assert report["status"] == "fail"
    _assert_written_as_json_dumps(report)
    crafted = {
        "text": "caf\u00e9 \u03bb \u20ac \U0001f600 \ud800 \x00\x01\x1f\x7f\x80 \"q\" \\ / \b\f\n\r\t",
        "caf\u00e9 \"key\"\n": {"": "", "nested": {"empty": {}, "list": []}},
        "empty": [[], {}, (), ""],
        "flags": [True, False, None],
        "tuple": (1, (2, "3"), [4]),
        "ints": [0, -1, 10**40, -(10**40), _Level(3)],
        "others": [Rational(1, 2), Rational(3), SymFunc.term((2, 1)), parse_partition("(2,1)")],
    }
    _assert_written_as_json_dumps(crafted)
    for value in crafted.values():
        _assert_written_as_json_dumps(value)


def test_passing_checks_show_no_routes(capsys):
    # routes and the first discrepancy are shown for a failed check only
    code, out, _ = run(capsys, "verify", "all", "--profile", "quick", "--format", "json")
    assert code == cli.EXIT_OK
    checks = json.loads(out)["payload"]["checks"]
    shown = [c for c in checks if c.keys() & {"lhs", "rhs", "first_discrepancy"}]
    assert checks and shown == []


# One line of each job kind of the four benchmark workloads: every one is
# plain, so a one-shot query never builds argparse's parser.
WORKLOAD_LINES = (
    ["verify", "brandt-diagonal", "--profile", "full", "--format", "json"],
    ["verify", "hook", "--max-n", "9", "--format", "json"],
    ["verify", "kw", "--max-total", "9", "--format", "json"],
    ["dim", "3", "2", "3", "--oracle", "--format", "json"],
    ["dim", "4", "0", "5", "--format", "json"],
    ["char", "lie", "11", "9", "--format", "json"],
    ["char", "bilie", "7", "8", "--format", "json"],
    ["char", "higher", "--matrix", "[[1,1,2],[2,0,1]]", "--format", "json"],
    ["count", "(3,2,1)", "--gf", "--format", "json"],
)


def test_one_shot_queries_load_no_parsing_module():
    # fractions brings decimal, numbers and re (with enum), json brings re,
    # and argparse serves only help and usage errors: no workload line loads
    # any of them, except that char higher parses its --matrix with json
    parsing = ("re", "enum", "decimal", "numbers", "fractions", "json", "argparse")
    for argv in WORKLOAD_LINES:
        loaded = "['enum', 'json', 're']" if argv[:2] == ["char", "higher"] else "[]"
        assert _modules_loaded(parsing, argv) == f"[0] {loaded}", argv


def _argparse_vars(argv):
    """vars() of argparse's parse of argv, or None where argparse exits
    (help, or a usage error)."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli.build_parser(argv).parse_args(argv))
    except SystemExit:
        return None


def _parsers_agree(argv) -> bool:
    """Whether the plain parser read argv; where it did, argparse accepts the
    line and builds the same namespace."""
    plain = cli._plain_parse(list(argv))
    if plain is not None:
        assert vars(plain) == _argparse_vars(list(argv)), argv
    return plain is not None


def test_plain_parser_reads_every_workload_line_as_argparse_does():
    assert all(_parsers_agree(argv) for argv in WORKLOAD_LINES)
    # the text format and every other flag
    for argv in (
        ["count", "(3,2)", "--mod", "5", "--res", "1", "--neg", "2", "--timing"],
        ["verify", "all", "--profile", "quick", "--max-n", "3", "--qcap", "4"],
        ["verify", "thrall", "--max-total", "4", "--max-m", "2", "--max-degree", "3"],
        ["char", "lie", ""],
        ["count", ""],
    ):
        assert _parsers_agree(argv), argv
    for argv in EXIT_CASES.values():
        _parsers_agree(argv)
    # these only argparse may read
    for case in ("usage error from argparse", "abbreviated flag", "negative positional"):
        assert cli._plain_parse(EXIT_CASES[case]) is None, case


VOCABULARY = (
    "char", "dim", "count", "verify", "lie", "bilie", "higher", "hook", "kw", "all", "nosuch",
    "0", "1", "2", "3", "x", "-1", "(2,1)", "[[1,1,1]]", "", "--", "-h", "--help",
    "--format", "json", "text", "--timing", "--oracle", "--gf", "--mod", "--res", "--neg",
    "--matrix", "--profile", "quick", "full", "--max-n", "--max-total", "--max-m", "--qcap",
    "--max-degree", "--form", "--format=json", "--max", "--oracl",
)
WORDS = st.sampled_from(VOCABULARY)
FLAGS = st.sampled_from([word for word in VOCABULARY if word.startswith("-")])
VALUES = st.sampled_from([word for word in VOCABULARY if not word.startswith("-")])
TYPICAL = {"char": ["lie", "3", "2"], "dim": ["3", "2", "1"], "count": ["(2,1)"], "verify": ["hook"]}


@st.composite
def near_grammar(draw):
    """A command, then its usual positionals or other words, then flags:
    most are the command's own with a value of the kind they take, the rest
    other words, alone or with a word after them.  Many of these lines are
    plain, and the others miss by a token or two."""
    command = draw(st.sampled_from(sorted(TYPICAL)))
    line = [command, *draw(st.one_of(st.just(TYPICAL[command]), st.lists(VALUES, max_size=4)))]
    own = [(name, spec) for name, spec in cli._arguments(command) if name.startswith("-")]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)):
            name, spec = draw(st.sampled_from(own))
            line.append(name)
            if spec.get("action") != "store_true":
                line.append(draw(st.sampled_from(spec.get("choices", ["0", "3", "x", "(2,1)"]))))
        else:
            line += draw(st.tuples(FLAGS, st.lists(VALUES, max_size=1)).map(lambda t: [t[0], *t[1]]))
    return line


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(WORDS, max_size=8), near_grammar()))
def test_plain_parser_agrees_with_argparse(argv):
    _parsers_agree(argv)
