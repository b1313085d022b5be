import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from freelie import cli, symfunc, verify
from freelie.exactalg import MultiPoly
from freelie.partition import parse_partition

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
    assert "discrepancy: weight (1,1)|(1):" in out


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
    assert {r.check for r in reports} >= {"hook-formula", "pi-root"}
    assert len([r for r in reports if r.check == "hook-formula"]) == 3


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
        degrees = {_degree(r.parameters) for r in reports if r.check != "omega-filter-vs-roots"}
        assert max(degrees) == value, suite
    # omega_max_r is a modulus, not a degree: max_total leaves it alone
    assert reports[-1].parameters == {"trials": 100, "max_r": 12, "seed": 2025}
    code, out, _ = run(capsys, "verify", "klyachko", "--max-n", "3", "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["payload"]["total"] == 18
    # an override above a capped bound leaves that bound at its profile value
    reports = verify.run_suite("witt-oracle", "full", {"max_total": 7})
    assert max(_degree(r.parameters) for r in reports if r.check == "witt-vs-bracket-rank") == 4


def test_verify_empty_run_is_usage_error(capsys):
    for argv in (["hook", "--max-n", "0"], ["reu", "--max-n", "-3"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == cli.EXIT_USAGE
        assert "pass" not in out and "no checks" in err


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


def test_cli_import_leaves_out_heavy_modules():
    # a one-shot query pays for every module the import loads; these come in
    # only through dataclasses and typing
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    code = f"import sys, freelie.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        "f87d0343a01e8e912b05404eca55e76e651887cb20d41a668e7b674cd7926420",
    ),
    "verify thrall --profile quick": (
        "0556c1ed244de68428852a88e77e27dcf166342d1ffd2de352db5c159d7e2682",
        "c4134a45954b8cff781525d192cac4deda02148da1bb0f1f288e07d6e8efc204",
    ),
    "verify klyachko --profile quick": (
        "a9c22f0944a7c00cc40cfd361f41effc9f241bd83cffbad2a67e742428bf82e3",
        "5e1b3bf93d5e998f47424207f93505ed4784fafc35ce3c4ee06dc939ced67dce",
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
    "char bilie 3 2": (
        "cd1083717ed7d977cf3399a30f11dcb12b951d4e8adf8b786e58e44285f8fbcd",
        "e71694394ad03b1186c5046e940e91d4a3395f55fb7c682ad77c1c822f47d099",
    ),
    "char higher --matrix [[1,1,2],[2,0,1]]": (
        "23d5aa8c8c59c3a7049ef906a60546bbf06be78edb8e36c3001e0456d8ea17d9",
        "a0113fb52f8e63444b4f9281d1c3974d0d2eeab65382373ad4ede8e1cfc4882f",
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
