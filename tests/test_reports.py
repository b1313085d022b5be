"""The verification machinery must be able to say no: exercise the failure
and discrepancy-reporting paths that the true identities never reach."""

from fractions import Fraction

from freelie.exactalg import QTPoly, first_difference
from freelie.specialization import SpecSeries, symmetry_counts
from freelie.symfunc import SymFunc
from freelie.verify import _equality


def test_a_check_shows_its_routes_only_when_it_fails():
    passed = _equality("demo", {"n": 1}, 1, 1)
    assert passed == {"check": "demo", "parameters": {"n": 1}, "status": "pass"}
    failed = _equality("demo", {"n": 2}, {"a": 1}, {"a": 2})
    assert failed["status"] == "fail"
    assert (failed["lhs"], failed["rhs"]) == ("{a: 1}", "{a: 2}")
    assert failed["first_discrepancy"] == "a"
    # routes that differ at no key they can name: both routes, no discrepancy
    unnamed = _equality("demo", {}, 1, 2)
    assert unnamed == {"check": "demo", "parameters": {}, "status": "fail", "lhs": "1", "rhs": "2"}


def test_spec_series_first_difference():
    a = SpecSeries(6, {(0, 0): Fraction(1), (3, 1): Fraction(2)})
    b = SpecSeries(6, {(0, 0): Fraction(1), (3, 1): Fraction(5)})
    assert first_difference(a, b) == (3, 1)
    assert first_difference(a, a) is None


def test_sym1_check_can_fail():
    # shape (2,1): maj values 1 and 2, so residues 1 and 2 mod 3 each hold
    # one tableau and residue 0 holds none; unequal-gcd residues differ
    counts = symmetry_counts((2, 1), 3, 0)
    assert counts == {0: 0, 1: 1, 2: 1}
    assert counts[1] == counts[2]      # gcd 1 = gcd 2... both coprime to 3
    assert counts[1] != counts[3 % 3]  # gcd(1,3)=1 vs gcd(3,3)=3: may differ, does
    # the suite's two routes for the pair (1, 3) therefore differ, and the
    # report names it
    report = _equality("demo", {}, {(1, 3): counts[1]}, {(1, 3): counts[0]})
    assert (report["status"], report["first_discrepancy"]) == ("fail", "(1, 3)")


def test_multiplicity_pipeline_distinguishes_residues():
    # negative control: extracting residue 2 instead of 1 at degree 4 gives
    # the multiplicities of a different induced module, which disagree with
    # the degree-(4,0) character at three shapes
    from freelie.partition import partitions_of
    from freelie.specialization import kw_generating_function, omega_extract
    from freelie.superlie import super_brandt_char
    from freelie.symfunc import schur_expand

    gf = kw_generating_function(4)
    wrong = omega_extract(gf, 4, 2)
    expansion = schur_expand(super_brandt_char(4, 0))
    mismatches = [
        lam
        for lam in partitions_of(4)
        if wrong.get(lam, QTPoly()).coefficient(0, 0) != expansion.get(lam, 0)
    ]
    assert mismatches == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_sym_func_degree_queries():
    f = SymFunc({(2, 1): 1, (1,): Fraction(1, 2), (4,): 2})
    assert f.degrees() == [1, 3, 4]
    assert f.coefficient((2, 1)) == 1
    assert f.coefficient((3,)) == 0


def test_bi_sym_func_coefficient():
    from freelie.symfunc import BiSymFunc

    f = BiSymFunc({((2,), (1,)): 3})
    assert f.coefficient((2,), (1,)) == 3
    assert f.coefficient((1,), (2,)) == 0



def test_equality_report_shows_both_routes_and_first_difference():
    a = QTPoly({(0, 0): 1, (2, 1): 3})
    b = QTPoly({(0, 0): 1, (1, 0): 2, (2, 1): 3})
    assert _equality("demo", {"n": 1}, a, a) == {
        "check": "demo", "parameters": {"n": 1}, "status": "pass"
    }
    assert _equality("demo", {"n": 1}, a, b) == {
        "check": "demo",
        "parameters": {"n": 1},
        "status": "fail",
        "lhs": "1 + 3*q^2*t",
        "rhs": "1 + 2*q + 3*q^2*t",
        "first_discrepancy": "(1, 0)",
    }


def test_failing_suite_reports_where_the_routes_differ(monkeypatch, capsys):
    from freelie import cli, superlie
    from freelie.symfunc import BiSymFunc

    real = superlie.thrall_routes

    def skewed(n, m):
        lhs, rhs = real(n, m)
        return lhs, rhs + BiSymFunc.term((1,), (1,)) if (n, m) == (1, 1) else rhs

    monkeypatch.setattr(superlie, "thrall_routes", skewed)
    code = cli.main(["verify", "thrall", "--max-total", "2"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_IDENTITY_FAILURE
    assert '[fail] thrall-sum {"m": 1, "n": 1}\n    discrepancy: ((1,), (1,))' in out
    assert out.count("[fail]") == 1
    # both routes follow the discrepancy, named like the CLI's two-alphabet keys
    assert "(1,), (1,))\n    lhs: 2*[(1)|(1)]\n    rhs: 3*[(1)|(1)]\n" in out


def test_equality_names_the_first_differing_key_of_dicts_and_tuples():
    # dicts in their own order, not sorted: the suites insert in canonical order
    a = {(3,): 1, (1, 1, 1): 2, (2, 1): 3}
    b = {(3,): 1, (1, 1, 1): 5, (2, 1): 4}
    report = _equality("demo", {}, a, b)
    assert report["first_discrepancy"] == "(1, 1, 1)"
    assert report["lhs"] == "{(3,): 1, (1, 1, 1): 2, (2, 1): 3}"
    assert _equality("demo", {}, a, {**a, (4,): 1})["first_discrepancy"] == "(4,)"
    # tuples: the index of the first unequal pair, and where that pair differs
    p = QTPoly({(0, 0): 1})
    report = _equality("demo", {}, (p, p), (p, p + QTPoly.q()))
    assert report["first_discrepancy"] == "(1, (1, 0))"
    assert report["rhs"] == "1; 1 + q"
    # a failing case among many leads the discrepancy
    report = _equality("demo", {}, p, p + QTPoly.t(), case="trial 3")
    assert report["first_discrepancy"] == "trial 3, at (0, 1)"


def test_omega_check_names_its_first_failing_trial(monkeypatch):
    from freelie import specialization, verify

    real = specialization.omega_extract_roots
    calls = []

    def late(f, r, s):
        calls.append((f, r, s))
        out = real(f, r, s)
        return {**out, (9,): QTPoly.t()} if len(calls) > 2 else out

    monkeypatch.setattr(specialization, "omega_extract_roots", late)
    report = verify.run_suite("kw", "quick", {"max_total": 1})[-1]
    f, r, s = calls[2]
    assert len(calls) == 3
    assert (report["check"], report["status"]) == ("omega-filter-vs-roots", "fail")
    assert report["first_discrepancy"] == (
        f"trial 2: r = {r}, s = {s}, f = {verify._render(f)}, at (9,)"
    )
    by_filter = specialization.omega_extract(f, r, s)
    assert report["lhs"] == verify._render(by_filter)
    assert report["rhs"] == verify._render({**by_filter, (9,): QTPoly.t()})
