"""Tests of the benchmark's own logic: span arithmetic, failure accounting and
seeded job generation.  They start no processes."""

import json
import os

import pytest

import run
import tracing
from workloads import FULL_SUITE_CHECKS, QUERY_MIX, WORKLOADS, Job, char_queries, check_report


def node(id_, parent, name, busy, calls=1):
    return [id_, parent, name, 0.0, busy, busy, calls]


def record(nodes, **extra):
    return {"nodes": nodes, "counts": {}, "gen_poly_keys": [], "echelon_rank": 0, "mn_entries": 0, **extra}


def test_self_time_is_busy_minus_direct_children():
    nodes = [
        node(0, -1, "cli.main", 10.0),
        node(1, 0, "symfunc.h_pleth", 4.0),
        node(2, 1, "symfunc.plethysm_p", 2.5),
        node(3, 2, "exactalg.QTPoly.__mul__", 1.0, calls=30),
        node(4, 0, "superlie.brute_force_lie_dim", 5.0),
        node(5, 4, "exactalg.SparseEchelon.add", 3.0, calls=200),
    ]
    assert tracing.self_times(nodes) == {0: 1.0, 1: 1.5, 2: 1.5, 3: 1.0, 4: 2.0, 5: 3.0}

    metrics = tracing.job_metrics(record(nodes))
    assert metrics["cli.self_s"] == 1.0
    assert metrics["symfunc.self_s"] == 3.0
    assert metrics["exactalg.self_s"] == 4.0
    assert metrics["superlie.self_s"] == 2.0
    # nested calls of one group are counted once
    assert metrics["symfunc.pleth_s"] == 4.0
    assert metrics["superlie.brute_force_s"] == 5.0
    assert metrics["superlie.bracket_expand_s"] == 2.0
    assert metrics["exactalg.echelon_add_calls"] == 200
    assert metrics["exactalg.qtpoly_mul_calls"] == 30
    # module self times add up to the root span
    assert sum(metrics[f"{m}.self_s"] for m in tracing.MODULES) == pytest.approx(10.0)


def test_pass_metrics_sum_jobs_and_take_useful_ratio():
    jobs = [
        tracing.job_metrics(record([node(0, -1, "exactalg.SparseEchelon.add", 1.0, calls=30)], echelon_rank=3)),
        tracing.job_metrics(record([node(0, -1, "exactalg.SparseEchelon.add", 2.0, calls=10)], echelon_rank=1)),
    ]
    total = tracing.pass_metrics(jobs)
    assert total["exactalg.echelon_add_s"] == 3.0
    assert total["exactalg.echelon_useful_ratio"] == 4 / 40


def test_pairs_computed_counts_each_shape_and_statistic():
    keys = [[[2, 1], "maj"], [[2, 1], "comaj"], [[3], "maj"]]
    metrics = tracing.job_metrics(record([], gen_poly_keys=keys))
    assert metrics["tableau.gen_poly_shapes"] == 2
    assert metrics["tableau.pairs_computed"] == 2 * (2 << 3) + (1 << 3)
    assert [tracing.syt_count(lam) for lam in [(3, 2), (2, 2, 1), (4, 3, 1), ()]] == [5, 5, 70, 1]


class _Runner:
    def stderr_tail(self):
        return "Traceback: boom"


def _report(status="pass", **payload):
    return json.dumps({"command": "x", "parameters": {}, "status": status, "payload": payload})


def test_failure_accounting():
    hook = Job("verify", ("verify", "hook"), 132)
    measurement = run.Measurement()
    measurement.record(0, hook, 0, 1000, _report(total=132, failed=0), _Runner())
    measurement.record(0, hook, 1, 1000, "", _Runner())
    measurement.record(0, hook, 0, 1000, _report(status="fail", total=132, failed=1), _Runner())
    measurement.record(0, hook, 0, 1000, _report(total=131, failed=0), _Runner())
    measurement.record(0, hook, 0, 1000, _report(total=0, failed=0), _Runner())
    assert measurement.attempted == 5
    assert len(measurement.failures) == 4
    assert "exit code 1" in measurement.failures[0] and "boom" in measurement.failures[0]
    assert "status 'fail'" in measurement.failures[1]
    assert "ran 131 checks, expected 132" in measurement.failures[2]
    assert "ran 0 checks" in measurement.failures[3]


@pytest.mark.parametrize(
    "job, payload, ok",
    [
        (Job("oracle", ("dim", "1", "1", "2", "--oracle")), {"dim": 2, "oracle": 2, "match": True}, True),
        (Job("oracle", ("dim", "1", "1", "2", "--oracle")), {"dim": 2, "oracle": 1, "match": False}, False),
        (Job("lie", ("char", "lie", "2", "1")), {"schur_nonneg_integral": True}, True),
        (Job("lie", ("char", "lie", "2", "1")), {"schur_nonneg_integral": False}, False),
    ],
)
def test_kind_specific_checks(job, payload, ok):
    reason, _ = check_report(job, 0, _report(**payload))
    assert (reason is None) == ok


def test_second_route_mismatch_is_a_failure():
    job = Job("dim", ("dim", "2", "1", "3"))
    measurement = run.Measurement()
    measurement.record(0, job, 0, 1000, _report(dim=27), _Runner())
    measurement.record(0, job, 0, 1000, _report(dim=28), _Runner())
    measurement.check_deferred([job])
    assert measurement.attempted == 2
    assert measurement.failures == ["dim 2 1 3: reported 28, second route gives 27"]


def test_same_seed_same_queries():
    assert char_queries(7) == char_queries(7)
    assert char_queries(7) != char_queries(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_query_mix_is_fixed_for_every_seed(seed):
    jobs = char_queries(seed)
    assert len(jobs) == 100
    assert {kind: sum(j.kind == kind for j in jobs) for kind in QUERY_MIX} == QUERY_MIX


def test_fixed_workloads_only_reorder():
    for workload in WORKLOADS.values():
        if workload.fixed is not None:
            assert sorted(workload.jobs(3), key=str) == sorted(workload.fixed, key=str)
    assert sum(FULL_SUITE_CHECKS.values()) == 1014


def test_committed_benchmark_json_matches_definitions():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_json()
