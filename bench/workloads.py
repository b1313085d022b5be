"""Workload definitions, seeded job generation and output validation.

A job is one ``freelie`` CLI invocation (the argv after ``python -m
freelie.cli``).  A workload is an ordered list of jobs made from a seed; the
program only ever sees the generated argv.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations, product

from tracing import syt_count

DEFAULT_SEED = 20241107


@dataclass(frozen=True)
class Job:
    kind: str  # verify | oracle | lie | bilie | higher | gf | dim
    argv: tuple[str, ...]
    expected_checks: int | None = None  # verify jobs: checks the suite must run

    @property
    def cli_argv(self) -> list[str]:
        return [*self.argv, "--format", "json"]


# Check counts of each suite at the "full" profile, recorded at the commit that
# introduced this benchmark (1014 checks in all).  A verify job that runs a
# different number of checks -- including none -- fails validation.
FULL_SUITE_CHECKS = {
    "brandt-diagonal": 88,
    "petrogradsky": 80,
    "witt-oracle": 136,
    "thrall": 20,
    "klyachko": 94,
    "super-klyachko": 44,
    "hook": 132,
    "qps": 31,
    "sps": 47,
    "cauchy": 5,
    "reu": 202,
    "kw": 45,
    "symmetry": 86,
    "degree-two": 4,
}


def _suites_full() -> list[Job]:
    return [
        Job("verify", ("verify", suite, "--profile", "full"), checks)
        for suite, checks in FULL_SUITE_CHECKS.items()
    ]


def _tableau_wall() -> list[Job]:
    return [
        Job("verify", ("verify", "hook", "--max-n", "9"), 192),
        Job("verify", ("verify", "kw", "--max-total", "9"), 55),
    ]


def _bracket_wall() -> list[Job]:
    bidegrees = [(n, 5 - n, 2) for n in range(6)] + [(n, 4 - n, 3) for n in range(5)]
    bidegrees.append((3, 2, 3))
    return [Job("oracle", ("dim", str(n), str(m), str(N), "--oracle")) for n, m, N in bidegrees]


# ---------------------------------------------------------------------------
# char-queries: 100 one-shot queries, 30/20/20/15/15 by kind
#
# Each kind draws from a fixed population of valid queries.  The population is
# sorted by a cost proxy and cut into as many equal strata as the kind has
# queries; the seed picks one query per stratum.  Every seed therefore gets the
# same kinds in the same proportions and the same spread of sizes, while the
# queries themselves differ.

HIGHER_MAX_DEGREE = 12  # n + m cap on random support matrices
DIM_MAX_DEGREE = 10


def _divisor_count(k: int) -> int:
    return sum(1 for d in range(1, k + 1) if k % d == 0)


def _bidegrees(max_total: int) -> list[tuple[int, int]]:
    return [(t - m, m) for t in range(1, max_total + 1) for m in range(t + 1)]


def _bidegree_cost(nm: tuple[int, int]) -> tuple:
    n, m = nm
    return (n + m, _divisor_count(math.gcd(n, m)), m)


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _support_matrices(max_total: int) -> list[tuple[tuple[int, int, int], ...]]:
    cells = [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)]
    out = []
    for k in (1, 2, 3):
        for chosen in combinations(cells, k):
            for mults in product((1, 2, 3), repeat=k):
                matrix = tuple((i, j, a) for (i, j), a in zip(chosen, mults))
                if sum((i + j) * a for i, j, a in matrix) <= max_total:
                    out.append(matrix)
    return out


def _matrix_cost(matrix) -> tuple:
    return (sum((i + j) * a for i, j, a in matrix), len(matrix), matrix)


def stratified_sample(rng: random.Random, population: list, k: int, cost) -> list:
    """One uniform pick from each of k equal strata of the population sorted
    by cost."""
    ordered = sorted(population, key=cost)
    return [ordered[rng.randrange(i * len(ordered) // k, (i + 1) * len(ordered) // k)] for i in range(k)]


QUERY_MIX = {"lie": 30, "bilie": 20, "higher": 20, "gf": 15, "dim": 15}


def char_queries(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []
    for n, m in stratified_sample(rng, _bidegrees(20), QUERY_MIX["lie"], _bidegree_cost):
        jobs.append(Job("lie", ("char", "lie", str(n), str(m))))
    for n, m in stratified_sample(rng, _bidegrees(16), QUERY_MIX["bilie"], _bidegree_cost):
        jobs.append(Job("bilie", ("char", "bilie", str(n), str(m))))
    matrices = _support_matrices(HIGHER_MAX_DEGREE)
    for matrix in stratified_sample(rng, matrices, QUERY_MIX["higher"], _matrix_cost):
        text = json.dumps([list(cell) for cell in matrix], separators=(",", ":"))
        jobs.append(Job("higher", ("char", "higher", "--matrix", text)))
    shapes = [lam for n in range(1, 9) for lam in _partitions(n)]
    for lam in stratified_sample(rng, shapes, QUERY_MIX["gf"], lambda lam: (syt_count(lam) << sum(lam), lam)):
        jobs.append(Job("gf", ("count", "(" + ",".join(map(str, lam)) + ")", "--gf")))
    triples = [(n, m, N) for n, m in _bidegrees(DIM_MAX_DEGREE) for N in range(1, 7)]
    for n, m, N in stratified_sample(rng, triples, QUERY_MIX["dim"], lambda x: (x[0] + x[1], x[2], x[1])):
        jobs.append(Job("dim", ("dim", str(n), str(m), str(N))))
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: list[Job] | None  # None: generated from the seed

    def jobs(self, seed: int) -> list[Job]:
        """The workload's jobs for this seed.  Fixed workloads only have
        their order shuffled by the seed."""
        if self.fixed is None:
            return char_queries(seed)
        jobs = list(self.fixed)
        random.Random(seed).shuffle(jobs)
        return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suites-full",
            "the 14 verify suites at the full profile: touches every module and pays 14 start-ups",
            _suites_full(),
        ),
        Workload(
            "tableau-wall",
            "verify hook --max-n 9 and kw --max-total 9: the SYT x 2^n signed-tableau enumeration wall",
            _tableau_wall(),
        ),
        Workload(
            "bracket-wall",
            "dim --oracle up to degree 5: the bracket-rank oracle (echelon and bracket expansion), no tableaux",
            _bracket_wall(),
        ),
        Workload(
            "char-queries",
            "100 seeded one-shot char/count/dim queries: interactive use, dominated by start-up, Schur expansion and rendering",
            None,
        ),
    )
}


# ---------------------------------------------------------------------------
# validation


def check_report(job: Job, exit_code: int, stdout: str) -> tuple[str | None, object]:
    """Checks on one job's output.  Returns (failure reason or None, the value
    the deferred second-route check compares, or None)."""
    if exit_code != 0:
        return f"exit code {exit_code}", None
    try:
        report = json.loads(stdout)
        status, payload = report["status"], report["payload"]
    except (ValueError, KeyError, TypeError):
        return "output is not a JSON report", None
    if status != "pass":
        return f"status {status!r}", None
    if job.kind == "verify":
        if payload.get("failed") != 0:
            return f"{payload.get('failed')} checks failed", None
        if payload.get("total") != job.expected_checks:
            return f"ran {payload.get('total')} checks, expected {job.expected_checks}", None
    elif job.kind == "oracle" and payload.get("match") is not True:
        return "oracle rank does not match the dimension formula", None
    elif job.kind == "lie" and payload.get("schur_nonneg_integral") is not True:
        return "Schur expansion is not nonnegative integral", None
    elif job.kind == "gf":
        return None, json.dumps(sorted(payload.get("monomials", [])))
    elif job.kind == "dim":
        return None, payload.get("dim")
    return None, None


def second_route(job: Job):
    """The value a gf or dim job must report, computed along the other route
    in this process (imports freelie from src/)."""
    from freelie.partition import parse_partition
    from freelie.specialization import hook_product
    from freelie.superlie import super_brandt_char
    from freelie.symfunc import expand_truncated

    if job.kind == "gf":
        return json.dumps(sorted(hook_product(parse_partition(job.argv[1])).to_json()))
    if job.kind == "dim":
        n, m, N = (int(x) for x in job.argv[1:4])
        value = expand_truncated(super_brandt_char(n, m), N).eval_all_ones()
        return int(value) if value.denominator == 1 else str(value)
    raise ValueError(f"no second route for {job.kind}")
