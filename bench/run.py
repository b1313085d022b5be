"""Fresh-process benchmark for freelie.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --write-benchmark-json

Every job is a new ``python -S -m freelie.cli ... --format json`` process, so
no memo table is ever warm.  Jobs run in a closed loop: one client, one job at
a time, the next job starts when the previous one has exited.  Passes over the
workload's jobs repeat until ``--seconds`` is used up (at least MIN_PASSES).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics (see tracing.py).  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_report, second_route  # noqa: E402

RUN_SECONDS = 20
MIN_PASSES = 3
PROBES_FIRST = 11
PROBES_PER_PASS = 5
BUILD_DIR = ".bench_build"
# load_cache is looked up softly so that the probe outlives the disk cache.
PROBE_CODE = "import freelie.cli as cli; getattr(cli, 'load_cache', lambda: None)()"

# name -> (unit, bound): bound is the share of the parent's median by which
# the metric may worsen before a change counts as a regression.  On a shared
# 2-vCPU host, CPU-bound timings drift by 10-15% over minute-long phases that
# no run length within the time budget averages out, so every timing gets the
# largest bound allowed; peak RSS barely moves.
END_TO_END = {
    "setup_s": ("s", 0.25),
    "wall_s": ("s", 0.25),
    "cpu_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
    "query_p50_ms": ("ms", 0.25),
    "query_p90_ms": ("ms", 0.25),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name == "exactalg.echelon_useful_ratio" else "lower"}
            for name, unit in tracing.LAYER_METRICS.items()
        ],
    }


class Runner:
    """Spawns child interpreters with isolated disk state and reaps them with
    wait4 to collect their resource usage."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        cache = os.path.join(workdir, "cache")
        home = os.path.join(workdir, "home")
        os.makedirs(cache)
        os.makedirs(home)
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": home,
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "PYTHONHASHSEED": "0",
            "SUPERLIE_CACHE_DIR": cache,
        }
        self.spawned = 0
        self.stderr = ""

    def run(self, args: list[str]) -> tuple[int, float, float, int, str]:
        """Run ``python -S ARGS``; return (exit code, wall s, cpu s, max RSS kB,
        stdout).  The child's stderr is kept in ``self.stderr``."""
        # A fresh file per job: on ext4, truncating a file that was just
        # written flushes it to disk on close, which would add tens of ms.
        self.spawned += 1
        out_path = os.path.join(self.workdir, f"out-{self.spawned}")
        err_path = os.path.join(self.workdir, f"err-{self.spawned}")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-S", *args], self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        outputs = []
        for path in (out_path, err_path):
            with open(path, encoding="utf-8", errors="replace") as fh:
                outputs.append(fh.read())
            os.unlink(path)
        stdout, self.stderr = outputs
        cpu = usage.ru_utime + usage.ru_stime
        return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss, stdout

    def stderr_tail(self) -> str:
        return self.stderr[-300:].strip()


class Measurement:
    """Per-job samples of one run, and the failure accounting."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.max_rss_kb = 0
        self.deferred: dict[int, list] = {}  # job index -> observed values
        self.absent: set[str] = set()  # traced names missing from the program

    def record(self, index, job, code, rss_kb, stdout, runner) -> bool:
        """Validate one job execution; returns whether it passed."""
        self.attempted += 1
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        reason, observed = check_report(job, code, stdout)
        if reason is not None:
            detail = runner.stderr_tail() if code != 0 else ""
            self.failures.append(f"{' '.join(job.argv)}: {reason} {detail}".strip())
            return False
        if observed is not None:
            self.deferred.setdefault(index, []).append(observed)
        return True

    def check_deferred(self, jobs) -> None:
        """Second-route checks, made after all timing is done."""
        src = os.path.join(ROOT, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for index, observed in sorted(self.deferred.items()):
            expected = second_route(jobs[index])
            for value in observed:
                if value != expected:
                    self.failures.append(f"{' '.join(jobs[index].argv)}: reported {value}, second route gives {expected}")


def run_pass(runner, jobs, measurement, trace_dir=None, pass_no=0):
    """One closed-loop pass.  Returns the (wall s, cpu s) of each job and, for
    a traced pass, each job's layer metrics."""
    times = []
    layer_records = []
    for index, job in enumerate(jobs):
        if trace_dir is None:
            args = ["-m", "freelie.cli", *job.cli_argv]
        else:
            spans = os.path.join(trace_dir, "spans.json")
            job_id = f"pass{pass_no}-job{index}"
            args = [os.path.join(BENCH_DIR, "tracing.py"), spans, job_id, *job.cli_argv]
        code, wall, cpu, rss, stdout = runner.run(args)
        times.append((wall, cpu))
        ok = measurement.record(index, job, code, rss, stdout, runner)
        if trace_dir is not None:
            try:
                with open(spans, encoding="utf-8") as fh:
                    record = json.load(fh)
                os.remove(spans)
            except (OSError, ValueError):
                if ok:
                    measurement.failures.append(f"{' '.join(job.argv)}: traced job wrote no spans")
                continue
            measurement.absent.update(record["absent"])
            layer_records.append(tracing.job_metrics(record))
    return times, layer_records


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def compile_bytecode(runner: Runner) -> None:
    code, *_ = runner.run(["-m", "compileall", "-q", os.path.join(ROOT, "src", "freelie")])
    if code != 0:
        raise RuntimeError(f"compileall failed: {runner.stderr_tail()}")


def probe(runner: Runner, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters set up for one job."""
    probes = []
    for _ in range(count):
        code, wall, *_ = runner.run(["-c", PROBE_CODE])
        if code != 0:
            raise RuntimeError(f"import probe failed: {runner.stderr_tail()}")
        probes.append(wall)
    return probes


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    runner = Runner(workdir)
    compile_bytecode(runner)
    # Set-up probes are spread over the run, a batch before the first pass and
    # one after each plain pass, so that one burst of load on the host cannot
    # move their median.
    probes = [] if trace else probe(runner, PROBES_FIRST)
    jobs = workload.jobs(seed)
    measurement = Measurement()
    plain, traced, layer_passes = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(runner, jobs, measurement)[0])
        if trace:
            times, records = run_pass(runner, jobs, measurement, workdir, len(traced))
            traced.append(sum(wall for wall, _ in times))
            layer_passes.append(records)
        else:
            probes += probe(runner, PROBES_PER_PASS)
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= (1 if trace else MIN_PASSES) and elapsed + elapsed / rounds > seconds:
            break
    measurement.check_deferred(jobs)

    def per_pass(stat):
        return statistics.median(stat(times) for times in plain)

    if trace:
        metrics = tracing.layer_metrics(layer_passes, traced, [sum(w for w, _ in times) for times in plain])
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(probes),
            "wall_s": per_pass(lambda times: sum(w for w, _ in times)),
            "cpu_s": per_pass(lambda times: sum(c for _, c in times)),
            "peak_rss_mb": measurement.max_rss_kb / 1024.0,
            "query_p50_ms": per_pass(lambda times: 1000.0 * statistics.median(w for w, _ in times)),
            "query_p90_ms": per_pass(lambda times: 1000.0 * percentile([w for w, _ in times], 0.9)),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    failed = len(measurement.failures)
    attempted = measurement.attempted
    print(f"workload {workload.name}: seed {seed}, {len(jobs)} jobs x {len(plain)} passes"
          + (f" + {len(traced)} traced passes" if trace else ""))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6f} ratio ({failed} of {attempted} jobs)")
    for name in sorted(measurement.absent):
        print(f"  absent: {name} (its metrics read 0)")
    for reason in measurement.failures[:10]:
        print(f"  FAILED {reason}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "freelie", "cli.py")):
        print("error: src/freelie is missing; run from a freelie checkout", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, BUILD_DIR))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
