"""Per-layer tracing for the benchmark's traced run.

Run as a script, this file is the child process of one traced job:

    python -S bench/tracing.py SPANS_OUT JOB_ID ARGV...

It imports ``freelie``, wraps the public names listed in ``TARGETS`` in every
``freelie`` module that holds them (and on the shared classes), calls
``freelie.cli.main(ARGV)``, and at exit writes the recorded spans and counters
to SPANS_OUT as JSON.  Nothing inside ``src/`` is changed.

Three kinds of wrapper keep the overhead in proportion to the call rate:

* ``span``  -- one node per call: name, start, end, parent node.
* ``hot``   -- one node per (parent node, name); it sums calls and busy time.
  Used for small functions called tens of thousands of times per job.
* ``count`` -- a call counter only, no timing.

The parent process turns the nodes of every job into per-layer metrics with
``layer_metrics``; self time is a node's busy time minus its children's.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

SPAN, HOT, COUNT = "span", "hot", "count"

# (module, attribute path, wrapper kind).  Attribute paths with a dot name a
# method on a class; every alias of that function on the class is wrapped.
TARGETS: list[tuple[str, str, str]] = [
    ("cli", "load_cache", SPAN),
    ("exactalg", "QTPoly.__mul__", HOT),
    ("exactalg", "QTPoly.divide_exact_q", HOT),
    ("exactalg", "MultiPoly.__mul__", HOT),
    ("exactalg", "SparseEchelon.add", HOT),
    ("exactalg", "qpoly_mul", HOT),
    ("exactalg", "qpoly_exact_div", HOT),
    ("exactalg", "cyclo_reduce", HOT),
    ("partition", "check_partition", COUNT),
    ("partition", "partitions_of", COUNT),
    ("tableau", "maj_neg_generating_poly", SPAN),
    ("tableau", "comaj_neg_generating_poly", SPAN),
    ("tableau", "count_super_tableaux", SPAN),
    ("tableau", "syt_enumerate", HOT),
    ("symfunc", "mn_character", HOT),
    ("symfunc", "to_p", HOT),
    ("symfunc", "p_to_s", HOT),
    ("symfunc", "schur_expand", HOT),
    ("symfunc", "bi_schur_expand", HOT),
    ("symfunc", "multiply", HOT),
    ("symfunc", "bi_multiply", HOT),
    ("symfunc", "plethysm_p", HOT),
    ("symfunc", "h_pleth", HOT),
    ("symfunc", "e_pleth", HOT),
    ("symfunc", "bi_plethysm_p", HOT),
    ("symfunc", "bi_h_pleth", HOT),
    ("symfunc", "bi_e_pleth", HOT),
    ("symfunc", "expand_truncated", HOT),
    ("symfunc", "bi_expand_truncated", HOT),
    ("symfunc", "diagonal", HOT),
    ("symfunc", "frobenius_characteristic", HOT),
    ("superlie", "super_brandt_char", HOT),
    ("superlie", "super_bi_brandt_char", HOT),
    ("superlie", "super_witt_dim", HOT),
    ("superlie", "petrogradsky_series", SPAN),
    ("superlie", "gamma_char", HOT),
    ("superlie", "super_lie_module_char", SPAN),
    ("superlie", "enumerate_bidegree_matrices", HOT),
    ("superlie", "thrall_sum_check", SPAN),
    ("superlie", "brute_force_lie_dim", SPAN),
    ("specialization", "hook_product", HOT),
    ("specialization", "qsym_principal_spec", HOT),
    ("specialization", "omega_extract", HOT),
    ("specialization", "omega_extract_roots", HOT),
    ("specialization", "qps_check", HOT),
    ("specialization", "s_ps_check", HOT),
    ("specialization", "qt_hook_consistency_check", HOT),
    ("specialization", "pi_root_check", HOT),
    ("specialization", "kw_generating_function", HOT),
    ("specialization", "kw_check", HOT),
    ("specialization", "symmetry_counts", HOT),
    ("specialization", "degree_two_checks", HOT),
    ("specialization", "super_cauchy_check", HOT),
    ("specialization", "super_schur_truncated", HOT),
    ("specialization", "super_qsym_truncated", HOT),
    ("cyclic", "chi_cyc", HOT),
    ("cyclic", "chi_cyc_oracle", HOT),
    ("cyclic", "induce_frobenius", HOT),
    ("cyclic", "induce_oracle", HOT),
    ("cyclic", "super_klyachko_char", HOT),
]

ROOT = "cli.main"
MODULES = ("cli", "exactalg", "tableau", "symfunc", "superlie", "specialization", "cyclic")

# Inclusive-time groups: metric -> span names.  A call nested inside another
# call of the same group is not counted twice.
TIME_GROUPS = {
    "cli.load_cache_s": {"cli.load_cache"},
    "exactalg.qtpoly_mul_s": {"exactalg.QTPoly.__mul__"},
    "exactalg.divide_exact_q_s": {"exactalg.QTPoly.divide_exact_q"},
    "exactalg.echelon_add_s": {"exactalg.SparseEchelon.add"},
    "tableau.gen_poly_s": {"tableau.maj_neg_generating_poly", "tableau.comaj_neg_generating_poly"},
    "tableau.count_s": {"tableau.count_super_tableaux"},
    "symfunc.p_to_s_s": {"symfunc.p_to_s"},
    "symfunc.schur_expand_s": {"symfunc.schur_expand", "symfunc.bi_schur_expand"},
    "symfunc.multiply_s": {"symfunc.multiply", "symfunc.bi_multiply"},
    "symfunc.pleth_s": {
        "symfunc.plethysm_p", "symfunc.h_pleth", "symfunc.e_pleth",
        "symfunc.bi_plethysm_p", "symfunc.bi_h_pleth", "symfunc.bi_e_pleth",
    },
    "superlie.brute_force_s": {"superlie.brute_force_lie_dim"},
    "specialization.hook_product_s": {"specialization.hook_product"},
    "specialization.qsym_spec_s": {"specialization.qsym_principal_spec"},
    "specialization.omega_s": {"specialization.omega_extract", "specialization.omega_extract_roots"},
    "cyclic.oracle_s": {"cyclic.induce_oracle", "cyclic.chi_cyc_oracle"},
}

# Call-count metrics: metric -> span or counter names.
CALL_GROUPS = {
    "exactalg.qtpoly_mul_calls": {"exactalg.QTPoly.__mul__"},
    "exactalg.echelon_add_calls": {"exactalg.SparseEchelon.add"},
    "partition.check_partition_calls": {"partition.check_partition"},
    "partition.partitions_of_calls": {"partition.partitions_of"},
    "tableau.gen_poly_calls": {"tableau.maj_neg_generating_poly", "tableau.comaj_neg_generating_poly"},
}

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS: dict[str, str] = {
    "cli.self_s": "s",
    "cli.load_cache_s": "s",
    "exactalg.self_s": "s",
    "exactalg.qtpoly_mul_calls": "count",
    "exactalg.qtpoly_mul_s": "s",
    "exactalg.divide_exact_q_s": "s",
    "exactalg.echelon_add_calls": "count",
    "exactalg.echelon_add_s": "s",
    "exactalg.echelon_rank": "count",
    "exactalg.echelon_useful_ratio": "ratio",
    "partition.check_partition_calls": "count",
    "partition.partitions_of_calls": "count",
    "tableau.self_s": "s",
    "tableau.gen_poly_calls": "count",
    "tableau.gen_poly_shapes": "count",
    "tableau.gen_poly_s": "s",
    "tableau.count_s": "s",
    "tableau.pairs_computed": "count",
    "symfunc.self_s": "s",
    "symfunc.mn_entries": "count",
    "symfunc.p_to_s_s": "s",
    "symfunc.schur_expand_s": "s",
    "symfunc.multiply_s": "s",
    "symfunc.pleth_s": "s",
    "superlie.self_s": "s",
    "superlie.brute_force_s": "s",
    "superlie.bracket_expand_s": "s",
    "specialization.self_s": "s",
    "specialization.hook_product_s": "s",
    "specialization.qsym_spec_s": "s",
    "specialization.omega_s": "s",
    "cyclic.self_s": "s",
    "cyclic.oracle_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Node layout: [id, parent id (-1 for a root), name, start, end, busy, calls]
ID, PARENT, NAME, START, END, BUSY, CALLS = range(7)


# ---------------------------------------------------------------------------
# recording (child side)


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self, job: str):
        self.job = job
        self.nodes: list[list] = []
        self.stack: list[int] = [-1]
        self.hot_nodes: dict[tuple[int, str], list] = {}
        self.counts: dict[str, int] = {}
        self.gen_poly_keys: set[tuple[tuple[int, ...], str]] = set()
        self.echelon_rank = 0

    def _new_node(self, name: str) -> list:
        node = [len(self.nodes), self.stack[-1], name, 0.0, 0.0, 0.0, 0]
        self.nodes.append(node)
        return node

    def wrap(self, name: str, kind: str, fn, note=None):
        """Return a wrapper of fn that records it as ``name``; ``note`` is
        called with (args, result) after each call."""
        stack, clock = self.stack, time.perf_counter

        if kind == COUNT:
            counts = self.counts
            counts.setdefault(name, 0)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        hot_nodes = self.hot_nodes
        new_node = self._new_node

        def traced(*args, **kwargs):
            if kind == SPAN:
                node = new_node(name)
            else:
                node = hot_nodes.get((stack[-1], name))
                if node is None:
                    node = hot_nodes[(stack[-1], name)] = new_node(name)
            stack.append(node[ID])
            start = clock()
            if not node[CALLS]:
                node[START] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                node[END] = end
                node[BUSY] += end - start
                node[CALLS] += 1
            if note is not None:
                note(args, result)
            return result

        return functools.wraps(fn)(traced)

    def note_gen_poly(self, statistic: str):
        def note(args, _result):
            self.gen_poly_keys.add((tuple(args[0]), statistic))

        return note

    def note_echelon_add(self, _args, grew) -> None:
        if grew:
            self.echelon_rank += 1

    def dump(self, extra: dict) -> dict:
        return {
            "job": self.job,
            "nodes": self.nodes,
            "counts": self.counts,
            "gen_poly_keys": [[list(lam), stat] for lam, stat in sorted(self.gen_poly_keys)],
            "echelon_rank": self.echelon_rank,
            **extra,
        }


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in the loaded ``freelie`` modules; return the names
    that no longer exist."""
    modules = [m for key, m in sorted(sys.modules.items()) if key == "freelie" or key.startswith("freelie.")]
    notes = {
        "tableau.maj_neg_generating_poly": tracer.note_gen_poly("maj"),
        "tableau.comaj_neg_generating_poly": tracer.note_gen_poly("comaj"),
        "exactalg.SparseEchelon.add": tracer.note_echelon_add,
    }
    absent = []
    for module_name, path, kind in TARGETS:
        name = f"{module_name}.{path}"
        owner = sys.modules.get(f"freelie.{module_name}")
        *class_path, attr = path.split(".")
        for part in class_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, kind, original, notes.get(name))
        if class_path:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return absent


def _child_main(argv: list[str]) -> int:
    out_path, job, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(job)
    import freelie.cli as cli

    absent = install(tracer)
    main = tracer.wrap(ROOT, SPAN, cli.main)
    try:
        code = main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        character_cache = getattr(sys.modules.get("freelie.symfunc"), "_character_cache", None)
        if character_cache is None:
            absent.append("symfunc._character_cache")
        extra = {
            "absent": absent,
            "mn_entries": len(character_cache) if character_cache is not None else 0,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(extra), fh, separators=(",", ":"))
    return code


# ---------------------------------------------------------------------------
# aggregation (parent side)


def self_times(nodes: list[list]) -> dict[int, float]:
    """Busy time of each node minus the busy time of its direct children."""
    own = {node[ID]: node[BUSY] for node in nodes}
    for node in nodes:
        if node[PARENT] >= 0:
            own[node[PARENT]] -= node[BUSY]
    return own


def outermost_busy(nodes: list[list], names: set[str]) -> float:
    """Busy time of the nodes named in ``names`` that have no ancestor also
    named there, so that nested calls of one group are counted once."""
    by_id = {node[ID]: node for node in nodes}
    total = 0.0
    for node in nodes:
        if node[NAME] not in names:
            continue
        parent = node[PARENT]
        while parent >= 0 and by_id[parent][NAME] not in names:
            parent = by_id[parent][PARENT]
        if parent < 0:
            total += node[BUSY]
    return total


def syt_count(lam) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for r, part in enumerate(lam):
        for c in range(part):
            hooks *= (part - c - 1) + (conj[c] - r - 1) + 1
    return math.factorial(sum(lam)) // hooks


def job_metrics(record: dict) -> dict[str, float]:
    """Per-layer totals of one traced job (everything but ratios)."""
    nodes = record["nodes"]
    own = self_times(nodes)
    out: dict[str, float] = {f"{module}.self_s": 0.0 for module in MODULES}
    for node in nodes:
        module = node[NAME].split(".", 1)[0]
        if module in MODULES:
            out[f"{module}.self_s"] += own[node[ID]]
    for metric, names in TIME_GROUPS.items():
        out[metric] = outermost_busy(nodes, names)
    for metric, names in CALL_GROUPS.items():
        out[metric] = sum(node[CALLS] for node in nodes if node[NAME] in names) + sum(
            record["counts"].get(name, 0) for name in names
        )
    out["superlie.bracket_expand_s"] = sum(
        (own[node[ID]] for node in nodes if node[NAME] == "superlie.brute_force_lie_dim"), 0.0
    )
    keys = record["gen_poly_keys"]
    out["tableau.gen_poly_shapes"] = len({tuple(lam) for lam, _ in keys})
    out["tableau.pairs_computed"] = sum(syt_count(lam) << sum(lam) for lam, _ in keys)
    out["exactalg.echelon_rank"] = record["echelon_rank"]
    out["symfunc.mn_entries"] = record["mn_entries"]
    return out


def pass_metrics(jobs: list[dict[str, float]]) -> dict[str, float]:
    """Sum of job_metrics over the jobs of one traced pass, plus the echelon
    useful ratio (rank gained per vector added)."""
    total: dict[str, float] = {}
    for metrics in jobs:
        for key, value in metrics.items():
            total[key] = total.get(key, 0) + value
    adds = total["exactalg.echelon_add_calls"]
    total["exactalg.echelon_useful_ratio"] = total["exactalg.echelon_rank"] / adds if adds else 0.0
    return total


def layer_metrics(passes: list[list[dict[str, float]]], traced_walls: list[float], plain_walls: list[float]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric; ``passes`` holds
    the job_metrics of each traced pass."""
    per_pass = [pass_metrics(jobs) for jobs in passes]
    out = {name: statistics.median(p[name] for p in per_pass) for name in LAYER_METRICS if name != "trace.overhead_ratio"}
    out["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return out


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
