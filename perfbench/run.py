"""unitlat benchmark: run one workload against the CLI and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs the workload's ops, each one CLI invocation, closed-loop by a
single client in one fresh interpreter (perfbench/worker.py), because CLI
users pay a cold start on every call.  Passes repeat while another one
fits in S seconds (at least one).  Outputs are checked
against pinned references and perfbench/oracle.py; an op fails on a
non-zero exit, a violated check, an uncertified minimum or a mismatch.
The run is correct when every failed op repeats a failure recorded in
perfbench/data/references.json when the benchmark was added.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports per-layer metrics, timed from outside the
program, plus the tracing overhead.  The last stdout line is the JSON
result; earlier lines give the environment, the fail rate and failures.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import mpmath
import numpy

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# set-up-only interpreters started before each pass, so that set-up
# samples spread over the whole run
SETUP_PROBES = 3
PASS_TIMEOUT_S = 150

# per-layer metrics: traced public function -> statistics reported for it
LAYER_METRICS = {
    "units.klein_unit_structure": ("incl_s", "calls"),
    "biquadratic.sqrt_in_field": ("calls", "found", "found_ratio",
                                  "escalated", "self_s"),
    "precision.reconstruct_rational": ("calls", "self_s"),
    "biquadratic.is_unit": ("incl_s",),
    "biquadratic.embed_real": ("self_s",),
    "loglattice.min_one_norm": ("self_s", "calls", "certified"),
    "loglattice.log_embed_klein": ("incl_s",),
    "quadratic.fundamental_unit": ("calls", "self_s"),
    "verifier.klein_field_report": ("incl_s", "calls"),
    "units.regulator_cross_check": ("incl_s",),
    "units.search_relative_units": ("incl_s", "hits"),
    "units.verify_hasse_relations": ("incl_s",),
    "loglattice.log_embed_cyclic": ("incl_s", "calls"),
    "quartic.char_poly": ("calls", "self_s"),
    "quartic.norm_to_Q": ("incl_s",),
    "quartic.embed_all": ("self_s",),
    "verifier.cyclic_entry_report": ("incl_s",),
    "verifier.closed_form_equivalence": ("self_s",),
    "verifier.constrained_min_reports": ("self_s",),
    "cli.main": ("self_s", "incl_s"),
}
UNITS = {"incl_s": "s", "self_s": "s", "found_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_pass(catalog, ops, trace):
    """One fresh interpreter running every op in order; returns the
    worker's report with setup_s and each op's check result added."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, ROOT, catalog],
            input=json.dumps({"trace": list(LAYER_METRICS) if trace else [],
                              "ops": [op.argv for op in ops]}),
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past %d s" % PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker failed:\n%s" % proc.stderr[-2000:])
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - start
    for op, result in zip(ops, report["ops"]):
        try:
            result["problems"] = op.check(result)
        except (KeyError, TypeError, ValueError) as exc:
            result["problems"] = ["malformed output: %r" % exc]
        result["argv"] = op.argv
    return report


def pass_wall(p):
    return sum(r["wall_s"] for r in p["ops"])


def tail(passes):
    """Highest percentile of op latency with at least 10 samples beyond
    it.  When that would fall below the median (too few ops), the median
    over passes of each pass's slowest op instead."""
    ordered = sorted(1000 * r["wall_s"] for p in passes for r in p["ops"])
    n = len(ordered)
    if n - 11 >= n // 2:
        return ordered[n - 11], "p%.1f of %d" % (100.0 * (n - 10) / n, n)
    slowest = [1000 * max(r["wall_s"] for r in p["ops"]) for p in passes]
    return statistics.median(slowest), "median over %d passes of the slowest" % len(passes)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups):
    ops = [r for p in passes for r in p["ops"]]
    op_ms = [1000 * r["wall_s"] for r in ops]
    tail_ms, tail_label = tail(passes)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(pass_wall(p) for p in passes), "s"),
        "cpu_s": metric(statistics.median(sum(r["cpu_s"] for r in p["ops"])
                                          for p in passes), "s"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    notes = ["op_tail_ms is the %s op latencies" % tail_label,
             "setup_s is the median of %d set-ups" % len(setups),
             "wall_s, cpu_s and peak_rss_mb are medians over %d pass(es) of %d ops"
             % (len(passes), len(passes[0]["ops"]))]
    return metrics, notes


def layer_totals(trace):
    out = {}
    for name, stats in LAYER_METRICS.items():
        rec = trace.get(name, {})
        for stat in stats:
            if stat == "found_ratio":
                value = rec.get("found", 0) / rec["calls"] if rec.get("calls") else 0.0
            else:
                value = rec.get(stat, 0)
            out["%s.%s" % (name, stat)] = value
    return out


def per_layer(untraced, traced):
    per_pass = [layer_totals(p["trace"]) for p in traced]
    metrics = {name: metric(statistics.median(t[name] for t in per_pass),
                            UNITS.get(name.rsplit(".", 1)[1], "count"))
               for name in per_pass[0]}
    base = statistics.median(pass_wall(p) for p in untraced)
    overhead = statistics.median(pass_wall(p) for p in traced) - base
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_share"] = metric(overhead / base, "ratio")
    return metrics


def environment(seed, passes):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "mpmath": mpmath.__version__,
            "blas_threads": sorted({p["blas_threads"] for p in passes}),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "unitlat", "cli.py")):
        raise BenchError("no unitlat sources under %s" % os.path.join(ROOT, "src"))

    catalog, ops = workloads.WORKLOADS[args.workload](args.seed)
    setups, untraced, traced = [], [], []
    start = time.monotonic()
    while True:
        if not args.trace:
            setups += [run_pass(catalog, [], 0)["setup_s"]
                       for _ in range(SETUP_PROBES)]
        untraced.append(run_pass(catalog, ops, 0))
        if args.trace:
            traced.append(run_pass(catalog, ops, 1))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break

    passes = untraced + traced
    reports = [r for p in passes for r in p["ops"]]
    failed = [r for r in reports if r["problems"]]
    unknown = [r for r in failed
               if not all(p.startswith(workloads.KNOWN) for p in r["problems"])]
    if args.trace:
        metrics = per_layer(untraced, traced)
        notes = ["per-layer values are medians over %d traced pass(es)" % len(traced)]
    else:
        setups += [p["setup_s"] for p in untraced]
        metrics, notes = end_to_end(untraced, setups)

    print("env " + json.dumps(environment(args.seed, passes)))
    for note in notes:
        print("note " + note)
    print("fail_rate %.6f (%d failed of %d attempted ops; %d distinct inputs fail;"
          " %d failed ops are not known failures)"
          % (len(failed) / len(reports), len(failed), len(reports),
             len({tuple(r["argv"]) for r in failed}), len(unknown)))
    for r in failed:
        print("failed %s: %s" % (" ".join(r["argv"][-3:]), "; ".join(r["problems"])))
    for name, m in metrics.items():
        print("metric %s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not unknown, "attempted": len(reports),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, RuntimeError) as exc:
        sys.exit("benchmark error: %s" % exc)
