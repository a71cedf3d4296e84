#!/usr/bin/env python3
"""End-to-end benchmark of DSAGEN: one command for every workload.

    python3 perfbench/run.py --workload <dse|fig10-compile|sim-sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/perfbench; later
runs only let the build check that it is up to date.

The C++ harness (perfbench/perfbench.cc) prints a raw record of one run.
This script checks it and prints, as the last line of stdout, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. The line before it is the run record:
host core count, build type, compiler, git commit and command.

--record-digests stores the default seed's digests in
perfbench/digests.json; every later run at that seed must reproduce them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("dse", "fig10-compile", "sim-sweep")
DEFAULT_SEED = 1
# Fresh processes whose set-up time setup_s takes the median of.
SETUP_PROCESSES = {"dse": 7, "fig10-compile": 7, "sim-sweep": 5}
# The Table-I kernels of Fig. 10, in the harness's order.
KERNELS = ("md", "crs", "ellpack", "mm", "stencil-2d", "stencil-3d",
           "histogram", "join", "qr", "chol", "fft", "fir", "solver",
           "p-mm", "2mm", "3mm")
UNROLLS = (1, 4)
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = {
    "mapper.schedule_s": "mapper::SpatialScheduler::run",
    "dse.run_s": "dse::Explorer::run",
    "compiler.place_s": "compiler::Placement::autoLayout",
    "compiler.lower_s": "compiler::lowerKernel",
    "model.estimate_s": "model::estimatePerformance",
    "sim.simulate_s": "sim::simulate",
    "sim.image_build_s": "sim::MemImage::build",
    "sim.check_s": "workloads::checkOutputs",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    u = {
        "mapper.schedule_s": "s",
        "mapper.schedule_illegal_s": "s",
        "mapper.legal_ratio": "ratio",
    }
    for k in KERNELS:
        for n in UNROLLS:
            u["mapper.schedule_ms.%s.u%d" % (k, n)] = "ms"
    u.update({
        "mapper.iterations": "count",
        "mapper.us_per_iteration": "us",
        "mapper.route_calls": "count",
        "mapper.nodes_expanded": "count",
        "mapper.route_cache_useful_ratio": "ratio",
        "mapper.sssp_hits_per_build": "ratio",
        "mapper.probe_memo_hit_ratio": "ratio",
        "mapper.landmark_hit_ratio": "ratio",
        "dse.run_s": "s",
        "dse.candidates": "count",
        "dse.accepted": "count",
        "dse.eval_failures": "count",
        "dse.eval_cache_hit_ratio": "ratio",
        "dse.placement_hit_ratio": "ratio",
        "dse.lower_hit_ratio": "ratio",
        "dse.cost_memo_hit_ratio": "ratio",
        "compiler.place_s": "s",
        "compiler.lower_s": "s",
        "compiler.lower_failures": "count",
        "model.estimate_s": "s",
        "sim.simulate_s": "s",
    })
    for k in KERNELS:
        u["sim.simulate_ms.%s" % k] = "ms"
    u.update({
        "sim.image_build_s": "s",
        "sim.check_s": "s",
        "sim.cycles": "count",
        "sim.cycles_jit": "count",
        "sim.cycles_replayed": "count",
        "sim.cycles_compiled": "count",
        "sim.cycles_generic": "count",
        "sim.cycles_skipped": "count",
        "sim.mcycles_per_s": "Mcycles/s",
        "sim.simulate_p50_ms": "ms",
        "sim.simulate_p90_ms": "ms",
        "sim.simulate_samples": "count",
        "sim.jit_compiles": "count",
        "sim.jit_compile_ms": "ms",
        "workloads.golden_s": "s",
        "bench.trace_overhead_pct": "%",
    })
    return u


PER_LAYER = per_layer_units()


class BenchError(Exception):
    """A run that cannot produce a result."""


# ---------------------------------------------------------------- statistics

def percentile(values, p):
    """Nearest-rank percentile @p p (0 < p <= 100) of @p values."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))  # ceil(n * p / 100)
    return s[min(len(s), int(rank)) - 1]


def top_percentile(n, choices=(50, 90, 99, 99.9)):
    """Highest of @p choices that leaves at least ten of @p n samples
    beyond it, or None when even the lowest does not."""
    best = None
    for p in choices:
        if n * (100 - p) / 100 >= 10 - 1e-9:
            best = p
    return best


def ratio(num, den):
    return num / den if den else 0.0


def by_sub(passes):
    subs = {}
    for p in passes:
        subs.setdefault(p["sub"], []).append(p)
    return [subs[k] for k in sorted(subs)]


def mean_of_sub_medians(passes, fn):
    """Median of fn(pass) per sub-seed, averaged over sub-seeds."""
    groups = by_sub(passes)
    if not groups:
        return 0.0
    return statistics.fmean(statistics.median(fn(p) for p in g)
                            for g in groups)


def fastest_sum(passes, field):
    """Sum over a sweep's operations of each one's fastest repetition:
    the minimum of @p field over the passes, in seconds. Load from
    other processes on a shared host only ever adds time, so the
    fastest repetition is the steadiest estimate of an operation's
    cost."""
    best = {}
    for p in passes:
        for o in p["ops"]:
            best[o["id"]] = min(best.get(o["id"], o[field]), o[field])
    return sum(best.values()) / 1e3


def sweeps(workload, passes):
    """(operations, seconds) of one sweep per sub-seed. Operations are
    DSE candidates, compile tasks or simulate calls."""
    out = []
    for g in by_sub(passes):
        ops = (g[0]["counts"].get("dse.candidates", 0)
               if workload == "dse" else len(g[0]["ops"]))
        out.append((ops, fastest_sum(g, "step_ms")))
    return out


# --------------------------------------------------------------- correctness

def check_ops(record, recorded):
    """Count attempted and failed operations of a raw record.

    An operation fails when the harness's own check failed, when its
    digest differs from the same sub-seed's digest in an earlier pass,
    or, at the default seed, when it differs from @p recorded.
    """
    attempted = failed = 0
    errors = []
    first = {}
    default = record["seed"] == DEFAULT_SEED
    for i, p in enumerate(record["passes"]):
        for op in p["ops"]:
            attempted += 1
            key = "s%d/%s" % (p["sub"], op["id"])
            why = None
            if not op["ok"]:
                why = op.get("error", "check failed")
            elif key in first and first[key] != op["digest"]:
                why = "digest differs from an earlier pass"
            elif default and recorded.get(key) != op["digest"]:
                why = "digest differs from the recorded one"
            first.setdefault(key, op["digest"])
            if why:
                failed += 1
                errors.append("pass %d %s: %s" % (i, key, why))
    return attempted, failed, errors


def pass_digests(record):
    """The first pass's digest of every (sub-seed, operation)."""
    out = {}
    for p in record["passes"]:
        for op in p["ops"]:
            out.setdefault("s%d/%s" % (p["sub"], op["id"]), op["digest"])
    return out


# ------------------------------------------------------------------- metrics

def end_to_end(record, setup_times):
    sw = sweeps(record["workload"], record["passes"])
    return {
        "wall_s": statistics.fmean(t for _, t in sw),
        "ops_per_s": statistics.fmean(n / t for n, t in sw),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def self_times(spans):
    """{pass: {span name: self time in s}}: each span's duration minus
    the part of it its direct children cover."""
    child = {}
    for s in spans:
        a = s["args"]
        if a["parent"] >= 0:
            child[a["parent"]] = child.get(a["parent"], 0.0) + s["dur"]
    out = {}
    for s in spans:
        a = s["args"]
        t = (s["dur"] - child.get(a["id"], 0.0)) / 1e6
        names = out.setdefault(a["pass"], {})
        names[s["name"]] = names.get(s["name"], 0.0) + t
    return out


def per_layer(record, spans):
    passes = record["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if not traced or not untraced:
        raise BenchError("a traced run needs traced and untraced passes")
    index = {id(p): i for i, p in enumerate(passes)}
    selfs = self_times(spans)

    def span_s(name):
        return lambda p: selfs.get(index[id(p)], {}).get(name, 0.0)

    def timed(fn):
        return mean_of_sub_medians(traced, fn)

    firsts = [g[0] for g in by_sub(traced)]

    def count(name):
        return statistics.fmean(p["counts"].get(name, 0) for p in firsts)

    m = {k: 0.0 for k in PER_LAYER}
    for metric, span in SPAN_METRICS.items():
        m[metric] = timed(span_s(span))
    m["mapper.schedule_illegal_s"] = timed(lambda p: sum(
        o["ms"] for o in p["ops"] if o["legal"] == 0) / 1e3)
    m["mapper.legal_ratio"] = ratio(count("mapper.legal"),
                                    count("mapper.schedules"))
    op_ids = {o["id"] for p in passes for o in p["ops"]}
    if record["workload"] == "fig10-compile":
        expected = {"%s.u%d" % (k, n) for k in KERNELS for n in UNROLLS}
        if op_ids != expected:
            raise BenchError("unexpected compile tasks %s" % sorted(op_ids))
        for oid in expected:
            m["mapper.schedule_ms." + oid] = timed(lambda p, oid=oid: sum(
                o["ms"] for o in p["ops"] if o["id"] == oid))
    for name in ("mapper.iterations", "mapper.route_calls",
                 "mapper.nodes_expanded", "dse.candidates", "dse.accepted",
                 "dse.eval_failures", "compiler.lower_failures",
                 "sim.cycles", "sim.cycles_jit", "sim.cycles_replayed",
                 "sim.cycles_compiled", "sim.cycles_generic",
                 "sim.cycles_skipped"):
        m[name] = count(name)
    busy = m["mapper.schedule_s"] or m["dse.run_s"]
    m["mapper.us_per_iteration"] = ratio(busy * 1e6, m["mapper.iterations"])
    m["mapper.route_cache_useful_ratio"] = ratio(
        count("mapper.route_cache_hits"),
        count("mapper.route_cache_hits") + count("mapper.route_cache_misses")
        + count("mapper.route_cache_stale"))
    m["mapper.sssp_hits_per_build"] = ratio(count("mapper.sssp_hits"),
                                            count("mapper.sssp_builds"))
    for metric, stem in (("mapper.probe_memo_hit_ratio", "mapper.probe_memo"),
                         ("mapper.landmark_hit_ratio", "mapper.landmark"),
                         ("dse.eval_cache_hit_ratio", "dse.eval"),
                         ("dse.placement_hit_ratio", "dse.placement"),
                         ("dse.lower_hit_ratio", "dse.lower"),
                         ("dse.cost_memo_hit_ratio", "dse.cost")):
        hits, misses = count(stem + "_hits"), count(stem + "_misses")
        m[metric] = ratio(hits, hits + misses)

    if record["workload"] == "sim-sweep":
        if op_ids != set(KERNELS):
            raise BenchError("unexpected kernels %s" % sorted(op_ids))
        for k in KERNELS:
            m["sim.simulate_ms." + k] = timed(lambda p, k=k: sum(
                o["ms"] for o in p["ops"] if o["id"] == k))
        m["sim.mcycles_per_s"] = (untraced[0]["counts"]["sim.cycles"] / 1e6
                                  / fastest_sum(untraced, "ms"))
        lat = [o["ms"] for p in untraced for o in p["ops"]]
        if (top_percentile(len(lat)) or 0) < 90:
            raise BenchError("%d simulate calls leave fewer than ten "
                             "beyond p90" % len(lat))
        m["sim.simulate_p50_ms"] = percentile(lat, 50)
        m["sim.simulate_p90_ms"] = percentile(lat, 90)
        m["sim.simulate_samples"] = len(lat)
    for name in ("sim.jit_compiles", "sim.jit_compile_ms"):
        m[name] = record["setup_counts"].get(name, 0.0)
    m["workloads.golden_s"] = selfs.get(-1, {}).get("workloads::runGolden",
                                                     0.0)
    overhead = []
    for g in by_sub(passes):
        t = [p["wall_s"] for p in g if p["traced"]]
        u = [p["wall_s"] for p in g if not p["traced"]]
        if t and u:
            overhead.append(statistics.median(t) / statistics.median(u) - 1)
    m["bench.trace_overhead_pct"] = 100 * statistics.fmean(overhead)
    return m


def result_line(attempted, failed, metrics, units):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })


# ----------------------------------------------------------------- execution

def build():
    """Configure (once) and build the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no DSAGEN sources beside perfbench/ (run from "
                         "a checkout of the repository root)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError("%s not found" % tool)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def run_harness(argv, scratch, deadline):
    env = dict(os.environ, TMPDIR=scratch)
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the timed run")
    out = subprocess.run(argv, stdout=subprocess.PIPE, env=env, cwd=scratch,
                         timeout=left, check=False)
    if out.returncode != 0:
        raise BenchError("%s exited with %d" % (argv[0], out.returncode))
    return json.loads(out.stdout)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=True)
        return out.stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's digests (default seed only)")
    args = ap.parse_args(argv)
    if args.seed < 1:
        ap.error("--seed must be at least 1")
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        ap.error("--record-digests needs --seed %d --trace 0" % DEFAULT_SEED)

    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    records = os.path.join(ROOT, ".bench_build", "records")
    os.makedirs(records, exist_ok=True)
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(scratch)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_path = os.path.join(records, stem + ".trace.json")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--scratch", scratch]
    try:
        setup_times = [
            run_harness(base + ["--trace", "0", "--setup-only", "1"],
                       scratch, deadline)["setup_s"]
            for _ in range(SETUP_PROCESSES[args.workload] - 1)]
        rec = run_harness(base + ["--trace", str(args.trace),
                                 "--trace-out", trace_path],
                         scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup_times.append(rec["setup_s"])

    if args.record_digests:
        attempted, failed, errors = check_ops(rec, pass_digests(rec))
        if failed:
            raise BenchError("not recording digests of a failing run: " +
                             "; ".join(errors[:5]))
        allsets = load_digests()
        allsets[args.workload] = pass_digests(rec)
        with open(DIGESTS, "w") as f:
            json.dump(allsets, f, indent=1, sort_keys=True)
            f.write("\n")
    attempted, failed, errors = check_ops(
        rec, load_digests().get(args.workload, {}))
    if args.trace:
        if not rec["trace_written"]:
            raise BenchError("could not write " + trace_path)
        with open(trace_path) as f:
            metrics = per_layer(rec, json.load(f)["traceEvents"])
        units = PER_LAYER
    else:
        metrics = end_to_end(rec, setup_times)
        units = END_TO_END

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "build_type": rec["build_type"],
        "compiler": rec["compiler"],
        "git_commit": git_commit(),
        "command": ["python3", os.path.relpath(sys.argv[0], ROOT)]
                   + sys.argv[1:],
        "passes": len(rec["passes"]),
        "setup_times_s": setup_times,
        "errors": errors[:20],
        "metrics": metrics,
    }
    with open(os.path.join(records, stem + ".json"), "w") as f:
        json.dump(run_record, f, indent=1)
    with open(os.path.join(records, stem + ".raw.json"), "w") as f:
        json.dump(rec, f)
    for e in errors[:20]:
        print("FAILED " + e, file=sys.stderr)
    print("run record: " + json.dumps({k: run_record[k] for k in (
        "workload", "seed", "trace", "nproc", "build_type", "compiler",
        "git_commit", "command", "passes")}))
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
