#!/usr/bin/env python3
"""The repository benchmark.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload solve-dp --seed 1 --seconds 30 --trace 0

builds perfbench/bench.exe with dune, runs the workload, checks every
output, writes the full result (with run metadata) under
perfbench/results/, and prints one JSON line with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The timed end-to-end figures are scaled to a reference host, net of the
vCPU time the host stole and of how fast it ran a fixed kernel (see
perfbench/calib.ml); the unscaled ones are in the result file.

    python3 perfbench/run.py diff RESULTS_A RESULTS_B

compares two result sets (directories of result files) workload by
workload and metric by metric, with a verdict for each. Runs whose
outputs were wrong or whose open loop saturated are left out (and named);
each side's failed/attempted ops are printed, and B is never called
improved while it fails more often than A. Sets taken with a different
nproc, jobs or --seconds are refused.

    python3 perfbench/run.py smoke

is the benchmark's own test: a short run of every workload, checking that
every metric is reported, that span self times add up to the op wall,
and that a planted wrong digest is caught.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RESULTS = os.path.join("perfbench", "results")
JOBS = 2
EXE_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads_doc():
    """Seeds and the per-workload layer map: which layers each workload
    loads (must read above zero in a traced run) and bypasses (zero)."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark from the sources in the checkout."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune project with lib/ at %s: nothing to build" % ROOT)
    # keep the build's cache and temporary files inside the checkout
    tmp = os.path.join(ROOT, "_build", "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=tmp)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "-j", str(JOBS), "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def commit():
    """The git commit, or a digest of the sources when the checkout is
    not a git repository."""
    def git(*args):
        r = subprocess.run(["git", "-C", ROOT] + list(args), stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        return r.stdout.decode().strip() if r.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.realpath(top) == os.path.realpath(ROOT):
            return git("rev-parse", "HEAD")
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, ds, fs in os.walk(path)
            for f in fs if "results" not in os.path.relpath(d, ROOT).split(os.sep))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_exe(workload, seed, seconds, trace, spans_out=None, plant=False):
    cmd = [os.path.join(ROOT, EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    if plant:
        cmd.append("--plant-bad-digest")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=EXE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload %s did not finish in %d s" % (workload, EXE_TIMEOUT_S), 1)
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    if r.returncode != 0 or not lines:
        die("workload %s failed (exit %d)" % (workload, r.returncode), 1)
    return json.loads(lines[-1])


def run(args, results_dir=RESULTS, plant=False):
    load_1m = os.getloadavg()[0]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    build()
    out_dir = os.path.join(ROOT, results_dir, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    stem = "seed%d-trace%d-%d" % (args.seed, args.trace, time.time_ns())
    spans = os.path.join(results_dir, args.workload, stem + "-spans.json") if args.trace else None
    res = run_exe(args.workload, args.seed, args.seconds, args.trace, spans, plant)
    s = spec()
    names = [m["name"] for m in s["end_to_end" if args.trace == 0 else "per_layer"]]
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        die("workload %s did not report %s" % (args.workload, ", ".join(missing)), 1)
    record = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "ocaml_version": res["ocaml_version"],
        "jobs": res["jobs"],
        "seed": args.seed,
        "load_avg_1m_at_start": load_1m,
        "started_at": started,
    }
    record.update(res)
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    line = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {n: res["metrics"][n] for n in names}}
    print(json.dumps(line))
    return record


# ------------------------------------------------------------------ diff


def load_set(path):
    runs = []
    for d, _, fs in os.walk(path):
        for f in sorted(fs):
            if f.endswith(".json") and not f.endswith("-spans.json"):
                with open(os.path.join(d, f)) as fh:
                    r = json.load(fh)
                if "metrics" in r and r.get("trace") == 0:
                    runs.append(r)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, bound, better, tail_ok, b_fails_more):
    """improved / worse / unchanged / unresolved for one metric."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "lower" else -1
    # positive = b worse than a, as a share of a's median
    change = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                 (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0)
    b_better = lambda x, y: sign * (y - x) < 0  # y (from b) better than x (from a)
    all_better = all(b_better(x, y) for x in a for y in b)
    if not tail_ok:
        return change, "unresolved (fewer than 10 samples beyond p95)"
    if spread > bound and not all_better:
        return change, "unresolved (spread %.3f > bound %.3f)" % (spread, bound)
    if change > bound:
        return change, "worse"
    wins = sum(1 for x in a for y in b if b_better(x, y)) / float(len(a) * len(b))
    if change < 0 and abs(qb[1] - qa[1]) > (qa[2] - qa[0]) and wins >= 0.9:
        if b_fails_more:
            return change, "unresolved (faster, but B fails more often than A)"
        return change, "improved"
    return change, "unchanged"


def fail_rate(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed, attempted


def diff(path_a, path_b):
    s = spec()
    ra, rb = load_set(path_a), load_set(path_b)
    if not ra or not rb:
        die("no untraced result files in %s" % (path_b if ra else path_a), 1)
    for w in {r["workload"] for r in ra + rb}:
        for key in ("nproc", "jobs", "seconds"):
            va = {r[key] for r in ra if r["workload"] == w}
            vb = {r[key] for r in rb if r["workload"] == w}
            if len(va | vb) != 1:
                die("refusing to compare %s: %s differs (%s vs %s)"
                    % (w, key, sorted(va), sorted(vb)), 1)
    print("%-12s %-14s %28s %28s %8s  %s" % ("workload", "metric", "A median [q1, q3]",
                                              "B median [q1, q3]", "change", "verdict"))
    for w in sorted({r["workload"] for r in ra} | {r["workload"] for r in rb}):
        all_a = [r for r in ra if r["workload"] == w]
        all_b = [r for r in rb if r["workload"] == w]
        fa, na = fail_rate(all_a)
        fb, nb = fail_rate(all_b)
        print("%-12s failed/attempted: A %d/%d, B %d/%d" % (w, fa, na, fb, nb))
        b_fails_more = fb * na > fa * nb  # B's failure rate above A's
        # a run whose outputs were wrong, or whose open loop saturated,
        # measured something else: its figures are left out
        wa = [r for r in all_a if r["correct"]]
        wb = [r for r in all_b if r["correct"]]
        for side, runs in (("A", all_a), ("B", all_b)):
            for r in runs:
                if not r["correct"]:
                    print("%-12s %s: left out seed %d (%s)" % (
                        w, side, r["seed"],
                        r.get("invalid_reason") or "%d of %d ops failed" % (r["failed"], r["attempted"])))
        if not wa or not wb:
            print("%-12s only one side has correct runs" % w)
            continue
        for m in s["end_to_end"]:
            n = m["name"]
            a = [r["metrics"][n]["value"] for r in wa]
            b = [r["metrics"][n]["value"] for r in wb]
            tail_ok = n != "op_p95_ms" or all(
                r.get("info", {}).get("p95_tail_samples", 0) >= 10 for r in wa + wb)
            change, v = verdict(a, b, m["bound"], m["better"], tail_ok, b_fails_more)
            qa, qb = quartiles(a), quartiles(b)
            print("%-12s %-14s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%%  %s" % (
                w, n, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100 * change, v))


# ----------------------------------------------------------------- smoke

SPAN_SUM_TOLERANCE = 0.01  # |sum of self times - op wall| / op wall, per op


def smoke(seconds=2):
    s = spec()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    results_dir = os.path.join(RESULTS, "smoke")
    for w in [x["name"] for x in s["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=1, seconds=seconds, trace=trace)
            r = run(args, results_dir)
            kind = "per_layer" if trace else "end_to_end"
            check(r["correct"] and r["failed"] == 0, "%s trace=%d: outputs correct" % (w, trace))
            names = [m["name"] for m in s[kind]]
            check(all(n in r["metrics"] for n in names),
                  "%s trace=%d: all %d %s metrics reported" % (w, trace, len(names), kind))
            if w == "serve-mixed" and not trace:
                after_setup = r["info"]["peak_rss_mb_after_setup"]
                check(r["metrics"]["peak_rss_mb"]["value"] > after_setup,
                      "%s: peak_rss_mb (%.1f) is set by serving, above the set-up peak (%.1f)"
                      % (w, r["metrics"]["peak_rss_mb"]["value"], after_setup))
            if trace:
                ov = r["metrics"].get("trace.overhead_ratio", {}).get("value", 0)
                check(ov > 0, "%s: trace.overhead_ratio printed (%.3f)" % (w, ov))
                err = r["info"]["span_sum_max_rel_err"]
                check(err <= SPAN_SUM_TOLERANCE,
                      "%s: span self times + other = op wall within %.0f%% (worst %.2g)"
                      % (w, 100 * SPAN_SUM_TOLERANCE, err))
                layer_map = workloads_doc()["workloads"][w]
                for n in layer_map["loads"]:
                    check(r["metrics"][n]["value"] > 0, "%s: loads %s" % (w, n))
                for n in layer_map["bypasses"]:
                    check(r["metrics"][n]["value"] == 0, "%s: bypasses %s" % (w, n))
    args = argparse.Namespace(workload="solve-local", seed=1, seconds=1, trace=0)
    r = run(args, os.path.join(results_dir, "planted"), plant=True)
    check(r["failed"] > 0 and r["error_rate"] > 0 and not r["correct"],
          "planted wrong digest is caught (error_rate %.3f)" % r["error_rate"])
    print("smoke: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "diff":
        p = argparse.ArgumentParser(prog="run.py diff")
        p.add_argument("a")
        p.add_argument("b")
        a = p.parse_args(sys.argv[2:])
        diff(a.a, a.b)
        return 0
    if sys.argv[1:] == ["smoke"]:
        return smoke()
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload not in [w["name"] for w in spec()["workloads"]]:
        die("unknown workload %r" % args.workload)
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
