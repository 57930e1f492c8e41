#!/usr/bin/env python3
"""hmr benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the repository's libraries plus the hmr_perfbench
harness) into .bench_build, then runs trials of one workload back to
back for --seconds.  Each trial is its own process: it sets up, measures,
checks its outputs and prints its raw samples; an abort inside the
library fails that trial (recorded with its message) but not the run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced trials and prints the per-layer metrics, including the
tracing overhead.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Details (host tag, every trial, failures, where each per-layer value
came from) go to .bench_build/results/.  perfbench/NOTES.md documents
the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("finegrain_tasks", "des_matmul")

# name: (unit, better, bound) -- kept equal to BENCHMARK.json's end_to_end.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_frac": ("frac", "higher", 0.01),
    "iter_ms.p50": ("ms", "lower", 0.25),
    "tasks_per_s": ("1/s", "higher", 0.25),
    "task_cpu_us": ("us", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "migrate_gbps": ("GB/s", "higher", 0.25),
}

# name: unit -- kept equal to BENCHMARK.json's per_layer.
PER_LAYER = {
    "mem.migrate_gbps": "GB/s",
    "mem.copy_gbps": "GB/s",
    "mem.copy_us": "us",
    "mem.alloc_us": "us",
    "mem.free_us": "us",
    "mem.assist_frac": "frac",
    "ooc.event_ns": "ns",
    "ooc.replay_s": "s",
    "ooc.budget_claim_ns": "ns",
    "ooc.budget_steals": "count",
    "ooc.fetches": "count",
    "ooc.evicts": "count",
    "ooc.fetch_bytes": "B",
    "ooc.dedup_ratio": "frac",
    "rt.send_us_per_task": "us",
    "rt.drain_ms.p50": "ms",
    "rt.ctx_switches_per_task": "count",
    "rt.lock_wait_frac": "frac",
    "rt.lock_contended": "count",
    "rt.lane.compute_frac": "frac",
    "rt.lane.prefetch_frac": "frac",
    "rt.lane.evict_frac": "frac",
    "rt.lane.wait_frac": "frac",
    "rt.lane.overhead_frac": "frac",
    "rt.lane.idle_frac": "frac",
    "rt.unattributed_frac": "frac",
    "sim.host_us_per_task": "us",
    "sim.self_s": "s",
    "apps.compute_ms_per_iter": "ms",
    "serve.deferred": "count",
    "serve.displaced": "count",
    "serve.fetch_p99_us": "us",
    "serve.slo_burn": "frac",
    "serve.slo_lat_us.p99": "us",
    "telemetry.ns_per_task": "ns",
    "harness.gen_late_ms.max": "ms",
    "harness.step_ms.p90": "ms",
    "harness.trace_overhead_frac": "frac",
}


# Per-layer metrics that need the traced run's untraced trials.
FROM_UNTRACED = ("harness.step_ms.p90", "harness.trace_overhead_frac")

# A trial takes seconds; one that hangs is cut so a run still ends well
# inside three minutes.
TRIAL_TIMEOUT_S = 60

# Steps a trial needs before its own p90 has three samples beyond it.
MIN_STEPS = 30


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once and build the harness; returns the binary path or
    None when the sources cannot be built."""
    bdir = build_dir()
    try:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
        subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target", "hmr_perfbench"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return None
    exe = os.path.join(bdir, "hmr_perfbench")
    return exe if os.path.exists(exe) else None


def run_trial(exe, workload, seed, trace, index):
    """One trial process.  Returns its parsed result, or a failure record
    carrying the abort message."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0",
           "--trial", str(index), "--out-dir", os.path.join(build_dir(), "traces")]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=TRIAL_TIMEOUT_S,
                           cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": True, "message": "trial timed out after %d s" % TRIAL_TIMEOUT_S,
                "trace": trace}
    if p.returncode != 0:
        why = p.stderr.strip().splitlines()[-1:] or ["no message"]
        sig = ""
        if p.returncode < 0:
            sig = " (%s)" % signal.Signals(-p.returncode).name
        return {"crashed": True, "trace": trace,
                "message": "exit %d%s: %s" % (p.returncode, sig, why[0])}
    try:
        t = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": True, "trace": trace, "message": "unparsable trial output"}
    t["crashed"] = False
    return t


def run_trials(exe, args):
    trials = []
    deadline = time.monotonic() + args.seconds
    while not trials or time.monotonic() < deadline:
        # Traced runs alternate untraced and traced trials so the tracing
        # overhead compares like with like.
        trace = bool(args.trace) and len(trials) % 2 == 1
        trials.append(run_trial(exe, args.workload, args.seed, trace, len(trials)))
    if args.trace and len(trials) < 2:
        trials.append(run_trial(exe, args.workload, args.seed, True, len(trials)))
    return trials


def load_reference():
    with open(os.path.join(HERE, "des_reference.json")) as f:
        return json.load(f)["exact"]


def check_trials(workload, trials):
    """Cross-trial checks run.py adds to each trial's own: count
    identities, bit-for-bit repeat of exact counts, the DES reference.
    Returns a list of failure messages."""
    problems = []
    ok = [t for t in trials if not t["crashed"]]
    for trace in (False, True):
        exacts = [t["exact"] for t in ok if t["trace"] == trace]
        # Every workload is fixed work: its exact counts must repeat.
        why = benchstats.counts_repeat(exacts)
        if why:
            problems.append(why)
        for e in exacts:
            why = None
            if workload == "finegrain_tasks":
                why = benchstats.finegrain_identity(e)
            elif workload == "des_matmul":
                why = benchstats.reference_match(e, load_reference())
            if why:
                problems.append(why)
                break
    return problems


def step_ms(trials, q):
    """Percentile q of the workload's step time, ms: each trial's
    percentile, median over trials, so an episode of host interference
    moves one trial rather than the run.  A workload with fewer than
    MIN_STEPS steps per trial (des_matmul has one) pools its steps."""
    if min(len(t["iter_s"]) for t in trials) >= MIN_STEPS:
        return benchstats.median([benchstats.percentile(t["iter_s"], q) * 1e3 for t in trials])
    return benchstats.percentile([x * 1e3 for t in trials for x in t["iter_s"]], q)


def end_to_end(trials):
    ok = [t for t in trials if not t["crashed"] and t["correct"]]
    if not ok:
        return None

    def per_trial(f):
        return benchstats.median([f(t) for t in ok])

    return {
        "setup_s": per_trial(lambda t: t["setup_s"]),
        "peak_rss_mb": per_trial(lambda t: t["peak_rss_kb"] / 1024.0),
        "iter_ms.p50": step_ms(ok, 50),
        "tasks_per_s": per_trial(lambda t: t["tasks"] / t["wall_s"]),
        "task_cpu_us": per_trial(lambda t: t["cpu_s"] / t["tasks"] * 1e6),
        "ops_per_s": per_trial(lambda t: (t["tasks"] + t["fetches"] + t["evicts"]) / t["wall_s"]),
        "migrate_gbps": per_trial(
            lambda t: (t["fetch_bytes"] + t["evict_bytes"]) / t["wall_s"] / 1e9),
    }


def per_layer(trials):
    """Per-layer metrics from a traced run: medians over its traced
    trials, plus what its untraced trials give (the step p90, and the
    tracing overhead on the median step)."""
    ok = [t for t in trials if not t["crashed"] and t["correct"]]
    traced = [t for t in ok if t["trace"]]
    plain = [t for t in ok if not t["trace"]]
    if not traced or not plain:
        return None, {}
    out, sources = {}, {}
    for name in PER_LAYER:
        if name in FROM_UNTRACED:
            continue
        vals = [t["layers"][name] for t in traced if name in t["layers"]]
        if len(vals) != len(traced):
            return None, {"missing": name}
        out[name] = benchstats.median(vals)
        sources[name] = traced[0]["layer_source"].get(name, "run")
    base = benchstats.median([x for t in plain for x in t["iter_s"]])
    with_trace = benchstats.median([x for t in traced for x in t["iter_s"]])
    out["harness.step_ms.p90"] = step_ms(plain, 90)
    out["harness.trace_overhead_frac"] = with_trace / base - 1.0
    for name in FROM_UNTRACED:
        sources[name] = "run"
    return out, sources


def fold(workload, trace, trials):
    """Fold a run's trials into the printed result.  A crashed or wrong
    trial counts as a failed run (and its tasks as failed); the run's
    other trials still give the metrics.  Returns (result, problems,
    per-layer sources)."""
    problems = check_trials(workload, trials)
    crashed = [t for t in trials if t["crashed"]]
    wrong = [t for t in trials if not t["crashed"] and not t["correct"]]
    attempted = sum(t["attempted"] for t in trials if not t["crashed"]) + len(crashed)
    failed = sum(t["failed"] for t in trials if not t["crashed"]) + len(crashed)
    failed_frac = max(failed / attempted, (len(crashed) + len(wrong)) / len(trials))

    metrics, sources = {}, {}
    if trace:
        values, sources = per_layer(trials)
        if values is None:
            problems.append("per-layer metrics incomplete: %s" % (sources or "no traced trial"))
        else:
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    else:
        values = end_to_end(trials)
        if values is None:
            problems.append("no correct trial")
        else:
            values["ok_frac"] = 1.0 - failed_frac
            metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}

    problems += ["trial %d: %s" % (i, t["message"]) for i, t in enumerate(trials)
                 if t["crashed"] or not t["correct"]]
    result = {"correct": not problems and bool(metrics), "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, problems, sources


def main():
    ap = argparse.ArgumentParser(description="hmr benchmark runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        log("perfbench: unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
        return 2
    if args.seconds <= 0 or args.seed < 0:
        log("perfbench: --seconds must be > 0 and --seed >= 0")
        return 2

    # A terminated run still stops its trial: SystemExit unwinds through
    # subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    exe = build()
    if exe is None:
        return 2

    trials = run_trials(exe, args)
    result, problems, sources = fold(args.workload, bool(args.trace), trials)
    failed_runs = sum(1 for t in trials if t["crashed"] or not t["correct"])
    metrics = result["metrics"]
    host = next((t["host"] for t in trials if not t["crashed"]), {})

    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
    detail = os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(detail, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "host": host, "problems": problems,
                   "metrics": metrics, "sources": sources, "trials": trials}, f, indent=1)

    print("host %s" % json.dumps(host, sort_keys=True))
    print("%s: %d trials (%d traced), %d failed runs" % (
        args.workload, len(trials), sum(1 for t in trials if t["trace"]), failed_runs))
    for p in problems:
        print("FAILED: %s" % p)
    for k, m in metrics.items():
        src = sources.get(k, "")
        print("  %-28s %16.6g %-6s %s" % (k, m["value"], m["unit"], src if src != "run" else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
