#!/usr/bin/env python3
"""Repo benchmark: builds the ntco bench binaries from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The bench binaries are built (CMake, Release)
into $CARGO_TARGET_DIR, or .bench_build when it is unset. With --trace 0
the last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, and
bench.trace_overhead compares that run against an untraced one of equal
length. Everything above the last line is a human-readable report. See
perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("diurnal_day", "replan_burst", "vehicular_churn",
             "diurnal_day_t4", "replan_burst_t4", "vehicular_churn_t4")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# (name, unit, kind). Host numbers describe this process; modelled numbers
# are results of the simulation (identical on every repeat of a seed).
END_TO_END = (
    ("users_per_s", "users/s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("usd_per_job", "USD", "modelled"),
    ("deadline_met_share", "ratio", "modelled"),
)

PER_LAYER = (
    ("app.arrival_gen_ns_per_user", "ns", "host"),
    ("broker.serve_calls", "count", "host"),
    ("broker.serve_ns_p50", "ns", "host"),
    ("broker.serve_ns_p99", "ns", "host"),
    ("broker.serve_hit_calls", "count", "host"),
    ("broker.serve_hit_ns", "ns", "host"),
    ("broker.serve_plan_calls", "count", "host"),
    ("broker.serve_plan_self_ns", "ns", "host"),
    ("broker.serve_shed_calls", "count", "host"),
    ("broker.serve_shed_ns", "ns", "host"),
    ("broker.serve_defer_calls", "count", "host"),
    ("broker.serve_defer_ns", "ns", "host"),
    ("broker.plan_share", "ratio", "host"),
    ("broker.cache_hit_ratio", "ratio", "modelled"),
    ("broker.cache_evictions", "count", "modelled"),
    ("broker.shed_ratio", "ratio", "modelled"),
    ("broker.defers_per_request", "ratio", "modelled"),
    ("broker.jobs_per_batch", "ratio", "modelled"),
    ("broker.twostage_fast_share", "ratio", "modelled"),
    ("partition.solve_calls", "count", "host"),
    ("partition.solve_ns_mean", "ns", "host"),
    ("partition.solve_ns_p99", "ns", "host"),
    ("sim.events", "count", "modelled"),
    ("sim.run_self_ns_per_event", "ns", "host"),
    ("serverless.invocations_per_user", "ratio", "modelled"),
    ("serverless.cold_start_ratio", "ratio", "modelled"),
    ("fleet.shards", "count", "host"),
    ("fleet.shard_setup_us", "us", "host"),
    ("fleet.shard_ms_p50", "ms", "host"),
    ("fleet.shard_ms_max", "ms", "host"),
    ("fleet.merge_us_per_shard", "us", "host"),
    ("fleet.parallel_efficiency", "ratio", "host"),
    ("dataplane.epochs", "count", "host"),
    ("dataplane.mean_occupancy", "ratio", "host"),
    ("dataplane.worker_items_max_over_min", "ratio", "host"),
    ("heap.allocs_per_user", "allocs/user", "host"),
    ("broker.serve_allocs_per_call", "allocs/call", "host"),
    ("sim.run_allocs_per_event", "allocs/event", "host"),
    ("bench.trace_overhead", "ratio", "host"),
)

# Percentiles print with the count of samples they were taken from.
SAMPLE_COUNTS = {
    "broker.serve_ns_p50": "broker.serve_calls",
    "broker.serve_ns_p99": "broker.serve_calls",
    "partition.solve_ns_p99": "partition.solve_calls",
    "fleet.shard_ms_p50": "fleet.shards",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then builds both bench binaries (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no ntco sources next to perfbench/ (src/ is missing)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "ntco_perfbench", "ntco_perfbench_traced"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return out


def run_binary(binary, workload, seed, seconds):
    """Runs one bench binary and returns (repeat records, process record)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                           check=False, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError("bench binary timed out") from e
    repeats, process = [], None
    for line in r.stdout.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "repeat":
            repeats.append(rec)
        elif rec["kind"] == "process":
            process = rec
    if not repeats or process is None:
        raise BenchError(f"bench binary exited {r.returncode} without results")
    return r.returncode, repeats, process


def check(returncode, repeats):
    """Correctness of one bench-binary run; returns a list of problems."""
    problems = [f"repeat {x['repeat']}: {x['error']}"
                for x in repeats if x["error"]]
    if returncode != 0 and not problems:
        problems.append(f"bench binary exited {returncode}")
    first = repeats[0]
    for x in repeats[1:]:
        if x["digest"] != first["digest"] or x["modelled"] != first["modelled"]:
            problems.append(f"repeat {x['repeat']}: modelled statistics differ "
                            "from repeat 0 (determinism)")
    return problems


def users_per_s(repeats):
    return statistics.median(x["modelled"]["users"] / x["serve_s"]
                             for x in repeats)


def end_to_end(repeats, process):
    m = repeats[0]["modelled"]
    served = m["completed"] + m["failed"]
    return {
        "users_per_s": users_per_s(repeats),
        "setup_s": statistics.median(x["setup_s"] for x in repeats),
        "peak_rss_mb": process["peak_rss_mb"],
        "usd_per_job": m["cost_micro_usd"] / 1e6 / served if served else 0.0,
        "deadline_met_share": m["deadline_met"] / m["users"],
    }


def per_layer(traced, untraced):
    values = {name: statistics.median(x["layers"][name] for x in traced)
              for name, _, _ in PER_LAYER if name != "bench.trace_overhead"}
    values["bench.trace_overhead"] = 1.0 - users_per_s(traced) / users_per_s(
        untraced)
    return values


def report(workload, seed, repeats, table, values):
    first = repeats[0]
    m = first["modelled"]
    print(f"# perfbench {workload}  seed={seed}  threads={first['threads']}  "
          f"shards={first['shards']}  users={m['users']}  "
          f"repeats={len(repeats)}  digest={first['digest']}")
    print(f"# modelled outcome: completed={m['completed']} failed={m['failed']}"
          f" shed={m['shed']} deadline_met={m['deadline_met']}"
          f" (the model is unvalidated; no reference results)")
    for name, unit, kind in table:
        v = values[name]
        extra = ""
        if name in SAMPLE_COUNTS:
            extra = f"  (n={values[SAMPLE_COUNTS[name]]:.0f})"
        print(f"{name:40s} {v:16.6g} {unit:14s} [{kind}]{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        out = build()
        plain = os.path.join(out, "ntco_perfbench")
        if args.trace:
            # Half the budget untraced, half traced: the ratio of the two
            # users/s medians is the tracing overhead.
            half = args.seconds / 2
            rc0, untraced, _ = run_binary(plain, args.workload, args.seed, half)
            rc1, repeats, _ = run_binary(plain + "_traced", args.workload,
                                         args.seed, half)
            problems = check(rc0, untraced) + check(rc1, repeats)
            if untraced[0]["digest"] != repeats[0]["digest"]:
                problems.append("traced and untraced runs disagree (digest)")
            table = PER_LAYER
            values = per_layer(repeats, untraced)
        else:
            rc, repeats, process = run_binary(plain, args.workload, args.seed,
                                              args.seconds)
            problems = check(rc, repeats)
            table = END_TO_END
            values = end_to_end(repeats, process)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    report(args.workload, args.seed, repeats, table, values)
    # One operation is one offered request, per repeat. Shed and failed
    # requests are modelled outcomes (they count as deadline misses); an
    # operation fails here when the run's correctness checks fail.
    attempted = sum(x["modelled"]["users"] for x in repeats)
    for p in problems:
        log(f"perfbench: correctness check failed: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
