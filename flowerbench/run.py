#!/usr/bin/env python3
"""Flower-CDN repository benchmark.

    python3 flowerbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Builds the simulator and the benchmark's world runner from source (CMake, into
.bench_build/ of the checkout), then runs the workload for about
`--seconds` of host time. One measurement round runs the workload's WORLDS
simulated worlds, whose seeds derive from `--seed`, each in its own
process; rounds repeat until the time is spent. The last line of standard
output is one JSON object:

  --trace 0: the end-to-end metrics. Simulated metrics pool the worlds and
             repeat exactly for a seed; host metrics are medians over
             rounds.
  --trace 1: the per-layer metrics of a traced run, taken through the
             public Experiment hooks from world_run.cc, plus the tracing
             overhead against untraced rounds run alternately with it.

Every run checks the simulator's outputs: each world's experiment
succeeds, its counters add up, and the digest of its deterministic result
record is identical across rounds and between traced and untraced runs.
Any failure sets "correct" to false. README.md beside this file explains
the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "flowerbench")
BINARY = os.path.join(BUILD_DIR, "flowerbench")

# Worlds per round, by workload. Pooling independently seeded worlds is
# what keeps the simulated metrics steady from one --seed to the next: one
# world's latency percentiles and transfer distance move by 10-15% with its
# random topology, four pooled worlds by about 5%.
WORLDS = {"paper": 4, "hot": 4, "faults": 4, "churn": 4}
# Rounds needed for a median, even when one round outlasts --seconds.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# Hard cap on the measured phase, so a run always ends well inside the
# 180 s a benchmark run may take.
MAX_MEASURE_S = 120
WORLD_TIMEOUT_S = 100

# Workloads the benchmark measures; `churn` is a diagnostic that run.py
# still runs on request (README.md explains why it is not measured).
WORKLOADS = tuple(WORLDS)

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hit_ratio": "ratio",
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "lookup_under_150ms": "share",
    "transfer_mean_ms": "ms",
    "background_bps": "bit/s",
    "query_success_share": "share",
}

PER_LAYER_UNITS = {
    "api.world_build_s": "s",
    "api.collect_s": "s",
    "api.lookup_hist_overflow": "count",
    "core.setup_s": "s",
    "core.submit_calls": "count",
    "core.submit_us_mean": "us",
    "core.submit_share": "share",
    "core.retries_per_query": "1/query",
    "core.timeouts": "count",
    "core.suspicions": "count",
    "core.promotions": "count",
    "core.served_local_share": "share",
    "core.served_remote_share": "share",
    "core.served_server_share": "share",
    "bloom.probe_ns": "ns",
    "bloom.summaries_per_peer": "count",
    "bloom.false_positive_share": "share",
    "cache.stale_redirects_per_query": "1/query",
    "cache.stale_dir_index_share": "share",
    "cache.contains_ns": "ns",
    "cache.dir_lookup_ns": "ns",
    "cache.objects_per_peer": "count",
    "cache.dir_entries_per_dir": "count",
    "cache.evictions": "count",
    "cache.dir_index_evictions": "count",
    "sim.events": "count",
    "sim.events_cancelled": "count",
    "sim.events_per_query": "1/query",
    "sim.ns_per_event": "ns",
    "sim.window_wall_ms_p50": "ms",
    "sim.window_wall_ms_max": "ms",
    "workload.next_ns_mean": "ns",
    "workload.next_share": "share",
    "net.messages": "count",
    "net.messages_per_query": "1/query",
    "net.undeliverable": "count",
    "net.injected_drops": "count",
    "net.bits.gossip": "bit",
    "net.bits.push": "bit",
    "net.bits.keepalive": "bit",
    "net.bits.dht": "bit",
    "net.bits.query": "bit",
    "net.bits.transfer": "bit",
    "net.bits.control": "bit",
    "gossip.view_size_mean": "count",
    "gossip.summaries_known_mean": "count",
    "gossip.bg_steady_bps": "bit/s",
    "gossip.plumtree_duplicate_ratio": "share",
    "gossip.grafts": "count",
    "gossip.lazy_recoveries": "count",
    "gossip.shuffles": "count",
    "trace.run_s_untraced": "s",
    "trace.run_s_traced": "s",
    "trace.overhead_s": "s",
    "trace.run_s_untraced_iqr_share": "share",
    "trace.run_s_traced_iqr_share": "share",
}

TRAFFIC_CLASSES = ("gossip", "push", "keepalive", "dht", "query", "transfer",
                   "control")


class BenchError(Exception):
    """The benchmark could not run (build failure, missing sources)."""


def build():
    """Configures and builds the world runner; a no-op when up to date."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no simulator sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def world_seeds(workload, seed):
    k = WORLDS[workload]
    return [seed * k + i for i in range(k)]


def run_world(workload, seed, mode, overrides):
    """Runs one world in its own process; returns its parsed JSON line."""
    cmd = [BINARY, workload, str(seed), mode] + list(overrides)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORLD_TIMEOUT_S, cwd=BUILD_DIR)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timeout", "seed": seed, "mode": mode}
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "seed": seed, "mode": mode,
                "error": "exit %d: %s" % (done.returncode,
                                          done.stderr.strip()[-300:])}
    if done.returncode != 0:
        out["ok"] = False
    out.setdefault("seed", seed)
    out["mode"] = mode
    return out


# --- Pooling the worlds' simulated outcome -----------------------------------

def lookup_percentile(bucket_ms, buckets, overflow, total_ms, p):
    """p-th percentile of a lookup histogram, as (value_ms, saturated).

    The histogram covers [0, len(buckets) * bucket_ms) and counts slower
    lookups in one overflow cell. A rank inside the range interpolates
    within its bucket (as Histogram::Percentile does). A rank inside the
    overflow cell cannot be read; it is flagged saturated, and its value is
    the overflow lookups' mean, which the exact total recovers: the total
    minus the in-range lookups taken at their bucket midpoints.
    """
    count = sum(buckets) + overflow
    if count == 0:
        return 0.0, False
    target = p / 100.0 * count
    acc = 0
    for i, n in enumerate(buckets):
        if acc + n >= target:
            within = (target - acc) / n if n else 0.0
            return (i + within) * bucket_ms, False
        acc += n
    in_range = sum(n * (i + 0.5) * bucket_ms for i, n in enumerate(buckets))
    range_end = len(buckets) * bucket_ms
    return max(range_end, (total_ms - in_range) / overflow), True


def pool(worlds):
    """End-to-end simulated metrics over one round's worlds."""
    submitted = sum(w["submitted"] for w in worlds)
    served = sum(w["served"] for w in worlds)
    hits = sum(w["hit_ratio"] * w["served"] for w in worlds)
    bucket_ms = worlds[0]["lookup_bucket_ms"]
    buckets = [sum(col) for col in zip(*(w["lookup_buckets"]
                                         for w in worlds))]
    overflow = sum(w["lookup_overflow"] for w in worlds)
    total_ms = sum(w["lookup_sum_ms"] for w in worlds)
    p50, p50_sat = lookup_percentile(bucket_ms, buckets, overflow, total_ms, 50)
    p99, p99_sat = lookup_percentile(bucket_ms, buckets, overflow, total_ms, 99)
    under = sum(buckets[:int(150 / bucket_ms)])
    transfers = sum(w["transfer_count"] for w in worlds)
    participants = sum(w["participants"] for w in worlds)
    return {
        "hit_ratio": hits / served,
        "lookup_p50_ms": p50,
        "lookup_p99_ms": p99,
        # Queries never resolved count as slower than the cut-off.
        "lookup_under_150ms": under / submitted,
        "transfer_mean_ms": sum(w["transfer_mean_ms"] * w["transfer_count"]
                                for w in worlds) / transfers,
        "background_bps": sum(w["background_bps"] * w["participants"]
                              for w in worlds) / participants,
        "query_success_share": served / submitted,
    }, {
        "lookups": sum(buckets) + overflow,
        "lookup_overflow": overflow,
        "lookup_p50_saturated": p50_sat,
        "lookup_p99_saturated": p99_sat,
        "queries_submitted": submitted,
        "queries_unserved": submitted - served,
        "stale_redirects": sum(w["stale_redirects"] for w in worlds),
        "events": sum(w["events"] for w in worlds),
    }


def layers(traced, plain_run_s, traced_run_s):
    """Per-layer metrics from one traced round plus the overhead figures."""
    def tot(key):
        return sum(w[key] for w in traced)

    def share(num, den):
        return num / den if den else 0.0

    submitted = tot("submitted")
    served = tot("served")
    loop_s = tot("loop_s")
    windows = sorted(x for w in traced for x in w["window_wall_ms"])
    eager = tot("eager_deliveries")
    m = {
        "api.world_build_s": tot("world_build_s"),
        "api.collect_s": tot("collect_s"),
        "core.setup_s": tot("core_setup_s"),
        "core.submit_calls": tot("submit_calls"),
        "core.submit_us_mean": share(tot("submit_s") * 1e6,
                                     tot("submit_calls")),
        "core.submit_share": share(tot("submit_s"), loop_s),
        "core.retries_per_query": share(tot("retries"), submitted),
        "core.timeouts": tot("timeouts"),
        "core.suspicions": tot("suspicions"),
        "core.promotions": tot("promotions"),
        "core.served_local_share": share(tot("served_local"), served),
        "core.served_remote_share": share(tot("served_remote"), served),
        "core.served_server_share": share(tot("served_server"), served),
        "bloom.probe_ns": share(tot("probe_scan_s") * 1e9,
                                tot("probe_summaries")),
        "bloom.summaries_per_peer": share(tot("probe_summaries"),
                                          tot("probe_scans")),
        "bloom.false_positive_share": share(tot("probe_false_positives"),
                                            tot("probe_positives")),
        "cache.stale_redirects_per_query": share(tot("stale_redirects"),
                                                 submitted),
        "cache.stale_dir_index_share": share(tot("probe_stale_claims"),
                                             tot("probe_holder_claims")),
        "cache.contains_ns": share(tot("probe_contains_s") * 1e9,
                                   tot("probe_contains_calls")),
        "cache.dir_lookup_ns": share(tot("probe_dir_lookup_s") * 1e9,
                                     tot("probe_dir_lookups")),
        "cache.objects_per_peer": share(tot("probe_objects_held"),
                                        tot("probe_peers")),
        "cache.dir_entries_per_dir": share(tot("probe_dir_entries"),
                                           tot("probe_dirs")),
        "cache.evictions": tot("cache_evictions"),
        "cache.dir_index_evictions": tot("dir_index_evictions"),
        "sim.events": tot("events"),
        "sim.events_cancelled": tot("events_cancelled"),
        "sim.events_per_query": share(tot("events"), submitted),
        "sim.ns_per_event": share(statistics.median(plain_run_s) * 1e9,
                                  tot("events")),
        "sim.window_wall_ms_p50": windows[len(windows) // 2] if windows else 0,
        "sim.window_wall_ms_max": windows[-1] if windows else 0,
        "workload.next_ns_mean": share(tot("next_s") * 1e9, tot("next_calls")),
        "workload.next_share": share(tot("next_s"), loop_s),
        "net.messages": tot("messages"),
        "net.messages_per_query": share(tot("messages"), submitted),
        "net.undeliverable": tot("undeliverable"),
        "net.injected_drops": tot("injected_drops"),
        "gossip.view_size_mean": statistics.mean(
            w["view_size_mean"] for w in traced),
        "gossip.summaries_known_mean": statistics.mean(
            w["summaries_known_mean"] for w in traced),
        "gossip.bg_steady_bps": statistics.mean(
            w["bg_steady_bps"] for w in traced),
        "gossip.plumtree_duplicate_ratio": share(tot("duplicates"), eager),
        "gossip.grafts": tot("grafts"),
        "gossip.lazy_recoveries": tot("lazy_recoveries"),
        "gossip.shuffles": tot("shuffles"),
        "api.lookup_hist_overflow": tot("lookup_overflow"),
    }
    for cls in TRAFFIC_CLASSES:
        m["net.bits." + cls] = tot("bits_" + cls)
    m.update(overhead_metrics(plain_run_s, traced_run_s))
    return m


def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return (q[2] - q[0]) / statistics.median(values)


def overhead_metrics(plain_run_s, traced_run_s):
    """Tracing overhead: traced minus untraced run_s, with each side's
    spread over rounds (interquartile range as a share of the median)."""
    plain = statistics.median(plain_run_s)
    traced = statistics.median(traced_run_s)
    return {
        "trace.run_s_untraced": plain,
        "trace.run_s_traced": traced,
        "trace.overhead_s": traced - plain,
        "trace.run_s_untraced_iqr_share": iqr_share(plain_run_s),
        "trace.run_s_traced_iqr_share": iqr_share(traced_run_s),
    }


# --- Checks -------------------------------------------------------------------

def check_round(worlds, digests, problems):
    """Per-world checks; `digests` maps world seed -> first digest seen."""
    for w in worlds:
        tag = "%s seed %s %s" % (w.get("workload", "?"), w.get("seed"),
                                 w.get("mode"))
        if not w.get("ok"):
            problems.append("%s: %s" % (tag, w.get("error") or
                                        w.get("failed_checks")))
            continue
        first = digests.setdefault(w["seed"], w["digest"])
        if first != w["digest"]:
            problems.append("%s: record digest %s != %s" %
                            (tag, w["digest"], first))


def host_facts():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "loadavg": list(os.getloadavg()),
        "build_type": "Release",
    }


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def measure(args):
    start = time.monotonic()
    seeds = world_seeds(args.workload, args.seed)
    digests, problems = {}, []
    rounds = []
    attempted = failed = 0
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    modes = ("plain", "traced") if args.trace else ("plain",)
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed >= args.seconds:
            break
        if rounds and elapsed + elapsed / len(rounds) > MAX_MEASURE_S:
            break
        # Alternate which mode runs first so drift hits both sides alike.
        order = modes if len(rounds) % 2 == 0 else modes[::-1]
        result = {}
        for mode in order:
            worlds = [run_world(args.workload, s, mode, args.set)
                      for s in seeds]
            attempted += len(worlds)
            failed += sum(1 for w in worlds if not w.get("ok"))
            check_round(worlds, digests, problems)
            result[mode] = worlds
        rounds.append(result)
        if problems:
            break

    report = {"workload": args.workload, "seed": args.seed,
              "world_seeds": seeds, "rounds": len(rounds),
              "host": host_facts(), "problems": problems}
    if problems:
        print(json.dumps({"report": report}))
        emit(False, attempted, failed, {}, {})
        return 1

    plain = [r["plain"] for r in rounds]
    plain_run_s = [sum(w["run_s"] for w in ws) for ws in plain]
    simulated, facts = pool(plain[0])
    report.update(facts)
    report["run_s_by_round"] = plain_run_s
    report["digests"] = {str(s): d for s, d in sorted(digests.items())}
    if args.trace:
        traced_run_s = [sum(w["run_s"] for w in r["traced"]) for r in rounds]
        metrics = layers(rounds[0]["traced"], plain_run_s, traced_run_s)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": statistics.median(plain_run_s),
            "setup_s": statistics.median(
                sum(w["setup_s"] for w in ws) for ws in plain),
            "peak_rss_mb": statistics.median(
                w["peak_rss_mb"] for ws in plain for w in ws),
        }
        metrics.update(simulated)
        units = END_TO_END_UNITS
    print(json.dumps({"report": report}))
    emit(True, attempted, failed, metrics, units)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="config override for every world (smoke runs)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
    except (BenchError, OSError) as e:
        sys.stderr.write("flowerbench: %s\n" % e)
        return 2
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
