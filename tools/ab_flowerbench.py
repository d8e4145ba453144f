#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the repository benchmark.

    python3 tools/ab_flowerbench.py BASE CHANGE --rounds 10 \\
        --workloads paper,hot,faults [--trace-seconds 20] [--quickstart 5] \\
        [--json BENCH_x.json]

BASE and CHANGE are two checkouts of this repository, for example the
parent commit unpacked with `git archive` and the working tree. The tool
builds each checkout's own flowerbench world runner (Release, into
<checkout>/.bench_build/flowerbench, as flowerbench/run.py does) and runs
each workload's worlds, with the seeds flowerbench/run.py derives from
--seed, in alternating rounds: even rounds run BASE first, odd rounds
CHANGE first, so host drift hits both sides alike. A single run on a
shared host swings by 15-30%, so only such paired rounds compare speed.

Per workload it prints and records:
  - each side's run_s (the round's world run loops summed, as run.py
    does) by round, with median, quartiles and IQR as a share of the
    median, plus setup_s and peak_rss_mb medians;
  - the change/base run_s ratio of every round, its median and the
    rounds the change won;
  - `gain`: the change won at least 9 of 10 rounds and its median beats
    the base median by more than the base's interquartile range;
  - whether every world's record digest repeats across rounds and is
    identical between the sides. A mismatch means the change moved the
    simulated output; the tool then exits 1.

--trace-seconds T also runs each side's own `flowerbench/run.py --trace 1
--seconds T` per workload (the side that starts alternates) and records
its per-layer metrics. --quickstart N builds each side's `quickstart`
example and runs it N times per side, alternating, recording the Flower
events/sec it prints.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "flowerbench"))
import run as flowerbench  # noqa: E402  (world seeds, IQR, host facts)

SIDES = ("base", "change")
WORLD_TIMEOUT_S = 300
QUICKSTART_RE = re.compile(
    r"engine\s*: flower (\d+) events in (\d+) ms \((\d+) ev/s\)")


class AbError(Exception):
    """A checkout could not be built or run."""


def jobs():
    return str(min(4, os.cpu_count() or 1))


def cmake_build(source, build_dir, target=None):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    build = ["cmake", "--build", build_dir, "-j", jobs()]
    if target:
        build += ["--target", target]
    steps.append(build)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise AbError("build step failed: " + " ".join(cmd))


def runner_dir(checkout):
    return os.path.join(checkout, ".bench_build", "flowerbench")


def revision(checkout):
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_world(checkout, workload, seed):
    """One plain world of one checkout; returns its parsed JSON line."""
    cwd = runner_dir(checkout)
    cmd = [os.path.join(cwd, "flowerbench"), workload, str(seed), "plain"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORLD_TIMEOUT_S, cwd=cwd)
    except subprocess.TimeoutExpired:
        raise AbError("%s: %s seed %d timed out" % (checkout, workload, seed))
    try:
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {"ok": False, "error": done.stderr.strip()[-300:]}
    if done.returncode != 0 or not out.get("ok"):
        raise AbError("%s: %s seed %d failed: %s" %
                      (checkout, workload, seed,
                       out.get("error") or out.get("failed_checks")))
    return out


def spread(values):
    """Median, quartiles and IQR share of a list of per-round values."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "iqr_share": flowerbench.iqr_share(values)}


def compare_workload(checkouts, workload, seed, rounds):
    seeds = flowerbench.world_seeds(workload, seed)
    per_side = {s: {"run_s": [], "setup_s": [], "peak_rss_mb": []}
                for s in SIDES}
    digests = {s: {} for s in SIDES}
    problems = []
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            worlds = [run_world(checkouts[side], workload, ws)
                      for ws in seeds]
            per_side[side]["run_s"].append(sum(w["run_s"] for w in worlds))
            per_side[side]["setup_s"].append(
                sum(w["setup_s"] for w in worlds))
            per_side[side]["peak_rss_mb"] += [w["peak_rss_mb"]
                                              for w in worlds]
            for w in worlds:
                first = digests[side].setdefault(str(w["seed"]), w["digest"])
                if first != w["digest"]:
                    problems.append("%s %s seed %s: digest %s != %s" % (
                        side, workload, w["seed"], w["digest"], first))
        sys.stderr.write("  %s round %d/%d: base %.3f s, change %.3f s\n" % (
            workload, r + 1, rounds, per_side["base"]["run_s"][-1],
            per_side["change"]["run_s"][-1]))
    if digests["base"] != digests["change"]:
        problems.append("%s: digests differ between sides: base %s, "
                        "change %s" % (workload, digests["base"],
                                       digests["change"]))
    base, change = per_side["base"]["run_s"], per_side["change"]["run_s"]
    ratios = [c / b for b, c in zip(base, change)]
    wins = sum(1 for b, c in zip(base, change) if c < b)
    result = {"world_seeds": seeds, "rounds": rounds,
              "digests": digests["change"],
              "digests_match": not problems, "problems": problems}
    for side in SIDES:
        d = per_side[side]
        result[side] = {
            "run_s_by_round": d["run_s"],
            "run_s": spread(d["run_s"]),
            "setup_s_median": statistics.median(d["setup_s"]),
            "peak_rss_mb_median": statistics.median(d["peak_rss_mb"]),
        }
    b, c = result["base"]["run_s"], result["change"]["run_s"]
    result["ratio_by_round"] = ratios
    result["ratio_median"] = statistics.median(ratios)
    result["change_wins"] = wins
    result["gain"] = (wins >= 0.9 * rounds and
                      b["median"] - c["median"] > b["q3"] - b["q1"])
    return result


def traced(checkouts, workload, seed, seconds, first):
    """Each side's own `run.py --trace 1` metrics; `first` starts."""
    out = {}
    for side in (first, SIDES[1 - SIDES.index(first)]):
        cmd = [sys.executable,
               os.path.join(checkouts[side], "flowerbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False}
        if done.returncode != 0 or not result.get("correct"):
            raise AbError("%s: traced %s run failed: %s" % (
                checkouts[side], workload, done.stderr.strip()[-300:]))
        out[side] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def quickstart(checkouts, reps):
    """Flower events/sec of each side's all-defaults quickstart."""
    binaries = {}
    for side in SIDES:
        build_dir = os.path.join(checkouts[side], ".bench_build", "quickstart")
        cmake_build(checkouts[side], build_dir, "quickstart")
        binaries[side] = os.path.join(build_dir, "quickstart")
    rates = {s: [] for s in SIDES}
    for r in range(reps):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            done = subprocess.run([binaries[side]], stdout=subprocess.PIPE,
                                  text=True)
            m = QUICKSTART_RE.search(done.stdout)
            if done.returncode != 0 or not m:
                raise AbError("%s: quickstart printed no engine line" %
                              checkouts[side])
            rates[side].append(int(m.group(3)))
    out = {s: {"events_per_s": rates[s], "median": statistics.median(rates[s])}
           for s in SIDES}
    out["speedup_median"] = out["change"]["median"] / out["base"]["median"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="checkout of the parent (A)")
    parser.add_argument("change", help="checkout of the change (B)")
    parser.add_argument("--workloads", default="paper,hot,faults")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-seconds", type=float, default=0,
                        help="also record each side's --trace 1 metrics")
    parser.add_argument("--quickstart", type=int, default=0, metavar="N",
                        help="also time N quickstart runs per side")
    parser.add_argument("--json", help="write the record to this file")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in flowerbench.WORKLOADS:
            parser.error("unknown workload %r" % w)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")
    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}

    record = {"tool": "tools/ab_flowerbench.py",
              "args": {"workloads": workloads, "rounds": args.rounds,
                       "seed": args.seed,
                       "trace_seconds": args.trace_seconds,
                       "quickstart": args.quickstart},
              "host": flowerbench.host_facts(),
              "sides": {s: {"checkout": os.path.basename(checkouts[s]),
                            "revision": revision(checkouts[s])}
                        for s in SIDES},
              "workloads": {}}
    try:
        for side in SIDES:
            cmake_build(os.path.join(checkouts[side], "flowerbench"),
                        runner_dir(checkouts[side]))
        for w in workloads:
            record["workloads"][w] = compare_workload(checkouts, w, args.seed,
                                                      args.rounds)
        if args.trace_seconds > 0:
            record["trace"] = {
                w: traced(checkouts, w, args.seed, args.trace_seconds,
                          SIDES[i % 2])
                for i, w in enumerate(workloads)}
        if args.quickstart > 0:
            record["quickstart"] = quickstart(checkouts, args.quickstart)
    except (AbError, OSError) as e:
        sys.stderr.write("ab_flowerbench: %s\n" % e)
        return 2

    print("%-8s %10s %10s %8s %6s %6s  %s" % (
        "workload", "base_s", "change_s", "ratio", "wins", "gain", "digests"))
    for w, res in record["workloads"].items():
        print("%-8s %10.3f %10.3f %8.3f %3d/%-2d %6s  %s" % (
            w, res["base"]["run_s"]["median"],
            res["change"]["run_s"]["median"], res["ratio_median"],
            res["change_wins"], res["rounds"], res["gain"],
            "match" if res["digests_match"] else "DIFFER"))
    if "quickstart" in record:
        q = record["quickstart"]
        print("quickstart events/s: base %d, change %d (x%.2f)" % (
            q["base"]["median"], q["change"]["median"], q["speedup_median"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
    ok = all(r["digests_match"] for r in record["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
