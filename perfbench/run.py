#!/usr/bin/env python3
"""Wall-clock benchmark of the NSEC3 reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload scan-domains --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --smoke --seconds 1

Builds perfbench/ (and through it the src/ libraries) into .bench_build/,
runs the chosen workload in a fresh process and prints every metric by
name with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Each process builds one world and runs the fixed-size workload once; a
run starts processes until --seconds have passed (at least three) and
reports each metric's median over them. --trace 0 reports the end-to-end
metrics of BENCHMARK.json. --trace 1 adds three traced processes and
reports the per-layer metrics; traced and untraced processes must produce
the same artefact hash. --smoke shrinks every workload to a second or
less and runs one process of each kind; it is the benchmark's smoke test.
The exit code is non-zero when any output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["scan-domains", "probe-resolvers", "serve-wire"]
# Recorded artefact hashes of the pinned sizes for the default seed.
ORACLES = os.path.join(HERE, "oracles.json")
DEFAULT_SEED = 42
PROCESS_TIMEOUT_S = 120
# A run reports the median over at least this many fresh processes.
MIN_PROCESSES = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds both benchmark binaries; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ tree next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "zh_perfbench", "zh_perfbench_traced"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def run_binary(workload, seed, traced, smoke, ladder):
    """One workload in a fresh process; returns its parsed result or None."""
    exe = os.path.join(BUILD, "zh_perfbench_traced" if traced
                       else "zh_perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if ladder:
        cmd.append("--ladder")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, done.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("perfbench: %s printed no result line" % workload)
        return None


def run_processes(workload, seed, seconds, traced, smoke, at_least):
    """Starts processes until `seconds` have passed and at least
    `at_least` have run. Returns their results, or None on a crash."""
    results = []
    start = time.monotonic()
    while len(results) < at_least or time.monotonic() - start < seconds:
        # serve_max_qps is a ladder climb; the first process of a run
        # reports it.
        ladder = workload == "serve-wire" and not traced and not results
        result = run_binary(workload, seed, traced, smoke, ladder)
        if result is None:
            return None
        results.append(result)
    return results


def recorded_hash(workload, seed, smoke):
    try:
        with open(ORACLES) as f:
            table = json.load(f)
    except (OSError, ValueError):
        return None
    size = "smoke" if smoke else "pinned"
    return table.get(workload, {}).get(size, {}).get(str(seed))


def check(results, workload, seed, smoke, problems):
    """Output oracles: invariants, failures, and one artefact hash across
    every process, equal to the recorded one where there is a record."""
    for result in results:
        if not result["invariants_ok"]:
            problems.extend(result["notes"])
        if result["failed"]:
            problems.append("%d of %d operations failed" %
                            (result["failed"], result["attempted"]))
    hashes = sorted(set(r["hash"] for r in results))
    if len(hashes) != 1:
        problems.append("processes disagree on the artefact: %s" % hashes)
    want = recorded_hash(workload, seed, smoke)
    if want is not None and hashes != [want]:
        problems.append("artefact %s != recorded %s" % (hashes, want))
    return hashes[0]


def median_metrics(results):
    """Each metric's median over the processes of a run that report it."""
    values, units = {}, {}
    for result in results:
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {name: {"value": statistics.median(v), "unit": units[name]}
            for name, v in values.items()}


def select(metrics, declared, problems):
    """Exactly the metrics BENCHMARK.json declares, with its units."""
    out = {}
    for entry in declared:
        m = metrics.get(entry["name"])
        if m is None or m["unit"] != entry["unit"]:
            problems.append("metric %s missing or not in %s" %
                            (entry["name"], entry["unit"]))
            continue
        out[entry["name"]] = m
    return out


def run_workload(workload, args, spec):
    """Returns (correct, attempted, failed, metrics) or None on a crash."""
    problems = []
    smoke = args.smoke
    plain = run_processes(workload, args.seed, args.seconds, False, smoke,
                          1 if smoke else MIN_PROCESSES)
    if plain is None:
        return None
    plain_hash = check(plain, workload, args.seed, smoke, problems)
    runs = list(plain)
    facts = plain[0]["facts"]
    print("# %s host: nproc=%s sha1_impl=%s compiler=%s build=%s "
          "processes=%d" % (workload, facts["nproc"], facts["sha1_impl"],
                            facts["compiler"], facts["build_type"],
                            len(plain)))
    metrics = median_metrics(plain)
    gated = {e["name"] for e in spec["end_to_end"]}
    for name, m in metrics.items():
        # Latency tails and the ladder are printed but not gated: on a
        # shared host they vary several-fold between runs (see README.md).
        print("%s%s %s = %.6g %s" % ("" if name in gated else "# ", workload,
                                     name, m["value"], m["unit"]))
    if args.trace:
        traced = run_processes(workload, args.seed, 0, True, smoke,
                               1 if smoke else MIN_PROCESSES)
        if traced is None:
            return None
        traced_hash = check(traced, workload, args.seed, smoke, problems)
        if traced_hash != plain_hash:
            problems.append("traced artefact %s != untraced %s" %
                            (traced_hash, plain_hash))
        runs += traced
        layered = median_metrics(traced)
        # Overhead of the shims: throughput for the batch workloads, median
        # latency at the reference rate for serve-wire.
        if workload == "serve-wire":
            ratio = (layered["item_p50_us"]["value"] /
                     metrics["item_p50_us"]["value"])
        else:
            ratio = (metrics["items_per_s"]["value"] /
                     layered["items_per_s"]["value"])
        layered["trace.overhead_pct"] = {"value": (ratio - 1.0) * 100.0,
                                         "unit": "%"}
        print("# %s residual: %.6f s of %.6f s traced wall time is in no "
              "layer's self time" %
              (workload, layered["trace.residual_s"]["value"],
               layered["trace.wall_s"]["value"]))
        metrics = select(layered, spec["per_layer"], problems)
        for name, m in metrics.items():
            print("%s %s = %.6g %s" % (workload, name, m["value"], m["unit"]))
    else:
        metrics = select(metrics, spec["end_to_end"], problems)
    for note in sorted(set(n for r in runs for n in r["notes"])):
        print("# %s note: %s" % (workload, note))
    for problem in problems:
        print("# %s CHECK FAILED: %s" % (workload, problem))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("%s failed_ratio = %.6g (%d of %d operations)" %
          (workload, failed / max(1, attempted), failed, attempted))
    return (not problems, attempted, failed, metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        outcome = run_workload(name, args, spec)
        if outcome is None:
            return 3
        ok, n, bad, values = outcome
        correct = correct and ok
        attempted += n
        failed += bad
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({"%s/%s" % (name, k): v
                            for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
