#!/usr/bin/env python3
"""Emulation benchmark driver (see README.md in this directory).

One measurement:

    python3 perfbench/run.py --workload paper_dense --seed 1 --seconds 40 --trace 0

builds emu_bench from source (CMake, into .bench_build/), runs the workload
and prints every metric by name and unit; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer profile.  The exit
status is 0 only when every output, conservation and determinism check
passed.

Steadiness (repeat each workload over several seeds, print medians and
quartiles, then compare two such sets against the bounds in BENCHMARK.json):

    python3 perfbench/run.py --steadiness 10 --first-seed 1 --out .bench_build/a.json
    python3 perfbench/run.py --steadiness 10 --first-seed 101 --out .bench_build/b.json
    python3 perfbench/run.py --compare .bench_build/a.json .bench_build/b.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
CHILD_TIMEOUT_S = 150
# Set-ups are timed one per fresh process (see emu_bench's setup mode);
# setup_s and the per-layer set-up times are medians over twice this many,
# half started before the measured rounds and half after them, so that the
# median spans the same stretch of machine time as the rounds.
SETUP_PROCESSES = 30
DETERMINISTIC = {"paper_dense"}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as handle:
        return json.load(handle)


def build():
    """Configures and builds emu_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "emu_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "emu_bench")
    if not os.path.isfile(binary):
        fail("emu_bench was not built")
    return binary


def child(binary, workload, seed, mode, seconds=None):
    """Runs emu_bench once; returns (parsed last JSON line, peak RSS bytes)."""
    argv = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("emu_bench --mode %s exited with %d" % (mode, proc.returncode), 1)
    return json.loads(lines[-1]), usage.ru_maxrss * 1024


def setups(binary, workload, seed, count=SETUP_PROCESSES):
    """Set-up times of `count` fresh processes."""
    return [child(binary, workload, seed, "setup")[0] for _ in range(count)]


def setup_medians(runs):
    return {key: statistics.median(r[key] for r in runs)
            for key in ("total_s", "select_nodes_s", "rate_control_s", "build_s")}


def check_failures(results):
    failures = []
    for name, result in results.items():
        failures += ["%s: %s" % (name, f) for f in result.get("failures", [])]
    return failures


def digests_agree(workload, digests, failures):
    if workload in DETERMINISTIC and len(set(digests.values())) != 1:
        failures.append("deterministic results differ: %s" % json.dumps(digests))


def measure(binary, workload, seed, seconds, spec):
    setup_runs = setups(binary, workload, seed)
    m, _ = child(binary, workload, seed, "measure", seconds)
    setup = setup_medians(setup_runs + setups(binary, workload, seed))
    single, rss = child(binary, workload, seed, "single")
    check, _ = child(binary, workload, seed, "check")
    failures = check_failures({"measure": m, "single": single, "check": check})
    digests_agree(workload, {"measure": m["digest"], "single": single["digest"],
                             "check": check["digest"]}, failures)
    rounds = list(zip(m["wall_s"], m["cpu_s"], m["decoded_bytes"], m["broadcasts"]))
    values = {
        "setup_s": setup["total_s"],
        "decoded_MBps": statistics.median(b / 1e6 / w for w, _, b, _ in rounds),
        "frames_per_s": statistics.median(f / w for w, _, _, f in rounds),
        "cpu_ms_per_MB": statistics.median(c * 1e3 / (b / 1e6) if b else 0.0
                                           for _, c, b, _ in rounds),
        "peak_rss_MB": rss / 1e6,
    }
    print("# %s seed %d: %d rounds, wall %s s" % (
        workload, seed, len(rounds), " ".join("%.3f" % w for w, _, _, _ in rounds)))
    print("# copies unaccounted %d of %d expected; reference checks: %d source "
          "frames, %d relay frames, %d generations re-solved" % (
              check["copies_unaccounted"], check["copies_expected"],
              check["reference_source_frames"], check["reference_relay_frames"],
              check["reference_generations"]))
    attempted = m["attempted"] + single["attempted"] + check["attempted"]
    failed = m["failed"] + single["failed"] + check["failed"]
    return values, attempted, failed, failures, spec["end_to_end"]


def trace(binary, workload, seed, spec):
    single, _ = child(binary, workload, seed, "single")
    traced, _ = child(binary, workload, seed, "trace")
    failures = check_failures({"single": single, "trace": traced})
    digests_agree(workload, {"single": single["digest"], "untraced": traced["digest"],
                             "traced": traced["traced_digest"]}, failures)
    setup = setup_medians(setups(binary, workload, seed, 2 * SETUP_PROCESSES))
    layers = dict(traced["layers"])
    layers["routing.select_nodes_s"] = setup["select_nodes_s"]
    layers["opt.rate_control_s"] = setup["rate_control_s"]
    layers["emu.build_s"] = setup["build_s"]
    attempted = single["attempted"] + traced["attempted"]
    failed = single["failed"] + traced["failed"]
    return layers, attempted, failed, failures, spec["per_layer"]


def run_once(binary, workload, seed, seconds, trace_on, spec):
    if trace_on:
        values, attempted, failed, failures, declared = trace(binary, workload, seed, spec)
    else:
        values, attempted, failed, failures, declared = measure(
            binary, workload, seed, seconds, spec)
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            failures.append("metric %s was not produced" % name)
            continue
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print("%-44s %16.6g %s" % (name, values[name], metric["unit"]))
    for failure in failures:
        print("CHECK FAILED: " + failure)
    if failed:
        failures.append("%d of %d operations failed" % (failed, attempted))
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(args, spec):
    binary = build()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {name: [] for name in names}
    # Round-robin over workloads, so a slow spell of the machine falls on
    # all of them rather than on whichever happened to be running.
    for k in range(args.steadiness):
        seed = args.first_seed + k
        for name in names:
            result = run_once(binary, name, seed, seconds, False, spec)
            print(json.dumps(result))
            runs[name].append(result)
            if not result["correct"]:
                fail("workload %s seed %d failed its checks" % (name, seed), 1)
    summarize(runs, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle)


def summarize(runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, results in runs.items():
        print("== %s (%d runs)" % (name, len(results)))
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f "
                  "(bound %.2f, third %.4f)%s" % (
                      metric, med, q1, q3, spread, bound, bound / 3,
                      "" if spread <= bound / 3 else "  WIDE"))


def compare(args, spec):
    with open(args.compare[0]) as handle:
        first = json.load(handle)
    with open(args.compare[1]) as handle:
        second = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in first:
        a, b = first[name], second.get(name, [])
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        if share_a != share_b:
            ok = False
            print("%s: failed share differs: %g vs %g" % (name, share_a, share_b))
        for metric, bound in bounds.items():
            va = [r["metrics"][metric]["value"] for r in a]
            vb = [r["metrics"][metric]["value"] for r in b]
            q1a, ma, q3a = quartiles(va)
            q1b, mb, q3b = quartiles(vb)
            change = (mb - ma) / ma if better[metric] == "lower" else (ma - mb) / ma
            spread_ok = (q3a - q1a) / ma <= bound and (q3b - q1b) / mb <= bound
            verdict = "ok" if spread_ok and change <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print("%-20s %-16s median %12.6g -> %12.6g  worse by %+.4f (bound %.2f)  "
                  "spreads %.4f / %.4f  %s" % (name, metric, ma, mb, change, bound,
                                                (q3a - q1a) / ma, (q3b - q1b) / mb, verdict))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times (seeds first-seed..)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="where --steadiness writes its runs")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        compare(args, spec)
    if args.steadiness:
        steadiness(args, spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    binary = build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = run_once(binary, args.workload, args.seed, seconds, args.trace == 1, spec)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
