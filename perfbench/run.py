#!/usr/bin/env python3
"""Builds and runs the standing SQL benchmark for one workload.

    python3 perfbench/run.py --workload olap|plan|disk_mixed --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the engine and the benchmark
program from source into .bench_build/perfbench (RelWithDebInfo, the
engine's default build type), runs one workload in a closed loop with one
client, and prints a human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. Every metric of the run, the environment
stamp and the first errors also go to
.bench_build/perfbench/results/<workload>-seed<N>-trace<T>.json, and a
traced run writes its spans next to it.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ("olap", "plan", "disk_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout the whole group is
    killed and waited for, so no compiler or benchmark process outlives
    this script."""
    # Compilers write temporary files to TMPDIR; keep them in the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
        and os.path.isdir(os.path.join(ROOT, "src"))
    ):
        fail("the engine sources (CMakeLists.txt and src/) are not next to "
             "perfbench/; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as f:
            configured = ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") in f.read()
    if not configured:
        code, _ = run(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", BUILD, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def git_stamp():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    try:
        _, sha = run(["git", "rev-parse", "HEAD"], 30, capture=True)
        _, status = run(["git", "status", "--porcelain", "--untracked-files=no"],
                        30, capture=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"
    return sha.strip() or "unknown", "1" if status.strip() else "0"


def parse(output):
    """Parses the program's line protocol (see perfbench.cc)."""
    parsed = {"env": {}, "scale": {}, "metrics": {}, "info": {}, "errors": [],
              "result": None}
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "env" or kind == "info":
            key, _, value = rest.partition(" ")
            parsed[kind][key] = value
        elif kind == "scale":
            key, _, value = rest.partition(" ")
            parsed["scale"][key] = float(value)
        elif kind == "metric":
            name, unit, value = rest.split(" ")
            parsed["metrics"][name] = {"value": float(value), "unit": unit}
        elif kind == "error":
            parsed["errors"].append(rest)
        elif kind == "result":
            correct, attempted, failed = rest.split(" ")
            parsed["result"] = {"correct": correct == "1",
                                "attempted": int(attempted),
                                "failed": int(failed)}
    return parsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(RESULTS, "spans-%s-seed%d.json" % (args.workload, args.seed))
    code, output = run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--data-dir", os.path.join(BUILD, "data"), "--spans", spans],
        RUN_TIMEOUT_S, capture=True)
    if code != 0:
        fail("benchmark program exited with code %d" % code)
    parsed = parse(output)
    if parsed["result"] is None:
        fail("benchmark program printed no result")

    metrics = {}
    for metric in wanted:
        got = parsed["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail("metric %s missing or not in %s" % (metric["name"], metric["unit"]))
        metrics[metric["name"]] = got

    sha, dirty = git_stamp()
    env = dict(parsed["env"])
    env.update({"git_sha": sha, "git_dirty": dirty, "seed": args.seed,
                "workload": args.workload, "seconds": args.seconds,
                "trace": args.trace})
    record = {"env": env, "scale": parsed["scale"], "metrics": parsed["metrics"],
              "info": parsed["info"], "errors": parsed["errors"]}
    record.update(parsed["result"])
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    print("perfbench %s: %s" % (tag, " ".join(
        "%s=%s" % kv for kv in sorted(env.items()) if kv[0] != "seed")))
    print("scale: " + " ".join("%s=%g" % kv for kv in sorted(parsed["scale"].items())))
    for name, m in sorted(parsed["metrics"].items()):
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for key, value in sorted(parsed["info"].items()):
        print("  %-40s %s" % (key, value))
    for error in parsed["errors"]:
        print("  error: " + error)
    result = dict(parsed["result"])
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
