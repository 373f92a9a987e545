#!/usr/bin/env python3
"""Repo benchmark: open-loop StorageNode read, write and rebuild workloads.

Run from the root of a STAIR checkout:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 25 --trace 0

Builds the library and stair_perfbench from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), pins the autotune profile once per build
directory, runs one workload and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. Every run is also
appended to <build>/runs.jsonl, which compare.py reads.

Exits non-zero, without a result line, when the checkout has no sources or
the build or the run fails; exits 1 after printing the result when a
correctness check failed. See README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("serve_read", "serve_write", "rebuild")
DEADLINE_S = 170  # the whole command, build excluded, stays under 180 s
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds stair_perfbench; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4", "--target", "stair_perfbench"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "stair_perfbench")


def clean_env(tune_file):
    """The run's environment: no STAIR_* overrides except the pinned profile."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STAIR_")}
    env["STAIR_TUNE_FILE"] = tune_file
    return env


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run.py: %s is not a STAIR checkout (no CMakeLists.txt and src/); "
            "run from the repository root" % root)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if os.path.commonpath([build_dir, root]) != root:
        log("run.py: build directory %s is outside the checkout" % build_dir)
        return 2
    os.makedirs(build_dir, exist_ok=True)

    try:
        exe = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("run.py: build failed: %s" % e)
        return 2

    start = time.monotonic()
    tune_file = os.path.join(build_dir, "stair_tune.json")
    env = clean_env(tune_file)
    if not os.path.exists(tune_file):
        # Probed once per build directory, outside any timed run.
        subprocess.run([exe, "--pin-profile", tune_file], check=True, env=env,
                       stdout=sys.stderr, timeout=60)

    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", work, "--tune-file", tune_file]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % args.workload)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: stair_perfbench exited with %d (%.1f GB free in %s)"
            % (proc.returncode, shutil.disk_usage(build_dir).free / 1e9, build_dir))
        return 2
    out = json.loads(lines[-1])

    metrics = out["metrics"]
    want = expected_metrics(root, args.trace)
    if want is not None:
        missing = set(want) - set(metrics)
        extra = set(metrics) - set(want)
        if missing or extra:
            log("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
                % (sorted(missing), sorted(extra)))
            return 2
    bad = [k for k, m in metrics.items() if not isinstance(m["value"], (int, float))]
    if bad:
        log("run.py: metrics without a value: %s" % bad)
        return 2

    info = out["info"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "profile": info["profile"]["id"],
              "correct": out["correct"], "metrics": {k: m["value"] for k, m in metrics.items()}}
    with open(os.path.join(build_dir, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    print("info: " + json.dumps(info))
    print(json.dumps({"correct": out["correct"], "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
