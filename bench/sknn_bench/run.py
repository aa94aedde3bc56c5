#!/usr/bin/env python3
"""Builds the sknn_bench harness and runs one workload of the benchmark.

Run from the repository root:

    python3 bench/sknn_bench/run.py --workload zipf-cached --seed 1 \\
        --seconds 34 --trace 0
    python3 bench/sknn_bench/run.py --smoke

The first form builds (incrementally) the sknn library, sknn_c1_server,
sknn_c2_server and the harness from the sources in this checkout, runs the
harness with the given flags, and relays its output: the last line of
standard output is the run's JSON result. Build output goes to standard
error. The build directory is $CARGO_TARGET_DIR when that is set, else
.bench_build; reports and traces land in its out/ subdirectory.

--smoke runs every workload of BENCHMARK.json, untraced and traced, at
256-bit keys on tiny tables, and checks that every metric BENCHMARK.json
names is emitted and finite.
"""
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "sknn_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                print("sknn_bench: build failed: " + " ".join(step),
                      file=sys.stderr)
                return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(build_dir, args, capture=False):
    """Runs the harness; returns (exit code, captured stdout or None)."""
    cmd = [os.path.join(build_dir, "sknn_bench"), *args,
           "--out", os.path.join(build_dir, "out"), "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except (subprocess.TimeoutExpired, KeyboardInterrupt) as stop:
        # SIGTERM makes the harness stop its servers and exit; SIGKILL is
        # the fallback (the servers die with it).
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("sknn_bench: run stopped (%s)" % type(stop).__name__,
              file=sys.stderr)
        return 1, None


def smoke(build_dir):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    start = time.monotonic()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_harness(
                build_dir, ["--smoke", "--workload", workload, "--seed", "1",
                            "--trace", str(trace)], capture=True)
            lines = (out or b"").decode().strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            bad = [n for n in wanted[trace]
                   if not isinstance(metrics.get(n, {}).get("value"),
                                     (int, float))
                   or not math.isfinite(metrics[n]["value"])]
            extra = sorted(set(metrics) - set(wanted[trace]))
            if code != 0 or not result.get("correct") or bad or extra:
                ok = False
                print("smoke FAILED %s trace=%d: exit %d, missing or "
                      "non-finite %s, unlisted %s"
                      % (workload, trace, code, bad, extra), file=sys.stderr)
    print("smoke %s in %.1f s" % ("OK" if ok else "FAILED",
                                  time.monotonic() - start))
    return 0 if ok else 1


def on_sigterm(signum, frame):
    raise KeyboardInterrupt


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        return 2
    args = sys.argv[1:]
    if args == ["--smoke"]:
        return smoke(build_dir)
    code, _ = run_harness(build_dir, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
