#!/usr/bin/env python3
"""The Defuse benchmark: one command, three workloads.

    python3 perfbench/run.py --workload league|replay|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the Defuse libraries
from source (the repository's own CMake build, RelWithDebInfo, no tests)
and the harness in perfbench/, both under .bench_build/, then runs the
harness. The harness prints a machine/build record, notes, and one JSON
result line; this script checks that line against BENCHMARK.json (every
metric of the mode present, with its unit) and prints it as the last line
of its own output. With --trace 1 the span log goes to .bench_out/.

Exit status: 0 on a result, 1 when the build or the run fails, 2 on bad
arguments. See perfbench/README.md for the metrics and the seeds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "defuse")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")
HARNESS = os.path.join(HARNESS_BUILD, "perfbench_defuse")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    """Runs a build step, appending its output to `log`; fails loudly."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT)
    if code != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("build step failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no Defuse source tree at %s (CMakeLists.txt and src/ needed)"
             % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DDEFUSE_SANITIZE=",
                    "-DDEFUSE_BUILD_TESTS=OFF", "-DDEFUSE_BUILD_BENCHMARKS=OFF",
                    "-DDEFUSE_BUILD_EXAMPLES=OFF"], log)
    run_logged(["cmake", "--build", LIB_BUILD, "-j", jobs], log)
    if not os.path.isfile(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", HARNESS_BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DDEFUSE_ROOT=" + ROOT, "-DDEFUSE_BUILD_DIR=" + LIB_BUILD],
                   log)
    run_logged(["cmake", "--build", HARNESS_BUILD, "-j", jobs], log)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["league", "replay", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (smoke test only; not a measurement)")
    args = parser.parse_args()

    spec = load_spec()
    build()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("harness did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
