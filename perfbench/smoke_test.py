#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale (not a measurement).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py --tiny on two
seeds, untraced and traced, and checks that:
  * every end-to-end and per-layer metric is printed with its unit;
  * every output check passes (correct, 0 failed, attempted >= 1);
  * no metric that should vary with the seed reads the same on both seeds.
Exit status 0 when all hold, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
# Structural figures: equal across seeds by design (same machine, same
# horizon), or legitimately 0 on a tiny input.
MAY_BE_CONSTANT = {"machine.cpus", "platform.remines", "server.sheds",
                   "server.queue_depth_max"}
MAY_BE_CONSTANT_PREFIXES = ("gen.backlog_end.",)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        raise SystemExit("FAIL: %s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [run(workload, seed, trace) for seed in SEEDS]
            for seed, r in zip(SEEDS, results):
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    problems.append("%s seed %d trace %d: correct=%s failed=%d"
                                    % (workload, seed, trace, r["correct"],
                                       r["failed"]))
                for m in spec[key]:
                    got = r["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append("%s trace %d: %s missing or wrong unit"
                                        % (workload, trace, m["name"]))
            for m in spec[key]:
                name = m["name"]
                values = [r["metrics"][name]["value"] for r in results]
                constant_ok = (name in MAY_BE_CONSTANT or
                               name.startswith(MAY_BE_CONSTANT_PREFIXES) or
                               all(v == 0 for v in values))
                if values[0] == values[1] and not constant_ok:
                    problems.append("%s trace %d: %s reads %r on both seeds"
                                    % (workload, trace, name, values[0]))
            print("ok: %s %s (%d metrics)" % (workload, key, len(spec[key])))
    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
