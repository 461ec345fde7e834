"""Print every benchmark metric, with its unit and sample count, for every
workload, followed by the ratios that show which layer each workload loads.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py once with --trace 0 and once with --trace 1 per
workload; takes about 8 x S seconds.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

import run
import workloads


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
    path = os.path.join(run.RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    results = {w: [_run(w, args.seed, args.seconds, t) for t in (0, 1)]
               for w in workloads.WORKLOADS}

    print("\nwhich layer each workload loads:")
    timed = results["interactive"][0]
    setup = statistics.median(timed["setup_s"])
    call = statistics.median(statistics.median(w) for w in timed["call_wall_s"])
    print(f"  interactive    start-up / CLI call = median setup {setup:.4f} s / "
          f"median call {call:.4f} s = {setup / call:.3f}")
    for workload, metric, what in (
            ("chain_search", "classifier._deg_vectors.share", "_deg_vectors self time"),
            ("degree_sweep", "classifier.classify.share", "classify subtree time"),
            ("oracle_verify", "oracle.share", "oracle suite subtree time")):
        traced = results[workload][1]
        passes = traced["passes_s"]["traced"]
        print(f"  {workload:<14} {what} / traced in-process pass = "
              f"{traced['metrics'][metric]['value']:.3f} (median over {len(passes)} "
              f"passes; median pass {statistics.median(passes):.4f} s)")

    print("\nstdout digest of each workload's call list (compare across commits):")
    for workload, (timed, _) in results.items():
        combined = hashlib.sha256("".join(timed["digests"]).encode()).hexdigest()
        print(f"  {workload:<14} {combined}  ({len(timed['digests'])} calls, "
              f"seed {args.seed})")


if __name__ == "__main__":
    main()
