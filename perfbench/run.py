"""modulirc benchmark: whole-CLI timings per workload, or a traced run that
gives per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 is a closed loop with one client: it starts
`python -m modulirc.cli <argv>` for each call of the workload's seeded call
list, waits for it, checks its stdout, and starts the next, pass after pass
until S seconds are spent.  Each call runs on the CPU that ran a reference
loop fastest just before it, and its times are scaled to a fixed CPU speed
by that loop (see probe_s).  --trace 1 runs the same call list in this
process, untraced and then traced (see tracer.py), and times the imports
with `python -X importtime`.

The package is run from `src/` through PYTHONPATH; nothing is installed.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with
its unit and sample count.  Per-call stdout digests, and with --trace 1 the
spans, are written under perfbench/results/.  See perfbench/README.md.
"""

import argparse
import hashlib
import importlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")

SETUP_PER_PASS = 2      # fresh interpreters timed for setup_s in each pass
IMPORTTIME_RUNS = 5     # `-X importtime` runs for the import breakdown
CALL_TIMEOUT_S = 60     # a call that runs longer is killed and counts as failed
PROBE_ITERS = 30_000    # iterations of the reference loop (see probe_s)
PROBE_REF_S = 0.002     # reference-loop time of the CPU speed times are scaled to

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "call_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_FAMILIES = ("two_step_dimension", "multi_step_degree", "multi_step_dimension",
             "mixed_dimension")
_SEGRE = ("generic_segre", "stratum_codimension", "min_connecting_degree")
SUITES = ("verify_three_term_identities", "verify_degree_telescoping",
          "verify_claim_inequality", "verify_chain_dimension_equivalence",
          "verify_dimension_laws", "verify_component_counts")


def _per_layer_units():
    units = {"cli.import_s": "s", "cli.import_numpy_s": "s",
             "cli.import_oracle_s": "s",
             "cli.main.calls": "count", "cli.main.self_s": "s",
             "classifier._deg_vectors.calls": "count",
             "classifier._deg_vectors.self_s": "s",
             "classifier._deg_vectors.vectors": "count",
             "classifier._deg_vectors.nodes": "count",
             "classifier._deg_vectors.yield": "ratio",
             "classifier._deg_vectors.share": "ratio",
             "classifier._twist_vectors.calls": "count",
             "classifier._twist_vectors.self_s": "s",
             "classifier._twist_vectors.vectors": "count",
             "classifier.chain_yield": "ratio",
             "classifier.enumerate_candidates.calls": "count",
             "classifier.enumerate_candidates.self_s": "s",
             "classifier.classify.calls": "count",
             "classifier.classify.total_s": "s",
             "classifier.classify.share": "ratio",
             "classifier.enumerate_unobstructed.self_s": "s",
             "classifier.enumerate_obstructed_expected.self_s": "s",
             "classifier.thm_b_table.self_s": "s",
             "classifier.descriptors": "count",
             "params.solve_dioph.calls": "count",
             "params.solve_dioph.self_s": "s",
             "params.derive_params.calls": "count"}
    for fn in _FAMILIES:
        units[f"families.{fn}.calls"] = "count"
        units[f"families.{fn}.self_s"] = "s"
    units["families.ExtensionChain.calls"] = "count"
    for fn in _SEGRE:
        units[f"segre.{fn}.calls"] = "count"
        units[f"segre.{fn}.self_s"] = "s"
    for suite in SUITES:
        units[f"oracle.{suite}.self_s"] = "s"
        units[f"oracle.{suite}.trials"] = "count"
    units.update({"oracle.trials_per_s": "1/s", "oracle.share": "ratio",
                  "oracle._degree_grid.calls": "count",
                  "oracle._degree_grid.rows": "count",
                  "oracle._degree_grid.self_s": "s",
                  "rng.next_u64.calls": "count",
                  "trace.inproc_s": "s", "trace.spans": "count",
                  "trace.overhead_ratio": "ratio"})
    return units


PER_LAYER = _per_layer_units()


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("MODULI_RC_THREADS", None)
    return env


def run_child(args, env):
    """Run `python <args>` in the repo root and reap it with wait4.

    Returns (wall_s, cpu_s, maxrss_kb, returncode, stdout, stderr);
    returncode is None when the call was killed at CALL_TIMEOUT_S.
    """
    with tempfile.TemporaryFile(dir=RESULTS) as out, \
            tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timed_out = False
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                None if timed_out else proc.returncode, out.read(), err.read())


class Outcome:
    """Attempted and failed calls, with the first few reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, argv, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"argv": argv, "problems": problems[:5]})


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _reference_loop():
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i % 7
    return total


def probe_s():
    """Seconds the reference loop takes now, on this process's CPU: the
    best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_fastest_cpu(cpus):
    """Pin this process, and so the next child, to whichever of `cpus` runs
    the reference loop fastest now; returns the loop's time there."""
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        _reference_loop()
        timings.append((time.perf_counter() - t0, cpu))
    os.sched_setaffinity(0, {min(timings)[1]})
    return probe_s()


def timed_run(calls, seconds):
    """End-to-end metrics of the subprocess closed loop, tracing off."""
    cpus = os.sched_getaffinity(0)
    env = _child_env()
    setup_args = ["-c", "import modulirc.cli"]
    run_child(setup_args, env)  # warm the bytecode cache; users do not pay this

    n = len(calls)
    jobs = [setup_args] * SETUP_PER_PASS + [["-m", "modulirc.cli"] + argv for argv in calls]
    raw = {"wall": [[] for _ in jobs], "cpu": [[] for _ in jobs], "probe": [[] for _ in jobs]}
    digests = [None] * n
    peak_kb = 0
    outcome = Outcome()
    passes = []
    t_start = time.perf_counter()
    try:
        while True:
            p0 = time.perf_counter()
            for j, args in enumerate(jobs):
                before = pin_to_fastest_cpu(cpus)
                wall, cpu, rss, rc, out, err = run_child(args, env)
                raw["wall"][j].append(wall)
                raw["cpu"][j].append(cpu)
                raw["probe"][j].append((before + probe_s()) / 2)
                i = j - SETUP_PER_PASS
                if i < 0:
                    continue
                peak_kb = max(peak_kb, rss)
                argv = calls[i]
                digest = hashlib.sha256(out).hexdigest()
                if rc is None:
                    problems = [f"killed after {CALL_TIMEOUT_S} s"]
                else:
                    problems = checks.check(argv, rc, out.decode("utf-8", "replace"))
                if rc and err:
                    problems.append(err.decode("utf-8", "replace").strip()[-300:])
                if digests[i] is None:
                    digests[i] = digest
                elif digest != digests[i]:
                    problems.append("stdout differs from the first pass")
                outcome.record(argv, problems)
            passes.append(time.perf_counter() - p0)
            if time.perf_counter() - t_start + statistics.median(passes) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)

    # A sample is scaled by PROBE_REF_S / (the reference loop's time around
    # it on the same CPU): a shared host slows each virtual CPU by up to 2x
    # for seconds at a time (see README), and the loop slows with it.
    def scaled(kind, j):
        return [t * PROBE_REF_S / p for t, p in zip(raw[kind][j], raw["probe"][j])]

    setup = [t for j in range(SETUP_PER_PASS) for t in scaled("wall", j)]
    walls = [scaled("wall", j) for j in range(SETUP_PER_PASS, len(jobs))]
    call_wall = [statistics.median(w) for w in walls]
    call_cpu = [statistics.median(scaled("cpu", j)) for j in range(SETUP_PER_PASS, len(jobs))]
    n_samples = len(passes) * n
    metrics = {
        "wall_s": _metric(sum(call_wall), "s", n_samples),
        "cpu_s": _metric(sum(call_cpu), "s", n_samples),
        "call_p50_ms": _metric(statistics.median(call_wall) * 1000, "ms", n_samples),
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB", n_samples),
    }
    return metrics, outcome, {"digests": digests, "passes_s": passes, "setup_s": setup,
                              "call_wall_s": walls, "raw_wall_s": raw["wall"],
                              "raw_cpu_s": raw["cpu"], "probe_s": raw["probe"]}


def import_breakdown(env):
    """Median cumulative import times of modulirc.cli, numpy and
    modulirc.oracle from `python -X importtime`; 0 for a module not loaded."""
    wanted = {"modulirc.cli": "cli.import_s", "numpy": "cli.import_numpy_s",
              "modulirc.oracle": "cli.import_oracle_s"}
    samples = {key: [] for key in wanted.values()}
    for _ in range(IMPORTTIME_RUNS):
        *_, rc, _out, err = run_child(["-X", "importtime", "-c", "import modulirc.cli"], env)
        if rc != 0:
            raise RuntimeError("`import modulirc.cli` failed:\n" + err.decode()[-500:])
        seen = dict.fromkeys(wanted.values(), 0.0)
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
        for key, value in seen.items():
            samples[key].append(value)
    return {key: _metric(statistics.median(v), "s", len(v)) for key, v in samples.items()}


def _layer_modules():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {}
    for layer in tracer.LAYERS:
        try:
            modules[layer] = importlib.import_module(f"modulirc.{layer}")
        except ModuleNotFoundError:
            pass  # a layer merged away later reports zeros
    return modules


def _inproc_pass(cli, calls, outcome, trace=None, only=None):
    """Run the call list through cli.main in this process; returns the
    seconds spent in cli.main, output checks excluded."""
    spent = 0.0
    for i, argv in enumerate(calls):
        if only is not None and i not in only:
            continue
        if trace is not None:
            trace.call_id = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv, out=buf)
        except (Exception, SystemExit) as exc:  # a crash is a failed call, not a crashed run
            rc, buf = f"raised {type(exc).__name__}: {exc}", io.StringIO()
        spent += time.perf_counter() - t0
        if outcome is not None:
            outcome.record(argv, checks.check(argv, rc, buf.getvalue()))
    return spent


def _aggregate(trace):
    """Exact counts and times (s) of one traced pass, keyed by metric name."""
    values = dict(trace.counts)
    for name in trace.names:
        values[name + ".calls"] = trace.calls[name]
        values[name + ".self_s"] = trace.self_ns[name] / 1e9
        values[name + ".total_s"] = trace.total_ns[name] / 1e9
    values["trace.spans"] = len(trace.start)
    return values


def traced_run(calls, seconds, spans_path):
    """Per-layer metrics: the import breakdown, then untraced and traced
    in-process passes alternating until `seconds` are spent, with one pass
    counting min_hk calls after the first traced pass.  The spans of the
    first traced pass are written out at the end."""
    t_start = time.perf_counter()
    env = _child_env()
    metrics = import_breakdown(env)
    modules = _layer_modules()
    cli = modules["cli"]
    outcome = Outcome()
    untraced, traced, aggregates = [], [], []
    nodes = 0
    while True:
        untraced.append(_inproc_pass(cli, calls, outcome))
        trace = tracer.Tracer(modules)
        trace.install()
        try:
            traced.append(_inproc_pass(cli, calls, outcome, trace))
        finally:
            trace.uninstall()
        aggregates.append(_aggregate(trace))
        aggregates[-1]["trace.pass_s"] = traced[-1]
        if len(aggregates) == 1:
            first_trace = trace
            # min_hk calls are counted in a pass of their own, over the calls
            # that search chains, because the hook slows every Python call
            deg_calls = {trace.call[i] for i in range(len(trace.start))
                         if trace.names[trace.name[i]] == "classifier._deg_vectors"}
            if deg_calls:
                nodes = tracer.count_nested_calls(
                    modules["classifier"]._deg_vectors, "min_hk",
                    lambda: _inproc_pass(cli, calls, None, only=deg_calls)) or 0
        pair = untraced[-1] + traced[-1]
        if time.perf_counter() - t_start + pair > seconds:
            break

    first_trace.write_spans(spans_path)
    first = aggregates[0]
    exact = {k: v for k, v in first.items() if not k.endswith("_s")}
    for later in aggregates[1:]:
        if {k: v for k, v in later.items() if not k.endswith("_s")} != exact:
            outcome.record(["<traced passes>"], ["work counts differ between traced passes"])
            break

    def value(name):
        if name.endswith("_s"):
            return statistics.median(a.get(name, 0.0) for a in aggregates)
        return first.get(name, 0)

    def per_pass(ratio):
        return statistics.median(ratio(a) for a in aggregates)

    def suites_s(a):
        return sum(a.get(f"oracle.{suite}.total_s", 0.0) for suite in SUITES)

    suites_trials = sum(value(f"oracle.{suite}.trials") for suite in SUITES)
    vectors = value("classifier._deg_vectors.vectors")
    twist_calls = value("classifier._twist_vectors.calls")
    derived = {
        "classifier._deg_vectors.nodes": nodes,
        "classifier._deg_vectors.yield": vectors / nodes if nodes else 0.0,
        "classifier._deg_vectors.share": per_pass(
            lambda a: a.get("classifier._deg_vectors.self_s", 0.0) / a["trace.pass_s"]),
        "classifier.chain_yield": (value("classifier.chain_yield_hits") / twist_calls
                                   if twist_calls else 0.0),
        "classifier.classify.share": per_pass(
            lambda a: a.get("classifier.classify.total_s", 0.0) / a["trace.pass_s"]),
        "oracle.trials_per_s": per_pass(
            lambda a: suites_trials / suites_s(a) if suites_s(a) else 0.0),
        "oracle.share": per_pass(lambda a: suites_s(a) / a["trace.pass_s"]),
        "trace.inproc_s": statistics.median(untraced),
        "trace.overhead_ratio": statistics.median(t / u for t, u in zip(traced, untraced)),
    }
    exact_ratios = ("classifier._deg_vectors.yield", "classifier.chain_yield")
    for name, unit in PER_LAYER.items():
        if name not in metrics:
            samples = 1 if unit == "count" or name in exact_ratios else len(aggregates)
            metrics[name] = _metric(derived[name] if name in derived else value(name),
                                    unit, samples)
    return metrics, outcome, {"passes_s": {"untraced": untraced, "traced": traced}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modulirc", "cli.py")):
        print(f"perfbench: no modulirc sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    calls = workloads.generate(args.workload, args.seed)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, outcome, extra = traced_run(calls, args.seconds, stem + ".spans.tsv.gz")
    else:
        metrics, outcome, extra = timed_run(calls, args.seconds)

    correct = outcome.failed == 0
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "calls": calls, "correct": correct,
                   "attempted": outcome.attempted, "failed": outcome.failed,
                   "problems": outcome.problems, "metrics": metrics, **extra},
                  fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<48} {m['value']:>16.6g} {m['unit']:<6} "
              f"n={m['samples']}")
    print(f"{args.workload:<14} {'fail_ratio':<48} "
          f"{outcome.failed / max(outcome.attempted, 1):>16.6g} {'ratio':<6} "
          f"n={outcome.attempted}")
    for item in outcome.problems:
        print(f"FAILED {' '.join(item['argv'])}: {'; '.join(item['problems'])}")
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
