"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

import io
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from modulirc.cli import build_parser, main  # noqa: E402


def _stdout(argv):
    buf = io.StringIO()
    assert main(argv, out=buf) == 0
    return buf.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert all(isinstance(a, str) for argv in workloads.generate(workload, 7) for a in argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", range(25))
def test_argv_within_documented_bounds(workload, seed):
    parser = build_parser()
    for argv in workloads.generate(workload, seed):
        args = parser.parse_args(argv)
        command, f = checks.parse_argv(argv)
        assert command == args.command
        if command != "verify":
            assert 2 <= f["g"] <= workloads.MAX_GENUS
            assert 2 <= f["r"] <= workloads.MAX_RANK
            assert abs(f["d"]) <= workloads.MAX_DEGREE
        if "k" in f:
            assert 1 <= f["k"] <= workloads.MAX_K
        if command == "sweep":
            assert 1 <= f["k_min"] <= f["k_max"] <= workloads.MAX_K
        if "r_prime" in f:
            assert 1 <= f["r_prime"] <= f["r"] - 1
        if "max_l" in f:
            assert f["max_l"] >= 2


def test_checker_accepts_every_interactive_call():
    for argv in workloads.generate("interactive", 3):
        assert checks.check(argv, 0, _stdout(argv)) == []


CLASSIFY = ["classify", "--g", "2", "--r", "4", "--d", "2", "--k", "6",
            "--include-candidates", "--format", "json"]
SWEEP = ["sweep", "--g", "2", "--r", "6", "--d", "3", "--k-min", "1", "--k-max", "12"]
CONNECT = ["connect", "--g", "3", "--r", "5", "--d", "2"]
SEGRE = ["segre", "--g", "3", "--r", "5", "--d", "2"]
VERIFY = ["verify", "--suite", "identities", "--trials", "200", "--seed", "4"]
TABLE = ["classify", "--g", "2", "--r", "6", "--d", "3", "--k", "5"]


def _edit_json(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data, indent=2) + "\n"


def _drop_descriptor(d):
    d["results"]["descriptors"].pop(0)


def _bump_count(d):
    d["results"]["totals"]["OBSTRUCTED_CANDIDATE"] += 1


def _bump_dim(d):
    d["results"]["descriptors"][0]["dimension"] += 1


def _flip_mismatch(d):
    d["results"]["mismatch"] = not d["results"]["mismatch"]


def _shift_segre(d):
    d["results"]["table"][0]["genericS"] += 1


def _fail_verify(d):
    d["results"]["allExpectedPass"] = False


def _hide_counterexamples(d):
    for rep in d["results"]["reports"]:
        rep["failures"] = 0


@pytest.mark.parametrize("argv,edit", [
    (CLASSIFY, _drop_descriptor), (CLASSIFY, _bump_count), (CLASSIFY, _bump_dim),
    (CONNECT, _flip_mismatch), (SEGRE, _shift_segre),
    (VERIFY, _fail_verify), (VERIFY, _hide_counterexamples),
])
def test_checker_rejects_corrupted_json(argv, edit):
    good = _stdout(argv)
    assert checks.check(argv, 0, good) == []
    assert checks.check(argv, 0, _edit_json(good, edit))


def test_checker_rejects_corrupted_csv():
    good = _stdout(SWEEP)
    assert checks.check(SWEEP, 0, good) == []
    lines = good.splitlines(keepends=True)
    dropped = "".join(lines[:4] + lines[5:])
    assert checks.check(SWEEP, 0, dropped)
    row = lines[3].split(",")
    row[1] = str(int(row[1]) + 1)  # unobstructedExt
    changed = "".join(lines[:3] + [",".join(row)] + lines[4:])
    assert checks.check(SWEEP, 0, changed)


def test_checker_rejects_corrupted_table_and_exit_code():
    good = _stdout(TABLE)
    assert checks.check(TABLE, 0, good) == []
    assert checks.check(TABLE, 0, good.replace("UNOBSTRUCTED_EXT", "NOT_COMPONENT", 1))
    assert checks.check(TABLE, 2, good)
    assert checks.check(TABLE, 0, "")


def test_tracer_counts_and_restores():
    modules = run._layer_modules()
    original = modules["cli"].classify
    trace = tracer.Tracer(modules)
    trace.install()
    try:
        assert modules["cli"].classify is not original
        run._inproc_pass(modules["cli"], [CLASSIFY], None, trace)
    finally:
        trace.uninstall()
    assert modules["cli"].classify is original
    agg = run._aggregate(trace)
    assert agg["cli.main.calls"] == 1
    assert agg["classifier.classify.calls"] == 1
    assert agg["classifier._deg_vectors.calls"] >= 1
    assert agg["classifier.descriptors"] == len(json.loads(_stdout(CLASSIFY))
                                                ["results"]["descriptors"])
    # the root span covers its children, and self time never goes negative
    assert trace.parent[0] == -1
    assert all(v >= 0 for k, v in agg.items() if k.endswith("self_s"))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    name = re.compile(r"[A-Za-z0-9_.-]+\Z")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert all(name.match(n) for n in list(e2e) + list(layer))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_result_line_has_exactly_the_declared_metrics(trace, names, capsys):
    assert run.main(["--workload", "interactive", "--seed", "0",
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads.generate("interactive", 0))
    assert list(result["metrics"]) == list(names)
    assert all(m["unit"] == names[n] for n, m in result["metrics"].items())


def test_timed_run_scales_by_the_probe_and_restores_affinity(monkeypatch):
    cpus = os.sched_getaffinity(0)
    probes = iter([0.001, 0.003] * 100)  # before and after each child
    monkeypatch.setattr(run, "pin_to_fastest_cpu", lambda allowed: next(probes))
    monkeypatch.setattr(run, "probe_s", lambda: next(probes))
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)
    os.makedirs(run.RESULTS, exist_ok=True)
    _metrics, outcome, extra = run.timed_run([CLASSIFY], 0.01)
    assert os.sched_getaffinity(0) == cpus and outcome.failed == 0
    raw, scaled = extra["raw_wall_s"][1][0], extra["call_wall_s"][0][0]
    assert extra["probe_s"][1][0] == pytest.approx(0.002)
    assert scaled == pytest.approx(raw * run.PROBE_REF_S / 0.002)


def test_pin_to_fastest_cpu_pins_one_allowed_cpu():
    cpus = os.sched_getaffinity(0)
    try:
        assert run.pin_to_fastest_cpu(cpus) > 0
        pinned = os.sched_getaffinity(0)
        assert len(pinned) == 1 and pinned <= cpus
    finally:
        os.sched_setaffinity(0, cpus)


def test_run_child_kills_a_call_that_overruns(monkeypatch):
    os.makedirs(run.RESULTS, exist_ok=True)
    monkeypatch.setattr(run, "CALL_TIMEOUT_S", 0.3)
    wall, _cpu, _rss, rc, _out, _err = run.run_child(
        ["-c", "import time; time.sleep(30)"], run._child_env())
    assert rc is None and wall < 10
