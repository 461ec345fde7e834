import argparse
import csv
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import modulirc
from modulirc import derive_params, oracle
from modulirc.classifier import ComponentDescriptor
from modulirc.cli import SCHEMA_VERSION, _segre_rows, _sweep_rows, _write_sweep, main
from modulirc.jsontext import dumps
from modulirc.oracle import VerificationReport
from modulirc.segre import stratum_codimension


def _run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    return code, json.loads(text)


class TestJson:
    """`jsontext.dumps` against the json module it stands in for."""

    def test_every_code_point(self):
        for c in map(chr, range(0x110000)):
            assert dumps(c) == json.dumps(c)

    @pytest.mark.parametrize("ind", ["\n", "\n    "])
    @pytest.mark.parametrize("obj", [
        "", "plain text", 'say "no"', "back\\slash", "tab\there", "nul\0", "del\x7f",
        "caf\u00e9", "\u2028\ud800\U0001f600", 'mixed "\\\x1f\x7f\u00ff',
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {"x": [1, [2, {}]]}],
        {"k": -7, "big": -(10**39) - 1, "pos": 10**39, "t": True, "f": False, "n": None},
        (1, (2, 3), ["a", ("b",)]), [None, True, False, 0, -1, "s"],
        {"rows": [{"k": 1, "flags": ""}, {"k": 2, "flags": "incomplete"}], "esc\n": 'q"'}])
    def test_equals_json_dumps(self, obj, ind):
        assert dumps(obj, ind) == json.dumps(obj, indent=2).replace("\n", ind)

    @pytest.mark.parametrize("obj", [1.0, [0.5], {"x": np.int64(3)}, np.int64(3), {1: 2}, {2, 3},
                                     type("IntSubclass", (int,), {})(3)])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)


class TestClassify:
    def test_json_envelope(self):
        code, data = _run_json(["classify", "--g", "2", "--r", "2", "--d", "1",
                                "--k", "1", "--format", "json"])
        assert code == 0
        assert data["schemaVersion"] == SCHEMA_VERSION
        assert data["command"] == "classify"
        assert data["inputs"]["k"] == 1
        descs = data["results"]["descriptors"]
        assert len(descs) == 1
        assert descs[0]["kind"] == "UNOBSTRUCTED_EXT"
        assert descs[0]["dimension"] == 5

    def test_repeated_runs_byte_identical(self):
        argv = ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "9",
                "--include-candidates", "--format", "json"]
        _, a = _run(argv)
        _, b = _run(argv)
        assert a == b

    def test_table_format(self):
        code, text = _run(["classify", "--g", "2", "--r", "2", "--d", "1",
                           "--k", "2"])
        assert code == 0
        assert "UNOBSTRUCTED_TORSION" in text
        assert "OBSTRUCTED_EXPECTED" in text
        assert "disagree" not in text or "divisibility" in text

    def test_bad_domain_exit_one(self):
        code, _ = _run(["classify", "--g", "1", "--r", "2", "--d", "1",
                        "--k", "1"])
        assert code == 1
        code, _ = _run(["classify", "--g", "2", "--r", "2", "--d", "1",
                        "--k", "0"])
        assert code == 1

    def test_oversized_inputs_rejected(self):
        code, _ = _run(["classify", "--g", "2", "--r", "2", "--d", "2000000",
                        "--k", "1"])
        assert code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            _run(["classify", "--g", "2", "--r", "2", "--d", "1",
                  "--k", "1", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            _run([])
        assert exc.value.code == 1

    def test_each_descriptor_written_before_the_next_is_pulled(self, monkeypatch):
        # pulled means built: a descriptor's dict exists only once the ones
        # before it are written
        buf = io.StringIO()
        pulled = []
        to_dict = ComponentDescriptor.to_dict

        def checked(desc):
            # "status" is a descriptor's last key, and only a descriptor's
            assert buf.getvalue().count('"status": ') == len(pulled)
            pulled.append(to_dict(desc))
            return pulled[-1]

        monkeypatch.setattr(ComponentDescriptor, "to_dict", checked)
        code = main(["classify", "--g", "2", "--r", "4", "--d", "2", "--k", "8",
                     "--include-candidates", "--format", "json"], out=buf)
        assert code == 0
        assert len(pulled) == 12
        assert json.loads(buf.getvalue())["results"]["descriptors"] == pulled


@pytest.mark.parametrize("argv", [
    ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "9"],
    ["sweep", "--g", "2", "--r", "3", "--d", "1", "--k-min", "1", "--k-max", "9"],
])
def test_negative_deg_bound_rejected(argv, capsys):
    # the work budget bounds the candidate search, so --deg-bound, of any
    # value, is not a flag of classify or sweep
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--include-candidates", "--deg-bound", "-3"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --deg-bound -3" in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "9", "--format", "json"],
    ["sweep", "--g", "2", "--r", "3", "--d", "1", "--k-min", "1", "--k-max", "9"],
])
@pytest.mark.parametrize("bound, message", [
    (["--max-l", "-1"], "max_l must be >= 2, got -1"),
    (["--max-l", "1"], "max_l must be >= 2, got 1"),
])
def test_search_bounds_checked_without_candidates(argv, bound, message, capsys):
    # the bound is echoed in the inputs, so it is checked even when no
    # candidate search runs
    assert _run(argv + bound) == (1, "")
    assert message in capsys.readouterr().err


class TestSweep:
    def test_csv_shape_and_counts(self):
        code, text = _run(["sweep", "--g", "2", "--r", "2", "--d", "1",
                           "--k-min", "1", "--k-max", "6"])
        assert code == 0
        assert "\r" not in text
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["k"] for r in rows] == [str(k) for k in range(1, 7)]
        for r in rows:
            total = int(r["unobstructedExt"]) + int(r["unobstructedTorsion"])
            assert total == 1  # h = 1 for (r, d) = (2, 1)

    def test_constant_h_column_h2(self):
        code, text = _run(["sweep", "--g", "2", "--r", "4", "--d", "2",
                           "--k-min", "1", "--k-max", "5"])
        assert code == 0
        for r in csv.DictReader(io.StringIO(text)):
            total = int(r["unobstructedExt"]) + int(r["unobstructedTorsion"])
            assert total == 2  # h = gcd(4, 2)

    def test_json_format(self):
        code, data = _run_json(["sweep", "--g", "2", "--r", "2", "--d", "1",
                                "--k-min", "2", "--k-max", "2",
                                "--format", "json"])
        assert code == 0
        rows = data["results"]["rows"]
        assert rows[0]["obstructedExpected"] == 1
        assert rows[0]["flags"] == ""

    def test_out_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code, text = _run(["sweep", "--g", "2", "--r", "2", "--d", "1",
                           "--k-min", "1", "--k-max", "3",
                           "--out", str(target)])
        assert code == 0
        assert text == ""  # written to the file, not stdout
        assert target.read_text().startswith("k,unobstructedExt")
        assert not (tmp_path / "sweep.csv.tmp").exists()

    @pytest.mark.parametrize("target, reason", [
        ("missing/sweep.csv", "No such file or directory"),
        ("existing-dir", "Is a directory"),
        pytest.param("", None, id="empty"),
    ])
    def test_unwritable_out_exit_one(self, tmp_path, monkeypatch, capsys, target, reason):
        monkeypatch.chdir(tmp_path)  # where the `.tmp` of an empty path would go
        (tmp_path / "existing-dir").mkdir()
        out = str(tmp_path / target) if target else ""
        code, text = _run(["sweep", "--g", "2", "--r", "2", "--d", "1",
                           "--k-min", "1", "--k-max", "3", "--out", out])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err == (f"modulirc: error: cannot write {out}: {reason}\n" if target else
                       "modulirc: error: --out must name a file, got an empty path\n")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_bad_range_exit_one(self):
        code, _ = _run(["sweep", "--g", "2", "--r", "2", "--d", "1",
                        "--k-min", "5", "--k-max", "2"])
        assert code == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejected_search_option_writes_nothing(self, tmp_path, fmt):
        argv = ["sweep", "--g", "2", "--r", "3", "--d", "1", "--k-min", "1",
                "--k-max", "3", "--include-candidates", "--max-l", "1",
                "--format", fmt]
        assert _run(argv) == (1, "")
        out = tmp_path / "sweep.out"
        assert _run(argv + ["--out", str(out)]) == (1, "")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_row_written_before_the_next_is_built(self, fmt):
        args = argparse.Namespace(command="sweep", format=fmt, g=2, r=4, d=2, k_min=1,
                                  k_max=5, max_l=3, include_candidates=False)
        rows = list(_sweep_rows(derive_params(2, 4, 2), 1, 5, False, 3))
        fh = io.StringIO()

        def pulled():
            for i, row in enumerate(rows):
                if i:
                    k = rows[i - 1]["k"]
                    assert (f'"k": {k},' if fmt == "json" else f"\n{k},") in fh.getvalue()
                yield row

        _write_sweep(args, pulled(), fh)
        if fmt == "csv":
            assert fh.getvalue().count("\n") == len(rows) + 1
        else:  # the streamed text is the whole document's
            inputs = {"g": 2, "r": 4, "d": 2, "kMin": 1, "kMax": 5, "maxL": 3,
                      "includeCandidates": False}
            envelope = {"schemaVersion": SCHEMA_VERSION, "command": "sweep",
                        "inputs": inputs, "results": {"rows": rows}, "warnings": []}
            assert fh.getvalue() == json.dumps(envelope, indent=2) + "\n"


class TestVerify:
    def test_all_suites_pass(self):
        code, data = _run_json(["verify", "--suite", "all",
                                "--trials", "2000"])
        assert code == 0
        assert data["results"]["allExpectedPass"] is True
        names = [r["suiteName"] for r in data["results"]["reports"]]
        assert "three_term_printed" in names
        assert "three_term_corrected" in names
        printed = next(r for r in data["results"]["reports"]
                       if r["suiteName"] == "three_term_printed")
        assert printed["failures"] > 0
        assert printed["counterexamples"]
        assert any("documented discrepancy" in w for w in data["warnings"])

    def test_single_suite(self):
        code, data = _run_json(["verify", "--suite", "telescoping",
                                "--trials", "500"])
        assert code == 0
        assert len(data["results"]["reports"]) == 1
        assert data["results"]["reports"][0]["pass"] is True

    def test_printed_relation_holding_fails_the_run(self, monkeypatch):
        # the printed relation is expected to fail; a run where it holds
        # exits 2 and says so in place of the documented discrepancy
        real = oracle.verify_three_term_identities

        def holding(trials, seed):
            printed, corrected = real(trials=trials, seed=seed)
            return VerificationReport(suite=printed.suite, trials=printed.trials, failures=0,
                                      counterexamples=[], notes=printed.notes), corrected

        monkeypatch.setattr(oracle, "verify_three_term_identities", holding)
        for suite in ("identities", "all"):
            code, data = _run_json(["verify", "--suite", suite, "--trials", "30",
                                    "--max-l", "3", "--rank-bound", "1", "--deg-bound", "1",
                                    "--twist-bound", "1", "--g-bound", "2"])
            assert code == 2
            assert data["results"]["allExpectedPass"] is False
            assert data["warnings"] == [
                "three_term_printed: expected counterexamples were not found"]

    @pytest.mark.parametrize("suite, name", [
        ("counts", "verify_component_counts"),
        ("telescoping", "verify_degree_telescoping"),
    ])
    def test_one_failure_fails_the_run(self, suite, name, monkeypatch):
        def failing(**kwargs):
            return VerificationReport(suite="x", trials=1, failures=1,
                                      counterexamples=[(0,)])

        monkeypatch.setattr(oracle, name, failing)
        code, data = _run_json(["verify", "--suite", suite, "--trials", "30"])
        assert code == 2
        assert data["results"]["allExpectedPass"] is False
        assert data["warnings"] == []

    def test_suite_without_the_printed_relation_passes(self):
        # the printed relation's expected failure is not required of a run
        # that does not evaluate it
        code, data = _run_json(["verify", "--suite", "telescoping", "--trials", "30"])
        assert code == 0
        assert data["results"]["allExpectedPass"] is True
        assert [r["suiteName"] for r in data["results"]["reports"]] == ["degree_telescoping"]
        assert data["warnings"] == []

    def test_seeded_determinism(self):
        argv = ["verify", "--suite", "identities", "--trials", "500",
                "--seed", "11"]
        _, a = _run(argv)
        _, b = _run(argv)
        assert a == b

    @pytest.mark.parametrize("argv", [
        ["--trials", "0"],
        ["--suite", "claim", "--max-l", "2"],
        ["--suite", "dimensions", "--rank-bound", "0"],
        ["--suite", "claim", "--deg-bound", "-1"],
        # every degree 0: no slopes increase and no chain meets the claim's hypothesis
        ["--suite", "claim", "--deg-bound", "0"],
        ["--suite", "dimensions", "--deg-bound", "0"],
        ["--suite", "claim", "--g-bound", "1"],
        ["--suite", "dimensions", "--twist-bound", "0"],
    ])
    def test_degenerate_bounds_rejected(self, argv, capsys):
        code, text = _run(["verify"] + argv)
        assert code == 1
        assert text == ""
        assert "must be >=" in capsys.readouterr().err

    # (argv at the upper bound, the same argv one step past it, the flag the
    # rejection names); the identities suite reads none of the grid flags,
    # so the accepted side runs in a moment
    @pytest.mark.parametrize("at, past, flag", [
        (["--trials", "1000000"], ["--trials", "1000001"], "--trials"),
        (["--g-bound", "1000", "--max-l", "3", "--rank-bound", "1", "--deg-bound", "1",
          "--twist-bound", "1"],
         ["--g-bound", "1001", "--max-l", "3", "--rank-bound", "1", "--deg-bound", "1",
          "--twist-bound", "1"], "--g-bound"),
        (["--max-l", "12", "--rank-bound", "1", "--deg-bound", "1", "--twist-bound", "1"],
         ["--max-l", "13", "--rank-bound", "1", "--deg-bound", "1", "--twist-bound", "1"],
         "--max-l"),
        # 46^3 = 97 336 and 47^3 = 103 823 rank tuples
        (["--max-l", "3", "--rank-bound", "46", "--deg-bound", "1", "--twist-bound", "1"],
         ["--max-l", "3", "--rank-bound", "47", "--deg-bound", "1", "--twist-bound", "1"],
         "--rank-bound"),
        # 367^3 = 49 430 863 and 369^3 = 50 243 409 chains
        (["--max-l", "3", "--rank-bound", "1", "--deg-bound", "183", "--twist-bound", "1",
          "--g-bound", "2"],
         ["--max-l", "3", "--rank-bound", "1", "--deg-bound", "184", "--twist-bound", "1",
          "--g-bound", "2"], "--deg-bound"),
        # 27·6085^2 = 999 735 075 and 27·6086^2 = 1 000 063 692 cells
        (["--max-l", "3", "--rank-bound", "1", "--deg-bound", "1", "--twist-bound", "6085",
          "--g-bound", "2"],
         ["--max-l", "3", "--rank-bound", "1", "--deg-bound", "1", "--twist-bound", "6086",
          "--g-bound", "2"], "--twist-bound"),
    ])
    def test_upper_bounds(self, at, past, flag, capsys):
        code, text = _run(["verify", "--suite", "identities"] + at)
        assert code == 0 and json.loads(text)["results"]["allExpectedPass"]
        code, text = _run(["verify", "--suite", "identities"] + past)
        assert code == 1
        assert text == ""
        assert flag in capsys.readouterr().err

    # SplitMix64 reads a seed mod 2^64, so each seed past a bound would repeat
    # the report of the seed at the other bound
    @pytest.mark.parametrize("at, past", [("0", "-1"), (str(2**64 - 1), str(2**64))])
    def test_seed_bounds(self, at, past, capsys):
        argv = ["verify", "--suite", "identities", "--trials", "50", "--seed"]
        code, text = _run(argv + [at])
        assert code == 0 and json.loads(text)["inputs"]["seed"] == int(at)
        assert _run(argv + [past]) == (1, "")
        assert capsys.readouterr().err == (
            f"modulirc: error: --seed must lie in [0, {2**64 - 1}], got {past}\n")


class TestSegre:
    def test_single_r_prime(self):
        code, data = _run_json(["segre", "--g", "2", "--r", "3", "--d", "1",
                                "--r-prime", "1"])
        assert code == 0
        table = data["results"]["table"]
        assert table[0]["genericS"] == 4
        strata = table[0]["strata"]
        assert strata[0] == {"s": 1, "codim": 1, "nextS": 4}
        assert strata[-1] == {"s": 4, "codim": 0, "nextS": -1}

    def test_all_r_primes(self):
        code, data = _run_json(["segre", "--g", "2", "--r", "3", "--d", "1"])
        assert code == 0
        assert [row["rPrime"] for row in data["results"]["table"]] == [1, 2]

    def test_rows_equal_stratum_records(self):
        # the table's arithmetic against the validated records it replaces
        for g in range(2, 7):
            for r in range(2, 16):
                for d in range(r):
                    p = derive_params(g, r, d)
                    for rp, row in enumerate(_segre_rows(p, range(1, r)), 1):
                        records = []
                        s = rp * d % r or r  # the least positive s = r'd (mod r)
                        while s != -1:
                            st = stratum_codimension(p, rp, s)
                            records.append({"s": st.s, "codim": st.codim, "nextS": st.next_s})
                            s = st.next_s
                        assert row["rPrime"] == rp and row["strata"] == records
                        assert records[-1]["s"] == row["genericS"]

    def test_bad_r_prime(self):
        code, _ = _run(["segre", "--g", "2", "--r", "3", "--d", "1",
                        "--r-prime", "3"])
        assert code == 1

    @pytest.mark.parametrize("g, r, strata", [(100, 400, 2640178), (1000, 1000, 166500362)])
    def test_table_over_strata_cap_rejected(self, g, r, strata, capsys):
        assert _run(["segre", "--g", str(g), "--r", str(r), "--d", "0"]) == (1, "")
        assert capsys.readouterr().err == (
            f"modulirc: error: the table has {strata} strata, more than 1000000; "
            "ask for one --r-prime\n")
        # one r' of the same table is under the cap
        code, data = _run_json(["segre", "--g", str(g), "--r", str(r), "--d", "0",
                                "--r-prime", "1"])
        assert code == 0 and len(data["results"]["table"][0]["strata"]) == g - 1


class TestConnect:
    def test_agreeing_case(self):
        code, data = _run_json(["connect", "--g", "2", "--r", "2", "--d", "0"])
        assert code == 0
        res = data["results"]
        assert res["derivedK"] == 1 == res["closedFormK"]
        assert res["mismatch"] is False
        assert data["warnings"] == []

    def test_mismatch_reported_not_reconciled(self):
        code, data = _run_json(["connect", "--g", "2", "--r", "3", "--d", "1"])
        assert code == 0
        res = data["results"]
        assert res["derivedK"] == 7
        assert res["closedFormK"] == 12
        assert res["mismatch"] is True
        assert any("mismatch" in w for w in data["warnings"])


_SRC = str(pathlib.Path(modulirc.__file__).parent.parent)
_GOLDEN = pathlib.Path(__file__).parent / "golden"
# one golden case per command that starts without numpy
_STARTUP_CASES = ("classify_json_candidates", "sweep_csv", "segre_one_r_prime",
                  "connect_mismatch")


def _golden_case(name):
    cases = json.loads((_GOLDEN / "cases.json").read_text(encoding="utf-8"))
    return next(case for case in cases if case["name"] == name)


def _python(args, env=os.environ):
    return subprocess.run([sys.executable, *args], env={**env, "PYTHONPATH": _SRC},
                          capture_output=True, check=False)


def _loaded_by(argv):
    """The modules that `import modulirc.cli` and one call of main(argv)
    leave loaded in a fresh process."""
    script = ("import io, sys\n"
              "from modulirc.cli import main\n"
              "main(sys.argv[1:], out=io.StringIO())\n"
              "print(*sys.modules)\n")
    done = _python(["-c", script, *argv])
    assert done.returncode == 0
    return set(done.stdout.decode().split())


def _layers(modules):
    return {m.removeprefix("modulirc.") for m in modules
            if m.startswith("modulirc.") or m in ("json", "csv")}


def test_cli_import_leaves_numpy_to_verify():
    script = ("import sys, modulirc\n"
              "print(sorted(m for m in sys.modules if m.startswith('modulirc.')))\n"
              "import modulirc.cli\n"
              "print(sorted({'numpy', 'modulirc.oracle'} & set(sys.modules)))\n"
              "from modulirc import VerificationReport\n"
              "print(VerificationReport.__module__)\n")
    done = _python(["-c", script])
    assert (done.returncode, done.stdout) == (0, b"[]\n[]\nmodulirc.oracle\n")
    # verify loads the oracle and the layers it imports, not classifier or
    # segre, and writes JSON without json
    loaded = _loaded_by(_golden_case("verify_counts")["argv"])
    assert "numpy" in loaded
    assert _layers(loaded) == {"cli", "jsontext", "params", "families", "oracle", "rng"}


# every name the package exports, with the layer that defines it
_EXPORTS = [(layer, name) for layer, names in (
    ("params", "ConsistencyError ModuliParams ParameterError derive_params "
               "expected_dimension solve_dioph"),
    ("families", "ExtensionChain MixedDatum TorsionDatum "
                 "chain_dimension_excess_certificate two_step_chain"),
    ("classifier", "ClassificationReport ComponentDescriptor GenericImage Kind Status "
                   "classify enumerate_candidates enumerate_obstructed_expected "
                   "enumerate_unobstructed"),
    ("segre", "ConnectivityResult SegreStratum generic_segre min_connecting_degree "
              "segre_bound stratum_codimension"),
    ("oracle", "VerificationReport")) for name in names.split()]


@pytest.mark.parametrize("layer,name", _EXPORTS)
def test_package_exports(layer, name):
    namespace = {}
    exec(f"from modulirc import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"modulirc.{layer}"), name)


def test_package_exports_nothing_else():
    assert sorted(modulirc.__all__) == sorted(name for _, name in _EXPORTS)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        modulirc.no_such_name
    with pytest.raises(ImportError):
        exec("from modulirc import no_such_name", {})


# the layers of each command; only JSON output loads jsontext, and no command
# loads json (jsontext writes its output) or csv
_LOADS = {"classify_json_candidates": "classifier families jsontext params segre",
          "classify_table_candidates": "classifier families params segre",
          "sweep_csv": "params segre",
          "sweep_csv_candidates": "classifier families params segre",
          "sweep_json": "jsontext params segre",
          "segre_one_r_prime": "jsontext params segre",
          "segre_all_r_primes": "jsontext params segre",
          "connect_mismatch": "jsontext params segre"}


@pytest.mark.parametrize("name", _LOADS)
def test_commands_start_without_heavy_imports(name):
    # each call is a fresh process: dataclasses (which imports inspect) and
    # numpy would cost more than these commands compute, and so would
    # compiling a module the command does not run
    loaded = _loaded_by(_golden_case(name)["argv"])
    assert not {"dataclasses", "inspect", "numpy"} & loaded
    assert _layers(loaded) == {"cli", *_LOADS[name].split()}


@pytest.mark.parametrize("name", _STARTUP_CASES + (
    "classify_bad_k", "segre_bad_r_prime", "verify_counts", "sweep_out_csv"))
def test_module_entry_point_matches_golden(name, tmp_path):
    # `python -m modulirc.cli` runs cli as __main__, the form a shell call
    # takes; it ends in cli.run(), which skips interpreter teardown
    case = _golden_case(name)
    out = tmp_path / "out.txt"
    done = _python(["-m", "modulirc.cli",
                    *(arg.replace("{out}", str(out)) for arg in case["argv"])])
    golden = (_GOLDEN / f"{name}.txt").read_bytes()
    assert done.returncode == case["exit"]
    if "{out}" in case["argv"]:
        assert (done.stdout, out.read_bytes()) == (b"", golden)
        assert list(tmp_path.iterdir()) == [out]  # no .tmp file left
    else:
        assert done.stdout == golden
    assert done.stderr.startswith(b"modulirc: error: ") == (case["exit"] == 1)


@pytest.mark.parametrize("name", ["connect_mismatch", "classify_bad_k", "main_returns_2"])
def test_run_keeps_atexit_handlers_and_exit_code(name):
    if name == "main_returns_2":
        setup, code, stdout, stderr = "cli.main = lambda: 2", 2, b"", b""
    else:
        case = _golden_case(name)
        setup, code = f"sys.argv[1:] = {case['argv']!r}", case["exit"]
        stdout = (_GOLDEN / f"{name}.txt").read_bytes()
        stderr = b"modulirc: error: k must lie in [1, 1000000]\n" if code else b""
    script = ("import atexit, sys\n"
              "from modulirc import cli\n"
              "atexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
              f"{setup}\n"
              "cli.run()\n")
    done = _python(["-c", script])
    assert (done.returncode, done.stdout) == (code, stdout)
    assert done.stderr == stderr + b"atexit handler ran\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_run_leaves_a_failed_flush_to_teardown():
    # the buffered output cannot be written, so run() takes the sys.exit
    # path, whose teardown reports the error and exits 120 as before
    argv = _golden_case("connect_mismatch")["argv"]
    script = ("import sys\n"
              "from modulirc import cli\n"
              "sys.stdout = open('/dev/full', 'w')\n"
              f"sys.argv[1:] = {argv!r}\n"
              "cli.run()\n")
    done = _python(["-c", script])
    assert done.returncode == 120
    assert b"OSError: [Errno 28] No space left on device" in done.stderr


# a sweep whose CSV is far larger than a stream's buffer, so that writing it
# fails inside main() rather than at the final flush
_LONG_SWEEP = ["-m", "modulirc.cli", "sweep", "--g", "2", "--r", "4", "--d", "2",
               "--k-min", "1", "--k-max", "100000"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_exits_one_with_a_reason():
    # the output is cut short; what is still buffered is dropped, so no
    # traceback and no second report at exit
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, *_LONG_SWEEP], stdout=full,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": _SRC},
                              check=False, timeout=120)
    assert done.returncode == 1
    assert done.stderr == b"modulirc: error: cannot write output: No space left on device\n"


def test_closed_pipe_exits_one_with_a_reason():
    with subprocess.Popen([sys.executable, *_LONG_SWEEP], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": _SRC}) as proc:
        assert proc.stdout.read(10) == b"k,unobstru"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert stderr == b"modulirc: error: cannot write output: Broken pipe\n"


def test_module_entry_point_help_and_usage_error():
    done = _python(["-m", "modulirc.cli", "--help"])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"usage: modulirc ")
    done = _python(["-m", "modulirc.cli", "classify", "--g", "2"])
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"usage: modulirc classify ")
    assert b"error: the following arguments are required: --r, --d, --k" in done.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("module", ["modulirc.rng", "modulirc.oracle"])
@pytest.mark.parametrize("preset", [None, "2"])
def test_numpy_loads_without_blas_thread_pool(module, preset):
    # the suites use int64 arithmetic only, so OpenBLAS threads would idle;
    # a user's own setting is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = (f"import os, {module}\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
              "print(len(os.listdir('/proc/self/task')))\n")
    done = _python(["-c", script], env)
    value, threads = done.stdout.split()
    assert value == (preset or "1").encode()
    if preset is None:
        assert threads == b"1"
