import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modulirc
from modulirc import cli, derive_params, oracle
from modulirc.classifier import ComponentDescriptor
from modulirc.cli import SCHEMA_VERSION, _segre_rows, _sweep_rows, _write_sweep, main
from modulirc.jsontext import dump
from modulirc.oracle import VerificationReport
from modulirc.params import ParameterError
from modulirc.segre import stratum_codimension


def _run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    return code, json.loads(text)


def _dump(obj):
    fh = io.StringIO()
    dump(obj, fh)
    return fh.getvalue()


class _Writes(io.StringIO):
    """A file that keeps each write's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestJson:
    """`jsontext.dump` against the json module it stands in for."""

    def test_every_code_point(self):
        chars = list(map(chr, range(0x110000)))
        assert _dump(chars) == json.dumps(chars, indent=2) + "\n"

    # the object's indentation: at the top, or at depth 2, as the value in a
    # one-key dict inside a list
    @pytest.mark.parametrize("ind", ["\n", "\n    "])
    @pytest.mark.parametrize("obj", [
        "", "plain text", 'say "no"', "back\\slash", "tab\there", "nul\0", "del\x7f",
        "caf\u00e9", "\u2028\ud800\U0001f600", 'mixed "\\\x1f\x7f\u00ff',
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {"x": [1, [2, {}]]}],
        {"k": -7, "big": -(10**39) - 1, "pos": 10**39, "t": True, "f": False, "n": None},
        (1, (2, 3), ["a", ("b",)]), [None, True, False, 0, -1, "s"],
        {"rows": [{"k": 1, "flags": ""}, {"k": 2, "flags": "incomplete"}], "esc\n": 'q"'}])
    def test_equals_json_dumps(self, obj, ind):
        nested = obj if ind == "\n" else [{"x": obj}]
        text = _dump(nested)
        assert text == json.dumps(nested, indent=2) + "\n"
        assert json.dumps(obj, indent=2).replace("\n", ind) in text

    @pytest.mark.parametrize("obj", [1.0, [0.5], {"x": np.int64(3)}, np.int64(3), {1: 2}, {2, 3},
                                     type("IntSubclass", (int,), {})(3)])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            _dump(obj)

    @pytest.mark.parametrize("make", [
        lambda items: items,
        lambda items: {"params": {"g": 2}, "k": 9, "descriptors": items, "warnings": ["w"]},
        lambda items: {"a": {"b": {"c": items, "d": 1}}},
        lambda items: [0, items, {}],
        lambda items: ({"rows": iter([item, item])} for item in items),
    ], ids=["alone", "among keys", "depth 3", "in a list", "in an item"])
    @pytest.mark.parametrize("items", [[], [{"k": 1, "flags": ""}],
                                       [{"k": k, "flags": "incomplete"} for k in range(5)]],
                             ids=["no items", "1 item", "5 items"])
    def test_iterators_equal_json_dumps_of_lists(self, make, items):
        # an iterator is encoded as the list of its items, at any depth
        def listed(obj):
            if isinstance(obj, dict):
                return {key: listed(value) for key, value in obj.items()}
            if isinstance(obj, (list, tuple)) or hasattr(obj, "__next__"):
                return [listed(value) for value in obj]
            return obj

        expected = json.dumps(listed(make(iter(items))), indent=2) + "\n"
        assert _dump(make(iter(items))) == expected

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_one_write_per_item(self, n):
        # each item goes out, with the text before it, before the next is
        # pulled, and the rest of the document goes in one write
        fh = _Writes()
        items = [{"k": k, "name": f"item {k}"} for k in range(n)]

        def pulled():
            for k, item in enumerate(items):
                assert fh.getvalue().count('"name": ') == k
                yield item

        data = {"head": [1, 2], "items": pulled(), "tail": None}
        dump(data, fh)
        assert len(fh.writes) == n + 1
        assert fh.getvalue() == json.dumps({**data, "items": items}, indent=2) + "\n"


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
        assert not list(tmp_path.glob("*.tmp"))

    _OUT_ARGV = ["sweep", "--g", "2", "--r", "4", "--d", "2", "--k-min", "1", "--k-max", "3"]

    def test_out_keeps_another_temp_file(self, tmp_path):
        # neither `<out>.tmp` nor `<out>.<pid>.tmp` is the temp file's name,
        # so files of those names stay
        kept = [f"s.csv.{os.getpid()}.tmp", "s.csv.tmp"]
        for name in kept:
            (tmp_path / name).write_text("my notes\n")
        assert _run(self._OUT_ARGV + ["--out", str(tmp_path / "s.csv")]) == (0, "")
        assert all((tmp_path / name).read_text() == "my notes\n" for name in kept)
        assert (tmp_path / "s.csv").read_text() == _run(self._OUT_ARGV)[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", *kept]

    def test_out_name_near_the_name_limit(self, tmp_path):
        # the temp name does not grow with the output's, so an output whose
        # name is 3 bytes short of the limit is written like any other
        name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 7) + ".csv"
        assert _run(self._OUT_ARGV + ["--out", str(tmp_path / name)]) == (0, "")
        assert (tmp_path / name).read_bytes() == _run(self._OUT_ARGV)[1].encode()
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_out_keeps_a_file_at_its_temp_name(self, tmp_path, capsys):
        # the temp file is made, never opened: a file already at its name
        # fails the call and is left as it was
        taken = tmp_path / f".modulirc-{os.getpid()}.tmp"
        taken.write_text("someone else's\n")
        out = str(tmp_path / "s.csv")
        assert _run(self._OUT_ARGV + ["--out", out]) == (1, "")
        assert capsys.readouterr().err == f"modulirc: error: cannot write {out}: File exists\n"
        assert taken.read_text() == "someone else's\n"
        assert [p.name for p in tmp_path.iterdir()] == [taken.name]

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
    def test_first_row_failing_writes_nothing(self, tmp_path, monkeypatch, capsys, fmt):
        # neither format writes before the first row is built
        def failing(*args):
            raise ParameterError("no rows")

        monkeypatch.setattr(modulirc.segre, "sieve_obstructed_expected", failing)
        argv = self._OUT_ARGV + ["--format", fmt]
        assert _run(argv) == (1, "")
        assert _run(argv + ["--out", str(tmp_path / "sweep.out")]) == (1, "")
        assert capsys.readouterr().err == "modulirc: error: no rows\n" * 2
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
                                      counterexamples=[(0,)], notes="")

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
    leave loaded in a fresh process, also where argparse exits for help or
    an error."""
    script = ("import io, sys\n"
              "from modulirc.cli import main\n"
              "try:\n"
              "    main(sys.argv[1:], out=io.StringIO())\n"
              "except SystemExit:\n"
              "    pass\n"
              "print(*sys.modules)\n")
    done = _python(["-c", script, *argv])
    assert done.returncode == 0
    return set(done.stdout.decode().splitlines()[-1].split())


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
    # compiling a module the command does not run; a well-formed argv is
    # parsed without argparse, which loads gettext, whose lookups load locale
    loaded = _loaded_by(_golden_case(name)["argv"])
    assert not {"dataclasses", "inspect", "numpy", "argparse", "gettext", "locale"} & loaded
    assert _layers(loaded) == {"cli", *_LOADS[name].split()}


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--g", "2"]])
def test_help_and_usage_errors_load_argparse(argv):
    assert "argparse" in _loaded_by(argv)


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


# argparse is the reference for cli._parse: on every argv that _parse takes,
# the two give the same namespace, keys in the same order, and main leaves
# every other argv to argparse
_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")  # Arabic-Indic
_INT_VALUES = st.one_of(st.integers(-10**6, 10**6).map(str),
                        st.integers(-99, 99).map(lambda n: str(n).translate(_DIGITS)),
                        st.sampled_from(["+7", " 7", "7 ", "1_0", "007", "-0"]))
# tokens that start with "-" but are not "-" and decimal digits; int() takes "-1_0"
_DASHED = ["--", "-h", "--help", "-", "-x", "--bogus", "-1.5", "-5x", "-1e3", "-1_0", "--g-",
           "-g", "--G"]
_NOISE = st.sampled_from(_DASHED + ["x", "", "1.5", "xml", *sorted(cli._COMMANDS)])


def _value(kind):
    if kind is int:
        return _INT_VALUES
    if kind is str:
        return st.sampled_from(["out.csv", "", "a b", "-5"])
    return st.sampled_from(kind)


def _bad_value(kind):
    """Values that `_parse` rejects after a flag of this type."""
    if kind is int:
        return st.sampled_from(["-1_0", "-7_7", "--g", "-h", "x", "", "1.5", "٣.٣"])
    if kind is str:
        return st.sampled_from(["-x", "--", "-h", "-", "--out"])
    return st.sampled_from(["xml", "JSON", "", " all", "-h"])


@st.composite
def _argv(draw):
    """An argv of one command, and whether it is well formed: each required
    flag once or twice (the last one wins), each other flag up to twice, in
    any order.  At most one kind of flaw is then drawn: a required flag left
    out, a bad value, or tokens dropped, replaced or added, among them
    abbreviations and `--flag=value` forms."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    flaw = draw(st.sampled_from(["none", "missing", "value", "tokens"]))
    missing = draw(st.sampled_from(options))[0] if flaw == "missing" else None
    groups = []
    for flag, kind, _, required, _ in options:
        for _ in range(0 if flag == missing else draw(st.integers(int(required), 2))):
            groups.append([flag] if kind is bool else [flag, draw(_value(kind))])
    valued = [group for group in groups if len(group) == 2]
    if flaw == "value" and valued:
        group = draw(st.sampled_from(valued))
        kind = next(kind for flag, kind, _, _, _ in options if flag == group[0])
        group[1] = draw(_bad_value(kind))
    argv = [command, *chain.from_iterable(draw(st.permutations(groups)))]
    for _ in range(draw(st.integers(1, 3)) if flaw == "tokens" else 0):
        at = draw(st.integers(0, len(argv)))
        flag, kind, _, _, _ = draw(st.sampled_from(options))
        tokens = draw(st.one_of(
            _NOISE.map(lambda t: [t]), _value(int).map(lambda t: [t]), st.just([flag]),
            st.integers(3, max(3, len(flag) - 1)).map(lambda n: [flag[:n]]),
            _value(str if kind is bool else kind).map(lambda v: [f"{flag}={v}"])))
        how = draw(st.sampled_from(["add", "drop", "replace"]))
        if how != "add" and at < len(argv):
            del argv[at]
        if how != "drop":
            argv[at:at] = tokens
    return argv, flaw == "none"


def _argparse(argv):
    """What build_parser().parse_args(argv) returns, as a list of items, or
    its exit code when it exits; with what it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(cli.build_parser().parse_args(argv)).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(case=_argv())
def test_parse_agrees_with_argparse(case):
    argv, well_formed = case
    got = cli._parse(argv)
    assert got is not None or not well_formed
    if got is not None:
        want, _, _ = _argparse(argv)
        assert want == list(vars(got).items())


# argv that argparse exits on, for help or with an error
_REJECTED = [[], ["--help"], ["-h"], ["bogus"], ["--", "connect"],
             *([command, "--help"] for command in sorted(cli._COMMANDS)),
             ["classify", "--g", "2"],
             ["connect", "--g", "2", "--r", "3"],
             ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "2", "--format", "xml"],
             ["verify", "--suite", "nope"],
             ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "x"],
             ["connect", "--g", "2", "--r", "3", "--d", "1.5"],
             ["connect", "--g", "2", "--r", "3", "--d"],
             ["connect", "--g", "2", "--r", "3", "--d", "--g", "2"],
             ["sweep", "--g", "2", "--r", "4", "--d", "0", "--k-min", "1", "--k-max", "2",
              "--out", "-x"],
             ["connect", "--g", "2", "--r", "3", "--d", "1", "--bogus"],
             ["connect", "--g", "2", "--r", "3", "--d", "1", "extra"],
             ["connect", "--g", "2", "--r", "3", "--d", "1", "--"],
             ["sweep", "--g", "2", "--r", "4", "--d", "0", "--k", "1"],
             ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "2", "--include-c", "x"]]


@pytest.mark.parametrize("argv", _REJECTED, ids=" ".join)
def test_rejected_argv_exit_as_argparse_does(argv):
    want, want_out, want_err = _argparse(argv)
    assert isinstance(want, int)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
    assert (exc.value.code, out.getvalue(), err.getvalue()) == (want, want_out, want_err)


_GIVEN = ["--g", "2", "--r", "3", "--d", "1"]


@pytest.mark.parametrize("argv,spelled", [
    (["connect", "--g=2", "--r", "3", "--d", "1"], ["connect", *_GIVEN]),
    (["connect", "--r", "3", "--d", "1", "--g", "9", "--g", "2"], ["connect", *_GIVEN]),
    (["connect", "--g", "2", "--r", "3", "--d", "-٣"], ["connect", *_GIVEN[:5], "-3"]),
    (["classify", *_GIVEN, "--k", "2", "--include-c", "--form", "json"],
     ["classify", *_GIVEN, "--k", "2", "--include-candidates", "--format", "json"])])
def test_argv_argparse_accepts_run_as_spelled_out(argv, spelled):
    # the first and last go to argparse, which runs them as it did before
    assert _run(argv) == _run(spelled)
