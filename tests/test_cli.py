import csv
import io
import json

import pytest

from modulirc.cli import SCHEMA_VERSION, main


def _run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    return code, json.loads(text)


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
    ])
    def test_unwritable_out_exit_one(self, tmp_path, capsys, target, reason):
        (tmp_path / "existing-dir").mkdir()
        out = tmp_path / target
        code, text = _run(["sweep", "--g", "2", "--r", "2", "--d", "1",
                           "--k-min", "1", "--k-max", "3", "--out", str(out)])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err == f"modulirc: error: cannot write {out}: {reason}\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_bad_range_exit_one(self):
        code, _ = _run(["sweep", "--g", "2", "--r", "2", "--d", "1",
                        "--k-min", "5", "--k-max", "2"])
        assert code == 1


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
        ["--suite", "claim", "--g-bound", "1"],
        ["--suite", "dimensions", "--twist-bound", "0"],
    ])
    def test_degenerate_bounds_rejected(self, argv, capsys):
        code, text = _run(["verify"] + argv)
        assert code == 1
        assert text == ""
        assert "must be >=" in capsys.readouterr().err


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

    def test_bad_r_prime(self):
        code, _ = _run(["segre", "--g", "2", "--r", "3", "--d", "1",
                        "--r-prime", "3"])
        assert code == 1


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
