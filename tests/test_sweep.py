"""The arithmetic sweep rows against the per-k classification they replaced,
and the hand-written sweep CSV against `csv.writer`.

`_classified_rows` is the former `sweep` row builder, kept as the reference
oracle: it runs `classify` at every k and tallies the report's totals,
descriptor dimensions, cross-check rows and search reasons.  `_csv_oracle`
is the former CSV writer, kept as the oracle of `_write_sweep`.
"""

import argparse
import csv
import io
from itertools import accumulate

from modulirc import classifier, cli, derive_params, enumerate_candidates, expected_dimension
from modulirc.classifier import classify
from modulirc.cli import _sweep_rows, _write_sweep


def _classified_rows(p, k_min, k_max, include_candidates, max_l):
    rows = []
    for k in range(k_min, k_max + 1):
        report = classify(p, k, include_candidates=include_candidates,
                          max_l=max_l)
        counts = report.totals
        dims = [d.dimension for d in report.descriptors]
        flags = []
        if any(not row.agree for row in report.thm_b):
            flags.append("divisibility-disagreement")
        if report.candidate_search is not None and report.candidate_search.reasons:
            flags.append("incomplete")
        rows.append({
            "k": k,
            "unobstructedExt": counts["UNOBSTRUCTED_EXT"],
            "unobstructedTorsion": counts["UNOBSTRUCTED_TORSION"],
            "obstructedExpected": counts["OBSTRUCTED_EXPECTED"],
            "obstructedCandidate": counts["OBSTRUCTED_CANDIDATE"],
            "notComponent": counts["NOT_COMPONENT"],
            "expectedDim": expected_dimension(p, k),
            "minDim": min(dims),
            "maxDim": max(dims),
            "flags": ";".join(flags),
        })
    return rows


def _csv_oracle(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


def _assert_csv_as_csv_writer(rows):
    buf = io.StringIO()
    _write_sweep(argparse.Namespace(format="csv"), iter(rows), buf)
    assert buf.getvalue() == _csv_oracle(rows)


def _compare_grid(gs, rs, ds, k_max, **search):
    """Compare both builders on every (g, r, d) of the grid over k 1..k_max;
    returns what the grid covered, so a test can assert that it is not thin."""
    options = {"include_candidates": False, "max_l": 3, **search}
    seen = set()
    for g in gs:
        for r in rs:
            for d in ds:
                p = derive_params(g, r, d)
                rows = list(_sweep_rows(p, 1, k_max, **options))
                assert rows == _classified_rows(p, 1, k_max, **options), (g, r, d)
                _assert_csv_as_csv_writer(rows)
                # a window that starts past k = 1 sieves from its own start
                assert list(_sweep_rows(p, 7, k_max, **options)) == rows[6:], (g, r, d)
                seen.add("h=1" if p.h == 1 else "h=r" if p.h == r else "1<h<r")
                for row in rows:
                    seen.update(row["flags"].split(";"))
                    seen.add(row["flags"])
                    if row["obstructedExpected"]:
                        seen.add("obstructed-expected")
    return seen


def test_count_only_rows_equal_classified_rows():
    seen = _compare_grid(range(2, 5), range(2, 9), range(-6, 7), 60)
    assert {"h=1", "1<h<r", "h=r", "divisibility-disagreement",
            "obstructed-expected"} <= seen


def test_candidate_rows_equal_classified_rows():
    seen = _compare_grid((2, 3), range(2, 6), range(-4, 5), 12,
                         include_candidates=True)
    assert {"h=1", "1<h<r", "h=r", "divisibility-disagreement",
            "obstructed-expected"} <= seen


def test_clipped_candidate_rows_equal_classified_rows(monkeypatch):
    # a budget this small stops many of the searches short
    monkeypatch.setattr(classifier, "WORK_BUDGET", 60)
    seen = _compare_grid((2, 3), range(2, 6), range(-4, 5), 6,
                         include_candidates=True, max_l=4)
    assert {"incomplete", "divisibility-disagreement;incomplete"} <= seen


def test_sweep_work_cap(monkeypatch):
    # the rows search until their work passes the cap; later rows are not searched
    monkeypatch.setattr(cli, "MAX_SWEEP_WORK", 2000)
    p = derive_params(3, 3, 1)
    spent = list(accumulate(enumerate_candidates(p, k, max_l=3).work for k in range(1, 31)))
    searched = next(i for i, total in enumerate(spent) if total > 2000) + 1
    assert 1 < searched < 30
    rows = list(_sweep_rows(p, 1, 30, True, 3))
    assert rows[:searched] == _classified_rows(p, 1, searched, True, 3)
    _assert_csv_as_csv_writer(rows)
    count_only = _classified_rows(p, searched + 1, 30, False, 3)
    for row, reference in zip(rows[searched:], count_only, strict=True):
        assert "incomplete" in row["flags"].split(";")
        assert row["obstructedCandidate"] == row["notComponent"] == 0
        assert row["minDim"] == row["maxDim"] == row["expectedDim"]
        assert row["flags"] == ";".join(filter(None, (reference["flags"], "incomplete")))
        assert {**row, "flags": ""} == {**reference, "flags": ""}


def test_rank_1000_rows_equal_classified_rows_at_sampled_k():
    # every 997th k misses the r1 whose test passes, so add some k where
    # one does (and, at 999 and 1000, where only one reading passes)
    sample = [*range(1, 20001, 997), 180, 320, 999, 1000, 1080, 19980]
    seen = set()
    for d in (0, 500):
        p = derive_params(2, 1000, d)
        rows = list(_sweep_rows(p, 1, 20000, False, 3))
        _assert_csv_as_csv_writer(rows)
        for k in sample:
            assert [rows[k - 1]] == _classified_rows(p, k, k, False, 3), (d, k)
            seen.add((rows[k - 1]["obstructedExpected"] > 0, rows[k - 1]["flags"]))
    assert {(False, ""), (False, "divisibility-disagreement"),
            (True, "divisibility-disagreement")} <= seen
