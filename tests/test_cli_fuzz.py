"""Fuzzing of `classify` and `sweep` argv within the documented input bounds.

Each argv runs twice in process, with the candidate search's work budget
patched small so that every search that reaches it stops early; a sweep's
window is at most 30 degrees wide so that each run stays short.  Every run
must exit 0, 1 or 2 (writing nothing unless it exits 0), write the same
bytes both times, end within CAP_S seconds, and flag the search incomplete
exactly when it names a reason.
"""

import csv
import io
import json
import signal

import pytest
from hypothesis import given, settings, strategies as st

from modulirc import classifier, derive_params, enumerate_candidates
from modulirc.cli import main
from modulirc.params import MAX_DEGREE, MAX_GENUS, MAX_K, MAX_RANK

BUDGET = 500
# on a shared 2-vCPU VM the slowest of 1 600 runs took 0.06 s, and hand-picked
# extremes (r = 1000, k = 10**6) 0.17 s; a run past the cap is a loop the
# budget does not bound, stopped by an alarm so that it fails instead of hanging
CAP_S = 5


class _Overrun(BaseException):
    """A run past CAP_S.  It is not an Exception, so hypothesis reports the
    argv at once instead of shrinking it, which would wait out the cap again
    at every step."""


def _bounded(low, high, small):
    """Integers in [low, high], drawn from [low, small] half the time."""
    return st.one_of(st.integers(low, small), st.integers(low, high))


_PARAMS = {"g": _bounded(2, MAX_GENUS, 4), "r": _bounded(2, MAX_RANK, 8),
           "d": st.one_of(st.integers(-9, 9), st.integers(-MAX_DEGREE, MAX_DEGREE))}
_SEARCH = {"max_l": _bounded(2, 10**12, 6), "candidates": st.booleans()}


def _flags(g, r, d, max_l, candidates):
    argv = ["--g", str(g), "--r", str(r), "--d", str(d), "--max-l", str(max_l)]
    return argv + ["--include-candidates"] * candidates


def _run_twice(argv):
    def overran(signum, frame):
        raise _Overrun(f"modulirc {' '.join(argv)} took more than {CAP_S} s")

    previous = signal.signal(signal.SIGALRM, overran)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "WORK_BUDGET", BUDGET)
        runs = []
        try:
            for _ in range(2):
                buf = io.StringIO()
                signal.alarm(CAP_S)
                runs.append((main(argv, out=buf), buf.getvalue()))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert runs[0] == runs[1]
    code, text = runs[0]
    assert code in (0, 1, 2)
    assert code == 0 or text == ""
    return code, text


@settings(max_examples=40, deadline=None)
@given(k=_bounded(1, MAX_K, 40), include_mixed=st.booleans(),
       fmt=st.sampled_from(["json", "table"]), **_PARAMS, **_SEARCH)
def test_classify_argv(g, r, d, k, max_l, candidates, include_mixed, fmt):
    argv = ["classify", "--k", str(k), "--format", fmt] + _flags(g, r, d, max_l, candidates)
    code, text = _run_twice(argv + ["--include-mixed"] * include_mixed)
    if code == 0 and fmt == "json":
        data = json.loads(text)
        reasons = [w for w in data["warnings"] if w.startswith("candidate-search-incomplete")]
        search = data["results"].get("candidateSearch")
        assert (search is not None) == candidates
        assert bool(reasons) == bool(search and search["incomplete"])


@settings(max_examples=40, deadline=None)
@given(k_min=_bounded(1, MAX_K, 40), width=st.integers(0, 29),
       fmt=st.sampled_from(["csv", "json"]), **_PARAMS, **_SEARCH)
def test_sweep_argv(g, r, d, k_min, width, max_l, candidates, fmt):
    k_max = min(k_min + width, MAX_K)
    argv = ["sweep", "--k-min", str(k_min), "--k-max", str(k_max), "--format", fmt]
    code, text = _run_twice(argv + _flags(g, r, d, max_l, candidates))
    if code != 0:
        return
    rows = (json.loads(text)["results"]["rows"] if fmt == "json"
            else list(csv.DictReader(io.StringIO(text))))
    assert [int(row["k"]) for row in rows] == list(range(k_min, k_max + 1))
    if candidates:
        p = derive_params(g, r, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "WORK_BUDGET", BUDGET)
            for row in rows:
                reasons = enumerate_candidates(p, int(row["k"]), max_l=max_l).reasons
                assert ("incomplete" in row["flags"].split(";")) == bool(reasons)
