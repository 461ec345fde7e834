"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact integer arithmetic with zero tolerance.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import contextlib
import io
import json
import sys
import time

from modulirc import (
    ClassificationReport,
    Kind,
    MixedDatum,
    Status,
    TorsionDatum,
    classify,
    derive_params,
    enumerate_candidates,
    enumerate_obstructed_expected,
    enumerate_unobstructed,
    expected_dimension,
    min_connecting_degree,
    mixed_dimension,
    multi_step_degree,
    multi_step_dimension,
    torsion_degree,
    torsion_dimension,
    two_step_chain,
)
from modulirc.classifier import _sort_key
from modulirc.cli import main
from modulirc.oracle import (
    VerificationReport,
    verify_chain_dimension_equivalence,
    verify_claim_inequality,
    verify_degree_telescoping,
    verify_three_term_identities,
)

GRID_G = range(2, 6)
GRID_R = range(2, 7)
GRID_D = range(-6, 7)
GRID_K = range(1, 21)


@contextlib.contextmanager
def _criterion(number, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    assert budget is None or elapsed < budget, (
        f"criterion {number} exceeded {budget}s budget ({elapsed:.1f}s)")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_component_count():
    with _criterion(1, "component-count", budget=5.0):
        for g in GRID_G:
            for r in GRID_R:
                for d in GRID_D:
                    p = derive_params(g, r, d)
                    exp_base = (r * r - 1) * (g - 1)
                    for k in GRID_K:
                        out = enumerate_unobstructed(p, k)
                        assert len(out) == p.h
                        want = 2 * p.h * k + exp_base
                        assert all(desc.dimension == want for desc in out)


def test_criterion_2_expected_dimension_laws():
    with _criterion(2, "expected-dimension-laws", budget=10.0):
        for g in GRID_G:
            for r in GRID_R:
                for d in GRID_D:
                    p = derive_params(g, r, d)
                    # a = 1 two-step families sit at expected dimension
                    for r1 in range(1, r):
                        for d1 in GRID_D:
                            if r1 * d - r * d1 <= 0:
                                continue
                            chain = two_step_chain(p, r1, d1, 1)
                            assert multi_step_dimension(chain) == \
                                expected_dimension(p, multi_step_degree(chain))
                            # mixed families are strictly below expected
                            for t in range(1, 4):
                                md = MixedDatum(params=p, r1=r1,
                                                d1=d1 - t, t=t)
                                km, dim = mixed_dimension(p, md)
                                assert dim < expected_dimension(p, km)
                    # torsion: a = 1 at expected dimension, a >= 2 strictly
                    # below, matching the exact law dim = dimM + hk + rt
                    for t in range(1, 5):
                        for a in range(1, 4):
                            td = TorsionDatum(params=p, t=t, a=a)
                            k = torsion_degree(p, td)
                            dim = torsion_dimension(p, td)
                            if a == 1:
                                assert dim == expected_dimension(p, k)
                            else:
                                assert dim < expected_dimension(p, k)
                                assert dim == p.dim_m + p.h * k + r * t


def _two_step_a_ge_2(p, k):
    """Every two-step datum (r1, d1, a) with a >= 2 and total degree k."""
    hk = p.h * k
    out = []
    for r1 in range(1, p.r):
        for a in range(2, hk + 1):
            if hk % a:
                continue
            c = hk // a  # c = r1*d - r*d1 must be positive
            num = r1 * p.d - c
            if num % p.r:
                continue
            out.append((r1, num // p.r, a))
    return out


def test_criterion_3_obstructed_expected_characterization():
    with _criterion(3, "obstructed-expected-characterization", budget=30.0):
        for g in GRID_G:
            for r in GRID_R:
                for d in GRID_D:
                    p = derive_params(g, r, d)
                    for k in GRID_K:
                        exp = expected_dimension(p, k)
                        for r1, d1, a in _two_step_a_ge_2(p, k):
                            dim = multi_step_dimension(two_step_chain(p, r1, d1, a))
                            lhs = r1 * d - r * d1
                            eq_val = r1 * (r - r1) * (g - 1)
                            assert (dim == exp) == (lhs == eq_val)
                            assert (dim > exp) == (lhs < eq_val)
        # anchor: (g=2, r=2, d=1, k=2) has exactly one such component, dim 7
        p = derive_params(2, 2, 1)
        out, _ = enumerate_obstructed_expected(p, 2)
        assert len(out) == 1 and out[0].dimension == 7


def test_criterion_4_rank_two_labels():
    with _criterion(4, "rank-two-label-consistency", budget=60.0):
        for g in range(2, 7):
            for d in range(-5, 6):
                p = derive_params(g, 2, d)
                for k in GRID_K:
                    cands = enumerate_candidates(p, k, max_l=2).descriptors
                    expected, _ = enumerate_obstructed_expected(p, k)
                    by_datum = {}
                    for desc in list(cands) + list(expected):
                        dd = desc.to_dict()["datum"]
                        if dd["type"] == "chain" and len(dd["steps"]) == 2 \
                                and dd["twists"][0] >= 2:
                            key = (dd["steps"][0][1], dd["twists"][0])
                            by_datum[key] = desc
                    for (r1, d1, a) in _two_step_a_ge_2(p, k):
                        desc = by_datum.pop((d1, a))
                        c = d - 2 * d1
                        if c < g - 1:
                            # strict case: proved extra component
                            assert desc.status is Status.PROVED_COMPONENT
                            assert desc.kind is Kind.OBSTRUCTED_CANDIDATE
                            assert desc.dimension > desc.expected_dim
                        elif c == g - 1:
                            assert desc.kind is Kind.OBSTRUCTED_EXPECTED
                            assert desc.dimension == desc.expected_dim
                        else:
                            assert desc.status is Status.PROVED_NOT_COMPONENT
                            assert desc.dimension < desc.expected_dim
                    assert not by_datum
        # for d = 1 the equality case occurs only when g is even
        for g in range(2, 7):
            seen = any(enumerate_obstructed_expected(derive_params(g, 2, 1), k)[0]
                       for k in GRID_K)
            assert seen == (g % 2 == 0)


def test_criterion_5_polynomial_identities():
    with _criterion(5, "polynomial-identities", budget=5.0):
        printed, corrected = verify_three_term_identities(trials=10**4, seed=0)
        assert corrected.failures == 0 and corrected.trials == 10**4
        assert printed.failures >= 1
        telescoping = verify_degree_telescoping(trials=10**4, seed=0)
        assert telescoping.failures == 0 and telescoping.trials == 10**4
        # the documented concrete counterexample to the printed form
        r, d, g = (1, 2, 3), (5, 1, 2), 2
        A = lambda i, k: r[i] * d[k] - r[k] * d[i] - r[i] * r[k] * (g - 1)
        rhs = r[1] * A(0, 2) - r[0] * r[1] * r[2] * (g - 1)
        assert r[2] * A(0, 1) - r[0] * A(1, 2) != rhs


def test_criterion_6_claim_inequality():
    with _criterion(6, "claim-inequality", budget=30.0):
        report = verify_claim_inequality(max_l=4, rank_bound=3, deg_bound=6,
                                         g_bound=4)
        assert report.failures == 0
        assert report.trials > 0


def test_criterion_7_chain_dimension_equivalence():
    with _criterion(7, "chain-dimension-equivalence", budget=30.0):
        report = verify_chain_dimension_equivalence(
            max_l=4, rank_bound=3, deg_bound=6, twist_bound=3, g_bound=4)
        assert report.failures == 0
        assert report.trials > 0


def test_criterion_8_connectivity():
    with _criterion(8, "connectivity", budget=5.0):
        res = min_connecting_degree(derive_params(2, 2, 0))
        assert res.derived_k == 1 == res.paper_k and not res.mismatch
        res = min_connecting_degree(derive_params(2, 2, 1))
        assert res.derived_k == 3 and res.paper_k == 1 and res.mismatch
        buf = io.StringIO()
        assert main(["connect", "--g", "2", "--r", "2", "--d", "1"], buf) == 0
        assert any("mismatch" in w
                   for w in json.loads(buf.getvalue())["warnings"])
        # brute-force confirmation of minimality
        for (g, r, d) in [(2, 2, 0), (2, 2, 1), (2, 3, 1), (3, 3, 2)]:
            p = derive_params(g, r, d)
            res = min_connecting_degree(p)
            for k in range(1, res.derived_k):
                for rp in range(1, r):
                    need = (r * r - 1 - rp * (r - rp)) * (g - 1)
                    assert not ((p.h * k - rp * d) % r == 0
                                and p.h * k >= need)


def test_criterion_9_determinism_and_serialization():
    with _criterion(9, "determinism-and-serialization", budget=30.0):
        commands = [
            ["classify", "--g", "2", "--r", "3", "--d", "1", "--k", "9",
             "--include-candidates", "--format", "json"],
            ["sweep", "--g", "2", "--r", "4", "--d", "2",
             "--k-min", "1", "--k-max", "8"],
            ["verify", "--suite", "identities", "--trials", "2000",
             "--seed", "5"],
            ["segre", "--g", "2", "--r", "3", "--d", "1"],
            ["connect", "--g", "2", "--r", "2", "--d", "1"],
        ]
        for argv in commands:
            a, b = io.StringIO(), io.StringIO()
            assert main(argv, a) == main(argv, b)
            assert a.getvalue() == b.getvalue() != ""
        # JSON round-trip on both report types
        p = derive_params(2, 3, 1)
        report = classify(p, 9, include_candidates=True, include_mixed=True)
        blob = json.loads(json.dumps(report.to_dict()))
        assert ClassificationReport.from_dict(blob).to_dict() == blob
        oracle = verify_degree_telescoping(trials=200, seed=1)
        blob = json.loads(json.dumps(oracle.to_dict()))
        assert VerificationReport.from_dict(blob).to_dict() == blob


def test_classify_output_already_sorted():
    # classify concatenates the enumerators' lists without re-sorting; that
    # is only correct while each list is sorted and their kinds are disjoint,
    # increasing ranges of the kind order.  deg_bound=1 keeps the chain
    # search cheap while still producing chains of length 3.
    for g in GRID_G:
        for r in GRID_R:
            for d in GRID_D:
                p = derive_params(g, r, d)
                for k in GRID_K:
                    descs = classify(p, k, include_candidates=True,
                                     include_mixed=True, deg_bound=1).descriptors
                    assert descs == sorted(descs, key=_sort_key)
