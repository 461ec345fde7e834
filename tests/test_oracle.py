import json

from modulirc.oracle import (
    VerificationReport,
    verify_chain_dimension_equivalence,
    verify_claim_inequality,
    verify_component_counts,
    verify_degree_telescoping,
    verify_dimension_laws,
    verify_three_term_identities,
)
from modulirc.rng import SplitMix64


def test_rng_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = SplitMix64(43)
    assert a.next_u64() != c.next_u64()


def test_rng_randint_range():
    rng = SplitMix64(0)
    vals = [rng.randint(-3, 3) for _ in range(200)]
    assert min(vals) == -3 and max(vals) == 3


class TestThreeTermIdentities:
    def test_printed_fails_corrected_passes(self):
        printed, corrected = verify_three_term_identities(trials=2000, seed=1)
        assert printed.failures > 0
        assert not printed.passed
        assert printed.counterexamples
        assert corrected.failures == 0
        assert corrected.passed

    def test_anchor_instance(self):
        # r=(1,2,3), d=(5,1,2), g=2: corrected identity balances at -38,
        # printed form gives -28 on the left
        r, d, g = (1, 2, 3), (5, 1, 2), 2
        A = lambda i, k: r[i] * d[k] - r[k] * d[i] - r[i] * r[k] * (g - 1)
        assert (A(0, 1), A(1, 2), A(0, 2)) == (-11, -5, -16)
        rhs = r[1] * A(0, 2) - r[0] * r[1] * r[2] * (g - 1)
        assert r[2] * A(0, 1) + r[0] * A(1, 2) == rhs == -38
        assert r[2] * A(0, 1) - r[0] * A(1, 2) == -28 != rhs

    def test_reproducible(self):
        a = verify_three_term_identities(trials=500, seed=9)
        b = verify_three_term_identities(trials=500, seed=9)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


class TestTelescoping:
    def test_passes(self):
        report = verify_degree_telescoping(trials=5000, seed=7)
        assert report.passed and report.failures == 0
        assert report.trials == 5000

    def test_reproducible(self):
        a = verify_degree_telescoping(trials=300, seed=3).to_dict()
        b = verify_degree_telescoping(trials=300, seed=3).to_dict()
        assert a == b


def test_claim_inequality_small_range():
    report = verify_claim_inequality(max_l=3, rank_bound=2, deg_bound=3,
                                     g_bound=3)
    assert report.passed
    assert report.trials > 0


def test_claim_hypothesis_gating():
    # the all-zero degree vector violates the split hypothesis, so it never
    # counts as a trial for l=3, ranks (1,1,1), g=2 with deg_bound=0
    report = verify_claim_inequality(max_l=3, rank_bound=1, deg_bound=0,
                                     g_bound=2)
    assert report.trials == 0


def test_chain_dimension_equivalence_small_range():
    report = verify_chain_dimension_equivalence(max_l=3, rank_bound=2,
                                                deg_bound=3, twist_bound=2,
                                                g_bound=3)
    assert report.passed
    assert report.trials > 0


def test_dimension_laws():
    report = verify_dimension_laws()
    assert report.passed
    assert report.trials > 0


def test_component_counts():
    report = verify_component_counts()
    assert report.passed


def test_report_round_trip():
    # a verify report is reproduced by rerunning its suite with the same seed
    report = verify_degree_telescoping(trials=100, seed=0)
    data = json.loads(json.dumps(report.to_dict()))
    assert verify_degree_telescoping(trials=100, seed=0).to_dict() == data


def test_report_pass_follows_failures():
    report = verify_degree_telescoping(trials=10, seed=0)
    assert report.to_dict() == verify_degree_telescoping(trials=10, seed=0).to_dict()
    assert report.to_dict()["pass"] is True
    failed = VerificationReport(suite=report.suite, trials=report.trials, failures=3)
    assert failed.to_dict()["pass"] is False
