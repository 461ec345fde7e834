import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracle_reference as reference
from modulirc import oracle
from modulirc.families import ExtensionChain, chain_dimension_excess_certificate
from modulirc.oracle import (
    COUNTEREXAMPLE_CAP,
    VerificationReport,
    verify_chain_dimension_equivalence,
    verify_claim_inequality,
    verify_component_counts,
    verify_degree_telescoping,
    verify_dimension_laws,
    verify_three_term_identities,
)
from modulirc.params import ParameterError, derive_params, expected_dimension
from modulirc.rng import randint, splitmix64
from oracle_reference import SplitMix64


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


def test_component_count_fault_is_counted_in_loop_order(monkeypatch):
    # a solver that drops its last solution wherever h = gcd(r, d) >= 2 fails
    # exactly those (g, r, d, k), counted and listed in loop order
    real = oracle.solve_dioph
    monkeypatch.setattr(oracle, "solve_dioph",
                        lambda p, k: real(p, k)[:-1] if p.h >= 2 else real(p, k))
    want = [[g, r, d, k] for g in range(2, 6) for r in range(2, 7) for d in range(-6, 7)
            for k in range(1, 21) if math.gcd(r, d) >= 2]
    report = verify_component_counts().to_dict()
    assert (report["trials"], report["failures"]) == (5200, len(want)) == (5200, 2480)
    assert report["counterexamples"] == want[:COUNTEREXAMPLE_CAP]
    assert want[0] == [2, 2, -6, 1]


def test_dimension_law_fault_is_counted_in_loop_order(monkeypatch):
    # two-step chains built at twist 1 whatever their twist a: each then has
    # the expected dimension, so at a >= 2 the law fails where
    # c0 = r1·d - r·d1 exceeds its bound r1·(r - r1)·(g - 1), and its equality
    # case wherever c0 differs from the bound; every other trial passes
    real = oracle.two_step_chain
    monkeypatch.setattr(oracle, "two_step_chain", lambda p, r1, d1, a: real(p, r1, d1, 1))
    want = []
    for g, r, d in itertools.product(range(2, 5), range(2, 5), range(-4, 5)):
        for r1, d1, a in itertools.product(range(1, r), range(-4, 5), range(2, 4)):
            c0, bound = r1 * d - r * d1, r1 * (r - r1) * (g - 1)
            if c0 > 0 and c0 > bound:
                want.append(["almost-nice", g, r, d, r1, d1, a])
            if c0 > 0 and c0 != bound:
                want.append(["almost-nice-eq", g, r, d, r1, d1, a])
    report = verify_dimension_laws().to_dict()
    assert report["trials"] == 4437
    assert report["failures"] == len(want) > COUNTEREXAMPLE_CAP
    assert report["counterexamples"] == want[:COUNTEREXAMPLE_CAP]


def test_report_round_trip():
    # a verify report is reproduced by rerunning its suite with the same seed
    report = verify_degree_telescoping(trials=100, seed=0)
    data = json.loads(json.dumps(report.to_dict()))
    assert verify_degree_telescoping(trials=100, seed=0).to_dict() == data


def test_report_pass_follows_failures():
    report = verify_degree_telescoping(trials=10, seed=0)
    assert report.to_dict() == verify_degree_telescoping(trials=10, seed=0).to_dict()
    assert report.to_dict()["pass"] is True
    failed = VerificationReport(suite=report.suite, trials=report.trials, failures=3,
                                counterexamples=[], notes=report.notes)
    assert failed.to_dict()["pass"] is False


# the array suites against the scalar ones they replaced (oracle_reference)

# -1 and 2**70 lie outside [0, 2**64 - 1]: both generators reduce them mod
# 2**64, and the suites of both versions reject them
SEEDS = (0, -1, 2**63, 2**64 - 1, 2**70)


def _dicts(reports):
    reports = reports if isinstance(reports, tuple) else (reports,)
    return [r.to_dict() for r in reports]


def _outcome(module, suite, trials, seed):
    """The report dicts of a random suite, or the message of the
    ParameterError it raises."""
    try:
        return _dicts(getattr(module, suite)(trials=trials, seed=seed))
    except ParameterError as exc:
        return str(exc)


def _scalar_rows(seed, trials):
    """Each telescoping trial's 18 draws from the scalar generator: its
    length l in 2..6, then 6 ranks in 1..4, 6 degrees in -10..10 and 5
    twists in 1..4."""
    scalar = SplitMix64(seed)
    return [[scalar.randint(2, 6)] + [scalar.randint(1, 4) for _ in range(6)]
            + [scalar.randint(-10, 10) for _ in range(6)]
            + [scalar.randint(1, 4) for _ in range(5)] for _ in range(trials)]


@pytest.mark.parametrize("seed", SEEDS)
def test_splitmix64_blocks_are_the_scalar_stream(seed):
    scalar = SplitMix64(seed)
    stream = [scalar.next_u64() for _ in range(300)]
    assert splitmix64(seed, 0, 300).tolist() == stream
    for cut in (1, 7, 64, 299):
        assert (splitmix64(seed, 0, cut).tolist()
                + splitmix64(seed, cut, 300 - cut).tolist()) == stream
    scalar = SplitMix64(seed)
    assert (randint(splitmix64(seed, 0, 300), -10, 10).tolist()
            == [scalar.randint(-10, 10) for _ in range(300)])


@pytest.mark.parametrize("block", (40, 1 << 16))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_chains_are_the_scalar_draws(seed, block, monkeypatch):
    # the telescoping suite passes whatever chains it draws, so its report
    # alone would not show a chain drawn from the wrong place in the stream:
    # each trial's row is its 18 scalar draws, however the blocks cut them
    monkeypatch.setattr(oracle, "_BLOCK", block)
    got = []
    for start, rows in oracle._trial_rows(25, seed, *oracle._CHAIN):
        assert start == len(got)
        got += rows.tolist()
    assert got == _scalar_rows(seed, 25)


@pytest.mark.parametrize("block", (40, 1 << 16))
@pytest.mark.parametrize("seed", (0, 2**63))
def test_telescoping_fault_names_the_failing_chains(seed, block, monkeypatch):
    # the pairwise form with the first split's twist counted twice adds
    # a_1·Σ_{j>1} (r_1·d_j - r_j·d_1), which is 0 only where the first step's
    # slope is the chain's; the suite counts the trials where it is not and
    # lists the first of them in trial order, each as its l ranks, l degrees
    # and l - 1 twists
    real = oracle._pairs

    def first_split_twice(l):
        i, j, spans = real(l)
        spans = spans.copy()
        spans[0] *= 2
        return i, j, spans

    monkeypatch.setattr(oracle, "_pairs", first_split_twice)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    want = []
    for l, *row in _scalar_rows(seed, 300):
        ranks, degs, twists = row[:l], row[6:6 + l], row[12:11 + l]
        if ranks[0] * sum(degs) != sum(ranks) * degs[0]:
            want.append(ranks + degs + twists)
    report = verify_degree_telescoping(trials=300, seed=seed).to_dict()
    assert COUNTEREXAMPLE_CAP < report["failures"] == len(want) < 300
    assert report["counterexamples"] == want[:COUNTEREXAMPLE_CAP]


def test_failures_keep_the_smallest_keys_in_order():
    # the counts add up whatever number of pairs each batch offers, and a
    # batch that offers more than the cap is cut to its first pairs
    fails = oracle._Failures()
    fails.add(30, (((2, i), ("b", i)) for i in range(30)))
    fails.add(7, [((3, i), ("c", i)) for i in range(7)])
    fails.add(5, [((1, i), ("a", i)) for i in range(5)])
    report = fails.report("suite", 100, notes="n")
    assert report.failures == 42
    assert report.counterexamples == ([("a", i) for i in range(5)]
                                      + [("b", i) for i in range(5)])
    assert report.to_dict()["pass"] is False


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", (1, 7, 40, 10_000))
@pytest.mark.parametrize("suite", ("verify_three_term_identities",
                                   "verify_degree_telescoping"))
def test_random_suites_match_scalar_oracle(suite, seed, trials):
    assert _outcome(oracle, suite, trials, seed) == _outcome(reference, suite, trials, seed)


@pytest.mark.parametrize("trials", (0, 40))
@pytest.mark.parametrize("seed", (-1, 2**64, 2**70))
@pytest.mark.parametrize("suite", ("verify_three_term_identities",
                                   "verify_degree_telescoping"))
def test_random_suites_reject_seeds_outside_the_stream(suite, seed, trials):
    # SplitMix64 reads a seed mod 2^64, so each of these would draw the
    # trials of another seed; a suite rejects it before its first trial
    with pytest.raises(ParameterError) as exc:
        getattr(oracle, suite)(trials=trials, seed=seed)
    assert str(exc.value) == f"seed must lie in [0, {2**64 - 1}], got {seed}"
    assert splitmix64(seed, 0, 4).tolist() == splitmix64(seed % 2**64, 0, 4).tolist()


# (max_l, deg_bound, rank_bound, twist_bound, g_bound): every value of each
# range at least once, and the defaults
GRID_CASES = ([(3, b, 1 + b % 3, 1 + (b + 1) % 3, 2 + b % 5) for b in range(9)]
              + [(4, b, 1 + b % 3, 3 - b % 3, 6 - b) for b in range(5)]
              + [(5, b, 2, 1 + b, 2 + 2 * b) for b in range(3)]
              + [(4, 6, 3, 3, 4)]
              # many rank tuples share one prefix rank and total rank
              + [(3, 3, 5, 1, 3), (4, 2, 4, 2, 4)])


def _dimension_report(module, max_l, deg_bound, rank_bound, twist_bound, g_bound):
    return module.verify_chain_dimension_equivalence(
        max_l=max_l, rank_bound=rank_bound, deg_bound=deg_bound,
        twist_bound=twist_bound, g_bound=g_bound).to_dict()


def _grid_reports(module, max_l, deg_bound, rank_bound, twist_bound, g_bound):
    claim = module.verify_claim_inequality(
        max_l=max_l, rank_bound=rank_bound, deg_bound=deg_bound, g_bound=g_bound)
    return _dicts(claim) + [_dimension_report(module, max_l, deg_bound, rank_bound,
                                              twist_bound, g_bound)]


@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_suites_match_scalar_oracle(case):
    assert _grid_reports(oracle, *case) == _grid_reports(reference, *case)


@pytest.mark.parametrize("case", [(3, 2, 2, 3, 3), (4, 1, 2, 3, 4), (3, 8, 1, 2, 2)])
def test_small_blocks_match_scalar_oracle(case, monkeypatch):
    # blocks of a few entries split the trials, the degree grid, the twist
    # vectors and the chains of one rank tuple at many places
    monkeypatch.setattr(oracle, "_BLOCK", 8)
    for suite in ("verify_three_term_identities", "verify_degree_telescoping"):
        assert (_dicts(getattr(oracle, suite)(trials=40, seed=2))
                == _dicts(getattr(reference, suite)(trials=40, seed=2)))
    assert _grid_reports(oracle, *case) == _grid_reports(reference, *case)


@pytest.mark.parametrize("block", (8, 1 << 16))
def test_spot_check_failures_match_scalar_oracle(block, monkeypatch):
    # a certificate off by one fails every scalar spot check; both versions
    # count the same failures and list the same counterexamples in order
    real = reference.chain_dimension_excess_certificate
    for module in (oracle, reference):
        monkeypatch.setattr(module, "chain_dimension_excess_certificate",
                            lambda chain: real(chain) + 1)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    case = (4, 1, 2, 2, 3)
    new, old = _grid_reports(oracle, *case), _grid_reports(reference, *case)
    assert new == old
    assert old[1]["failures"] == 50 and len(old[1]["counterexamples"]) == 10


@pytest.mark.parametrize("side, length", [(1, 3), (2, 1), (3, 4), (7, 3)])
def test_product_rows_are_itertools_product(side, length):
    # the rows of any cut of the grid, digit by digit, and their transpose
    # contiguous, one row per entry
    want = list(itertools.product(range(side), repeat=length))
    for cut in (0, 1, len(want) // 3, len(want)):
        head, tail = (oracle._product(side, length, *ends)
                      for ends in ((0, cut), (cut, len(want))))
        assert [tuple(row) for row in head.tolist() + tail.tolist()] == want
        assert head.T.flags.c_contiguous and tail.T.flags.c_contiguous


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("l", (3, 4, 5, 6))
@pytest.mark.parametrize("rank_bound", (1, 2, 3, 4))
def test_slope_walk_keeps_the_rows_of_the_full_mask(l, rank_bound, block, monkeypatch):
    # the suite counts each rank tuple's slope-increasing degree vectors and
    # spot-checks the first two: both against the rows of the tuple's
    # adjacent-slope mask over the whole grid, at every degree bound of 1, 2
    # and 7 whose grid times tuples stays within 10^6 (degree bound 1 always)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    tuples = list(itertools.product(range(1, rank_bound + 1), repeat=l))
    for deg_bound in (1, 2, 7):
        if deg_bound > 1 and len(tuples) * (2 * deg_bound + 1) ** l > 10**6:
            continue
        degs = np.array(list(itertools.product(range(-deg_bound, deg_bound + 1), repeat=l))).T
        counts = oracle._slope_counts(l, rank_bound, deg_bound).tolist()
        assert len(counts) == len(tuples)
        for ranks, count in zip(tuples, counts):
            rk = np.array(ranks)[:, None]
            rows = degs[:, (degs[:-1] * rk[1:] < degs[1:] * rk[:-1]).all(axis=0)].T
            assert count == len(rows)
            assert oracle._first_two(ranks, deg_bound) == rows[:2].tolist()


def test_dimension_suite_frees_each_block(monkeypatch):
    # with the cyclic collector off, a block held by a reference cycle (a
    # self-recursive closure over it, say) stays allocated to the end; the
    # blocks of this grid take about 40 MiB in all, and with the routes
    # reported as disagreeing every one of them is built and evaluated
    for fall_back in (False, True):
        if fall_back:
            monkeypatch.setattr(oracle, "_routes_agree",
                                lambda routes, r: np.zeros(r.shape, bool))
        gc.disable()
        tracemalloc.start()
        try:
            verify_chain_dimension_equivalence(max_l=3, rank_bound=1, deg_bound=60,
                                               twist_bound=4, g_bound=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 16 * 2**20


def _slope_chains(l, rank_bound, deg_bound):
    """(ranks, degree vectors whose slopes strictly increase) for every rank
    tuple of length l, both in the order of itertools.product."""
    side = range(-deg_bound, deg_bound + 1)
    for ranks in itertools.product(range(1, rank_bound + 1), repeat=l):
        yield ranks, [degs for degs in itertools.product(side, repeat=l)
                      if all(degs[k] * ranks[k + 1] < degs[k + 1] * ranks[k]
                             for k in range(l - 1))]


def _dimension_cells(max_l, rank_bound, deg_bound, twist_bound, g_bound):
    """(dim - expected, cert, ranks, twists, g, cell) for every cell of the
    dimension suite in the loop order of the scalar suite, through the
    library formulas."""
    for l in range(3, max_l + 1):
        for ranks, chains in _slope_chains(l, rank_bound, deg_bound):
            for g in range(2, g_bound + 1):
                for twists in itertools.product(range(1, twist_bound + 1), repeat=l - 1):
                    for degs in chains:
                        p = derive_params(g, sum(ranks), sum(degs))
                        chain = ExtensionChain(params=p, steps=tuple(zip(ranks, degs)),
                                               twists=twists)
                        excess = chain.dimension - expected_dimension(p, chain.degree)
                        yield (excess, chain_dimension_excess_certificate(chain),
                               ranks, twists, g, ranks + degs + twists + (g,))


def _with_fault(route, fault):
    def faulty(*args):
        return fault(*(x.copy() if isinstance(x, np.ndarray) else x for x in route(*args)))
    return faulty


def _add_to_first_split(u, s, v, q):
    u[0] += 1
    return u, s, v, q


def _add_to_constant(u, s, v, q):
    return u, s + 1, v, q


def _add_to_first_genus_split(u, s, v, q):
    v[0] += 1
    return u, s, v, q


def _add_to_split_genus_constant(s, q):
    return s, q + 1


def _take_from_split_constant(s, q):
    return s - 1, q


# a fault in one route, and how it moves dim - expected, cert and r·cert by
# the split form (r times the prefix route's coefficients, whatever their
# fault, and the constant (r_k + r_{k+1})·e_k summed less (g-1)·e₃)
FAULTS = {
    "prefix a_1": ("_prefix_route", _add_to_first_split,
                   lambda excess, cert, split, ranks, twists, g:
                   (excess, cert + twists[0], split + sum(ranks) * twists[0] - ranks[0] - ranks[1])),
    "prefix genus a_1": ("_prefix_route", _add_to_first_genus_split,
                         lambda excess, cert, split, ranks, twists, g:
                         (excess, cert - (g - 1) * twists[0],
                          split - (g - 1) * (sum(ranks) * twists[0] - ranks[0] - ranks[1]))),
    "pairwise constant": ("_pairwise_route", _add_to_constant,
                          lambda excess, cert, split, ranks, twists, g: (excess + 1, cert, split)),
    "split constant": ("_split_route", _take_from_split_constant,
                       lambda excess, cert, split, ranks, twists, g: (excess, cert, split + 1)),
    "split genus constant": ("_split_route", _add_to_split_genus_constant,
                             lambda excess, cert, split, ranks, twists, g:
                             (excess, cert, split + g - 1)),
}


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_route_fault_fails_the_bulk_pass(fault, block, monkeypatch):
    # a fault in any route is reported, with the failing cells counted and
    # listed in the loop order of the scalar suite: a cell fails where the
    # sign of dim - expected disagrees with that of cert or of r·cert
    name, change, moved = FAULTS[fault]
    monkeypatch.setattr(oracle, name, _with_fault(getattr(oracle, name), change))
    monkeypatch.setattr(oracle, "_BLOCK", block)
    case = (4, 2, 2, 2, 3)
    want = []
    for excess, cert, ranks, twists, g, cell in _dimension_cells(*case):
        excess, cert, split = moved(excess, cert, sum(ranks) * cert, ranks, twists, g)
        if (excess >= 0) != (cert <= 0) or (excess >= 0) != (split <= 0):
            want.append(cell)
    report = _dimension_report(oracle, *case)
    assert report["failures"] == len(want) > COUNTEREXAMPLE_CAP
    assert report["counterexamples"] == [list(c) for c in want[:COUNTEREXAMPLE_CAP]]


def _claim_cells(max_l, rank_bound, deg_bound, g_bound, shift, lead=0):
    """(holds, cell) for every chain and genus that meets the claim's split
    hypothesis, in the loop order of the scalar suite, with e₃ moved by
    `shift` and the first degree's coefficient by `lead`: whether
    r·(Σ A_ij·(j-i-1) + lead·d_1) >= (g-1)·(e₃ + shift)."""
    side = range(-deg_bound, deg_bound + 1)
    for l in range(3, max_l + 1):
        for ranks in itertools.product(range(1, rank_bound + 1), repeat=l):
            r = sum(ranks)
            e3 = sum(a * b * c for a, b, c in itertools.combinations(ranks, 3))
            for g in range(2, g_bound + 1):
                for degs in itertools.product(side, repeat=l):
                    d = sum(degs)
                    if any(sum(ranks[:j]) * d - r * sum(degs[:j])
                           < (r - sum(ranks[:j])) * sum(ranks[:j]) * (g - 1)
                           for j in range(1, l)):
                        continue
                    lhs = sum((j - i - 1) * (ranks[i] * degs[j] - ranks[j] * degs[i]
                                             - ranks[i] * ranks[j] * (g - 1))
                              for i, j in itertools.combinations(range(l), 2))
                    yield r * (lhs + lead * degs[0]) >= (g - 1) * (e3 + shift), ranks + degs + (g,)


@pytest.mark.parametrize("block", (8, 1 << 16))
def test_claim_fault_is_counted_in_loop_order(block, monkeypatch):
    # e₃ moved up by a constant fails the claim at chains it holds at with
    # little room; the suite counts them all and lists the first of them in
    # the loop order of the scalar suite.  It counts a row's failing genera
    # as one range, so the second case (max-l 3, rank bound 2, degree bound
    # 4, g up to 6) has chains that fail at several genera, and chains that
    # hold at g = 2 and fail from g = 3 on, the first counterexamples among them
    real = oracle._e3
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for case, shift in (((4, 2, 3, 3), 6), ((3, 2, 4, 6), 2)):
        monkeypatch.setattr(oracle, "_e3", lambda ranks_all, shift=shift: real(ranks_all) + shift)
        cells = list(_claim_cells(*case, shift=shift))
        want = [cell for holds, cell in cells if not holds]
        report = verify_claim_inequality(*case).to_dict()
        assert report["trials"] == len(cells)
        assert report["failures"] == len(want) > COUNTEREXAMPLE_CAP
        assert report["counterexamples"] == [list(c) for c in want[:COUNTEREXAMPLE_CAP]]
    failing = {}
    for cell in want:
        failing.setdefault(cell[:-1], []).append(cell[-1])
    assert any(len(genera) > 1 for genera in failing.values())
    late = [chain for chain, genera in failing.items()
            if min(genera) >= 3 and (True, chain + (2,)) in cells]
    assert late and want[0][:-1] in late


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("shift", (-4, -6))
def test_claim_with_e3_moved_down_fails_nowhere(shift, block, monkeypatch):
    # e₃ moved down leaves the claim more room, so no chain fails; it also
    # takes the inequality's coefficient of g - 1 to 0 at ranks (1, 1, 1)
    # (shift -4) and below 0 (shift -6), where a degree vector's failing
    # genera, if any, would be the large ones.  The suite compares the
    # inequality at each genus, so it counts no failure and divides by nothing
    real = oracle._e3
    monkeypatch.setattr(oracle, "_e3", lambda ranks_all: real(ranks_all) + shift)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for case in ((4, 2, 3, 3), (3, 2, 4, 6)):
        cells = list(_claim_cells(*case, shift=shift))
        report = verify_claim_inequality(*case).to_dict()
        assert report["trials"] == len(cells)
        assert report["failures"] == sum(not holds for holds, _ in cells) == 0
        assert report["counterexamples"] == []


def test_split_form_of_the_certificate():
    # the identity the split route relies on, through the library
    # certificate: r·cert = Σ_k (r·a_k - r_k - r_{k+1})·e_k + (g-1)·e₃
    for excess, cert, ranks, twists, g, cell in _dimension_cells(5, 2, 2, 2, 4):
        degs = cell[len(ranks):2 * len(ranks)]
        r, d = sum(ranks), sum(degs)
        e3 = sum(a * b * c for a, b, c in itertools.combinations(ranks, 3))
        total = (g - 1) * e3
        for k in range(1, len(ranks)):
            big = sum(ranks[:k])
            e = big * d - r * sum(degs[:k]) - (g - 1) * big * (r - big)
            total += (r * twists[k - 1] - ranks[k - 1] - ranks[k]) * e
        assert r * cert == total == -r * excess


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("case", GRID_CASES[:7:2] + GRID_CASES[9::3])
def test_cell_by_cell_fallback_matches_scalar_oracle(case, block, monkeypatch):
    # with the routes reported as disagreeing, no rank tuple is proved and
    # every chain goes through the cell-by-cell evaluation, once, which must
    # give the scalar suite's report
    monkeypatch.setattr(oracle, "_routes_agree",
                        lambda routes, r: np.zeros(r.shape, bool))
    evaluated, real = [], oracle._bad_cells

    def bad_cells(l, twist_bound, g_bound, routes):
        evaluated.append(len(routes[0][1]))
        return real(l, twist_bound, g_bound, routes)

    monkeypatch.setattr(oracle, "_bad_cells", bad_cells)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    assert _dimension_report(oracle, *case) == _dimension_report(reference, *case)
    max_l, deg_bound, rank_bound = case[:3]
    assert sum(evaluated) == sum(len(chains) for l in range(3, max_l + 1)
                                 for _, chains in _slope_chains(l, rank_bound, deg_bound))


def test_agreeing_routes_never_fall_back(monkeypatch):
    def fall_back(*args):
        raise AssertionError("cell-by-cell fallback ran")
    monkeypatch.setattr(oracle, "_bad_cells", fall_back)
    monkeypatch.setattr(oracle, "_hypothesis_tops", fall_back)
    # the last two are CI's bound on rank tuples and its counted proof at
    # degree bound 41
    for case in [(4, 6, 3, 3, 4), (5, 2, 2, 3, 6), (3, 8, 1, 3, 6),
                 (3, 1, 46, 1, 2), (4, 41, 1, 1, 21)]:
        assert _dimension_report(oracle, *case)["pass"]
        assert _claim_report(oracle, *case)["pass"]


def test_dimension_suite_memory_is_flat_in_twist_bound():
    # each chain is counted once, whatever number of twist vectors it stands
    # for, so no array grows with the twist bound (the first call at 20 warms
    # what the first call of a process allocates)
    peaks = {}
    for twist_bound in (20, 20, 200):
        tracemalloc.start()
        try:
            verify_chain_dimension_equivalence(max_l=3, rank_bound=2, deg_bound=6,
                                               twist_bound=twist_bound, g_bound=2)
            peaks[twist_bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] < peaks[20] + 2**16


def test_claim_suite_memory_at_the_bound_on_rank_tuples():
    # the routes run a block of rank tuples at a time, so at the bound on
    # rank tuples only the trial count holds arrays with one row per tuple
    tracemalloc.start()
    try:
        verify_claim_inequality(max_l=3, rank_bound=46, deg_bound=1, g_bound=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def _hypothesis_counts(tuples, deg_bound, g_bound):
    """Per rank tuple, the degree vectors in [-deg_bound, deg_bound]^l and
    genera that meet the claim's hypothesis, enumerated by the rule of the
    scalar suite: c_j >= (r - R_j)·R_j·(g - 1) at every split j."""
    counts, grids = [], {}
    for ranks in tuples:
        if len(ranks) not in grids:
            side = np.arange(-deg_bound, deg_bound + 1)
            grid = np.stack(np.meshgrid(*[side] * len(ranks), indexing="ij"), axis=-1)
            grids[len(ranks)] = np.cumsum(grid.reshape(-1, len(ranks)), axis=1)
        prefix_d, r, count = grids[len(ranks)], sum(ranks), 0
        for g in range(2, g_bound + 1):
            mask = np.ones(len(prefix_d), dtype=bool)
            for j in range(1, len(ranks)):
                big = sum(ranks[:j])
                mask &= (big * prefix_d[:, -1] - r * prefix_d[:, j - 1]
                         >= (r - big) * big * (g - 1))
            count += int(mask.sum())
        counts.append(count)
    return counts


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("l", (3, 4, 5, 6))
@pytest.mark.parametrize("rank_bound", (1, 2, 3, 4))
def test_claim_trials_are_the_hypothesis_chains(l, rank_bound, block, monkeypatch):
    # the claim suite counts each rank tuple's trials by ranges of the last
    # entry; the count must be the enumerated one, at degree bounds 0, 1, 2
    # and 7 and g up to 2 and 6.  Each tuple's enumeration costs its grid, so
    # a spread sample of at most 200 tuples keeps their grids within 10^6
    # entries (2·10^4 at blocks of 8, which cut every tuple's rows at many
    # places)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    limit = 10**6 if block > 8 else 2 * 10**4
    ranks_all = oracle._rank_tuples(l, rank_bound)
    for deg_bound in (0, 1, 2, 7):
        grid = (2 * deg_bound + 1) ** l
        if grid > limit:
            continue
        sample = ranks_all[::max(-(-len(ranks_all) * grid // limit), -(-len(ranks_all) // 200))]
        for g_bound in (2, 6):
            assert (oracle._claim_trials(sample, deg_bound, g_bound - 1).tolist()
                    == _hypothesis_counts(sample.tolist(), deg_bound, g_bound))


def _evaluated_tuples(monkeypatch):
    """The rank tuples whose degree vectors the grid walk hands on for
    evaluation, collected while a suite runs."""
    seen, real = set(), oracle._tuple_rows

    def tuple_rows(ranks_all, deg_bound, keep):
        for item in real(ranks_all, deg_bound, keep):
            seen.update(map(tuple, ranks_all[item[2]].tolist()))
            yield item

    monkeypatch.setattr(oracle, "_tuple_rows", tuple_rows)
    return seen


def _claim_report(module, max_l, deg_bound, rank_bound, twist_bound, g_bound):
    return module.verify_claim_inequality(max_l=max_l, rank_bound=rank_bound,
                                          deg_bound=deg_bound, g_bound=g_bound).to_dict()


def _tuples_with_trials(max_l, rank_bound, deg_bound, g_bound, chosen=None):
    """The rank tuples of lengths 3..max_l, among those `chosen` accepts,
    with at least one trial of the claim."""
    tuples = [ranks for l in range(3, max_l + 1)
              for ranks in itertools.product(range(1, rank_bound + 1), repeat=l)
              if chosen is None or chosen(ranks)]
    return {ranks for ranks, count in zip(tuples, _hypothesis_counts(tuples, deg_bound, g_bound))
            if count}


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("case", GRID_CASES[:7:2] + GRID_CASES[9::3])
def test_claim_fallback_matches_scalar_oracle(case, block, monkeypatch):
    # with the routes reported as disagreeing, every rank tuple with a trial
    # goes through the grid walk's evaluation, which must give the scalar
    # suite's report
    monkeypatch.setattr(oracle, "_routes_agree",
                        lambda routes, r: np.zeros(r.shape, bool))
    evaluated = _evaluated_tuples(monkeypatch)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    assert _claim_report(oracle, *case) == _claim_report(reference, *case)
    max_l, deg_bound, rank_bound, _, g_bound = case
    assert evaluated == _tuples_with_trials(max_l, rank_bound, deg_bound, g_bound)


@pytest.mark.parametrize("block", (8, 1 << 16))
def test_prefix_and_split_faults_unprove_every_claim_tuple(block, monkeypatch):
    # a fault in the prefix or the split route unproves every rank tuple, so
    # every tuple with a trial is evaluated; the evaluation reads only the
    # pairwise route, so the report stays the scalar suite's
    monkeypatch.setattr(oracle, "_BLOCK", block)
    case = (4, 2, 2, 3, 3)
    want = _claim_report(reference, *case)
    for fault in ("prefix a_1", "prefix genus a_1", "split constant", "split genus constant"):
        with monkeypatch.context() as patch:
            name, change, _ = FAULTS[fault]
            patch.setattr(oracle, name, _with_fault(getattr(oracle, name), change))
            evaluated = _evaluated_tuples(patch)
            assert _claim_report(oracle, *case) == want
        assert evaluated == _tuples_with_trials(4, 2, 2, 3)


@pytest.mark.parametrize("block", (8, 1 << 16))
@pytest.mark.parametrize("split, step", [(0, 1), (0, -1), (-1, 1), (-1, -1)])
def test_moved_split_weight_unproves_its_tuples(split, step, monkeypatch, block):
    # a weight r_k + r_{k+1} of the split route moved by one, at the tuples
    # whose first rank is 1, moves their r·s by the prefix route's
    # coefficient u_k (that of d_i is R_k - r·[i <= k] != 0) and their r·q
    # by v_k = R_k·(r - R_k) > 0: exactly those tuples go unproved and are
    # evaluated, and the report stays the scalar suite's
    real = oracle._split_route

    def moved(rk, e3, cert):
        s, q = real(rk, e3, cert)
        u, _, v, _ = cert
        hit = step * (rk[0] == 1)
        return s + hit * u[split], q + hit * v[split]

    monkeypatch.setattr(oracle, "_split_route", moved)
    evaluated = _evaluated_tuples(monkeypatch)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    case = (4, 2, 2, 3, 3)
    for l in (3, 4):
        ranks_all = oracle._rank_tuples(l, 3)
        unproved = oracle._unproved(ranks_all).tolist()
        assert unproved == np.flatnonzero(ranks_all[:, 0] == 1).tolist()
    assert _claim_report(oracle, *case) == _claim_report(reference, *case)
    assert evaluated == _tuples_with_trials(4, 2, 2, 3, chosen=lambda ranks: ranks[0] == 1)


@pytest.mark.parametrize("block", (8, 1 << 16))
def test_claim_coefficient_fault_is_counted_in_loop_order(block, monkeypatch):
    # the pairwise route's s moved down by d_1 moves the claim's coefficient
    # of d_1 up by one and no longer matches the prefix route at any tuple:
    # the suite evaluates every tuple with a trial and lists the chains where
    # r·(Σ A_ij·(j-i-1) + d_1) < (g-1)·e₃
    real = oracle._pairwise_route

    def moved(rk, degs):
        u, s, v, q = real(rk, degs)
        return u, s - degs[0], v, q

    monkeypatch.setattr(oracle, "_pairwise_route", moved)
    evaluated = _evaluated_tuples(monkeypatch)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    case = (4, 2, 3, 3)
    cells = list(_claim_cells(*case, shift=0, lead=1))
    want = [cell for holds, cell in cells if not holds]
    report = verify_claim_inequality(*case).to_dict()
    assert report["trials"] == len(cells)
    assert report["failures"] == len(want) > COUNTEREXAMPLE_CAP
    assert report["counterexamples"] == [list(c) for c in want[:COUNTEREXAMPLE_CAP]]
    assert evaluated == _tuples_with_trials(*case)
