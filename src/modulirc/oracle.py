"""Brute-force verification of the algebraic identities and dimension laws.

Each suite evaluates its claim over exhaustive small ranges or seeded random
instances, by routes independent of the formulas it cross-checks.  The two
grid suites prove each rank tuple once, by the same three routes written as
forms in the degrees: the chain-dimension suite covers twist vectors and
genera by linearity, and the claim inequality is the routes' split form at
twists all 1.  A proved tuple's chains are counted, not evaluated; only the
chains of the tuples not proved are evaluated, every one of them, from one
walk of the degree grid.  All comparisons are exact; rational factors are
cleared by cross-multiplication.
"""

import functools
import itertools

import numpy as np

from .params import Record, _check_seed, derive_params, expected_dimension, solve_dioph
from .families import (
    ExtensionChain,
    MixedDatum,
    TorsionDatum,
    chain_dimension_excess_certificate,
    two_step_chain,
)
from .rng import randint, splitmix64

COUNTEREXAMPLE_CAP = 10
# array entries per pass of a suite: blocks of this size keep peak memory
# flat however many trials, grid rows or twist vectors a run asks for
_BLOCK = 1 << 16


class VerificationReport(Record):
    suite: str
    trials: int
    failures: int
    counterexamples: list
    notes: str = ""

    @property
    def passed(self):
        return self.failures == 0

    def to_dict(self):
        return {
            "suiteName": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "counterexamples": [list(c) for c in self.counterexamples],
            "pass": self.passed,
            "notes": self.notes,
        }


def _blocks(n, size):
    """(start, stop) pairs that cover range(n) in order, `size` at a time."""
    size = max(1, size)
    return ((i, min(i + size, n)) for i in range(0, n, size))


class _Failures:
    """A suite's failure count and the COUNTEREXAMPLE_CAP counterexamples of
    smallest key.  A key is the counterexample's place in the loop order of
    the scalar suite (the trial, or the length, rank tuple, genus, twist
    vector and degree vector; the failure count in a scalar suite), so blocks
    may be evaluated in any order.  Keys never tie."""

    def __init__(self):
        self.count = 0
        self.found = []

    def add(self, count, found):
        """Count `count` more failures, the first of which `found` yields as
        (key, counterexample) pairs in the order of their keys."""
        self.count += count
        self.found += itertools.islice(found, COUNTEREXAMPLE_CAP)
        self.found.sort()
        del self.found[COUNTEREXAMPLE_CAP:]

    def report(self, suite, trials, notes):
        return VerificationReport(suite=suite, trials=trials, failures=self.count,
                                  counterexamples=[c for _, c in self.found], notes=notes)


def _a_term(r, d, g, i, k):
    return r[i] * d[k] - r[k] * d[i] - r[i] * r[k] * (g - 1)


# a three-term trial's row, lowest and highest draws: r1, r2, r3, d1, d2, d3 and g
_TRIPLE = ((1, 1, 1, -10, -10, -10, 2), (6, 6, 6, 10, 10, 10, 5))
# a telescoping trial's row: l in 2..6, then 6 ranks in 1..4, 6 degrees in
# -10..10 and 5 twists in 1..4; its chain takes the first l, l and l - 1
_CHAIN = ((2,) + (1,) * 6 + (-10,) * 6 + (1,) * 5, (6,) + (4,) * 6 + (10,) * 6 + (4,) * 5)


def _trial_rows(trials, seed, lo, hi):
    """Seeded random trials as (first trial, rows), block by block: the row
    of trial t holds outputs t·w + 1 ... (t + 1)·w of the stream, w = len(lo),
    with column i drawn in lo[i]..hi[i]."""
    width = len(lo)
    for start, stop in _blocks(trials, _BLOCK // width):
        n = stop - start
        yield start, randint(splitmix64(seed, width * start, width * n).reshape(n, width), lo, hi)


def verify_three_term_identities(trials=10000, seed=0):
    """Evaluate both displayed three-term relations between the A-terms on
    seeded random triples: ranks in 1..6, degrees in -10..10, genus 2..5.

    Returns (printed, corrected): the relation with the minus sign on the
    left, exactly as displayed, fails in general and the report records its
    counterexamples; the plus-sign relation is a polynomial identity and must
    pass with zero failures.
    """
    _check_seed(seed)
    printed, corrected = _Failures(), _Failures()
    for start, draws in _trial_rows(trials, seed, *_TRIPLE):
        r, d, g = draws[:, :3].T, draws[:, 3:6].T, draws[:, 6]
        a12 = _a_term(r, d, g, 0, 1)
        a23 = _a_term(r, d, g, 1, 2)
        a13 = _a_term(r, d, g, 0, 2)
        rhs = r[1] * a13 - r[0] * r[1] * r[2] * (g - 1)
        for fails, lhs in ((printed, r[2] * a12 - r[0] * a23),
                           (corrected, r[2] * a12 + r[0] * a23)):
            bad = np.flatnonzero(lhs != rhs)
            fails.add(len(bad), ((start + i, tuple(draws[i].tolist())) for i in bad.tolist()))
    return (printed.report("three_term_printed", trials,
                           notes="minus-sign form as displayed; expected to fail in general"),
            corrected.report("three_term_corrected", trials,
                             notes="plus-sign form; polynomial identity, must hold exactly"))


def verify_degree_telescoping(trials=10000, seed=0):
    """Compare the partial-sum and pairwise forms of the chain degree on
    seeded random chains: length 2..6, ranks in 1..4, degrees in -10..10,
    twists in 1..4.  No slope condition: this is a polynomial identity."""
    _check_seed(seed)
    fails = _Failures()
    for start, draws in _trial_rows(trials, seed, *_CHAIN):
        for l in range(2, 7):
            # the trials of length l, and the l ranks, l degrees and l - 1 twists of each
            trial = np.flatnonzero(draws[:, 0] == l)
            chains = draws[np.ix_(trial, np.r_[1:1 + l, 7:7 + l, 13:12 + l])]
            ranks, degs, twists = chains[:, :l], chains[:, l:2 * l], chains[:, 2 * l:]
            pr, pd = np.cumsum(ranks, axis=1), np.cumsum(degs, axis=1)
            partial = ((pr[:, :-1] * pd[:, -1:] - pd[:, :-1] * pr[:, -1:])
                       * twists).sum(axis=1)
            # w_ij = a_i + ... + a_{j-1}, the twists of the splits the pair spans
            i, j, spans = _pairs(l)
            pairwise = ((ranks[:, i] * degs[:, j] - ranks[:, j] * degs[:, i])
                        * (twists @ spans)).sum(axis=1)
            bad = np.flatnonzero(partial != pairwise)
            fails.add(len(bad), ((start + trial[b], tuple(chains[b].tolist()))
                                 for b in bad.tolist()))
    return fails.report("degree_telescoping", trials,
                        notes="partial-sum vs pairwise chain degree, exact")


def _product(side, length, start, stop):
    """Rows start..stop-1 of itertools.product(range(side), repeat=length),
    as an int64 array whose transpose, one row per entry, is contiguous."""
    digits = np.empty((length, stop - start), dtype=np.int64)
    rest = np.arange(start, stop, dtype=np.int64)
    for k in range(length - 1, 0, -1):
        # floor division by a number: several times faster than np.divmod,
        # np.remainder or np.unravel_index
        high = rest // side
        np.subtract(rest, high * side, out=digits[k])
        rest = high
    digits[0] = rest
    return digits.T


def _degree_grid(l, deg_bound, start, stop):
    """Rows start..stop-1 of the degree vectors in [-deg_bound, deg_bound]^l,
    in the order of itertools.product."""
    grid = _product(2 * deg_bound + 1, l, start, stop)
    grid -= deg_bound
    return grid


def _rank_tuples(l, rank_bound):
    """Every rank tuple of length l with entries 1..rank_bound, in the order
    of itertools.product, one per row."""
    return _product(rank_bound, l, 0, rank_bound ** l) + 1


def _e3(ranks_all):
    """The third elementary symmetric polynomial of each row's ranks."""
    e1 = e2 = e3 = 0
    for col in ranks_all.T:
        e1, e2, e3 = e1 + col, e2 + e1 * col, e3 + e2 * col
    return e3


def _prefix_sums(degs):
    """The prefix sums of the rows (degrees D_k or ranks R_k), entry by
    entry: np.cumsum along the short axis of a block is several times slower."""
    prefix_d = degs.copy()
    for k in range(1, len(degs)):
        prefix_d[k] += prefix_d[k - 1]
    return prefix_d


def _tuple_rows(ranks_all, deg_bound, keep):
    """The chains of the rank tuples (rows of ranks_all) whose routes are not
    proved to agree (`_unproved`), from one walk of the degree grid in
    blocks of about _BLOCK entries, a few tuples at a time per grid block:
    keep(rk, degs), with rk the tuples' ranks as a (tuples, l, 1) array and
    degs one column per degree vector, gives one row per tuple, positive at
    the vectors it keeps.  Yields (first row index, grid block, ts, rows,
    values, routes) for each block and few tuples that keep some vectors, one
    entry per kept chain, by tuple and then row: its tuple's row in
    ranks_all, its row in the block, keep's value there, and the three
    routes' (u, s, v, q) with one column per chain (`_routes`)."""
    ts = _unproved(ranks_all)
    if not len(ts):
        return
    l = ranks_all.shape[1]
    for start, stop in _blocks((2 * deg_bound + 1) ** l, _BLOCK // l):
        grid = _degree_grid(l, deg_bound, start, stop)
        for t0, t1 in _blocks(len(ts), _BLOCK // len(grid)):
            values = keep(ranks_all[ts[t0:t1], :, None], grid.T)
            i, rows = np.nonzero(values > 0)
            if len(rows):
                yield start, grid, ts[t0 + i], rows, values[i, rows], _routes(
                    ranks_all[ts[t0 + i]].T, grid[rows].T)


def _hypothesis_tops(rk, degs):
    """The largest g - 1 at which each degree vector (column of degs) meets
    the claim's hypothesis c_j = R_j·d - r·D_j >= (g-1)·(r - R_j)·R_j at
    every split j, for each rank tuple of rk: min_j c_j // ((r - R_j)·R_j)."""
    prefix_r, prefix_d = np.cumsum(rk, axis=1), _prefix_sums(degs)
    big_r, r = prefix_r[:, :-1], prefix_r[:, -1:]
    return ((big_r * prefix_d[-1] - r * prefix_d[:-1]) // ((r - big_r) * big_r)).min(axis=1)


def _claim_trials(ranks_all, deg_bound, g_max):
    """The claim's trials for each rank tuple (row of ranks_all): its degree
    vectors in [-deg_bound, deg_bound]^l and genera g - 1 = 1..g_max that
    meet the hypothesis.  c_j >= (g-1)·(r - R_j)·R_j reads
    D_l >= ceil(r·D_j/R_j) + (g-1)·(r - R_j), so over the first l - 1
    entries the admissible last entries d_l = D_l - D_{l-1} form one range,
    from the largest of these bounds less D_{l-1}, clipped below at
    -deg_bound, up to deg_bound.  The bounds rise with g, so a vector whose
    range is empty for every tuple of a block is dropped from it."""
    l = ranks_all.shape[1]
    side, rows = 2 * deg_bound + 1, (2 * deg_bound + 1) ** (l - 1)
    size = _BLOCK // (l - 1)  # tuples times vectors per block
    r = ranks_all.sum(axis=1)[:, None]
    big_r = np.cumsum(ranks_all[:, :-1], axis=1).T[:, :, None]
    steep = r - big_r  # one row per split, one column per tuple
    counts = np.zeros(len(ranks_all), dtype=np.int64)
    for start, stop in _blocks(rows, size):
        prefix_d = _prefix_sums(_degree_grid(l - 1, deg_bound, start, stop).T)
        for t0, t1 in _blocks(len(ranks_all), size // (stop - start)):
            # ceil(r·D_j/R_j), in place: a fresh array per step costs page faults
            bound = -r[t0:t1] * prefix_d[:, None]
            bound //= big_r[:, t0:t1]
            np.negative(bound, out=bound)
            room = prefix_d[-1] + deg_bound + 1
            for _ in range(g_max):
                bound += steep[:, t0:t1]
                span = room - bound.max(axis=0)
                counts[t0:t1] += np.clip(span, 0, side).sum(axis=1)
                live = np.flatnonzero((span > 0).any(axis=0))
                if not len(live):
                    break
                bound, room = bound.take(live, axis=2), room.take(live)
    return counts


def verify_claim_inequality(max_l=4, rank_bound=3, deg_bound=6, g_bound=4):
    """Exhaustive check of the summed inequality over all chains satisfying
    the per-split positivity hypothesis.

    The inequality, r·Σ A_ij·(j-i-1) >= (g-1)·e₃ with e₃ the third
    elementary symmetric polynomial of the ranks, is a corollary of the split
    form of the certificate that `verify_chain_dimension_equivalence` checks:
    at twists all 1 the form reads
    r·Σ A_ij·(j-i-1) = Σ_k (r - r_k - r_{k+1})·e_k + (g-1)·e₃, where
    e_k = c_k - (g-1)·R_k·(r - R_k) is >= 0 under the hypothesis.  Each
    weight r - r_k - r_{k+1} is the sum of the other l - 2 >= 1 ranks, so it
    is >= 1.  The rational factor (g-1)/r is cleared by multiplying through
    by the total rank.

    Each rank tuple is proved once, by the dimension suite's routes
    (`_unproved`): where they agree as forms, r times the pairwise
    route at twists all 1, r·Σ A_ij·(j-i-1), equals the split form's right
    side identically, with e_k the prefix route's coefficient of a_k, so no
    chain that meets the hypothesis fails.  A proved tuple's trials, the
    chains and genera that meet the hypothesis, are counted, not evaluated
    (`_claim_trials`).  The chains of a tuple not proved are evaluated from
    the degree grid (`_tuple_rows`), with the sides read from the pairwise
    route: the hypothesis gives each degree vector a largest g - 1
    (`_hypothesis_tops`), and the inequality is compared at each genus up to
    it.
    """
    trials = 0
    fails = _Failures()
    g_max = max(g_bound - 1, 0)  # the largest g - 1 of a trial
    for l in range(3, max_l + 1):
        ranks_all = _rank_tuples(l, rank_bound)
        trials += int(_claim_trials(ranks_all, deg_bound, g_max).sum())
        for start, grid, ts, rows, tops, ((u, s, v, q), _, _) in _tuple_rows(
                ranks_all, deg_bound, _hypothesis_tops):
            # per chain, the pairwise route's Σ_k u_k - s is Σ T_ij·(j-i-1)
            # and Σ_k v_k - q is Σ r_i·r_j·(j-i-1), so the claim reads
            # side >= (g-1)·slack
            ranks = ranks_all[ts]
            r = ranks.sum(axis=1)
            side = r * (u.sum(axis=0) - s)
            slack = r * (v.sum(axis=0) - q) + _e3(ranks)
            # a row is a trial at each g - 1 up to its top
            for g in range(2, min(int(tops.max()), g_max) + 2):
                bad = np.flatnonzero((tops >= g - 1) & (side < (g - 1) * slack)).tolist()
                fails.add(len(bad), (
                    ((l, ts[c], g, start + rows[c]),
                     tuple(ranks[c].tolist() + grid[rows[c]].tolist() + [g]))
                    for c in bad))
    return fails.report("claim_inequality", trials,
                        notes="summed inequality over hypothesis-satisfying chains")


def _scalar_dimension_check(g, ranks, degs, twists):
    """One chain through the library formulas: its dimension meets the
    expected one exactly when its certificate is <= 0, and the two differ by
    the certificate."""
    p = derive_params(g, sum(ranks), sum(degs))
    chain = ExtensionChain(params=p, steps=tuple(zip(ranks, degs)), twists=twists)
    cert = chain_dimension_excess_certificate(chain)
    want = expected_dimension(p, chain.degree)
    return (chain.dimension >= want) == (cert <= 0) and chain.dimension - want == -cert


def _slope_counts(l, rank_bound, deg_bound):
    """The number of degree vectors in [-deg_bound, deg_bound]^l whose slopes
    d_k/r_k strictly increase, for each rank tuple of _rank_tuples(l,
    rank_bound), in its order.  Level by level, for all rank prefixes at
    once: the vectors of a prefix that end in y extend those of the prefix
    one shorter that end in an x with x·r_{k+1} < y·r_k, that is
    x <= ceil(y·r_k/r_{k+1}) - 1, so their number is a prefix sum up to a cut."""
    side = np.arange(-deg_bound, deg_bound + 1)
    ranks = np.arange(1, rank_bound + 1)
    # cut[r_k - 1, r_{k+1} - 1, y + deg_bound]: the number of entries x below
    # y·r_k/r_{k+1}, ceil(y·r_k/r_{k+1}) + deg_bound clipped to the grid's side
    cut = np.clip(-(-side * ranks[:, None, None] // ranks[:, None]) + deg_bound, 0, len(side))
    last = ranks[:, None, None] - 1
    ends = np.ones((rank_bound, len(side)), dtype=np.int64)  # per prefix and last entry
    for _ in range(l - 1):
        below = np.zeros((len(ends), len(side) + 1), dtype=np.int64)
        np.cumsum(ends, axis=1, out=below[:, 1:])
        # a prefix's extensions follow it in order, and its last rank cycles fastest
        ends = below.reshape(-1, rank_bound, len(side) + 1)[:, last, cut].reshape(-1, len(side))
    return ends.sum(axis=1)


def _slopes_increase(rk, degs):
    """For each rank tuple of rk (tuples, l, 1), whether the slopes d_k/r_k
    of each degree vector (column of degs) strictly increase."""
    return (degs[:-1] * rk[:, 1:] < degs[1:] * rk[:, :-1]).all(axis=1)


def _first_two(ranks, deg_bound):
    """The first two degree vectors in [-deg_bound, deg_bound]^l whose slopes
    d_k/r_k strictly increase, in the order of itertools.product (fewer if
    fewer exist).  The least entry after d_k, max(-deg_bound,
    floor(d_k·r_{k+1}/r_k) + 1), grows with d_k, so the least vector with a
    given head takes the least entry at each later step, and the second
    vector raises by one the last entry of the first that can be raised."""
    def least(head):
        degs = list(head)
        for k in range(len(head), len(ranks)):
            degs.append(max(-deg_bound, degs[-1] * ranks[k] // ranks[k - 1] + 1))
        return degs if max(degs) <= deg_bound else None

    first = least([-deg_bound])
    if first is None:
        return []
    for k in range(len(ranks) - 1, -1, -1):
        second = least(first[:k] + [first[k] + 1])
        if second is not None:
            return [first, second]
    return [first]


# The two sides of dim - expected = -cert, for chains given one per column
# by their ranks rk and degrees degs, one row per step.  Both are linear in
# the twists a_k and in g - 1: Σ_k a_k·(u_k - (g-1)·v_k) - (s - (g-1)·q).  A
# route returns (u, s, v, q), u and v with one row per split k, s and q one
# entry per column; u and s are affine in the degrees, and v and q do not
# depend on them.

@functools.cache
def _pairs(l):
    """The pairs i < j of range(l) as two index arrays, and the 0/1 matrix
    with one row per split k and one column per pair, 1 where i <= k < j.
    Cached, since the telescoping suite asks for them once per block and length."""
    i, j = np.triu_indices(l, 1)
    split = np.arange(l - 1)[:, None]
    return i, j, ((i <= split) & (split < j)).astype(np.int64)


def _pairwise_route(rk, degs):
    """expected - dim, summed over the pairs i < j as ExtensionChain sums
    its dimension: with T_ij = r_i·d_j - r_j·d_i and w_ij = a_i + ... + a_{j-1},
    expected - dim = Σ T_ij·(w_ij - 1) - (g-1)·Σ r_i·r_j·(w_ij - 1), and a_k
    lies in w_ij for the pairs that span split k (i <= k < j)."""
    i, j, spans = _pairs(len(rk))
    terms = rk[i] * degs[j] - rk[j] * degs[i]
    products = rk[i] * rk[j]
    return spans @ terms, terms.sum(axis=0), spans @ products, products.sum(axis=0)


def _prefix_route(rk, degs):
    """The certificate from prefix sums R_k, D_k of ranks and degrees: the
    coefficient of a_k is c_k = R_k·d - r·D_k less (g-1)·R_k·(r - R_k), and
    the constant is Σ_m (2R_m - r_m - r)·d_m less (g-1)·(r² - Σ r_m²)/2."""
    prefix_r, prefix_d = _prefix_sums(rk), _prefix_sums(degs)
    big_r, r = prefix_r[:-1], prefix_r[-1]
    u = big_r * prefix_d[-1] - r * prefix_d[:-1]
    s = ((2 * prefix_r - rk - r) * degs).sum(axis=0)
    return u, s, big_r * (r - big_r), (r * r - (rk * rk).sum(axis=0)) // 2


def _split_route(rk, e3, cert):
    """r·s and r·q, the constant of r·cert, by the split form
    r·(s - (g-1)·q) = Σ_k (r_k + r_{k+1})·e_k - (g-1)·e₃ from the prefix
    route's coefficients e_k = u_k - (g-1)·v_k of the twists, e₃ being the
    third elementary symmetric polynomial of the ranks.  The route shares the
    prefix route's coefficients, so it checks that route's constant."""
    u, _, v, _ = cert
    weight = rk[:-1] + rk[1:]
    return (weight * u).sum(axis=0), (weight * v).sum(axis=0) + e3


def _routes_agree(routes, r):
    """Per column (a chain, or a degree vector of a tuple), whether the
    routes' values agree: u, s, v and q of the pairwise route equal the
    prefix route's, and the split route's equal r times them.  Where they
    agree, dim - expected = -cert at every twist vector and genus."""
    return np.vstack([(a == b) & (c == r * b) for a, b, c in zip(*routes)]).all(axis=0)


def _routes(rk, degs):
    """The pairwise, prefix and split routes as (u, s, v, q), at the chains
    given one per column by rk and degs.  The split route is r times the
    prefix route's u and v, with the split form's r·s and r·q."""
    r, cert = rk.sum(axis=0), _prefix_route(rk, degs)
    split_s, split_q = _split_route(rk, _e3(rk.T), cert)
    return _pairwise_route(rk, degs), cert, (r * cert[0], split_s, r * cert[2], split_q)


def _unproved(ranks_all):
    """The rank tuples (rows of ranks_all) whose routes are not proved to
    agree, as an int64 array of row indices, empty for correct code.  The
    routes run once per tuple, at the degree vectors 0, e_1, ..., e_l: being
    affine in the degrees, they are fixed by their values there, so a tuple
    whose routes agree there (`_routes_agree`) is proved at every chain."""
    n, l = ranks_all.shape
    proved = np.ones(n, dtype=bool)
    # the tuples a block at a time, l + 1 columns each, keep the routes'
    # arrays within about _BLOCK entries
    for t0, t1 in _blocks(n, _BLOCK // l ** 3):
        rk = np.repeat(ranks_all[t0:t1].T, l + 1, axis=1)
        degs = np.tile(np.eye(l, l + 1, 1, dtype=np.int64), t1 - t0)
        agree = _routes_agree(_routes(rk, degs), rk.sum(axis=0))
        proved[t0:t1] = agree.reshape(-1, l + 1).all(axis=1)
    return np.flatnonzero(~proved)


def _bad_cells(l, twist_bound, g_bound, routes):
    """Evaluate (dim >= expected) == (cert <= 0) cell by cell from the
    routes' values, expected - dim first and then the certificate by each of
    its routes, one cell per chain (column of the routes' values), twist
    vector and genus.  Yields (g, cells) per block and genus where it fails
    by some route: the failing cells, by twist vector and then chain, one row
    each holding the chain index, the twist vector index and the twist
    vector."""
    for w0, w1 in _blocks(twist_bound ** (l - 1), _BLOCK):
        twists = _product(twist_bound, l - 1, w0, w1) + 1
        for c0, c1 in _blocks(len(routes[0][1]), _BLOCK // (w1 - w0)):
            # one row per twist vector, one column per chain: a route's value
            # at g is twists·u - s - (g-1)·(twists·v - q)
            at = [[twists @ x[:, c0:c1] - y[c0:c1] for x, y in ((u, s), (v, q))]
                  for u, s, v, q in routes]
            for g in range(2, g_bound + 1):
                below, *negative = (lin - (g - 1) * quad <= 0 for lin, quad in at)
                tw, c = np.nonzero(np.logical_or.reduce([below != n for n in negative]))
                if len(c):
                    yield g, np.column_stack((c0 + c, w0 + tw, twists[tw]))


def verify_chain_dimension_equivalence(max_l=4, rank_bound=3, deg_bound=6,
                                       twist_bound=3, g_bound=4):
    """For every valid chain in range, the dimension meets or exceeds the
    expected dimension exactly when the signed certificate sum is <= 0.

    A cell is a chain, a twist vector and a genus.  Both expected - dim and
    the certificate are linear in the twists and in g - 1, so a chain's
    cells are fixed by its values on two routes that share only its ranks
    and degrees: the pairwise A-terms of the dimension formula and the prefix
    sums of the certificate.  A third route takes the prefix route's
    coefficients of the twists, e_k, and gives r·cert with the constant of
    the split form r·cert = Σ_k (r·a_k - r_k - r_{k+1})·e_k + (g-1)·e₃, so it
    checks that route's constant.  The routes are affine in the degrees, so
    they run once per rank tuple, as forms in the degrees
    (`_unproved`).  A tuple whose forms agree coefficient by
    coefficient is proved: dim - expected = -cert holds at every one of its
    chains, twist vectors and genera, so its chains are counted, not
    evaluated, each one passing trial per cell.  The count runs over all rank
    tuples at once by prefix sums (`_slope_counts`).  The chains of the
    tuples whose forms disagree are listed from one walk of the degree grid
    (`_tuple_rows`) and evaluated cell by cell from all three routes
    (`_bad_cells`).  At twists all 1 the split form is the claim inequality,
    which `verify_claim_inequality` proves per rank tuple from these same
    forms; since each weight r·a_k - r_k - r_{k+1} is >= 1 at length >= 3,
    it also shows that a chain of at least the expected dimension has a
    split with e_k < 0.
    A deterministic sample of 50 chains is pushed through the scalar formulas
    as well to tie the library functions in.
    """
    trials = 0
    fails = _Failures()
    spot_done = 0
    for l in range(3, max_l + 1):
        ranks_all = _rank_tuples(l, rank_bound)
        counts = _slope_counts(l, rank_bound, deg_bound)
        trials += int(counts.sum()) * twist_bound ** (l - 1) * (g_bound - 1)
        for start, grid, ts, rows, _, routes in _tuple_rows(ranks_all, deg_bound,
                                                            _slopes_increase):
            for g, cells in _bad_cells(l, twist_bound, g_bound, routes):
                # in the loop order of the scalar suite: tuple, twist vector, chain
                cells = cells[np.argsort(ts[cells[:, 0]], kind="stable")]
                fails.add(len(cells), (
                    ((l, ts[c], g, tw, 0, start + rows[c]),
                     tuple(ranks_all[ts[c]].tolist() + grid[rows[c]].tolist() + twists + [g]))
                    for c, tw, *twists in cells[:COUNTEREXAMPLE_CAP].tolist()))
        # spot-check the first two chains of each rank tuple through the
        # scalar formulas, in the order of the scalar suite, 50 chains in all
        spots = ((t, g, tw, twists) for t in np.flatnonzero(counts).tolist()
                 for g in range(2, g_bound + 1)
                 for tw, twists in enumerate(
                     itertools.product(range(1, twist_bound + 1), repeat=l - 1)))
        for t, g, tw, twists in spots:
            if spot_done >= 50:
                break
            ranks = tuple(ranks_all[t].tolist())
            for pos, degs in enumerate(_first_two(ranks, deg_bound)):
                if not _scalar_dimension_check(g, ranks, degs, twists):
                    fails.add(1, [((l, t, g, tw, 1, pos),
                                   ranks + tuple(degs) + twists + (g,))])
                spot_done += 1
    return fails.report("chain_dimension_equivalence", trials,
                        notes="dimension-vs-expected sign matches certificate sum")


def verify_dimension_laws():
    """Grid check of the dimension laws over g 2..4, r 2..4, degrees d and
    d1 in -4..4, and twists a and t in 1..3.

    (a) twist-1 two-step and torsion families have exactly the expected
    dimension; (b) mixed families fall strictly below it; (c) for twist >= 2
    two-step families, dim >= expected exactly when r1*d - r*d1 is at most
    r1*(r-r1)*(g-1), with equality matching equality; torsion families with
    twist >= 2 fall strictly below.
    """
    trials = 0
    fails = _Failures()

    def fail(*cex):
        fails.add(1, [(fails.count, cex)])

    for g in range(2, 5):
        for r in range(2, 5):
            for d in range(-4, 5):
                p = derive_params(g, r, d)
                for r1 in range(1, r):
                    bound = r1 * (r - r1) * (g - 1)
                    for d1 in range(-4, 5):
                        if r1 * d - r * d1 <= 0:
                            continue
                        for a in range(1, 4):
                            trials += 1
                            chain = two_step_chain(p, r1, d1, a)
                            dim = chain.dimension
                            want = expected_dimension(p, chain.degree)
                            if a == 1:
                                if dim != want:
                                    fail("two-step-a1", g, r, d, r1, d1)
                            else:
                                c0 = r1 * d - r * d1
                                if (dim >= want) != (c0 <= bound):
                                    fail("almost-nice", g, r, d, r1, d1, a)
                                if (dim == want) != (c0 == bound):
                                    fail("almost-nice-eq", g, r, d, r1, d1, a)
                for t in range(1, 4):
                    for a in range(1, 4):
                        trials += 1
                        dim = TorsionDatum(params=p, t=t, a=a).dimension
                        want = expected_dimension(p, p.r_bar * t * a)
                        if a == 1 and dim != want:
                            fail("torsion-a1", g, r, d, t)
                        if a >= 2 and not dim < want:
                            fail("torsion-a2", g, r, d, t, a)
                for r1 in range(1, r):
                    for d1 in range(-4, 5):
                        for t in range(1, 4):
                            if r1 * (d - d1 - t) - (r - r1) * d1 <= 0:
                                continue
                            trials += 1
                            m = MixedDatum(params=p, r1=r1, d1=d1, t=t)
                            if not m.dimension < expected_dimension(p, m.degree):
                                fail("mixed", g, r, d, r1, d1, t)
    return fails.report("dimension_laws", trials,
                        notes="expected-dimension equalities and strict bounds")


def verify_component_counts():
    """Brute-force oracle for the unobstructed component count over g 2..5,
    r 2..6, d in -6..6 and k 1..20.

    Independently scans every residue x in [0, r) for solvability of the
    degree equation and compares the resulting solution list with the
    extended-Euclid solver; the count must equal h everywhere.
    """
    trials = 0
    fails = _Failures()
    for g in range(2, 6):
        for r in range(2, 7):
            for d in range(-6, 7):
                p = derive_params(g, r, d)
                for k in range(1, 21):
                    trials += 1
                    brute = []
                    for x in range(r):
                        if (p.d_bar * x - k) % p.r_bar == 0:
                            brute.append((x, (p.d_bar * x - k) // p.r_bar))
                    fast = solve_dioph(p, k)
                    if brute != fast or len(brute) != p.h:
                        fails.add(1, [(fails.count, (g, r, d, k))])
    return fails.report("component_counts", trials,
                        notes="exhaustive residue scan vs extended-Euclid solver")
