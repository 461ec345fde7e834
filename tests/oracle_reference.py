"""The scalar oracle suites that `modulirc.oracle` replaced by array code.

`SplitMix64` draws one output at a time, and the four suites below walk
their trials, rank tuples, genera and twist vectors one at a time, as the
package did before its suites drew the generator in blocks, evaluated each
rank tuple as one array pass and evaluated each chain of the dimension suite
once for all its twist vectors and genera.  A telescoping trial draws the
fixed row of 18 that the package draws: its length l, then 6 ranks, 6
degrees and 5 twists, of which its chain takes the first l, l and l - 1.
`tests/test_oracle.py` compares every report of both versions with
`to_dict()`.  Of `modulirc.oracle` this module imports only
`COUNTEREXAMPLE_CAP` and `VerificationReport`, so it shares no code with the
suites it checks.
"""

import itertools

import numpy as np

from modulirc.families import ExtensionChain, chain_dimension_excess_certificate
from modulirc.oracle import COUNTEREXAMPLE_CAP, VerificationReport
from modulirc.params import _check_seed, derive_params, expected_dimension

_MASK = (1 << 64) - 1


def _report(suite, trials, failures, counterexamples, notes=""):
    return VerificationReport(
        suite=suite, trials=trials, failures=failures,
        counterexamples=counterexamples[:COUNTEREXAMPLE_CAP], notes=notes)


def _a_term(r, d, g, i, k):
    return r[i] * d[k] - r[k] * d[i] - r[i] * r[k] * (g - 1)


class SplitMix64:
    """Counter-based 64-bit generator (Steele, Lea & Flood's splitmix64)."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        """Uniform-ish integer in [lo, hi] inclusive (modulo reduction; the
        tiny bias is irrelevant for identity testing and keeps the stream
        reproducible)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def verify_three_term_identities(trials=10000, seed=0):
    """Evaluate both displayed three-term relations between the A-terms on
    seeded random triples: ranks in 1..6, degrees in -10..10, genus 2..5.

    Returns (printed, corrected): the relation with the minus sign on the
    left, exactly as displayed, fails in general and the report records its
    counterexamples; the plus-sign relation is a polynomial identity and must
    pass with zero failures.
    """
    _check_seed(seed)
    rng = SplitMix64(seed)
    printed_fail, corrected_fail = 0, 0
    printed_cex, corrected_cex = [], []
    for _ in range(trials):
        r = tuple(rng.randint(1, 6) for _ in range(3))
        d = tuple(rng.randint(-10, 10) for _ in range(3))
        g = rng.randint(2, 5)
        a12 = _a_term(r, d, g, 0, 1)
        a23 = _a_term(r, d, g, 1, 2)
        a13 = _a_term(r, d, g, 0, 2)
        rhs = r[1] * a13 - r[0] * r[1] * r[2] * (g - 1)
        if r[2] * a12 - r[0] * a23 != rhs:
            printed_fail += 1
            if len(printed_cex) < COUNTEREXAMPLE_CAP:
                printed_cex.append(r + d + (g,))
        if r[2] * a12 + r[0] * a23 != rhs:
            corrected_fail += 1
            if len(corrected_cex) < COUNTEREXAMPLE_CAP:
                corrected_cex.append(r + d + (g,))
    printed = _report(
        "three_term_printed", trials, printed_fail, printed_cex,
        notes="minus-sign form as displayed; expected to fail in general")
    corrected = _report(
        "three_term_corrected", trials, corrected_fail, corrected_cex,
        notes="plus-sign form; polynomial identity, must hold exactly")
    return printed, corrected


def verify_degree_telescoping(trials=10000, seed=0):
    """Compare the partial-sum and pairwise forms of the chain degree on
    seeded random chains: length 2..6, ranks in 1..4, degrees in -10..10,
    twists in 1..4.  No slope condition: this is a polynomial identity."""
    _check_seed(seed)
    rng = SplitMix64(seed)
    failures = 0
    cex = []
    for _ in range(trials):
        l = rng.randint(2, 6)
        ranks = [rng.randint(1, 4) for _ in range(6)][:l]
        degs = [rng.randint(-10, 10) for _ in range(6)][:l]
        twists = [rng.randint(1, 4) for _ in range(5)][:l - 1]
        r_tot, d_tot = sum(ranks), sum(degs)
        partial = 0
        pr = pd = 0
        for j in range(l - 1):
            pr += ranks[j]
            pd += degs[j]
            partial += (pr * d_tot - pd * r_tot) * twists[j]
        pairwise = 0
        for i in range(l):
            for j in range(i + 1, l):
                pairwise += (ranks[i] * degs[j] - ranks[j] * degs[i]) * sum(twists[i:j])
        if partial != pairwise:
            failures += 1
            if len(cex) < COUNTEREXAMPLE_CAP:
                cex.append(tuple(ranks) + tuple(degs) + tuple(twists))
    return _report("degree_telescoping", trials, failures, cex,
                   notes="partial-sum vs pairwise chain degree, exact")


def _degree_grid(l, deg_bound):
    side = np.arange(-deg_bound, deg_bound + 1, dtype=np.int64)
    return np.array(list(itertools.product(side, repeat=l)), dtype=np.int64)


def verify_claim_inequality(max_l=4, rank_bound=3, deg_bound=6, g_bound=4):
    """Exhaustive check of the summed inequality over all chains satisfying
    the per-split positivity hypothesis.

    The rational factor (g-1)/r is cleared by multiplying through by the
    total rank; no division anywhere.
    """
    trials = 0
    failures = 0
    cex = []
    for l in range(3, max_l + 1):
        grid = _degree_grid(l, deg_bound)
        prefix_d = np.cumsum(grid, axis=1)
        d_tot = prefix_d[:, -1]
        for ranks in itertools.product(range(1, rank_bound + 1), repeat=l):
            rk = np.array(ranks, dtype=np.int64)
            r_tot = int(rk.sum())
            prefix_r = np.cumsum(rk)
            triple_sum = sum(
                ranks[m] * ranks[n] * ranks[p]
                for m, n, p in itertools.combinations(range(l), 3))
            for g in range(2, g_bound + 1):
                gm = g - 1
                mask = np.ones(len(grid), dtype=bool)
                for j in range(l - 1):
                    rj = int(prefix_r[j])
                    dj = prefix_d[:, j]
                    mask &= (rj * (d_tot - dj) - (r_tot - rj) * dj
                             - (r_tot - rj) * rj * gm) >= 0
                if not mask.any():
                    continue
                sub = grid[mask]
                lhs = np.zeros(len(sub), dtype=np.int64)
                for i in range(l):
                    for j in range(i + 2, l):
                        lhs += (j - i - 1) * (
                            ranks[i] * sub[:, j] - ranks[j] * sub[:, i]
                            - ranks[i] * ranks[j] * gm)
                trials += int(mask.sum())
                bad = r_tot * lhs < gm * triple_sum
                nbad = int(bad.sum())
                if nbad:
                    failures += nbad
                    for row in sub[bad][:COUNTEREXAMPLE_CAP - len(cex)]:
                        cex.append(ranks + tuple(int(x) for x in row) + (g,))
    return _report("claim_inequality", trials, failures, cex,
                   notes="summed inequality over hypothesis-satisfying chains")


def verify_chain_dimension_equivalence(max_l=4, rank_bound=3, deg_bound=6,
                                       twist_bound=3, g_bound=4):
    """For every valid chain in range, the dimension meets or exceeds the
    expected dimension exactly when the signed certificate sum is <= 0.

    Every cell (chain, twist vector and genus) is evaluated: one array pass
    per rank tuple, genus and twist vector over the chains of the tuple.  A
    deterministic sample of 50 chains is pushed through the scalar formulas
    as well to tie the library functions in.
    """
    trials = 0
    failures = 0
    cex = []
    spot_done = 0
    for l in range(3, max_l + 1):
        grid = _degree_grid(l, deg_bound)
        for ranks in itertools.product(range(1, rank_bound + 1), repeat=l):
            r_tot = sum(ranks)
            # strictly increasing slopes, adjacent checks suffice
            mask = np.ones(len(grid), dtype=bool)
            for i in range(l - 1):
                mask &= grid[:, i] * ranks[i + 1] < grid[:, i + 1] * ranks[i]
            if not mask.any():
                continue
            sub = grid[mask]
            pair_terms = {}
            for i in range(l):
                for j in range(i + 1, l):
                    pair_terms[i, j] = ranks[i] * sub[:, j] - ranks[j] * sub[:, i]
            for g in range(2, g_bound + 1):
                gm = g - 1
                dim_m = (r_tot * r_tot - 1) * gm
                for twists in itertools.product(range(1, twist_bound + 1),
                                                repeat=l - 1):
                    hk = np.zeros(len(sub), dtype=np.int64)
                    dim = np.full(len(sub), dim_m, dtype=np.int64)
                    cert = np.zeros(len(sub), dtype=np.int64)
                    for (i, j), t in pair_terms.items():
                        w = sum(twists[i:j])
                        hk += t * w
                        dim += t * (w + 1) + ranks[i] * ranks[j] * (w - 1) * gm
                        cert += (t - ranks[i] * ranks[j] * gm) * (w - 1)
                    excess = dim - (dim_m + 2 * hk)
                    bad = (excess >= 0) != (cert <= 0)
                    trials += len(sub)
                    nbad = int(bad.sum())
                    if nbad:
                        failures += nbad
                        for row in sub[bad][:COUNTEREXAMPLE_CAP - len(cex)]:
                            cex.append(ranks + tuple(int(x) for x in row)
                                       + twists + (g,))
                    # spot-check a few rows through the scalar formulas
                    if spot_done < 50:
                        for row in sub[:2]:
                            p = derive_params(g, r_tot, int(row.sum()))
                            chain = ExtensionChain(
                                params=p,
                                steps=tuple(zip(ranks, (int(x) for x in row))),
                                twists=twists)
                            scalar_dim = chain.dimension
                            scalar_cert = chain_dimension_excess_certificate(chain)
                            want = expected_dimension(p, chain.degree)
                            if ((scalar_dim >= want) != (scalar_cert <= 0)
                                    or scalar_dim - want != -scalar_cert):
                                failures += 1
                                cex.append(ranks + tuple(int(x) for x in row)
                                           + twists + (g,))
                            spot_done += 1
    return _report("chain_dimension_equivalence", trials, failures, cex,
                   notes="dimension-vs-expected sign matches certificate sum")
