"""The pruned chain walk against the enumerators it replaced.

`_full_deg_vectors`, `_certificate_deg_vectors`, `_compositions`,
`_box_deg_vectors`, `_twist_vectors`, `_linear_two_step` and `_linear_mixed`
are the former enumerators, kept as reference oracles: the full walk, which
lists every chain of a length and degree whatever its dimension, the walk
pruned by the certificate alone, the rank compositions, the box search that
walks every degree entry over -deg_bound..deg_bound and prunes with the
chain's least possible degree, the twist vectors of each degree vector's
coefficients, the two-step search that tries every twist 2..hk at every r1,
and the mixed search that tries every torsion degree t at every r1.
"""

import hashlib
import json
from contextlib import suppress
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modulirc import classifier, derive_params, enumerate_candidates, expected_dimension
from modulirc.classifier import DESCRIPTOR_COST, WORK_BUDGET, _deg_vectors, _Spent, classify
from modulirc.families import (ExtensionChain, MixedDatum, chain_dimension_excess_certificate,
                               two_step_chain)


def _full_deg_vectors(p, l, hk, charge):
    """(steps, twists) of every chain of length l and degree hk, whatever
    its dimension: the walk before it pruned by the certificate, charging
    what it charged."""
    r, d = p.r, p.d
    charge(l)
    floors = [(j + 1) * (l - 1 - j) for j in range(l)]
    rests = list(accumulate(floors[:0:-1], initial=0))[::-1]
    results = []

    def rec(steps, twists, prefix_r, prefix_d, spare):
        j = len(steps)
        last = j == l - 1
        for rank in (r - prefix_r,) if last else range(1, r - prefix_r - (l - 2 - j)):
            charge(1)
            next_r = prefix_r + rank
            if last:
                lo = hi = d
            else:
                lo = -((spare - rests[j] - next_r * d) // r)
                hi = (next_r * d - floors[j]) // r
            if steps:
                prev_r, prev_d = steps[-1]
                lo = max(lo, prefix_d + prev_d * rank // prev_r + 1)
            for next_d in range(lo, hi + 1):
                charge(1)
                step = steps + ((rank, next_d - prefix_d),)
                if last:
                    charge(DESCRIPTOR_COST)
                    results.append((step, twists))
                    continue
                c = next_r * d - next_d * r
                if j == l - 2:
                    if spare % c == 0:
                        rec(step, twists + (spare // c,), next_r, next_d, 0)
                    continue
                for a in range(1, (spare - rests[j]) // c + 1):
                    rec(step, twists + (a,), next_r, next_d, spare - a * c)

    with suppress(_Spent):
        rec((), (), 0, 0, hk)
    return results


def _certificate_deg_vectors(p, l, hk, charge):
    """The pruned walk before it pruned by the slopes left: the same chains,
    pruned by the certificate alone, charging what it charged."""
    r, d, gm = p.r, p.d, p.g - 1
    charge(l)
    # floors[j]: least value of the coefficient chosen with the (j+1)-th
    # entry; rests[j]: least sum of the a_m*c_m chosen after it
    floors = [(j + 1) * (l - 1 - j) for j in range(l)]
    rests = list(accumulate(floors[:0:-1], initial=0))[::-1]
    # steeps[j]: steep over the splits after the (j+1)-th by their floors,
    # G_m taking the R nearest r/2 among those feasible at split m
    by_floor = []
    for m in range(l - 1):
        big = min(max(r // 2, m + 1), r - l + m + 1)
        by_floor.append(max(0, -(-gm * big * (r - big) // floors[m]) - 1))
    steeps = [max(by_floor[j + 1:], default=0) for j in range(l - 1)]
    results = []

    def rec(steps, twists, prefix_r, prefix_d, spare, placed, pending, e2, e3):
        # placed: the terms of r*cert placed, but for -r_{j+1}*pending of the
        # split before this entry; e2, e3: symmetric sums of the ranks placed
        j = len(steps)
        if j == l - 1:  # the closing entry takes the rank and degree left
            charge(DESCRIPTOR_COST)  # the descriptor this chain becomes
            results.append((steps + ((r - prefix_r, d - prefix_d),), twists))
            return
        last = j == l - 2  # the last split: its twist uses up the spare
        # each entry after this one keeps rank >= 1
        for rank in range(1, r - prefix_r - (l - 2 - j)):
            charge(1)
            next_r = prefix_r + rank
            # floor <= c_j <= spare minus the floors still to place
            lo = -((spare - rests[j] - next_r * d) // r)
            hi = (next_r * d - floors[j]) // r
            if steps:  # the slope must strictly increase
                prev_r, prev_d = steps[-1]
                lo = max(lo, prefix_d + prev_d * rank // prev_r + 1)
            base = placed - rank * pending
            next_e2, next_e3 = e2 + prefix_r * rank, e3 + e2 * rank
            segre = gm * next_r * (r - next_r)
            known = base + gm * next_e3
            # the next entry's rank is at most high_r, and at the last split
            # it is high_r, closing rank and degree
            high_r = r - next_r - (l - 2 - j)
            if last:  # the closing entry has the larger slope, and e3 is known
                hi = min(hi, (d * rank + prefix_d * high_r - 1) // (rank + high_r))
                known += gm * next_e2 * high_r
            chord = gm * (r - 1) * (r - next_r)  # c_j times the chord's G_m/c_m
            for next_d in range(hi, lo - 1, -1):  # c_j ascending
                charge(1)
                c = next_r * d - next_d * r  # >= floors[j] by the window
                e = c - segre
                steep = min(steeps[j], max(0, -(-chord // c) - 1))
                # the bound at twist a is fixed + r*a*slope (r*cert at the last split)
                fixed = known - (rank + (high_r if e >= 0 or last else 1)) * e - r * spare * steep
                slope = e + c * steep
                if e >= 0 and fixed + r * slope > 0:
                    break  # and so is every larger c_j
                top = (spare - rests[j]) // c
                if last and spare % c:
                    continue  # no twist uses up the spare
                low = top if last else 1
                step = steps + ((rank, next_d - prefix_d),)
                for a in range(low, top + 1) if slope >= 0 else range(top, low - 1, -1):
                    if fixed + r * a * slope > 0:
                        break  # and so is every later twist
                    rec(step, twists + (a,), next_r, next_d, spare - a * c,
                        base + (r * a - rank) * e, e, next_e2, next_e3)

    with suppress(_Spent):
        rec((), (), 0, 0, hk, 0, 0, 0, 0)
    return results


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _box_deg_vectors(ranks, d_total, deg_bound, hk_target):
    """Degree vectors with strictly increasing slopes, entries bounded by
    deg_bound, total d_total, and minimal possible chain degree <= hk_target."""
    l = len(ranks)
    results = []

    def min_hk(degs):
        # every pairwise term is >= 1 and carries weight >= j - i
        n = len(degs)
        s = l * (l - 1) // 2 - n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                s += (ranks[i] * degs[j] - ranks[j] * degs[i]) * (j - i)
        return s

    def rec(degs):
        n = len(degs)
        if n == l:
            if sum(degs) == d_total:
                results.append(tuple(degs))
            return
        rem = d_total - sum(degs)
        if abs(rem) > (l - n) * deg_bound:
            return
        for nxt in range(-deg_bound, deg_bound + 1):
            if degs and not degs[-1] * ranks[n] < nxt * ranks[n - 1]:
                continue  # slope must strictly increase
            degs.append(nxt)
            if min_hk(degs) <= hk_target:
                rec(degs)
            degs.pop()

    rec([])
    return results


def _twist_vectors(coeffs, hk):
    """All positive integer vectors a with sum(a_j * coeffs[j]) == hk.

    coeffs are the telescoped per-twist degree coefficients, all >= 1.
    """
    out = []

    def rec(idx, remaining, acc):
        c = coeffs[idx]
        if idx == len(coeffs) - 1:
            if remaining >= c and remaining % c == 0:
                out.append(tuple(acc + [remaining // c]))
            return
        min_rest = sum(coeffs[idx + 1:])
        a = 1
        while a * c + min_rest <= remaining:
            rec(idx + 1, remaining - a * c, acc + [a])
            a += 1

    rec(0, hk, [])
    return out


def _linear_two_step(p, hk):
    """(r1, d1, a) of every two-step datum with twist a >= 2 off the equality case."""
    out = []
    for a in range(2, hk + 1):
        if hk % a != 0:
            continue
        c0 = hk // a
        for r1 in range(1, p.r):
            if (r1 * p.d - c0) % p.r != 0:
                continue
            if c0 == r1 * (p.r - r1) * (p.g - 1):
                continue
            out.append((r1, (r1 * p.d - c0) // p.r, a))
    return out


def _linear_mixed(p, hk):
    """(r1, d1, t) of every mixed datum of degree hk / h."""
    out = []
    for r1 in range(1, p.r):
        t = 1
        while hk - p.r * t - r1 * t > 0:
            if (r1 * p.d + p.r * t - hk) % p.r == 0:
                out.append((r1, (r1 * p.d + p.r * t - hk) // p.r, t))
            t += 1
    return out


def _prefix_coeffs(ranks, degs, d):
    r = sum(ranks)
    return tuple(sum(ranks[:j]) * d - sum(degs[:j]) * r for j in range(1, len(ranks)))


def _reference(p, l, hk, deg_bound):
    """Sorted (steps, twists) of the chains of length l and degree hk, from
    the rank compositions, the box search and the twist vectors."""
    out = []
    for ranks in _compositions(p.r, l):
        for degs in _box_deg_vectors(ranks, p.d, deg_bound, hk):
            for twists in _twist_vectors(_prefix_coeffs(ranks, degs, p.d), hk):
                out.append((tuple(zip(ranks, degs)), twists))
    return sorted(out)


def _walk(p, l, hk):
    # a charge that never runs out
    chains = sorted(_full_deg_vectors(p, l, hk, lambda units: None))
    for steps, twists in chains:
        ranks, degs = zip(*steps)
        coeffs = _prefix_coeffs(ranks, degs, p.d)
        assert min(coeffs) >= 1
        assert sum(a * c for a, c in zip(twists, coeffs)) == hk
    return chains


def _grid(ks):
    for g in (2, 3):
        for r in range(3, 6):
            for d in range(-4, 5):
                p = derive_params(g, r, d)
                for k in ks:
                    for l in (3, 4):
                        yield p, l, p.h * k


def test_window_equals_box_search_at_small_bounds():
    # the box search at a bound finds the chains whose degree entries all
    # lie within it
    for p, l, hk in _grid(range(1, 7)):
        chains = _walk(p, l, hk)
        for deg_bound in range(4):
            boxed = [c for c in chains if all(abs(di) <= deg_bound for _, di in c[0])]
            assert boxed == _reference(p, l, hk, deg_bound)


def test_window_equals_box_search_at_analytic_bound():
    # no degree entry of a chain of degree hk leaves [-bound, bound], so the
    # box search at this bound is exhaustive
    for p, l, hk in _grid(range(1, 7)):
        bound = p.r * abs(p.d) + hk + 1
        assert _walk(p, l, hk) == _reference(p, l, hk, bound)


def test_two_step_divisors_equal_linear_search():
    # the search lists the two-step data of at least the expected dimension
    for g in (2, 3):
        for r in range(2, 6):
            for d in range(-4, 5):
                p = derive_params(g, r, d)
                for k in range(1, 40):
                    found = [(c.datum.steps[0][0], c.datum.steps[0][1], c.datum.twists[0])
                             for c in enumerate_candidates(p, k, max_l=2).descriptors]
                    want = [(r1, d1, a) for r1, d1, a in _linear_two_step(p, p.h * k)
                            if two_step_chain(p, r1, d1, a).dimension
                            >= expected_dimension(p, k)]
                    assert sorted(found) == sorted(want)


def test_mixed_solutions_equal_linear_search():
    shapes = set()
    for g in (2, 3):
        for r in range(2, 6):
            for d in range(-4, 5):
                p = derive_params(g, r, d)
                shapes.add("h = 1" if p.h == 1 else "h = r" if p.h == r else "1 < h < r")
                for k in range(1, 40):
                    search = enumerate_candidates(p, k, max_l=2, include_mixed=True)
                    found = [(c.datum.r1, c.datum.d1, c.datum.t) for c in search.descriptors
                             if isinstance(c.datum, MixedDatum)]
                    assert sorted(found) == sorted(_linear_mixed(p, p.h * k))
    assert shapes == {"h = 1", "1 < h < r", "h = r"}


def test_budget_boundary(monkeypatch):
    # at exactly the work a search needs, the budget cuts nothing; one unit
    # less refuses only the last charge, so the search names the budget and
    # loses at most the family that charge was for.  It loses one whenever
    # the last charge is a descriptor's: always when the search ends with
    # two-step families (max_l 2) or mixed ones
    def search(budget):
        monkeypatch.setattr(classifier, "WORK_BUDGET", budget)
        return enumerate_candidates(p, k, max_l=max_l, include_mixed=mixed)

    lost = {"two-step": 0, "mixed": 0, "chain": 0, "none": 0}
    for g in (2, 3):
        for r in range(2, 6):
            for d in range(-3, 4):
                p = derive_params(g, r, d)
                for k in (1, 2, 4, 9):
                    for max_l, mixed in ((2, False), (2, True), (4, False), (4, True)):
                        full = search(WORK_BUDGET)
                        assert full.work <= WORK_BUDGET
                        if full.work == 0:
                            continue
                        reasons = full.reasons
                        exact = search(full.work)
                        assert exact == full and exact.reasons == reasons
                        cut = search(full.work - 1)
                        assert cut.reasons == [f"candidate-search-incomplete: work budget "
                                               f"of {full.work - 1} units spent", *reasons]
                        missing = set(full.descriptors) - set(cut.descriptors)
                        assert set(cut.descriptors) <= set(full.descriptors)
                        assert len(missing) == len(full.descriptors) - len(cut.descriptors)
                        has_mixed = any(isinstance(c.datum, MixedDatum)
                                        for c in full.descriptors)
                        if max_l == 2 or has_mixed:
                            assert len(missing) == 1
                        assert len(missing) <= 1
                        if missing:
                            datum = missing.pop().datum
                            lost["mixed" if isinstance(datum, MixedDatum)
                                 else "chain" if datum.length > 2 else "two-step"] += 1
                        else:
                            lost["none"] += 1
    assert all(lost.values()), lost


def _charged(walk, p, l, hk):
    """The sorted chains of `walk` and the units it charged, with no budget."""
    spent = 0

    def charge(units):
        nonlocal spent
        spent += units

    return sorted(walk(p, l, hk, charge)), spent


def _check_slopes_left(p, l, hk):
    # pruning by the slopes left drops no chain and charges no more
    before, before_work = _charged(_certificate_deg_vectors, p, l, hk)
    pruned, work = _charged(_deg_vectors, p, l, hk)
    assert pruned == before, (p, l, hk)
    assert work <= before_work, (p, l, hk)
    return pruned, work, before_work


def _check_pruned_walk(p, l, hk):
    # the pruned walk lists exactly the full walk's chains whose family has
    # at least the expected dimension, and charges no more than the full walk
    # or the walk pruned by the certificate alone
    full, full_work = _charged(_full_deg_vectors, p, l, hk)
    pruned, work, _ = _check_slopes_left(p, l, hk)
    want = []
    for steps, twists in full:
        chain = ExtensionChain(params=p, steps=steps, twists=twists)
        if chain.dimension >= expected_dimension(p, chain.degree):
            want.append((steps, twists))
    assert pruned == want, (p, l, hk)
    assert work <= full_work, (p, l, hk)
    return len(full), len(want)


def test_pruned_walk_lists_the_components_of_the_full_walk():
    # every residue of d mod r, so each gcd class h = gcd(r, d) occurs
    listed = dropped = 0
    for g in range(2, 6):
        for r in range(3, 7):
            for d in range(r):
                p = derive_params(g, r, d)
                for k in (1, 2, 3, 4, 6, 9, 13, 19, 30):
                    for l in range(3, min(r, 5) + 1):
                        chains, kept = _check_pruned_walk(p, l, p.h * k)
                        listed += kept
                        dropped += chains - kept
    assert listed and dropped


def test_slopes_left_against_the_certificate_walk_on_large_inputs():
    # inputs too large for the full walk: the same chains, and the units of
    # both walks (at l = 3 the closing entry's bound was already in place)
    units = {}
    for g, r, d, k, l in ((2, 6, 0, 100, 4), (2, 6, 0, 100, 5), (2, 8, 0, 30, 5),
                          (2, 8, 0, 30, 6), (2, 5, -5, 8, 3), (2, 5, -5, 8, 4)):
        p = derive_params(g, r, d)
        _, work, before_work = _check_slopes_left(p, l, p.h * k)
        units[g, r, d, k, l] = before_work, work
    assert units == {(2, 6, 0, 100, 4): (108_364, 17_377), (2, 6, 0, 100, 5): (356_062, 2_172),
                     (2, 8, 0, 30, 5): (136_203, 13_266), (2, 8, 0, 30, 6): (72_899, 1_815),
                     (2, 5, -5, 8, 3): (1_085, 1_085), (2, 5, -5, 8, 4): (215, 48)}


@settings(max_examples=150, deadline=None)
@given(g=st.integers(2, 7), r=st.integers(3, 7), d=st.integers(-30, 30),
       k=st.integers(1, 24), l=st.integers(3, 5))
def test_pruned_walk_property(g, r, d, k, l):
    p = derive_params(g, r, d)
    _check_pruned_walk(p, min(l, r), p.h * k)


def test_search_lists_only_families_that_can_be_components():
    # with mixed families, NOT_COMPONENT counts only them; the totals keep
    # all five kinds and count the descriptors listed
    kinds = {kind.value for kind in classifier.Kind}
    for g in (2, 3):
        for r in range(2, 6):
            for d in range(-3, 4):
                p = derive_params(g, r, d)
                for k in (1, 4, 9):
                    for mixed in (False, True):
                        report = classify(p, k, include_candidates=True,
                                          include_mixed=mixed, max_l=4)
                        counts = {kind: 0 for kind in kinds}
                        for desc in report.descriptors:
                            counts[desc.kind.value] += 1
                            if not isinstance(desc.datum, MixedDatum):
                                assert desc.dimension >= desc.expected_dim
                        totals = report.to_dict()["totals"]
                        assert set(totals) == kinds | {"EXPECTED_DIM_COMPONENTS"}
                        assert {kind: totals[kind] for kind in kinds} == counts
                        assert counts["NOT_COMPONENT"] == sum(
                            isinstance(desc.datum, MixedDatum) for desc in report.descriptors)


# (g, r, d, k, max_l) -> units charged, descriptors listed and the first 16
# hex digits of the SHA-256 of their data as JSON.  The charges decide what a
# search cut by the budget lists, so a refactor of the walk keeps them unit
# for unit; (2, 12, 0, 40, 5) spends the budget.
_PINNED_SEARCHES = {
    (2, 6, 0, 100, 6): (60_337, 748, "3289d6057d20ac24"),
    (2, 12, 0, 40, 5): (1_000_009, 17_646, "aadf286d6903d13c"),
    (2, 5, -5, 8, 4): (1_233, 21, "0d4769f5974ee632"),
    (2, 4, 0, 200, 4): (1_298, 0, "4f53cda18c2baa0c"),
}


@pytest.mark.parametrize("inputs", list(_PINNED_SEARCHES))
def test_search_charges_are_pinned(inputs):
    g, r, d, k, max_l = inputs
    search = enumerate_candidates(derive_params(g, r, d), k, max_l=max_l)
    data = json.dumps([desc.datum.to_dict() for desc in search.descriptors])
    digest = hashlib.sha256(data.encode()).hexdigest()[:16]
    assert (search.work, len(search.descriptors), digest) == _PINNED_SEARCHES[inputs]


# (g, r, d, k, max_l) -> units charged, and the reasons the search names.
# Pruned by the certificate alone, both searches spent the budget; they list
# the same candidates as then (the digests of _PINNED_SEARCHES' format).
_COMPLETED_SEARCHES = {
    (3, 4, 1, 10**4, 4): (790_486, 1_389, "66b20fd6583bafe8", []),
    (3, 1000, 1, 1000, 5): (6_721, 15, "da13943b7bdda036", [
        "candidate-search-incomplete: max_l=5 below longest feasible chain length 18"]),
}


@pytest.mark.parametrize("inputs", list(_COMPLETED_SEARCHES))
def test_slopes_left_complete_searches_that_spent_the_budget(inputs):
    g, r, d, k, max_l = inputs
    search = enumerate_candidates(derive_params(g, r, d), k, max_l=max_l)
    data = json.dumps([desc.datum.to_dict() for desc in search.descriptors])
    digest = hashlib.sha256(data.encode()).hexdigest()[:16]
    got = (search.work, len(search.descriptors), digest, search.reasons)
    assert got == _COMPLETED_SEARCHES[inputs]


def test_expected_dimension_chain_outside_the_paper_count():
    # the smallest listed chain of exactly the expected dimension (cert 0):
    # an OBSTRUCTED_CANDIDATE of length 3 that the paper's count of
    # expected-dimension components, h = 2 here, leaves out; the full walk
    # finds it as the only chain of length 3 and degree hk = 4
    p = derive_params(2, 4, 2)
    report = classify(p, 2, include_candidates=True)
    chain = (((1, 0), (2, 1), (1, 1)), (1, 1))
    found = [desc for desc in report.descriptors if isinstance(desc.datum, ExtensionChain)
             and (desc.datum.steps, desc.datum.twists) == chain]
    assert len(found) == 1
    desc = found[0]
    assert desc.kind is classifier.Kind.OBSTRUCTED_CANDIDATE
    assert desc.dimension == desc.expected_dim == 23
    assert chain_dimension_excess_certificate(desc.datum) == 0
    assert report.to_dict()["totals"]["EXPECTED_DIM_COMPONENTS"] == p.h == 2
    assert sorted(_full_deg_vectors(p, 3, p.h * 2, lambda units: None)) == [chain]
