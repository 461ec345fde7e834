"""The one-pass chain walk against the enumerators it replaced.

`_compositions`, `_box_deg_vectors`, `_twist_vectors`, `_linear_two_step`
and `_linear_mixed` are the former enumerators, kept as reference oracles:
the rank compositions, the box search that walks every degree entry over
-deg_bound..deg_bound and prunes with the chain's least possible degree, the
twist vectors of each degree vector's coefficients, the two-step search that
tries every twist 2..hk at every r1, and the mixed search that tries every
torsion degree t at every r1.
"""

from modulirc import classifier, derive_params, enumerate_candidates
from modulirc.classifier import WORK_BUDGET, _deg_vectors
from modulirc.families import MixedDatum


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
    chains = sorted(_deg_vectors(p, l, hk, lambda units: None))
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
    for g in (2, 3):
        for r in range(2, 6):
            for d in range(-4, 5):
                p = derive_params(g, r, d)
                for k in range(1, 40):
                    found = [(c.datum.steps[0][0], c.datum.steps[0][1], c.datum.twists[0])
                             for c in enumerate_candidates(p, k, max_l=2).descriptors]
                    assert sorted(found) == sorted(_linear_two_step(p, p.h * k))


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
                for k in (1, 4, 9):
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
