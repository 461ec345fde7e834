"""The window chain search against the degree-box search it replaced.

`_box_deg_vectors` and `_linear_two_step` are the former enumerators, kept
as reference oracles: the box search walks every entry over
-deg_bound..deg_bound and prunes with the chain's least possible degree, and
the two-step search tries every twist 2..hk.
"""

from modulirc import derive_params, enumerate_candidates
from modulirc.classifier import _compositions, _deg_vectors


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


def _prefix_coeffs(ranks, degs, d):
    r = sum(ranks)
    return tuple(sum(ranks[:j]) * d - sum(degs[:j]) * r for j in range(1, len(ranks)))


def _window(ranks, d, hk, deg_bound):
    clipped = []
    pairs = _deg_vectors(ranks, d, hk, deg_bound, clipped)
    for degs, coeffs in pairs:
        assert coeffs == _prefix_coeffs(ranks, degs, d)
        assert min(coeffs) >= 1 and sum(coeffs) <= hk
    return [degs for degs, _ in pairs], bool(clipped)


def _rank_compositions(r_values, l_values):
    for r in r_values:
        for l in l_values:
            yield from _compositions(r, l)


def test_window_equals_box_search_at_small_bounds():
    clips = {"lost a vector": 0, "lost none": 0}
    for g in (2, 3):
        for d in range(-4, 5):
            for k in range(1, 7):
                for ranks in _rank_compositions(range(3, 6), (3, 4)):
                    hk = derive_params(g, sum(ranks), d).h * k
                    full, full_clipped = _window(ranks, d, hk, 10**9)
                    assert not full_clipped
                    for deg_bound in range(4):
                        degs, clipped = _window(ranks, d, hk, deg_bound)
                        assert degs == _box_deg_vectors(ranks, d, deg_bound, hk)
                        # a search the bound did not clip misses nothing
                        assert clipped or degs == full
                        if clipped:
                            clips["lost a vector" if degs != full else "lost none"] += 1
    # a clip that loses nothing cut a prefix with no completion; the floors
    # c_j >= j*(l-j) leave fewer of those than c_j >= 1 did (954 then)
    assert clips == {"lost a vector": 532, "lost none": 462}


def test_window_equals_box_search_at_analytic_bound():
    for g in (2, 3):
        for d in range(-4, 5):
            for k in range(1, 4):
                for ranks in _rank_compositions(range(3, 6), (3, 4)):
                    r = sum(ranks)
                    hk = derive_params(g, r, d).h * k
                    bound = r * abs(d) + hk + 1
                    degs, clipped = _window(ranks, d, hk, bound)
                    assert not clipped
                    assert degs == _box_deg_vectors(ranks, d, bound, hk)


def test_two_step_divisors_equal_linear_search():
    for g in (2, 3):
        for r in range(2, 6):
            for d in range(-4, 5):
                p = derive_params(g, r, d)
                for k in range(1, 40):
                    found = [(c.datum.steps[0][0], c.datum.steps[0][1], c.datum.twists[0])
                             for c in enumerate_candidates(p, k, max_l=2).descriptors]
                    assert sorted(found) == sorted(_linear_two_step(p, p.h * k))
