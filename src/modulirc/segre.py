"""Segre invariant stratification arithmetic, rational connectivity, and the
divisibility criterion on the Segre bound r1(r-r1)(g-1).

The stratum of bundles with r'-Segre invariant s has codimension
r'(r-r')(g-1) - s while that quantity is positive, and the strata are nested
with step r along the congruence class s = r'd (mod r).
"""

from .params import ConsistencyError, ModuliParams, ParameterError, Record


def segre_bound(p, r_prime):
    """r'(r-r')(g-1): the generic r'-Segre invariant up to its residue mod r."""
    return r_prime * (p.r - r_prime) * (p.g - 1)


def _thm_b_tests(p):
    """(r1, divisor, step, low) per r1: the two readings of the divisibility
    criterion.  The constructive one asks for an integer d1 with
    r1*d - r*d1 = divisor = r1*(r-r1)*(g-1) and an integer a >= 2 with
    hk = a*divisor; then the two-step family (r1, d1, a) is a component.  Its
    congruence r | r1*d - divisor does not depend on k; when it holds, h
    divides divisor, and the test passes exactly at the multiples k of
    step = divisor/h with k >= low = 2*step.  Otherwise it never passes, low
    is None and step is divisor.  The literal reading passes at the
    multiples of divisor, which are multiples of step."""
    for r1 in range(1, p.r):
        divisor = segre_bound(p, r1)
        if (r1 * p.d - divisor) % p.r == 0:
            step = divisor // p.h
            yield r1, divisor, step, 2 * step
        else:
            yield r1, divisor, divisor, None


def sieve_obstructed_expected(p, k_min, k_max):
    """Per k in [k_min, k_max], the number of obstructed components of
    expected dimension and whether the literal and constructive readings of
    the divisibility criterion disagree at some r1: what
    `classifier.enumerate_obstructed_expected` finds at each k, for a range
    at once.  Both readings pass only at multiples of an r1's step
    (`_thm_b_tests`), so each r1 visits only those in the range.
    """
    n = k_max - k_min + 1
    counts, disagree = [0] * n, [False] * n
    for _, divisor, step, low in _thm_b_tests(p):
        for k in range(-(-k_min // step) * step, k_max + 1, step):
            constructive = low is not None and k >= low
            counts[k - k_min] += constructive
            disagree[k - k_min] |= constructive != (k % divisor == 0)
    return counts, disagree


def _check_r_prime(p, r_prime):
    if not 1 <= r_prime <= p.r - 1:
        raise ParameterError(f"r' must lie in [1, r-1], got {r_prime}")


class SegreStratum(Record):
    params: ModuliParams
    r_prime: int
    s: int

    def __post_init__(self):
        bound = segre_bound(self.params, self.r_prime)
        object.__setattr__(self, "codim", max(bound - self.s, 0))
        # inclusion-chain neighbor s + r, or -1 once the stratum is dense
        object.__setattr__(self, "next_s", self.s + self.params.r if self.s < bound else -1)


def generic_segre(p, r_prime):
    """The Segre invariant of the generic bundle: the unique value in
    [r'(r-r')(g-1), r'(r-r')(g-1) + r) congruent to r'd mod r."""
    _check_r_prime(p, r_prime)
    lo = segre_bound(p, r_prime)
    return lo + (r_prime * p.d - lo) % p.r


def stratum_codimension(p, r_prime, s):
    """Stratum of bundles with r'-Segre invariant exactly s.

    s must be positive and congruent to r'd mod r.  Beyond the generic bound
    the stratum is the whole space (codimension 0).
    """
    _check_r_prime(p, r_prime)
    if s <= 0:
        raise ParameterError(f"Segre invariant must be > 0, got {s}")
    if (s - r_prime * p.d) % p.r != 0:
        raise ParameterError(
            f"no stratum: s = {s} is not congruent to r'd = {r_prime * p.d} mod {p.r}")
    return SegreStratum(params=p, r_prime=r_prime, s=s)


class ConnectivityResult(Record):
    params: ModuliParams
    derived_k: int
    paper_k: int
    witness_r_prime: int
    witness_d_prime: int

    @property
    def mismatch(self):
        return self.derived_k != self.paper_k


def min_connecting_degree(p):
    """Minimal degree of a rational curve through two generic points.

    Minimizes, over r' in [1, r-1], the smallest hk >= (r^2-1-r'(r-r'))(g-1)
    with hk congruent to r'd mod r (forced by hk = r'd - rd').  The closed
    form from the source, (r^2/2 - 1)(g-1) for even r and 3(r^2-1)/2*(g-1)
    for odd r, is reported verbatim alongside; any disagreement is flagged,
    never reconciled.
    """
    best = None
    for r_prime in range(1, p.r):
        lo = p.dim_m - segre_bound(p, r_prime)
        hk = lo + (r_prime * p.d - lo) % p.r
        if best is None or hk < best[0]:
            d_prime = (r_prime * p.d - hk) // p.r
            best = (hk, r_prime, d_prime)
    hk, r_prime, d_prime = best
    if hk % p.h != 0:
        # hk = r'd - rd' is always divisible by h
        raise ConsistencyError("h does not divide minimal hk")
    derived = hk // p.h
    if p.r % 2 == 0:
        paper = (p.r * p.r // 2 - 1) * (p.g - 1)
    else:
        paper = 3 * (p.r * p.r - 1) // 2 * (p.g - 1)
    return ConnectivityResult(params=p, derived_k=derived, paper_k=paper,
                              witness_r_prime=r_prime, witness_d_prime=d_prime)
