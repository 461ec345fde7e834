"""Decision procedure for the components of the space of degree-k rational
curves in the moduli space.

Given (g, r, d, k) this lists the h unobstructed components, the obstructed
components of expected dimension (constructive test), and optionally the
obstructed candidate families, those of at least the expected dimension
(two-step with twist >= 2 and longer chains, exhaustive within a fixed work
budget), and the mixed families, each labeled with its proof status.
"""

from contextlib import suppress
from enum import Enum
from itertools import accumulate
from math import comb, isqrt

from .params import (MAX_K, ConsistencyError, ModuliParams, ParameterError, Record,
                     _check_max_l, expected_dimension, solve_dioph)
from .families import ExtensionChain, MixedDatum, TorsionDatum, two_step_chain
from .segre import _thm_b_tests, segre_bound


class Kind(Enum):
    UNOBSTRUCTED_EXT = "UNOBSTRUCTED_EXT"
    UNOBSTRUCTED_TORSION = "UNOBSTRUCTED_TORSION"
    OBSTRUCTED_EXPECTED = "OBSTRUCTED_EXPECTED"
    OBSTRUCTED_CANDIDATE = "OBSTRUCTED_CANDIDATE"
    NOT_COMPONENT = "NOT_COMPONENT"


class GenericImage(Enum):
    GENERIC = "GENERIC"
    NON_GENERIC = "NON_GENERIC"
    UNKNOWN = "UNKNOWN"


class Status(Enum):
    PROVED_COMPONENT = "PROVED_COMPONENT"
    PROVED_NOT_COMPONENT = "PROVED_NOT_COMPONENT"
    CANDIDATE = "CANDIDATE"


_KIND_ORDER = {k: i for i, k in enumerate(Kind)}

_UNOBSTRUCTED = (Kind.UNOBSTRUCTED_EXT, Kind.UNOBSTRUCTED_TORSION)

# (generic image, status) of each kind; `status` makes one exception
_LABELS = {
    Kind.UNOBSTRUCTED_EXT: (GenericImage.GENERIC, Status.PROVED_COMPONENT),
    Kind.UNOBSTRUCTED_TORSION: (GenericImage.GENERIC, Status.PROVED_COMPONENT),
    Kind.OBSTRUCTED_EXPECTED: (GenericImage.GENERIC, Status.PROVED_COMPONENT),
    Kind.OBSTRUCTED_CANDIDATE: (GenericImage.NON_GENERIC, Status.CANDIDATE),
    Kind.NOT_COMPONENT: (GenericImage.UNKNOWN, Status.PROVED_NOT_COMPONENT),
}


class ComponentDescriptor(Record):
    """One family at degree k.  Its kind, dimension and expected dimension
    are computed from datum and k, and its labels from kind and datum."""

    datum: object  # ExtensionChain | TorsionDatum | MixedDatum
    k: int

    def __post_init__(self):
        datum, k = self.datum, self.k
        if datum.degree != k:
            raise ConsistencyError(
                f"{type(datum).__name__} has degree {datum.degree}, not k = {k}")
        dim, exp = datum.dimension, expected_dimension(datum.params, k)
        if datum.balanced:
            if dim != exp:
                raise ConsistencyError("twist-1 family does not have the expected dimension")
            kind = (Kind.UNOBSTRUCTED_TORSION if isinstance(datum, TorsionDatum)
                    else Kind.UNOBSTRUCTED_EXT)
        elif dim < exp:
            kind = Kind.NOT_COMPONENT
        elif isinstance(datum, MixedDatum):
            raise ConsistencyError("mixed family is not below the expected dimension")
        elif dim == exp and isinstance(datum, ExtensionChain) and datum.length == 2:
            kind = Kind.OBSTRUCTED_EXPECTED
        else:
            kind = Kind.OBSTRUCTED_CANDIDATE
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "expected_dim", exp)

    @property
    def obstructed(self):
        return not (self.kind in _UNOBSTRUCTED or isinstance(self.datum, MixedDatum))

    @property
    def generic_image(self):
        return _LABELS[self.kind][0]

    @property
    def status(self):
        # a candidate has dim >= expected and special image bundles;
        # componenthood is proved only at rank 2 (every chain is two-step
        # there) and only when d - 2*d1 < g - 1; only a chain is a candidate
        p = self.datum.params
        if (self.kind is Kind.OBSTRUCTED_CANDIDATE and p.r == 2
                and p.d - 2 * self.datum.steps[0][1] < p.g - 1):
            return Status.PROVED_COMPONENT
        return _LABELS[self.kind][1]

    def to_dict(self):
        return {
            "kind": self.kind.value,
            "datum": self.datum.to_dict(),
            "k": self.k,
            "dimension": self.dimension,
            "expectedDim": self.expected_dim,
            "obstructed": self.obstructed,
            "genericImage": self.generic_image.value,
            "status": self.status.value,
        }


def _datum_sort_key(datum):
    if isinstance(datum, TorsionDatum):
        return (0, (datum.t, datum.a))
    if isinstance(datum, ExtensionChain):
        return (datum.length, datum.steps + datum.twists)
    return (1, (datum.r1, datum.d1, datum.t))


def _sort_key(desc):
    return (_KIND_ORDER[desc.kind],) + _datum_sort_key(desc.datum)


class ThmBRow(Record):
    """Cross-check of the two readings of the divisibility criterion for an
    obstructed expected-dimension component at a given r1."""

    r1: int
    divisor: int            # r1*(r-r1)*(g-1)
    divides_k: bool         # literal reading: divisor | k
    constructive: bool      # integer d1 with r1*d - r*d1 = divisor and a >= 2 with hk = a*divisor

    @property
    def agree(self):
        return self.divides_k == self.constructive

    def to_dict(self):
        return {
            "r1": self.r1,
            "divisor": self.divisor,
            "dividesK": self.divides_k,
            "constructive": self.constructive,
            "agree": self.agree,
        }


def _check_k(k):
    """The degree domain of every enumerator and of `classify`."""
    if not 1 <= k <= MAX_K:
        raise ParameterError(f"k must lie in [1, {MAX_K}]")


# The work budget of one candidate search, in units; a descriptor takes about
# 50 times the time of a window value of `_deg_vectors`, and far more memory.
WORK_BUDGET = 10**6
DESCRIPTOR_COST = 50


class _Spent(Exception):
    """Raised by each charge once the work is past WORK_BUDGET."""


def enumerate_unobstructed(p, k):
    """The h unobstructed components of degree k (one per Diophantine
    solution); all have exactly the expected dimension."""
    _check_k(k)
    out = []
    for r1, d1 in solve_dioph(p, k):
        if r1 > 0:
            datum = two_step_chain(p, r1, d1, 1)
        else:
            # x = 0 solves d_bar*0 - r_bar*y = k, so r_bar | k and t = k/r_bar
            datum = TorsionDatum(params=p, t=k // p.r_bar, a=1)
        out.append(ComponentDescriptor(datum=datum, k=k))
    out.sort(key=_sort_key)
    return out


def enumerate_obstructed_expected(p, k):
    """Obstructed components of exactly the expected dimension, and the
    per-r1 cross-check of the two readings of the divisibility criterion
    (`segre._thm_b_tests`)."""
    _check_k(k)
    out, rows = [], []
    for r1, divisor, step, low in _thm_b_tests(p):
        constructive = low is not None and k >= low and k % step == 0
        if constructive:
            d1 = (r1 * p.d - divisor) // p.r
            desc = ComponentDescriptor(datum=two_step_chain(p, r1, d1, k // step), k=k)
            if desc.kind is not Kind.OBSTRUCTED_EXPECTED:
                raise ConsistencyError(
                    "equality-case family does not have expected dimension")
            out.append(desc)
        rows.append(ThmBRow(r1=r1, divisor=divisor, divides_k=k % divisor == 0,
                            constructive=constructive))
    # no sort needed: ascending r1 is already _sort_key order
    return out, rows


def _deg_vectors(p, l, hk, charge):
    """(steps, twists) of every chain of length l >= 3 and degree hk whose
    family has at least the expected dimension: ranks summing to r, degrees
    summing to d with strictly increasing slopes, and certificate <= 0.

    The walk picks, entry by entry, the rank r_j, then the prefix degree D_j,
    then the twist a_j.  Prefix rank R_j and prefix degree D_j give the
    telescoped coefficient c_j = R_j*d - D_j*r, a sum of j*(l-j) pairwise
    terms r_i*d_m - r_m*d_i (i <= j < m), each >= 1, and the chain's degree
    is the sum of the a_j*c_j.  So each D_j lies in a finite window of the
    spare degree hk minus the a_i*c_i placed, and the last twist is the one
    value that uses up the spare: the walk is complete by construction.

    It prunes with the split form of the certificate.  With
    e_j = c_j - (g-1)*R_j*(r - R_j), the prefix's excess over the Segre
    bound, and e3 the third elementary symmetric polynomial of the ranks,
    r*cert = sum_j (r*a_j - r_j - r_{j+1})*e_j + (g-1)*e3, and the family has
    at least the expected dimension exactly when cert <= 0.  Each weight
    r*a_j - r_j - r_{j+1} is >= 1 at l >= 3, so a split m not yet placed
    lowers r*cert only when e_m < 0, and then by at most
    r*a_m*(G_m - c_m) = r*a_m*c_m*(G_m/c_m - 1) for any
    G_m >= (g-1)*R_m*(r - R_m).  Here c_m is at least floors[m] and, c being
    concave in R, at least the chord c_j*(r - R_m)/(r - R_j) from the split j
    just placed; and the a_m*c_m of the splits not yet placed sum to the
    spare.  So together they lower r*cert by at most r*spare*steep, steep
    being the largest ceil(G_m/c_m) - 1 >= 0 that those bounds allow.  A node
    is pruned once the terms placed, the least the pending -r_{j+1}*e_j can
    be, that bound and (g-1)*e3 of the ranks placed sum to > 0.  That sum is
    linear in the twist, so the twist loop runs toward larger sums and stops
    at the first pruned twist; at a = 1 and e_j >= 0 it grows with c_j, so
    the window runs toward larger c_j and stops there too.  At the last split
    the sum is r*cert itself.

    It charges l units for its tables, one per window tried and per value
    visited, and DESCRIPTOR_COST per chain; when the budget runs out, it
    returns the chains found so far (or raises, if it ran out before the
    walk)."""
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


class CandidateSearch(Record):
    descriptors: tuple
    max_l: int
    longest_l: int  # no chain of degree k is longer than this
    work: int  # units charged; past WORK_BUDGET when the budget ran out

    @property
    def reasons(self):
        """Why the search may have missed families; empty when it is exhaustive."""
        out = []
        if self.work > WORK_BUDGET:
            out.append(f"candidate-search-incomplete: work budget of {WORK_BUDGET} units spent")
        if self.max_l < self.longest_l:
            out.append(f"candidate-search-incomplete: max_l={self.max_l} "
                       f"below longest feasible chain length {self.longest_l}")
        return out


def enumerate_candidates(p, k, max_l=3, include_mixed=False):
    """Exhaustively enumerate the obstructed families of degree k that can be
    components, those of at least the expected dimension: two-step data with
    twist >= 2 and chains of length 3..max_l; and, optionally, the mixed
    families, which all fall below it.  The result names the reasons the
    search may be incomplete: the work budget running out, or max_l below the
    longest chain."""
    _check_k(k)
    _check_max_l(max_l)
    hk = p.h * k
    out, work = [], 0

    def charge(units):
        nonlocal work
        work += units
        if work > WORK_BUDGET:
            raise _Spent

    # a chain of length l has l ranks summing to r and hk >= C(l+1, 3): every
    # pairwise term r_i*d_j - r_j*d_i is >= 1 and carries weight >= j - i
    longest_l = max(l for l in range(1, p.r + 1) if comb(l + 1, 3) <= hk)
    with suppress(_Spent):  # the search keeps what it found
        # two-step, twist a >= 2: h divides r1*d - r*d1, so hk = a*(r1*d - r*d1)
        # asks a | k and (r1, d1) solving the degree equation at k/a.  By law
        # (c) the family is below the expected dimension when hk/a is above
        # the Segre bound; the equality case is routed to
        # enumerate_obstructed_expected instead
        small = [q for q in range(1, isqrt(k) + 1) if k % q == 0]
        for a in sorted({*small, *(k // q for q in small)} - {1}):
            for r1, d1 in solve_dioph(p, k // a):
                if r1 >= 1 and hk // a < segre_bound(p, r1):
                    charge(DESCRIPTOR_COST)
                    out.append(ComponentDescriptor(datum=two_step_chain(p, r1, d1, a), k=k))

        # chains of length >= 3 with certificate <= 0, charged by the walk
        for l in range(3, min(max_l, longest_l) + 1):
            for steps, twists in _deg_vectors(p, l, hk, charge):
                chain = ExtensionChain(params=p, steps=steps, twists=twists)
                out.append(ComponentDescriptor(datum=chain, k=k))

        if include_mixed:
            # a mixed family of degree k is a solution (r1, y) at k, r1 >= 1, with
            # d1 = y + t; its slopes increase exactly when (r + r1)*t < hk
            for r1, y in solve_dioph(p, k):
                for t in range(1, -(-hk // (p.r + r1)) if r1 >= 1 else 1):
                    charge(DESCRIPTOR_COST)
                    datum = MixedDatum(params=p, r1=r1, d1=y + t, t=t)
                    out.append(ComponentDescriptor(datum=datum, k=k))

    out.sort(key=_sort_key)
    return CandidateSearch(descriptors=tuple(out), max_l=max_l, longest_l=longest_l, work=work)


class ClassificationReport(Record):
    params: ModuliParams
    k: int
    descriptors: list
    thm_b: list
    candidate_search: CandidateSearch | None = None

    @property
    def totals(self):
        counts = {kind.value: 0 for kind in Kind}
        for desc in self.descriptors:
            counts[desc.kind.value] += 1
        counts["EXPECTED_DIM_COMPONENTS"] = (
            counts["UNOBSTRUCTED_EXT"] + counts["UNOBSTRUCTED_TORSION"]
            + counts["OBSTRUCTED_EXPECTED"])
        return counts

    @property
    def warnings(self):
        out = [f"divisibility-reading-disagreement: r1={row.r1} literal test "
               f"{'passes' if row.divides_k else 'fails'} but constructive "
               f"test {'passes' if row.constructive else 'fails'}; "
               "constructive test is authoritative"
               for row in self.thm_b if not row.agree]
        if self.candidate_search is not None:
            out += self.candidate_search.reasons
        return out

    def to_dict(self, descriptors=list):
        """The report as JSON data.  `descriptors` is given the descriptors'
        dicts as an iterator: `iter` builds each only when it is read."""
        data = {
            "params": {
                "g": self.params.g, "r": self.params.r, "d": self.params.d,
                "h": self.params.h, "rBar": self.params.r_bar,
                "dBar": self.params.d_bar, "dimM": self.params.dim_m,
                "fanoIndex": self.params.fano_index,
            },
            "k": self.k,
            "totals": self.totals,
            "descriptors": descriptors(d.to_dict() for d in self.descriptors),
            "thmB": [row.to_dict() for row in self.thm_b],
            "warnings": self.warnings,
        }
        if self.candidate_search is not None:
            data["candidateSearch"] = {"maxL": self.candidate_search.max_l,
                                       "incomplete": bool(self.candidate_search.reasons)}
        return data


def classify(p, k, include_candidates=False, include_mixed=False, max_l=3):
    """Full classification at degree k.  Merges the unobstructed and
    obstructed-expected enumerations, optionally the candidate sweep, and
    reports the divisibility cross-check with any discrepancies flagged.
    It rejects a k or max_l out of range, whether or not the search runs."""
    _check_k(k)
    _check_max_l(max_l)
    descriptors = enumerate_unobstructed(p, k)
    expected, rows = enumerate_obstructed_expected(p, k)
    descriptors += expected
    search = None
    if include_candidates:
        search = enumerate_candidates(p, k, max_l=max_l, include_mixed=include_mixed)
        descriptors += search.descriptors
    # already in _sort_key order: each enumerator sorts its own list, and
    # their kinds occupy disjoint, increasing ranges of _KIND_ORDER
    return ClassificationReport(params=p, k=k, descriptors=descriptors,
                                thm_b=rows, candidate_search=search)
