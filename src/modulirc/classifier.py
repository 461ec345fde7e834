"""Decision procedure for the components of the space of degree-k rational
curves in the moduli space.

Given (g, r, d, k) this lists the h unobstructed components, the obstructed
components of expected dimension (constructive test), and optionally an
exhaustive enumeration of obstructed candidate families (two-step with twist
>= 2 and longer chains), each labeled with its proof status.
"""

from dataclasses import dataclass
from enum import Enum

from .params import (ConsistencyError, ModuliParams, ParameterError, derive_params,
                     expected_dimension, solve_dioph)
from .families import (
    ExtensionChain,
    MixedDatum,
    TorsionDatum,
    is_unobstructed_splitting,
    mixed_dimension,
    multi_step_degree,
    multi_step_dimension,
    torsion_degree,
    torsion_dimension,
    two_step_chain,
)


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
_EXPECTED_DIM = _UNOBSTRUCTED + (Kind.OBSTRUCTED_EXPECTED,)

# (generic image, status) of each kind; `status` makes one exception
_LABELS = {
    Kind.UNOBSTRUCTED_EXT: (GenericImage.GENERIC, Status.PROVED_COMPONENT),
    Kind.UNOBSTRUCTED_TORSION: (GenericImage.GENERIC, Status.PROVED_COMPONENT),
    Kind.OBSTRUCTED_EXPECTED: (GenericImage.GENERIC, Status.PROVED_COMPONENT),
    Kind.OBSTRUCTED_CANDIDATE: (GenericImage.NON_GENERIC, Status.CANDIDATE),
    Kind.NOT_COMPONENT: (GenericImage.UNKNOWN, Status.PROVED_NOT_COMPONENT),
}


@dataclass(frozen=True)
class ComponentDescriptor:
    """One family at degree k; its labels are computed from kind and datum."""

    kind: Kind
    datum: object  # ExtensionChain | TorsionDatum | MixedDatum
    k: int
    dimension: int
    expected_dim: int

    def __post_init__(self):
        ok = True
        if self.kind in _EXPECTED_DIM:
            ok = self.dimension == self.expected_dim
        elif self.kind is Kind.NOT_COMPONENT:
            ok = self.dimension < self.expected_dim
        if not ok:
            raise ConsistencyError(
                f"descriptor invariant violated for kind {self.kind.value}")

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
        # there) and only when d - 2*d1 < g - 1
        datum = self.datum
        if (self.kind is Kind.OBSTRUCTED_CANDIDATE
                and isinstance(datum, ExtensionChain) and datum.params.r == 2):
            p = datum.params
            if p.d - 2 * datum.steps[0][1] < p.g - 1:
                return Status.PROVED_COMPONENT
        return _LABELS[self.kind][1]

    def to_dict(self):
        return {
            "kind": self.kind.value,
            "datum": _datum_to_dict(self.datum),
            "k": self.k,
            "dimension": self.dimension,
            "expectedDim": self.expected_dim,
            "obstructed": self.obstructed,
            "genericImage": self.generic_image.value,
            "status": self.status.value,
        }


def _datum_to_dict(datum):
    if isinstance(datum, ExtensionChain):
        return {
            "type": "chain",
            "steps": [[ri, di] for ri, di in datum.steps],
            "twists": list(datum.twists),
        }
    if isinstance(datum, TorsionDatum):
        return {"type": "torsion", "t": datum.t, "a": datum.a}
    if isinstance(datum, MixedDatum):
        return {"type": "mixed", "r1": datum.r1, "d1": datum.d1, "t": datum.t}
    raise ParameterError(f"unsupported datum type {type(datum).__name__}")


def _datum_from_dict(p, data):
    if data["type"] == "chain":
        return ExtensionChain(
            params=p,
            steps=tuple((ri, di) for ri, di in data["steps"]),
            twists=tuple(data["twists"]))
    if data["type"] == "torsion":
        return TorsionDatum(params=p, t=data["t"], a=data["a"])
    if data["type"] == "mixed":
        return MixedDatum(params=p, r1=data["r1"], d1=data["d1"], t=data["t"])
    raise ParameterError(f"unknown datum type {data['type']!r}")


def _datum_sort_key(datum):
    if isinstance(datum, TorsionDatum):
        return (0, (datum.t, datum.a))
    if isinstance(datum, ExtensionChain):
        return (datum.length, datum.steps + datum.twists)
    return (1, (datum.r1, datum.d1, datum.t))


def _sort_key(desc):
    return (_KIND_ORDER[desc.kind],) + _datum_sort_key(desc.datum)


@dataclass(frozen=True)
class ThmBRow:
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


def _describe(p, k, datum, exp):
    """The descriptor of a family of degree k.  Its kind follows from the
    datum's shape and from its dimension against the expected one, exp."""
    if isinstance(datum, MixedDatum):
        degree, dim = mixed_dimension(p, datum)
        kind = Kind.NOT_COMPONENT
    else:
        if isinstance(datum, TorsionDatum):
            degree, dim = torsion_degree(p, datum), torsion_dimension(p, datum)
        else:
            degree, dim = multi_step_degree(datum), multi_step_dimension(datum)
        if is_unobstructed_splitting(datum):
            kind = (Kind.UNOBSTRUCTED_TORSION if isinstance(datum, TorsionDatum)
                    else Kind.UNOBSTRUCTED_EXT)
        elif dim < exp:
            kind = Kind.NOT_COMPONENT
        elif dim == exp and isinstance(datum, ExtensionChain) and datum.length == 2:
            kind = Kind.OBSTRUCTED_EXPECTED
        else:
            kind = Kind.OBSTRUCTED_CANDIDATE
    if degree != k:
        raise ConsistencyError(
            f"{type(datum).__name__} has degree {degree}, not k = {k}")
    return ComponentDescriptor(kind=kind, datum=datum, k=k, dimension=dim,
                               expected_dim=exp)


def enumerate_unobstructed(p, k):
    """The h unobstructed components of degree k (one per Diophantine
    solution); all have exactly the expected dimension."""
    exp = expected_dimension(p, k)
    out = []
    for r1, d1 in solve_dioph(p, k):
        if r1 > 0:
            datum = two_step_chain(p, r1, d1, 1)
        else:
            # k = r_bar * t with t = -d1 * ... : d_bar*0 - r_bar*d1 = k
            datum = TorsionDatum(params=p, t=k // p.r_bar, a=1)
        out.append(_describe(p, k, datum, exp))
    out.sort(key=_sort_key)
    return out


def enumerate_obstructed_expected(p, k):
    """Obstructed components of exactly the expected dimension, and the
    per-r1 cross-check of the two readings of the divisibility criterion.

    At each r1 the constructive test asks for an integer d1 with r1*d - r*d1
    equal to the equality-case value r1*(r-r1)*(g-1), and an integer a >= 2
    with hk = a times that value; when it passes, the two-step family
    (r1, d1, a) is a component.  The literal reading is that value | k.
    """
    exp = expected_dimension(p, k)
    hk = p.h * k
    out, rows = [], []
    for r1 in range(1, p.r):
        divisor = r1 * (p.r - r1) * (p.g - 1)
        r_d1 = r1 * p.d - divisor
        a, rest = divmod(hk, divisor)
        constructive = r_d1 % p.r == 0 and rest == 0 and a >= 2
        if constructive:
            desc = _describe(p, k, two_step_chain(p, r1, r_d1 // p.r, a), exp)
            if desc.kind is not Kind.OBSTRUCTED_EXPECTED:
                raise ConsistencyError(
                    "equality-case family does not have expected dimension")
            out.append(desc)
        rows.append(ThmBRow(r1=r1, divisor=divisor, divides_k=k % divisor == 0,
                            constructive=constructive))
    # no sort needed: ascending r1 is already _sort_key order
    return out, rows


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _deg_vectors(ranks, d_total, deg_bound, hk_target):
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


def _analytic_bound(p, k):
    # chains are exhaustive when deg_bound covers every degree entry that any
    # valid chain of degree k can have
    return p.r * abs(p.d) + p.h * k + 1


@dataclass(frozen=True)
class CandidateSearch:
    descriptors: tuple
    max_l: int
    deg_bound: int
    analytic_bound: int

    @property
    def incomplete(self):
        return self.max_l >= 3 and self.deg_bound < self.analytic_bound


def enumerate_candidates(p, k, max_l=3, deg_bound=None, include_mixed=False):
    """Exhaustively enumerate obstructed families of degree k: two-step data
    with twist >= 2, chains of length 3..max_l, and (optionally) mixed
    families.  The result carries an incompleteness flag when deg_bound is
    below the analytic bound that guarantees exhaustiveness."""
    if max_l < 2:
        raise ParameterError(f"max_l must be >= 2, got {max_l}")
    if deg_bound is None:
        deg_bound = 4 * p.r * p.g
    exp = expected_dimension(p, k)
    hk = p.h * k
    out = []

    # two-step, twist >= 2; the equality case is routed to
    # enumerate_obstructed_expected instead
    for a in range(2, hk + 1):
        if hk % a != 0:
            continue
        c0 = hk // a
        for r1 in range(1, p.r):
            if (r1 * p.d - c0) % p.r != 0:
                continue
            d1 = (r1 * p.d - c0) // p.r
            if c0 == r1 * (p.r - r1) * (p.g - 1):
                continue
            out.append(_describe(p, k, two_step_chain(p, r1, d1, a), exp))

    # chains of length >= 3
    for l in range(3, max_l + 1):
        for ranks in _compositions(p.r, l):
            for degs in _deg_vectors(ranks, p.d, deg_bound, hk):
                prefix_r = prefix_d = 0
                coeffs = []
                for ri, di in zip(ranks[:-1], degs[:-1]):
                    prefix_r += ri
                    prefix_d += di
                    coeffs.append(prefix_r * p.d - prefix_d * p.r)
                if any(c < 1 for c in coeffs):
                    raise ConsistencyError("non-positive telescoped coefficient")
                for twists in _twist_vectors(coeffs, hk):
                    chain = ExtensionChain(params=p, steps=tuple(zip(ranks, degs)),
                                           twists=twists)
                    out.append(_describe(p, k, chain, exp))

    if include_mixed:
        for r1 in range(1, p.r):
            t = 1
            while hk - p.r * t - r1 * t > 0:
                if (r1 * p.d + p.r * t - hk) % p.r == 0:
                    d1 = (r1 * p.d + p.r * t - hk) // p.r
                    datum = MixedDatum(params=p, r1=r1, d1=d1, t=t)
                    out.append(_describe(p, k, datum, exp))
                t += 1

    out.sort(key=_sort_key)
    return CandidateSearch(descriptors=tuple(out), max_l=max_l,
                           deg_bound=deg_bound,
                           analytic_bound=_analytic_bound(p, k))


@dataclass
class ClassificationReport:
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
        search = self.candidate_search
        if search is not None and search.incomplete:
            out.append(f"candidate-search-incomplete: deg_bound={search.deg_bound} "
                       f"below analytic bound {search.analytic_bound}")
        return out

    def to_dict(self):
        data = {
            "params": {
                "g": self.params.g, "r": self.params.r, "d": self.params.d,
                "h": self.params.h, "rBar": self.params.r_bar,
                "dBar": self.params.d_bar, "dimM": self.params.dim_m,
                "fanoIndex": self.params.fano_index,
            },
            "k": self.k,
            "totals": self.totals,
            "descriptors": [d.to_dict() for d in self.descriptors],
            "thmB": [row.to_dict() for row in self.thm_b],
            "warnings": self.warnings,
        }
        if self.candidate_search is not None:
            data["candidateSearch"] = {
                "maxL": self.candidate_search.max_l,
                "degBound": self.candidate_search.deg_bound,
                "analyticBound": self.candidate_search.analytic_bound,
                "incomplete": self.candidate_search.incomplete,
            }
        return data

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict.  Reads only g, r, d, k, each descriptor's
        datum, and the search's maxL and degBound; rebuilds every other
        field from them and raises ParameterError at the first top-level
        key where `data` differs from the rebuilt report."""
        k = data["k"]
        p = derive_params(data["params"]["g"], data["params"]["r"],
                          data["params"]["d"])
        exp = expected_dimension(p, k)
        try:
            descriptors = [_describe(p, k, _datum_from_dict(p, d["datum"]), exp)
                           for d in data["descriptors"]]
        except ConsistencyError as exc:
            raise ParameterError(f"inconsistent datum: {exc}") from exc
        search = None
        if "candidateSearch" in data:
            cs = data["candidateSearch"]
            search = CandidateSearch(
                descriptors=tuple(d for d in descriptors
                                  if d.kind in (Kind.OBSTRUCTED_CANDIDATE,
                                                Kind.NOT_COMPONENT)),
                max_l=cs["maxL"], deg_bound=cs["degBound"],
                analytic_bound=_analytic_bound(p, k))
        report = cls(params=p, k=k, descriptors=descriptors,
                     thm_b=enumerate_obstructed_expected(p, k)[1],
                     candidate_search=search)
        rebuilt, missing = report.to_dict(), object()
        for key in dict.fromkeys([*data, *rebuilt]):
            if data.get(key, missing) != rebuilt.get(key, missing):
                raise ParameterError(
                    f"{key!r} contradicts the value rebuilt from the inputs")
        return report


def classify(p, k, include_candidates=False, include_mixed=False,
             max_l=3, deg_bound=None):
    """Full classification at degree k.  Merges the unobstructed and
    obstructed-expected enumerations, optionally the candidate sweep, and
    reports the divisibility cross-check with any discrepancies flagged."""
    if k < 1:
        raise ParameterError(f"degree must be >= 1, got {k}")
    descriptors = enumerate_unobstructed(p, k)
    expected, rows = enumerate_obstructed_expected(p, k)
    descriptors += expected
    search = None
    if include_candidates:
        search = enumerate_candidates(p, k, max_l=max_l, deg_bound=deg_bound,
                                      include_mixed=include_mixed)
        descriptors += search.descriptors
    # already in _sort_key order: each enumerator sorts its own list, and
    # their kinds occupy disjoint, increasing ranges of _KIND_ORDER
    return ClassificationReport(params=p, k=k, descriptors=descriptors,
                                thm_b=rows, candidate_search=search)
