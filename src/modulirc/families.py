"""Exact degree and dimension formulas for the families of rational curves.

Four shapes of family data appear:

* two-step twisted extensions (rank/degree split (r1, d1) and twist a),
* torsion extensions (divisor degree t and twist a),
* mixed families (a two-step split plus a torsion part of degree t),
* multi-step extension chains of length l >= 2 with twists a_1..a_{l-1}.

Each datum computes its degree k and the dimension of its family once, at
construction, and says whether its generic splitting type is balanced.  All
values are plain integers: a field that is not an integer raises
ParameterError, and a derived value that would not be one ConsistencyError,
instead of rounding.
"""

from .params import ConsistencyError, ModuliParams, ParameterError, Record, _integer


def _set_derived(datum, hk, dimension, **fields):
    """Store k = hk/h and the family's dimension, derived values that are not
    fields (as ModuliParams stores h), with any `fields` in normal form."""
    h = datum.params.h
    if hk % h != 0:
        raise ConsistencyError(f"h does not divide the degree sum of {type(datum).__name__}")
    datum.__dict__.update(fields, degree=hk // h, dimension=dimension)


class ExtensionChain(Record):
    """Successive-extension datum: ranks/degrees of the graded pieces in
    strictly increasing slope order, plus the relative twists between
    consecutive pieces (the last piece is untwisted)."""

    params: ModuliParams
    steps: tuple   # ((rank_1, deg_1), ..., (rank_l, deg_l)), l >= 2
    twists: tuple  # (a_1, ..., a_{l-1}), each >= 1

    def __post_init__(self):
        # one pass over the steps makes them ints and gathers what the
        # checks below need; the checks raise in the order they are listed
        steps, r_sum, d_sum, r_min, slope = [], 0, 0, 1, None
        for a, b in self.steps:
            r_hi, d_hi = _integer(a, "steps"), _integer(b, "steps")
            if steps and slope is None and d_lo * r_hi >= d_hi * r_lo:
                slope = f"slopes must strictly increase: {d_lo}/{r_lo} !< {d_hi}/{r_hi}"
            steps.append((r_hi, d_hi))
            r_sum += r_hi
            d_sum += d_hi
            if r_hi < r_min:
                r_min = r_hi
            r_lo, d_lo = r_hi, d_hi
        steps, p = tuple(steps), self.params
        twists = tuple(_integer(a, "twists") for a in self.twists)
        if len(steps) < 2:
            raise ParameterError("chain needs at least two steps")
        if len(twists) != len(steps) - 1:
            raise ParameterError("need exactly one twist per consecutive pair")
        if min(twists) < 1:
            raise ParameterError("twists must be >= 1")
        if r_min < 1:
            raise ParameterError("step ranks must be >= 1")
        if r_sum != p.r:
            raise ParameterError("step ranks must sum to r")
        if d_sum != p.d:
            raise ParameterError("step degrees must sum to d")
        if slope:
            raise ParameterError(slope)
        # one pass over the pairs i < j, with T_ij = r_i d_j - r_j d_i and
        # w_ij = a_i + ... + a_{j-1}: hk = sum T_ij w_ij, and the dimension is
        # dim M + sum T_ij (w_ij + 1) + (g-1) sum r_i r_j (w_ij - 1); for l = 2
        # these are the two-step degree and dimension
        hk = lin = quad = 0
        for i, (ri, di) in enumerate(steps):
            w = 0
            for (rj, dj), a in zip(steps[i + 1:], twists[i:]):
                w += a
                t = ri * dj - rj * di
                hk += t * w
                lin += t * (w + 1)
                quad += ri * rj * (w - 1)
        _set_derived(self, hk, p.dim_m + lin + quad * (p.g - 1), steps=steps, twists=twists)

    @property
    def length(self):
        return len(self.steps)

    @property
    def balanced(self):
        """Whether the generic splitting type is balanced within 1: only a
        two-step chain with twist 1; longer chains and twists >= 2 are
        obstructed."""
        return self.twists == (1,)

    def to_dict(self):
        return {"type": "chain", "steps": [[ri, di] for ri, di in self.steps],
                "twists": list(self.twists)}


class TorsionDatum(Record):
    """Extension of a torsion sheaf of length t by a twisted rank-r bundle."""

    params: ModuliParams
    t: int
    a: int

    def __post_init__(self):
        t, a = _integer(self.t, "t"), _integer(self.a, "a")
        if t < 1:
            raise ParameterError(f"divisor degree must be >= 1, got {t}")
        if a < 1:
            raise ParameterError(f"twist must be >= 1, got {a}")
        # hk = a*r*t (k = a * r_bar * t), and dim M + hk + r*t: the expected
        # dimension at a = 1, strictly below it at a >= 2
        p = self.params
        hk = a * p.r * t
        _set_derived(self, hk, p.dim_m + hk + p.r * t, t=t, a=a)

    @property
    def balanced(self):
        return self.a == 1

    def to_dict(self):
        return {"type": "torsion", "t": self.t, "a": self.a}


class MixedDatum(Record):
    """Two-step extension combined with a torsion part of degree t >= 1."""

    params: ModuliParams
    r1: int
    d1: int
    t: int

    def __post_init__(self):
        p = self.params
        r1, d1, t = (_integer(self.__dict__[f], f) for f in ("r1", "d1", "t"))
        if not 1 <= r1 <= p.r - 1:
            raise ParameterError(f"r1 must lie in [1, r-1], got {r1}")
        if t < 1:
            raise ParameterError(f"divisor degree must be >= 1, got {t}")
        if d1 * (p.r - r1) >= (p.d - d1 - t) * r1:
            raise ParameterError("sub slope must be strictly below quotient slope")
        # hk = r1*d - r*d1 + r*t and dim M + 2hk - 2*r1*t, always strictly
        # below the expected dimension
        hk = r1 * p.d - p.r * d1 + p.r * t
        _set_derived(self, hk, p.dim_m + 2 * hk - 2 * r1 * t, r1=r1, d1=d1, t=t)

    balanced = False  # a mixed family is always obstructed

    def to_dict(self):
        return {"type": "mixed", "r1": self.r1, "d1": self.d1, "t": self.t}


def chain_dimension_excess_certificate(c):
    """Sum over i<j of A_ij * (w_ij - 1), with A_ij = r_i d_j - r_j d_i - r_i r_j (g-1).

    The chain family has dimension >= expected exactly when this is <= 0;
    in fact dim - expected equals minus this sum.
    """
    gm = c.params.g - 1
    total = 0
    for i, (ri, di) in enumerate(c.steps):
        w = 0
        for j, (rj, dj) in enumerate(c.steps[i + 1:], i + 1):
            w += c.twists[j - 1]
            total += (ri * dj - rj * di - ri * rj * gm) * (w - 1)
    return total


def two_step_chain(p, r1, d1, a):
    """Convenience constructor for a length-2 chain (validates the slope)."""
    return ExtensionChain(params=p, steps=((r1, d1), (p.r - r1, p.d - d1)), twists=(a,))
