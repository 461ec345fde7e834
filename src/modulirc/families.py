"""Exact degree and dimension formulas for the families of rational curves.

Four shapes of family data appear:

* two-step twisted extensions (rank/degree split (r1, d1) and twist a),
* torsion extensions (divisor degree t and twist a),
* mixed families (a two-step split plus a torsion part of degree t),
* multi-step extension chains of length l >= 2 with twists a_1..a_{l-1}.

All returns are plain integers; any non-integrality raises ConsistencyError
instead of rounding.
"""

from dataclasses import dataclass

from .params import ConsistencyError, ModuliParams, ParameterError


def _check_slope_increasing(r_lo, d_lo, r_hi, d_hi):
    # strict inequality d_lo/r_lo < d_hi/r_hi by cross-multiplication
    return d_lo * r_hi < d_hi * r_lo


@dataclass(frozen=True)
class ExtensionChain:
    """Successive-extension datum: ranks/degrees of the graded pieces in
    strictly increasing slope order, plus the relative twists between
    consecutive pieces (the last piece is untwisted)."""

    params: ModuliParams
    steps: tuple   # ((rank_1, deg_1), ..., (rank_l, deg_l)), l >= 2
    twists: tuple  # (a_1, ..., a_{l-1}), each >= 1

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((int(a), int(b)) for a, b in self.steps))
        object.__setattr__(self, "twists", tuple(int(a) for a in self.twists))
        steps, twists, p = self.steps, self.twists, self.params
        if len(steps) < 2:
            raise ParameterError("chain needs at least two steps")
        if len(twists) != len(steps) - 1:
            raise ParameterError("need exactly one twist per consecutive pair")
        if any(a < 1 for a in twists):
            raise ParameterError("twists must be >= 1")
        if any(ri < 1 for ri, _ in steps):
            raise ParameterError("step ranks must be >= 1")
        if sum(ri for ri, _ in steps) != p.r:
            raise ParameterError("step ranks must sum to r")
        if sum(di for _, di in steps) != p.d:
            raise ParameterError("step degrees must sum to d")
        for (r_lo, d_lo), (r_hi, d_hi) in zip(steps, steps[1:]):
            if not _check_slope_increasing(r_lo, d_lo, r_hi, d_hi):
                raise ParameterError(
                    f"slopes must strictly increase: {d_lo}/{r_lo} !< {d_hi}/{r_hi}")

    @property
    def length(self):
        return len(self.steps)


@dataclass(frozen=True)
class TorsionDatum:
    """Extension of a torsion sheaf of length t by a twisted rank-r bundle."""

    params: ModuliParams
    t: int
    a: int = 1

    def __post_init__(self):
        if self.t < 1:
            raise ParameterError(f"divisor degree must be >= 1, got {self.t}")
        if self.a < 1:
            raise ParameterError(f"twist must be >= 1, got {self.a}")


@dataclass(frozen=True)
class MixedDatum:
    """Two-step extension combined with a torsion part of degree t >= 1."""

    params: ModuliParams
    r1: int
    d1: int
    t: int

    def __post_init__(self):
        p = self.params
        if not 1 <= self.r1 <= p.r - 1:
            raise ParameterError(f"r1 must lie in [1, r-1], got {self.r1}")
        if self.t < 1:
            raise ParameterError(f"divisor degree must be >= 1, got {self.t}")
        if not _check_slope_increasing(self.r1, self.d1, self.r2, self.d2):
            raise ParameterError("sub slope must be strictly below quotient slope")

    @property
    def r2(self):
        return self.params.r - self.r1

    @property
    def d2(self):
        return self.params.d - self.d1 - self.t


def torsion_degree(p, td):
    """Degree k = a * r_bar * t of the torsion-extension family."""
    return td.a * p.r_bar * td.t


def torsion_dimension(p, td):
    """Dimension dim M + hk + r*t of the torsion-extension family.

    For a = 1 this equals the expected dimension (hk = r*t); for a >= 2 it
    falls strictly below it, so the family is never a component.
    """
    hk = p.h * torsion_degree(p, td)
    return p.dim_m + hk + p.r * td.t


def mixed_dimension(p, m):
    """(degree, dimension) of a mixed family.

    hk = r1*d - r*d1 + r*t and dim = dim M + 2hk - 2*r1*t, which is always
    strictly below the expected dimension.
    """
    hk = m.r1 * p.d - p.r * m.d1 + p.r * m.t
    if hk % p.h != 0:
        raise ConsistencyError("h does not divide the mixed degree sum")
    return hk // p.h, p.dim_m + 2 * hk - 2 * m.r1 * m.t


def multi_step_degree(c):
    """Degree of a chain: h*k = sum over i<j of (r_i d_j - r_j d_i)(a_i+...+a_{j-1})."""
    p = c.params
    hk = 0
    for i, (ri, di) in enumerate(c.steps):
        w = 0
        for j, (rj, dj) in enumerate(c.steps[i + 1:], i + 1):
            w += c.twists[j - 1]
            hk += (ri * dj - rj * di) * w
    if hk % p.h != 0:
        raise ConsistencyError("h does not divide the chain degree sum")
    return hk // p.h


def multi_step_dimension(c):
    """Dimension of the chain family.

    dim M + sum (r_i d_j - r_j d_i)(w_ij + 1) + (g-1) * sum r_i r_j (w_ij - 1)
    with w_ij = a_i + ... + a_{j-1}.  For l = 2 this is the two-step
    dimension.
    """
    p = c.params
    lin = 0
    quad = 0
    for i, (ri, di) in enumerate(c.steps):
        w = 0
        for j, (rj, dj) in enumerate(c.steps[i + 1:], i + 1):
            w += c.twists[j - 1]
            lin += (ri * dj - rj * di) * (w + 1)
            quad += ri * rj * (w - 1)
    return p.dim_m + lin + quad * (p.g - 1)


def is_unobstructed_splitting(datum):
    """Whether the generic splitting type of the family is balanced within 1.

    True exactly for two-step chains with twist 1 and torsion data with
    twist 1; chains of length >= 3 or any twist >= 2 are obstructed.
    """
    if isinstance(datum, TorsionDatum):
        return datum.a == 1
    if isinstance(datum, ExtensionChain):
        return datum.length == 2 and datum.twists == (1,)
    raise ParameterError(f"unsupported datum type {type(datum).__name__}")


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
