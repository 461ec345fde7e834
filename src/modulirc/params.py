"""Numerical invariants of the moduli space and the degree Diophantine solver.

Everything here is exact integer arithmetic.  Slope comparisons elsewhere in
the package are done by cross-multiplication, never by division.
"""

from math import gcd
from operator import index


# inputs beyond these keep every intermediate formula inside signed 64 bits
MAX_GENUS = 1000
MAX_RANK = 1000
MAX_DEGREE = 10**6
MAX_K = 10**6
# SplitMix64 reads a seed mod 2^64: one outside [0, MAX_SEED] would draw another's trials
MAX_SEED = 2**64 - 1


class ParameterError(ValueError):
    """Input outside the allowed domain (bad genus, rank, slope, ...)."""


class ConsistencyError(RuntimeError):
    """An internal integrality or invariant check failed.

    This should never fire on valid inputs; it signals a bug, not bad input.
    """


def _integer(value, name):  # an int, or ParameterError where int() would round
    try:
        return index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


class Record:
    """Base of the immutable value types, in place of frozen dataclasses,
    whose import costs more than most CLI calls compute.  A subclass's
    annotations are its fields, in order, each given by keyword, none
    defaulted; instances compare, hash and print by them.  `__post_init__`
    checks them and may store derived values, not fields, in the instance
    dict with one `self.__dict__.update`, as `__init__` stores the fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._keys = frozenset(cls._fields)

    def __init__(self, **fields):
        if fields.keys() != self._keys:
            raise TypeError(f"{type(self).__name__}() takes {self._fields} by keyword, each once")
        self.__dict__.update(fields)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass with constraints overrides this."""

    def _values(self):
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = (f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class ModuliParams(Record):
    """Derived invariants of the moduli space of rank-r bundles with fixed
    determinant of degree d on a genus-g curve."""

    g: int
    r: int
    d: int

    def __post_init__(self):
        g, r, d = (_integer(self.__dict__[f], f) for f in self._fields)
        h = gcd(r, d)  # math.gcd(r, 0) == r, matching the convention we need
        self.__dict__.update(g=g, r=r, d=d, h=h, r_bar=r // h, d_bar=d // h,
                             dim_m=(r * r - 1) * (g - 1), fano_index=2 * h)


def derive_params(g, r, d):
    """Compute all derived invariants from the integers (g, r, d), with
    2 <= g <= MAX_GENUS, 2 <= r <= MAX_RANK and |d| <= MAX_DEGREE."""
    g, r, d = _integer(g, "g"), _integer(r, "r"), _integer(d, "d")
    if not 2 <= g <= MAX_GENUS:
        raise ParameterError(f"g must lie in [2, {MAX_GENUS}]")
    if not 2 <= r <= MAX_RANK:
        raise ParameterError(f"r must lie in [2, {MAX_RANK}]")
    if abs(d) > MAX_DEGREE:
        raise ParameterError(f"|d| must be at most {MAX_DEGREE}")
    return ModuliParams(g=g, r=r, d=d)


def expected_dimension(p, k):
    """Minimum possible dimension of a component of the space of degree-k
    rational curves: 2hk + (r^2 - 1)(g - 1)."""
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    return 2 * p.h * k + p.dim_m


def _check_max_l(max_l):
    """Checked wherever max_l is given: below 2 there is nothing to search."""
    if max_l < 2:
        raise ParameterError(f"max_l must be >= 2, got {max_l}")


def _check_seed(seed, name="seed"):
    """Checked wherever a random suite reads its seed."""
    if not 0 <= seed <= MAX_SEED:
        raise ParameterError(f"{name} must lie in [0, {MAX_SEED}], got {seed}")


def solve_dioph(p, k):
    """All solutions (x, y) of d_bar*x - r_bar*y = k with 0 <= x < r.

    Returns exactly h solutions, sorted by ascending x; consecutive solutions
    differ by (r_bar, d_bar).  A solution with x = 0 signals the torsion
    family branch (k divisible by r_bar).
    """
    if k < 1:
        raise ParameterError(f"degree must be >= 1, got {k}")
    # gcd(d_bar, r_bar) = 1, so d_bar is invertible mod r_bar (as 0 when r_bar = 1)
    x0 = (k * pow(p.d_bar, -1, p.r_bar)) % p.r_bar
    solutions = []
    for x in range(x0, p.r, p.r_bar):
        num = p.d_bar * x - k
        if num % p.r_bar != 0:
            raise ConsistencyError("Diophantine residue mismatch")
        solutions.append((x, num // p.r_bar))
    if len(solutions) != p.h:
        raise ConsistencyError(
            f"expected {p.h} Diophantine solutions, found {len(solutions)}")
    return solutions
