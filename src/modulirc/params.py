"""Numerical invariants of the moduli space and the degree Diophantine solver.

Everything here is exact integer arithmetic.  Slope comparisons elsewhere in
the package are done by cross-multiplication, never by division.
"""

from math import gcd


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


class Record:
    """Base of the immutable value types, in place of frozen dataclasses,
    whose import costs more than most CLI calls compute.  A subclass's
    annotations are its fields, in order, and a class attribute named like a
    field is its default.  Instances compare, hash and print by their field
    values; `__post_init__` validates them after construction and may also
    store values derived from them, which are not fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._keys = frozenset(cls._fields)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        if args or kwargs.keys() != self._keys:  # fast path: every field by keyword
            kwargs = self._bind(args, kwargs)
        self.__dict__.update(kwargs)
        self.__post_init__()

    def _bind(self, args, kwargs):
        values = dict(zip(self._fields, args))
        bad = values.keys() & kwargs or kwargs.keys() - self._keys
        values = {**self._defaults, **values, **kwargs}
        if bad or len(args) > len(self._fields) or len(values) < len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}, each "
                            f"once unless it has a default; got {len(args)} positional "
                            f"and {sorted(kwargs)}")
        return values

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
        r, d = self.r, self.d
        h = gcd(r, d)  # math.gcd(r, 0) == r, matching the convention we need
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r_bar", r // h)
        object.__setattr__(self, "d_bar", d // h)
        object.__setattr__(self, "dim_m", (r * r - 1) * (self.g - 1))
        object.__setattr__(self, "fano_index", 2 * h)


def derive_params(g, r, d):
    """Compute all derived invariants from (g, r, d).

    Requires 2 <= g <= MAX_GENUS, 2 <= r <= MAX_RANK and |d| <= MAX_DEGREE.
    """
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
