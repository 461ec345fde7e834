"""Seeded call lists for the four benchmark workloads.

Each workload is a fixed list of slots.  A slot fixes the shape of one CLI
call (command, flags, the gcd class h = gcd(r, d), the search depth); the
seed only picks values inside ranges whose cost is roughly the same, so one
pass through the list costs about the same for every seed while the inputs
still differ.  The CLI receives only the generated argv.
"""

import random
from math import gcd

WORKLOADS = ("interactive", "chain_search", "degree_sweep", "oracle_verify")

# documented CLI bounds (modulirc.cli: MAX_GENUS, MAX_RANK, MAX_DEGREE, MAX_K)
MAX_GENUS = 1000
MAX_RANK = 1000
MAX_DEGREE = 10**6
MAX_K = 10**6


def _args(command, **flags):
    argv = [command]
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


def _coprime_d(rng, r, lo, hi):
    """A degree d in [lo, hi] with gcd(r, d) = 1."""
    return rng.choice([d for d in range(lo, hi + 1) if gcd(r, d) == 1])


def _interactive(rng):
    calls = []
    for _ in range(3):
        calls.append(_args("connect", g=rng.randint(2, 50), r=rng.randint(2, 60),
                           d=rng.randint(-100, 100)))
    for _ in range(2):
        r = rng.randint(2, 200)
        calls.append(_args("segre", g=rng.randint(2, 10), r=r,
                           d=rng.randint(-300, 300), r_prime=rng.randint(1, r - 1)))
    # every r' at once: the large JSON document of this workload, and the
    # call that sets its peak memory, so r stays in a narrow range
    calls.append(_args("segre", g=2, r=rng.randint(150, 160),
                       d=rng.randint(-300, 300)))
    for fmt in ("table", "json", "table", "json"):
        calls.append(_args("classify", g=rng.randint(2, 20), r=rng.randint(2, 100),
                           d=rng.randint(-200, 200), k=rng.randint(1, 1000),
                           format=fmt))
    for fmt in ("table", "json"):
        r = rng.randint(2, 4)
        calls.append(_args("classify", g=rng.randint(2, 3), r=r,
                           d=_coprime_d(rng, r, -9, 9), k=rng.randint(1, 8),
                           include_candidates=True, format=fmt))
    for _ in range(2):
        k_min = rng.randint(1, 1000)
        calls.append(_args("sweep", g=rng.randint(2, 10), r=rng.randint(2, 100),
                           d=rng.randint(-200, 200), k_min=k_min,
                           k_max=k_min + rng.randint(4, 19)))
    return calls


def _chain_search(rng):
    # each slot draws among (d, k) whose searches cost within about 10% of
    # each other, so the cost of a pass hardly depends on the seed
    pick = rng.choice
    d1, k1 = pick([(-4, 12), (-3, 12), (-1, 11), (1, 11), (2, 11)])
    d2, k2 = pick([(1, 11), (3, 11)])
    d3, k3 = pick([(-4, 9), (-4, 10), (-2, 10)])
    d4, k4 = pick([(-5, 10), (1, 11), (5, 11)])
    return [
        # h = r at depth 4: the deepest searches of the workload
        _args("classify", g=2, r=5, d=pick([-5, 0]), k=8, max_l=4,
              include_candidates=True),
        _args("classify", g=2, r=4, d=0, k=pick([24, 25]), max_l=4,
              include_candidates=True, format="json"),
        # h = 1 at depth 4
        _args("classify", g=2, r=5, d=d1, k=k1, max_l=4, include_candidates=True,
              format="json"),
        _args("classify", g=3, r=4, d=d2, k=k2, max_l=4, include_candidates=True,
              include_mixed=True),
        # 1 < h < r and h = 1 at depth 3: the three searches in the middle of
        # the cost order, so call_p50_ms is the middle one of three calls of
        # about equal cost rather than one call's time
        _args("classify", g=2, r=6, d=d3, k=k3, max_l=3, include_candidates=True,
              include_mixed=True, format="json"),
        _args("classify", g=3, r=6, d=d4, k=k4, max_l=3, include_candidates=True),
        _args("classify", g=2, r=6, d=pick([-3, 3]), k=pick([8, 9]), max_l=3,
              include_candidates=True, format="json"),
    ]


def _sweep_window(r):
    # per-k cost of a sweep grows like r + 200, so this keeps each sweep's
    # cost close to constant while r moves over [480, 520]; r is kept in
    # that narrow range because the cost model is only approximate
    return 100_000 // (r + 200)


def _window_sweep(rng, r, d_of_r):
    k_min = rng.randint(1, 5000)
    return _args("sweep", g=rng.randint(2, 6), r=r, d=d_of_r(r), k_min=k_min,
                 k_max=k_min + _sweep_window(r) - 1)


def _degree_sweep(rng):
    return [
        # h = r, h = r/2 and h = 1
        _window_sweep(rng, rng.randint(480, 520), lambda r: r * rng.randint(-3, 3)),
        _window_sweep(rng, 2 * rng.randint(240, 260),
                      lambda r: (r // 2) * rng.choice([-3, -1, 1, 3])),
        _window_sweep(rng, rng.randint(480, 520),
                      lambda r: _coprime_d(rng, r, -2000, 2000)),
        # many small candidate searches instead of one deep one
        _args("sweep", g=2, r=3, d=_coprime_d(rng, 3, -8, 8), k_min=1, k_max=40,
              include_candidates=True),
    ]


def _oracle_verify(rng):
    return [
        _args("verify", suite="all", seed=rng.randrange(2**32)),
        _args("verify", suite="claim", max_l=4, deg_bound=8),
        _args("verify", suite="dimensions", max_l=4, deg_bound=8),
    ]


_GENERATORS = {
    "interactive": _interactive,
    "chain_search": _chain_search,
    "degree_sweep": _degree_sweep,
    "oracle_verify": _oracle_verify,
}


def generate(workload, seed):
    """The argv list of one pass through `workload` for `seed`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
