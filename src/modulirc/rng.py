"""Seeded deterministic random numbers for the verification suites.

SplitMix64 (Steele, Lea & Flood): a 64-bit counter-based generator with a
fixed, documented algorithm, so random suites reproduce byte-for-byte from
(seed, bounds) alone on any platform.  Output i is mix(seed + i·γ mod 2⁶⁴),
so any stretch of the stream is one array computation.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed, start, n):
    """Outputs start+1 ... start+n of the stream seeded with `seed`, as a
    uint64 array.  Array arithmetic wraps mod 2⁶⁴ without a warning."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def randint(u, lo, hi):
    """The outputs u as int64 integers in [lo, hi] inclusive, by modulo
    reduction (the tiny bias is irrelevant for identity testing and keeps
    the stream reproducible).  lo and hi may be arrays that broadcast
    against u, one range per column."""
    lo = np.asarray(lo, dtype=np.int64)
    span = np.asarray(hi, dtype=np.int64) - lo + 1
    if np.any(span < 1):
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo + (u % span.astype(np.uint64)).astype(np.int64)
