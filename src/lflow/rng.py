"""Counter-based deterministic random numbers.

Every random draw in the package comes from a stateless hash of
(master_seed, counter), so results never depend on call order, thread
count, or process layout.  Draw k under master seed m is
U(m, k) = (splitmix64((m + (k + 1) * GOLDEN) mod 2^64) >> 11) * 2^-53:
the top 53 bits of the SplitMix64 output mixer, scaled into [0, 1).
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def unit_uniform_array(master_seed: int, start: int, count: int) -> np.ndarray:
    """Vector of U(master_seed, k) for k = start .. start+count-1, where
    U(m, k) = (splitmix64((m + (k + 1) * GOLDEN) mod 2^64) >> 11) * 2^-53."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    k = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(master_seed & _MASK) + (k + np.uint64(1)) * np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53
