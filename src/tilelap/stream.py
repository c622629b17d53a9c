"""The seeded random stream behind every random input of tilelap.

splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014), drawn by counter with numpy's unsigned
arithmetic, so that no command imports numpy's random module (5 MB of
RSS).  It draws the Lanczos start block and the rows that replace spent
directions (`spectral`), the random fields of ``interp-check`` and the
random graphs of ``crsf-check`` (`crsf.random_connection_graph`).
"""

import numpy as np


class SplitMix64:
    """A seeded stream of values in [-1, 1), drawn by counter: value i
    (from 1) is splitmix64's i-th output from the state ``seed`` mod 2^64,
    z_i = seed + i GAMMA mixed, its top 53 bits scaled.  Each call to
    :meth:`rows` continues where the last one stopped."""

    GAMMA = 0x9E3779B97F4A7C15
    MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

    def __init__(self, seed):
        self.state, self.drawn = seed % 2 ** 64, 0

    def rows(self, count, dim, dtype=float):
        """The next (count, dim) values, as ``dtype``; a complex value
        takes its real and imaginary parts from two values in turn."""
        size = count * dim * (2 if np.dtype(dtype).kind == "c" else 1)
        z = np.arange(self.drawn + 1, self.drawn + size + 1, dtype=np.uint64)
        self.drawn += size
        z *= np.uint64(self.GAMMA)  # unsigned arrays wrap mod 2^64
        z += np.uint64(self.state)
        for shift, mult in zip((30, 27), self.MIX):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        # the values overwrite their own integers
        values = np.multiply(z, 2.0 ** -52, out=z.view(float))
        values -= 1.0
        return values.view(dtype).reshape(count, dim)
