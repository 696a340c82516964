"""Deterministic randomness helpers.

Every experiment owns a single :class:`SeededRNG`; substrates derive
named child streams from it (``rng.fork("ovs")``) so adding a new random
consumer to one subsystem never perturbs the draws seen by another.

:meth:`SeededRNG.lognormal_ns` is written out here rather than called
through ``random.lognormvariate``: it is drawn for every simulated
kernel job, and the draws (hence every digest) no longer depend on the
standard library keeping its normal-deviate algorithm.
"""

from __future__ import annotations

import hashlib
import random
from math import exp, log, sqrt

# Kinderman & Monahan's ratio-of-uniforms constant, 4 e^-0.5 / sqrt(2),
# spelled as ``random.normalvariate`` spells it.
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


class SeededRNG:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "SeededRNG":
        """An independent stream keyed by (seed, parent name, child name)."""
        return SeededRNG(self.seed, f"{self.name}/{name}")

    # -- primitive draws ---------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def random_u32(self) -> int:
        """A 32-bit random value; used for packet trace IDs (§III-B)."""
        return self._random.getrandbits(32)

    # -- the distribution used by the substrates -----------------------------

    def lognormal_ns(self, median_ns: float, sigma: float) -> int:
        """Heavy-ish tail for per-packet kernel service times:
        ``max(0, int(lognormvariate(log(median_ns), sigma)))``, in one
        frame.  The Kinderman--Monahan loop draws the same floats in the
        same order and applies the same float operations as
        ``random.normalvariate``, so the result is bit-identical."""
        random = self._random.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        return max(0, int(exp(log(median_ns) + z * sigma)))
