"""Deterministic randomness helpers.

Every experiment owns a single :class:`SeededRNG`; substrates derive
named child streams from it (``rng.fork("ovs")``) so adding a new random
consumer to one subsystem never perturbs the draws seen by another.
"""

from __future__ import annotations

import hashlib
import random


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
        """Heavy-ish tail for per-packet kernel service times."""
        import math

        return max(0, int(self._random.lognormvariate(math.log(median_ns), sigma)))
