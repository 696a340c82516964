"""Deterministic randomness helpers.

Every experiment owns a single :class:`SeededRNG`; substrates derive
named child streams from it (``rng.fork("ovs")``) so adding a new random
consumer to one subsystem never perturbs the draws seen by another.

The service-time jitter drawn for every simulated kernel job is not
here: :meth:`repro.net.stack.KernelNode.noisy` writes the lognormal
draw out over ``rng.random`` in its own frame, bit for bit
``random.lognormvariate``.
"""

from __future__ import annotations

import hashlib
import random


class SeededRNG:
    """A named, forkable wrapper around :class:`random.Random`.

    ``rng.random()`` is the stream's uniform draw in ``[0, 1)``: the
    bound method of the underlying generator, so a draw costs no frame
    of its own.
    """

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self._derive(seed, name))
        self.random = self._random.random

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "SeededRNG":
        """An independent stream keyed by (seed, parent name, child name)."""
        return SeededRNG(self.seed, f"{self.name}/{name}")

    def random_u32(self) -> int:
        """A 32-bit random value; used for packet trace IDs (§III-B)."""
        return self._random.getrandbits(32)
