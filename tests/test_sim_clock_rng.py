"""Node clocks and deterministic RNG streams."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.costs import CostModel
from repro.net.stack import KernelNode
from repro.sim.clock import NodeClock
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG


def _jitter_node(rng, sigma):
    """A node whose per-hop jitter is drawn from ``rng`` with ``sigma``."""
    return KernelNode(Engine(), "n", costs=CostModel(timer_noise_sigma=sigma), rng=rng)


class TestNodeClock:
    def test_base_reading_at_time_zero(self, engine):
        clock = NodeClock(engine)
        assert clock.monotonic_ns() == NodeClock.BASE_NS

    def test_offset_shifts_reading(self, engine):
        clock = NodeClock(engine, offset_ns=5_000)
        assert clock.monotonic_ns() == NodeClock.BASE_NS + 5_000

    def test_reading_tracks_engine_time(self, engine):
        clock = NodeClock(engine)
        engine.schedule(1_000_000, lambda: None)
        engine.run()
        assert clock.monotonic_ns() == NodeClock.BASE_NS + 1_000_000

    def test_drift_scales_elapsed_time(self, engine):
        clock = NodeClock(engine, drift_ppm=100.0)  # 1e-4
        engine.schedule(10_000_000, lambda: None)
        engine.run()
        expected = NodeClock.BASE_NS + int(10_000_000 * 1.0001)
        assert clock.monotonic_ns() == expected

    def test_negative_offset_stays_positive(self, engine):
        clock = NodeClock(engine, offset_ns=-4_000_000)
        assert clock.monotonic_ns() > 0

    def test_skew_versus_combines_offset_and_drift(self, engine):
        fast = NodeClock(engine, offset_ns=1_000, drift_ppm=50.0)
        slow = NodeClock(engine, offset_ns=0, drift_ppm=0.0)
        engine.schedule(100_000_000, lambda: None)
        engine.run()
        expected = 1_000 + int(100_000_000 * 50e-6)
        assert fast.skew_versus(slow) == expected

    def test_at_matches_monotonic_at_now(self, engine):
        clock = NodeClock(engine, offset_ns=7, drift_ppm=3.0)
        engine.schedule(123_456, lambda: None)
        engine.run()
        assert clock.at(engine.now) == clock.monotonic_ns()


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(99, "x")
        b = SeededRNG(99, "x")
        assert [a.random_u32() for _ in range(20)] == [b.random_u32() for _ in range(20)]

    def test_different_names_decorrelate(self):
        a = SeededRNG(99, "x")
        b = SeededRNG(99, "y")
        assert [a.random_u32() for _ in range(5)] != [b.random_u32() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = SeededRNG(7).fork("child")
        b = SeededRNG(7).fork("child")
        assert a.random_u32() == b.random_u32()

    def test_fork_does_not_disturb_parent(self):
        parent = SeededRNG(7)
        first = parent.random_u32()
        parent2 = SeededRNG(7)
        parent2.fork("noise")  # forking must not consume parent draws
        assert parent2.random_u32() == first

    def test_random_u32_in_range(self):
        rng = SeededRNG(3)
        for _ in range(100):
            value = rng.random_u32()
            assert 0 <= value <= 0xFFFFFFFF

    def test_distribution_helpers_nonnegative(self):
        node = _jitter_node(SeededRNG(3), 0.5)
        for _ in range(50):
            assert node.noisy(1000) >= 0

    def test_lognormal_centers_near_median(self):
        node = _jitter_node(SeededRNG(5), 0.05)
        samples = [node.noisy(1000) for _ in range(500)]
        assert 950 < sorted(samples)[250] < 1050

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        median=st.one_of(
            st.just(1), st.integers(1, 10**7),
            st.floats(0.01, 1e7, allow_nan=False, allow_infinity=False),
            st.just(0), st.integers(-10**4, -1), st.floats(-1e4, 0.0),
        ),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(-2.0, 0.0)),
        draws=st.integers(1, 6),
    )
    def test_lognormal_matches_the_standard_library(self, seed, median, sigma, draws):
        """The draw the stack makes per hop, ``KernelNode.noisy``, is
        ``int(random.lognormvariate(...))`` bit for bit: the same values,
        and the stream left where the library leaves it.  A non-positive
        sigma or base cost is the base cost, truncated, and draws
        nothing."""
        rng = SeededRNG(seed)
        node = _jitter_node(rng, sigma)
        library = random.Random(SeededRNG._derive(seed, "root"))
        ours = [node.noisy(median) for _ in range(draws)]
        if sigma <= 0 or median <= 0:
            theirs = [int(median)] * draws
        else:
            theirs = [
                int(library.lognormvariate(math.log(median), sigma))
                for _ in range(draws)
            ]
        assert ours == theirs
        assert rng.random() == library.random()
