"""Node clocks and deterministic RNG streams."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import NodeClock
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG


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
        rng = SeededRNG(3)
        for _ in range(50):
            assert rng.lognormal_ns(1000, 0.5) >= 0

    def test_lognormal_centers_near_median(self):
        rng = SeededRNG(5)
        samples = [rng.lognormal_ns(1000, 0.05) for _ in range(500)]
        assert 950 < sorted(samples)[250] < 1050

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        median=st.one_of(
            st.just(1), st.integers(1, 10**7),
            st.floats(0.01, 1e7, allow_nan=False, allow_infinity=False),
        ),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        draws=st.integers(1, 6),
    )
    def test_lognormal_matches_the_standard_library(self, seed, median, sigma, draws):
        """The inlined draw is ``random.lognormvariate`` bit for bit: the
        same values, and the stream left where the library leaves it."""
        rng = SeededRNG(seed)
        library = random.Random(SeededRNG._derive(seed, "root"))
        ours = [rng.lognormal_ns(median, sigma) for _ in range(draws)]
        theirs = [
            max(0, int(library.lognormvariate(math.log(median), sigma)))
            for _ in range(draws)
        ]
        assert ours == theirs
        assert rng.random() == library.random()
