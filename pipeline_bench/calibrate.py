"""Host-speed calibration: report times in calibrated seconds (``cal_s``).

The sandbox this benchmark runs in changes speed under it, and the
guest cannot see why: ``process_time / wall`` stays at 1.0 while a
fixed pure-Python loop takes anywhere from 1.0x to 1.9x its best time
within seconds.  Ten runs of one 13 s CPU loop spread 11-15 % (quartile
distance over median) whether summarised by median or by minimum, and
raw ``wall_s`` spread up to 30 % over ten runs of ``udp_trace`` or
``fleet_sharded``.  The driver refuses a benchmark whose spread exceeds
its bound and caps the bound at 25 %, so raw wall time cannot be gated
on here at all.

So the clock is calibrated against the host while the work runs.  A
``SIGALRM`` interval timer interrupts the main thread every
``INTERVAL_S`` and times a fixed loop (``SPIN_ITERATIONS`` integer
multiply-adds, 0.6-1.4 ms, no memory footprint).  Python runs signal
handlers between bytecodes of the main thread, so the samples are taken
on the same core and interleaved with the work -- any call can be
calibrated from outside, including single calls that run for seconds.

For a window ``[a, b]`` the sampler reports:

* ``raw_s``: ``b - a`` minus the time spent inside calibration loops,
  so the loops (3-7 % of the CPU) displace cache state but do not count;
* ``calibrated_s``: ``raw_s x mean(REFERENCE_SPIN_S / d_i)`` over the
  loop durations ``d_i`` sampled in the window.  Samples are uniform in
  time, so the mean of the *rates* is the time integral of host speed.

``REFERENCE_SPIN_S`` only fixes the scale, so that a calibrated second
reads like a second of this sandbox at its usual quiet speed.  The gate
compares ratios of calibrated times, in which it cancels; a change to
the program cannot move the loop.  Taking the reference from the run
itself was tried and dropped: the fastest loop seen in a 20 s window
differed by up to 15 % between windows, so a run carries no
stable reference of its own.

What it buys, and what it does not (ten seeds a workload, quartile
distance over median of ``wall_s``; the README has the table): the
interpreter-bound workloads tighten 1.6 to 5 times (``udp_trace`` 18 %
raw to 4 %).  The memory-heavy ones tighten less, and not always: an
ALU loop follows the core's clock, memory stalls do not.  In a quiet
period calibration adds noise to ``analysis_replay`` (3 % raw, 7 %
calibrated), and a neighbour contending for memory slows
``fleet_sharded`` by a third and the loop by a tenth (29 % raw, 19 %
calibrated).  Loops with a memory working set were tried and tracked
the interpreter-bound workloads worse without following the fleet.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional

INTERVAL_S = 0.020
SPIN_ITERATIONS = 15_000
REFERENCE_SPIN_S = 0.0007
# A window holding fewer samples borrows its neighbours on both sides.
MIN_SAMPLES = 20


class Window(NamedTuple):
    raw_s: float
    calibrated_s: float
    samples: int

    @property
    def factor(self) -> float:
        """Calibrated over raw: multiply raw seconds taken inside this
        window by it."""
        return self.calibrated_s / self.raw_s if self.raw_s else 1.0


class SpeedSampler:
    """Interval-timer calibration sampler (main thread only)."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        # Called with each loop's duration in seconds, from the handler:
        # the layer trace uses it to keep calibration out of self times.
        self.on_sample: Optional[Callable[[float], None]] = None
        self._previous_handler = None

    def _handler(self, _signum, _frame) -> None:
        start = perf_counter()
        x = 0
        for i in range(SPIN_ITERATIONS):
            x += i * i
        duration = perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        if self.on_sample is not None:
            self.on_sample(duration)

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def window(self, start: float, end: float) -> Window:
        """Calibrate the ``perf_counter`` window ``[start, end]``."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        raw = (end - start) - sum(self.durations[lo:hi])
        short = MIN_SAMPLES - (hi - lo)
        if short > 0:
            lo, hi = max(0, lo - short), min(len(self.durations), hi + short)
        used = self.durations[lo:hi]
        if not used:
            raise ValueError("no calibration samples: is the sampler running?")
        rate = sum(REFERENCE_SPIN_S / d for d in used) / len(used)
        return Window(raw, raw * rate, len(used))
