"""Deterministic fault injection for the tracing pipeline.

Declare what goes wrong in a :class:`FaultPlan` (channel loss /
duplication / delay, agent crashes, ring-buffer pressure), hand it to
:meth:`VNetTracer.set_fault_plan`, and the run replays those faults
deterministically from the plan's seed.  The pipeline's
resilient delivery (ack + retry control plane, at-least-once
sequence-numbered shipment with collector-side dedup) is designed to
survive them; see ``docs/FAULTS.md`` for the full fault model and
delivery semantics.
"""

from repro.faults.inject import CLEAN_DECISION, Decision, FaultInjector
from repro.faults.metrics import FaultMetrics
from repro.faults.plan import (
    ChannelFaults,
    CrashEvent,
    FaultPlan,
    FaultPlanError,
    RingPressureEvent,
)

__all__ = [
    "FaultPlan",
    "ChannelFaults",
    "CrashEvent",
    "RingPressureEvent",
    "FaultPlanError",
    "FaultInjector",
    "FaultMetrics",
    "Decision",
    "CLEAN_DECISION",
]
