"""Self-time arithmetic and patching, on toy modules and a fake clock."""

import sys
import types

import pytest

from pipeline_bench import layertrace


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def toy(monkeypatch):
    """``pbtoy_lib`` defines the targets; ``pbtoy_user`` imported one of
    them by name, the way ``repro.net.vxlan`` imports ``segment_packet``."""
    clock = FakeClock()
    monkeypatch.setattr(layertrace, "perf_counter_ns", clock)
    lib = types.ModuleType("pbtoy_lib")
    source = """
hook = None

def leaf(ns):
    if hook is not None:
        hook()            # stands in for a calibration sample's handler
    clock.now += ns

def outer():
    clock.now += 5        # own work before
    leaf(20)
    leaf(30)
    clock.now += 7        # own work after

class Box:
    def method(self):
        clock.now += 3
        outer()

    @staticmethod
    def static():
        return 1
"""
    lib.clock = clock
    exec(source, lib.__dict__)
    user = types.ModuleType("pbtoy_user")
    user.leaf = lib.leaf  # from pbtoy_lib import leaf
    user.call_alias = lambda ns: user.leaf(ns)
    monkeypatch.setitem(sys.modules, "pbtoy_lib", lib)
    monkeypatch.setitem(sys.modules, "pbtoy_user", user)
    return lib, user, clock


TABLE = {
    "outer_layer": ("*pbtoy_lib:outer", "pbtoy_lib:Box.method"),
    "leaf_layer": ("pbtoy_lib:leaf",),
}


def make_trace():
    return layertrace.LayerTrace(TABLE, alias_prefixes=("pbtoy_lib", "pbtoy_user"))


def test_nested_self_time(toy):
    lib, _user, clock = toy
    trace = make_trace()
    with trace:
        clock.now += 100  # harness work at the root
        lib.Box().method()
    by_entry = trace.by_entry()
    assert by_entry["leaf"] == layertrace.CallStats(2, 50, 50)
    assert by_entry["outer"] == layertrace.CallStats(1, 62, 12)
    assert by_entry["Box.method"] == layertrace.CallStats(1, 65, 3)
    assert trace.calls()[("leaf", "outer")].count == 2
    assert trace.calls()[("Box.method", layertrace.ROOT)].total_ns == 65
    assert trace.layer_self_ns() == {"outer_layer": 15, "leaf_layer": 50}
    assert trace.root_self_ns() == 100
    assert sum(trace.layer_self_ns().values()) + trace.root_self_ns() == trace.wall_ns() == 165
    # outer is stage-level, so its span is kept although it is short.
    names = [trace._names[entry] for entry, _cause, _start, _end in trace.spans]
    assert names == ["outer"]


def test_from_import_alias_is_patched_and_restored(toy):
    lib, user, _clock = toy
    original = lib.leaf
    trace = make_trace()
    with trace:
        assert user.leaf is lib.leaf is not original
        user.call_alias(11)
    assert trace.by_entry()["leaf"] == layertrace.CallStats(1, 11, 11)
    assert user.leaf is lib.leaf is original
    assert not trace.installed


def test_excluded_time_leaves_self_and_wall(toy):
    lib, _user, clock = toy
    trace = make_trace()

    def sample():
        clock.now += 25
        trace.exclude(25e-9)

    with trace:
        lib.leaf(40)
        lib.hook = sample  # from here on every leaf call is interrupted once
        lib.outer()
    by_entry = trace.by_entry()
    assert by_entry["leaf"].self_ns == 40 + 20 + 30
    assert by_entry["leaf"].total_ns == 40 + 20 + 30 + 2 * 25
    assert by_entry["outer"].self_ns == 12
    assert trace.excluded_ns == 50
    assert trace.wall_ns() == 40 + 62
    assert sum(trace.layer_self_ns().values()) + trace.root_self_ns() == trace.wall_ns()


def test_unresolved_target_is_a_hard_error(toy):
    with pytest.raises(layertrace.TraceError, match="renamed"):
        layertrace.LayerTrace({"x": ("pbtoy_lib:renamed",)})
    with pytest.raises(layertrace.TraceError, match="staticmethod"):
        layertrace.LayerTrace({"x": ("pbtoy_lib:Box.static",)})
    with pytest.raises(layertrace.TraceError, match="cannot import"):
        layertrace.LayerTrace({"x": ("pbtoy_missing:f",)})


def test_the_real_table_resolves():
    trace = layertrace.LayerTrace()
    assert {t.layer for t in trace.targets} == set(layertrace.TARGETS)
    for name in layertrace.EVENT_LOOPS:
        assert name in {t.name for t in trace.targets}
