"""BPF map semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.ebpf.maps import (
    ArrayMap,
    HashMap,
    MapError,
    PerCPUArrayMap,
    PerfEventArray,
)


class TestHashMap:
    def test_update_lookup_delete_cycle(self):
        m = HashMap(4, 8, 16)
        key, value = b"\x01\x00\x00\x00", b"\x09" + b"\x00" * 7
        assert m.lookup(key) is None
        m.update(key, value)
        assert bytes(m.lookup(key)) == value
        assert m.delete(key)
        assert m.lookup(key) is None
        assert not m.delete(key)

    def test_update_overwrites_in_place(self):
        m = HashMap(4, 4, 4)
        m.update(b"aaaa", b"1111")
        slot = m.lookup(b"aaaa")
        m.update(b"aaaa", b"2222")
        assert bytes(slot) == b"2222"  # same storage mutated

    def test_capacity_enforced(self):
        m = HashMap(4, 4, 2)
        m.update(b"aaaa", b"xxxx")
        m.update(b"bbbb", b"xxxx")
        with pytest.raises(MapError, match="full"):
            m.update(b"cccc", b"xxxx")
        m.update(b"aaaa", b"yyyy")  # existing key still updatable

    def test_key_size_checked(self):
        m = HashMap(4, 4, 2)
        with pytest.raises(MapError, match="key size"):
            m.lookup(b"toolongkey")

    def test_value_size_checked(self):
        m = HashMap(4, 4, 2)
        with pytest.raises(MapError, match="value size"):
            m.update(b"aaaa", b"xy")

    def test_items_iteration(self):
        m = HashMap(1, 1, 8)
        m.update(b"a", b"1")
        m.update(b"b", b"2")
        assert dict(m.items()) == {b"a": b"1", b"b": b"2"}

    @given(st.dictionaries(st.binary(min_size=4, max_size=4),
                           st.binary(min_size=8, max_size=8), max_size=16))
    def test_behaves_like_dict(self, model):
        m = HashMap(4, 8, 32)
        for k, v in model.items():
            m.update(k, v)
        for k, v in model.items():
            assert bytes(m.lookup(k)) == v
        assert len(m) == len(model)


class TestArrayMap:
    def test_preallocated_zeroes(self):
        m = ArrayMap(8, 4)
        assert bytes(m.lookup((2).to_bytes(4, "little"))) == b"\x00" * 8

    def test_index_bounds(self):
        m = ArrayMap(8, 4)
        assert m.lookup((4).to_bytes(4, "little")) is None

    def test_update(self):
        m = ArrayMap(4, 2)
        m.update((1).to_bytes(4, "little"), b"abcd")
        assert m.value_at(1) == b"abcd"

    def test_delete_unsupported(self):
        m = ArrayMap(4, 2)
        with pytest.raises(MapError):
            m.delete((0).to_bytes(4, "little"))


class TestPerCPUArrayMap:
    def test_slots_isolated_per_cpu(self):
        m = PerCPUArrayMap(8, 1, num_cpus=4)
        key = (0).to_bytes(4, "little")
        m.update(key, (5).to_bytes(8, "little"), cpu=0)
        m.update(key, (7).to_bytes(8, "little"), cpu=2)
        assert int.from_bytes(m.lookup(key, cpu=0), "little") == 5
        assert int.from_bytes(m.lookup(key, cpu=2), "little") == 7
        assert int.from_bytes(m.lookup(key, cpu=1), "little") == 0

    def test_sum_u64_aggregates(self):
        m = PerCPUArrayMap(8, 1, num_cpus=3)
        key = (0).to_bytes(4, "little")
        for cpu, val in enumerate((1, 10, 100)):
            m.update(key, val.to_bytes(8, "little"), cpu=cpu)
        assert m.sum_u64(0) == 111


class TestPerfEventArray:
    def test_pending_without_consumer(self):
        perf = PerfEventArray(num_cpus=2)
        perf.output(1, b"rec")
        assert perf.pending == [(1, b"rec")]
        assert perf.events_emitted == 1

    def test_consumer_receives_directly(self):
        perf = PerfEventArray(num_cpus=2)
        got = []
        perf.set_consumer(got.append)
        perf.output(0, b"a")
        assert got == [b"a"] and perf.pending == []

    def test_no_data_map_interface(self):
        perf = PerfEventArray(num_cpus=1)
        assert perf.lookup(b"\x00" * 4) is None
        with pytest.raises(MapError):
            perf.update(b"\x00" * 4, b"\x00" * 4)

    def test_fds_unique(self):
        a, b = HashMap(4, 4, 4), ArrayMap(4, 4)
        assert a.fd != b.fd
