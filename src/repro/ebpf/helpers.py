"""Kernel helper functions callable from eBPF programs via ``CALL``.

Helper IDs match the kernel's UAPI numbering so programs read like real
ones.  Each helper has a simulated-time cost (charged to the probe's
overhead) alongside its semantic implementation.

``bpf_ktime_get_ns`` (id 5) reads the node's CLOCK_MONOTONIC -- §III-B:
"we obtain the nanosecond-level granularity time record from the
function bpf_ktime_get_ns()".
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, TYPE_CHECKING

from repro.ebpf.maps import BPFMap, MapError, PerfEventArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ebpf.vm import VMState

# UAPI helper ids (linux/bpf.h)
HELPER_MAP_LOOKUP_ELEM = 1
HELPER_MAP_UPDATE_ELEM = 2
HELPER_MAP_DELETE_ELEM = 3
HELPER_KTIME_GET_NS = 5
HELPER_TRACE_PRINTK = 6
HELPER_GET_PRANDOM_U32 = 7
HELPER_GET_SMP_PROCESSOR_ID = 8
HELPER_PERF_EVENT_OUTPUT = 25

# Pointers to maps are tagged addresses; LD_IMM64 with BPF_PSEUDO_MAP_FD
# materializes MAP_PTR_BASE + fd in the destination register.
MAP_PTR_BASE = 0x5_0000_0000

# BPF_F_CURRENT_CPU for perf_event_output's flags argument.
BPF_F_CURRENT_CPU = 0xFFFFFFFF
# Largest record perf_event_output accepts.
PERF_RECORD_MAX_BYTES = 4096


class HelperError(RuntimeError):
    """A helper was called with invalid arguments (bad map fd etc.)."""


class HelperInfo(NamedTuple):
    """One helper: UAPI name, host implementation, argc, simulated cost.

    ``func`` takes the :class:`~repro.ebpf.vm.VMState` plus the helper's
    ``argc`` argument registers (R1..Rn) as plain integers -- both
    execution tiers pass them positionally, so helpers never read the
    register file themselves.
    """

    name: str
    func: Callable[..., int]
    argc: int
    cost_ns: int


def _resolve_map(state: "VMState", reg_value: int) -> BPFMap:
    fd = reg_value - MAP_PTR_BASE
    bpf_map = state.env.maps.get(fd)
    if bpf_map is None:
        raise HelperError(f"register holds no valid map pointer ({reg_value:#x})")
    return bpf_map


def _map_lookup_elem(state: "VMState", map_ptr: int, key_ptr: int) -> int:
    bpf_map = _resolve_map(state, map_ptr)
    key = state.read_bytes(key_ptr, bpf_map.key_size)
    value = bpf_map.lookup(key, cpu=state.env.cpu)
    if value is None:
        return 0
    # Expose the live map storage to the program; stores through the
    # returned pointer persist, matching kernel semantics.
    return state.add_dynamic_region(value, name=f"{bpf_map.name}-value")


def _map_update_elem(
    state: "VMState", map_ptr: int, key_ptr: int, value_ptr: int, flags: int
) -> int:
    bpf_map = _resolve_map(state, map_ptr)
    key = state.read_bytes(key_ptr, bpf_map.key_size)
    value = state.read_bytes(value_ptr, bpf_map.value_size)
    try:
        bpf_map.update(key, value, cpu=state.env.cpu)
    except MapError:
        return (-1) & 0xFFFFFFFFFFFFFFFF
    return 0


def _map_delete_elem(state: "VMState", map_ptr: int, key_ptr: int) -> int:
    bpf_map = _resolve_map(state, map_ptr)
    key = state.read_bytes(key_ptr, bpf_map.key_size)
    try:
        removed = bpf_map.delete(key, cpu=state.env.cpu)
    except MapError:
        return (-1) & 0xFFFFFFFFFFFFFFFF
    return 0 if removed else (-1) & 0xFFFFFFFFFFFFFFFF


def _ktime_get_ns(state: "VMState") -> int:
    return state.env.clock() & 0xFFFFFFFFFFFFFFFF


def _trace_printk(state: "VMState", fmt_ptr: int, fmt_size: int) -> int:
    if fmt_size > 128:
        raise HelperError(f"trace_printk format too large ({fmt_size})")
    fmt = state.read_bytes(fmt_ptr, fmt_size).split(b"\x00")[0]
    state.env.printk_sink(fmt.decode("latin-1"))
    return len(fmt)


def _get_prandom_u32(state: "VMState") -> int:
    return state.env.prandom_u32() & 0xFFFFFFFF


def _get_smp_processor_id(state: "VMState") -> int:
    return state.env.cpu


def _perf_event_output(
    state: "VMState", ctx_ptr: int, map_ptr: int, flags: int, data_ptr: int, size: int
) -> int:
    bpf_map = _resolve_map(state, map_ptr)
    if not isinstance(bpf_map, PerfEventArray):
        raise HelperError(f"perf_event_output into non-perf map {bpf_map.name!r}")
    flags &= 0xFFFFFFFF
    cpu = state.env.cpu if flags == BPF_F_CURRENT_CPU else flags
    if size > PERF_RECORD_MAX_BYTES:
        raise HelperError(f"perf_event_output record too large ({size})")
    record = state.read_bytes(data_ptr, size)
    bpf_map.output(cpu, record)
    return 0


HELPERS: Dict[int, HelperInfo] = {
    HELPER_MAP_LOOKUP_ELEM: HelperInfo("map_lookup_elem", _map_lookup_elem, 2, 55),
    HELPER_MAP_UPDATE_ELEM: HelperInfo("map_update_elem", _map_update_elem, 4, 75),
    HELPER_MAP_DELETE_ELEM: HelperInfo("map_delete_elem", _map_delete_elem, 2, 60),
    HELPER_KTIME_GET_NS: HelperInfo("ktime_get_ns", _ktime_get_ns, 0, 22),
    HELPER_TRACE_PRINTK: HelperInfo("trace_printk", _trace_printk, 2, 1000),
    HELPER_GET_PRANDOM_U32: HelperInfo("get_prandom_u32", _get_prandom_u32, 0, 15),
    HELPER_GET_SMP_PROCESSOR_ID: HelperInfo("get_smp_processor_id", _get_smp_processor_id, 0, 8),
    HELPER_PERF_EVENT_OUTPUT: HelperInfo("perf_event_output", _perf_event_output, 5, 110),
}
