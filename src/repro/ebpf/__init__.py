"""An eBPF execution substrate implemented from scratch.

The paper's tracing scripts are eBPF programs executed by the kernel's
in-kernel virtual machine after passing the verifier.  This package
recreates that pipeline so vNetTracer's scripts in this repo are *real
bytecode programs*, not Python callbacks:

* :mod:`repro.ebpf.isa` -- the instruction set (real eBPF opcode
  encoding: ALU64/ALU32, JMP, LDX/STX, LD_IMM64, CALL, EXIT).
* :mod:`repro.ebpf.assembler` -- a label-aware assembler DSL.
* :mod:`repro.ebpf.verifier` -- static verifier: 4096-instruction limit
  (§II "Limitation"), DAG control flow (no back edges, as in kernels of
  the paper's era), register-initialization dataflow, stack bounds,
  known helpers, well-formed LD_IMM64 pairs.
* :mod:`repro.ebpf.vm` -- the VM: the interpreter (the differential
  oracle), the simulated nanosecond cost model, and shadow mode;
  :mod:`repro.ebpf.jit` translates verified programs to native Python
  code objects (the JIT analog), the default host execution tier.
* :mod:`repro.ebpf.maps` -- BPF maps: hash, array, per-CPU array, and
  the perf event array used to stream records to user space.
* :mod:`repro.ebpf.helpers` -- ``bpf_ktime_get_ns``, map ops,
  ``perf_event_output``, ``get_smp_processor_id``, ...
* :mod:`repro.ebpf.probes` -- the attach-point registry (kprobe,
  kretprobe, tracepoint, network device) that the simulated kernel
  fires as packets traverse it.
"""

from repro.ebpf.assembler import Assembler
from repro.ebpf.isa import Instruction
from repro.ebpf.maps import ArrayMap, HashMap, PerCPUArrayMap, PerfEventArray
from repro.ebpf.probes import HookRegistry, ProbeEvent
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.vm import BPFProgram, ExecutionEnv, ShadowMismatch

__all__ = [
    "Instruction",
    "Assembler",
    "verify",
    "VerifierError",
    "BPFProgram",
    "ExecutionEnv",
    "ShadowMismatch",
    "HashMap",
    "ArrayMap",
    "PerCPUArrayMap",
    "PerfEventArray",
    "HookRegistry",
    "ProbeEvent",
]
