"""eBPF SmartNIC substrate (§A.3).

Models the Netronome Agilio offload path: programs are written in C,
compiled to eBPF, verified under the offload verifier's constraints
(512-byte stack, 4096 instructions, no back-edges, no function calls), and
hooked to ingress traffic via XDP.
"""

from repro.ebpf.program import EBPFProgram, EBPFSection
from repro.ebpf.verifier import VerifierReport, verify_program
from repro.ebpf.nic import SmartNICRuntime

__all__ = [
    "EBPFProgram",
    "EBPFSection",
    "VerifierReport",
    "verify_program",
    "SmartNICRuntime",
]
