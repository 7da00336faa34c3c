"""SmartNIC execution runtime: XDP hook + verified program.

The runtime verifies the program at load time (offload verifier) and then
processes packets: the dispatcher section demuxes on a packet's (SPI, SI),
which the rack carries in its metadata, the selected NF section transforms
the packet (delegating to the functional module library so behaviour
matches the server implementation), and the packet leaves with the next
hop's coordinates in its metadata. No NSH bytes move inside the rack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bess.modules import make_nf_module
from repro.ebpf.program import EBPFProgram
from repro.ebpf.verifier import verify_program
from repro.exceptions import DataplaneError
from repro.hw.smartnic import SmartNIC
from repro.net.packet import Packet
from repro.profiles.defaults import ProfileDatabase


class SmartNICRuntime:
    """One SmartNIC with a loaded XDP/eBPF program."""

    def __init__(self, nic: SmartNIC, profiles: ProfileDatabase,
                 seed: int = 0):
        self.nic = nic
        self.profiles = profiles
        self.seed = seed
        self.program: Optional[EBPFProgram] = None
        self._nf_modules: Dict[int, object] = {}
        self._nf_specs: List[Tuple[str, dict]] = []
        self.rx = 0
        self.tx = 0
        self.drops = 0
        #: cumulative per-engine NIC cycles charged (the NIC's own clock).
        self.cycles_charged = 0

    def load(self, program: EBPFProgram,
             nf_specs: List[Tuple[str, dict]]) -> None:
        """Verify then install the program (§A.3 load path).

        ``nf_specs`` pairs each NF section (after the dispatcher) with the
        (nf_class, params) its generated C implements; the runtime uses the
        functional library to execute them.
        """
        verify_program(program)  # raises VerifierError on rejection
        self.program = program
        self._nf_specs = list(nf_specs)
        self._nf_modules = {}
        for index, (nf_class, params) in enumerate(nf_specs):
            module = make_nf_module(
                nf_class, params,
                name=f"{self.nic.name}/{nf_class}{index}",
                database=self.profiles,
                seed=f"{self.seed}/{self.nic.name}",
            )
            # NIC engines process in parallel at their own clock; CPU
            # cycle accounting (server profiles) does not apply here.
            module.database = None
            self._nf_modules[index] = module

    def route_entry(self, spi: int, si: int) -> Optional[tuple]:
        """Resolve one demux route to ``(module, next_spi, next_si,
        nic_cycles)``, or ``None`` when the program drops that coordinate.

        :meth:`run` resolves each coordinate a batch carries through it
        once; the rack reads a route's module to decide whether its
        columnar loop may probe the hop.
        """
        if self.program is None:
            raise DataplaneError(f"{self.nic.name}: no program loaded")
        route = self.program.demux.get((spi, si))
        if route is None:
            return None
        section_index, next_spi, next_si, _exits = route
        module = self._nf_modules.get(section_index)
        if module is None:
            return None
        nf_class, _params = self._nf_specs[section_index]
        nic_cycles = int(self.profiles.nic_cycles(nf_class) or 0)
        return (module, next_spi, next_si, nic_cycles)

    def run(self, packets: List[Packet],
            charged: Optional[List[tuple]] = None
            ) -> List[Optional[Packet]]:
        """Run ``packets`` through the XDP hook, each entering at its
        ``metadata.spi``/``si``; one entry per input, in input order: the
        packet that left, the next hop's coordinates in its metadata and
        the section's NIC cycles added to its ``cycles_consumed``, or
        ``None`` where the program dropped it.

        With ``charged`` (probe mode) nothing is charged: the NF section is
        visited through :meth:`Module.probe_batch`, the runtime's counters
        stay put, and ``charged`` gains, per input, the
        ``(module, rx, tx, dropped, cycles)`` deltas its module visit would
        add and the ``(rx, tx, drops, cycles_charged)`` the runtime's would.
        """
        if self.program is None:
            raise DataplaneError(f"{self.nic.name}: no program loaded")
        routes: Dict[Tuple[int, int], Optional[tuple]] = {}
        outs: List[Optional[Packet]] = []
        tx = cycles = 0
        for packet in packets:
            meta = packet.metadata
            key = (meta.spi, meta.si)
            entry = routes.get(key, False)
            if entry is False:
                entry = routes[key] = self.route_entry(*key)
            out = None
            module_deltas = ()
            if entry is not None:
                module, next_spi, next_si, nic_cycles = entry
                if charged is None:
                    live = module.receive(packet)
                else:
                    (live, counts), = module.probe_batch([packet])
                    module_deltas = ((module, *counts),)
                if live:
                    # *NIC* cycles: the rack charges them to this device,
                    # whose clock (``nic.freq_hz``) converts them
                    out = live[0][1]
                    meta = out.metadata
                    meta.spi, meta.si = next_spi, next_si
                    meta.cycles_consumed += nic_cycles
                    tx += 1
                    cycles += nic_cycles
            if charged is not None:
                charged.append((module_deltas, (1, 0, 1, 0) if out is None
                                else (1, 1, 0, nic_cycles)))
            outs.append(out)
        if charged is None:
            self.rx += len(packets)
            self.tx += tx
            self.drops += len(packets) - tx
            self.cycles_charged += cycles
        return outs
