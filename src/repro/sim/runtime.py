"""Deployed-rack runtime: execute generated code on real packets.

Ties the substrates together the way the testbed does: the ToR runtime
classifies ingress traffic onto service paths and coordinates execution
(§4.1), BESS pipelines built from generated IR run on servers, verified
eBPF programs run on SmartNICs, and generated rules run on an OpenFlow
ToR. Used to validate that generated routing visits every NF of a chain
in order across platforms.

Observability: every injected packet updates the rack's
:class:`~repro.obs.MetricsRegistry` — per-device packets in/out, drops by
reason, and cycles charged — and carries a per-hop latency breakdown
(exec / bounce / switch-transit) in its metadata, which ``trace_chains``
aggregates into :class:`~repro.sim.measurement.PacketTraceResult`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import repeat
from operator import add, attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bess.modules import MODULE_CLASSES, make_nf_module
from repro.bess.pipeline import ServerHop, build_bess_pipeline
from repro.chain.graph import NFChain
from repro.core.placement import ChainPlacement, Placement
from repro.core.rates import SWITCH_TRANSIT_US
from repro.ebpf.nic import SmartNICRuntime
from repro.exceptions import DataplaneError
from repro.hw.openflow import OpenFlowSwitchModel
from repro.hw.platform import Platform
from repro.hw.topology import Topology
from repro.metacompiler.compiler import CompiledArtifacts
from repro.metacompiler.nsh import INITIAL_SI, ServicePath
from repro.net.packet import Packet
from repro.obs import MetricsRegistry, get_registry
from repro.openflow.switch import OpenFlowRuntime, decode_vid, encode_vid
from repro.profiles.defaults import ProfileDatabase, default_profiles
from repro.sim.columns import (
    ColumnarRunResult,
    HopColumn,
    PacketColumns,
    _FinishedBlock,
    _RouteClass,
    _RouteTrace,
    seq_dropped,
    vector_fault_mask,
)
from repro.sim.measurement import HopStat, PacketTraceResult, QueueingModel
from repro.units import SIM_PACKET_BYTES

_MAX_EVENTS = 1000

#: Bound on the per-rack flow-classification cache; reaching it clears the
#: cache (simple and allocation-free — a rack outliving 64k flows is a
#: soak test, not a correctness concern).
_FLOW_CACHE_MAX = 65536

#: Delivered packets from which a scalar batch records its latency
#: components as one ``observe_many`` per histogram rather than one
#: ``observe`` per packet and histogram: the per-batch arrays cost about
#: as much as 8 single adds and half as much as 32.
_OBSERVE_MANY_MIN = 32


def _unit_draws(rng: random.Random, n: int):
    """The next ``n`` values of ``rng.random()``, leaving ``rng`` exactly
    where ``n`` calls would.

    ``random()`` takes two successive 32-bit Mersenne outputs ``a``, ``b``
    and returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
    ``getrandbits(64 * n)`` emits the same ``2n`` outputs, first one
    lowest, so a little-endian 64-bit word holds one draw: ``a`` below,
    ``b`` above. One C call instead of ``n`` — but with ≈ 5 µs of fixed
    cost, so short runs keep the per-draw loop (the third table of
    ``scripts/loop_breakeven.py`` has the crossover).
    """
    if n < 128:
        rand = rng.random
        return [rand() for _ in range(n)]
    words = np.frombuffer(
        rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8"
    )
    return (((words & 0xFFFFFFE0) << 21) + (words >> 38)) \
        * (1.0 / 9007199254740992.0)


@dataclass
class RunResult:
    """One :meth:`DeployedRack.run` call's outcome.

    ``outputs`` has one entry per injected packet, in input order: the
    delivered packet, or ``None`` where it was dropped.
    """

    outputs: List[Optional[Packet]]

    @property
    def delivered(self) -> int:
        return sum(1 for packet in self.outputs if packet is not None)

    @property
    def dropped(self) -> int:
        return len(self.outputs) - self.delivered

    def __len__(self) -> int:
        return len(self.outputs)

    def __iter__(self):
        return iter(self.outputs)


@dataclass
class RedeployResult:
    """What one :meth:`DeployedRack.redeploy` call touched.

    Devices whose generated program digest is unchanged are ``reused``:
    their runtimes — including stateful NF tables and seeded RNG streams
    — survive the redeploy untouched. Only ``rebuilt`` devices get a
    fresh runtime, and ``removed`` devices (no longer hosting any
    subgroup) are torn down.
    """

    rebuilt: List[str]
    reused: List[str]
    removed: List[str]


@dataclass(eq=False)
class _EffectClass:
    """The counter effect of one probed hop traversal, interned per rack.

    Probes that charged the same modules, runtime counters and flow rules
    by the same amounts share one instance (identity is the class), so a
    column replay multiplies once per class, not once per signature.
    """

    #: (module, rx, tx, dropped, cycles) counter deltas, one probe's worth
    module_deltas: tuple = ()
    #: modules that drew one RNG cost sample for the probe packet — the
    #: column replay must draw once per member packet in arrival order
    rng_modules: tuple = ()
    #: (rx, tx, drops, cycles_charged) runtime-level deltas (OF/NIC)
    runtime_deltas: Tuple[int, int, int, int] = (0, 0, 0, 0)
    #: (FlowRule, match-time packet length) pairs the OF pipeline matched
    of_rules: tuple = ()


@dataclass(eq=False)
class _HopProbe:
    """One probed (device, coordinates, template-bytes) hop outcome.

    The columnar dataplane runs a single clone of a flow's template through
    the real platform runtime, then undoes every counter the run charged.
    What remains is this record: the transformed output template, the next
    service-path coordinates, and the counter effect to replay — multiplied
    by however many packets of that signature traverse the hop.
    """

    survived: bool
    template: Optional[Packet] = None
    next_spi: int = 0
    next_si: int = 0
    #: fixed per-packet ``cycles_consumed`` delta (infra charges like NSH
    #: encap/decap; RNG-sampled NF costs are replayed per packet instead)
    pkt_cycles: int = 0
    #: interned by :meth:`DeployedRack._remember_probe`
    effect: Optional[_EffectClass] = None


@dataclass(eq=False)
class _HopPlan:
    """What a ``(spi, si)`` hop is to every flow that reaches it, resolved
    when a column run first arrives there."""

    device: str
    platform: str
    on_switch: bool
    #: the OF/NIC runtime whose own counters a replay charges (else None)
    runtime: object
    #: drop reason of the flows the hop does not let through
    reason: str
    #: the platform's probe primitive for this hop, as ``(method name,
    #: leading arguments)`` — no reference back to the rack; None where the
    #: hop cannot be probe-replayed and runs take the scalar step
    probe: Optional[Tuple[str, tuple]]
    #: probe memo key, less the template bytes
    key: tuple
    #: an on-switch hop continues on its path at this SI (0: it ends)
    exit_si: int
    freq: float
    #: the device's (packets_in, packets_out, cycles) counters
    counters: tuple


@dataclass
class _InterRackHop:
    """Per-chain inter-rack ingress hop (geo-distributed fabrics).

    A chain homed away from its ingress rack crosses a fabric link before
    this rack ever sees its packets: the round trip, ``2 × latency_us``,
    rides on every delivered packet as the ``interrack_us`` latency
    component (``extra_us``), and when the link is saturated a
    ``drop_fraction`` of packets never arrives. Drops hash the injection
    sequence against ``link_seed`` (the rack seed salted with the link
    name) exactly like device faults, so scalar and columnar runs — and
    repeated runs — agree bit for bit.
    """

    link: str
    latency_us: float  # one-way
    drop_fraction: float = 0.0
    link_seed: int = 0
    extra_us: float = 0.0


class _Cohort:
    """A run of one service path's packets, in injection order, moving
    through the chain graph together (:meth:`DeployedRack._run_graph`):
    ``packets``, or a column run ``cols`` (then ``packets`` is None until
    a scalar step materializes it).

    ``spi``/``si`` name the hop the run enters next; once entered, ``si``
    is None and the run sits at node ``pos`` of ``hop`` (past 0 only
    inside a switch hop a packet run crosses one node per step; a column
    run takes a hop whole).
    """

    __slots__ = ("packets", "cols", "spi", "si", "excursions",
                 "switch_passes", "budget", "path", "hop_index", "hop", "pos")

    def __init__(self, packets: Optional[List[Packet]], spi: int, si: int,
                 excursions: int, switch_passes: int, budget: int,
                 cols: Optional[PacketColumns] = None):
        self.packets = packets
        self.cols = cols
        self.spi = spi
        self.si = si
        self.excursions = excursions
        self.switch_passes = switch_passes
        #: hops this run may still enter (loop guard)
        self.budget = budget


_seq_of = attrgetter("metadata.seq")
_route_of = attrgetter("route")
_pkt_cycles_of = attrgetter("pkt_cycles")
_survived_of = attrgetter("survived")
_next_coords_of = attrgetter("next_spi", "next_si")


def _merged(group: List[_Cohort]) -> List[Packet]:
    """Every packet of ``group``'s runs, in injection order."""
    if len(group) == 1:
        return group[0].packets
    return sorted((p for cohort in group for p in cohort.packets),
                  key=_seq_of)


def _split(group: List[_Cohort], merged: List[Packet],
           outs: list) -> List[list]:
    """``outs`` (one per packet of ``merged``) regrouped run by run."""
    if len(group) == 1:
        return [outs]
    by_seq = dict(zip(map(_seq_of, merged), outs))
    return [[by_seq[seq] for seq in map(_seq_of, cohort.packets)]
            for cohort in group]


def _freeze_template(packet: Packet) -> Packet:
    """Normalize a probe output into a flow template: per-packet charges
    live in the columns, never on the shared template."""
    meta = packet.metadata
    meta.seq = None
    meta.cycles_consumed = 0
    meta.cycles_by_device = {}
    return packet


class DeployedRack:
    """A rack with compiled artifacts installed on every device."""

    def __init__(
        self,
        topology: Topology,
        artifacts: CompiledArtifacts,
        profiles: Optional[ProfileDatabase] = None,
        seed: int = 23,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.topology = topology
        self.profiles = profiles or default_profiles()
        self.seed = seed
        self.obs = registry if registry is not None else get_registry()

        #: device name -> clock used to convert that device's cycles to time.
        self._freq_by_device: Dict[str, float] = {
            server.name: server.freq_hz for server in topology.servers
        }
        self._freq_by_device.update(
            {nic.name: nic.freq_hz for nic in topology.smartnics}
        )
        self._fallback_freq = (
            topology.servers[0].freq_hz if topology.servers else 1.7e9
        )

        #: server name -> its pipeline, run by both loops as one hop
        self.servers: Dict[str, ServerHop] = {}
        for server_name, ir in artifacts.bess.items():
            self.servers[server_name] = self._build_server(server_name, ir)

        self.nics: Dict[str, SmartNICRuntime] = {}
        for nic_name, (program, nf_specs) in artifacts.ebpf.items():
            self.nics[nic_name] = self._build_nic(nic_name, program, nf_specs)

        self.of_runtime: Optional[OpenFlowRuntime] = None
        if isinstance(topology.switch, OpenFlowSwitchModel):
            self.of_runtime = self._build_of_switch(artifacts)

        #: functional modules for switch-placed NFs, keyed by node id
        self._switch_modules: Dict[str, object] = {}

        #: columnar probe memo: (device, spi, si, template bytes) ->
        #: :class:`_HopProbe`; cleared whenever routing changes.
        self._hop_probes: Dict[tuple, _HopProbe] = {}
        #: effect content (modules and rules by identity) -> its class
        self._effect_classes: Dict[tuple, _EffectClass] = {}
        #: (server, spi, si) -> is every pipeline module reachable at those
        #: coordinates vector-safe? (static closure walk, memoized)
        self._route_safety: Dict[tuple, bool] = {}
        #: (spi, si) -> :class:`_HopPlan`
        self._hop_plans: Dict[Tuple[int, int], _HopPlan] = {}
        #: spi -> the open :class:`_RouteClass` every flow of the path
        #: starts in
        self._route_roots: Dict[int, _RouteClass] = {}
        #: (chain name, ``id(template)``) -> :class:`_RouteTrace`. Every
        #: traced flow is in ``_flow_paths`` (they clear together), so a
        #: trace hit is a classification hit.
        self._route_traces: Dict[Tuple[str, int], _RouteTrace] = {}
        #: chain name -> (graph, node id -> topological rank), the scalar
        #: schedule's node order
        self._node_ranks: Dict[str, tuple] = {}

        #: monotonic per-rack injection sequence (stamped into packet
        #: metadata; batched device runtimes use it to map emitted packets
        #: back to their inputs).
        self._next_seq = 0

        # -- fault state (chaos engineering hooks) ------------------------
        #: devices currently failed: every packet routed to them is dropped
        #: with reason ``device_failed`` (the link is down, so the packet
        #: never arrives — no packets_in / cycles are charged).
        self._fault_failed: set = set()
        #: device name -> fraction of its packets dropped with reason
        #: ``link_degraded`` (capacity shortfall under link degradation or
        #: core loss). Drops are decided by a deterministic hash of the
        #: packet's injection sequence, so outcomes are identical across
        #: repeated runs and across the per-packet/batched paths.
        self._fault_loss: Dict[str, float] = {}
        #: chain name -> inter-rack ingress hop (remote chains only); see
        #: :meth:`set_interrack_hop`.
        self._interrack: Dict[str, _InterRackHop] = {}

        # -- queueing-aware delay model -----------------------------------
        #: the configured utilization-dependent delay model; the default
        #: identity model stamps queue_us == 0.0 everywhere, preserving
        #: the fixed-cost latency numbers bit-for-bit.
        self.queueing = QueueingModel()
        #: device name -> precomputed delay factor (only devices with a
        #: strictly positive factor are present, so the common lookup in
        #: the stamping hot paths is one dict miss).
        self._queue_factor: Dict[str, float] = {}

        # -- pre-resolved instruments (batch fast path) -------------------
        # Counter objects are resolved once per device here instead of a
        # dict-labelled registry lookup per packet per hop.
        obs = self.obs
        self._flow_hits = obs.counter(
            "rack.flow_cache.lookups", result="hit"
        )
        self._flow_misses = obs.counter(
            "rack.flow_cache.lookups", result="miss"
        )
        self._dev_counters: Dict[str, tuple] = {}
        self._ensure_dev_counters(
            [topology.switch.name, *self.servers, *self.nics]
        )
        #: chain name -> dict of pre-resolved chain-scoped instruments
        self._chain_inst: Dict[str, dict] = {}
        #: (chain, device, reason) -> (chain-drop counter, device-drop counter)
        self._drop_counters: Dict[tuple, tuple] = {}

        self._install_routing(artifacts)

    def __getstate__(self) -> dict:
        # traces key on template identity, and they, the plans and the node
        # ranks are memos: a checkpoint stores none of them
        state = self.__dict__.copy()
        state.update(_hop_plans={}, _route_roots={}, _route_traces={},
                     _node_ranks={})
        return state

    # -- device builders & delta redeploy ----------------------------------------

    def _build_server(self, server_name: str, ir) -> ServerHop:
        pipeline, _port_inc, _port_out, _sched = build_bess_pipeline(
            ir, self.profiles, seed=self.seed,
            freq_hz=self.topology.server(server_name).freq_hz,
        )
        return ServerHop(pipeline)

    def _build_nic(self, nic_name: str, program, nf_specs) -> SmartNICRuntime:
        runtime = SmartNICRuntime(
            self.topology.smartnic(nic_name), self.profiles, seed=self.seed
        )
        runtime.load(program, nf_specs)
        return runtime

    def _build_of_switch(self, artifacts: CompiledArtifacts) -> OpenFlowRuntime:
        runtime = OpenFlowRuntime(self.topology.switch)
        runtime.install_all(artifacts.openflow_rules)
        return runtime

    def _install_routing(self, artifacts: CompiledArtifacts) -> None:
        """Point the rack's routing state at ``artifacts``.

        Rebuilding these lookup tables is cheap (linear in service paths)
        and always done on redeploy; the expensive per-device runtimes are
        handled separately so unchanged ones can be reused.
        """
        self.artifacts = artifacts
        self.paths_by_spi: Dict[int, ServicePath] = {
            path.spi: path for path in artifacts.routing.service_paths
        }
        #: (chain name, node-id route) -> service path; replaces the old
        #: O(paths × packets) linear scan in :meth:`classify`.
        self._path_by_route: Dict[Tuple[str, Tuple[str, ...]], ServicePath] = {
            (path.chain_name, tuple(path.node_ids)): path
            for path in artifacts.routing.service_paths
        }
        #: (spi, entry si) -> (service path, hop index, hop): where a run
        #: that enters at those coordinates is, in one lookup
        self._hop_at: Dict[Tuple[int, int], tuple] = {
            (path.spi, hop.entry_si): (path, i, hop)
            for path in artifacts.routing.service_paths
            for i, hop in enumerate(path.hops)
        }
        #: per-flow classification memo: (chain, vlan vid, 5-tuple) -> path.
        #: The key covers every packet field the chain-DAG walk reads, so a
        #: hit is exact, not probabilistic.
        self._flow_paths: Dict[tuple, ServicePath] = {}

        # columnar memos bind probe outcomes to the installed programs and
        # routes; any artifact change invalidates them wholesale
        self._hop_probes.clear()
        self._effect_classes.clear()
        self._route_safety.clear()
        self._hop_plans.clear()
        self._route_roots.clear()
        self._route_traces.clear()

        #: (spi, entry_si) -> VLAN vid for OF switch hops; replaces the old
        #: O(paths × hops) ``_of_coordinates`` scan per switch pass with a
        #: lookup built once here (the OF rule generator already encoded
        #: these same coordinates, so encoding cannot fail at runtime).
        self._of_vid: Dict[Tuple[int, int], int] = {}
        if self.of_runtime is not None:
            switch_name = self.topology.switch.name
            for path in artifacts.routing.service_paths:
                for hop in path.hops:
                    if hop.device == switch_name:
                        self._of_vid[(path.spi, hop.entry_si)] = encode_vid(
                            path.spi, INITIAL_SI - hop.entry_si
                        )

    def _ensure_dev_counters(self, names) -> None:
        obs = self.obs
        for name in names:
            if name not in self._dev_counters:
                self._dev_counters[name] = (
                    obs.counter("rack.device.packets_in", device=name),
                    obs.counter("rack.device.packets_out", device=name),
                    obs.counter("rack.device.cycles", device=name),
                )

    def redeploy(self, artifacts: CompiledArtifacts) -> RedeployResult:
        """Install a new artifact set, rebuilding only changed devices.

        Per-device program digests (:meth:`CompiledArtifacts.\
device_fingerprints`) decide what happens to each device:

        * digest unchanged → the existing runtime is **reused** as-is,
          preserving stateful NF tables and seeded RNG streams — no
          recompile, no reinstall;
        * digest changed or device newly hosts work → a fresh runtime is
          **built** from the new artifacts;
        * device no longer hosts any subgroup → its runtime is
          **removed**.

        Rack-global routing tables (service paths, hop indices, the flow
        classification memo) are always refreshed — they are cheap and
        must match the new artifact set. Fault state and the injection
        sequence counter survive, so a chaos timeline can span redeploys.
        Per-device counts land on the observability counter
        ``rack.redeploy.devices{action=rebuilt|reused|removed}``.
        """
        switch_name = self.topology.switch.name
        old = self.artifacts.device_fingerprints(switch_name)
        new = artifacts.device_fingerprints(switch_name)
        rebuilt: List[str] = []
        reused: List[str] = []
        removed: List[str] = []

        for name, ir in artifacts.bess.items():
            if name in self.servers and old.get(name) == new[name]:
                reused.append(name)
            else:
                self.servers[name] = self._build_server(name, ir)
                rebuilt.append(name)
        for name in [n for n in self.servers if n not in artifacts.bess]:
            del self.servers[name]
            removed.append(name)

        for name, (program, nf_specs) in artifacts.ebpf.items():
            if name in self.nics and old.get(name) == new[name]:
                reused.append(name)
            else:
                self.nics[name] = self._build_nic(name, program, nf_specs)
                rebuilt.append(name)
        for name in [n for n in self.nics if n not in artifacts.ebpf]:
            del self.nics[name]
            removed.append(name)

        if new.get(switch_name) != old.get(switch_name):
            # reloading the ToR program resets switch-placed NF state
            self._switch_modules.clear()
            if isinstance(self.topology.switch, OpenFlowSwitchModel):
                self.of_runtime = self._build_of_switch(artifacts)
            if new.get(switch_name) is not None:
                rebuilt.append(switch_name)
            else:
                removed.append(switch_name)
        elif new.get(switch_name) is not None:
            reused.append(switch_name)

        self._install_routing(artifacts)
        self._ensure_dev_counters([switch_name, *self.servers, *self.nics])
        for action, names in (
            ("rebuilt", rebuilt), ("reused", reused), ("removed", removed)
        ):
            if names:
                self.obs.counter(
                    "rack.redeploy.devices", action=action
                ).inc(len(names))
        return RedeployResult(
            rebuilt=sorted(rebuilt),
            reused=sorted(reused),
            removed=sorted(removed),
        )

    # -- fault injection ---------------------------------------------------------

    def set_device_failed(self, device: str, failed: bool = True) -> None:
        """Fail (or recover) a device: failed devices drop every packet.

        The ToR cannot be failed — it is the rack's coordinator; chaos
        timelines validate this before the run.
        """
        if device == self.topology.switch.name:
            raise DataplaneError("cannot fail the ToR switch")
        self.topology.device(device)  # validates existence
        if failed:
            self._fault_failed.add(device)
        else:
            self._fault_failed.discard(device)

    def set_drop_fraction(self, device: str, fraction: float) -> None:
        """Drop ``fraction`` of the device's packets (capacity shortfall)."""
        if not 0.0 <= fraction <= 1.0:
            raise DataplaneError(
                f"drop fraction must be within [0, 1], got {fraction}"
            )
        if fraction > 0.0:
            self._fault_loss[device] = fraction
        else:
            self._fault_loss.pop(device, None)

    def clear_faults(self) -> None:
        self._fault_failed.clear()
        self._fault_loss.clear()

    # -- inter-rack fabric hop ---------------------------------------------------

    def set_interrack_hop(
        self,
        chain: str,
        link: str,
        latency_us: float,
        *,
        drop_fraction: float = 0.0,
    ) -> None:
        """Route a chain's traffic across an inter-rack link into this rack.

        Every delivered packet of ``chain`` carries an extra
        ``interrack_us = 2 * latency_us`` latency component: out to the
        home rack and back to the ingress. ``drop_fraction`` models link
        capacity shortfall: that fraction of the chain's packets is dropped at the
        fabric ingress (reason ``interrack_capacity``) before any rack
        device sees them, decided by the same deterministic seq hash as
        device faults, salted with the link name.
        """
        if latency_us < 0:
            raise DataplaneError("inter-rack latency_us must be >= 0")
        if not 0.0 <= drop_fraction <= 1.0:
            raise DataplaneError(
                f"drop fraction must be within [0, 1], got {drop_fraction}"
            )
        link_seed = (self.seed + zlib.crc32(link.encode("utf-8"))) & 0x7FFFFFFF
        self._interrack[chain] = _InterRackHop(
            link=link,
            latency_us=latency_us,
            drop_fraction=drop_fraction,
            link_seed=link_seed,
            extra_us=2 * latency_us,
        )

    def clear_interrack_hops(self) -> None:
        self._interrack.clear()

    def _count_interrack(self, chain: str, hop: _InterRackHop, count: int,
                         kept: int) -> None:
        """Count a batch of ``count`` packets onto the fabric link, and
        those of them the link shed (``kept`` arrive)."""
        self.obs.counter("interrack.packets", link=hop.link).inc(count)
        if kept < count:
            self._count_drops(chain, hop.link, "interrack_capacity",
                              count - kept)
            self.obs.counter("interrack.drops", link=hop.link).inc(
                count - kept)

    # -- queueing-aware delay ----------------------------------------------------

    def configure_queueing(
        self,
        model: QueueingModel,
        utilization: Optional[Dict[str, float]] = None,
    ) -> None:
        """Install the delay model plus per-device utilizations.

        ``utilization`` maps device name -> offered-load fraction (from
        the placement's assigned rates, never wall clock — determinism).
        Subsequent scalar and columnar stamps charge each device's exec
        contribution an extra ``contribution * delay_factor(rho)`` as
        ``queue_us``. Factors are precomputed here so the per-packet cost
        is one dict lookup.
        """
        self.queueing = model
        self._queue_factor = {}
        for device, rho in sorted((utilization or {}).items()):
            factor = model.delay_factor(rho)
            if factor > 0.0:
                self._queue_factor[device] = factor

    def _fault_reason(self, device: str, seq: int) -> Optional[str]:
        """Why a packet headed for ``device`` is dropped, or None.

        The partial-loss decision is :func:`seq_dropped` under the rack
        seed, so a given (seed, seq) always resolves the same way — the
        chaos report's determinism across runs and batching modes rests on
        this.
        """
        if device in self._fault_failed:
            return "device_failed"
        loss = self._fault_loss.get(device)
        if loss and seq_dropped(seq, self.seed, loss):
            return "link_degraded"
        return None

    # -- observability helpers ---------------------------------------------------

    def device_freq(self, device: str) -> float:
        return self._freq_by_device.get(device, self._fallback_freq)

    def _chain_instruments(self, chain: str) -> dict:
        """Chain-scoped instruments, resolved once per chain name."""
        inst = self._chain_inst.get(chain)
        if inst is None:
            obs = self.obs
            inst = self._chain_inst[chain] = {
                "injected": obs.counter("rack.packets.injected", chain=chain),
                "delivered": obs.counter(
                    "rack.packets.delivered", chain=chain
                ),
                #: (histogram, the stamped packet field it observes)
                "observed": [
                    (obs.histogram("rack.latency_us", chain=chain),
                     "latency_us"),
                    *((obs.histogram("rack.latency_component_us",
                                     chain=chain, component=field), field)
                      for field in ("exec_us", "queue_us", "bounce_us",
                                    "switch_us")),
                ],
            }
        return inst

    def forget_chain(self, chain: str) -> None:
        """A departed chain's series leave the registry, and the handles
        cached here with them: a long-lived rack neither keeps nor
        checkpoints instruments nothing will touch again."""
        self._chain_inst.pop(chain, None)
        self._node_ranks.pop(chain, None)
        for key in [key for key in self._drop_counters if key[0] == chain]:
            del self._drop_counters[key]
        self.obs.drop_series(chain=chain)

    def _count_drops(self, chain: str, device: str, reason: str,
                     count: int) -> None:
        """Count ``count`` of ``chain``'s packets dropped at ``device`` for
        ``reason``, by chain and by device."""
        key = (chain, device, reason)
        pair = self._drop_counters.get(key)
        if pair is None:
            pair = self._drop_counters[key] = (
                self.obs.counter(
                    "rack.packets.dropped", chain=chain, reason=reason
                ),
                self.obs.counter(
                    "rack.device.drops", device=device, reason=reason
                ),
            )
        for counter in pair:
            counter.inc(count)

    def _cycles_counter(self, device: str):
        entry = self._dev_counters.get(device)
        if entry is not None:
            return entry[2]
        return self.obs.counter("rack.device.cycles", device=device)

    # -- classification ---------------------------------------------------------

    def classify(self, chain_placement: ChainPlacement, packet: Packet
                 ) -> ServicePath:
        """Pick the service path a packet takes through a chain.

        Memoized per flow: the chain-DAG walk and branch hash run once per
        (chain, vlan vid, packed flow key) — covering every field the walk
        reads — and subsequent packets of the flow hit the cache
        (``rack.flow_cache.lookups{result=hit|miss}``, mirroring the
        placement-cache idiom).
        """
        key = self._flow_key(chain_placement.name, packet)
        path = self._flow_paths.get(key)
        if path is not None:
            self._flow_hits.inc()
            return path
        self._flow_misses.inc()
        path = self._classify_walk(chain_placement, packet)
        if len(self._flow_paths) >= _FLOW_CACHE_MAX:
            self._flow_paths.clear()
            self._route_traces.clear()
        self._flow_paths[key] = path
        return path

    @staticmethod
    def _flow_key(chain: str, packet: Packet) -> tuple:
        vlan = packet.vlan
        return (chain, vlan.vid if vlan is not None else None,
                packet.flow_key_bytes())

    def _classify_walk(self, chain_placement: ChainPlacement, packet: Packet
                       ) -> ServicePath:
        """The uncached chain-DAG walk (§4.1).

        Evaluates branch-arm conditions against the packet (vlan tag /
        5-tuple fields); unconditional splits choose by a stable flow hash
        weighted with the operators' split estimates. This is the switch's
        initial SPI/SI classification.
        """
        graph = chain_placement.chain.graph
        node_path: List[str] = []
        (current,) = graph.entry_nodes()
        while True:
            node_path.append(current)
            edges = graph.out_edges(current)
            if not edges:
                break
            if len(edges) == 1:
                current = edges[0].dst
                continue
            conditioned = [e for e in edges if e.condition]
            chosen = None
            for edge in conditioned:
                if _edge_condition_matches(edge.condition, packet):
                    chosen = edge
                    break
            if chosen is None:
                unconditioned = [e for e in edges if not e.condition]
                pool = unconditioned or edges
                digest = packet.flow_digest()
                total = sum(e.fraction for e in pool)
                point = (digest % 10_000) / 10_000 * total
                acc = 0.0
                chosen = pool[-1]
                for edge in pool:
                    acc += edge.fraction
                    if point < acc:
                        chosen = edge
                        break
            current = chosen.dst
        path = self._path_by_route.get(
            (chain_placement.name, tuple(node_path))
        )
        if path is not None:
            return path
        raise DataplaneError(
            f"no service path matches route {node_path} of chain "
            f"{chain_placement.name}"
        )

    # -- event loop ---------------------------------------------------------------

    def run(self, chain_placement: ChainPlacement,
            packets: List[Packet]) -> RunResult:
        """Run packets through their chain; the single injection entry point.

        ``outputs`` has one entry per input, in input order: the delivered
        packet, or ``None`` where it was dropped. Classification, hop
        resolution, device dispatch, and observability updates are
        amortized across the batch; a single packet is simply a batch of
        one.

        Per-packet semantics are batch-size independent: each service
        path's packets start as one run at the chain's entry node, and
        :meth:`_run_graph` hands every node all of its packets, from every
        path, in injection order — so every module sees exactly the
        packets serial injection would give it, in the same order, and
        per-module RNG streams and NF state evolve exactly as under serial
        injection.
        """
        if not packets:
            return RunResult(outputs=[])
        name = chain_placement.name
        classify = self.classify
        entries = []
        next_seq = self._next_seq
        for packet in packets:
            path = classify(chain_placement, packet)
            packet.metadata.chain_id = name
            packet.metadata.seq = next_seq
            next_seq += 1
            entries.append((packet, path))
        self._next_seq = next_seq
        self._chain_instruments(name)["injected"].inc(len(packets))

        results: Dict[int, Optional[Packet]] = {}
        hop = self._interrack.get(name)
        live_entries = entries
        if hop is not None:
            # the shed packets' seqs never reach ``results``: outputs None
            if hop.drop_fraction:
                live_entries = [
                    entry for entry in entries if not seq_dropped(
                        entry[0].metadata.seq, hop.link_seed,
                        hop.drop_fraction)
                ]
            self._count_interrack(name, hop, len(entries), len(live_entries))
        runs: Dict[int, List[Packet]] = {}
        hop_records: Dict[int, List[dict]] = {}
        for packet, path in live_entries:
            runs.setdefault(path.spi, []).append(packet)
            hop_records[packet.metadata.seq] = []
        self._run_graph(chain_placement, [
            _Cohort(run_packets, spi, INITIAL_SI, 0, 1, _MAX_EVENTS)
            for spi, run_packets in runs.items()
        ], results, hop_records)
        return RunResult(outputs=[
            results.get(packet.metadata.seq) for packet, _ in entries
        ])

    # -- columnar (vectorized) event loop ------------------------------------------

    def run_columns(self, chain_placement: ChainPlacement,
                    columns: PacketColumns) -> ColumnarRunResult:
        """Columnar counterpart of :meth:`run` — the vectorized fast path.

        ``columns`` is consumed: its sequence and class arrays are assigned
        in place. Counter-for-counter and bit-for-bit equivalent to cloning
        the templates and calling :meth:`run`, in three steps:

        * **trace** — a flow template the rack has not seen is classified
          and given a :class:`_RouteTrace`; the first block to carry it to
          a hop *probes* it there (one real clone through the platform
          runtime, counters undone) and the trace keeps the outcome;
        * **class** — traces that agree on every hop share a
          :class:`_RouteClass`, interned hop by hop;
        * **replay** — a batch looks its signatures' traces up once and
          hands :meth:`_run_graph` one column run per service path; each
          run replays each hop per class: counter deltas times the class's
          population, one table-take for the cycle column, RNG draws per
          member packet in injection order across the runs that meet
          there, fault and loss state read at that moment.

        So a warm batch costs Python per route class and hop, never per
        signature or packet. Anything the probe model cannot express
        (stateful NFs, multi-emit pipelines, classification-cache pressure)
        takes the scalar steps of the same schedule via
        :meth:`PacketColumns.materialize_packets`.
        """
        name = chain_placement.name
        n = len(columns)
        seq_base = self._next_seq
        result = ColumnarRunResult(chain_id=name, count=n, seq_base=seq_base)
        if n == 0:
            return result
        columns.resolve()
        templates = columns.templates
        traces = list(map(
            self._route_traces.get, zip(repeat(name), map(id, templates))
        ))
        untraced = [k for k, trace in enumerate(traces) if trace is None] \
            if None in traces else ()
        if untraced:
            fresh = [templates[k] for k in untraced]
            dirty = any(
                t.metadata.cycles_consumed or t.metadata.cycles_by_device
                or t.metadata.drop_flag
                for t in fresh
            )
            if dirty or len(self._flow_paths) + len(
                {self._flow_key(name, t) for t in fresh}
                - self._flow_paths.keys()
            ) >= _FLOW_CACHE_MAX:
                # pre-charged templates and a classification cache about to
                # clear mid-batch are scalar-path territory: replicate exactly
                packets, _records = columns.materialize_packets()
                scalar_run = self.run(chain_placement, packets)
                result.scalar = {
                    seq_base + i: packet
                    for i, packet in enumerate(scalar_run.outputs)
                }
                return result
            # the cache cannot clear inside this batch, so classifying once
            # per new flow, in this order, is unobservable
            for k, template in zip(untraced, fresh):
                traces[k] = self._trace_flow(chain_placement, template)
        # every other packet is a classification hit: its flow is traced,
        # or is a new one's clone
        self._flow_hits.inc(n - len(untraced))
        columns.traces = traces
        routes = list(map(_route_of, traces))
        classes = columns.classes = list(dict.fromkeys(routes))
        if len(classes) == 1:
            columns.cid = np.zeros(n, dtype=np.intp)
        else:
            index = {route: c for c, route in enumerate(classes)}
            columns.cid = np.fromiter(
                map(index.__getitem__, routes), np.intp, len(routes)
            )[columns.sid]
        columns.seq = np.arange(seq_base, seq_base + n, dtype=np.int64)
        self._next_seq = seq_base + n
        self._chain_instruments(name)["injected"].inc(n)

        hop = self._interrack.get(name)
        if hop is not None:
            keep = ~vector_fault_mask(columns.seq, hop.link_seed,
                                      hop.drop_fraction)
            kept = int(keep.sum())
            self._count_interrack(name, hop, n, kept)
            if kept < n:
                columns = columns.compress(keep)
            if not kept:
                return result

        # one run per service path, as run() starts its packets
        spis = [route.path.spi for route in classes]
        if len(set(spis)) == 1:
            runs = [(spis[0], columns)]
        else:
            spi_of = np.asarray(spis)[columns.cid]
            present, first = np.unique(spi_of, return_index=True)
            runs = [(spi, columns.compress(spi_of == spi))
                    for _first, spi in sorted(zip(first.tolist(),
                                                  present.tolist()))]
        self._run_graph(chain_placement, [
            _Cohort(None, spi, INITIAL_SI, 0, 1, _MAX_EVENTS, run)
            for spi, run in runs
        ], result.scalar, {}, result)
        return result

    def _trace_flow(self, cp: ChainPlacement, template: Packet) -> _RouteTrace:
        """Classify a flow template the rack has not traced and start its
        trace in its service path's root class."""
        path = self.classify(cp, template)
        root = self._route_roots.get(path.spi) \
            or self._route_roots.setdefault(path.spi, _RouteClass(path))
        if len(self._route_traces) >= _FLOW_CACHE_MAX:
            self._route_traces.clear()
        trace = self._route_traces[(cp.name, id(template))] = _RouteTrace(
            root, template
        )
        return trace

    def _plan_hop(self, cp: ChainPlacement, path: ServicePath,
                  si: int) -> _HopPlan:
        """Resolve the hop entered at ``si`` into its :class:`_HopPlan`."""
        spi = path.spi
        _path, hop_index, hop = self._hop_at[(spi, si)]
        nxt = path.hop_after(hop_index)
        device = hop.device
        on_switch = device == self.topology.switch.name
        runtime = probe = None
        if on_switch:
            if self.of_runtime is not None:
                runtime = self.of_runtime
                reason = "openflow_rule"
                probe = ("_probe_of", (spi, si))
            else:
                reason = "switch_nf"
                # read off the NF classes: an instance is only made when a
                # packet reaches it, in either loop
                nodes = cp.chain.graph.nodes
                if all(getattr(MODULE_CLASSES.get(nodes[nid].nf_class),
                               "vector_safe", False)
                       for nid in hop.node_ids):
                    probe = ("_probe_pisa", (cp, hop))
        elif hop.platform == Platform.SERVER.value:
            reason = "server_pipeline"
            server_rt = self.servers.get(device)
            if server_rt is not None \
                    and self._server_route_safe(device, spi, si):
                probe = ("_probe_server", (server_rt, spi, si))
        elif hop.platform == Platform.SMARTNIC.value:
            reason = "nic_program"
            runtime = self.nics.get(device)
            if runtime is not None and runtime.program is not None:
                entry = runtime.route_entry(spi, si)
                if entry is None or entry[0].vector_safe:
                    probe = ("_probe_nic", (runtime, spi, si))
        else:
            raise DataplaneError(f"unexpected hop platform {hop.platform}")
        plan = self._hop_plans[(spi, si)] = _HopPlan(
            device=device, platform=hop.platform, on_switch=on_switch,
            runtime=runtime, reason=reason, probe=probe,
            key=(device, spi, si),
            exit_si=nxt.entry_si if on_switch and nxt is not None else 0,
            freq=self.device_freq(device),
            counters=self._dev_counters.get(device),
        )
        return plan

    def _trace_hop(self, cols: PacketColumns, plan: _HopPlan) -> None:
        """Some flow of the run is at this hop for the first time: probe
        every such flow the memo has not seen here in one call to the
        platform's probe, move each trace to the class its outcome puts it
        in, and renumber the run's class column."""
        depth = len(cols.hops)
        classes = cols.classes
        traces = cols.traces
        present = np.flatnonzero(np.bincount(cols.sid)).tolist()
        arriving = [k for k in present
                    if len(traces[k].route.steps) == depth]
        # float-order corner: revisiting a device would interleave with
        # earlier charges in cycles_by_device insertion order; rare enough
        # to take the scalar path
        found: Dict[tuple, Optional[_HopProbe]] = {}
        keys: List[Optional[tuple]] = [None] * len(arriving)
        if plan.probe and plan.device not in cols.device_cycles:
            memo = self._hop_probes
            missed: Dict[tuple, Packet] = {}
            for i, k in enumerate(arriving):
                template = traces[k].templates[depth]
                key = keys[i] = (*plan.key, template.data)
                probe = memo.get(key)
                if probe is not None:
                    found[key] = probe
                elif key not in missed:
                    missed[key] = template
            if missed:
                method, args = plan.probe
                for key, probe in zip(missed, getattr(self, method)(
                    *args, list(missed.values())
                )):
                    found[key] = probe
                    if probe is not None:
                        if len(memo) >= _FLOW_CACHE_MAX:
                            memo.clear()
                        memo[key] = probe
        for k, key in zip(arriving, keys):
            trace = traces[k]
            probe = found.get(key) if key is not None else None
            trace.route = trace.route.after(probe)
            if probe is not None and probe.survived:
                trace.templates.append(probe.template)
        table = np.zeros(len(traces), dtype=np.intp)
        index = {route: c for c, route in enumerate(classes)}
        for k in present:
            route = traces[k].route
            c = index.get(route)
            if c is None:
                c = index[route] = len(classes)
                classes.append(route)
            table[k] = c
        cols.cid = table[cols.sid]

    def _column_step(self, cp: ChainPlacement, group: List[_Cohort],
                     result: ColumnarRunResult,
                     hop_records: Dict[int, List[dict]]) -> List[_Cohort]:
        """One step of a :meth:`run_columns` walk: the group's hop, whole.

        Column runs replay it per live route class when every run of the
        group is columnar and replayable there; else the whole group takes
        the scalar step, since a server module draws its cost samples over
        all the group's packets in injection order. On the switch (no
        draws; a replayable run meets only stateless NFs) each run picks
        for itself. Untraced flows are probed before any side effect.
        Returns the runs that go on, one per next coordinates.
        """
        replay = []
        scalar = []
        for cohort in group:
            cols = cohort.cols
            if cols is not None:
                spi, si = cohort.path.spi, cohort.hop.entry_si
                plan = self._hop_plans.get((spi, si)) \
                    or self._plan_hop(cp, cohort.path, si)
                # live classes in ascending order, how many packets are in
                # each, and each one's outcome at this hop
                try:
                    counts, live, probes = cols.census()
                except IndexError:
                    self._trace_hop(cols, plan)
                    counts, live, probes = cols.census()
                if None not in probes:
                    replay.append((cohort, plan, cols, counts, live, probes))
                    continue
            scalar.append(cohort)
        moving = []
        if scalar:
            if group[0].hop.device != self.topology.switch.name:
                scalar, replay = group, []
            moving = self._fallback_block_columns(cp, scalar, result,
                                                  hop_records)
        steps = []
        for step in replay:
            cohort, plan, cols = step[:3]
            device = plan.device
            if not plan.on_switch:
                cohort.excursions += 1
                cohort.switch_passes += 1
                if device in self._fault_failed:
                    self._count_drops(cp.name, device, "device_failed",
                                      len(cols))
                    continue
                loss = self._fault_loss.get(device)
                drop = (vector_fault_mask(cols.seq, self.seed, loss)
                        if loss else None)
                if drop is not None and drop.any():
                    self._count_drops(cp.name, device, "link_degraded",
                                      int(drop.sum()))
                    cols = cols.compress(~drop)
                    if not len(cols):
                        continue
                    step = (cohort, plan, cols, *cols.census())
            plan.counters[0].inc(len(cols))
            steps.append(step)
        for (cohort, plan, cols, _counts, live, probes), drawn in zip(
            steps, self._replay_effects(steps)
        ):
            _in_c, out_c, cycles_c = plan.counters
            charged = cols.spread(live, list(map(_pkt_cycles_of, probes)))
            if drawn is not None:
                charged = charged + drawn
            survived = list(map(_survived_of, probes))
            if not all(survived):
                surv = cols.spread(live, survived, bool)
                charged = charged[surv]
                self._count_drops(cp.name, plan.device, plan.reason,
                                  len(cols) - len(charged))
                live = [c for c, p in zip(live, probes) if p.survived]
                probes = [p for p in probes if p.survived]
                if not live:
                    continue
                cols = cols.compress(surv)
            out_c.inc(len(charged))
            cols.cycles = cols.cycles + charged
            cohort.cols = cols
            moving.append(cohort)
            if plan.on_switch:
                # switch cycles ride on the packet but on no device clock
                cols.hops.append(HopColumn(
                    plan.device, plan.platform,
                    np.zeros(len(cols), dtype=np.int64),
                    np.zeros(len(cols), dtype=np.float64),
                ))
                cohort.spi, cohort.si = cohort.path.spi, plan.exit_si
                continue
            total = int(charged.sum())
            if total:
                cycles_c.inc(total)
            cols.charge_device(plan.device, charged)
            cols.hops.append(HopColumn(
                plan.device, plan.platform, charged,
                charged / plan.freq * 1e6,
            ))
            coords = list(dict.fromkeys(map(_next_coords_of, probes)))
            (cohort.spi, cohort.si) = coords[0]
            if len(coords) > 1:
                which = cols.spread(live, [
                    coords.index(_next_coords_of(p)) for p in probes
                ])
                cohort.cols = cols.compress(which == 0)
                moving.extend(
                    _Cohort(None, spi, si, cohort.excursions,
                            cohort.switch_passes, cohort.budget,
                            cols.compress(which == j))
                    for j, (spi, si) in enumerate(coords) if j
                )
        return moving

    def _fallback_block_columns(self, cp: ChainPlacement,
                                group: List[_Cohort],
                                result: ColumnarRunResult,
                                hop_records: Dict[int, List[dict]]
                                ) -> List[_Cohort]:
        """The scalar step of a columnar walk. Column runs in the group are
        materialized first: state so far (cycles, hop records) comes
        along, and from here on they are packet runs."""
        for cohort in group:
            if cohort.cols is not None:
                result.structural_fallback = True
                cohort.packets, records = cohort.cols.materialize_packets(
                    chain_id=cp.name
                )
                hop_records.update(records)
                cohort.cols = None
        if group[0].hop.device == self.topology.switch.name:
            return self._switch_step(cp, group, result.scalar, hop_records)
        return self._device_step(cp, group, result.scalar, hop_records)

    def _replay_effects(self, steps: list) -> List[Optional[np.ndarray]]:
        """Replay each live class's counter effect across its run,
        multiplied by the class's packets, for every run of a column step
        (``(cohort, plan, cols, counts, live, probes)`` each).

        Returns each run's per-packet RNG cost draws (None when no module
        draws). Each module's stream must advance exactly as in the scalar
        step: one ``uniform(low, worst)`` draw per packet that reaches it,
        in injection order over every run of the step. ``low + (worst -
        low) * r`` with ``r`` pulled from the module's own RNG reproduces
        ``random.Random.uniform`` bit-for-bit, and the float64 elementwise
        arithmetic matches the scalar expression exactly.
        """
        draws: Dict[int, tuple] = {}
        # classes are numbered across the step: run r's from base[r]
        base = 0
        for _cohort, plan, _cols, counts, live, probes in steps:
            runtime = plan.runtime
            for c, probe, k in zip(live, probes, counts[live].tolist()):
                effect = probe.effect
                for m, rx_d, tx_d, dr_d, cy_d in effect.module_deltas:
                    m.rx_packets += rx_d * k
                    m.tx_packets += tx_d * k
                    m.dropped_packets += dr_d * k
                    m.cycles_charged += cy_d * k
                if runtime is not None:
                    rx_d, tx_d, dr_d, cy_d = effect.runtime_deltas
                    runtime.rx += rx_d * k
                    runtime.tx += tx_d * k
                    runtime.drops += dr_d * k
                    if cy_d:
                        runtime.cycles_charged += cy_d * k
                for rule, match_len in effect.of_rules:
                    rule.packets += k
                    rule.bytes += match_len * k
                for module in effect.rng_modules:
                    draws.setdefault(id(module), (module, []))[1].append(
                        base + c)
            base += len(counts)
        if not draws:
            return [None] * len(steps)
        _cohort, _plan, cols, counts, _live, _probes = steps[0]
        cid, seq = cols.cid, cols.seq
        if len(steps) > 1:
            bases = np.cumsum([0, *(len(step[3]) for step in steps[:-1])])
            cid = np.concatenate([step[2].cid + b
                                  for step, b in zip(steps, bases)])
            seq = np.concatenate([step[2].seq for step in steps])
            counts = np.concatenate([step[3] for step in steps])
        # packets grouped by class, each group still in step order
        order = np.argsort(cid, kind="stable")
        ends = np.cumsum(counts).tolist()
        members, lows, spans, rolls = [], [], [], []
        for module, ids in draws.values():
            groups = [order[ends[c] - counts[c]:ends[c]] for c in ids]
            member = groups[0]
            if len(groups) > 1:
                # in injection order, across the step's runs
                member = np.concatenate(groups)
                member = member[np.argsort(seq[member])]
            low, worst = module._cost_bounds()
            rolls.append(_unit_draws(module._rng, len(member)))
            members.append(member)
            lows.append(low)
            spans.append(worst - low)
        sizes = [len(member) for member in members]
        charged = (np.repeat(lows, sizes) + np.repeat(spans, sizes)
                   * np.concatenate(rolls)).astype(np.int64)
        starts = np.cumsum([0, *sizes[:-1]])
        for (module, _ids), total in zip(
            draws.values(), np.add.reduceat(charged, starts).tolist()
        ):
            module.cycles_charged += total
        # a packet that passed two drawing modules is charged both draws
        # (sums of cycle counts are exact in float64)
        drawn = np.bincount(np.concatenate(members), weights=charged,
                            minlength=len(cid)).astype(np.int64)
        if len(steps) == 1:
            return [drawn]
        return np.split(drawn,
                        np.cumsum([len(step[2]) for step in steps[:-1]]))

    # -- columnar hop probes -------------------------------------------------------
    #
    # One probe per platform, called once per hop with every template the
    # probe memo misses there, returning one _HopProbe per template (None:
    # not replayable). Modules run through Module.probe_batch, which hands
    # receive()'s bookkeeping back instead of charging it, so no module
    # counter, profile database or RNG stream is touched; the OpenFlow
    # probe runs the real switch and puts its counters back.

    def _with_effect(self, probe: _HopProbe, module_deltas=(),
                     rng_modules=(), runtime_deltas=(0, 0, 0, 0),
                     of_rules=()) -> _HopProbe:
        """``probe`` with its counter effect interned: modules and rules
        key by identity, so equal effects share one class."""
        module_deltas = tuple(module_deltas)
        rng_modules = tuple(rng_modules)
        of_rules = tuple(of_rules)
        effect_key = (
            module_deltas, rng_modules, runtime_deltas,
            tuple((id(rule), length) for rule, length in of_rules),
        )
        probe.effect = self._effect_classes.get(effect_key)
        if probe.effect is None:
            probe.effect = self._effect_classes[effect_key] = _EffectClass(
                module_deltas, rng_modules, runtime_deltas, of_rules,
            )
        return probe

    def _probe_of(self, spi: int, si: int, templates: List[Packet]
                  ) -> List[Optional[_HopProbe]]:
        of = self.of_runtime
        vid = self._of_vid[(spi, si)]
        start = before = (of.rx, of.tx, of.drops)
        probes = []
        try:
            for template in templates:
                clone = template.copy()
                if clone.vlan is None:
                    clone.push_vlan(vid)
                else:
                    clone.vlan.vid = vid
                    clone.commit()
                trace: List[tuple] = []
                of._match_trace = trace
                of_result = of.process(clone)
                after = (of.rx, of.tx, of.drops)
                runtime_deltas = (after[0] - before[0], after[1] - before[1],
                                  after[2] - before[2], 0)
                before = after
                for rule, match_len in trace:
                    rule.packets -= 1
                    rule.bytes -= match_len
                if of_result.dropped:
                    probe = _HopProbe(survived=False)
                else:
                    out = of_result.packet
                    out.pop_vlan()
                    probe = _HopProbe(survived=True,
                                      template=_freeze_template(out))
                probes.append(self._with_effect(
                    probe, runtime_deltas=runtime_deltas, of_rules=trace))
        finally:
            of._match_trace = None
            of.rx, of.tx, of.drops = start
        return probes

    def _probe_pisa(self, cp: ChainPlacement, hop, templates: List[Packet]
                    ) -> List[Optional[_HopProbe]]:
        # each template's clone (or what a multi-emit NF made of it), and
        # the switch NFs it met
        live = [[template.copy()] for template in templates]
        deltas: List[list] = [[] for _ in templates]
        for nid in hop.node_ids:
            origins = [k for k, packets in enumerate(live) for _ in packets]
            if not origins:
                break
            # made only once a packet reaches it, as in the scalar loop
            module = self._switch_module(cp, nid)
            results = module.probe_batch(
                [pkt for packets in live for pkt in packets])
            live = [[] for _ in templates]
            charged: Dict[int, tuple] = {}
            for k, (outputs, counts) in zip(origins, results):
                live[k] += [pkt for _gate, pkt in outputs]
                total = charged.get(k)
                charged[k] = counts if total is None \
                    else tuple(map(add, total, counts))
            for k, counts in charged.items():
                deltas[k].append((module, *counts))
        probes: List[Optional[_HopProbe]] = []
        for packets, module_deltas in zip(live, deltas):
            if len(packets) > 1:
                probes.append(None)  # multi-emit NFs take the scalar path
                continue
            if packets:
                out = packets[0]
                pkt_cycles = out.metadata.cycles_consumed
                probe = _HopProbe(survived=True,
                                  template=_freeze_template(out),
                                  pkt_cycles=pkt_cycles)
            else:
                probe = _HopProbe(survived=False)
            probes.append(self._with_effect(probe, module_deltas))
        return probes

    def _probe_server(self, hop: ServerHop, spi: int, si: int,
                      templates: List[Packet]) -> List[Optional[_HopProbe]]:
        clones = []
        for k, template in enumerate(templates):
            clone = template.copy()
            meta = clone.metadata
            # the hop's probe mode tells its inputs apart by seq; no module
            # reads it, and _freeze_template clears it again
            meta.seq = k
            meta.spi, meta.si = spi, si
            clones.append(clone)
        charged: Dict[int, Dict[object, List[int]]] = {
            k: {} for k in range(len(templates))
        }
        emitted_by: List[List[Packet]] = [[] for _ in templates]
        for out in hop.push(clones, charged):
            emitted_by[out.metadata.seq].append(out)
        rank = hop.rank
        probes: List[Optional[_HopProbe]] = []
        for k, outs in enumerate(emitted_by):
            module_deltas = sorted(
                ((module, *counts) for module, counts in charged[k].items()),
                key=lambda entry: rank[entry[0].name],
            )
            # the modules that would draw a cost sample: their own profile
            # database is what Module.account reads
            rng_modules = [
                entry[0] for entry in module_deltas
                if entry[0].database is not None
                and entry[0].nf_class is not None
            ]
            if len(outs) > 1 or any(
                charged[k][module][0] != 1 for module in rng_modules
            ):
                probes.append(None)  # multi-emit or revisit: scalar path
                continue
            if outs:
                out = outs[0]
                meta = out.metadata
                pkt_cycles = meta.cycles_consumed
                probe = _HopProbe(survived=True,
                                  template=_freeze_template(out),
                                  next_spi=meta.spi, next_si=meta.si,
                                  pkt_cycles=pkt_cycles)
            else:
                probe = _HopProbe(survived=False)
            probes.append(self._with_effect(probe, module_deltas, rng_modules))
        return probes

    def _probe_nic(self, runtime: SmartNICRuntime, spi: int, si: int,
                   templates: List[Packet]) -> List[Optional[_HopProbe]]:
        """:meth:`SmartNICRuntime.run` in probe mode, on clones entering
        at (spi, si)."""
        clones = []
        for template in templates:
            clone = template.copy()
            clone.metadata.spi, clone.metadata.si = spi, si
            clones.append(clone)
        charged: List[tuple] = []
        probes: List[Optional[_HopProbe]] = []
        for out, (module_deltas, runtime_deltas) in zip(
            runtime.run(clones, charged), charged
        ):
            if out is not None:
                meta = out.metadata
                pkt_cycles = meta.cycles_consumed
                probe = _HopProbe(survived=True,
                                  template=_freeze_template(out),
                                  next_spi=meta.spi, next_si=meta.si,
                                  pkt_cycles=pkt_cycles)
            else:
                probe = _HopProbe(survived=False)
            probes.append(self._with_effect(
                probe, module_deltas, runtime_deltas=runtime_deltas))
        return probes

    def _server_route_safe(self, server: str, spi: int, si: int) -> bool:
        """Can a (server, coordinates) hop be probe-replayed?

        Decided from the pipeline's wiring, memoized, *before* any probe:
        pushing even one clone through an unsafe module (say NAT) would
        already mutate its state. The framework modules are all safe.
        """
        key = (server, spi, si)
        cached = self._route_safety.get(key)
        if cached is None:
            cached = self._route_safety[key] = all(
                module.vector_safe
                for module in self.servers[server].nf_modules(spi, si)
            )
        return cached

    def _finish_columns(self, run: _Cohort,
                        interrack: Optional[_InterRackHop],
                        result: ColumnarRunResult) -> tuple:
        """Stamp a finished column run: its latency columns, kept as one of
        ``result``'s blocks. Returns ``(seq, values)``, ``values`` one
        column per latency histogram, for :meth:`_finish_batch` to
        observe."""
        cols = run.cols
        n = len(cols)
        queue_factor = self._queue_factor
        # each sum starts at its first term (0.0 + x is x, bit for bit)
        exec_us = queue_us = None
        attributed = 0
        for device in cols.device_order:
            arr = cols.device_cycles[device]
            contribution = arr / self.device_freq(device) * 1e6
            exec_us = contribution if exec_us is None \
                else exec_us + contribution
            factor = queue_factor.get(device)
            if factor:
                wait = contribution * factor
                queue_us = wait if queue_us is None else queue_us + wait
            attributed = attributed + arr
        if exec_us is None:
            exec_us = np.zeros(n, dtype=np.float64)
        unattributed = cols.cycles - attributed
        over = unattributed > 0
        if bool(over.any()):
            # unattributed cycles take the fallback clock and, as in the
            # scalar stamp, accrue no queueing wait
            exec_us[over] = (
                exec_us[over]
                + unattributed[over] / self._fallback_freq * 1e6
            )
        bounce_us = run.excursions * self.topology.bounce_rtt_us
        switch_us = run.switch_passes * SWITCH_TRANSIT_US
        if queue_us is None:
            queue_us = np.zeros(n, dtype=np.float64)
            latency_us = exec_us + bounce_us + switch_us
        else:
            latency_us = exec_us + queue_us + bounce_us + switch_us
        values = [latency_us, exec_us, queue_us, np.full(n, bounce_us),
                  np.full(n, switch_us)]
        interrack_us: Optional[float] = None
        if interrack is not None:
            interrack_us = interrack.extra_us
            latency_us = values[0] = latency_us + interrack_us
            values.append(np.full(n, interrack_us))
        result.blocks.append(_FinishedBlock(
            columns=cols, exec_us=exec_us, queue_us=queue_us,
            latency_us=latency_us,
            bounce_us=bounce_us, switch_us=switch_us,
            interrack_us=interrack_us,
        ))
        return cols.seq, values

    def _node_ranks_of(self, cp: ChainPlacement) -> Dict[str, int]:
        """Each node's position in the chain graph's topological order,
        computed once per chain (and again only for a new graph)."""
        graph = cp.chain.graph
        memo = self._node_ranks.get(cp.name)
        if memo is None or memo[0] is not graph:
            memo = self._node_ranks[cp.name] = (graph, {
                nid: rank
                for rank, nid in enumerate(graph.topological_order())
            })
        return memo[1]

    def _run_graph(self, cp: ChainPlacement, cohorts: List[_Cohort],
                   results: Dict[int, Optional[Packet]],
                   hop_records: Dict[int, List[dict]],
                   columnar: Optional[ColumnarRunResult] = None) -> None:
        """Advance runs of packets through their chain's graph to
        completion: both loops' one schedule.

        A run waits at the chain-graph node it enters next. Each step takes
        the earliest waiting node in the graph's topological order and
        hands it every run waiting there, from every service path: a switch
        node is one NF module call; a server or NIC hop runs whole at its
        entry node (each packet carrying its own path's coordinates in its
        metadata, one device call), and so does an OpenFlow hop. Edges
        lead only to later nodes, so a node's single step holds every
        packet that reaches it in this batch — each module receives
        exactly the packets serial injection would give it, in the same
        order. Delivered packets are stamped at the end, in injection
        order.

        ``hop_records`` holds each packet's per-hop records (a column
        run's come along when a scalar step materializes it). In a
        :meth:`run_columns` walk (``columnar`` is its result) runs start as
        columns and take each hop whole, and :meth:`_column_step` picks
        each group's executor.
        """
        ranks = None
        switch_name = self.topology.switch.name
        waiting: Dict[int, List[_Cohort]] = {}
        finished: List[_Cohort] = []
        while True:
            moving = []
            for cohort in cohorts:
                if cohort.si is not None:
                    # entering the hop at (spi, si)
                    if cohort.budget <= 0:
                        raise DataplaneError(
                            "packet exceeded the rack event budget (loop?)"
                        )
                    cohort.budget -= 1
                    at = self._hop_at.get((cohort.spi, cohort.si))
                    if at is None:
                        # the path's end (SI 0), else an error
                        path = self.paths_by_spi.get(cohort.spi)
                        if path is None:
                            raise DataplaneError(f"unknown SPI {cohort.spi}")
                        if cohort.si != 0:
                            raise self._no_hop(path, cohort.si)
                        finished.append(cohort)
                        continue
                    cohort.path, cohort.hop_index, cohort.hop = at
                    cohort.pos = 0
                    cohort.si = None
                moving.append(cohort)
            if len(moving) == 1 and not waiting:
                group = moving  # the only run in flight: no order to keep
            else:
                if moving and ranks is None:
                    ranks = self._node_ranks_of(cp)
                for cohort in moving:
                    rank = ranks[cohort.hop.node_ids[cohort.pos]]
                    queued = waiting.get(rank)
                    if queued is None:
                        waiting[rank] = [cohort]
                    else:
                        queued.append(cohort)
                if not waiting:
                    break
                group = waiting.pop(min(waiting))
            if columnar is not None:
                cohorts = self._column_step(cp, group, columnar, hop_records)
            elif group[0].hop.device != switch_name:
                cohorts = self._device_step(cp, group, results, hop_records)
            else:
                cohorts = self._switch_step(cp, group, results, hop_records)
        if finished:
            self._finish_batch(cp, finished, results, hop_records, columnar)

    def _switch_step(self, cp: ChainPlacement, group: List[_Cohort],
                     results: Dict[int, Optional[Packet]],
                     hop_records: Dict[int, List[dict]]) -> List[_Cohort]:
        """One switch node, every packet waiting there in one call: a P4
        node's NF module, or the OpenFlow tables, which run a hop whole at
        its entry node (each packet tagged with its own path's VID).
        Returns the runs that go on."""
        hop = group[0].hop
        of = self.of_runtime
        in_c, out_c, _ = self._dev_counters[hop.device]
        for cohort in group:
            if cohort.pos == 0:
                in_c.inc(len(cohort.packets))
            if of is not None:
                vid = self._of_vid[(cohort.path.spi, cohort.hop.entry_si)]
                for packet in cohort.packets:
                    if packet.vlan is None:
                        packet.push_vlan(vid)
                    else:
                        packet.vlan.vid = vid
                        packet.commit()
        merged = _merged(group)
        if of is None:
            module = self._switch_module(cp, hop.node_ids[group[0].pos])
            live = [packet for _gate, packet in module.receive_batch(merged)]
            reason = "switch_nf"
        else:
            live = []
            for packet, result in zip(merged, of.process_batch(merged)):
                if not result.dropped:
                    packet.pop_vlan()
                    live.append(packet)
            reason = "openflow_rule"
        if len(live) != len(merged):
            survived = {packet.metadata.seq for packet in live}
            for cohort in group:
                kept = []
                for packet in cohort.packets:
                    if packet.metadata.seq in survived:
                        kept.append(packet)
                    else:
                        results[packet.metadata.seq] = None
                if len(kept) < len(cohort.packets):
                    self._count_drops(cp.name, hop.device, reason,
                                      len(cohort.packets) - len(kept))
                cohort.packets = kept
            group = [cohort for cohort in group if cohort.packets]
        for cohort in group:
            hop = cohort.hop
            cohort.pos = len(hop.node_ids) if of is not None \
                else cohort.pos + 1
            if cohort.pos < len(hop.node_ids):
                continue
            # the hop is done: record it, point the run at the next one
            # (SI 0 where the path ends on the switch)
            out_c.inc(len(cohort.packets))
            for packet in cohort.packets:
                hop_records[packet.metadata.seq].append({
                    "device": hop.device, "platform": hop.platform,
                    "cycles": 0, "exec_us": 0.0,
                })
            nxt = cohort.path.hop_after(cohort.hop_index)
            cohort.spi = cohort.path.spi
            cohort.si = nxt.entry_si if nxt is not None else 0
        return group

    def _device_step(self, cp: ChainPlacement, group: List[_Cohort],
                     results: Dict[int, Optional[Packet]],
                     hop_records: Dict[int, List[dict]]) -> List[_Cohort]:
        """One server or NIC hop, run whole for every packet waiting at its
        entry node: each packet carries its own path's coordinates in its
        ``metadata.spi``/``si``, and the device's hop (:class:`ServerHop`,
        :class:`SmartNICRuntime`) gets one ``run`` call. No NSH bytes
        move."""
        name = cp.name
        hop = group[0].hop
        device = hop.device
        if hop.platform == Platform.SERVER.value:
            runtime, reason = self.servers.get(device), "server_pipeline"
        elif hop.platform == Platform.SMARTNIC.value:
            runtime, reason = self.nics.get(device), "nic_program"
        else:
            raise DataplaneError(f"unexpected hop platform {hop.platform}")
        if runtime is None:
            raise DataplaneError(f"nothing deployed on {device}")
        entering = []
        for cohort in group:
            cohort.excursions += 1
            cohort.switch_passes += 1
            if self._fault_failed or self._fault_loss:
                cohort.packets = self._fault_filter(
                    name, device, cohort.packets, results
                )
                if not cohort.packets:
                    continue
            entering.append(cohort)
        if not entering:
            return []
        befores = []
        for cohort in entering:
            spi, si = cohort.path.spi, cohort.hop.entry_si
            before = []
            for packet in cohort.packets:
                meta = packet.metadata
                meta.spi = spi
                meta.si = si
                before.append(meta.cycles_consumed)
            befores.append(before)
        merged = _merged(entering)
        in_c, out_c, _ = self._dev_counters[device]
        in_c.inc(len(merged))
        outs = runtime.run(merged)

        cycle_sink: Dict[str, int] = {}
        moving = []
        for cohort, before, cohort_outs in zip(
            entering, befores, _split(entering, merged, outs)
        ):
            # survivors by next coordinates, each in injection order (a
            # divergent run splits; the schedule merges paths where they
            # meet)
            runs: Dict[Tuple[int, int], List[Packet]] = {}
            dropped = 0
            for packet, out, before_total in zip(
                cohort.packets, cohort_outs, before
            ):
                if out is None:
                    results[packet.metadata.seq] = None
                    dropped += 1
                    continue
                hop_records[out.metadata.seq].append(
                    self._charge_hop(cohort.hop, out, before_total, cycle_sink)
                )
                meta = out.metadata
                runs.setdefault((meta.spi, meta.si), []).append(out)
            if dropped:
                self._count_drops(name, device, reason, dropped)
            out_c.inc(len(cohort.packets) - dropped)
            if len(runs) == 1:
                ((cohort.spi, cohort.si), cohort.packets), = runs.items()
                moving.append(cohort)
                continue
            moving.extend(
                _Cohort(packets, spi, si, cohort.excursions,
                        cohort.switch_passes, cohort.budget)
                for (spi, si), packets in runs.items()
            )
        for sink_device, delta in cycle_sink.items():
            self._cycles_counter(sink_device).inc(delta)
        return moving

    def _fault_filter(self, chain: str, device: str, packets: List[Packet],
                      results: Dict[int, Optional[Packet]]) -> List[Packet]:
        """The packets a faulted ``device`` lets in; the rest count as
        drops by fault reason."""
        fault_drops: Dict[str, int] = {}
        passed: List[Packet] = []
        for packet in packets:
            fault = self._fault_reason(device, packet.metadata.seq)
            if fault is None:
                passed.append(packet)
            else:
                results[packet.metadata.seq] = None
                fault_drops[fault] = fault_drops.get(fault, 0) + 1
        for fault, count in fault_drops.items():
            self._count_drops(chain, device, fault, count)
        return passed

    def _finish_batch(self, cp: ChainPlacement, finished: List[_Cohort],
                      results: Dict[int, Optional[Packet]],
                      hop_records: Dict[int, List[dict]],
                      columnar: Optional[ColumnarRunResult] = None) -> None:
        """Stamp each delivered packet's end-to-end latency and record its
        components with pre-resolved instruments, in injection order across
        every finished run, packets and columns alike: a histogram's
        ``total`` is an ordered fold. Column runs become ``columnar``'s
        blocks."""
        name = cp.name
        inst = self._chain_instruments(name)
        observed = inst["observed"]
        interrack = self._interrack.get(name)
        if interrack is not None:
            observed = [*observed, (self.obs.histogram(
                "rack.latency_component_us", chain=name,
                component="interrack_us",
            ), "interrack_us")]
        parts = []
        packet_runs = []
        count = 0
        for run in finished:
            if run.cols is None:
                packet_runs.append(run)
                count += len(run.packets)
            else:
                parts.append(self._finish_columns(run, interrack, columnar))
                count += len(run.cols)
        inst["delivered"].inc(count)
        delivered = []
        if len(packet_runs) == 1:
            delivered = list(zip(packet_runs[0].packets,
                                 repeat(packet_runs[0])))
        elif packet_runs:
            delivered = sorted(
                ((p, run) for run in packet_runs for p in run.packets),
                key=lambda item: item[0].metadata.seq,
            )
        per_packet = not parts and len(delivered) < _OBSERVE_MANY_MIN
        for packet, run in delivered:
            seq = packet.metadata.seq
            self._stamp_latency(packet, run.excursions, run.switch_passes,
                                hop_records[seq])
            results[seq] = packet
            if per_packet:
                fields = packet.metadata.fields
                for histogram, field in observed:
                    histogram.observe(fields[field])
        if per_packet:
            return
        if delivered:
            columns = [
                np.array([p.metadata.fields[field] for p, _ in delivered])
                for _histogram, field in observed
            ]
            if not parts:  # packets only, already in injection order
                for (histogram, _field), column in zip(observed, columns):
                    histogram.observe_many(column)
                return
            parts.append((
                np.array([p.metadata.seq for p, _ in delivered]), columns,
            ))
        values = parts[0][1]
        if len(parts) > 1:
            order = np.argsort(np.concatenate([seq for seq, _ in parts]))
            values = [np.concatenate(column)[order]
                      for column in zip(*(values for _seq, values in parts))]
        for (histogram, _field), column in zip(observed, values):
            histogram.observe_many(column)

    @staticmethod
    def _no_hop(path: ServicePath, si: int) -> DataplaneError:
        return DataplaneError(
            f"SPI {path.spi}: no hop enters at SI {si} "
            f"(hops at {[h.entry_si for h in path.hops]})"
        )

    def _charge_hop(self, hop, out: Packet, before_total: int,
                    cycle_sink: Dict[str, int]) -> dict:
        """Charge the hop's ``cycles_consumed`` delta to its device and
        build the per-hop record. Only the rack writes ``cycles_by_device``
        (here and in the column materializer): no device hop attributes
        cycles itself, so the whole delta belongs to the hop's device.

        ``cycle_sink`` accumulates per-device cycle counter increments
        for one flush per batch instead of one per packet."""
        meta = out.metadata
        delta = meta.cycles_consumed - before_total
        exec_us = 0.0
        if delta:
            device = hop.device
            attributed = meta.cycles_by_device
            attributed[device] = attributed.get(device, 0) + delta
            exec_us = delta / self.device_freq(device) * 1e6
            cycle_sink[device] = cycle_sink.get(device, 0) + delta
        return {
            "device": hop.device, "platform": hop.platform,
            "cycles": delta, "exec_us": exec_us,
        }

    def _stamp_latency(self, packet: Packet, excursions: int,
                       switch_passes: int,
                       hops: Optional[List[dict]] = None) -> None:
        """Record the packet's end-to-end latency (µs) in its metadata.

        Execution time comes from the cycles the functional modules
        actually charged, converted with the clock of the device each
        charge happened on (``cycles_by_device``) — a rack may mix server
        frequencies and SmartNIC clocks, so a single global conversion
        would misattribute latency. Propagation/queueing follows the
        topology's per-bounce model — so rack-measured latency is
        comparable with (and, sampling real cycle counts, usually below)
        the Placer's worst-case estimate.

        Alongside the total, the metadata fields carry the breakdown:
        ``exec_us`` / ``bounce_us`` / ``switch_us`` and (when provided by
        :meth:`run`) the per-hop ``hops`` records.
        """
        meta = packet.metadata
        queue_factor = self._queue_factor
        exec_us = 0.0
        queue_us = 0.0
        attributed = 0
        for device, cycles in meta.cycles_by_device.items():
            contribution = cycles / self.device_freq(device) * 1e6
            exec_us += contribution
            factor = queue_factor.get(device)
            if factor:
                queue_us += contribution * factor
            attributed += cycles
        # cycles charged outside any rack hop (e.g. a pre-charged packet)
        # fall back to the reference server clock, as before — and never
        # accrue queueing wait (no owning device means no placed core)
        unattributed = meta.cycles_consumed - attributed
        if unattributed > 0:
            exec_us += unattributed / self._fallback_freq * 1e6
        bounce_us = excursions * self.topology.bounce_rtt_us
        switch_us = switch_passes * SWITCH_TRANSIT_US
        meta.fields["exec_us"] = exec_us
        meta.fields["queue_us"] = queue_us
        meta.fields["bounce_us"] = bounce_us
        meta.fields["switch_us"] = switch_us
        total = exec_us + queue_us + bounce_us + switch_us
        interrack = self._interrack.get(meta.chain_id)
        if interrack is not None:
            # remote chain: the fabric round trip rides on every packet
            meta.fields["interrack_us"] = interrack.extra_us
            total += interrack.extra_us
        meta.fields["latency_us"] = total
        if hops is not None:
            meta.fields["hops"] = hops

    def _switch_module(self, cp: ChainPlacement, node_id: str):
        module = self._switch_modules.get(node_id)
        if module is None:
            node = cp.chain.graph.nodes[node_id]
            module = make_nf_module(
                node.nf_class,
                node.params,
                name=f"tor/{node_id}",
                database=self.profiles,
                seed=f"{self.seed}/tor",
            )
            # the PISA/OF pipeline runs at line rate: its NFs transform
            # packets functionally but charge no CPU cycles
            module.database = None
            self._switch_modules[node_id] = module
        return module

    # -- tracing ------------------------------------------------------------------

    def trace_chains(
        self,
        placement: Placement,
        packets_per_chain: int = 32,
    ) -> Dict[str, PacketTraceResult]:
        """Inject packets per chain and report delivery + NF trails,
        including the mean per-hop latency breakdown."""
        results: Dict[str, PacketTraceResult] = {}
        for cp in placement.chains:
            delivered = 0
            dropped = 0
            trail: List[str] = []
            exit_ports: Dict[int, int] = {}
            latency_sum = 0.0
            component_sums = {"exec_us": 0.0, "queue_us": 0.0,
                              "bounce_us": 0.0, "switch_us": 0.0}
            hop_agg: Dict[Tuple[int, str], HopStat] = {}
            hop_exec_sums: Dict[Tuple[int, str], float] = {}
            for index in range(packets_per_chain):
                packet = _chain_packet(cp.chain, index)
                out = self.run(cp, [packet]).outputs[0]
                if out is None:
                    dropped += 1
                    continue
                delivered += 1
                if not trail:
                    trail = list(out.metadata.processed_by)
                port = out.metadata.egress_port or 0
                exit_ports[port] = exit_ports.get(port, 0) + 1
                fields = out.metadata.fields
                latency_sum += fields.get("latency_us", 0.0)
                for component in component_sums:
                    component_sums[component] += fields.get(component, 0.0)
                for position, hop in enumerate(fields.get("hops", ())):
                    key = (position, hop["device"])
                    stat = hop_agg.get(key)
                    if stat is None:
                        stat = hop_agg[key] = HopStat(
                            position=position,
                            device=hop["device"],
                            platform=hop["platform"],
                        )
                        hop_exec_sums[key] = 0.0
                    stat.packets += 1
                    stat.cycles += hop["cycles"]
                    hop_exec_sums[key] += hop["exec_us"]
            for key, stat in hop_agg.items():
                if stat.packets:
                    stat.avg_exec_us = hop_exec_sums[key] / stat.packets
            results[cp.name] = PacketTraceResult(
                chain_name=cp.name,
                injected=packets_per_chain,
                delivered=delivered,
                dropped=dropped,
                nf_trail=trail,
                exit_ports=exit_ports,
                avg_latency_us=(latency_sum / delivered) if delivered else 0.0,
                latency_breakdown={
                    component: (total / delivered) if delivered else 0.0
                    for component, total in component_sums.items()
                },
                hops=sorted(hop_agg.values(),
                            key=lambda s: (s.position, s.device)),
            )
        return results

    # -- reporting ----------------------------------------------------------------

    def device_stats(self) -> Dict[str, dict]:
        """Per-device counters for the stats CLI / benchmarks.

        Combines registry counters (packets in/out, drops by reason,
        cycles) with each platform runtime's own bookkeeping (per-module
        rx/tx/drop/cycles for BESS, NIC and OF runtime counters).
        """
        devices: Dict[str, dict] = {}

        # One pass over the registry: index drop counters by device up
        # front instead of rescanning every counter per device.
        drops_by_device: Dict[str, Dict[str, float]] = {}
        for counter in self.obs.counters():
            if counter.name != "rack.device.drops":
                continue
            labels = dict(counter.labels)
            device = labels.get("device", "?")
            drops_by_device.setdefault(device, {})[
                labels.get("reason", "?")
            ] = counter.value

        def base(name: str, platform: str) -> dict:
            return {
                "drops": drops_by_device.get(name, {}),
                "platform": platform,
                "packets_in": self.obs.counter_value(
                    "rack.device.packets_in", device=name),
                "packets_out": self.obs.counter_value(
                    "rack.device.packets_out", device=name),
                "cycles": self.obs.counter_value(
                    "rack.device.cycles", device=name),
            }

        switch = self.topology.switch
        entry = base(switch.name, switch.platform.value)
        if self.of_runtime is not None:
            entry["rx"] = self.of_runtime.rx
            entry["tx"] = self.of_runtime.tx
            entry["rule_drops"] = self.of_runtime.drops
        devices[switch.name] = entry

        for name, runtime in self.servers.items():
            entry = base(name, Platform.SERVER.value)
            entry["modules"] = runtime.pipeline.stats()
            devices[name] = entry

        for name, runtime in self.nics.items():
            entry = base(name, Platform.SMARTNIC.value)
            entry.update({
                "rx": runtime.rx, "tx": runtime.tx,
                "program_drops": runtime.drops,
                "nic_cycles": runtime.cycles_charged,
            })
            devices[name] = entry
        return devices


def _edge_condition_matches(condition: dict, packet: Packet) -> bool:
    if "vlan_tag" in condition:
        vlan = packet.vlan
        if vlan is None or vlan.vid != condition["vlan_tag"]:
            return False
    five = packet.five_tuple()
    if five is not None:
        src, dst, sport, dport, proto = five
        checks = {
            "src_port": sport, "dst_port": dport, "proto": proto,
        }
        for key, actual in checks.items():
            if key in condition and condition[key] != actual:
                return False
    return True


def _chain_packet(chain: NFChain, index: int) -> Packet:
    """Build a packet inside the chain's traffic aggregate."""
    aggregate = chain.aggregate
    src = "10.1.0." + str(index % 200 + 1)
    dst = "10.0.0." + str(index % 200 + 1)
    if aggregate.src_prefix:
        base = aggregate.src_prefix.split("/")[0].rsplit(".", 1)[0]
        src = f"{base}.{index % 200 + 1}"
    if aggregate.dst_prefix:
        base = aggregate.dst_prefix.split("/")[0].rsplit(".", 1)[0]
        dst = f"{base}.{index % 200 + 1}"
    payload = (b"lemur-payload-" + str(index).encode()) * 8
    return Packet.build(
        src_ip=src,
        dst_ip=dst,
        src_port=1024 + index,
        dst_port=aggregate.dst_port or 80,
        proto=aggregate.proto or 6,
        payload=payload,
        total_bytes=SIM_PACKET_BYTES,
    )
