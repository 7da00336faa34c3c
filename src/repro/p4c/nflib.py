"""Standalone P4 NF library (§4.2).

Each factory builds a :class:`~repro.p4c.ir.P4NF` with instance-unique table
names (the meta-compiler name-mangles NFs "to ensure uniqueness"). Resource
footprints are calibrated per DESIGN.md: a carrier-grade NAT's 12 000-entry
state dominates a stage's SRAM, ACL rules live in TCAM, header-rewrite NFs
(Tunnel/IPv4Fwd) are small exact/LPM tables.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.exceptions import P4CompileError
from repro.p4c.ir import (
    MatchType,
    P4NF,
    P4Table,
    ParseTree,
    TableDAG,
    ethernet_ipv4_tree,
)


def _single_table_nf(
    instance: str,
    table: P4Table,
    parse_tree: Optional[ParseTree] = None,
    headers: Optional[set] = None,
) -> P4NF:
    dag = TableDAG()
    dag.add_table(table)
    tree = parse_tree or ethernet_ipv4_tree()
    return P4NF(
        name=instance,
        parse_tree=tree,
        dag=dag,
        entry_tables=[table.name],
        exit_tables=[table.name],
        headers=headers or set(tree.headers),
    )


def make_acl(instance: str, params: Optional[dict] = None) -> P4NF:
    """ACL on src/dst fields: one ternary (TCAM) table."""
    rules = (params or {}).get("rules", 1024)
    size = len(rules) if isinstance(rules, (list, tuple)) else int(rules)
    table = P4Table(
        name=f"{instance}_acl",
        match_type=MatchType.TERNARY,
        size=max(size, 1),
        entry_bits=40,  # src/dst IP + ports + proto key, compressed
        reads=frozenset({"ipv4.src", "ipv4.dst", "l4.sport", "l4.dport"}),
        writes=frozenset({"meta.drop_flag"}),
    )
    return _single_table_nf(instance, table)


def make_ipv4fwd(instance: str, params: Optional[dict] = None) -> P4NF:
    """IPv4 forwarding: one LPM table writing the egress port."""
    size = (params or {}).get("routes", 4096)
    table = P4Table(
        name=f"{instance}_fwd",
        match_type=MatchType.LPM,
        size=int(size),
        entry_bits=64,
        reads=frozenset({"ipv4.dst"}),
        writes=frozenset({"meta.egress_port", "ethernet.dst"}),
    )
    return _single_table_nf(instance, table)


def make_tunnel(instance: str, params: Optional[dict] = None) -> P4NF:
    """Push VLAN tag: small exact table adding the vlan header."""
    tree = ethernet_ipv4_tree()
    tree.add_transition("ethernet", "ethertype", 0x8100, "vlan")
    table = P4Table(
        name=f"{instance}_tunnel",
        match_type=MatchType.EXACT,
        size=64,
        entry_bits=48,
        reads=frozenset({"ipv4.dst"}),
        writes=frozenset({"vlan.vid", "ethernet.ethertype"}),
    )
    return _single_table_nf(instance, table, parse_tree=tree)


def make_detunnel(instance: str, params: Optional[dict] = None) -> P4NF:
    """Pop VLAN tag."""
    tree = ParseTree()
    tree.add_transition("ethernet", "ethertype", 0x8100, "vlan")
    tree.add_transition("vlan", "ethertype", 0x0800, "ipv4")
    table = P4Table(
        name=f"{instance}_detunnel",
        match_type=MatchType.EXACT,
        size=64,
        entry_bits=32,
        reads=frozenset({"vlan.vid"}),
        writes=frozenset({"ethernet.ethertype"}),
    )
    return _single_table_nf(instance, table, parse_tree=tree)


def make_nat(instance: str, params: Optional[dict] = None) -> P4NF:
    """Carrier-grade NAT: one big exact-match table rewriting the 5-tuple.

    At the Table 4 reference size (12 000 entries) the table's SRAM
    footprint (~1.3 MB) nearly fills a stage, so consecutive NAT instances
    land in distinct stages — the pressure behind the paper's 10-vs-11 NAT
    experiment (§5.2).
    """
    entries = (params or {}).get("entries", 12000)
    table = P4Table(
        name=f"{instance}_nat",
        match_type=MatchType.EXACT,
        size=int(entries),
        entry_bits=888,  # 5-tuple key + rewritten 5-tuple + lease metadata
        reads=frozenset({"ipv4.src", "ipv4.dst", "l4.sport", "l4.dport",
                         "ipv4.proto"}),
        writes=frozenset({"ipv4.src", "ipv4.dst", "l4.sport", "l4.dport"}),
    )
    return _single_table_nf(instance, table)


def make_lb(instance: str, params: Optional[dict] = None) -> P4NF:
    """L4 load balancer: VIP match table → backend-select table."""
    backends = (params or {}).get("backends", 16)
    vip = P4Table(
        name=f"{instance}_vip",
        match_type=MatchType.EXACT,
        size=256,
        entry_bits=96,
        reads=frozenset({"ipv4.dst", "l4.dport"}),
        writes=frozenset({"meta.vip_id"}),
    )
    backend = P4Table(
        name=f"{instance}_backend",
        match_type=MatchType.EXACT,
        size=int(backends) * 256,
        entry_bits=80,
        reads=frozenset({"meta.vip_id", "meta.flow_hash"}),
        writes=frozenset({"ipv4.dst", "l4.dport"}),
    )
    dag = TableDAG()
    dag.add_table(vip)
    dag.add_table(backend)
    dag.add_edge(vip.name, backend.name)
    return P4NF(
        name=instance,
        parse_tree=ethernet_ipv4_tree(),
        dag=dag,
        entry_tables=[vip.name],
        exit_tables=[backend.name],
        headers=set(ethernet_ipv4_tree().headers),
    )


def make_bpf(instance: str, params: Optional[dict] = None) -> P4NF:
    """Flexible BPF-style match: one ternary table writing a class meta."""
    size = (params or {}).get("filters", 256)
    table = P4Table(
        name=f"{instance}_match",
        match_type=MatchType.TERNARY,
        size=int(size),
        entry_bits=104,
        reads=frozenset({"ipv4.src", "ipv4.dst", "ipv4.proto",
                         "l4.sport", "l4.dport"}),
        writes=frozenset({"meta.traffic_class"}),
    )
    return _single_table_nf(instance, table)


#: NF class name -> factory. Only P4-capable NFs appear here (Table 3).
_FACTORIES: Dict[str, Callable[[str, Optional[dict]], P4NF]] = {
    "ACL": make_acl,
    "IPv4Fwd": make_ipv4fwd,
    "Tunnel": make_tunnel,
    "Detunnel": make_detunnel,
    "NAT": make_nat,
    "LB": make_lb,
    "BPF": make_bpf,
}


def has_p4_nf(nf_class: str) -> bool:
    return nf_class in _FACTORIES


def make_p4_nf(nf_class: str, instance: str,
               params: Optional[dict] = None) -> P4NF:
    """Instantiate a standalone P4 NF with a unique instance name."""
    factory = _FACTORIES.get(nf_class)
    if factory is None:
        raise P4CompileError(
            f"no P4 implementation for NF {nf_class!r} "
            f"(P4 library: {sorted(_FACTORIES)})"
        )
    return factory(instance, params)


# -- infrastructure tables the meta-compiler injects (§4.1/§4.2) -------------

def steering_table(name: str = "lemur_steering") -> P4Table:
    """First-stage table: classifies new packets into chains and steers
    packets returning from servers to their next NF (optimization (c))."""
    return P4Table(
        name=name,
        match_type=MatchType.TERNARY,
        size=512,
        entry_bits=120,
        reads=frozenset({"ipv4.src", "ipv4.dst", "nsh.spi", "nsh.si",
                         "meta.ingress_port"}),
        writes=frozenset({"meta.chain_id", "meta.resume_point"}),
    )


def nsh_encap_table(name: str) -> P4Table:
    """Adds the NSH header before bouncing to a server (burns a stage)."""
    return P4Table(
        name=name,
        match_type=MatchType.EXACT,
        size=128,
        entry_bits=72,
        reads=frozenset({"meta.chain_id", "meta.branch"}),
        writes=frozenset({"nsh.spi", "nsh.si", "meta.nsh_egress"}),
    )


def nsh_decap_table(name: str) -> P4Table:
    """Strips NSH when a chain completes on the switch (burns a stage)."""
    return P4Table(
        name=name,
        match_type=MatchType.EXACT,
        size=128,
        entry_bits=48,
        reads=frozenset({"nsh.spi", "nsh.si"}),
        writes=frozenset({"ethernet.ethertype"}),
    )


def branch_split_table(name: str, n_arms: int) -> P4Table:
    """Traffic-splitting table at a branching node (§A.2.2), pre-populated
    with BPF rules; stores the decision in per-packet metadata."""
    return P4Table(
        name=name,
        match_type=MatchType.TERNARY,
        size=max(16, 8 * n_arms),
        entry_bits=104,
        reads=frozenset({"ipv4.src", "ipv4.dst", "l4.sport", "l4.dport",
                         "vlan.vid"}),
        writes=frozenset({"meta.branch"}),
    )
