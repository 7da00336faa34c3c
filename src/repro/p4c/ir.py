"""P4 intermediate representation.

Mirrors the abstract PISA switch model of §A.2: a packet header parser (an
ordered tree rooted at Ethernet) feeding a pipeline of match/action tables.
Tables carry the resource footprints the stage allocator packs against
(logical table slots, SRAM for exact/LPM matches, TCAM for ternary).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import P4CompileError


class MatchType(enum.Enum):
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"


@dataclass(frozen=True)
class P4Header:
    """A header type: name + (field, bits) layout.

    The meta-compiler's header library predefines common layouts (§4.2);
    NF developers may extend it.
    """

    name: str
    fields: Tuple[Tuple[str, int], ...]

    @property
    def bits(self) -> int:
        return sum(bits for _name, bits in self.fields)

    def field_names(self) -> List[str]:
        return [name for name, _bits in self.fields]


#: The predefined header library (§4.2 "library of predefined headers").
HEADER_LIBRARY: Dict[str, P4Header] = {
    header.name: header
    for header in [
        P4Header("ethernet", (("dst", 48), ("src", 48), ("ethertype", 16))),
        P4Header("vlan", (("pcp", 3), ("dei", 1), ("vid", 12), ("ethertype", 16))),
        P4Header(
            "nsh",
            (("flags", 4), ("ttl", 6), ("length", 6), ("reserved", 4),
             ("md_type", 4), ("next_proto", 8), ("spi", 24), ("si", 8)),
        ),
        P4Header(
            "ipv4",
            (("version", 4), ("ihl", 4), ("dscp", 8), ("total_len", 16),
             ("id", 16), ("frag", 16), ("ttl", 8), ("proto", 8),
             ("checksum", 16), ("src", 32), ("dst", 32)),
        ),
        P4Header("tcp", (("sport", 16), ("dport", 16), ("seq", 32),
                          ("ack", 32), ("data_offset", 4), ("reserved", 4),
                          ("flags", 8), ("window", 16), ("checksum", 16),
                          ("urgent", 16))),
        P4Header("udp", (("sport", 16), ("dport", 16), ("length", 16),
                          ("checksum", 16))),
    ]
}


@dataclass
class ParseTree:
    """An NF-local parser: header nodes + select transitions (§A.2.1).

    ``transitions`` maps ``(from_header, select_field, value)`` to the next
    header; ``value`` of ``None`` is the default transition. This is the
    "simple graph definition language" NF developers use.
    """

    root: str = "ethernet"
    headers: Set[str] = field(default_factory=lambda: {"ethernet"})
    transitions: Dict[Tuple[str, str, Optional[int]], str] = field(
        default_factory=dict
    )

    def add_transition(self, from_header: str, select_field: str,
                       value: Optional[int], to_header: str) -> None:
        if from_header not in self.headers:
            raise P4CompileError(
                f"transition from undeclared header {from_header!r}"
            )
        self.headers.add(to_header)
        key = (from_header, select_field, value)
        existing = self.transitions.get(key)
        if existing is not None and existing != to_header:
            raise P4CompileError(
                f"parser self-conflict: {key} -> {existing} vs {to_header}"
            )
        self.transitions[key] = to_header

    def next_headers(self, from_header: str) -> Set[str]:
        return {
            to for (frm, _f, _v), to in self.transitions.items() if frm == from_header
        }

    def copy(self) -> "ParseTree":
        tree = ParseTree(root=self.root, headers=set(self.headers))
        tree.transitions = dict(self.transitions)
        return tree

    def freeze(self) -> "ParseTree":
        """Make the header set immutable, for a tree shared between
        callers (a memoized compile): both mutators touch ``headers``
        first, so a later ``add_transition``/``merge_into`` on it raises
        instead of changing what the other holders see."""
        self.headers = frozenset(self.headers)
        return self


def ethernet_ipv4_tree(l4: bool = True) -> ParseTree:
    """The common Ethernet→IPv4(→TCP/UDP) parse tree most NFs need."""
    tree = ParseTree()
    tree.add_transition("ethernet", "ethertype", 0x0800, "ipv4")
    if l4:
        tree.add_transition("ipv4", "proto", 6, "tcp")
        tree.add_transition("ipv4", "proto", 17, "udp")
    return tree


@dataclass(frozen=True)
class P4Table:
    """One match/action table with its resource footprint.

    ``reads`` are fields the match key or actions read; ``writes`` are fields
    the actions modify. The dependency analyzer derives ordering edges from
    these sets (a table matching a field another table writes must be placed
    in a strictly later stage, §4.2 fact (2)).
    """

    name: str
    match_type: MatchType = MatchType.EXACT
    size: int = 64
    entry_bits: int = 64
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()

    @property
    def sram_kb(self) -> float:
        if self.match_type is MatchType.TERNARY:
            return 0.0
        return self.size * self.entry_bits / 8 / 1024

    @property
    def tcam_kb(self) -> float:
        if self.match_type is not MatchType.TERNARY:
            return 0.0
        return self.size * self.entry_bits / 8 / 1024

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class TableDAG:
    """The unified pipeline's table dependency DAG.

    Edges (a, b) mean table ``b`` must be placed in a strictly later stage
    than ``a``. ``exclusive_groups`` lists sets of tables that process
    mutually exclusive traffic (parallel branches) — the compiler may pack
    them into the same stages (§4.2 optimization (d)).
    """

    tables: List[P4Table] = field(default_factory=list)
    edges: Set[Tuple[str, str]] = field(default_factory=set)
    exclusive_groups: List[Set[str]] = field(default_factory=list)

    #: Name -> table, built by the first lookup and kept current by
    #: ``add_table`` (the only mutator of ``tables``). Not a field: it
    #: stays out of ``==`` and ``repr``, and ``__getstate__`` leaves it
    #: out of pickles, so the class default stands in after a load.
    _by_name = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_by_name", None)
        return state

    def _names(self) -> Dict[str, P4Table]:
        if self._by_name is None:
            by_name: Dict[str, P4Table] = {}
            for table in self.tables:
                by_name.setdefault(table.name, table)
            self._by_name = by_name
        return self._by_name

    def add_table(self, table: P4Table) -> None:
        names = self._names()
        if table.name in names:
            raise P4CompileError(f"duplicate table name {table.name!r}")
        self.tables.append(table)
        names[table.name] = table

    def add_edge(self, before: str, after: str) -> None:
        names = self._names()
        if before not in names or after not in names:
            raise P4CompileError(f"dependency references unknown table: "
                                 f"{before} -> {after}")
        if before == after:
            raise P4CompileError(f"self-dependency on table {before!r}")
        self.edges.add((before, after))

    def table(self, name: str) -> P4Table:
        table = self._names().get(name)
        if table is None:
            raise P4CompileError(f"no table named {name!r}")
        return table

    def predecessors(self, name: str) -> Set[str]:
        return {a for (a, b) in self.edges if b == name}

    def successors(self, name: str) -> Set[str]:
        return {b for (a, b) in self.edges if a == name}

    def topological_order(self) -> List[str]:
        """Kahn's algorithm, smallest ready table name first."""
        in_degree = {t.name: 0 for t in self.tables}
        successors: Dict[str, List[str]] = {name: [] for name in in_degree}
        for a, b in self.edges:
            in_degree[b] += 1
            successors[a].append(b)
        ready = [name for name, deg in in_degree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for succ in successors[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self.tables):
            raise P4CompileError("table dependency graph has a cycle")
        return order

    def depth(self) -> int:
        """Longest dependency chain length (lower bound on stages)."""
        level: Dict[str, int] = {}
        for name in self.topological_order():
            preds = self.predecessors(name)
            level[name] = 1 + max((level[p] for p in preds), default=0)
        return max(level.values(), default=0)

    def freeze(self) -> "TableDAG":
        """Swap the containers for immutable ones, for a DAG shared
        between callers (a memoized compile): a later ``add_table``/
        ``add_edge``/``merge`` on it raises instead of changing what the
        other holders see."""
        self.tables = tuple(self.tables)
        self.edges = frozenset(self.edges)
        self.exclusive_groups = tuple(
            frozenset(group) for group in self.exclusive_groups
        )
        return self

    def merge(self, other: "TableDAG") -> None:
        """Union another DAG in (used when unifying chains on one switch)."""
        for table in other.tables:
            self.add_table(table)
        for a, b in other.edges:
            self.add_edge(a, b)
        self.exclusive_groups.extend(
            set(group) for group in other.exclusive_groups
        )


@dataclass
class P4NF:
    """A standalone P4 NF (§4.2): headers, NF-local parser, tables.

    ``entry_table``/``exit_tables`` mark where inter-NF dependency edges
    attach when NFs are composed into a chain.
    """

    name: str
    parse_tree: ParseTree
    dag: TableDAG
    entry_tables: List[str] = field(default_factory=list)
    exit_tables: List[str] = field(default_factory=list)
    headers: Set[str] = field(default_factory=set)

    def table_names(self) -> List[str]:
        return [t.name for t in self.dag.tables]
