"""Unified P4 program generation (§4.2, §A.2).

Takes the PISA compiler's unified pipeline (tables, dependencies, stage
allocation) plus the routing plan's steering entries and renders a single
P4 program: header declarations from the header library, the merged
parser, per-table declarations with actions, and a stage-ordered control
block. Per-NF *standalone* extended-P4 sources are also emitted (and can
be round-tripped through :mod:`repro.metacompiler.p4pre`).

Generated-line accounting distinguishes steering code (parser, steering/
encap/decap/split tables, control block) from NF tables — the §5.3
meta-compiler-benefit experiment reports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.placement import ChainPlacement
from repro.metacompiler.codestats import count_lines
from repro.metacompiler.routing import RoutingPlan
from repro.p4c.compiler import CompileResult
from repro.p4c.ir import HEADER_LIBRARY, MatchType, P4Table, ParseTree


@dataclass
class P4GenResult:
    """Everything generated for the PISA switch."""

    program_text: str
    compile_result: CompileResult
    nf_sources: Dict[str, str] = field(default_factory=dict)
    steering_lines: int = 0
    nf_lines: int = 0

    @property
    def total_lines(self) -> int:
        return len(self.program_text.splitlines())


_STEERING_TABLE_MARKERS = (
    "lemur_steering", "_split", "_nsh_encap", "_nsh_decap", "_check",
)


def _is_steering_table(name: str) -> bool:
    return any(marker in name for marker in _STEERING_TABLE_MARKERS)


@dataclass(frozen=True)
class ChainP4:
    """One chain's share of the generated P4, a function of the chain's
    graph and which of its nodes sit on the switch: the declaration of
    each of its tables (``table name -> (accounting kind, text)``) and
    the standalone extended-P4 source of each of its switch NFs with
    their manual line count."""

    tables: Dict[str, Tuple[str, str]]
    nf_sources: Dict[str, str]
    manual_lines: int


def _table_section(table: P4Table) -> Tuple[str, str]:
    kind = "steering" if _is_steering_table(table.name) else "nf"
    return kind, _render_table(table)


def render_chain_p4(
    cp: ChainPlacement, tables: Sequence[P4Table]
) -> ChainP4:
    """Render ``cp``'s tables (as the compiler lowered them) and its
    switch NFs' standalone sources (§4.2)."""
    from repro.p4c.nflib import make_p4_nf

    sources: Dict[str, str] = {}
    for nid in sorted(cp.switch_node_ids()):
        node = cp.chain.graph.nodes[nid]
        instance = nid.replace(".", "_")
        p4nf = make_p4_nf(node.nf_class, instance, node.params)
        sources[instance] = render_standalone_nf(p4nf)
    return ChainP4(
        tables={table.name: _table_section(table) for table in tables},
        nf_sources=sources,
        manual_lines=sum(count_lines(text) for text in sources.values()),
    )


def render_p4(
    result: CompileResult,
    plan: RoutingPlan,
    chains: Sequence[ChainP4],
) -> P4GenResult:
    """Render ``result`` as one P4 program with ``plan``'s steering
    entries, from its chains' rendered shares (in chain order) plus what
    only the whole program determines: headers, parser, the steering
    table and the stage-ordered control block."""
    rendered: Dict[str, Tuple[str, str]] = {}
    nf_sources: Dict[str, str] = {}
    for chain in chains:
        rendered.update(chain.tables)
        nf_sources.update(chain.nf_sources)

    sections: List[Tuple[str, str]] = []  # (kind, text)
    sections.append(("steering", _render_headers(result.parser)))
    sections.append(("steering", _render_parser(result.parser)))

    for table in result.dag.tables:
        sections.append(rendered.get(table.name) or _table_section(table))

    sections.append(("steering", _render_steering_entries(plan)))
    sections.append(("steering", _render_control(result)))

    steering_lines = sum(
        len(text.splitlines()) for kind, text in sections if kind == "steering"
    )
    nf_lines = sum(
        len(text.splitlines()) for kind, text in sections if kind == "nf"
    )
    program_text = "\n".join(text for _kind, text in sections)

    return P4GenResult(
        program_text=program_text,
        compile_result=result,
        nf_sources=nf_sources,
        steering_lines=steering_lines,
        nf_lines=nf_lines,
    )


# -- rendering helpers ---------------------------------------------------------

def _render_headers(parser: ParseTree) -> str:
    lines = ["// ---- headers (from Lemur's header library) ----"]
    for name in sorted(parser.headers):
        header = HEADER_LIBRARY.get(name)
        if header is None:
            continue
        lines.append(f"header_type {name}_t {{")
        lines.append("    fields {")
        for fname, bits in header.fields:
            lines.append(f"        {fname} : {bits};")
        lines.append("    }")
        lines.append("}")
        lines.append(f"header {name}_t {name};")
    lines.append("")
    return "\n".join(lines)


def _render_parser(parser: ParseTree) -> str:
    lines = ["// ---- unified parser (merged from NF-local parsers) ----"]
    by_state: Dict[str, List[Tuple[str, Optional[int], str]]] = {}
    for (frm, fieldname, value), to in sorted(
        parser.transitions.items(), key=lambda kv: str(kv[0])
    ):
        by_state.setdefault(frm, []).append((fieldname, value, to))
    for state in sorted(parser.headers):
        lines.append(f"parser parse_{state} {{")
        lines.append(f"    extract({state});")
        transitions = by_state.get(state, [])
        if transitions:
            select_field = transitions[0][0]
            lines.append(f"    return select(latest.{select_field}) {{")
            for _field, value, to in transitions:
                if value is None:
                    lines.append(f"        default : parse_{to};")
                else:
                    lines.append(f"        {value:#06x} : parse_{to};")
            lines.append("        default : ingress;")
            lines.append("    }")
        else:
            lines.append("    return ingress;")
        lines.append("}")
    lines.append("")
    return "\n".join(lines)


def _render_table(table: P4Table) -> str:
    match_kw = {
        MatchType.EXACT: "exact",
        MatchType.TERNARY: "ternary",
        MatchType.LPM: "lpm",
    }[table.match_type]
    lines = [f"// table {table.name} ({table.match_type.value}, "
             f"{table.size} entries)"]
    action = f"act_{table.name}"
    lines.append(f"action {action}() {{")
    for written in sorted(table.writes):
        lines.append(f"    modify_field({written}, /*runtime*/ 0);")
    lines.append("}")
    lines.append(f"table {table.name} {{")
    lines.append("    reads {")
    for read in sorted(table.reads):
        lines.append(f"        {read} : {match_kw};")
    lines.append("    }")
    lines.append(f"    actions {{ {action}; _drop; }}")
    lines.append(f"    size : {table.size};")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def _render_steering_entries(plan: RoutingPlan) -> str:
    lines = ["// ---- ToR steering entries (NSH coordination, §4.1) ----"]
    for (spi, si), entry in sorted(plan.steering.items()):
        if entry.is_egress:
            lines.append(
                f"// (spi={spi}, si={si}) -> strip NSH, egress"
            )
            lines.append(
                f"table_add lemur_steering egress_action "
                f"{spi} {si} =>"
            )
        else:
            lines.append(
                f"table_add lemur_steering forward_action {spi} {si} => "
                f"{entry.next_device} {entry.next_spi} {entry.next_si}"
            )
    lines.append("")
    return "\n".join(lines)


def _render_control(result: CompileResult) -> str:
    lines = ["// ---- control: stage-ordered apply (compiler layout) ----",
             "control ingress {"]
    for stage_index, stage in enumerate(result.allocation.stages):
        lines.append(f"    // stage {stage_index + 1}")
        for table_name in stage:
            lines.append(f"    apply({table_name});")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def render_standalone_nf(p4nf) -> str:
    """Render one standalone NF in Lemur's extended-P4 syntax.

    The syntax mirrors §4.2: the developer lists headers from the library,
    describes the NF-local parser in a simple graph language, and writes
    tables; :mod:`repro.metacompiler.p4pre` parses it back.
    """
    lines = [f"@nf {p4nf.name}"]
    lines.append("headers { " + " ".join(sorted(p4nf.headers)) + " }")
    lines.append("parser {")
    for (frm, fieldname, value), to in sorted(
        p4nf.parse_tree.transitions.items(), key=lambda kv: str(kv[0])
    ):
        rendered = "default" if value is None else f"{value:#x}"
        lines.append(f"    {frm}.{fieldname} {rendered} -> {to}")
    lines.append("}")
    for table in p4nf.dag.tables:
        lines.append(f"table {table.name} {{")
        lines.append(f"    match_type: {table.match_type.value}")
        lines.append(f"    size: {table.size}")
        lines.append(f"    entry_bits: {table.entry_bits}")
        lines.append("    reads: " + " ".join(sorted(table.reads)))
        lines.append("    writes: " + " ".join(sorted(table.writes)))
        lines.append("}")
    if p4nf.dag.edges:
        lines.append("depends {")
        for a, b in sorted(p4nf.dag.edges):
            lines.append(f"    {a} -> {b}")
        lines.append("}")
    lines.append("control { " + " ".join(t.name for t in p4nf.dag.tables)
                 + " }")
    return "\n".join(lines) + "\n"
