"""Instantiate an executable BESS pipeline from generated IR.

Builds the module graph the meta-compiler's script describes (§A.1):
``PortInc → NSHdecap → SubgroupDemux → [NF chain per subgroup instance] →
SIUpdate → NSHencap → PortOut`` and the per-core scheduler tree.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bess.module import Pipeline
from repro.bess.modules import make_nf_module
from repro.bess.nsh_modules import (
    NSHDecap,
    NSHEncap,
    PortInc,
    PortOut,
    SIUpdate,
    SubgroupDemux,
)
from repro.bess.scheduler import LeafTask, SchedulerTree
from repro.exceptions import DataplaneError
from repro.metacompiler.bessgen import BessScriptIR
from repro.profiles.defaults import ProfileDatabase, default_profiles


def build_bess_pipeline(
    ir: BessScriptIR,
    profiles: Optional[ProfileDatabase] = None,
    seed: object = 0,
    freq_hz: float = 1.7e9,
) -> Tuple[Pipeline, PortInc, PortOut, SchedulerTree]:
    """Build the executable pipeline + scheduler for one server."""
    profiles = profiles or default_profiles()
    pipeline = Pipeline(name=f"bess@{ir.server}")

    port_inc = PortInc(name="port_inc")
    nsh_decap = NSHDecap(name="nsh_decap")
    demux = SubgroupDemux(name="demux")
    nsh_encap = NSHEncap(name="nsh_encap")
    port_out = PortOut(name="port_out")
    for module in (port_inc, nsh_decap, demux, nsh_encap, port_out):
        pipeline.add(module, entry=module is port_inc)
    port_inc.connect(nsh_decap)
    nsh_decap.connect(demux)
    nsh_encap.connect(port_out)

    scheduler = SchedulerTree(freq_hz=freq_hz)

    for sg in ir.subgroups:
        next_map = {
            (entry.spi, entry.si): (entry.next_spi, entry.next_si)
            for entry in sg.entries
        }
        instance_heads = []
        for instance in range(sg.instances):
            prev = None
            head = None
            for spec in sg.modules:
                module = make_nf_module(
                    spec.nf_class,
                    spec.params,
                    name=f"{spec.module_name}_i{instance}",
                    database=profiles,
                    seed=f"{seed}/{ir.server}/{sg.sg_id}/{instance}",
                )
                pipeline.add(module)
                if prev is not None:
                    prev.connect(module)
                else:
                    head = module
                prev = module
            si_update = SIUpdate(
                name=f"si_update_{sg.sg_id.replace('/', '_')}_i{instance}",
                params={"next_map": next_map},
            )
            pipeline.add(si_update)
            if prev is None:
                raise DataplaneError(f"subgroup {sg.sg_id} has no modules")
            prev.connect(si_update)
            si_update.connect(nsh_encap, igate=0)
            instance_heads.append(head)
            core = sg.cores[instance] if instance < len(sg.cores) else 0
            scheduler.assign(
                core,
                LeafTask(
                    name=f"{sg.sg_id}/i{instance}",
                    work_fn=lambda: 0,  # driven by the rack event loop
                ),
                rate_limit_mbps=sg.rate_limit_mbps,
            )

        first, *shared = [(entry.spi, entry.si) for entry in sg.entries]
        gates = demux.register(*first, sg.instances)
        for gate, head in zip(gates, instance_heads):
            demux.connect(head, ogate=gate)
        for spi, si in shared:
            demux.alias(spi, si, first)

    return pipeline, port_inc, port_out, scheduler
