"""Declarative topology specs: validation, round-trip, presets, shims."""

import json

import pytest

from repro.exceptions import TopologyError
from repro.hw.multirack import MultiRackTopology
from repro.hw.spec import (
    InterRackLinkSpec,
    RackSpec,
    TopologySpec,
    available_topologies,
    topology_for,
)
from repro.hw.topology import Topology


class TestRackSpec:
    def test_default_builds_paper_rack(self):
        topo = RackSpec().build()
        assert isinstance(topo, Topology)
        assert topo.switch.name == "tofino0"
        assert [s.name for s in topo.servers] == ["server0"]
        assert not topo.smartnics

    def test_prefix_lands_on_every_device(self):
        topo = RackSpec(smartnic=True).build(prefix="r1.")
        assert topo.switch.name == "r1.tofino0"
        assert topo.servers[0].name == "r1.server0"
        assert topo.smartnics[0].name == "r1.agilio0"
        assert topo.smartnics[0].host_server == "r1.server0"

    @pytest.mark.parametrize("bad", [
        dict(name=""),
        dict(switch="juniper"),
        dict(server_model="mainframe"),
        dict(servers=0),
        dict(num_stages=0),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(TopologyError):
            RackSpec(**bad)


class TestLinkSpec:
    def test_name_is_endpoint_pair(self):
        assert InterRackLinkSpec(a="r0", b="r1").name == "r0~r1"

    @pytest.mark.parametrize("bad", [
        dict(a="r0", b="r0"),
        dict(a="r0", b="r1", capacity_mbps=0.0),
        dict(a="r0", b="r1", latency_us=-1.0),
    ])
    def test_invalid_links_rejected(self, bad):
        with pytest.raises(TopologyError):
            InterRackLinkSpec(**bad)


class TestTopologySpec:
    def test_single_rack_builds_plain_topology(self):
        built = TopologySpec.single().build()
        assert isinstance(built, Topology)
        assert not TopologySpec.single().is_multi_rack

    def test_star_shape(self):
        spec = TopologySpec.star(3, latency_us=25.0)
        assert spec.rack_names == ["r0", "r1", "r2"]
        assert [link.name for link in spec.links] == ["r0~r1", "r0~r2"]
        assert all(link.latency_us == 25.0 for link in spec.links)
        fabric = spec.build()
        assert isinstance(fabric, MultiRackTopology)
        assert fabric.ingress == "r0"
        # multi-rack devices carry the rack prefix
        assert fabric.rack("r1").switch.name == "r1.tofino0"

    def test_from_flags_bridges_legacy_vocabulary(self):
        assert TopologySpec.from_flags(with_smartnic=True).racks[0].smartnic
        assert TopologySpec.from_flags(
            with_openflow=True).racks[0].switch == "openflow"
        multi = TopologySpec.from_flags(servers=3)
        assert multi.racks[0].servers == 3
        assert multi.racks[0].server_model == "eight-core"
        star = TopologySpec.from_flags(racks=2)
        assert star.is_multi_rack and len(star.racks) == 2

    def test_duplicate_rack_names_rejected(self):
        with pytest.raises(TopologyError):
            TopologySpec(racks=(RackSpec(name="r0"), RackSpec(name="r0")))

    def test_link_to_unknown_rack_rejected(self):
        with pytest.raises(TopologyError):
            TopologySpec(
                racks=(RackSpec(name="r0"), RackSpec(name="r1")),
                links=(InterRackLinkSpec(a="r0", b="r9"),),
            )

    def test_single_rack_with_links_rejected(self):
        with pytest.raises(TopologyError):
            TopologySpec(
                racks=(RackSpec(name="r0"),),
                links=(InterRackLinkSpec(a="r0", b="r1"),),
            )

    def test_no_racks_rejected(self):
        with pytest.raises(TopologyError):
            TopologySpec(racks=())


class TestWireFormat:
    def test_json_round_trip(self):
        spec = TopologySpec.star(
            2, rack_template=RackSpec(smartnic=True), capacity_mbps=20000.0,
        )
        assert TopologySpec.parse_json(spec.to_json()) == spec
        assert TopologySpec.from_dict(spec.as_dict()) == spec

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(TopologyError, match="unknown fields"):
            TopologySpec.from_dict({"racks": [{"name": "r0"}], "zone": "eu"})

    def test_unknown_rack_field_rejected(self):
        with pytest.raises(TopologyError, match="unknown fields"):
            TopologySpec.from_dict({"racks": [{"name": "r0", "cpus": 64}]})

    def test_unknown_link_field_rejected(self):
        with pytest.raises(TopologyError, match="unknown fields"):
            TopologySpec.from_dict({
                "racks": [{"name": "r0"}, {"name": "r1"}],
                "links": [{"a": "r0", "b": "r1", "color": "red"}],
            })

    def test_malformed_json_rejected(self):
        with pytest.raises(TopologyError, match="not valid JSON"):
            TopologySpec.parse_json("{racks: oops")

    def test_missing_required_field_rejected(self):
        with pytest.raises(TopologyError, match="malformed"):
            TopologySpec.from_dict({"racks": [{"switch": "pisa"}]})

    def test_schema_mirrors_wire_fields(self):
        schema = TopologySpec.json_schema()
        rack_props = schema["properties"]["racks"]["items"]["properties"]
        link_props = schema["properties"]["links"]["items"]["properties"]
        assert set(rack_props) == set(TopologySpec._RACK_FIELDS)
        assert set(link_props) == set(TopologySpec._LINK_FIELDS)
        assert set(schema["properties"]) == set(TopologySpec._TOP_FIELDS)
        # every preset's wire form enumerates only schema'd fields
        for name in available_topologies():
            payload = topology_for(name).as_dict()
            json.dumps(payload)  # serializable
            assert set(payload) <= set(schema["properties"])


class TestPresets:
    def test_known_presets_registered(self):
        names = available_topologies()
        for expected in ("paper-testbed", "paper-smartnic", "paper-openflow",
                         "metron", "multi-server", "two-rack", "three-rack"):
            assert expected in names

    def test_unknown_preset_raises(self):
        with pytest.raises(TopologyError, match="unknown topology preset"):
            topology_for("moonbase")

    def test_single_rack_overrides(self):
        spec = topology_for("multi-server", servers=4)
        assert spec.racks[0].servers == 4

    def test_multi_rack_overrides_rejected(self):
        with pytest.raises(TopologyError, match="multi-rack"):
            topology_for("two-rack", servers=4)

    def test_paper_testbed_matches_legacy_device_names(self):
        topo = topology_for("paper-testbed").build()
        assert topo.switch.name == "tofino0"
        assert [s.name for s in topo.servers] == ["server0"]

