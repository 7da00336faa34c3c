"""Hardware model and topology tests."""

import pytest

from repro.exceptions import TopologyError
from repro.hw.openflow import OpenFlowSwitchModel
from repro.hw.pisa import PISASwitch, PISAStageResources
from repro.hw.platform import Platform
from repro.hw.server import CPUSocket, NIC, Server, eight_core_server, \
    paper_nf_server
from repro.hw.smartnic import SmartNIC
from repro.hw.spec import topology_for
from repro.hw.topology import Topology


class TestServer:
    def test_paper_server_shape(self):
        server = paper_nf_server()
        assert server.total_cores == 16
        assert server.allocatable_cores == 15  # demux core reserved
        assert server.freq_hz == pytest.approx(1.7e9)
        assert server.primary_nic().rate_mbps == pytest.approx(40_000)

    def test_eight_core_server(self):
        server = eight_core_server("s1")
        assert server.total_cores == 8
        assert server.allocatable_cores == 7

    def test_no_sockets_rejected(self):
        with pytest.raises(TopologyError):
            Server(name="bad", sockets=[], nics=[NIC()])

    def test_nic_socket_validated(self):
        with pytest.raises(TopologyError):
            Server(name="bad", sockets=[CPUSocket(0)],
                   nics=[NIC(socket=3)])

    def test_nic_by_name(self):
        server = paper_nf_server()
        assert server.nic_by_name("xl710").rate_mbps == pytest.approx(40_000)
        with pytest.raises(TopologyError):
            server.nic_by_name("nope")


class TestPISASwitch:
    def test_defaults_match_testbed(self):
        switch = PISASwitch()
        assert switch.num_stages == 12
        assert switch.num_ports == 32
        assert switch.port_rate_mbps == pytest.approx(100_000)

    def test_stage_resources_copy(self):
        res = PISAStageResources()
        clone = res.copy()
        clone.table_slots = 1
        assert res.table_slots == 8


class TestTopology:
    def test_default_testbed(self):
        topo = topology_for("paper-testbed").build()
        assert topo.switch.platform is Platform.PISA
        assert len(topo.servers) == 1
        assert len(topo.links) == 1
        assert topo.links[0].capacity_mbps == pytest.approx(40_000)

    def test_smartnic_testbed(self):
        topo = topology_for("paper-testbed", smartnic=True).build()
        assert len(topo.smartnics) == 1
        assert topo.smartnic("agilio0").host_server == "server0"

    def test_openflow_testbed(self):
        topo = topology_for("paper-testbed", switch="openflow").build()
        assert isinstance(topo.switch, OpenFlowSwitchModel)

    def test_multi_server(self):
        topo = topology_for("multi-server", servers=2).build()
        assert len(topo.servers) == 2
        assert topo.total_server_cores() == 14

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            Topology(switch=PISASwitch(name="x"),
                     servers=[eight_core_server("x")])

    def test_orphan_smartnic_rejected(self):
        with pytest.raises(TopologyError):
            Topology(switch=PISASwitch(),
                     servers=[eight_core_server("s0")],
                     smartnics=[SmartNIC(host_server="ghost")])

    def test_device_lookup(self):
        topo = topology_for("paper-testbed", smartnic=True).build()
        assert topo.device("tofino0").platform is Platform.PISA
        assert topo.device("server0").platform is Platform.SERVER
        assert topo.device("agilio0").platform is Platform.SMARTNIC
        with pytest.raises(TopologyError):
            topo.device("ghost")

    def test_failure_marking(self):
        topo = topology_for("paper-testbed", smartnic=True).build()
        topo.mark_failed("agilio0")
        assert topo.devices_for(Platform.SMARTNIC) == []
        with pytest.raises(TopologyError):
            topo.mark_failed("ghost")

    def test_failed_server_excluded_from_cores(self):
        topo = topology_for("multi-server", servers=2).build()
        before = topo.total_server_cores()
        topo.mark_failed("server1")
        assert topo.total_server_cores() == before - 7


class TestOpenFlowModel:
    def test_fixed_order_check(self):
        switch = OpenFlowSwitchModel()
        assert switch.supports_order(["Tunnel", "ACL", "IPv4Fwd"])
        assert switch.supports_order(["ACL"])
        assert not switch.supports_order(["IPv4Fwd", "ACL"])
        assert not switch.supports_order(["Monitor", "ACL"])

    def test_unsupported_nf(self):
        switch = OpenFlowSwitchModel()
        assert not switch.supports_order(["Encrypt"])
        assert switch.table_for_nf("Encrypt") is None
