"""Declarative topology specification: the one way to describe a testbed.

A :class:`TopologySpec` states the whole fabric as data — racks, their
switch/server/SmartNIC shapes, and the inter-rack links — with a JSON
round-trip that rejects unknown fields (the same wire discipline as
``FaultTimeline`` / ``LifecycleTimeline``), so a persisted spec rebuilds
the *identical* topology after a daemon restart.

``spec.build()`` returns a plain single-rack
:class:`~repro.hw.topology.Topology` for one rack (byte-compatible with
the legacy constructors, including device names) or a
:class:`~repro.hw.multirack.MultiRackTopology` for several (device names
prefixed ``<rack>.`` so fault targets stay unambiguous).

Named presets cover the recurring shapes::

    topology_for("paper-testbed")     # Tofino ToR + 2x8-core BESS server
    topology_for("two-rack")          # two paper racks, one 40G/50µs link
    topology_for("multi-server", servers=4)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import TopologyError
from repro.hw.multirack import InterRackLink, MultiRackTopology
from repro.hw.openflow import OpenFlowSwitchModel
from repro.hw.pisa import PISASwitch
from repro.hw.platform import Device
from repro.hw.server import eight_core_server, paper_nf_server
from repro.hw.smartnic import SmartNIC
from repro.hw.topology import Topology

SWITCH_KINDS = ("pisa", "openflow")
SERVER_MODELS = ("paper", "eight-core")

#: inter-rack defaults: a 40 G DCI wave with 50 µs one-way latency.
DEFAULT_LINK_CAPACITY_MBPS = 40_000.0
DEFAULT_LINK_LATENCY_US = 50.0


@dataclass(frozen=True)
class RackSpec:
    """One rack's shape: ToR kind, server inventory, SmartNIC flag."""

    name: str = "r0"
    switch: str = "pisa"  # "pisa" | "openflow"
    num_stages: int = 12
    servers: int = 1
    server_model: str = "paper"  # "paper" | "eight-core"
    smartnic: bool = False
    metron_steering: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("every rack needs a name")
        if self.switch not in SWITCH_KINDS:
            raise TopologyError(
                f"rack {self.name}: switch must be one of "
                f"{SWITCH_KINDS}, got {self.switch!r}"
            )
        if self.server_model not in SERVER_MODELS:
            raise TopologyError(
                f"rack {self.name}: server_model must be one of "
                f"{SERVER_MODELS}, got {self.server_model!r}"
            )
        if self.servers < 1:
            raise TopologyError(
                f"rack {self.name}: need at least one server"
            )
        if self.num_stages < 1:
            raise TopologyError(
                f"rack {self.name}: num_stages must be >= 1"
            )

    def build(self, prefix: str = "") -> Topology:
        """Instantiate the rack. With an empty prefix the device names
        match the legacy constructors exactly (``tofino0``, ``server0``,
        ``agilio0``); a multi-rack build passes ``prefix="<rack>."``."""
        servers = []
        for index in range(self.servers):
            name = f"{prefix}server{index}"
            if self.server_model == "paper":
                server = paper_nf_server(name)
            else:
                server = eight_core_server(name)
            servers.append(server)
        if self.metron_steering:
            for server in servers:
                server.reserved_cores = 0  # the demux core is freed
        smartnics = []
        if self.smartnic:
            smartnics.append(SmartNIC(
                name=f"{prefix}agilio0", host_server=servers[0].name,
            ))
        switch: Device
        if self.switch == "openflow":
            switch = OpenFlowSwitchModel(name=f"{prefix}of0")
        else:
            switch = PISASwitch(
                name=f"{prefix}tofino0", num_stages=self.num_stages,
            )
        return Topology(
            switch=switch, servers=servers, smartnics=smartnics,
            metron_steering=self.metron_steering,
        )


@dataclass(frozen=True)
class InterRackLinkSpec:
    """A rack-to-rack link: aggregate capacity + one-way latency."""

    a: str
    b: str
    capacity_mbps: float = DEFAULT_LINK_CAPACITY_MBPS
    latency_us: float = DEFAULT_LINK_LATENCY_US

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"link {self.a}<->{self.b} is a self-loop")
        if self.capacity_mbps <= 0:
            raise TopologyError(
                f"link {self.a}<->{self.b}: capacity_mbps must be > 0"
            )
        if self.latency_us < 0:
            raise TopologyError(
                f"link {self.a}<->{self.b}: latency_us must be >= 0"
            )

    @property
    def name(self) -> str:
        return f"{self.a}~{self.b}"


@dataclass(frozen=True)
class TopologySpec:
    """The whole fabric as data: racks + inter-rack links.

    Frozen (hashable, picklable) so experiment specs can carry it and
    worker processes can rebuild the identical topology from it.
    """

    racks: Tuple[RackSpec, ...] = (RackSpec(),)
    links: Tuple[InterRackLinkSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.racks:
            raise TopologyError("a topology spec needs at least one rack")
        # tolerate lists from hand-built specs
        if not isinstance(self.racks, tuple):
            object.__setattr__(self, "racks", tuple(self.racks))
        if not isinstance(self.links, tuple):
            object.__setattr__(self, "links", tuple(self.links))
        names = [rack.name for rack in self.racks]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate rack names: {names}")
        known = set(names)
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise TopologyError(
                        f"link {link.name} references unknown rack {end!r}"
                    )
        if len(self.racks) == 1 and self.links:
            raise TopologyError(
                "a single-rack topology cannot carry inter-rack links"
            )
        # fabric connectivity is validated by MultiRackTopology at build
        # time; validate eagerly here so a bad spec fails at parse time.
        if len(self.racks) > 1:
            self.build()

    @property
    def is_multi_rack(self) -> bool:
        return len(self.racks) > 1

    @property
    def rack_names(self) -> List[str]:
        return [rack.name for rack in self.racks]

    def rack(self, name: str) -> RackSpec:
        for rack in self.racks:
            if rack.name == name:
                return rack
        raise TopologyError(f"no rack named {name!r} in the spec")

    def build(self) -> Union[Topology, MultiRackTopology]:
        """Instantiate the spec. Single rack -> :class:`Topology` with the
        legacy (unprefixed) device names; several racks ->
        :class:`MultiRackTopology` with ``<rack>.``-prefixed devices."""
        if not self.is_multi_rack:
            return self.racks[0].build(prefix="")
        racks = {
            rack.name: rack.build(prefix=f"{rack.name}.")
            for rack in self.racks
        }
        links = [
            InterRackLink(
                name=link.name, a=link.a, b=link.b,
                capacity_mbps=link.capacity_mbps,
                latency_us=link.latency_us,
            )
            for link in self.links
        ]
        return MultiRackTopology(
            racks=racks, links=links, ingress=self.racks[0].name,
        )

    # -- convenience constructors ------------------------------------------

    @classmethod
    def single(cls, rack: Optional[RackSpec] = None) -> "TopologySpec":
        return cls(racks=(rack or RackSpec(),))

    @classmethod
    def star(
        cls,
        num_racks: int,
        *,
        rack_template: Optional[RackSpec] = None,
        capacity_mbps: float = DEFAULT_LINK_CAPACITY_MBPS,
        latency_us: float = DEFAULT_LINK_LATENCY_US,
    ) -> "TopologySpec":
        """``num_racks`` identical racks, each satellite linked to ``r0``
        (the shape ``--racks N`` generates)."""
        if num_racks < 1:
            raise TopologyError("need at least one rack")
        template = rack_template or RackSpec()
        racks = tuple(
            replace(template, name=f"r{i}") for i in range(num_racks)
        )
        links = tuple(
            InterRackLinkSpec(
                a="r0", b=f"r{i}",
                capacity_mbps=capacity_mbps, latency_us=latency_us,
            )
            for i in range(1, num_racks)
        )
        return cls(racks=racks, links=links)

    @classmethod
    def from_flags(
        cls,
        *,
        with_smartnic: bool = False,
        with_openflow: bool = False,
        servers: int = 0,
        metron: bool = False,
        racks: int = 0,
    ) -> "TopologySpec":
        """Translate the CLI's rack flags (``--smartnic``, ``--openflow``,
        ``--servers``, ``--metron``, ``--racks``) into a spec.

        ``servers > 0`` selects the N×8-core shape (the ``multi-server``
        preset); otherwise the paper testbed with its
        option flags. ``racks > 1`` replicates that rack into a star
        fabric.
        """
        if servers and servers > 0:
            rack = RackSpec(servers=servers, server_model="eight-core")
        else:
            rack = RackSpec(
                switch="openflow" if with_openflow else "pisa",
                smartnic=with_smartnic,
                metron_steering=metron,
            )
        if racks and racks > 1:
            return cls.star(racks, rack_template=rack)
        return cls(racks=(rack,))

    # -- (de)serialization --------------------------------------------------

    #: the exhaustive wire fields; anything else is rejected so schema
    #: typos fail loudly instead of silently defaulting.
    _TOP_FIELDS = frozenset({"racks", "links"})
    _RACK_FIELDS = frozenset({
        "name", "switch", "num_stages", "servers", "server_model",
        "smartnic", "metron_steering",
    })
    _LINK_FIELDS = frozenset({"a", "b", "capacity_mbps", "latency_us"})

    def as_dict(self) -> dict:
        return {
            "racks": [
                {
                    "name": rack.name,
                    "switch": rack.switch,
                    "num_stages": rack.num_stages,
                    "servers": rack.servers,
                    "server_model": rack.server_model,
                    "smartnic": rack.smartnic,
                    "metron_steering": rack.metron_steering,
                }
                for rack in self.racks
            ],
            "links": [
                {
                    "a": link.a,
                    "b": link.b,
                    "capacity_mbps": link.capacity_mbps,
                    "latency_us": link.latency_us,
                }
                for link in self.links
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "TopologySpec":
        if not isinstance(payload, dict):
            raise TopologyError(
                f"topology spec must be an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - cls._TOP_FIELDS
        if unknown:
            raise TopologyError(
                f"topology spec carries unknown fields {sorted(unknown)}"
            )
        try:
            racks = []
            for entry in payload.get("racks", ()):
                bad = set(entry) - cls._RACK_FIELDS
                if bad:
                    raise TopologyError(
                        f"rack spec carries unknown fields {sorted(bad)}"
                    )
                racks.append(RackSpec(
                    name=str(entry["name"]),
                    switch=str(entry.get("switch", "pisa")),
                    num_stages=int(entry.get("num_stages", 12)),
                    servers=int(entry.get("servers", 1)),
                    server_model=str(entry.get("server_model", "paper")),
                    smartnic=bool(entry.get("smartnic", False)),
                    metron_steering=bool(
                        entry.get("metron_steering", False)
                    ),
                ))
            links = []
            for entry in payload.get("links", ()):
                bad = set(entry) - cls._LINK_FIELDS
                if bad:
                    raise TopologyError(
                        f"link spec carries unknown fields {sorted(bad)}"
                    )
                links.append(InterRackLinkSpec(
                    a=str(entry["a"]),
                    b=str(entry["b"]),
                    capacity_mbps=float(
                        entry.get(
                            "capacity_mbps", DEFAULT_LINK_CAPACITY_MBPS
                        )
                    ),
                    latency_us=float(
                        entry.get("latency_us", DEFAULT_LINK_LATENCY_US)
                    ),
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(
                f"malformed topology spec: {exc}"
            ) from exc
        return cls(racks=tuple(racks), links=tuple(links))

    @classmethod
    def parse_json(cls, text: str) -> "TopologySpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TopologyError(
                f"topology spec is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    @classmethod
    def json_schema(cls) -> dict:
        """A JSON-schema document for the wire format (CI lint check)."""
        return {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "TopologySpec",
            "type": "object",
            "additionalProperties": False,
            "required": ["racks"],
            "properties": {
                "racks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["name"],
                        "properties": {
                            "name": {"type": "string", "minLength": 1},
                            "switch": {"enum": list(SWITCH_KINDS)},
                            "num_stages": {
                                "type": "integer", "minimum": 1,
                            },
                            "servers": {
                                "type": "integer", "minimum": 1,
                            },
                            "server_model": {
                                "enum": list(SERVER_MODELS),
                            },
                            "smartnic": {"type": "boolean"},
                            "metron_steering": {"type": "boolean"},
                        },
                    },
                },
                "links": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["a", "b"],
                        "properties": {
                            "a": {"type": "string", "minLength": 1},
                            "b": {"type": "string", "minLength": 1},
                            "capacity_mbps": {
                                "type": "number",
                                "exclusiveMinimum": 0,
                            },
                            "latency_us": {
                                "type": "number", "minimum": 0,
                            },
                        },
                    },
                },
            },
        }


# ---------------------------------------------------------------------------
# named presets
# ---------------------------------------------------------------------------

_PRESETS: Dict[str, Callable[[], TopologySpec]] = {}


def register_topology(name: str,
                      factory: Callable[[], TopologySpec]) -> None:
    """Register (or replace) a named topology preset."""
    _PRESETS[name] = factory


def available_topologies() -> List[str]:
    return sorted(_PRESETS)


def topology_for(name: str, **overrides) -> TopologySpec:
    """A preset :class:`TopologySpec` by name.

    Single-rack presets accept rack-field overrides (``servers=4``,
    ``smartnic=True``, …) applied to their one rack.
    """
    factory = _PRESETS.get(name)
    if factory is None:
        raise TopologyError(
            f"unknown topology preset {name!r}; "
            f"choose from {available_topologies()}"
        )
    spec = factory()
    if not overrides:
        return spec
    if spec.is_multi_rack:
        raise TopologyError(
            f"preset {name!r} is multi-rack; rack overrides are ambiguous "
            "— build a TopologySpec explicitly"
        )
    return TopologySpec(racks=(replace(spec.racks[0], **overrides),))


register_topology(
    "paper-testbed", lambda: TopologySpec(racks=(RackSpec(),))
)
register_topology(
    "paper-smartnic",
    lambda: TopologySpec(racks=(RackSpec(smartnic=True),)),
)
register_topology(
    "paper-openflow",
    lambda: TopologySpec(racks=(RackSpec(switch="openflow"),)),
)
register_topology(
    "metron",
    lambda: TopologySpec(racks=(RackSpec(metron_steering=True),)),
)
register_topology(
    "multi-server",
    lambda: TopologySpec(
        racks=(RackSpec(servers=2, server_model="eight-core"),)
    ),
)
register_topology("two-rack", lambda: TopologySpec.star(2))
register_topology(
    "two-rack-wide",
    lambda: TopologySpec.star(
        2,
        rack_template=RackSpec(servers=2, server_model="eight-core"),
    ),
)
register_topology("three-rack", lambda: TopologySpec.star(3))


__all__ = [
    "DEFAULT_LINK_CAPACITY_MBPS",
    "DEFAULT_LINK_LATENCY_US",
    "InterRackLinkSpec",
    "RackSpec",
    "SERVER_MODELS",
    "SWITCH_KINDS",
    "TopologySpec",
    "available_topologies",
    "register_topology",
    "topology_for",
]
