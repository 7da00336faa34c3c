"""Typed command/outcome wire forms: strict parsing, round-trips, schemas."""

import pytest

from repro.exceptions import CommandError, LifecycleError
from repro.sim.admission import FAULT_ACTIONS
from repro.serve.commands import (
    MUTATING_KINDS,
    STATUS_APPLIED,
    Arrive,
    CommandOutcome,
    Depart,
    InjectFault,
    Scale,
    Snapshot,
    command_schemas,
    parse_command,
)

ROUND_TRIP = [
    Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
           t_min_mbps=500.0),
    Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
           t_min_mbps=500.0, t_max_mbps=4000.0, d_max_us=250.0),
    Scale(chain="enterprise", t_min_mbps=1500.0),
    Scale(chain="enterprise", t_min_mbps=1500.0, t_max_mbps=9000.0),
    Depart(chain="enterprise"),
    InjectFault(action="fail", target="server0"),
    InjectFault(action="degrade_link", target="server0", severity=0.4),
    InjectFault(action="lose_cores", target="server0", severity=2.0),
    InjectFault(action="restore_cores", target="server0"),
    Snapshot(),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "command", ROUND_TRIP, ids=lambda c: repr(c)[:48]
    )
    def test_as_dict_parse_identity(self, command):
        assert parse_command(command.as_dict()) == command

    def test_infinities_are_omitted(self):
        wire = Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
                      t_min_mbps=500.0).as_dict()
        assert "t_max_mbps" not in wire
        assert "d_max_us" not in wire

    def test_default_severity_is_omitted(self):
        wire = InjectFault(action="fail", target="server0").as_dict()
        assert "severity" not in wire


class TestStrictParsing:
    def test_non_object_rejected(self):
        with pytest.raises(CommandError, match="must be an object"):
            parse_command(["arrive"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(CommandError, match="unknown command kind"):
            parse_command({"kind": "explode"})

    def test_unknown_field_rejected(self):
        with pytest.raises(CommandError, match="unknown fields"):
            parse_command({"kind": "depart", "chain": "a", "force": True})

    def test_missing_required_rejected(self):
        with pytest.raises(CommandError, match="missing required"):
            parse_command({"kind": "arrive", "chain": "dyn0"})

    def test_mistyped_field_rejected(self):
        with pytest.raises(CommandError, match="malformed"):
            parse_command({"kind": "scale", "chain": "a",
                           "t_min_mbps": "plenty"})

    def test_semantic_validation_runs(self):
        with pytest.raises(CommandError, match="t_min_mbps > 0"):
            parse_command({"kind": "scale", "chain": "a",
                           "t_min_mbps": -3.0})

    def test_arrive_spec_must_declare_the_chain(self):
        with pytest.raises(CommandError, match="exactly"):
            Arrive(chain="dyn0", spec="chain other: ACL -> IPv4Fwd",
                   t_min_mbps=500.0).validate()

    def test_fault_action_vocabulary(self):
        """Serve takes the chaos timeline's six actions, and no other."""
        assert command_schemas()["commands"]["inject_fault"]["properties"][
            "action"]["enum"] == sorted(FAULT_ACTIONS)
        with pytest.raises(CommandError, match="unknown fault action"):
            InjectFault(action="explode", target="server0").validate()

    @pytest.mark.parametrize("action, severity", [
        ("fail", float("nan")),
        ("recover", float("-inf")),
        ("lose_cores", float("inf")),
        ("lose_cores", 1.5),
        ("lose_cores", 0.0),
    ])
    def test_fault_severity_is_strict(self, action, severity):
        """The chaos timeline's severity rules, raised as CommandError."""
        with pytest.raises(CommandError, match="severity"):
            parse_command({"kind": "inject_fault", "action": action,
                           "target": "server0", "severity": severity})

    def test_degrade_severity_bounds(self):
        with pytest.raises(CommandError, match="severity"):
            InjectFault(action="degrade_link", target="server0",
                        severity=1.5).validate()


class TestOutcome:
    def test_round_trip(self):
        outcome = CommandOutcome(
            seq=7, kind="depart", status=STATUS_APPLIED,
            digest="abc123",
        )
        assert CommandOutcome.from_dict(outcome.as_dict()) == outcome

    def test_snapshot_payload_survives(self):
        outcome = CommandOutcome(
            seq=0, kind="snapshot", status=STATUS_APPLIED,
            snapshot={"seq": 0, "active": []},
        )
        back = CommandOutcome.from_dict(outcome.as_dict())
        assert back.snapshot == {"seq": 0, "active": []}

    def test_unknown_field_rejected(self):
        with pytest.raises(CommandError, match="unknown fields"):
            CommandOutcome.from_dict(
                {"seq": 1, "kind": "depart", "status": "applied",
                 "extra": 1}
            )

    def test_unknown_status_rejected(self):
        with pytest.raises(CommandError, match="status"):
            CommandOutcome.from_dict(
                {"seq": 1, "kind": "depart", "status": "maybe"}
            )

    DECISION = {
        "tick": 3, "action": "arrive", "chain": "dyn0", "accepted": False,
        "reason": "no cores", "mode": "incremental", "pinned": 2,
        "placed": 1, "rebuilt": ["tor"], "reused": ["server0"],
        "removed": [],
    }

    def test_decision_round_trips_through_json(self):
        import json

        outcome = CommandOutcome.from_dict(json.loads(json.dumps({
            "seq": 3, "kind": "arrive", "status": "rejected",
            "decision": self.DECISION,
        })))
        assert outcome.decision.as_dict() == self.DECISION
        assert outcome.decision.accepted is False
        assert outcome.decision.rebuilt == ("tor",)

    @pytest.mark.parametrize("field, value", [
        ("accepted", "false"),      # bool("false") is True
        ("accepted", 0),
        ("tick", True),
        ("tick", "3"),
        ("pinned", 2.9),            # int(2.9) is 2
        ("placed", None),
        ("rebuilt", "abc"),         # tuple("abc") is ('a', 'b', 'c')
        ("reused", [1, 2]),
        ("removed", {"tor": 1}),
        ("cache_hit", False),       # gone from the wire: an unknown field
    ])
    def test_mistyped_decision_field_rejected(self, field, value):
        with pytest.raises(LifecycleError, match=field):
            CommandOutcome.from_dict({
                "seq": 3, "kind": "arrive", "status": "rejected",
                "decision": {**self.DECISION, field: value},
            })

    def test_http_status_mapping(self):
        assert CommandOutcome.http_status("applied") == 200
        assert CommandOutcome.http_status("rejected") == 409
        assert CommandOutcome.http_status("invalid") == 400
        assert CommandOutcome.http_status("error") == 500
        assert CommandOutcome.http_status("garbage") == 500


class TestSchemas:
    def test_every_kind_has_a_strict_schema(self):
        schemas = command_schemas()["commands"]
        assert set(schemas) == set(MUTATING_KINDS) | {"snapshot"}
        for kind, schema in schemas.items():
            assert schema["additionalProperties"] is False
            assert schema["properties"]["kind"] == {"const": kind}
            assert "kind" in schema["required"]

    def test_outcome_schema_is_strict(self):
        outcome = command_schemas()["outcome"]
        assert outcome["additionalProperties"] is False
        assert set(outcome["required"]) == {"seq", "kind", "status"}
