"""The five workloads' inputs, all derived from ``--seed``.

Nothing here imports ``repro``: a workload is spec text, SLO tuples, a
topology preset name, sizes, and (for the two control-plane workloads) a
seeded command/event generator. Every generated input is dumped to
``bench/out/inputs-<workload>-<seed>.json`` next to the results, and each
workload states the pressure it depends on so a seed or a code change
that bypasses the intended layer fails loudly in ``checks.py`` instead of
producing a quiet number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from common import OUT_DIR, write_json

# ---------------------------------------------------------------------------
# dataplane workloads
# ---------------------------------------------------------------------------

_NIC_SPEC = (
    "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
    "chain b: ACL -> Encrypt -> IPv4Fwd\n"
)

#: Replayed packets carry a constant ``timestamp_us``, so the stock
#: 512 KiB Limiter bucket never refills and empties after ~800 packets;
#: the override keeps the workload measuring forwarding, not early drops
#: (a known model gap, see README).
_LIMITER = "Limiter(burst_bytes=1073741824)"
_SUB6 = f"LB -> {_LIMITER} -> ACL"
_SUB7 = f"ACL -> {_LIMITER}"
_SUB8 = "Detunnel -> Encrypt -> IPv4Fwd"

#: The paper's Table-2 chains 1-4, written out here so the benchmark's
#: input does not move when ``repro.experiments`` does.
_TABLE2_SPEC = (
    f"chain chain1: BPF -> [{_SUB7} -> BPF -> UrlFilter -> {_SUB8}, "
    f"{_SUB8}, {_SUB8}]\n"
    "chain chain2: Encrypt -> LB -> [NAT, NAT, NAT] -> IPv4Fwd\n"
    f"chain chain3: Dedup -> ACL -> {_LIMITER} -> LB -> IPv4Fwd\n"
    "chain chain4: Dedup -> ACL -> Monitor -> Tunnel -> BPF -> "
    f"[{_SUB6}, {_SUB6}, {_SUB6}] -> IPv4Fwd\n"
)

#: t_min = 0.5 x base rate (one core on the slowest software NF at
#: 1.7 GHz, 1500-byte packets), t_max = 100 Gbps: the paper's delta = 0.5
#: point, frozen as numbers so the input is identical on every commit.
_TABLE2_SLOS = (
    (1118.0532719500166, 100000.0),
    (1118.0532719500166, 100000.0),
    (307.3677866505951, 100000.0),
    (307.3677866505951, 100000.0),
)


@dataclass(frozen=True)
class DataplaneInputs:
    workload: str
    spec_text: str
    slos: Tuple[Tuple[float, ...], ...]
    preset: str
    flows: int
    batch: int
    packets: int
    seed: int
    #: allowed range of the columnar engine's scalar-fallback share.
    fallback_share: Tuple[float, float]
    #: allowed range of packets per distinct flow signature in a batch.
    per_signature: Tuple[float, float]

    def as_dict(self) -> dict:
        return dict(self.__dict__)


_DATAPLANE = {
    "nic_fastpath": dict(
        spec_text=_NIC_SPEC, slos=((1000.0, 39000.0),) * 2,
        preset="paper-smartnic", flows=64, batch=4096, packets=400_000,
        fallback_share=(0.0, 0.0), per_signature=(16.0, 4096.0),
    ),
    "flowscale_smallbatch": dict(
        spec_text=_NIC_SPEC, slos=((1000.0, 39000.0),) * 2,
        preset="paper-smartnic", flows=4096, batch=64, packets=20_000,
        fallback_share=(0.0, 0.0), per_signature=(1.0, 1.0),
    ),
    "table2_stateful": dict(
        spec_text=_TABLE2_SPEC, slos=_TABLE2_SLOS,
        preset="paper-testbed", flows=64, batch=4096, packets=4096,
        fallback_share=(0.8, 1.0), per_signature=(16.0, 4096.0),
    ),
}

#: ``--quick`` divides the per-pass packet budget by this.
_QUICK_DIVISOR = 8


def dataplane_inputs(workload: str, seed: int,
                     quick: bool = False) -> DataplaneInputs:
    params = dict(_DATAPLANE[workload])
    if quick:
        params["packets"] = max(
            params["batch"] if params["batch"] <= 64 else 1024,
            params["packets"] // _QUICK_DIVISOR,
        )
    return DataplaneInputs(workload=workload, seed=seed, **params)


# ---------------------------------------------------------------------------
# control-plane workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnInputs:
    workload: str
    spec_text: str
    slos: Tuple[Tuple[float, ...], ...]
    preset: str
    packets: int
    flows: int
    batch: int
    seed: int
    #: commands (serve) or timeline events (fabric) per trial.
    operations: int
    checkpoint_every: int = 8

    def as_dict(self) -> dict:
        return dict(self.__dict__)


_SERVE_SPEC = (
    "chain base0: ACL -> Encrypt -> IPv4Fwd\n"
    "chain base1: BPF -> NAT -> IPv4Fwd\n"
)

#: arrivals draw from this menu of small chains.
_SERVE_MENU = (
    "Monitor -> IPv4Fwd",
    "ACL -> IPv4Fwd",
    "ACL -> Monitor -> IPv4Fwd",
    "BPF -> IPv4Fwd",
    "ACL -> Encrypt -> IPv4Fwd",
    "BPF -> NAT -> IPv4Fwd",
)

_FABRIC_BODY = "ACL(rules=64) -> Encrypt -> IPv4Fwd"
#: Nine base chains, not the six of the issue text: six leave rack r2
#: empty at bootstrap, and the first chain into an empty rack (like a
#: rack teardown) crashes ``FabricAdmissionCore._placement_devices`` at
#: this commit (it sorts unorderable ``NodeAssignment`` objects). Nine
#: anchor all three racks; the generator never touches the anchors, so
#: no rack ever empties. See README "known gaps".
_FABRIC_BASE = 9


def serve_inputs(seed: int, quick: bool = False) -> ChurnInputs:
    return ChurnInputs(
        workload="serve_churn", spec_text=_SERVE_SPEC,
        slos=((1000.0, 20000.0),) * 2, preset="multi-server",
        packets=16, flows=8, batch=8, seed=seed,
        operations=40 if quick else 240,
    )


def fabric_inputs(seed: int, quick: bool = False) -> ChurnInputs:
    return ChurnInputs(
        workload="fabric_lifecycle",
        spec_text="".join(
            f"chain c{i}: {_FABRIC_BODY}\n" for i in range(_FABRIC_BASE)
        ),
        slos=((4000.0, 9000.0, 400.0),) * _FABRIC_BASE,
        preset="three-rack", packets=16, flows=8, batch=8, seed=seed,
        operations=48 if quick else 120,
    )


#: The *shape* of a storm — which kind of operation comes when, which
#: requests are oversize — is drawn from this fixed stream, the same for
#: every seed, as is the body of each arriving chain; ``--seed`` draws the
#: parameters (SLO floors and caps, which chain an operation names). Left to the seed, the shape alone
#: moved mean command cost by ~8 % between seeds, which the pipeline
#: would read as run-to-run noise of the program.
_SHAPE_SEED = 20200


def _arrive_probability(population: int, target: int) -> float:
    """Steer the active population towards ``target`` chains."""
    return min(max(0.44 + 0.05 * (target - population), 0.10), 0.85)


@dataclass
class ServeCommandGenerator:
    """Seeded closed-loop operator: ~40 % arrive / 25 % scale / 25 %
    depart / 5 % fault probe (degrade, then restore) / 5 % snapshot.

    The next command depends on which chains the daemon has actually
    admitted (the caller reports each outcome through :meth:`observe`),
    which is what a closed-loop client does; the daemon is deterministic,
    so one seed still yields one command list. The snapshot count is
    fixed so the number of journaled commands — and with it how many sit
    past the last checkpoint when the daemon is killed — does not vary
    with the seed.
    """

    seed: int
    operations: int
    base_names: Sequence[str] = ("base0", "base1")
    target_population: int = 12
    #: most requests ask for a floor the rack can usually grant ...
    t_min_range: Tuple[float, float] = (800.0, 3200.0)
    #: ... and this share asks for more than the 100 G line rate, so every
    #: seed sees rejections (a capacity-only mix rejects 0-17 % of
    #: arrivals depending on the seed, too loose to assert on).
    oversize_share: float = 0.15
    oversize_range: Tuple[float, float] = (150000.0, 200000.0)
    fault_target: str = "server0"

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        shape = random.Random(_SHAPE_SEED)
        slots = shape.sample(
            range(self.operations), 2 * (self.operations // 20)
        )
        #: per command index: the kind draw and whether it is oversize
        self._kind_draws = [shape.random() for _ in range(self.operations)]
        self._oversize = [shape.random() < self.oversize_share
                          for _ in range(self.operations)]
        self._bodies = [shape.choice(_SERVE_MENU)
                        for _ in range(self.operations)]
        half = len(slots) // 2
        self._snapshots = set(slots[:half])
        self._faults = set(slots[half:])
        self._index = 0
        self._arrivals = 0
        self._degraded = False
        self.active: List[str] = list(self.base_names)
        self.issued: List[dict] = []
        self._pending: Optional[dict] = None

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        if self._index >= self.operations:
            raise StopIteration
        command = self._draw()
        self._index += 1
        self._pending = command
        self.issued.append(command)
        return command

    def _t_min(self) -> float:
        bounds = self.oversize_range if self._oversize[self._index] \
            else self.t_min_range
        return round(self._rng.uniform(*bounds), 1)

    def _draw(self) -> dict:
        rng = self._rng
        if self._index in self._snapshots:
            return {"kind": "snapshot"}
        if self._index in self._faults:
            self._degraded = not self._degraded
            if self._degraded:
                return {"kind": "inject_fault", "action": "degrade_link",
                        "target": self.fault_target, "severity": 0.3}
            return {"kind": "inject_fault", "action": "restore_link",
                    "target": self.fault_target}
        dynamic = [n for n in self.active if n not in self.base_names]
        arrive = _arrive_probability(len(self.active),
                                     self.target_population)
        draw = self._kind_draws[self._index]
        if draw < arrive or not dynamic:
            name = f"dyn{self._arrivals}"
            self._arrivals += 1
            t_min = self._t_min()
            return {
                "kind": "arrive", "chain": name,
                "spec": f"chain {name}: {self._bodies[self._index]}",
                "t_min_mbps": t_min,
                "t_max_mbps": round(t_min * rng.uniform(2.0, 8.0), 1),
            }
        if draw < arrive + (1.0 - arrive) / 2.0:
            return {
                "kind": "scale", "chain": rng.choice(self.active),
                "t_min_mbps": self._t_min(),
            }
        return {"kind": "depart", "chain": rng.choice(dynamic)}

    def observe(self, status: str) -> None:
        """Record the daemon's verdict on the command just issued."""
        command, self._pending = self._pending, None
        if command is None or status != "applied":
            return
        if command["kind"] == "arrive":
            self.active.append(command["chain"])
        elif command["kind"] == "depart":
            self.active.remove(command["chain"])


def fabric_events(operations: int, target_population: int = 8) -> List[dict]:
    """The offline timeline of arrive/scale/depart events on dynamic
    chains (one event per tick), drawn entirely from the fixed shape
    stream: on this workload ``--seed`` seeds the racks (drop hash, cycle
    draws) and nothing else. With seeded targets the share of cold full
    solves moved the p95 of the admission latency by 17 % between seeds,
    which the pipeline would have read as noise of the program.

    ``run_lifecycle`` takes the whole timeline up front, so targets are
    chosen among chains the generator *asked* to admit; an event on a
    chain whose arrival was rejected is answered with a static rejection,
    which is an outcome, not a failure.
    """
    shape = random.Random(_SHAPE_SEED)
    alive: List[str] = []
    events: List[dict] = []
    serial = _FABRIC_BASE
    for tick in range(1, operations + 1):
        arrive = _arrive_probability(len(alive), target_population)
        draw = shape.random()
        if draw < arrive or not alive:
            name = f"c{serial}"
            serial += 1
            events.append({
                "at": tick, "action": "arrive", "chain": name,
                "spec": f"chain {name}: {_FABRIC_BODY}",
                "t_min_mbps": round(shape.uniform(2000.0, 6000.0), 1),
                "t_max_mbps": 9000.0, "d_max_us": 400.0,
            })
            alive.append(name)
        elif draw < arrive + (1.0 - arrive) / 2.0:
            events.append({
                "at": tick, "action": "scale", "chain": shape.choice(alive),
                "t_min_mbps": round(shape.uniform(2000.0, 9000.0), 1),
            })
        else:
            name = shape.choice(alive)
            events.append({"at": tick, "action": "depart", "chain": name})
            alive.remove(name)
    return events


def dump_inputs(workload: str, seed: int, payload: dict) -> str:
    path = OUT_DIR / f"inputs-{workload}-{seed}.json"
    write_json(path, payload)
    return str(path.relative_to(OUT_DIR.parent.parent))


WORKLOADS = (
    "nic_fastpath", "flowscale_smallbatch", "table2_stateful",
    "serve_churn", "fabric_lifecycle",
)
