"""What a checkpoint no longer carries: the series of chains that left,
625 pickled ints per module for its Mersenne state, and up to 4 096
retained samples per histogram."""

import pickle
import random

from test_memo_determinism import storm

from repro.bess.modules import make_nf_module
from repro.hw.spec import topology_for
from repro.obs.metrics import _MAX_BUCKETS
from repro.serve import Arrive, Depart, Scale


def _chain_series(registry, chain):
    return [
        (inst.name, inst.labels)
        for group in (registry.counters(), registry.gauges(),
                      registry.histograms())
        for inst in group if ("chain", chain) in inst.labels
    ]


def test_module_rng_state_pickles_packed_and_resumes_the_stream():
    module = make_nf_module("Encrypt", name="enc0", seed=23)
    twin = random.Random("23/enc0")
    assert module._rng.getstate() == twin.getstate()
    for _ in range(5):
        assert module._rng.uniform(1.0, 9.0) == twin.uniform(1.0, 9.0)

    # 625 words as one bytes object, not 625 pickled ints
    version, packed, gauss_next = module.__getstate__()["_rng"]
    assert type(packed) is bytes and len(packed) == 4 * 625
    assert (version, gauss_next) == (twin.getstate()[0], None)
    blob = pickle.dumps(module, pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(blob)
    assert type(restored._rng) is random.Random
    assert restored._rng.getstate() == twin.getstate()
    assert restored.__dict__.keys() == module.__dict__.keys()
    assert [restored._rng.random() for _ in range(700)] \
        == [twin.random() for _ in range(700)]
    # pickling read the live module's stream, it did not move it
    assert module._rng.getstate() != restored._rng.getstate()
    assert pickle.loads(blob)._rng.getstate() == module._rng.getstate()


def test_departed_chain_leaves_the_registry_and_the_rack(
        make_config, drive, tmp_path):
    arrive = Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
                    t_min_mbps=500.0, t_max_mbps=4000.0)
    stayed, _ = drive(make_config(), tmp_path / "a", [arrive])
    assert _chain_series(stayed.registry, "dyn0")
    assert "dyn0" in stayed.core.cores["r0"].rack._chain_inst

    left, outcomes = drive(make_config(), tmp_path / "b",
                           [arrive, Depart(chain="dyn0")])
    assert [o.status for o in outcomes] == ["applied", "applied"]
    assert not _chain_series(left.registry, "dyn0")
    assert "dyn0" not in left.core.cores["r0"].rack._chain_inst
    assert not [key for key in left.core.cores["r0"].rack._drop_counters
                if key[0] == "dyn0"]
    # the chains that stayed keep every series they had
    for chain in ("enterprise", "residential"):
        assert len(_chain_series(left.registry, chain)) \
            == len(_chain_series(stayed.registry, chain))

    # the same name again starts from zero, in live instruments
    back, _ = drive(make_config(), tmp_path / "c",
                    [arrive, Depart(chain="dyn0"), arrive])
    assert back.registry.counter_value(
        "rack.packets.injected", chain="dyn0"
    ) == back.config.packets_per_phase
    assert back.core.cores["r0"].rack._chain_inst["dyn0"]["injected"] is \
        back.registry.counter("rack.packets.injected", chain="dyn0")


def test_fabric_departures_and_migrations_drop_series_too(
        make_config, drive, tmp_path):
    """Rack cores of a fabric share one registry: a chain's series go
    when it departs (rack torn down or not) and restart on the rack a
    migration moved it to."""
    spec = "\n".join(
        f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(6)
    )
    config = make_config(
        spec_text=spec,
        slos=tuple((4000.0, 9000.0, 400.0) for _ in range(6)),
        topology=topology_for("two-rack"),
    )
    arrivals = [
        Arrive(chain=name,
               spec=f"chain {name}: ACL(rules=64) -> Encrypt -> IPv4Fwd",
               t_min_mbps=4000.0, t_max_mbps=9000.0, d_max_us=400.0)
        for name in ("c6", "c7", "c8")
    ]
    moved, outcomes = drive(
        config, tmp_path / "a",
        arrivals + [Scale(chain="c1", t_min_mbps=12000.0)])
    assert outcomes[-1].decision.mode == "migrate:r0->r1"
    # the four phases c1 ran on r0 went with the source rack's series
    assert moved.registry.counter_value(
        "rack.packets.injected", chain="c1"
    ) == moved.config.packets_per_phase
    assert "c1" not in moved.core.cores["r0"].rack._chain_inst
    assert "c1" in moved.core.cores["r1"].rack._chain_inst

    # c5 is alone on r1: its departure tears the rack core down
    gone, outcomes = drive(config, tmp_path / "b", [Depart(chain="c5")])
    assert outcomes[0].decision.mode == "teardown"
    assert not _chain_series(gone.registry, "c5")
    assert _chain_series(gone.registry, "c0")


def test_registry_pickle_is_buckets_not_samples(make_config, drive, tmp_path):
    """After a 240-command storm the daemon's registry — what a checkpoint
    carries of its metrics — holds buckets, not samples: 48 histograms
    pickled to 331 317 B when each kept its first 4 096 observations
    (40 097 of them here), and pickle to ≈ 50 kB as sketches."""
    daemon, outcomes = drive(make_config(checkpoint_every=0),
                             tmp_path / "state", storm(length=240))
    assert {o.status for o in outcomes} <= {"applied", "rejected"}
    histograms = list(daemon.registry.histograms())
    observed = sum(h.count for h in histograms)
    buckets = sum(len(h.payload()) - 2 for h in histograms)
    assert observed > 5 * buckets
    assert all(len(h.payload()) <= _MAX_BUCKETS + 2 for h in histograms)
    blob = pickle.dumps(daemon.registry, pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 80_000, len(blob)
