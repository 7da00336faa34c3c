"""Placement cache: key stability, hit/miss semantics, isolation."""

import dataclasses
import enum
import hashlib
import pickle

import pytest

from repro.chain.ast import NFInvocation
from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.chain.vocabulary import default_vocabulary
from repro.core.cache import (
    PlacementCache,
    get_cache,
    placement_fingerprint,
    scoped_cache,
)
from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for
from repro.obs import scoped_registry
from repro.profiles.defaults import default_profiles
from repro.units import DEFAULT_PACKET_BITS


@pytest.fixture()
def profiles():
    return default_profiles()


@pytest.fixture()
def chains(profiles):
    return chains_with_delta([2, 3], delta=0.5, profiles=profiles)


def fingerprint(chains, profiles, topology=None, strategy="Lemur",
                packet_bits=DEFAULT_PACKET_BITS, extra=()):
    return placement_fingerprint(
        chains, topology or topology_for("paper-testbed").build(), profiles,
        strategy, packet_bits, extra=extra,
    )


def _reference_canonical(obj):
    """The two-pass tuple-tree canonicalisation the one-pass key replaced,
    kept as the oracle: keys must separate exactly the problems whose
    reference payloads differ."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return ("dict", tuple(
            (str(k), _reference_canonical(v))
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(
            (_reference_canonical(v) for v in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_reference_canonical(v) for v in obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__, tuple(
            (f.name, _reference_canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        ))
    if callable(obj):
        return ("fn", getattr(obj, "__module__", ""),
                getattr(obj, "__qualname__", repr(type(obj))))
    state = getattr(obj, "__dict__", None)
    if state is not None:
        public = {k: v for k, v in state.items() if not k.startswith("_")}
        return (type(obj).__name__, _reference_canonical(public))
    return ("repr", repr(obj))


def _reference_key(chains, topology, profiles, strategy, packet_bits,
                   extra=()):
    payload = _reference_canonical((
        "placement/v1",
        tuple(_reference_canonical(c) for c in chains),
        _reference_canonical(topology),
        _reference_canonical(profiles),
        str(strategy),
        int(packet_bits),
        _reference_canonical(extra),
    ))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


PARAM_SPEC = "chain a: ACL(rules={rules}) -> Encrypt -> IPv4Fwd\n"


class TestFingerprintStability:
    def test_identical_inputs_identical_key(self, profiles, chains):
        a = fingerprint(chains, profiles)
        b = fingerprint(
            chains_with_delta([2, 3], delta=0.5, profiles=profiles),
            default_profiles(),
        )
        assert a == b

    def test_key_is_hex_digest(self, profiles, chains):
        key = fingerprint(chains, profiles)
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_delta_changes_key(self, profiles):
        lo = fingerprint(chains_with_delta([2], 0.5, profiles=profiles),
                         profiles)
        hi = fingerprint(chains_with_delta([2], 1.0, profiles=profiles),
                         profiles)
        assert lo != hi

    def test_strategy_changes_key(self, profiles, chains):
        assert fingerprint(chains, profiles, strategy="Lemur") != \
            fingerprint(chains, profiles, strategy="Greedy")

    def test_packet_bits_changes_key(self, profiles, chains):
        assert fingerprint(chains, profiles, packet_bits=1500 * 8) != \
            fingerprint(chains, profiles, packet_bits=256 * 8)

    def test_topology_state_changes_key(self, profiles, chains):
        base = fingerprint(chains, profiles)
        assert base != fingerprint(chains, profiles,
                                   topology=topology_for("multi-server").build())
        failed = topology_for("paper-testbed").build()
        failed.mark_failed("server0")
        assert base != fingerprint(chains, profiles, topology=failed)
        reserved = topology_for("paper-testbed").build()
        reserved.servers[0].reserved_cores += 2
        assert base != fingerprint(chains, profiles, topology=reserved)

    def test_profile_error_changes_key(self, profiles, chains):
        assert fingerprint(chains, profiles) != \
            fingerprint(chains, profiles.with_error(-0.05))

    def test_private_attributes_ignored(self, profiles, chains):
        class Thing:
            def __init__(self):
                self.value = 1
                self._scratch = object()

        a, b = Thing(), Thing()
        b._scratch = object()
        assert fingerprint(chains, profiles, extra=(a,)) == \
            fingerprint(chains, profiles, extra=(b,))
        b.value = 2
        assert fingerprint(chains, profiles, extra=(a,)) != \
            fingerprint(chains, profiles, extra=(b,))

    def test_slo_changes_key(self, profiles, chains):
        rescaled = [chains[0].with_slo(SLO(t_min=1.0, t_max=2.0)), chains[1]]
        assert fingerprint(chains, profiles) != fingerprint(rescaled, profiles)
        bounded = [chains[0].with_slo(
            dataclasses.replace(chains[0].slo, d_max=50.0)), chains[1]]
        assert fingerprint(chains, profiles) != fingerprint(bounded, profiles)

    def test_params_change_key(self, profiles):
        small = chains_from_spec(PARAM_SPEC.format(rules=64))
        large = chains_from_spec(PARAM_SPEC.format(rules=128))
        assert fingerprint(small, profiles) != fingerprint(large, profiles)

    def test_extra_changes_key(self, profiles, chains):
        base = fingerprint(chains, profiles, extra=("objective", "a"))
        assert base != fingerprint(chains, profiles)
        assert base != fingerprint(chains, profiles, extra=("objective", "b"))
        # scalars keep their type: 1, 1.0 and True are different knobs
        keys = {fingerprint(chains, profiles, extra=(v,))
                for v in (1, 1.0, True, "1")}
        assert len(keys) == 4

    def test_independently_parsed_identical_specs_collide(self, profiles):
        a = chains_from_spec(PARAM_SPEC.format(rules=64))
        b = chains_from_spec(PARAM_SPEC.format(rules=64))
        assert a[0].graph is not b[0].graph
        assert fingerprint(a, profiles) == fingerprint(b, profiles)

    def test_with_slo_copies_share_a_graph_but_not_a_key(self, profiles):
        (chain,) = chains_from_spec(PARAM_SPEC.format(rules=64))
        first = fingerprint([chain], profiles)
        copy = chain.with_slo(SLO(t_min=500.0, t_max=900.0))
        assert copy.graph is chain.graph
        assert fingerprint([copy], profiles) != first
        assert fingerprint([chain], profiles) == first

    def test_graph_mutation_after_fingerprinting_changes_key(self, profiles):
        (chain,) = chains_from_spec(PARAM_SPEC.format(rules=64))
        keys = [fingerprint([chain], profiles)]
        graph = chain.graph
        tail = graph.exit_nodes()[0]
        node = graph.add_node(NFInvocation(nf_class="Monitor"),
                              default_vocabulary())
        keys.append(fingerprint([chain], profiles))
        graph.add_edge(tail, node.node_id)
        keys.append(fingerprint([chain], profiles))
        assert len(set(keys)) == 3
        # and the mutated graph still collides with an identical fresh one
        (fresh,) = chains_from_spec(
            "chain a: ACL(rules=64) -> Encrypt -> IPv4Fwd -> Monitor\n")
        assert keys[-1] == fingerprint([fresh], profiles)

    def test_graph_memo_does_not_ride_in_pickles(self, profiles):
        (chain,) = chains_from_spec(PARAM_SPEC.format(rules=64))
        bare = pickle.dumps(chain)
        key = fingerprint([chain], profiles)
        assert pickle.dumps(chain) == bare
        assert fingerprint([pickle.loads(bare)], profiles) == key

    def test_keys_separate_exactly_what_the_reference_separated(
            self, profiles):
        """The hit/miss sequence of every run is unchanged: over a grid of
        problem variants, two keys are equal iff the reference payloads
        (the replaced two-pass canonicalisation) were equal."""
        def chains_for(rules, t_min):
            (chain,) = chains_from_spec(PARAM_SPEC.format(rules=rules))
            return [chain.with_slo(SLO(t_min=t_min, t_max=9000.0))]

        failed = topology_for("paper-testbed").build()
        failed.mark_failed("server0")
        reserved = topology_for("paper-testbed").build()
        reserved.servers[0].reserved_cores += 1
        plain = topology_for("paper-testbed").build
        bits = DEFAULT_PACKET_BITS
        problems = [
            (chains_for(64, 100.0), plain(), profiles, "lemur", bits, ()),
            (chains_for(64, 100.0), plain(), default_profiles(), "lemur",
             bits, ()),                                    # equal to #0
            (chains_for(64, 100), plain(), profiles, "lemur", bits, ()),
            (chains_for(64, 200.0), plain(), profiles, "lemur", bits, ()),
            (chains_for(128, 100.0), plain(), profiles, "lemur", bits, ()),
            (chains_for(64, 100.0), failed, profiles, "lemur", bits, ()),
            (chains_for(64, 100.0), reserved, profiles, "lemur", bits, ()),
            (chains_for(64, 100.0), plain(), profiles.with_error(-0.05),
             "lemur", bits, ()),
            (chains_for(64, 100.0), plain(), profiles, "greedy", bits, ()),
            (chains_for(64, 100.0), plain(), profiles, "lemur", 2048, ()),
            (chains_for(64, 100.0), plain(), profiles, "lemur", bits,
             ("objective", "throughput")),
            (chains_for(64, 100.0), plain(), profiles, "lemur", bits,
             ("objective", "throughput")),                 # equal to #10
            (chains_for(64, 100.0) + chains_for(64, 100.0), plain(),
             profiles, "lemur", bits, ()),
        ]
        new = [placement_fingerprint(*p[:5], extra=p[5]) for p in problems]
        old = [_reference_key(*p[:5], extra=p[5]) for p in problems]
        assert new[0] == new[1] and new[10] == new[11]
        assert new[0] != new[2]    # an int floor is not a float floor
        for i in range(len(problems)):
            for j in range(len(problems)):
                assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)


class TestCacheSemantics:
    def test_miss_then_hit(self, profiles, chains):
        cache = PlacementCache()
        key = fingerprint(chains, profiles)
        assert cache.get(key) is None
        placement = heuristic_place(chains, topology_for("paper-testbed").build(), profiles)
        cache.put(key, placement)
        hit = cache.get(key)
        assert hit is not None
        assert hit.feasible == placement.feasible
        assert hit.rates == placement.rates
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_hit_is_a_copy(self, profiles, chains):
        cache = PlacementCache()
        placement = heuristic_place(chains, topology_for("paper-testbed").build(), profiles)
        cache.put("k", placement)
        first = cache.get("k")
        first.rates["chain2"] = -1.0
        second = cache.get("k")
        assert second.rates != first.rates

    def test_put_stores_a_copy(self, profiles, chains):
        cache = PlacementCache()
        placement = heuristic_place(chains, topology_for("paper-testbed").build(), profiles)
        cache.put("k", placement)
        placement.rates["chain2"] = -1.0
        assert cache.get("k").rates["chain2"] != -1.0

    def test_nested_mutation_never_reaches_the_store(self, profiles, chains):
        """Isolation goes all the way down: subgroups, assignments and the
        chain graphs of a stored entry are private to the cache."""
        cache = PlacementCache()
        placement = heuristic_place(
            chains, topology_for("paper-testbed").build(), profiles)
        cores = [sg.cores for cp in placement.chains for sg in cp.subgroups]
        assert cores
        cache.put("k", placement)
        for victim in (placement, cache.get("k")):
            for cp in victim.chains:
                cp.assignment.clear()
                for sg in cp.subgroups:
                    sg.cores += 7
            victim.chains.pop()
            victim.feasible = not victim.feasible
        stored = cache.get("k")
        assert stored.feasible
        assert len(stored.chains) == len(chains)
        assert [sg.cores for cp in stored.chains
                for sg in cp.subgroups] == cores
        assert all(cp.assignment for cp in stored.chains)
        assert stored.chains[0].chain.graph is not chains[0].graph

    def test_entries_pickle_as_opaque_bytes(self, profiles, chains):
        cache = PlacementCache()
        placement = heuristic_place(
            chains, topology_for("paper-testbed").build(), profiles)
        cache.put("k", placement)
        clone = pickle.loads(pickle.dumps(cache))
        assert all(isinstance(e, bytes) for e in clone._entries.values())
        assert clone.get("k").rates == placement.rates
        assert clone.stats()["hits"] == 1

    def test_lru_eviction(self):
        from repro.core.placement import Placement

        cache = PlacementCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, Placement(chains=[]))
        assert len(cache) == 2
        assert cache.get("a") is None      # evicted (oldest)
        assert cache.get("c") is not None

    def test_obs_counters(self, profiles, chains):
        cache = PlacementCache()
        with scoped_registry() as registry:
            cache.get("missing")
            cache.put("k", heuristic_place(chains, topology_for("paper-testbed").build(),
                                           profiles))
            cache.get("k")
            assert registry.counter_value(
                "placement_cache.lookups", result="miss") == 1
            assert registry.counter_value(
                "placement_cache.lookups", result="hit") == 1


class TestFailureStateIsolation:
    """A device failure must change the fingerprint: the cache may never
    serve a pre-failure placement to a post-failure problem."""

    def test_failed_device_never_served_stale(self, profiles, chains):
        healthy = topology_for("paper-smartnic").build()
        failed = topology_for("paper-smartnic").build()
        failed.mark_failed("agilio0")
        healthy_key = fingerprint(chains, profiles, topology=healthy)
        failed_key = fingerprint(chains, profiles, topology=failed)
        assert healthy_key != failed_key

        cache = PlacementCache()
        cache.put(healthy_key, heuristic_place(chains, healthy, profiles))
        # a different problem: a miss, not a stale hit
        assert cache.get(failed_key) is None
        cache.put(failed_key, heuristic_place(chains, failed, profiles))
        for cp in cache.get(failed_key).chains:
            assert all(a.device != "agilio0"
                       for a in cp.assignment.values())
        # recovery restores the healthy key
        failed.failed_devices.discard("agilio0")
        assert fingerprint(chains, profiles, topology=failed) == healthy_key


class TestGlobalCache:
    def test_scoped_cache_swaps_and_restores(self):
        outer = get_cache()
        with scoped_cache() as inner:
            assert get_cache() is inner
            assert inner is not outer
        assert get_cache() is outer
