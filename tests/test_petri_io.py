"""Tests for Petri-net serialization, product nets and generators."""

import pytest

from repro.errors import PetriNetError
from repro.petri import (Observer, ObserverEdge, is_safe,
                         product_with_observers, unfold)
from repro.petri.examples import figure1_net
from repro.petri.generators import TelecomSpec, random_safe_net, telecom_net
from repro.petri.io import (branching_process_to_dot, petri_from_dict,
                            petri_from_json, petri_to_dot, petri_to_json)


class TestJsonRoundTrip:
    def test_round_trip(self):
        petri = figure1_net()
        clone = petri_from_json(petri_to_json(petri))
        assert clone.net.places == petri.net.places
        assert clone.net.transitions == petri.net.transitions
        assert clone.net.edges == petri.net.edges
        assert clone.net.alarm == petri.net.alarm
        assert clone.net.peer == petri.net.peer
        assert clone.marking == petri.marking

    def test_malformed_rejected(self):
        with pytest.raises(PetriNetError):
            petri_from_dict({"places": {}})


class TestDot:
    def test_petri_dot_mentions_everything(self):
        dot = petri_to_dot(figure1_net())
        for node in ("\"i\"", "\"1\"", "cluster_0", "square", "circle"):
            assert node in dot

    def test_bp_dot_with_highlight(self):
        bp = unfold(figure1_net())
        (i_event,) = [e.eid for e in bp.events.values() if e.transition == "i"]
        dot = branching_process_to_dot(bp, highlight=frozenset({i_event}))
        assert "lightgrey" in dot


class TestObserverProduct:
    def test_chain_observer(self):
        observer = Observer.chain("p1", ["b", "c"])
        assert len(observer.states) == 3
        assert observer.accepting == {"q2"}

    def test_product_synchronizes_only_observed_peers(self):
        petri = figure1_net()
        product = product_with_observers(petri, [Observer.chain("p1", ["b", "c"])])
        names = product.petri.net.transitions
        # p1's transitions are replaced by synchronized copies; p2's stay.
        assert "v" in names and "iv" in names
        assert "i" not in names
        assert any(t.startswith("i*") for t in names)

    def test_product_is_safe(self):
        petri = figure1_net()
        product = product_with_observers(
            petri,
            [Observer.chain("p1", ["b", "c"]), Observer.chain("p2", ["a"])])
        assert is_safe(product.petri)

    def test_product_unfolding_respects_order(self):
        # Observer b-then-c: the product cannot fire ii (alarm c) first.
        petri = figure1_net()
        product = product_with_observers(
            petri,
            [Observer.chain("p1", ["b", "c"]), Observer.chain("p2", ["a"])])
        bp = unfold(product.petri)
        first_alarms = {bp.event_alarm(e.eid) for e in bp.events.values()
                       if e.depth == 1 and product.petri.net.peer[e.transition] == "p1"}
        assert first_alarms == {"b"}

    def test_hidden_transitions_not_synchronized(self):
        petri = figure1_net()
        product = product_with_observers(
            petri, [Observer.chain("p1", ["b"])], hidden=frozenset({"ii"}))
        assert "ii" in product.petri.net.transitions

    def test_duplicate_observers_rejected(self):
        petri = figure1_net()
        with pytest.raises(PetriNetError):
            product_with_observers(
                petri, [Observer.chain("p1", ["b"]), Observer.chain("p1", ["c"])])

    def test_ill_formed_observer_is_rejected_where_it_is_built(self):
        """No solver layer re-validates observers: there are no bad ones."""
        with pytest.raises(PetriNetError, match="unknown state"):
            Observer(peer="p1", states=("q0",), initial="q0",
                     accepting=frozenset({"q0"}),
                     edges=(ObserverEdge("q0", "b", "q1"),))

    def test_self_loop_observer_edge(self):
        # A DFA with a self-loop (the beta* of alarm patterns).
        observer = Observer(peer="p1", states=("q0",), initial="q0",
                            accepting=frozenset({"q0"}),
                            edges=(ObserverEdge("q0", "b", "q0"),
                                   ObserverEdge("q0", "c", "q0")))
        petri = figure1_net()
        product = product_with_observers(petri, [observer])
        bp = unfold(product.petri, max_depth=4)
        assert len(bp.events) >= 2


class TestGenerators:
    @pytest.mark.parametrize("topology", ["chain", "ring", "star"])
    def test_telecom_topologies_safe(self, topology):
        spec = TelecomSpec(peers=3, ring_length=3, topology=topology, seed=1)
        petri = telecom_net(spec)
        assert is_safe(petri, max_markings=20_000)

    def test_transitions_have_at_most_two_parents(self):
        spec = TelecomSpec(peers=4, ring_length=3, topology="ring",
                           links_per_pair=2, branching=0.5, seed=7)
        petri = telecom_net(spec)
        for t in petri.net.transitions:
            assert 1 <= len(petri.net.parents(t)) <= 2

    def test_deterministic_by_seed(self):
        spec = TelecomSpec(peers=2, seed=42)
        a, b = telecom_net(spec), telecom_net(spec)
        assert a.net.edges == b.net.edges
        assert a.net.alarm == b.net.alarm

    def test_random_safe_net_is_safe(self):
        for seed in range(6):
            assert is_safe(random_safe_net(seed), max_markings=20_000)

    def test_invalid_spec_rejected(self):
        with pytest.raises(PetriNetError):
            telecom_net(TelecomSpec(peers=0))
        with pytest.raises(PetriNetError):
            telecom_net(TelecomSpec(ring_length=1))
        with pytest.raises(PetriNetError):
            telecom_net(TelecomSpec(peers=2, topology="hypercube"))

    def test_cross_peer_edges_exist(self):
        spec = TelecomSpec(peers=2, links_per_pair=1, seed=3)
        petri = telecom_net(spec)
        net = petri.net
        crossing = [(u, v) for (u, v) in net.edges if net.peer[u] != net.peer[v]]
        assert crossing
