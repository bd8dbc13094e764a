"""`Ledger.place_chains` against a replay of `Ledger.place`, and the greedy
fill's use of it.

`place_chains` charges the longest prefix of requests whose whole chains fit
at their anchors in one array pass. After it, the ledger's loads, flows and
hostings must be, float for float (compared by `.hex()`), those that calling
`can_host` and `place` position by position leaves over the same prefix,
and the prefix must end at the first request that replay refuses. The fill
then calls `place` only from that request on.
"""

import dataclasses
import math

import numpy as np
import pytest

from pccplace import heuristics
from pccplace.evaluation import Ledger
from pccplace.graph import shortest_paths
from pccplace.heuristics import _greedy_chain_fill
from pccplace.model import Resources
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import make_instance
import greedy_reference
from test_greedy_differential import CORPORA, _fingerprint, _targets

INF = math.inf


def replay(instance, paths, anchors):
    """A ledger charged by `can_host` and `place`, request by request, with
    each whole chain at its anchor, up to the first request that does not
    fit (its charges undone); and the number of requests charged."""
    ledger = Ledger(instance, paths)
    for r, (req, a) in enumerate(zip(instance.requests, anchors)):
        placed = 0
        for l, nf in enumerate(req.chain, start=1):
            if not (ledger.can_host(nf, a)
                    and ledger.place(req, l, a, a if l > 1 else None, None)):
                for _ in range(placed):
                    ledger.undo()
                return ledger, r
            placed += 1
    return ledger, len(anchors)


def exact(x):
    """`x` as its type and `.hex()`: a numpy float is not the ledger's float."""
    return type(x).__name__, x.hex()


def state(ledger):
    """The ledger's loads by int node id, flows by pair code and hostings,
    every float exactly."""
    return ([None if load is None else tuple(map(exact, load)) for load in ledger.load],
            [{code: exact(load) for code, load in table.items()} for table in ledger.flows],
            list(ledger.hosted))


def assert_matches_replay(instance, anchors):
    paths = shortest_paths(instance.network, instance.relevant_nodes)
    ledger = Ledger(instance, paths)
    n = ledger.place_chains(anchors)
    want, n_want = replay(instance, paths, anchors)
    assert n == n_want
    assert state(ledger) == state(want)
    return n


def anchors_toward(instance, paths, target):
    """Each request's head at least cost to `target`, ties to the least id."""
    index = instance.network.node_index
    return [index[min(sorted(req.heads), key=lambda s: (paths.cost(s, target), s))]
            for req in instance.requests]


# Requests r1..r4 of rates 0.1..0.4, headed at h and k, hosting chain f1, f2
# at k and bound for d alone; links h-k and k-d. Placed whole at k, request i
# charges the head flow (h, k) once (one destination) and the tail flow
# (k, d) twice (two heads).
RATES = (0.1, 0.2, 0.3, 0.4)
DEMANDS = {"f1": (0.1, 0.7), "f2": (0.2, 0.6)}  # (memory, cpu)


def running(values):
    """Left-to-right float sums of `values`, from 0.0."""
    out, load = [], 0.0
    for v in values:
        load += v
        out.append(load)
    return out


def chain_instance(memory=INF, cpu=INF, head_capacity=INF, tail_capacity=INF,
                   heads=None):
    """The instance above; `heads` replaces request i's heads where given."""
    heads = heads or {}
    return make_instance(
        [("h", "k", 1.0, head_capacity), ("k", "d", 1.0, tail_capacity)],
        candidates=["k"], gateway="h", attachment="d",
        requests=[(f"r{i}", ["f1", "f2"], rate, heads.get(i, ["h", "k"]))
                  for i, rate in enumerate(RATES, 1)],
        destinations={}, stay=1.0, catalog=DEMANDS, node_resources={"k": (memory, cpu)})


def at_k(inst):
    return [inst.network.node_index["k"]] * len(inst.requests)


# Each capacity equals the load after three requests, summed as the ledger
# sums, so three fit (at equality) and the fourth does not.
THIRD = {
    "5a-memory": {"memory": running([0.1, 0.2] * 3)[-1]},
    "5a-cpu": {"cpu": running([0.7, 0.6] * 3)[-1]},
    "5b": {"head_capacity": running(RATES[:3])[-1]},
    "5d": {"tail_capacity": running([r for r in RATES[:3] for _ in range(2)])[-1]},
}


class TestAgainstReplay:
    @pytest.mark.parametrize("family", THIRD)
    def test_prefix_stopped_by_each_family(self, family):
        inst = chain_instance(**THIRD[family])
        assert assert_matches_replay(inst, at_k(inst)) == 3

    def test_capacity_one_ulp_short_stops_one_request_earlier(self):
        for family, caps in THIRD.items():
            ((key, cap),) = caps.items()
            inst = chain_instance(**{key: math.nextafter(cap, 0.0)})
            assert assert_matches_replay(inst, at_k(inst)) == 2, family

    def test_unbound_batch_goes_through(self):
        inst = chain_instance()
        assert assert_matches_replay(inst, at_k(inst)) == 4

    def test_stops_at_an_anchor_without_node_resources(self):
        # h heads every request but is no candidate; validate_instance allows
        # an anchor there, and can_host refuses it
        inst = chain_instance()
        index = inst.network.node_index
        anchors = [index["k"], index["k"], index["h"], index["k"]]
        assert assert_matches_replay(inst, anchors) == 2

    def test_empty_prefix(self):
        inst = chain_instance()
        assert assert_matches_replay(inst, []) == 0

    def test_refuses_a_charged_ledger(self):
        inst = chain_instance()
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        ledger = Ledger(inst, paths)
        assert ledger.place(inst.requests[0], 1, at_k(inst)[0], None, None)
        with pytest.raises(ValueError, match="nothing charged"):
            ledger.place_chains(at_k(inst))

    @pytest.mark.parametrize("name, seed", [
        ("slack", 1), ("slack", 2), ("cpu-tight-K20", 1), ("cpu-tight-K200", 1),
        ("many-heads", 1), ("stay-0", 1), ("flow-tight", 1), ("flow-tight", 2),
        ("flow-and-cpu-tight-K50", 1), ("none-placed", 1)])
    def test_generated(self, name, seed):
        inst = generate_instance(CORPORA[name][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        for target in set(_targets(inst).values()):
            n = assert_matches_replay(inst, anchors_toward(inst, paths, target))
            if name == "slack":
                assert n == len(inst.requests)


class Spy:
    """Records the prefix length `place_chains` returns and the request of
    every `place` call."""

    def __init__(self, monkeypatch):
        self.prefix, self.placed = [], []
        place_chains, place = Ledger.place_chains, Ledger.place

        def spy_place_chains(ledger, anchors):
            self.prefix.append(place_chains(ledger, anchors))
            return self.prefix[-1]

        def spy_place(ledger, req, *args):
            self.placed.append(req)
            return place(ledger, req, *args)

        monkeypatch.setattr(Ledger, "place_chains", spy_place_chains)
        monkeypatch.setattr(Ledger, "place", spy_place)


class TestFillFastPath:
    @pytest.mark.parametrize("seed", CORPORA["slack"][1])
    def test_slack_fill_places_nothing_one_by_one(self, monkeypatch, seed):
        inst = generate_instance(CORPORA["slack"][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        spy = Spy(monkeypatch)
        for target in set(_targets(inst).values()):
            _greedy_chain_fill(inst, paths, target)
        assert spy.placed == []
        assert set(spy.prefix) == {len(inst.requests)}

    @pytest.mark.parametrize("seed", CORPORA["cpu-tight-K200"][1])
    def test_tight_fill_places_from_the_first_request_that_does_not_fit(
            self, monkeypatch, seed):
        inst = generate_instance(CORPORA["cpu-tight-K200"][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        position = {req.id: r for r, req in enumerate(inst.requests)}
        spy = Spy(monkeypatch)
        for target in set(_targets(inst).values()):
            spy.prefix.clear()
            spy.placed.clear()
            _greedy_chain_fill(inst, paths, target)
            (n,) = spy.prefix
            assert 0 < n < len(inst.requests)
            assert spy.placed[0] is inst.requests[n]
            assert min(position[req.id] for req in spy.placed) == n

    @pytest.mark.parametrize("h_resources", [False, True])
    def test_non_candidate_anchor_ends_the_prefix(self, monkeypatch, h_resources):
        # r3's only head, h, is no candidate: the fill places r3 and r4 one
        # position at a time, and still matches the reference fill; also
        # where h has node resources (which validate_instance rejects), since
        # the fill hosts on candidates only
        inst = chain_instance(heads={3: ["h"]})
        if h_resources:
            inst = dataclasses.replace(
                inst, node_resources={**inst.node_resources, "h": Resources(INF, INF)})
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        spy = Spy(monkeypatch)
        got = _greedy_chain_fill(inst, paths, "d")
        assert spy.prefix == [2]
        assert [req.id for req in spy.placed] == ["r3", "r3", "r4", "r4"]
        want = greedy_reference.greedy_chain_fill(inst, paths, "d")
        assert _fingerprint(got) == _fingerprint(want)


class TestRouteHosts:
    def test_placement_built_on_first_read_through_module_attribute(self, monkeypatch):
        inst = generate_instance(ScenarioParams(num_candidates=10, batch_size=20), 1)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        built = []
        build = heuristics.build_placement

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(heuristics, "build_placement", counting)
        for algo in (heuristics.ppcc, heuristics.agw):
            result = algo(inst, paths)
            assert built == []
            hosts = dict(result.build.args[1])
            assert result.placement == build(inst, hosts)
            assert len(built) == 1
            built.clear()
        gateway = inst.network.gateway
        assert set(heuristics.agw(inst, paths).build.args[1].values()) == {gateway}
