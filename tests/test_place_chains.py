"""`Ledger.place_routes` against a replay of the fill's visits, and the
greedy fill's use of it.

`place_routes` charges the longest prefix of requests of an int route array
whose loads fit, in one array pass; `fitting_prefix` returns that length and
charges nothing. After `place_routes`, the ledger's loads and flows must
be, float for float (compared by `.hex()`), those that visiting each
position for all of its request's (head, destination) pairs (`visit`) and
charging it where `fits` passes leaves over the same prefix, and the prefix
must end at the first request that replay refuses. Two kinds of routes are
checked: whole chains at their anchors, which the fill charges first, and
the fill's finished routes on every corpus of `test_greedy_differential`,
replayed in the fill's own order, under their own budgets and under one
budget per family set to a running load and to one ulp below it. The fill
charges flows visit by visit only from the first request whose flows do
not fit in its finished routes.
"""

import copy
import dataclasses
import math

import pytest

from pccplace import heuristics
from pccplace.evaluation import Ledger
from pccplace.graph import shortest_paths
from pccplace.heuristics import _chain_routes, _greedy_chain_fill
from pccplace.model import Resources
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import charge_if_fits, fill_visit, make_instance
import greedy_reference
from test_greedy_differential import CASES, CORPORA, _fingerprint, _instance, _targets

INF = math.inf
FLOWS = ("5b", "5c", "5d")


def replaying(instance, paths, calls, m):
    """Charge `calls`, each (request, position, int node, int node before or
    None, int node after or None), as the fill's visits where `fits`
    passes, request by request over the first m requests; yield the ledger
    after each request that fits, and stop at the first that does not, its
    charges undone."""
    ledger = Ledger(instance, paths)
    by_request = {}
    for call in calls:
        by_request.setdefault(call[0].id, []).append(call)
    for req in instance.requests[:m]:
        placed = []  # the undo record of each charge of the request
        for _, l, k, before, after in by_request.get(req.id, ()):
            visit = fill_visit(ledger, instance, req, l, k, before, after)
            if not ledger.fits(visit, True):
                for saved in reversed(placed):
                    ledger.undo(saved)
                return
            placed.append(ledger.charge(visit, True))
        yield ledger


def replay(instance, paths, calls, m):
    """The ledger `replaying` leaves, and the number of requests it charged."""
    ledger, n = Ledger(instance, paths), 0
    for ledger in replaying(instance, paths, calls, m):
        n += 1
    return ledger, n


def exact(x):
    """`x` as its type and `.hex()`: a numpy float is not the ledger's float."""
    return type(x).__name__, x.hex()


def state(ledger):
    """The ledger's loads by int node id and flows by pair code, every
    float exactly."""
    return ([None if load is None else tuple(map(exact, load)) for load in ledger.load],
            [{code: exact(load) for code, load in table.items()} for table in ledger.flows])


def assert_places_as_replay(instance, paths, routes, calls):
    """`place_routes` and `fitting_prefix` on `routes` against the replay of
    `calls` over as many requests; the ledger `place_routes` charged and
    the prefix length."""
    want, n = replay(instance, paths, calls, len(routes))
    assert Ledger(instance, paths).fitting_prefix(routes) == n
    ledger = Ledger(instance, paths)
    assert ledger.place_routes(routes) == n
    assert state(ledger) == state(want)
    return ledger, n


def anchor_calls(instance, anchors):
    """The calls that host each whole chain at its anchor, in chain
    order."""
    return [(req, l, a, a if l > 1 else None, None)
            for req, a in zip(instance.requests, anchors)
            for l in range(1, len(req.chain) + 1)]


def assert_matches_replay(instance, anchors, m=None):
    """The check above on whole chains at `anchors`, over the first m
    requests (all of them by default); the prefix length."""
    paths = shortest_paths(instance.network, instance.relevant_nodes)
    m = len(anchors) if m is None else m
    routes = _chain_routes(instance, anchors)[:m]
    return assert_places_as_replay(instance, paths, routes,
                                   anchor_calls(instance, anchors[:m]))[1]


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


def split_instance(chain_capacity):
    """The requests above with f1 at k and f2 at j, bound for d: each
    charges the chain flow (k, j) twice (two heads) and no head flow from
    k; links h-k, k-j and j-d."""
    return make_instance(
        [("h", "k", 1.0), ("k", "j", 1.0, chain_capacity), ("j", "d", 1.0)],
        candidates=["k", "j"], gateway="h", attachment="d",
        requests=[(f"r{i}", ["f1", "f2"], rate, ["h", "k"]) for i, rate in enumerate(RATES, 1)],
        destinations={}, stay=1.0, catalog=DEMANDS,
        node_resources={"k": (INF, INF), "j": (INF, INF)})


def assert_split_matches_replay(chain_capacity):
    inst = split_instance(chain_capacity)
    paths = shortest_paths(inst.network, inst.relevant_nodes)
    k, j = inst.network.node_index["k"], inst.network.node_index["j"]
    routes = _chain_routes(inst, k)
    routes[:, 1] = j
    calls = [call for req in inst.requests
             for call in ((req, 1, k, None, None), (req, 2, j, k, None))]
    return assert_places_as_replay(inst, paths, routes, calls)[1]


CHAIN_THIRD = running([r for r in RATES[:3] for _ in range(2)])[-1]


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

    def test_prefix_stopped_by_chain_flow(self):
        assert assert_split_matches_replay(CHAIN_THIRD) == 3
        assert assert_split_matches_replay(math.nextafter(CHAIN_THIRD, 0.0)) == 2
        assert assert_split_matches_replay(INF) == 4

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
        assert assert_matches_replay(inst, at_k(inst), 0) == 0

    def test_refuses_a_charged_ledger(self):
        inst = chain_instance()
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        ledger = Ledger(inst, paths)
        assert charge_if_fits(ledger, fill_visit(ledger, inst, inst.requests[0], 1,
                                                 at_k(inst)[0]))
        with pytest.raises(ValueError, match="nothing charged"):
            ledger.place_routes(_chain_routes(inst, at_k(inst)))

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


def fill_calls(monkeypatch, inst, paths, target):
    """The calls of the reference ledger that hosted a position in the
    reference fill toward `target`, in its order, on int node ids."""
    index = inst.network.node_index
    calls = []
    place = greedy_reference.Ledger.place

    def spy(ledger, req, l, node, before, after):
        placed = place(ledger, req, l, node, before, after)
        if placed:
            calls.append((req, l, index[node], index.get(before), index.get(after)))
        return placed

    with monkeypatch.context() as patch:
        patch.setattr(greedy_reference.Ledger, "place", spy)
        greedy_reference.greedy_chain_fill(inst, paths, target)
    return calls


def load_of(ledger, family, key):
    """The load of `key` (an int node id for 5a-cpu, else a pair code)."""
    if family == "5a-cpu":
        return ledger.load[key][1]
    return ledger.flows[FLOWS.index(family)].get(key, 0.0)


def busiest(ledger):
    """Per family, the bin with the largest load, ties to the least: for a
    flow family, among the pair codes that no other flow family charges,
    since the three share one budget per pair."""
    out = {}
    cpu = {k: load[1] for k, load in enumerate(ledger.load) if load is not None and load[1]}
    if cpu:
        out["5a-cpu"] = min(cpu, key=lambda k: (-cpu[k], k))
    for i, family in enumerate(FLOWS):
        others = set().union(*(ledger.flows[j] for j in range(3) if j != i))
        own = {code: load for code, load in ledger.flows[i].items() if code not in others}
        if own:
            out[family] = min(own, key=lambda code: (-own[code], code))
    return out


def with_budget(inst, paths, family, key, cap):
    """`inst` and `paths` with the capacity of `key` in `family` set to `cap`."""
    if family == "5a-cpu":
        node = inst.network.node_ids[key]
        memory = inst.node_resources[node].memory_mb
        return (dataclasses.replace(
            inst, node_resources={**inst.node_resources, node: Resources(memory, cap)}),
            paths)
    tight = copy.copy(paths)
    tight.bottleneck_matrix = paths.bottleneck_matrix.copy()
    tight.bottleneck_matrix.flat[key] = cap
    tight._bottleneck_list = None  # rebuilt from the new matrix on first read
    return inst, tight


class TestFillRoutes:
    @pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
    def test_place_routes_matches_the_fill_replayed(self, monkeypatch, name, seed):
        inst = _instance(name, seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        m = len(inst.requests)
        for target in sorted(set(_targets(inst).values())):
            calls = fill_calls(monkeypatch, inst, paths, target)
            routes = _greedy_chain_fill(inst, paths, target).build.args[1]
            ledger, n = assert_places_as_replay(inst, paths, routes, calls)
            assert n == m
            # one budget per family at the load after a request j that charges
            # it: j fits at equality and the next request charging it does not
            bins = busiest(ledger)
            history = [[load_of(step, family, key) for family, key in bins.items()]
                       for step in replaying(inst, paths, calls, m)]
            for i, (family, key) in enumerate(bins.items()):
                grew = [r for r in range(m)
                        if history[r][i] != (history[r - 1][i] if r else 0.0)]
                j = next((r for r in grew if r >= m // 2), grew[-1])
                after = next((r for r in grew if r > j), m)
                cap = history[j][i]
                for budget, want in ((cap, after), (math.nextafter(cap, 0.0), j)):
                    tight, tight_paths = with_budget(inst, paths, family, key, budget)
                    _, n = assert_places_as_replay(tight, tight_paths, routes, calls)
                    assert n == want, (family, budget)


class Spy:
    """Records the prefix lengths `place_routes` and `fitting_prefix`
    return, the request of every `visit` call and the number of
    `add_demand` calls."""

    def __init__(self, monkeypatch):
        self.prefix, self.fitting, self.visited = [], [], []
        self.demands = 0
        place_routes, fitting_prefix = Ledger.place_routes, Ledger.fitting_prefix
        visit, add_demand = Ledger.visit, Ledger.add_demand

        def spy_place_routes(ledger, routes):
            self.prefix.append(place_routes(ledger, routes))
            return self.prefix[-1]

        def spy_fitting_prefix(ledger, routes):
            self.fitting.append(fitting_prefix(ledger, routes))
            return self.fitting[-1]

        def spy_visit(ledger, req, *args):
            self.visited.append(req)
            return visit(ledger, req, *args)

        def spy_add_demand(ledger, *args):
            self.demands += 1
            return add_demand(ledger, *args)

        monkeypatch.setattr(Ledger, "place_routes", spy_place_routes)
        monkeypatch.setattr(Ledger, "fitting_prefix", spy_fitting_prefix)
        monkeypatch.setattr(Ledger, "visit", spy_visit)
        monkeypatch.setattr(Ledger, "add_demand", spy_add_demand)

    def clear(self):
        self.prefix.clear()
        self.fitting.clear()
        self.visited.clear()
        self.demands = 0


def hosted_from(result, r):
    """The number of positions `result` hosts in requests r on, read from
    the int route array its builder holds."""
    return int((result.build.args[1][r:] >= 0).sum())


FLOW_CASES = [(name, seed) for name in ("flow-tight", "flow-and-cpu-tight-K50")
              for seed in CORPORA[name][1]]


class TestFillFastPath:
    @pytest.mark.parametrize("seed", CORPORA["slack"][1])
    def test_slack_fill_places_nothing_one_by_one(self, monkeypatch, seed):
        inst = generate_instance(CORPORA["slack"][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        spy = Spy(monkeypatch)
        for target in set(_targets(inst).values()):
            _greedy_chain_fill(inst, paths, target)
        assert spy.visited == []
        assert spy.demands == 0
        assert spy.fitting == []  # the prefix covers the batch: no final pass
        assert set(spy.prefix) == {len(inst.requests)}

    @pytest.mark.parametrize("seed", CORPORA["cpu-tight-K200"][1])
    def test_tight_fill_checks_flows_once(self, monkeypatch, seed):
        # node cpu ends the prefix; the rest is hosted testing 5a alone, and
        # its flows all fit, so no position is visited
        inst = generate_instance(CORPORA["cpu-tight-K200"][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        m = len(inst.requests)
        spy = Spy(monkeypatch)
        for target in set(_targets(inst).values()):
            spy.clear()
            got = _greedy_chain_fill(inst, paths, target)
            (n,) = spy.prefix
            assert 0 < n < m
            assert spy.fitting == [m]
            assert spy.visited == []
            assert spy.demands == hosted_from(got, n) > 0

    @pytest.mark.parametrize("name, seed", FLOW_CASES,
                             ids=[f"{n}-{s}" for n, s in FLOW_CASES])
    def test_flow_fill_places_from_the_first_request_whose_flows_overflow(
            self, monkeypatch, name, seed):
        # flows bind: the fill keeps the p requests whose flows fit and
        # resumes at p, charging flows visit by visit, as the reference does
        inst = generate_instance(CORPORA[name][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        m = len(inst.requests)
        position = {req.id: r for r, req in enumerate(inst.requests)}
        spy = Spy(monkeypatch)
        for target in set(_targets(inst).values()):
            spy.clear()
            got = _greedy_chain_fill(inst, paths, target)
            first, p = spy.prefix
            assert spy.fitting == [p]
            assert first <= p < m
            assert spy.visited[0] is inst.requests[p]
            assert min(position[req.id] for req in spy.visited) == p
            want = greedy_reference.greedy_chain_fill(inst, paths, target)
            assert _fingerprint(got) == _fingerprint(want)

    @pytest.mark.parametrize("seed", CORPORA["flow-tight"][1])
    def test_flow_fill_tests_node_room_once(self, monkeypatch, seed):
        # where flows are charged, a (position, node) that passed `can_host`
        # has only its flows tested by `fits`: one `can_host` call per test
        inst = generate_instance(CORPORA["flow-tight"][0], seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        events = []
        can_host, visit, fits = Ledger.can_host, Ledger.visit, Ledger.fits

        def spy_can_host(ledger, nf, node):
            events.append(("can_host", nf, node))
            return can_host(ledger, nf, node)

        def spy_visit(ledger, req, l, node, *args):
            events.append(("visit", req.chain[l - 1], node))
            return visit(ledger, req, l, node, *args)

        def spy_fits(ledger, *args):
            verdict = fits(ledger, *args)
            events.append(("fits",))
            return verdict

        monkeypatch.setattr(Ledger, "can_host", spy_can_host)
        monkeypatch.setattr(Ledger, "visit", spy_visit)
        monkeypatch.setattr(Ledger, "fits", spy_fits)
        for target in set(_targets(inst).values()):
            events.clear()
            _greedy_chain_fill(inst, paths, target)
            visits = [i for i, event in enumerate(events) if event[0] == "visit"]
            assert visits
            for i in visits:  # from the test of room to the verdict on flows
                tested = events[i - 1:events.index(("fits",), i)]
                assert [e for e in tested if e[0] == "can_host"] == [
                    ("can_host", *events[i][1:])]

    @pytest.mark.parametrize("h_resources", [False, True])
    def test_non_candidate_anchor_ends_the_prefix(self, monkeypatch, h_resources):
        # r3's only head, h, is no candidate: the prefix ends there, the fill
        # hosts r3 and r4 one position at a time, testing 5a alone, and
        # their flows fit, so it still matches the reference fill; also
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
        assert spy.demands == 4  # r3 and r4, two positions each
        assert spy.fitting == [4]
        assert spy.visited == []
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
            ids = inst.network.node_ids
            hosts = {(req.id, l): ids[k]
                     for req, row in zip(inst.requests, result.build.args[1].tolist())
                     for l, k in enumerate(row, start=1) if k >= 0}
            assert result.placement == build(inst, hosts)
            assert len(built) == 1
            built.clear()
        gateway = inst.network.gateway
        assert {k for _, _, k in heuristics.agw(inst, paths).placement.x} == {gateway}
