import dataclasses
import math
import random

import numpy as np
import pytest

from pccplace import graph
from pccplace.evaluation import Ledger
from pccplace.graph import DisconnectedGraphError, EdgeNetwork, link_key, shortest_paths
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import charge_if_fits, make_instance, make_network
import paths_reference


def brute_force_shortest(network, a, b):
    """Enumerate all simple paths; return (min cost, lex-smallest sequence)."""
    best = None

    def dfs(node, visited, cost, seq):
        nonlocal best
        if node == b:
            cand = (cost, tuple(seq))
            if best is None or cand < best:
                best = cand
            return
        for nbr, w in network.adjacency[node]:
            if nbr not in visited:
                visited.add(nbr)
                seq.append(nbr)
                dfs(nbr, visited, cost + w, seq)
                seq.pop()
                visited.remove(nbr)

    dfs(a, {a}, 0.0, [a])
    assert best is not None, "graph must be connected"
    return best


def random_connected_network(rng, n, integer_costs=True):
    nodes = [f"n{i}" for i in range(n)]
    links = []
    present = set()
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        present.add(link_key(u, v))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u, v = rng.sample(nodes, 2)
        present.add(link_key(u, v))
    for u, v in sorted(present):
        cost = rng.randint(1, 10) if integer_costs else rng.uniform(0.5, 10.0)
        links.append((u, v, float(cost)))
    return make_network(links, candidates=[nodes[0]], gateway=nodes[0],
                        attachment=nodes[-1])


def path_network():
    return make_network(
        [("a", "b", 1.0, 2000.0), ("b", "c", 2.0, 1500.0), ("c", "d", 3.0)],
        candidates=["b", "c"], gateway="a", attachment="a")


class TestShortestPaths:
    def test_unique_path(self):
        net = path_network()
        table = shortest_paths(net, ["a", "b", "c"])
        assert table.cost("a", "c") == 3.0
        assert table.sequence("a", "c") == ("a", "b", "c")

    def test_identity_pair(self):
        net = path_network()
        table = shortest_paths(net, ["a"])
        assert table.cost("a", "a") == 0.0
        assert table.sequence("a", "a") == ("a",)
        assert math.isinf(table.bottleneck("a", "a"))

    def test_triangle_detour_wins(self):
        net = make_network(
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 3.0)],
            candidates=["a"], gateway="a", attachment="a")
        table = shortest_paths(net, ["a", "c"])
        assert table.cost("a", "c") == 2.0
        assert table.sequence("a", "c") == ("a", "b", "c")

    def test_lexicographic_tie_break(self):
        net = make_network(
            [("a", "b", 1.0), ("a", "c", 1.0), ("b", "d", 1.0), ("c", "d", 1.0)],
            candidates=["a"], gateway="a", attachment="a")
        table = shortest_paths(net, ["a", "d"])
        assert table.sequence("a", "d") == ("a", "b", "d")

    def test_bottleneck_is_min_capacity(self):
        net = path_network()
        table = shortest_paths(net, ["a", "c"])
        assert table.bottleneck("a", "c") == 1500.0

    def test_self_pair_bottleneck_is_unlimited(self):
        net = path_network()
        table = shortest_paths(net, ["a", "b"])
        assert math.isinf(table.bottleneck("a", "a"))
        assert math.isinf(table.bottleneck("b", "b"))

    def test_bottleneck_follows_the_tie_break(self):
        # a-c-d (1 + 2) is found first, then a-b-d (2 + 1) ties on cost and
        # replaces it as the lexicographically smaller sequence; the bottleneck
        # is that of the stored, lower-capacity route in both directions.
        net = make_network(
            [("a", "b", 2.0, 100.0), ("b", "d", 1.0, 5.0),
             ("a", "c", 1.0, 100.0), ("c", "d", 2.0, 100.0)],
            candidates=["a"], gateway="a", attachment="a")
        table = shortest_paths(net, ["a", "d"])
        assert table.sequence("a", "d") == ("a", "b", "d")
        assert table.sequence("d", "a") == ("d", "b", "a")
        assert table.bottleneck("a", "d") == table.bottleneck("d", "a") == 5.0

    @pytest.mark.parametrize("num_candidates, seed",
                             [(20, 0), (20, 1), (20, 2), (60, 0), (60, 1)])
    def test_bottleneck_is_min_over_the_stored_sequence(self, num_candidates, seed):
        inst = generate_instance(
            ScenarioParams(num_candidates=num_candidates, batch_size=5), seed)
        net = redrawn_capacities(inst.network, random.Random(seed))
        caps = {ln.key: ln.capacity_mbps for ln in net.links}
        table = shortest_paths(net, inst.relevant_nodes)
        for (a, b), info in table.pairs.items():
            seq = info.nodes
            if a == b:
                assert info.bottleneck == math.inf
            else:
                assert info.bottleneck == min(
                    caps[link_key(u, v)] for u, v in zip(seq, seq[1:]))

    def test_disconnected_raises(self):
        net = make_network([("a", "b", 1.0)], candidates=["a"], gateway="a",
                           attachment="a", nodes=["a", "b", "z"])
        with pytest.raises(DisconnectedGraphError):
            shortest_paths(net, ["a", "b"])

    def test_unknown_relevant_raises(self):
        net = path_network()
        with pytest.raises(KeyError):
            shortest_paths(net, ["a", "nope"])

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("integer_costs", [True, False])
    def test_matches_brute_force_enumeration(self, seed, integer_costs):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        net = random_connected_network(rng, n, integer_costs)
        nodes = sorted(net.nodes)
        table = shortest_paths(net, nodes)
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                _, seq = brute_force_shortest(net, a, b)
                # the table stores one canonical cost per unordered pair,
                # summed from the lexicographically smaller endpoint
                cost, _ = brute_force_shortest(net, min(a, b), max(a, b))
                assert table.cost(a, b) == cost
                assert table.sequence(a, b) == seq

    @pytest.mark.parametrize("seed", range(15))
    def test_cost_symmetry(self, seed):
        rng = random.Random(1000 + seed)
        net = random_connected_network(rng, rng.randint(3, 8), False)
        nodes = sorted(net.nodes)
        table = shortest_paths(net, nodes)
        for a in nodes:
            for b in nodes:
                assert table.cost(a, b) == table.cost(b, a)


def redrawn_capacities(network, rng):
    """`network` with one capacity per link drawn from `rng` (generated links
    share one capacity, so bottlenecks would not tell paths apart)."""
    return dataclasses.replace(network, links=tuple(
        dataclasses.replace(ln, capacity_mbps=float(rng.randint(1, 50)))
        for ln in network.links))


def random_network(rng, n, costs):
    """A random connected network on n nodes, link costs drawn from `costs`."""
    nodes = [f"n{i:02d}" for i in range(n)]
    present = {link_key(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)}
    for _ in range(rng.randrange(0, 2 * n)):
        present.add(link_key(*rng.sample(nodes, 2)))
    return make_network([(u, v, rng.choice(costs), float(rng.randint(1, 50)))
                         for u, v in sorted(present)],
                        candidates=nodes, gateway=nodes[0], attachment=nodes[-1])


def assert_matches_reference(network, relevant):
    """The table equals the tuple-keyed reference's, pair by pair and bit for
    bit; returns the table."""
    table = shortest_paths(network, relevant)
    ref = paths_reference.shortest_paths(network, relevant)
    assert list(table.pairs) == list(ref.pairs)
    assert len(table.pairs) == len(ref.pairs) == len(table.relevant) ** 2
    for (a, b), info in ref.pairs.items():
        assert table.cost(a, b).hex() == info.cost.hex(), (a, b)
        assert table.sequence(a, b) == info.nodes, (a, b)
        assert table.bottleneck(a, b) == info.bottleneck, (a, b)
        assert table.pairs[(a, b)] == info
    assert table.max_cost == ref.max_cost
    assert table.max_cost == max(info.cost for info in ref.pairs.values())
    assert type(table.max_cost) is float
    matrix, index = table.cost_matrix, network.node_index
    assert not matrix.flags.writeable
    assert np.array_equal(matrix, matrix.T, equal_nan=True)  # exactly symmetric
    for (a, b) in ref.pairs:
        assert matrix[index[a], index[b]].hex() == table.cost(a, b).hex(), (a, b)
    assert np.isnan(matrix).sum() == len(network.nodes) ** 2 - len(ref.pairs)
    # the bottleneck matrix, and both flat lists by pair code i * n + j
    size, bottlenecks = len(network.nodes), table.bottleneck_matrix
    assert not bottlenecks.flags.writeable
    assert np.array_equal(np.isnan(bottlenecks), np.isnan(matrix))
    for (a, b) in ref.pairs:
        i, j = index[a], index[b]
        assert bottlenecks[i, j] == table.bottleneck(a, b), (a, b)
        for got, want in ((table.cost_list[i * size + j], table.cost(a, b)),
                          (table.bottleneck_list[i * size + j], table.bottleneck(a, b))):
            assert type(got) is float and got.hex() == want.hex(), (a, b)
    assert len(table.cost_list) == len(table.bottleneck_list) == size * size
    outside = next((n for n in sorted(network.nodes) if n not in table.relevant),
                   "zz-not-a-node")
    a = min(table.relevant)
    with pytest.raises(KeyError) as expected:
        ref.info(a, outside)
    for read in (table.info, table.cost, table.sequence, table.bottleneck):
        with pytest.raises(KeyError) as got:
            read(a, outside)
        assert str(got.value) == str(expected.value)
    for read in (table.cost, table.bottleneck):  # the other endpoint too
        with pytest.raises(KeyError) as got:
            read(outside, a)
        assert str(got.value) == str(KeyError(
            f"no path entry for pair ({outside!r}, {a!r}); "
            f"is the node in the relevant set?"))
    with pytest.raises(KeyError) as expected:
        ref.pairs[(outside, a)]
    with pytest.raises(KeyError) as got:
        table.pairs[(outside, a)]
    assert got.value.args == expected.value.args
    assert (outside, a) not in table.pairs
    for key in ("ab", (a,), (a, a, a)):  # not a pair
        assert key not in table.pairs
        with pytest.raises(KeyError):
            table.pairs[key]
    return table


class TestReferenceDifferential:
    """`shortest_paths` against a verbatim copy of the tuple-keyed Dijkstra
    it replaced (`tests/paths_reference.py`)."""

    @pytest.mark.parametrize("num_candidates, seed", [(60, 1), (60, 2), (200, 1)])
    def test_generated_networks(self, num_candidates, seed):
        inst = generate_instance(
            ScenarioParams(num_candidates=num_candidates, batch_size=5), seed)
        net = redrawn_capacities(inst.network, random.Random(seed))
        assert_matches_reference(net, inst.relevant_nodes)

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_costs_with_many_ties(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            net = random_network(rng, rng.randint(10, 60), (1.0, 2.0, 3.0))
            nodes = sorted(net.nodes)
            assert_matches_reference(net, nodes)
            assert_matches_reference(net, rng.sample(nodes, len(nodes) // 2))
            last = nodes[-1]  # not drawn, so later networks stay the same
            table = assert_matches_reference(net, [last])
            assert table.max_cost == 0.0
            assert table.bottleneck(last, last) == math.inf

    @pytest.mark.parametrize("seed", range(6))
    def test_absorbed_tiny_costs(self, seed):
        # 1.0 + 1e-20 == 1.0: nodes joined by a tiny link share one cost, so
        # sequences are settled by ties between nodes of equal cost
        rng = random.Random(seed)
        for _ in range(50):
            net = random_network(rng, rng.randint(3, 14), (1e-20, 1e-17, 1.0, 2.0))
            assert_matches_reference(net, sorted(net.nodes))


def path_ledger(capacities=(2000.0, 1500.0, 2000.0), rates=(1.0,), chain=("f1",)):
    """A Ledger over the path network a-b-c-d with the given link capacities,
    and its requests: one per rate, headed at a and bound for d alone."""
    inst = make_instance(
        [(u, v, 1.0, cap) for (u, v), cap in zip(("ab", "bc", "cd"), capacities)],
        candidates=["b", "c"], gateway="a", attachment="d",
        requests=[(f"r{i}", chain, rate, ["a"]) for i, rate in enumerate(rates, 1)],
        destinations={}, stay=1.0,
        catalog={nf: (10.0, 0.125) for nf in ("f1", "f2", "f3")})
    paths = shortest_paths(inst.network, sorted(inst.network.nodes))
    return Ledger(inst, paths), inst.requests


# int node ids of the path network a-b-c-d (positions in sorted id order)
A, B, C, D = range(4)


def code(a, b):
    """The ledger's pair code of int ids a and b on the four-node path."""
    return a * 4 + b


def rows(ledger):
    return [(v.constraint, v.index, v.slack) for v in ledger.violations()]


def host(ledger, req, l, node, before=None, after=None):
    """Visit position `l` of `req` at the int node id `node` for
    `path_ledger`'s one (head, destination) pair (a, d), with the int ids
    hosting positions l - 1 and l + 1, and charge it if it fits, as the
    greedy fill does; whether it did."""
    return charge_if_fits(ledger, ledger.visit(
        req, l, node, (A,), (D,), () if before is None else (before,),
        () if after is None else (after,)))


class TestLedger:
    """Flow accounting of `evaluation.Ledger` on a path: the budget of a pair
    is the smallest link capacity on its stored path."""

    def test_segment_fits_up_to_the_smallest_capacity(self):
        # head flow a->c crosses the 1500 Mbps link b-c
        for rate, fits in ((1500.0, True), (1500.5, False)):
            ledger, (req,) = path_ledger(rates=(rate,))
            assert host(ledger, req, 1, C) is fits

    def test_fit_after_charge(self):
        # tail flow b->d crosses b-c: 600 there leaves room for 900, not 900.5
        ledger, (r1, r2, r3) = path_ledger(rates=(600.0, 900.0, 900.5))
        assert host(ledger, r1, 1, B)
        assert not host(ledger, r3, 1, B)
        assert host(ledger, r2, 1, B)
        assert ledger.flows[2] == {code(B, D): 1500.0}

    def test_charge_64kbps(self):
        ledger, (req,) = path_ledger(rates=(0.064,))
        assert host(ledger, req, 1, B)
        assert ledger.flows == ({code(A, B): 0.064}, {}, {code(B, D): 0.064})
        assert ledger.violations() == []

    def test_two_charges_add_up(self):
        ledger, (r1, r2) = path_ledger(rates=(10.0, 10.0))
        assert host(ledger, r1, 1, C)
        assert host(ledger, r2, 1, C)
        assert ledger.flows == ({code(A, C): 20.0}, {}, {code(C, D): 20.0})

    def test_rate_above_capacity_does_not_fit(self):
        ledger, (req,) = path_ledger(rates=(1600.0,))
        assert not host(ledger, req, 1, C)
        assert ledger.flows == ({}, {}, {}) and ledger.load[C] == (0.0, 0.0)
        over = ledger.visit(req, 1, C, (A,), (D,))
        assert not ledger.fits(over, True)
        ledger.charge(over, True)  # charging does not test; violations() reports
        assert rows(ledger) == [("5b", ("a", "c"), -100.0)]

    def test_undo_restores_loads(self):
        ledger, (r1, r2) = path_ledger(rates=(0.1, 0.2))
        assert host(ledger, r1, 1, B)
        assert host(ledger, r2, 1, C)
        ledger.undo()
        assert ledger.flows == ({code(A, B): 0.1}, {}, {code(B, D): 0.1})
        assert (ledger.load[B], ledger.load[C]) == ((10.0, 0.125), (0.0, 0.0))
        ledger.undo()
        assert ledger.flows == ({}, {}, {})
        assert ledger.load[B] == (0.0, 0.0)


class TestResiduals:
    """A self pair uses no link: consecutive positions on one node charge no
    chain flow, whatever the rate."""

    def test_single_node_path_is_infinite(self):
        for rate in (1e9, float("inf")):
            ledger, (req,) = path_ledger(rates=(rate,), chain=("f1", "f2", "f3"))
            assert host(ledger, req, 2, C, C, C)
            assert ledger.fits(ledger.visit(req, 2, C, (A,), (D,), (C,)), False)

    def test_consume_zero_length_path_is_noop(self):
        ledger, (req,) = path_ledger(rates=(1e9,), chain=("f1", "f2", "f3"))
        assert host(ledger, req, 2, C, C, C)
        assert ledger.flows == ({}, {}, {}) and ledger.violations() == []
        ledger.undo()
        assert ledger.flows == ({}, {}, {}) and ledger.load[C] == (0.0, 0.0)


def one_node_network():
    return EdgeNetwork(nodes=frozenset({"a"}), links=(), candidates=frozenset({"a"}),
                       gateway="a", attachment="a")


class TestDegenerateShapes:
    """Tables of the smallest networks, pinned from the heap Dijkstra's."""

    @pytest.mark.parametrize("relevant", [["a"], []])
    def test_single_node_without_links(self, relevant):
        table = shortest_paths(one_node_network(), relevant)
        assert table.relevant == frozenset(relevant)
        assert table.max_cost == 0.0
        assert list(table.pairs) == [(a, a) for a in relevant]
        assert table.cost_matrix.shape == (1, 1)
        if relevant:
            assert table.cost("a", "a") == 0.0
            assert table.sequence("a", "a") == ("a",)
            assert table.bottleneck("a", "a") == math.inf
            assert table.cost_matrix[0, 0] == 0.0
        else:
            assert np.isnan(table.cost_matrix[0, 0])
            with pytest.raises(KeyError):
                table.cost("a", "a")

    @pytest.mark.parametrize("relevant, at", [("a", 0), ("b", 1)])
    def test_two_nodes_one_relevant(self, relevant, at):
        net = make_network([("a", "b", 2.5, 700.0)], candidates=["a"],
                           gateway="a", attachment="b")
        table = shortest_paths(net, [relevant])
        assert table.max_cost == 0.0
        assert table.cost(relevant, relevant) == 0.0
        assert table.sequence(relevant, relevant) == (relevant,)
        assert table.bottleneck(relevant, relevant) == math.inf
        expected = np.full((2, 2), np.nan)
        expected[at, at] = 0.0
        assert np.array_equal(table.cost_matrix, expected, equal_nan=True)
        other = "b" if relevant == "a" else "a"
        for read in (table.cost, table.sequence, table.bottleneck):
            with pytest.raises(KeyError):
                read(relevant, other)

    def test_disconnected_with_no_relevant_node(self):
        net = make_network([("a", "b", 1.0)], candidates=["a"], gateway="a",
                           attachment="a", nodes=["a", "b", "z"])
        with pytest.raises(DisconnectedGraphError):
            shortest_paths(net, [])

    def test_relevant_node_outside_the_network(self):
        net = make_network([("a", "b", 2.5)], candidates=["a"], gateway="a",
                           attachment="b")
        with pytest.raises(KeyError, match=r"relevant nodes not in network: \['zz'\]"):
            shortest_paths(net, ["a", "zz"])


@pytest.fixture
def dijkstra_runs(monkeypatch):
    """The int source ids `graph._dijkstra` is run for, in call order."""
    sources = []
    run = graph._dijkstra

    def counted(adj, source):
        sources.append(source)
        return run(adj, source)

    monkeypatch.setattr(graph, "_dijkstra", counted)
    return sources


def dijkstra_table(network, relevant):
    """Per relevant source, `graph._dijkstra`'s (cost, sequence, bottleneck)
    rows keyed by target, over the adjacency `shortest_paths` builds."""
    index, ids = network.node_index, network.node_ids
    adj = [[] for _ in ids]
    for ln in network.links:
        u, v = index[ln.u], index[ln.v]
        adj[u].append((v, ln.cost, ln.capacity_mbps))
        adj[v].append((u, ln.cost, ln.capacity_mbps))
    for nbrs in adj:
        nbrs.sort()
    rows = {}
    for a in sorted(relevant):
        dist, pred, bn = graph._dijkstra(adj, index[a])
        rows[a] = {b: (dist[index[b]],
                       tuple(ids[v] for v in graph._walk(pred, index[b])),
                       bn[index[b]])
                   for b in relevant}
    return rows


def assert_matches_dijkstra(network, relevant):
    """Every cost row, `cost_matrix` entry, bottleneck row and sequence of
    the table equals the `_dijkstra`-only table's, costs by `.hex()` from
    the smaller endpoint's run."""
    table = shortest_paths(network, relevant)
    rows = dijkstra_table(network, relevant)
    index = network.node_index
    for a in rows:
        for b, (_, seq, bn) in rows[a].items():
            cost = rows[min(a, b)][max(a, b)][0]
            assert table.cost(a, b).hex() == cost.hex(), (a, b)
            assert table.cost_matrix[index[a], index[b]].hex() == cost.hex(), (a, b)
            assert table.sequence(a, b) == seq, (a, b)
            assert table.bottleneck(a, b) == bn, (a, b)
    return table


def relax_reruns(dijkstra_runs, network, relevant):
    """The nodes `graph._relax` runs `_dijkstra` for, over the adjacency
    `shortest_paths` builds, whatever the node count; its arrays equal one
    `_dijkstra` run per source."""
    adj = graph._adjacency(network)
    sources = [network.node_index[b] for b in sorted(relevant)]
    start = len(dijkstra_runs)
    got = graph._relax(adj, sources)
    reruns = [network.node_ids[v] for v in dijkstra_runs[start:]]
    for array, want in zip(got, graph._each_source(adj, sources)):
        assert np.array_equal(array, want)
    return reruns


class TestRoutes:
    """`shortest_paths` reads a source's tree from its relaxation when the
    tree is unique and strictly increasing, and runs `_dijkstra` for that
    source otherwise: each route is taken, and only where it should be.
    Below `_RELAX_MIN_NODES` nodes it runs `_dijkstra` for every source, so
    the small hand graphs call `_relax` directly."""

    @pytest.mark.parametrize("nodes", [2, 15, 16, 40])
    def test_small_tables_run_each_source(self, monkeypatch, dijkstra_runs, nodes):
        relaxed = []
        relax = graph._relax
        monkeypatch.setattr(graph, "_relax",
                            lambda adj, sources: relaxed.append(sources) or relax(adj, sources))
        net = random_network(random.Random(nodes), nodes, (1.0, 2.5, 4.25))
        assert_matches_reference(net, sorted(net.nodes))
        if nodes < graph._RELAX_MIN_NODES:
            assert relaxed == [] and len(dijkstra_runs) == nodes
        else:
            assert len(relaxed) == 1

    @pytest.mark.parametrize("num_candidates, seed",
                             [(20, 1), (20, 2), (20, 3), (200, 1), (200, 2)])
    def test_generated_float_graphs_rerun_nothing(self, dijkstra_runs,
                                                  num_candidates, seed):
        inst = generate_instance(
            ScenarioParams(num_candidates=num_candidates, batch_size=5), seed)
        net = redrawn_capacities(inst.network, random.Random(seed))
        assert_matches_reference(net, inst.relevant_nodes)
        assert dijkstra_runs == []

    @pytest.mark.parametrize("seed", range(2))
    def test_integer_ties_rerun(self, dijkstra_runs, seed):
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(10, 60), (1.0, 2.0, 3.0))
        assert_matches_reference(net, sorted(net.nodes))
        assert dijkstra_runs

    @pytest.mark.parametrize("seed", range(2))
    def test_absorbed_costs_rerun(self, dijkstra_runs, seed):
        rng = random.Random(seed)
        net = random_network(rng, 14, (1e-20, 1e-17, 1.0, 2.0))
        assert_matches_reference(net, sorted(net.nodes))
        assert relax_reruns(dijkstra_runs, net, net.nodes)

    def test_only_tied_sources_rerun(self, dijkstra_runs):
        # a-c ties a-b-c at cost 2, seen from a and from c; b reaches both
        # directly, and e through b alone
        net = make_network(
            [("a", "b", 1.0, 10.0), ("b", "c", 1.0, 20.0), ("a", "c", 2.0, 30.0),
             ("b", "e", 1.0, 40.0)],
            candidates=["a"], gateway="a", attachment="a")
        table = assert_matches_reference(net, ["a", "b", "c", "e"])
        assert relax_reruns(dijkstra_runs, net, ["a", "b", "c", "e"]) == ["a", "c"]
        assert table.sequence("a", "c") == ("a", "b", "c")
        assert table.bottleneck("a", "c") == 10.0
        assert table.sequence("e", "c") == ("e", "b", "c")

    def test_only_absorbed_sources_rerun(self, dijkstra_runs):
        # from c, b costs 1.0 + 1e-20 == 1.0, as much as its predecessor a;
        # from a and from b every predecessor is strictly cheaper
        net = make_network([("a", "b", 1e-20, 10.0), ("a", "c", 1.0, 20.0)],
                           candidates=["a"], gateway="a", attachment="a")
        table = assert_matches_reference(net, ["a", "b", "c"])
        assert relax_reruns(dijkstra_runs, net, ["a", "b", "c"]) == ["c"]
        assert table.sequence("c", "b") == ("c", "a", "b")
        assert table.cost("c", "b") == 1.0


class TestFuzzAgainstDijkstra:
    """Random scenario parameters: the table equals a `_dijkstra`-only one."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_parameters(self, seed):
        rng = random.Random(seed)
        lo = rng.choice((0.001, 1.0, 5.0))
        hi = rng.choice((lo, lo * 3, 100.0, 1e6))
        params = ScenarioParams(
            num_candidates=rng.randint(1, 90),
            batch_size=rng.randint(1, 12),
            degree=rng.choice(((1, 2), (2, 5), (3, 8))),
            heads_per_request=(1, rng.randint(1, 6)),
            num_destinations=(1, rng.randint(1, 6)),
            link_cost=(lo, max(lo, hi)),
            transit_fraction=rng.choice((0.0, 0.1, 0.5)))
        inst = generate_instance(params, seed)
        net = redrawn_capacities(inst.network, rng)
        assert_matches_dijkstra(net, inst.relevant_nodes)
