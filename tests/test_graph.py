import math
import random

import pytest

from pccplace.graph import (
    CapacityExceededError,
    DisconnectedGraphError,
    InvalidPathError,
    ResidualState,
    consume_flow,
    link_key,
    path_bottleneck,
    shortest_paths,
)

from conftest import make_network


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


class TestResiduals:
    def test_bottleneck_min_of_two(self):
        net = path_network()
        res = ResidualState.from_network(net)
        assert path_bottleneck(net, ["a", "b", "c"], res) == 1500.0

    def test_single_node_path_is_infinite(self):
        net = path_network()
        res = ResidualState.from_network(net)
        assert math.isinf(path_bottleneck(net, ["a"], res))

    def test_bottleneck_after_consumption(self):
        net = path_network()
        res = ResidualState.from_network(net)
        consume_flow(res, net, ["a", "b"], 600.0)
        assert path_bottleneck(net, ["a", "b", "c"], res) == 1400.0

    def test_invalid_path_raises(self):
        net = path_network()
        res = ResidualState.from_network(net)
        with pytest.raises(InvalidPathError):
            path_bottleneck(net, ["a", "c"], res)

    def test_consume_64kbps(self):
        net = path_network()
        res = ResidualState.from_network(net)
        consume_flow(res, net, ["a", "b"], 0.064)
        assert res.link_remaining[("a", "b")] == pytest.approx(1999.936)

    def test_consume_zero_length_path_is_noop(self):
        net = path_network()
        res = ResidualState.from_network(net)
        before = dict(res.link_remaining)
        consume_flow(res, net, ["a"], 50.0)
        assert res.link_remaining == before

    def test_two_sequential_consumes_add_up(self):
        net = path_network()
        res = ResidualState.from_network(net)
        consume_flow(res, net, ["a", "b", "c"], 10.0)
        consume_flow(res, net, ["a", "b", "c"], 10.0)
        assert res.link_remaining[("a", "b")] == 1980.0
        assert res.link_remaining[("b", "c")] == 1480.0

    def test_repeated_link_charged_per_traversal(self):
        net = path_network()
        res = ResidualState.from_network(net)
        consume_flow(res, net, ["a", "b", "a"], 10.0)
        assert res.link_remaining[("a", "b")] == 1980.0

    def test_overcommit_raises_and_leaves_state_untouched(self):
        net = make_network([("a", "b", 1.0, 15.0)], candidates=["a"],
                           gateway="a", attachment="a")
        res = ResidualState.from_network(net)
        # bottleneck 15 >= 10, but the walk charges the link twice
        with pytest.raises(CapacityExceededError):
            consume_flow(res, net, ["a", "b", "a"], 10.0)
        assert res.link_remaining[("a", "b")] == 15.0

    def test_rate_above_bottleneck_raises(self):
        net = path_network()
        res = ResidualState.from_network(net)
        with pytest.raises(CapacityExceededError):
            consume_flow(res, net, ["a", "b", "c"], 1600.0)
