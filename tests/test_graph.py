import math
import random

import pytest

from pccplace.evaluation import Ledger
from pccplace.graph import DisconnectedGraphError, link_key, shortest_paths

from conftest import PATH_LINKS, make_instance, make_network


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


def path_ledger(capacities=(2000.0, 1500.0, 2000.0)):
    """A Ledger over the path network a-b-c-d with the given link capacities."""
    inst = make_instance(
        [(u, v, 1.0, cap) for (u, v), cap in zip(("ab", "bc", "cd"), capacities)],
        candidates=["b", "c"], gateway="a", attachment="a",
        requests=[("r1", ["f1"], 1.0, ["a"])], destinations={"d": 1.0})
    return Ledger(inst, shortest_paths(inst.network, sorted(inst.network.nodes)))


def link_rows(ledger):
    return [(v.constraint, v.index, v.slack) for v in ledger.violations()]


class TestLedger:
    """The link table of `evaluation.Ledger`."""

    def test_segment_fits_up_to_the_smallest_capacity(self):
        ledger = path_ledger()
        assert ledger.fits(ledger.segment("a", "c", 1500.0))
        assert not ledger.fits(ledger.segment("a", "c", 1500.5))

    def test_fit_after_charge(self):
        ledger = path_ledger()
        ledger.charge(ledger.segment("a", "b", 600.0))
        assert ledger.fits(ledger.segment("a", "c", 1400.0))
        assert not ledger.fits(ledger.segment("a", "c", 1400.5))
        assert ledger.fits(ledger.segment("b", "c", 1500.0))

    def test_charge_64kbps(self):
        ledger = path_ledger()
        ledger.charge(ledger.segment("b", "a", 0.064))
        assert ledger.links == {("a", "b"): 0.064}
        assert ledger.violations() == []

    def test_two_charges_add_up(self):
        ledger = path_ledger()
        ledger.charge(ledger.segment("a", "c", 10.0))
        ledger.charge(ledger.segment("c", "a", 10.0))
        assert ledger.links == {("a", "b"): 20.0, ("b", "c"): 20.0}

    def test_rate_above_capacity_does_not_fit(self):
        ledger = path_ledger()
        over = ledger.segment("a", "c", 1600.0)
        assert not ledger.fits(over)
        ledger.charge(over)  # charging does not test; violations() reports
        assert link_rows(ledger) == [("link", ("b", "c"), -100.0)]

    def test_undo_restores_loads(self):
        ledger = path_ledger()
        ledger.charge(ledger.segment("a", "b", 0.1))
        ledger.charge(ledger.segment("a", "c", 0.2))
        ledger.undo()
        assert ledger.links == {("a", "b"): 0.1}
        ledger.undo()
        assert ledger.links == {}
        assert ledger.fits(ledger.segment("a", "d", 1500.0))

    def test_link_rows_follow_the_families_in_sorted_key_order(self):
        ledger = path_ledger(capacities=(5.0, 2000.0, 5.0))
        req = make_instance(PATH_LINKS, ["b"], "a", "a",
                            [("r1", ["f1"], 6.0, ["a"])], {"d": 1.0}).requests[0]
        ledger.charge(ledger.segment("d", "c", 6.0))
        ledger.charge(ledger.visit(req, 1, "b", "a", "d", (), False))
        ledger.charge(ledger.segment("a", "b", 7.0))
        assert link_rows(ledger) == [
            ("5b", ("a", "b"), -1.0),
            ("5d", ("b", "d"), -1.0),
            ("link", ("a", "b"), -2.0),
            ("link", ("c", "d"), -1.0),
        ]


class TestResiduals:
    """Residual link capacity of a zero-length segment: a chain step that
    stays on one node uses no link."""

    def test_single_node_path_is_infinite(self):
        ledger = path_ledger()
        assert ledger.fits(ledger.segment("b", "b", 1e9))
        assert ledger.fits(ledger.segment("b", "b", float("inf")))

    def test_consume_zero_length_path_is_noop(self):
        ledger = path_ledger()
        ledger.charge(ledger.segment("b", "b", 1e9))
        assert ledger.links == {} and ledger.violations() == []
        ledger.undo()
        assert ledger.links == {}
