"""The counted visit against the frozen reference ledger, and no self pair.

`greedy_reference.Ledger.place` is the position-by-position flow charge as
the greedy fill had it before every 5b-5d charge outside the array pass
went through `Ledger.visit`: string node ids, its own flow keys, repeated
adds, a budget test and an undo. On random requests, positions, head sets,
destination sets and hosts of the neighbouring positions on small path
networks, visiting the position for every (head, destination) pair and
charging it where `fits` passes must give the reference's verdict and leave
every load bit for bit (compared by `.hex()`), with one pair's budget set
to the running sum the step would reach, one ulp below it, or +inf.

Every ledger that `check_constraints`, the exact search and the greedy fill
build must then hold no self-pair code: a self pair uses no link, so its
budget is +inf and it is never charged.
"""

import math
import random
import string

import pytest

from pccplace.evaluation import Ledger, check_constraints
from pccplace.exact import SolveBudget, _capacities_cannot_bind, solve_exact
from pccplace.graph import shortest_paths
from pccplace.heuristics import _greedy_chain_fill, ppcc
from pccplace.scenario import generate_instance

from conftest import make_instance
import greedy_reference
from test_acceptance import _tight_corpus
from test_greedy_differential import CORPORA, _targets

# rates whose running sums round, so that summation order shows
RATES = (0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5)


def random_instance(rng):
    """A path network of 3-6 nodes, every node a candidate with unlimited
    resources, and 1-4 requests with chains of 1-3 NFs and 1-3 heads."""
    names = string.ascii_lowercase[:rng.randint(3, 6)]
    links = [(u, v, float(rng.randint(1, 4)), 1000.0) for u, v in zip(names, names[1:])]
    requests = [(f"r{i}", rng.sample(["f1", "f2", "f3"], rng.randint(1, 3)),
                 rng.choice(RATES), rng.sample(names, rng.randint(1, min(3, len(names)))))
                for i in range(rng.randint(1, 4))]
    dests = rng.sample(names, rng.randint(0, min(2, len(names) - 1)))
    stay = rng.choice((0.0, 0.5)) if dests else 1.0
    weight = (1.0 - stay) / len(dests) if dests else 0.0
    return make_instance(
        links, candidates=names, gateway=names[0], attachment=rng.choice(names),
        requests=requests, destinations={d: weight for d in dests}, stay=stay,
        catalog={nf: (10.0, 0.125) for nf in ("f1", "f2", "f3")},
        node_resources={k: (math.inf, math.inf) for k in names})


def hex_state(ledger, ids, n):
    """Loads by node id and flows by (node id, node id) pair, every float
    as `.hex()`."""
    load = {ids[k]: tuple(x.hex() for x in value)
            for k, value in enumerate(ledger.load) if value is not None}
    flows = [{(ids[code // n], ids[code % n]): value.hex() for code, value in table.items()}
             for table in ledger.flows]
    return load, flows


def reference_state(ref):
    return ({k: tuple(x.hex() for x in value) for k, value in ref.load.items()},
            [{pair: value.hex() for pair, value in table.items()} for table in ref.flows])


@pytest.mark.parametrize("seed", range(40))
def test_counted_visit_matches_the_reference_place(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    paths = shortest_paths(inst.network, inst.relevant_nodes)
    ids, index = inst.network.node_ids, inst.network.node_index
    n = len(ids)
    budgets = paths.bottleneck_list  # read by both ledgers, so set here for both
    ledger, ref = Ledger(inst, paths), greedy_reference.Ledger(inst, paths)
    dests = sorted(index[d] for d in inst.destination_weights)
    hosted = set()
    verdicts = set()
    for _ in range(60):
        req = rng.choice(inst.requests)
        l = rng.randint(1, len(req.chain))
        node = rng.randrange(n)
        before, after = (rng.choice([None, rng.randrange(n)]) for _ in range(2))
        heads = sorted(index[s] for s in req.heads)

        def visit():
            return ledger.visit(req, l, node, heads, dests,
                                () if before is None else (before,),
                                () if after is None else (after,))

        flows = visit()[3]
        if flows:
            table, code, _, count = rng.choice(flows)
            running = table.get(code, 0.0)
            for _ in range(count):
                running += req.flow_rate_mbps
            budgets[code] = rng.choice((running, math.nextafter(running, 0.0), math.inf))
        v = visit()
        host = (req.id, req.chain[l - 1], node)
        fits = ledger.fits(v, host not in hosted)
        assert fits == ref.place(req, l, ids[node], None if before is None else ids[before],
                                 None if after is None else ids[after])
        verdicts.add(fits)
        if fits:
            ledger.charge(v, host not in hosted)
            hosted.add(host)
        assert hex_state(ledger, ids, n) == reference_state(ref)
    assert verdicts == {True, False}


class SelfPairSpy:
    """Checks, after every `charge` and `place_routes`, that the ledger's
    flow tables hold no self-pair code, and counts the charges, and those
    of a visit whose node is one of its heads (at position 1), destinations
    (at the last position) or neighbouring hosts, which would charge a self
    pair if any visit did."""

    def __init__(self, monkeypatch):
        self.charges = self.self_visits = 0
        self.near = {}  # id of a visit's flow list -> (the list, whether near)
        visit, charge, place_routes = Ledger.visit, Ledger.charge, Ledger.place_routes

        def spy_visit(ledger, req, l, node, heads, dests, prevs=(), nexts=()):
            out = visit(ledger, req, l, node, heads, dests, prevs, nexts)
            near = ((l == 1 and node in heads) or (l == len(req.chain) and node in dests)
                    or node in prevs or node in nexts)
            self.near[id(out[3])] = (out[3], near)
            return out

        def spy_charge(ledger, v, new):
            charge(ledger, v, new)
            self.charges += 1
            self.self_visits += self.near[id(v[3])][1]
            self.check(ledger)

        def spy_place_routes(ledger, routes):
            out = place_routes(ledger, routes)
            self.check(ledger)
            return out

        monkeypatch.setattr(Ledger, "visit", spy_visit)
        monkeypatch.setattr(Ledger, "charge", spy_charge)
        monkeypatch.setattr(Ledger, "place_routes", spy_place_routes)

    @staticmethod
    def check(ledger):
        n = len(ledger.load)
        assert not [code for table in ledger.flows for code in table if code // n == code % n]


def test_checker_charges_no_self_pair(monkeypatch):
    # PPCC hosts whole chains at an anchor head where capacity is slack, so
    # its visits start at their head and repeat a node between positions
    spy = SelfPairSpy(monkeypatch)
    params, seeds = CORPORA["slack"]
    for seed in seeds:
        inst = generate_instance(params, seed)
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        assert check_constraints(inst, ppcc(inst, paths).placement, paths) == []
    assert spy.self_visits > 0 and spy.charges > spy.self_visits


def test_exact_search_charges_no_self_pair(monkeypatch):
    spy = SelfPairSpy(monkeypatch)
    budget = SolveBudget(max_nodes_expanded=300, wall_time_s=None)
    searched = 0
    for inst in _tight_corpus()[:20]:
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        if not _capacities_cannot_bind(inst, paths):
            solve_exact(inst, paths, budget)
            searched += 1
    assert searched > 0 and spy.self_visits > 0 and spy.charges > spy.self_visits


def test_greedy_fill_charges_no_self_pair(monkeypatch):
    # flows bind in these corpora, so the fill resumes and charges visits
    spy = SelfPairSpy(monkeypatch)
    for name in ("flow-tight", "flow-and-cpu-tight-K50"):
        params, seeds = CORPORA[name]
        inst = generate_instance(params, seeds[0])
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        for target in sorted(set(_targets(inst).values())):
            _greedy_chain_fill(inst, paths, target)
    assert spy.self_visits > 0 and spy.charges > spy.self_visits
