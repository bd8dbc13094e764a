import math

import pytest

from pccplace.graph import EdgeNetwork, Link
from pccplace.model import (
    MobilityProfile,
    ProblemInstance,
    Resources,
    ServiceRequest,
)


def make_network(links, candidates, gateway, attachment, nodes=None):
    """links: iterable of (u, v, cost) or (u, v, cost, capacity)."""
    built = []
    seen = set()
    for entry in links:
        u, v, cost = entry[0], entry[1], entry[2]
        cap = entry[3] if len(entry) > 3 else 2000.0
        built.append(Link(u=u, v=v, cost=float(cost), capacity_mbps=float(cap)))
        seen.update((u, v))
    all_nodes = set(nodes) if nodes else set()
    all_nodes |= seen | set(candidates) | {gateway, attachment}
    return EdgeNetwork(
        nodes=frozenset(all_nodes),
        links=tuple(built),
        candidates=frozenset(candidates),
        gateway=gateway,
        attachment=attachment,
    )


def make_instance(
    links,
    candidates,
    gateway,
    attachment,
    requests,
    destinations,
    stay=0.0,
    catalog=None,
    node_resources=None,
    placement_cost=None,
    nodes=None,
):
    """Compact hand-built instance for fixtures.

    requests: list of (id, chain, rate, heads).
    catalog: {nf: (memory_mb, cpu_cores)}; defaults to f1=(10, 0.125).
    node_resources: {node: (memory_mb, cpu_cores)}; defaults to roomy.
    """
    network = make_network(links, candidates, gateway, attachment, nodes)
    catalog = catalog or {"f1": (10.0, 0.125)}
    node_resources = node_resources or {k: (1000.0, 8.0) for k in candidates}
    return ProblemInstance(
        network=network,
        catalog={nf: Resources(*dem) for nf, dem in catalog.items()},
        node_resources={k: Resources(*cap) for k, cap in node_resources.items()},
        requests=tuple(
            ServiceRequest(id=rid, chain=tuple(chain),
                           flow_rate_mbps=float(rate), heads=frozenset(heads))
            for rid, chain, rate, heads in requests
        ),
        placement_cost=placement_cost or {},
        mobility=MobilityProfile(destinations=dict(destinations),
                                 stay_probability=float(stay)),
    )


PATH_LINKS = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)]


def fill_visit(ledger, instance, req, l, node, before=None, after=None):
    """The visit the greedy fill charges where flows bind: position `l` of
    `req` at the int node id `node` for every (head, destination) pair, with
    the int ids hosting positions l - 1 and l + 1 (None while unhosted)."""
    index = instance.network.node_index
    return ledger.visit(req, l, node, sorted(index[s] for s in req.heads),
                        sorted(index[d] for d in instance.destination_weights),
                        () if before is None else (before,),
                        () if after is None else (after,))


def charge_if_fits(ledger, visit):
    """Charge `visit`, marked new, if it fits, as the greedy fill does;
    whether it did."""
    if not ledger.fits(visit, True):
        return False
    ledger.charge(visit, True)
    return True


@pytest.fixture
def tiny1():
    """Path graph a-b-c-d (costs 1, 2, 3), K={b,c}, one single-NF request
    headed at a, all mobility mass on d; gateway and attachment are a."""
    return make_instance(
        links=PATH_LINKS,
        candidates=["b", "c"],
        gateway="a",
        attachment="a",
        requests=[("r1", ["f1"], 1.0, ["a"])],
        destinations={"d": 1.0},
    )


@pytest.fixture
def tiny1_ext():
    """Tiny-1 plus an off-path candidate e hanging off b at cost 5; K={b,e}."""
    return make_instance(
        links=PATH_LINKS + [("b", "e", 5.0)],
        candidates=["b", "e"],
        gateway="a",
        attachment="a",
        requests=[("r1", ["f1"], 1.0, ["a"])],
        destinations={"d": 1.0},
    )


@pytest.fixture
def tiny1_saturated():
    """Tiny-1 with node b too small for f1 (memory 5 < 10)."""
    return make_instance(
        links=PATH_LINKS,
        candidates=["b", "c"],
        gateway="a",
        attachment="a",
        requests=[("r1", ["f1"], 1.0, ["a"])],
        destinations={"d": 1.0},
        node_resources={"b": (5.0, 8.0), "c": (1000.0, 8.0)},
    )


@pytest.fixture
def tiny1_infeasible():
    """Only candidate lacks the memory for any NF."""
    return make_instance(
        links=PATH_LINKS,
        candidates=["b"],
        gateway="a",
        attachment="a",
        requests=[("r1", ["f1"], 1.0, ["a"])],
        destinations={"d": 1.0},
        node_resources={"b": (5.0, 8.0)},
    )


def infinite_node_capacity_instance():
    """Path a-b-c-d, chains f1-f2 and f1 headed at a; b has infinite memory
    and c infinite CPU, so the LP export omits cap_mem_b and cap_cpu_c."""
    return make_instance(
        links=PATH_LINKS, candidates=["b", "c"], gateway="a", attachment="a",
        requests=[("r1", ["f1", "f2"], 1.0, ["a"]), ("r2", ["f1"], 1.0, ["a"])],
        destinations={"d": 1.0},
        catalog={"f1": (10.0, 1.0), "f2": (10.0, 1.0)},
        node_resources={"b": (math.inf, 1.0), "c": (1000.0, math.inf)})


def colliding_ids_instance():
    """A valid instance whose ids would give two LP variables one name when
    joined by '_': request r hosts NF f_g and request r_f hosts NF g."""
    return make_instance(
        links=PATH_LINKS, candidates=["b", "c"], gateway="a", attachment="a",
        requests=[("r", ["f_g"], 1.0, ["a"]), ("r_f", ["g"], 1.0, ["a"])],
        destinations={"d": 1.0},
        catalog={"f_g": (10.0, 0.125), "g": (10.0, 0.125)})


def cpu_sum_instance():
    """Chain f1, f2, f3 of 0.1, 0.2 and 0.3 cores on two 0.6-core nodes.

    0.1 + 0.2 + 0.3 is 0.6000000000000001 in float but 0.6 summed in other
    orders, so whether all three fit on one node depends on summation order.
    """
    return make_instance(
        links=[("s", "a", 1.0), ("a", "b", 1.0), ("b", "d", 1.0)],
        candidates=["a", "b"], gateway="s", attachment="s",
        requests=[("r1", ["f1", "f2", "f3"], 1.0, ["s"])],
        destinations={"d": 1.0},
        catalog={"f1": (10.0, 0.1), "f2": (10.0, 0.2), "f3": (10.0, 0.3)},
        node_resources={"a": (1000.0, 0.6), "b": (1000.0, 0.6)},
    )


def flow_sum_instance():
    """Requests of 0.1, 0.2 and 0.3 Mbps from a to b over one 0.6 Mbps link.

    b is the only candidate and the attachment (stay 1). Charged in batch
    order the link load reaches 0.1 + 0.2 + 0.3 = 0.6000000000000001, so the
    third request does not fit, whereas subtracting from what remains leaves
    0.6 - 0.1 - 0.2 = 0.3, which it would.
    """
    return make_instance(
        links=[("a", "b", 1.0, 0.6)],
        candidates=["b"], gateway="a", attachment="b",
        requests=[("r1", ["f1"], 0.1, ["a"]), ("r2", ["f1"], 0.2, ["a"]),
                  ("r3", ["f1"], 0.3, ["a"])],
        destinations={}, stay=1.0,
    )
