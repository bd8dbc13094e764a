"""Greedy placement heuristics: PPCC and the AGW / SPBA baselines.

PPCC (probability-prior proactive caching-chaining) targets the most
probable destination, anchors each request at the cache head closest to
that target, and fills the chain greedily onto candidate nodes along the
head-to-target shortest path, respecting node resources and per-link
capacity.

SPBA runs the same greedy machinery but is mobility-oblivious: it targets
the current serving attachment node and never consults the handover
probabilities. Its cost is still evaluated under the true mobility profile,
so it pays for ignoring movement. AGW parks every function at the network
gateway, whose capacity is treated as unlimited; it is the status-quo
anchor baseline.
"""

from __future__ import annotations

from .evaluation import Ledger, SolveResult, cost_of_routes, unplaced_penalty
# Not called here: perfbench/tracing.py wraps `heuristics.evaluate_cost` by
# name, so the name stays bound until the benchmark drops that patch
# (ROADMAP item 5).
from .evaluation import evaluate_cost  # noqa: F401
from .graph import PathTable
from .model import ProblemInstance, build_placement


def _solve_result(instance: ProblemInstance, paths: PathTable,
                  hosts: dict[tuple[str, int], str],
                  unplaced: tuple[tuple[str, int, str], ...] = ()) -> SolveResult:
    """The placement of `hosts` and its cost, from one route per request.

    Every chain of a request visits each position at the node hosting it,
    so the route ``[hosts.get((r, l)) for l in 1..L]`` serves each of its
    (head, destination) pairs. The report is :func:`evaluation.evaluate_cost`'s,
    bit for bit: every host key comes from `instance.requests` and every
    node from the candidates or the gateway, so the placement passes the
    index check; and `validate_instance` rejects a function repeated within
    a chain, so each (request, head, destination, nf) has exactly one visit
    and the routes :func:`evaluation.evaluate_cost` derives from the visit
    plan are these, given to :func:`cost_of_routes` with the same hosting
    set and in the same `pair_order` sum order.
    """
    route_of = {req.id: [hosts.get((req.id, l)) for l in range(1, len(req.chain) + 1)]
                for req in instance.requests}
    routes = [route_of[req.id] for req, _, _ in instance.pair_order]
    placement = build_placement(instance, hosts)
    cost = cost_of_routes(instance, paths, placement.x, routes,
                          penalty_cost=unplaced_penalty(paths))
    return SolveResult(placement, cost, "ok", unplaced)


def _greedy_chain_fill(
    instance: ProblemInstance,
    paths: PathTable,
    target: str,
) -> SolveResult:
    """Shared greedy fill toward a fixed target node.

    For each request in batch order: pick the head closest to the target,
    walk the candidates on the head->target shortest path in path order
    (then all remaining candidates by distance from the head as a fallback
    pass), and host the not-yet-hosted chain functions in visiting order
    wherever node resources and the flow from the previous function's node
    both fit. One `evaluation.Ledger` keeps both: hosting demand, and the
    request's rate on every link of each hosted hop (from the anchor, the
    head or the last hosting node, to the new node) in its link table. No
    tail flow to the destinations is reserved, so the placement can still
    have rows in :func:`evaluation.check_link_capacities`, which charges
    every (request, head, destination) route. Positions still unhosted after
    the fallback pass are reported as unplaced and penalized in the cost
    report, which is computed from the hosts as :func:`_solve_result`
    explains.

    The fallback order, all candidates by (distance from the anchor head,
    id), is sorted once per anchor head in a call; a request filters out its
    on-path candidates, and filtering keeps the order of a sorted list.
    """
    candidates = instance.network.candidates
    ledger = Ledger(instance, paths)

    hosts: dict[tuple[str, int], str] = {}
    unplaced: list[tuple[str, int, str]] = []
    by_distance: dict[str, list[str]] = {}  # anchor head -> fallback order
    for req in instance.requests:
        s_star = min(sorted(req.heads), key=lambda s: (paths.cost(s, target), s))
        on_path = [n for n in paths.sequence(s_star, target) if n in candidates]
        pending = {l: nf for l, nf in enumerate(req.chain, start=1)}
        m = s_star
        # Primary pass over the on-path candidates, then one rescan over the
        # list extended with the remaining candidates (the anchor m moves as
        # functions are hosted, so a rescan can succeed where the first pass
        # failed on a flow check). The rescan list is built only when needed.
        for scan in (on_path, None):
            if scan is None:
                order = by_distance.get(s_star)
                if order is None:
                    order = by_distance[s_star] = sorted(
                        candidates, key=lambda k: (paths.cost(s_star, k), k))
                on_set = set(on_path)
                scan = on_path + [k for k in order if k not in on_set]
            for k in scan:
                if not pending:
                    break
                # pending holds positions in ascending order and only shrinks
                for l in tuple(pending):
                    nf = pending[l]
                    if not ledger.can_host(nf, k):
                        continue
                    segment = ledger.segment(m, k, req.flow_rate_mbps)
                    if not ledger.fits(segment):
                        continue
                    ledger.charge(segment)
                    ledger.host(req.id, nf, k)
                    hosts[(req.id, l)] = k
                    del pending[l]
                    m = k
            if not pending:
                break
        unplaced.extend((req.id, l, nf) for l, nf in pending.items())

    return _solve_result(instance, paths, hosts, tuple(unplaced))


def ppcc(instance: ProblemInstance, paths: PathTable) -> SolveResult:
    """Probability-prior greedy placement.

    The target is the highest-probability evaluation destination (the
    attachment node competes at the stay probability; ties go to the
    smallest node id). Deterministic given the instance.
    """
    weights = instance.destination_weights
    best = max(weights.values())
    target = min(d for d, w in weights.items() if w == best)
    return _greedy_chain_fill(instance, paths, target)


def spba(instance: ProblemInstance, paths: PathTable) -> SolveResult:
    """Shortest-path-based allocation, oblivious to mobility.

    Identical greedy machinery to :func:`ppcc` but always targets the
    current serving attachment node, never reading the handover
    probabilities. With no mobility (stay probability 1) its decisions
    coincide with PPCC's and the relative gain is zero.
    """
    return _greedy_chain_fill(instance, paths, instance.network.attachment)


def agw(instance: ProblemInstance, paths: PathTable) -> SolveResult:
    """Everything at the gateway.

    Hosts every function of every request at the network gateway with no
    capacity accounting (the gateway is modeled as unlimited), so it always
    returns a fully placed solution.
    """
    g = instance.network.gateway
    hosts = {
        (req.id, l): g
        for req in instance.requests
        for l in range(1, len(req.chain) + 1)
    }
    return _solve_result(instance, paths, hosts)
