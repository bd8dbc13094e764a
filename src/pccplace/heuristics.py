"""Greedy placement heuristics: PPCC and the AGW / SPBA baselines.

PPCC (probability-prior proactive caching-chaining) targets the most
probable destination, anchors each request at the cache head closest to
that target, and fills the chain greedily onto candidate nodes along the
head-to-target shortest path, respecting node resources and the paper's
per-pair flow budgets.

SPBA runs the same greedy machinery but is mobility-oblivious: it targets
the current serving attachment node and never consults the handover
probabilities. Its cost is still evaluated under the true mobility profile,
so it pays for ignoring movement. AGW parks every function at the network
gateway, whose capacity is treated as unlimited; it is the status-quo
anchor baseline.
"""

from __future__ import annotations

from functools import partial

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
    """The cost of `hosts`, from one route per request, and its placement
    as a builder that runs when the placement is first read.

    Every chain of a request visits each position at the node hosting it,
    so the route ``[hosts.get((r, l)) for l in 1..L]`` serves each of its
    (head, destination) pairs. The report is :func:`evaluation.evaluate_cost`'s
    on ``build_placement(instance, hosts)``, bit for bit: every host key
    comes from `instance.requests` and every node from the candidates or
    the gateway, so that placement passes the index check; its hosting set
    is the set of ``(r, chain[l - 1], k)`` built here from `hosts`, and
    :func:`cost_of_routes` sums it in sorted order whichever set it is
    given; and `validate_instance` rejects a function repeated within a
    chain, so each (request, head, destination, nf) has exactly one visit
    and the routes :func:`evaluation.evaluate_cost` derives from the visit
    plan are these, summed in the same `pair_order` order.

    The builder is a :func:`functools.partial` of this module's
    `build_placement` attribute, looked up now, so the result pickles and a
    wrapper set on the attribute sees the build.
    """
    route_of = {req.id: [hosts.get((req.id, l)) for l in range(1, len(req.chain) + 1)]
                for req in instance.requests}
    routes = [route_of[req.id] for req, _, _ in instance.pair_order]
    reqs = instance.request_map
    hosted = {(r, reqs[r].chain[l - 1], k) for (r, l), k in hosts.items()}
    cost = cost_of_routes(instance, paths, hosted, routes,
                          penalty_cost=unplaced_penalty(paths))
    return SolveResult(partial(build_placement, instance, hosts), cost, "ok", unplaced)


def _greedy_chain_fill(
    instance: ProblemInstance,
    paths: PathTable,
    target: str,
) -> SolveResult:
    """Shared greedy fill toward a fixed target node.

    For each request in batch order: pick the head closest to the target,
    walk the candidates on the head->target shortest path in path order,
    then all remaining candidates by distance from the head, and at each
    node host the not-yet-hosted chain positions in chain order wherever
    the node has room (:meth:`evaluation.Ledger.can_host`) and so do the
    request's 5b-5d flows as :func:`evaluation.check_constraints` charges
    them for every (head, destination) pair
    (:meth:`evaluation.Ledger.place`). So the placement has no 5a-5d row.
    One pass suffices: loads only grow, and a position's charges only grow
    as its neighbours get hosted, so a (position, node) that failed once
    would fail again. Each node is visited once per request, so a
    request's positions on one node are hosted in chain order, as
    :meth:`evaluation.Ledger.place`'s float policy needs. Positions still
    unhosted are reported as unplaced and penalized in the cost report,
    which is computed from the hosts as :func:`_solve_result` explains.

    The fallback order, all candidates by (distance from the anchor head,
    id), is sorted once per anchor head in a call, and only for a request
    that the on-path candidates cannot fill; the request filters out its
    on-path candidates, and filtering keeps the order of a sorted list.

    A (nf, node) pair that :meth:`evaluation.Ledger.can_host` refused is
    not tested again in the call: node loads here only grow, because
    :meth:`evaluation.Ledger.place` undoes only its own flow charges and
    charges the hosting demand only after every flow fits. So a refusal is
    final.
    """
    candidates = instance.network.candidates
    ledger = Ledger(instance, paths)

    hosts: dict[tuple[str, int], str] = {}
    unplaced: list[tuple[str, int, str]] = []
    by_distance: dict[str, list[str]] = {}  # anchor head -> fallback order
    refused: set[tuple[str, str]] = set()  # (nf, node) without room
    for req in instance.requests:
        s_star = min(sorted(req.heads), key=lambda s: (paths.cost(s, target), s))
        on_path = [n for n in paths.sequence(s_star, target) if n in candidates]
        pending = dict(enumerate(req.chain, start=1))
        at: list[str | None] = [None] * (len(req.chain) + 2)  # position -> host
        for scan in (on_path, None):
            if scan is None:
                order = by_distance.get(s_star)
                if order is None:
                    order = by_distance[s_star] = sorted(
                        candidates, key=lambda k: (paths.cost(s_star, k), k))
                on_set = set(on_path)
                scan = [k for k in order if k not in on_set]
            for k in scan:
                # pending holds positions in ascending order and only shrinks
                for l in tuple(pending):
                    nf = pending[l]
                    if (nf, k) in refused:
                        continue
                    if not ledger.can_host(nf, k):
                        refused.add((nf, k))
                    elif ledger.place(req, l, k, at[l - 1], at[l + 1]):
                        at[l] = hosts[(req.id, l)] = k
                        del pending[l]
                if not pending:
                    break
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
