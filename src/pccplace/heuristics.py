"""Greedy placement heuristics: PPCC and the AGW / SPBA baselines.

PPCC (probability-prior proactive caching-chaining) targets the most
probable destination, anchors each request at the cache head closest to
that target, and fills the chain greedily onto candidate nodes along the
head-to-target shortest path, respecting node resources and per-link
residual capacity.

SPBA runs the same greedy machinery but is mobility-oblivious: it targets
the current serving attachment node and never consults the handover
probabilities. Its cost is still evaluated under the true mobility profile,
so it pays for ignoring movement. AGW parks every function at the network
gateway, whose capacity is treated as unlimited; it is the status-quo
anchor baseline.
"""

from __future__ import annotations

from .evaluation import SolveResult, evaluate_cost
from .graph import PathTable, ResidualState, consume_flow, path_bottleneck
from .model import ProblemInstance, build_placement


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
    wherever node resources and the residual flow from the previous
    function's node both fit. Flow is committed per hosted hop on the
    traversed links; positions still unhosted after the fallback pass are
    reported as unplaced and penalized in the cost report.
    """
    network = instance.network
    candidates = network.candidates
    residual = ResidualState.from_network(
        network,
        {k: cap.as_tuple() for k, cap in instance.node_resources.items()})

    hosts: dict[tuple[str, int], str] = {}
    unplaced: list[tuple[str, int, str]] = []
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
                on_set = set(on_path)
                scan = on_path + sorted(
                    (k for k in candidates if k not in on_set),
                    key=lambda k: (paths.cost(s_star, k), k))
            for k in scan:
                for l in sorted(pending):
                    nf = pending[l]
                    demand = instance.catalog[nf].as_tuple()
                    if not residual.node_fits(k, demand):
                        continue
                    segment = paths.sequence(m, k)
                    if req.flow_rate_mbps > path_bottleneck(network, segment, residual):
                        continue
                    consume_flow(residual, network, segment, req.flow_rate_mbps)
                    residual.consume_node(k, demand)
                    hosts[(req.id, l)] = k
                    del pending[l]
                    m = k
            if not pending:
                break
        for l in sorted(pending):
            unplaced.append((req.id, l, pending[l]))

    placement = build_placement(instance, hosts)
    cost = evaluate_cost(instance, placement, paths)
    return SolveResult(placement, cost, "ok", tuple(unplaced))


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
    placement = build_placement(instance, hosts)
    cost = evaluate_cost(instance, placement, paths)
    return SolveResult(placement, cost, "ok")
