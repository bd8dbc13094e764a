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

When PPCC's target is the attachment, as it usually is, PPCC and SPBA fill
toward one target on one instance, so they return one shared result: the
fill runs once per distinct (instance, paths, target). The module keeps a
one-slot memo of the last fill that either asked for, holding weak
references to its instance, paths and result, and its target. A call hits
when it names the same target and the very same instance and paths
objects, and that result is still alive; instances and path tables are
never changed after they are built, so a hit equals a fresh fill in every
field. The memo pins nothing: once the caller drops the instance, the
paths or the result, the slot's references are dead and the next call
fills afresh. Nothing in it refers back to itself, so reference counting
frees a trial's objects with cyclic garbage collection off.

The fill is request by request, but where capacity does not bind, as in
the paper's sweeps, it would host each request's whole chain at the head it
anchors at. So it first charges the longest prefix of requests whose whole
chains fit at their anchors in one array pass over their routes
(:meth:`evaluation.Ledger.place_routes`), which leaves the ledger as the
request-by-request fill would, bit for bit, and runs that fill only from
the first request that does not fit. That fill tests and charges node
resources (5a) alone, position by position; the flow budgets (5b-5d) are
checked once, by the same array pass over the finished routes
(:meth:`evaluation.Ledger.fitting_prefix`). Where a flow would overflow,
the fill keeps the requests before it and resumes there, charging flows
position by position. `_greedy_chain_fill` says why all of this is exact.
Every result is priced from one int route per request
(:func:`_solve_result`), and its (request, position) -> node map is built
only when its placement is read.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from .evaluation import Ledger, SolveResult, cost_of_route_array
# Not called here: perfbench/tracing.py wraps `heuristics.evaluate_cost` by
# name, so the name stays bound until the benchmark drops that patch
# (ROADMAP item 4).
from .evaluation import evaluate_cost  # noqa: F401
from .graph import PathTable
from .model import Placement, ProblemInstance, build_placement


def _solve_result(instance: ProblemInstance, paths: PathTable, routes: np.ndarray,
                  unplaced: tuple[tuple[str, int, str], ...] = ()) -> SolveResult:
    """The cost of the int route array `routes`, and its placement as a
    builder that runs when the placement is first read.

    `routes` has a row per request and a column per position up to the
    longest chain: the int node id hosting the position, or -1 where it is
    unhosted or past the chain. Every chain of a request visits each
    position at the node hosting it, so the row serves each of its (head,
    destination) pairs. The report is :func:`evaluation.evaluate_cost`'s on
    the placement, bit for bit, as the :mod:`evaluation` module docstring
    argues.

    The builder is a :func:`functools.partial` of :func:`_route_placement`,
    so the result pickles.
    """
    cost = cost_of_route_array(instance, paths, routes)
    return SolveResult(partial(_route_placement, instance, routes), cost, "ok", unplaced)


def _route_placement(instance: ProblemInstance, routes: np.ndarray) -> Placement:
    """The placement of the int route array `routes`, by this module's
    `build_placement` attribute, looked up at the call, so that a wrapper
    set on the attribute sees the build."""
    ids = instance.network.node_ids
    return build_placement(instance, {
        (req.id, l): ids[k] for req, row in zip(instance.requests, routes.tolist())
        for l, k in enumerate(row, start=1) if k >= 0})


def _chain_routes(instance: ProblemInstance, nodes) -> np.ndarray:
    """The route array that hosts each request's whole chain at its node of
    `nodes` (one int node id per request, or one for all)."""
    lengths = np.array([len(req.chain) for req in instance.requests], dtype=np.intp)
    return np.where(np.arange(lengths.max()) < lengths[:, None], np.reshape(nodes, (-1, 1)), -1)


def _by_distance(paths: PathTable, head: int, candidates: np.ndarray) -> np.ndarray:
    """The int node ids `candidates`, given in ascending order, sorted by
    (cost from the int node id `head`, id): a stable sort of their costs
    keeps equal costs in id order."""
    return candidates[np.argsort(paths.cost_matrix[head, candidates], kind="stable")]


def _anchors(instance: ProblemInstance, paths: PathTable, target: int) -> list[int]:
    """Per request, the int id of its head at the least cost to the int node
    id `target`, ties to the smallest id.

    One gather of the target's cost column over each (request, head) of
    :attr:`model.ProblemInstance.pair_arrays`, whose heads are sorted within
    a request, then per request the first minimum: a stable sort by
    (request, cost) puts each request's anchor first in its run.
    """
    pairs = instance.pair_arrays
    step = len(instance.destination_weights)  # each head repeats per destination
    head, request = pairs.head[::step], pairs.request[::step]
    order = np.lexsort((paths.cost_matrix[head, target], request))
    first = np.flatnonzero(np.diff(request, prepend=-1))  # run starts, before and after
    if len(first) != len(instance.requests):
        raise ValueError("every request needs at least one head")
    return head[order[first]].tolist()


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
    them for every (head, destination) pair (:meth:`evaluation.Ledger.place`
    tests them). So the placement has no 5a-5d row. One pass suffices:
    loads only grow, and a position's charges only grow as its neighbours
    get hosted, so a (position, node) that failed once would fail again.
    Each node is visited once per request, so a request's positions on one
    node are hosted in chain order, as the ledger's float policy needs.
    Positions still unhosted are reported as unplaced and penalized in the
    cost report, which is computed from the hosts, one int route per
    request, as :func:`_solve_result` explains.

    Refusals are final. Node loads only grow within a run of the loop,
    which only ever adds demand (with `place`, only once the flows fit).
    So an (nf, node) pair that
    :meth:`evaluation.Ledger.can_host` refused is not tested again in a
    run of the loop, and a node that refuses something and is
    :meth:`evaluation.Ledger.full` (no NF of the catalog fits it) would
    refuse every later test. The scans skip such nodes, which leaves every
    decision as it was: once node capacity binds, most of a request's
    fallback tests would hit nodes with no room for anything.

    The scans run on int node ids, and so do the ledger calls: the anchor
    is the first of the sorted head ids at the least cost to the target,
    the on-path candidates come from the anchor's int predecessor walk, and
    no node id is looked up in the loop. The fallback order, all candidates
    by (distance from the anchor head, id), is sorted once per anchor head
    in a run (:func:`_by_distance`), and only for a request that the
    on-path candidates cannot fill. It is filtered again, without the nodes
    that have become full, whenever more nodes are full than when the
    anchor last used it; the request then filters out its on-path nodes.
    Filtering keeps the order of a sorted list.

    The prefix. Until the first request that does not fit whole at its
    anchor, the fill hosts every request's whole chain there, and
    :meth:`evaluation.Ledger.place_routes` charges all of those requests
    at once. Take a request whose anchor s* is a candidate with
    `node_resources`: s* is the first node of its route, so the on-path
    scan tests s* first, and before the first refusal no node is full and
    no (nf, node) refused. If every check passes at s*, the scan hosts all
    the positions there, in chain order, with no chain flow between them.
    Loads only grow, so every check of the first n requests passes exactly
    when the loads after hosting them whole at their anchors are within
    capacity; `place_routes` finds the longest such prefix and leaves the
    ledger as the `place` calls would. The prefix therefore ends at the
    first request that does not fit, or at the first anchor that is no
    candidate, whichever comes first. Its routes are its anchors, and the
    loop starts from it with nothing full or refused and no fallback order
    sorted, as it would have.

    Flows last. From the prefix on, the loop tests and charges 5a alone
    (:meth:`evaluation.Ledger.add_demand`), as if every flow fitted, and
    then :meth:`evaluation.Ledger.fitting_prefix` checks 5a-5d on the
    finished routes in one array pass, unless the prefix already covers
    every request. The two fills agree on every request that pass accepts:
    if the first p requests' flows fit when all of them are charged, every
    :meth:`evaluation.Ledger.place` call among them would have tested a
    running sum no larger, so would have passed, and with no flow refused
    the two fills test and charge the same 5a loads and make the same
    decisions. So where p covers the batch, as in every sweep the
    benchmark runs, the routes are the position-by-position fill's. Where p
    falls short, the fill resets: a fresh ledger charged with the first p
    routes (:meth:`evaluation.Ledger.place_routes`), which is the ledger
    that fill holds after p requests; later routes cleared; and the loop
    resumed from request p with flows charged by `place`, its caches of
    full nodes, refusals and fallback orders empty. Those caches only skip
    tests whose answer is known, so starting them empty changes no
    decision, and the ones the 5a-only run built may be wrong, since its
    loads after request p are not the resumed fill's.
    """
    ids, index = instance.network.node_ids, instance.network.node_index
    candidate = [False] * len(ids)
    for k in instance.network.candidates:
        candidate[index[k]] = True
    candidate_ids = np.flatnonzero(candidate)
    requests = instance.requests
    goal = index[target]
    anchors = _anchors(instance, paths, goal)
    routes = _chain_routes(instance, anchors)

    def fill(ledger: Ledger, start: int, flows: bool) -> list[tuple[int, int, str]]:
        """Fill requests `start` on into `routes` and `ledger`, charging
        their flows by :meth:`evaluation.Ledger.place` if `flows` is set;
        the (request index, position, nf) left unplaced."""
        unplaced: list[tuple[int, int, str]] = []
        full = [False] * len(ids)  # int node id -> no NF of the catalog fits
        n_full = 0
        fallback: dict[int, tuple[int, list[int]]] = {}  # anchor -> (n_full, order)
        refused: list[set[str]] = [set() for _ in ids]  # int node id -> NFs without room
        for r in range(start, len(requests)):
            req, s_star, row = requests[r], anchors[r], routes[r]
            route = paths.id_sequence(s_star, goal)
            on_path = [k for k in route if candidate[k] and not full[k]]
            pending = dict(enumerate(req.chain, start=1))
            at: list[int | None] = [None] * (len(req.chain) + 2)  # position -> int host id
            for scan in (on_path, None):
                if scan is None:
                    seen, order = fallback.get(s_star, (-1, None))
                    if order is None:
                        order = _by_distance(paths, s_star, candidate_ids).tolist()
                    if seen != n_full:
                        order = [k for k in order if not full[k]]
                    fallback[s_star] = (n_full, order)
                    on_set = set(route)
                    scan = (k for k in order if k not in on_set)
                for k in scan:
                    no_room = refused[k]
                    # pending holds positions in ascending order and only shrinks
                    for l in tuple(pending):
                        nf = pending[l]
                        if nf in no_room:
                            continue
                        if not ledger.can_host(nf, k):
                            no_room.add(nf)
                            if not full[k] and ledger.full(k):
                                full[k] = True
                                n_full += 1
                            continue
                        if not flows:
                            ledger.add_demand(nf, k)
                        elif not ledger.place(req, l, k, at[l - 1], at[l + 1]):
                            continue
                        at[l] = k
                        row[l - 1] = k
                        del pending[l]
                    if not pending:
                        break
                if not pending:
                    break
            unplaced.extend((r, l, nf) for l, nf in pending.items())
        return unplaced

    ledger = Ledger(instance, paths)
    # whole chains at their anchors, up to the first anchor that is no candidate
    whole = next((r for r, a in enumerate(anchors) if not candidate[a]), len(anchors))
    first = ledger.place_routes(routes[:whole])
    routes[first:] = -1  # the loop below hosts the rest
    unplaced = fill(ledger, first, flows=False)
    if first < len(requests):
        fits = ledger.fitting_prefix(routes)
        if fits < len(requests):
            ledger = Ledger(instance, paths)
            ledger.place_routes(routes[:fits])
            routes[fits:] = -1
            unplaced = [u for u in unplaced if u[0] < fits] + fill(ledger, fits, flows=True)
    return _solve_result(instance, paths, routes,
                         tuple((requests[r].id, l, nf) for r, l, nf in unplaced))


# The last fill `_shared_fill` ran: weak references to its instance, paths
# and result, and its target (see the module docstring).
_last_fill: tuple[weakref.ref, weakref.ref, str, weakref.ref] | None = None


def _shared_fill(instance: ProblemInstance, paths: PathTable, target: str) -> SolveResult:
    """``_greedy_chain_fill(instance, paths, target)``, or the very result of
    the last call here if it named the same target, instance and paths and
    that result is still alive."""
    global _last_fill
    if _last_fill is not None:
        instance_ref, paths_ref, last_target, result_ref = _last_fill
        if last_target == target and instance_ref() is instance and paths_ref() is paths:
            result = result_ref()
            if result is not None:
                return result
    result = _greedy_chain_fill(instance, paths, target)
    _last_fill = (weakref.ref(instance), weakref.ref(paths), target, weakref.ref(result))
    return result


def ppcc(instance: ProblemInstance, paths: PathTable) -> SolveResult:
    """Probability-prior greedy placement.

    The target is the highest-probability evaluation destination (the
    attachment node competes at the stay probability; ties go to the
    smallest node id). Deterministic given the instance. When the target is
    the attachment, the result is the one :func:`spba` returns for the same
    instance and paths objects while either caller still holds it (see the
    module docstring).
    """
    weights = instance.destination_weights
    best = max(weights.values())
    target = min(d for d, w in weights.items() if w == best)
    return _shared_fill(instance, paths, target)


def spba(instance: ProblemInstance, paths: PathTable) -> SolveResult:
    """Shortest-path-based allocation, oblivious to mobility.

    Identical greedy machinery to :func:`ppcc` but always targets the
    current serving attachment node, never reading the handover
    probabilities. With no mobility (stay probability 1) its decisions
    coincide with PPCC's and the relative gain is zero. When PPCC's target
    is the attachment, the two return one shared result, as :func:`ppcc`
    says.
    """
    return _shared_fill(instance, paths, instance.network.attachment)


def agw(instance: ProblemInstance, paths: PathTable) -> SolveResult:
    """Everything at the gateway.

    Hosts every function of every request at the network gateway with no
    capacity accounting (the gateway is modeled as unlimited), so it always
    returns a fully placed solution.
    """
    gateway = instance.network.node_index[instance.network.gateway]
    return _solve_result(instance, paths, _chain_routes(instance, gateway))
