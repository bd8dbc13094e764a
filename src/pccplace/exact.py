"""Exact solution of the placement integer program at desk scale.

The search assigns a hosting node to every (request, head, destination,
chain position) variable in a fixed lexicographic order and runs best-first
branch and bound with an admissible lower bound. It is intended for small
instances (|K| <= 6, |R| <= 3, chains up to 3, up to 2 heads and 2
evaluation destinations); anything larger should use the heuristics.

Search nodes are immutable records, built one from another, from which the
search expands any frontier entry without replaying the path to it, trading
memory for recomputation as best-first branch and bound does (Morrison,
Jacobson, Sauppe and Sewell, Discrete Optimization 19, 2016). Only the
capacity ledger, whose loads are running float sums, follows the record
the search expands.

Presolve: on an instance whose capacities provably cannot bind
(:func:`_capacities_cannot_bind`), the program is uncapacitated and the
search drops the 5a-5d accounting, as MIP presolve drops rows that no
point can violate (Achterberg et al., INFORMS J. Computing 32(2), 2020).
It then keeps no capacity ledger and never tests a visit against one.
Since every test it skips would pass, its results and statistics are those
of the ledger search.

Result: the search prices every leaf as it generates it, term by term as
:func:`evaluation.cost_of_routes` sums them, so the winning leaf's own
terms are the reported :class:`CostReport`, with no second pricing. The
placement is built from the winning assignment only when the result's
placement is first read, as the heuristics build theirs.

`export_lp` writes the fully linearized 0-1 program in LP text format with
a documented variable-naming contract so external MILP solvers can
cross-validate the optimum.
"""

from __future__ import annotations

import heapq
import itertools
import math
import string
import time
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .evaluation import (CostReport, Ledger, SolveResult, _placement_term,
                         cost_of_routes)
# Not called here: perfbench/tracing.py wraps `exact.evaluate_cost` by
# name, so the name stays bound until the benchmark change drops that patch.
from .evaluation import evaluate_cost  # noqa: F401
from .graph import PathTable, shortest_paths
from .model import (Placement, ProblemInstance, ServiceRequest,
                    build_placement_per_pair)


class ExportSizeError(ValueError):
    """The linearized model would exceed the variable-count threshold."""


EXPORT_VARIABLE_LIMIT = 1_000_000


@dataclass(frozen=True)
class SolveBudget:
    """Search budget; whichever limit trips first ends the search."""

    max_nodes_expanded: int = 10_000_000
    wall_time_s: float | None = 60.0


@dataclass(frozen=True)
class SearchStats:
    """How much search an exact solve did and why it stopped.

    `expanded` counts frontier nodes expanded (the budget's unit), `leaves`
    the complete assignments evaluated, the first incumbent's dive
    included. `stop` is "complete" when the search proved its answer,
    "node_budget" or "wall_time" when that budget ended it. `presolved`
    tells whether the capacity rows 5a-5d were presolved away, since no
    assignment could violate them (:func:`solve_exact`).
    """

    expanded: int
    leaves: int
    stop: str
    presolved: bool = False


def ExactResult(placement: Placement | None, cost: CostReport | None,
                status: str, stats: SearchStats | None = None) -> SolveResult:
    """A :class:`SolveResult` from a placement the caller has built already.

    A compatibility constructor for callers that hold a built placement;
    :func:`solve_exact` builds its own result, placement on first read. The
    builder hands back an equal copy of the placement (a partial, so the
    result pickles); no placement means no builder. The name is the result
    type's earlier one, which the benchmark's tests and two test modules
    still call with the first three arguments.
    """
    return SolveResult(None if placement is None else partial(replace, placement),
                       cost, status, stats=stats)


@dataclass(frozen=True)
class _Var:
    """One decision: which node hosts chain position `l` of `req` in a chain.

    `chain` indexes (req, head, destination) in the instance's `pair_order`
    and ``_SearchState.chains``; a variable holds no node id.
    """

    req: ServiceRequest
    l: int
    nf: str
    chain: int


def _variables(instance: ProblemInstance) -> list[_Var]:
    """Decision variables in branch order: request, position, head, destination."""
    out = []
    for req in instance.requests:
        chains = [c for c, (r, _, _) in enumerate(instance.pair_order) if r is req]
        for l, nf in enumerate(req.chain, start=1):
            out.extend(_Var(req, l, nf, c) for c in chains)
    return out


def _assignment_placement(instance: ProblemInstance, variables: Sequence[_Var],
                          assignment: Sequence[int]) -> Placement:
    """The placement of the int node ids `assignment` takes for `variables`,
    by this module's `build_placement_per_pair` attribute, looked up at the
    call, so that a wrapper set on the attribute sees the build."""
    order, ids = instance.pair_order, instance.network.node_ids
    return build_placement_per_pair(instance, {(v.req.id, *order[v.chain][1:], v.l): ids[k]
                                               for v, k in zip(variables, assignment)})


def _hop_minimum(costs: list[float], n: int, s: int, d: int, pins: Sequence[int | None],
                 candidates: Sequence[int], count_pinned: bool) -> float:
    """Least routing cost of the chain s -> pins -> d over its completions.

    Nodes are int node ids, and `costs` is :attr:`PathTable.cost_list`,
    read by pair code ``a * n + b``. `pins` holds the hosting node of each
    position, or None where the position is free to take any candidate.
    This is a min-plus dynamic program (Viterbi) over the layers of the
    chain, O(L * K^2). Hops whose two endpoints are fixed count only when
    `count_pinned` is set.
    """
    layer = {s: 0.0}
    prev_free = False
    for pin in pins:
        free = pin is None
        counted = count_pinned or free or prev_free
        nxt = {}
        for k in (candidates if free else (pin,)):
            if counted:
                nxt[k] = min(v + costs[a * n + k] for a, v in layer.items())
            else:
                nxt[k] = min(layer.values())
        layer, prev_free = nxt, free
    if count_pinned or prev_free:
        return min(v + costs[a * n + d] for a, v in layer.items())
    return min(layer.values())


def _extended(sums: tuple[float, float, float],
              terms: tuple[float, ...]) -> tuple[float, float, float]:
    """(head, chain, tail) running sums after one more complete chain.

    `terms` are the chain's weighted hop costs in route order: head hop,
    chain hops, tail hop. Each is added as :func:`cost_of_routes` adds it.
    """
    head, chain, tail = sums
    head += terms[0]
    for hop in terms[1:-1]:
        chain += hop
    return head, chain, tail + terms[-1]


# Relative margin of the capacity certificate, and the most charges one load
# may take for the margin to cover their rounding (see _capacities_cannot_bind).
_MARGIN = 2.0 ** -30
_MAX_CHARGES = 2 ** 20


def _capacities_cannot_bind(instance: ProblemInstance, paths: PathTable) -> bool:
    """Whether no 5a-5d row can bind, whatever the search assigns.

    Three conditions, all required:

    - every candidate has a `node_resources` entry, since
      :meth:`Ledger.can_host` refuses a node without one;
    - the sum of every (request, nf) demand fits every candidate's memory
      and cpu: a node's 5a load sums the demands of distinct hostings at
      it, a subset of those;
    - the worst per-pair flow W, the sum over requests of rate * |heads| *
      |destinations| * (L + 1), is at most the least finite budget in
      :attr:`PathTable.bottleneck_list`, which is at most any budget the
      search reads: a visit charges a (table, pair) at most once, and a
      request has |heads| * |destinations| * L visits.

    Margin. Each test compares fl(sum * (1 + 2**-30)) with a capacity, the
    sum taken left to right in float, and the certificate needs N, the sum
    of |heads| * |destinations| * (L + 1) over requests, to be at most
    2**20. N bounds the visits, so no load takes more than N charges, and
    each sum has at most N terms. Let u = 2**-53 and S be the exact sum a
    test bounds (total demand or W), so the exact sum of any load's charges
    is at most S. All terms are nonnegative, and a float add or product of
    them rounds by at most a factor 1 +- u. A load, the running sum of at
    most N charges from 0.0, is then at most S * (1 + u)**N < S * (1 +
    2**-32). The test's sum, after a rounding per rate * count product and
    per add, is at least S * (1 - u)**N >= S * (1 - 2**-33), so the scaled
    value, rounded once more, is at least S * (1 - 2**-33) * (1 + 2**-30) *
    (1 - u) > S * (1 + 2**-31). If that value is subnormal, S is too, every
    add and product on both sides is exact, and a load is at most S while
    the value is at least S. Either way a capacity the test passes holds
    every load, so :meth:`Ledger.fits` could only return True. A negative
    or NaN demand or rate refuses the certificate.
    """
    resources = instance.node_resources
    caps = []
    for k in instance.network.candidates:
        cap = resources.get(k)
        if cap is None:
            return False
        caps.append(cap)
    n_dests = len(instance.destination_weights)
    memory_mb = cpu_cores = flow = 0.0
    charges = 0
    for req in instance.requests:
        if not req.flow_rate_mbps >= 0:
            return False
        count = len(req.heads) * n_dests * (len(req.chain) + 1)
        charges += count
        flow += req.flow_rate_mbps * count
        for nf in req.chain:
            demand = instance.catalog[nf]
            if not (demand.memory_mb >= 0 and demand.cpu_cores >= 0):
                return False
            memory_mb += demand.memory_mb
            cpu_cores += demand.cpu_cores
    if charges > _MAX_CHARGES:
        return False
    scale = 1.0 + _MARGIN
    memory_mb, cpu_cores = memory_mb * scale, cpu_cores * scale
    if not all(memory_mb <= cap.memory_mb and cpu_cores <= cap.cpu_cores for cap in caps):
        return False
    least = min((b for b in paths.bottleneck_list if b < math.inf), default=math.inf)
    return flow * scale <= least


class _SearchState:
    """The search's records and what they share: chain tries and the ledger.

    Records: a prefix assignment is an immutable tuple (parent, node, depth,
    at, sums, placement_term, hosted, charge): the record one variable
    shorter and the int node id this one assigns (None at `root`); the
    prefix's length; per chain of `pair_order`, its trie node under its
    pins; the (head, chain, tail) running sums of the complete chains; the
    prefix's (request, nf, node) hostings, None where nothing reads them,
    and their placing cost; and the (visit, opens a hosting) the ledger
    charges for `node`, None when presolved. :meth:`child` builds a record
    from its parent's; :meth:`children`, :meth:`leaf_terms` and
    :meth:`bound` read a record alone. Each value is computed once, by the
    float operations, on the operands and in the order of a walk that
    assigns and undoes variables one at a time, so every bound, child bound
    and leaf total is that walk's bit for bit, and the heap order and the
    tie policy do not depend on the path the search took to a record.

    Chain tries: a variable's children depend on the prefix only through
    its own chain's pins (its visit on the previous pin, its chain term on
    all of them) and through the loads and hostings. A chain's trie node is
    [row or None, pins, term, hops]: its pins (None where free), its
    weighted `_hop_minimum` under them (for pins without a free position,
    its one route's hop sum, added in the same order), which the bound sums
    with the placement term, and, once pinned throughout, its weighted hop
    costs in route order. The row of the chain's next variable is built on
    first use: per candidate in sorted order, its hosting key, its visit
    (None when presolved), its placing cost and its trie node.

    Ledger replay: a running float sum cannot ride on a record, so only the
    capacity :class:`Ledger`, charged one visit per variable in the
    checker's order, follows the records. `_charged` lists the (record, undo
    record) of each charge it holds, and :meth:`children` undoes those off
    the record's path, newest first, then charges the rest of the path in
    path order. Undo restores saved loads rather than subtracting, so the
    loads are those of charging the path from nothing.

    Hostings: a variable whose hosting is not in its parent's opens one: it
    adds the placing cost and charges the node demand (its visit marked
    new). Without a ledger and placing costs nothing reads hostings, and a
    record carries none. Presolve: where :func:`_capacities_cannot_bind`
    holds (`presolved`), :meth:`Ledger.fits` could only return True, so
    there is no ledger, and every child list, bound and leaf total is the
    ledger search's, bit for bit.

    Leaf prefix: branch order completes the chains in `pair_order` order,
    and its last variable is the last position of the last chain. So the
    running sums of :func:`cost_of_routes`, which sums each family over the
    chains in `pair_order`, extend the previous complete chain's by this
    chain's hops (`_extended`), and a leaf extends its parent's.

    Ids: candidates, pins, rows and assignments hold int node ids
    (:attr:`EdgeNetwork.node_index`). Int order is id order, so assignment
    vectors, heap entries and the dive's (bound, node) minimum compare as on
    node ids, and :func:`solve_exact`'s tie policy holds. Hosting keys keep
    node ids, so :func:`_placement_term` sums them in sorted id order.
    """

    def __init__(self, instance: ProblemInstance, paths: PathTable,
                 variables: Sequence[_Var]):
        network = instance.network
        index, weights = network.node_index, instance.destination_weights
        self.instance = instance
        self.variables = variables
        self.ids = network.node_ids
        self.costs, self.n = paths.cost_list, len(self.ids)
        self.candidates = sorted(index[k] for k in network.candidates)
        # (head, destination, weight) per chain of pair_order
        self.chains = [(index[s], index[d], weights[d]) for _, s, d in instance.pair_order]
        self.presolved = _capacities_cannot_bind(instance, paths)
        self.ledger = None if self.presolved else Ledger(instance, paths)
        self._charged: list[tuple[tuple, list]] = []
        tries = tuple(self._trie_node(c, (None,) * len(req.chain))
                      for c, (req, _, _) in enumerate(instance.pair_order))
        hosted = (frozenset() if self.ledger is not None or instance.placement_cost
                  else None)
        self.root = (None, None, 0, tries, (0.0, 0.0, 0.0), 0.0, hosted, None)

    def _trie_node(self, c: int, pins: tuple[int | None, ...]) -> list:
        (s, d, w), costs, n = self.chains[c], self.costs, self.n
        if None in pins:
            term = _hop_minimum(costs, n, s, d, pins, self.candidates, True)
            return [None, pins, w * term, None]
        # one route: the sum that _hop_minimum's one-entry layers add up
        nodes = (s, *pins, d)
        hops = [costs[a * n + b] for a, b in zip(nodes, nodes[1:])]
        total = 0.0
        for hop in hops:
            total += hop
        return [None, pins, w * total, tuple(w * hop for hop in hops)]

    def _row(self, record: tuple) -> dict[int, tuple]:
        """The row of the variable after `record`, under its chain's pins."""
        var = self.variables[record[2]]
        node = record[3][var.chain]
        row = node[0]
        if row is None:
            s, d, _ = self.chains[var.chain]
            ids, ledger = self.ids, self.ledger
            pins, i = node[1], var.l - 1
            prevs = (pins[i - 1],) if i else ()
            row = node[0] = {}
            for k in self.candidates:
                visit = None if ledger is None else ledger.visit(
                    var.req, var.l, k, (s,), (d,), prevs)
                row[k] = ((var.req.id, var.nf, ids[k]), visit,
                          self.instance.placing_cost(var.nf, ids[k]),
                          self._trie_node(var.chain, (*pins[:i], k, *pins[i + 1:])))
        return row

    def _reach(self, record: tuple) -> None:
        """Make the ledger's loads those of charging `record`'s path."""
        charged, path, depth = self._charged, [], record[2]
        # up to the deepest record of the path that the ledger has charged
        while depth > len(charged) or depth and charged[depth - 1][0] is not record:
            path.append(record)
            record, depth = record[0], depth - 1
        for _, saved in reversed(charged[depth:]):
            self.ledger.undo(saved)
        del charged[depth:]
        for record in reversed(path):
            charged.append((record, self.ledger.charge(*record[7])))

    def bound(self, record: tuple) -> float:
        terms = 0.0
        for node in record[3]:
            terms += node[2]
        return record[5] + terms

    def children(self, record: tuple) -> list[tuple[int, float]]:
        """(node, bound) for every feasible value of the variable after `record`."""
        _, _, depth, at, _, placement_term, hosted, _ = record
        c = self.variables[depth].chain
        others = 0.0
        for node in at[:c]:
            others += node[2]
        for node in at[c + 1:]:
            others += node[2]
        fits = None
        if self.ledger is not None:
            self._reach(record)
            fits = self.ledger.fits
        row = at[c][0] or self._row(record)
        # a zero placing cost would add +0.0, which changes nothing
        return [(k, (placement_term + place if place and host not in hosted
                     else placement_term) + (others + node[2]))
                for k, (host, visit, place, node) in row.items()
                if fits is None or fits(visit, host not in hosted)]

    def child(self, record: tuple, k: int) -> tuple:
        """The record of `record`'s prefix extended by `k`; :meth:`children`
        has built the row it reads."""
        _, _, depth, at, sums, placement_term, hosted, _ = record
        c = self.variables[depth].chain
        host, visit, place, node = at[c][0][k]
        new = hosted is not None and host not in hosted
        if new:
            hosted = hosted | {host}
            placement_term += place
        if node[3] is not None:  # the chain is complete
            sums = _extended(sums, node[3])
        return (record, k, depth + 1, at[:c] + (node,) + at[c + 1:], sums, placement_term,
                hosted, None if visit is None else (visit, new))

    def leaf_terms(self, record: tuple, k: int) -> tuple[float, float, float, float]:
        """(placement, head, chain, tail) terms of `record`'s prefix
        completed by `k`.

        The prefix must lack only the last variable, and :meth:`children`
        has built the row read. Each term is :func:`cost_of_routes`'s of the
        completed state, bit for bit, whose penalty term is +0.0.
        """
        host, _, _, node = record[3][self.variables[record[2]].chain][0][k]
        head, chain, tail = _extended(record[4], node[3])
        placement = 0.0
        if self.instance.placement_cost:  # otherwise every placing cost is zero
            placement = _placement_term(self.instance, record[6] | {host})
        return placement, head, chain, tail

    def leaf_total(self, record: tuple, k: int) -> float:
        """Objective total of `record`'s prefix completed by `k`: the sum of
        its :meth:`leaf_terms`, which is :func:`cost_of_routes`'s total, bit
        for bit, since adding the penalty term's +0.0 changes nothing."""
        placement, head, chain, tail = self.leaf_terms(record, k)
        return placement + head + chain + tail


def lower_bound(
    instance: ProblemInstance,
    paths: PathTable,
    partial: Mapping[tuple[str, str, str, int], str],
) -> float:
    """Admissible lower bound on the best completion of `partial`.

    `partial` maps (request id, head, destination, position) to a hosting
    node. The bound is the committed cost, summed as the objective sums it
    (placement cost of the hosted set plus every hop whose two endpoints are
    determined), plus a relaxation: for each (request, head, destination)
    chain, the weighted least cost of the hops that have a free endpoint,
    found by a min-plus dynamic program (Viterbi) over the candidate layers
    with the assigned positions pinned. The relaxation ignores capacities
    and the placement cost of free positions, so it is admissible; with zero
    placement costs and capacities that cannot bind it is exact. Fully
    assigned input yields exactly the evaluated total, since every
    relaxation term is then zero; pinning a position never lowers the bound
    in exact arithmetic. An instance with no candidate node has no feasible
    point, so its bound is ``math.inf``. A key that names no variable (an
    unknown request, head or destination, or a position past the chain) is
    a KeyError naming the least such key, raised before any pricing.
    """
    unknown = partial.keys() - {(req.id, s, d, l) for req, s, d in instance.pair_order
                                for l in range(1, len(req.chain) + 1)}
    if unknown:
        raise KeyError(min(unknown))
    weights, index = instance.destination_weights, instance.network.node_index
    if not instance.network.candidates:
        return math.inf
    # int ids of the table's nodes: any other node is a KeyError, as in cost()
    at = {k: index[k] for k in paths.relevant}
    candidates = sorted(at[k] for k in instance.network.candidates)
    routes = [[partial.get((req.id, s, d, l)) for l in range(1, len(req.chain) + 1)]
              for req, s, d in instance.pair_order]
    hosted = {(req.id, nf, k)
              for (req, _, _), nodes in zip(instance.pair_order, routes)
              for nf, k in zip(req.chain, nodes) if k is not None}
    committed = cost_of_routes(instance, paths, hosted, routes).total
    relax_term = 0.0
    for (req, s, d), nodes in zip(instance.pair_order, routes):
        pins = [None if k is None else at[k] for k in nodes]
        relax_term += weights[d] * _hop_minimum(paths.cost_list, len(index), at[s], at[d],
                                                pins, candidates, False)
    return committed + relax_term


def solve_exact(
    instance: ProblemInstance,
    paths: PathTable | None = None,
    budget: SolveBudget | None = None,
) -> SolveResult:
    """Optimal placement by best-first branch and bound.

    Branching follows the fixed (request, position, head, destination)
    variable order, trying candidate nodes in sorted order; the frontier is
    ordered by (lower bound, assignment vector), so the search is
    deterministic. A greedy dive along the least child bound supplies the
    first incumbent. A frontier entry is (bound, assignment, record), the
    :class:`_SearchState` record of its parent (the root's holds the root):
    the entry's own is built only if it is expanded. Assignments are unique,
    so records never enter a heap comparison. Presolved and ledger searches
    share this loop: a ledger search's loads follow the record it expands.

    Tie policy: the result is bit-identical to exhaustive enumeration. Its
    total is the least float objective total over all feasible assignments,
    each total equal to :func:`evaluate_cost`'s bit for bit, and among
    assignments with that total the lexicographically smallest assignment
    vector wins. Assignments that tie in real arithmetic can differ by a
    few ulp in float, so the search does not stop at the first complete
    solution: it evaluates every assignment whose bound lies within 1e-9
    relative of the best total found so far and compares them by their
    evaluated totals.

    The result's cost is the winning leaf's own terms
    (:meth:`_SearchState.leaf_terms`), every field :func:`evaluate_cost`'s
    on its placement bit for bit; the placement is built when the result's
    placement is first read.

    Presolve: at the root, :func:`_capacities_cannot_bind` certifies, with
    a relative margin of 2**-30 that covers the rounding of the ledger's
    running sums (the proof is in its docstring), that no assignment can
    violate a 5a-5d row. Where it holds, the search skips every
    :meth:`Ledger.fits` test and charge. A skipped test could only have
    passed, so the search expands the same nodes in the same order and
    evaluates the same leaves: status, cost, placement and statistics,
    budget stops and their incumbents included, equal the ledger search's.
    `stats.presolved` records which search ran.

    Returns status "optimal" with the proven optimum, "infeasible" when the
    feasible set is empty, or "budget_exceeded" with the best incumbent
    found (if any) once the node or wall-time budget trips; the result's
    `stats` is a :class:`SearchStats`.
    """
    if paths is None:
        paths = shortest_paths(instance.network, instance.relevant_nodes)
    if budget is None:
        budget = SolveBudget()

    variables = _variables(instance)
    nvars = len(variables)
    if nvars == 0:
        raise ValueError("instance has no chain positions to place")
    if not instance.network.candidates:
        return SolveResult(None, None, "infeasible", stats=SearchStats(0, 0, "complete"))
    state = _SearchState(instance, paths, variables)
    expanded = leaves = 0

    def result(status: str, stop: str) -> SolveResult:
        stats = SearchStats(expanded, leaves, stop, presolved=state.presolved)
        if best is None:
            return SolveResult(None, None, status, stats=stats)
        cost = CostReport.from_terms(*state.leaf_terms(*best[2:]))
        build = partial(_assignment_placement, instance, variables, best[1])
        return SolveResult(build, cost, status, stats=stats)

    # (total, assignment, record, node) of the best complete assignment so
    # far: `record` is its last variable's parent record and `node` the int
    # node id that variable takes. Complete assignments are evaluated as
    # they are generated, never queued; assignments are unique, so no
    # comparison reaches the record.
    best: tuple[float, tuple[int, ...], tuple, int] | None = None
    limit = math.inf  # nodes with a larger bound cannot win

    def offer(record: tuple, assignment: tuple[int, ...], k: int) -> None:
        nonlocal best, limit, leaves
        leaves += 1
        candidate = (state.leaf_total(record, k), (*assignment, k), record, k)
        if best is None or candidate < best:
            best = candidate
            limit = best[0] + 1e-9 * max(1.0, abs(best[0]))

    # Greedy dive along the least child bound for a first incumbent, so a
    # budget-limited run can still return a feasible point.
    record, assignment = state.root, ()
    while children := state.children(record):
        k = min(children, key=lambda kb: (kb[1], kb[0]))[0]
        if len(assignment) == nvars - 1:
            offer(record, assignment, k)
            break
        record, assignment = state.child(record, k), (*assignment, k)

    start = time.perf_counter()
    # (bound, assignment, the parent's record, or the root's at the root)
    heap: list[tuple[float, tuple[int, ...], tuple]] = [
        (state.bound(state.root), (), state.root)]
    while heap:
        bound, assignment, record = heapq.heappop(heap)
        if bound > limit:
            break  # the search is complete
        if expanded >= budget.max_nodes_expanded:
            return result("budget_exceeded", "node_budget")
        if (budget.wall_time_s is not None
                and time.perf_counter() - start > budget.wall_time_s):
            return result("budget_exceeded", "wall_time")
        expanded += 1
        if assignment:
            record = state.child(record, assignment[-1])
        last = len(assignment) == nvars - 1
        for k, child_bound in state.children(record):
            if child_bound > limit:
                continue
            if last:
                offer(record, assignment, k)
            else:
                heapq.heappush(heap, (child_bound, assignment + (k,), record))
    return result("infeasible" if best is None else "optimal", "complete")


# ---------------------------------------------------------------------------
# LP export
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


_LP_ID_CHARS = frozenset(string.ascii_letters + string.digits + ".")


def export_lp(instance: ProblemInstance, paths: PathTable | None = None) -> str:
    """Emit the linearized 0-1 program in LP text format.

    Variable naming contract (raw ids joined by underscores):
      x_<request>_<nf>_<node>
      y_<request>_<nf>_<node>_<head>_<dest>
      z_<request>_<nf_i>_<nf_j>_<node_k>_<node_m>_<head>_<dest>

    Every request, NF, candidate, head and destination id must be non-empty
    and made of ASCII letters, digits and '.' only. So '_' only ever
    separates ids, each name is unique, and all are valid CPLEX LP names.

    y/z variables exist only for NFs in the request's chain; z only for
    consecutive chain pairs (all other product terms carry zero
    coefficients everywhere). Objective coefficients are merged per
    variable, so for single-NF chains the head and tail weights meet on one
    y variable. Zero coefficients are omitted. Capacity rows with infinite
    budgets are omitted: a 5a row for a node resource of infinite capacity,
    as a 5b-5d row for a pair of infinite bottleneck. Raises
    :class:`ExportSizeError` when the model would exceed 10^6 variables,
    and ValueError when it would have none (no candidate node or no
    request) or an id breaks the rule above, naming the id.
    """
    if paths is None:
        paths = shortest_paths(instance.network, instance.relevant_nodes)
    weights = instance.destination_weights
    candidates = sorted(instance.network.candidates)
    requests, order = instance.requests, instance.pair_order
    K = len(candidates)
    positions = [(r.id, nf) for r in requests for nf in r.chain]
    size = K * len(positions)
    for r, _, _ in order:
        size += len(r.chain) * K + (len(r.chain) - 1) * K * K
    if not size:
        raise ValueError("instance has no candidate node or no request, "
                         "so the program has no variables")
    if size > EXPORT_VARIABLE_LIMIT:
        raise ExportSizeError(
            f"model has {size} variables, over the "
            f"{EXPORT_VARIABLE_LIMIT} export threshold")
    for token in [*candidates, *weights,
                  *(t for r in requests for t in (r.id, *r.chain, *r.heads))]:
        if not token or not _LP_ID_CHARS.issuperset(token):
            raise ValueError(f"id {token!r} is not LP-safe "
                             f"(ASCII letters, digits and . only)")
    per_request = [(r, [(s, d) for _, s, d in group])
                   for r, group in itertools.groupby(order, key=itemgetter(0))]

    # every variable in Binaries order, to its merged objective coefficient
    var: dict[str, float] = {}
    for rid, nf in positions:
        for k in candidates:
            var[f"x_{rid}_{nf}_{k}"] = instance.placing_cost(nf, k)
    for r, pairs in per_request:
        for nf in r.chain:
            for k in candidates:
                var.update((f"y_{r.id}_{nf}_{k}_{s}_{d}", 0.0) for s, d in pairs)
    for r, s, d in order:
        w = weights[d]
        for k in candidates:
            var[f"y_{r.id}_{r.chain[0]}_{k}_{s}_{d}"] += w * paths.cost(s, k)
            var[f"y_{r.id}_{r.chain[-1]}_{k}_{s}_{d}"] += w * paths.cost(k, d)
        for i, j in zip(r.chain, r.chain[1:]):
            for k in candidates:
                for m in candidates:
                    var[f"z_{r.id}_{i}_{j}_{k}_{m}_{s}_{d}"] = w * paths.cost(k, m)

    objective = " + ".join(f"{_num(c)} {v}" for v, c in var.items() if c != 0.0)
    lines = ["Minimize", " obj: " + (objective or "0 " + next(iter(var))), "Subject To"]

    def row(name: str, op: str, rhs: float, terms: Iterable[str]) -> None:
        """Append the row unless its right-hand side is infinite or it has
        no terms; `terms` is only consumed for a finite right-hand side."""
        if not math.isinf(rhs) and (body := " + ".join(terms)):
            lines.append(f" {name}: {body} {op} {_num(rhs)}")

    # (5a) node capacity, one row per resource dimension
    demand = instance.catalog
    for k in candidates:
        cap = instance.node_resources.get(k)
        if cap is not None:
            row(f"cap_mem_{k}", "<=", cap.memory_mb,
                (f"{_num(demand[nf].memory_mb)} x_{rid}_{nf}_{k}" for rid, nf in positions))
            row(f"cap_cpu_{k}", "<=", cap.cpu_cores,
                (f"{_num(demand[nf].cpu_cores)} x_{rid}_{nf}_{k}" for rid, nf in positions))

    # (5b)-(5d) flow budgets; a term is prefix + node(s) + suffix
    head_terms: dict[str, list[tuple[str, str]]] = {}
    tail_terms: dict[str, list[tuple[str, str]]] = {}
    chain_terms: list[tuple[str, str]] = []
    for r, s, d in order:
        q = _num(r.flow_rate_mbps)
        head_terms.setdefault(s, []).append((f"{q} y_{r.id}_{r.chain[0]}_", f"_{s}_{d}"))
        tail_terms.setdefault(d, []).append((f"{q} y_{r.id}_{r.chain[-1]}_", f"_{s}_{d}"))
        chain_terms += [(f"{q} z_{r.id}_{i}_{j}_", f"_{s}_{d}")
                        for i, j in zip(r.chain, r.chain[1:])]
    # (5b) head-hop flow budgets per (head, node)
    for s in sorted(head_terms):
        for k in candidates:
            row(f"flow_head_{s}_{k}", "<=", paths.bottleneck(s, k),
                (p + k + t for p, t in head_terms[s]))
    # (5c) chain-hop flow budgets per ordered candidate pair, via z
    for k in candidates:
        for m in candidates:
            row(f"flow_chain_{k}_{m}", "<=", paths.bottleneck(k, m),
                (f"{p}{k}_{m}{t}" for p, t in chain_terms))
    # (5d) tail-hop flow budgets per (node, destination)
    for k in candidates:
        for d, terms in tail_terms.items():
            row(f"flow_tail_{k}_{d}", "<=", paths.bottleneck(k, d),
                (p + k + t for p, t in terms))

    # (5e) every chain position visited at least once
    for r, s, d in order:
        for l, nf in enumerate(r.chain, start=1):
            row(f"visit_{r.id}_{s}_{d}_{l}", ">=", 1,
                (f"y_{r.id}_{nf}_{k}_{s}_{d}" for k in candidates))

    # (5f) visits only where hosted
    for r, pairs in per_request:
        for nf in r.chain:
            for k in candidates:
                x = f"{r.id}_{nf}_{k}"
                lines += [f" link_{x}_{s}_{d}: y_{x}_{s}_{d} - x_{x} <= 0" for s, d in pairs]

    # (5g)-(5i) product-variable linking
    for r, s, d in order:
        for i, j in zip(r.chain, r.chain[1:]):
            for k in candidates:
                for m in candidates:
                    z = f"{r.id}_{i}_{j}_{k}_{m}_{s}_{d}"
                    y1, y2 = f"y_{r.id}_{i}_{k}_{s}_{d}", f"y_{r.id}_{j}_{m}_{s}_{d}"
                    lines += [f" prod_a_{z}: z_{z} - {y1} <= 0",
                              f" prod_b_{z}: z_{z} - {y2} <= 0",
                              f" prod_c_{z}: z_{z} - {y1} - {y2} >= -1"]

    lines.append("Binaries")
    lines += [f" {v}" for v in var]
    lines.append("End")
    return "\n".join(lines) + "\n"
