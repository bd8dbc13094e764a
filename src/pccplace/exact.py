"""Exact solution of the placement integer program at desk scale.

The search assigns a hosting node to every (request, head, destination,
chain position) variable in a fixed lexicographic order and runs best-first
branch and bound with an admissible lower bound. It is intended for small
instances (|K| <= 6, |R| <= 3, chains up to 3, up to 2 heads and 2
evaluation destinations); anything larger should use the heuristics.

Presolve: on an instance whose capacities provably cannot bind
(:func:`_capacities_cannot_bind`), the program is uncapacitated and the
search drops the 5a-5d accounting, as MIP presolve drops rows that no
point can violate (Achterberg et al., INFORMS J. Computing 32(2), 2020).
It then keeps no capacity ledger and never tests a visit against one.
Since every test it skips would pass, its results and statistics are those
of the ledger search.

`export_lp` writes the fully linearized 0-1 program in LP text format with
a documented variable-naming contract so external MILP solvers can
cross-validate the optimum.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

from .evaluation import (CostReport, Ledger, SolveResult, _placement_term,
                         cost_of_routes, evaluate_cost)
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
    """The exact solver's result, from a placement it has built already.

    The solver needs its placement for :func:`evaluate_cost`, so the
    builder hands back an equal copy of it (a partial, so the result
    pickles); no placement means no builder. The name is the result type's
    earlier one, which the benchmark's tests still call with the first
    three arguments.
    """
    return SolveResult(None if placement is None else partial(replace, placement),
                       cost, status, stats=stats)


@dataclass(frozen=True)
class _Var:
    """One decision: which node hosts chain position `l` of `req` for (s, d).

    `chain` indexes (req, s, d) in the instance's `pair_order`.
    """

    req: ServiceRequest
    l: int
    s: str
    d: str
    nf: str
    chain: int


def _variables(instance: ProblemInstance) -> list[_Var]:
    """Decision variables in branch order: request, position, head, destination."""
    out = []
    for req in instance.requests:
        chains = [(c, s, d) for c, (r, s, d) in enumerate(instance.pair_order)
                  if r is req]
        for l, nf in enumerate(req.chain, start=1):
            for c, s, d in chains:
                out.append(_Var(req, l, s, d, nf, c))
    return out


def _hop_minimum(
    paths: PathTable,
    s: str,
    d: str,
    pins: Sequence[str | None],
    candidates: Sequence[str],
    count_pinned: bool,
) -> float:
    """Least routing cost of the chain s -> pins -> d over its completions.

    `pins` holds the hosting node of each position, or None where the
    position is free to take any candidate. This is a min-plus dynamic
    program (Viterbi) over the layers of the chain, O(L * K^2). Hops whose
    two endpoints are fixed count only when `count_pinned` is set.
    """
    layer = {s: 0.0}
    prev_free = False
    for pin in pins:
        free = pin is None
        counted = count_pinned or free or prev_free
        nxt = {}
        for k in (candidates if free else (pin,)):
            if counted:
                nxt[k] = min(v + paths.cost(a, k) for a, v in layer.items())
            else:
                nxt[k] = min(layer.values())
        layer, prev_free = nxt, free
    if count_pinned or prev_free:
        return min(v + paths.cost(a, d) for a, v in layer.items())
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
    """Chain pins, bound terms and capacity loads of one prefix assignment.

    `assign` extends the prefix by the next variable in branch order and
    `undo` reverts the last one exactly, restoring saved values rather than
    subtracting, so `goto` moves between frontier nodes through their common
    prefix without float drift. The capacity loads are a :class:`Ledger`,
    charged one visit per variable in the checker's order. The bound of the
    prefix is its placement term plus, per chain, the weighted
    `_hop_minimum` over all hops with the chain's positions pinned.

    Hostings: `hosted` holds the prefix's (request, nf, node) hostings, and
    the journal the one each variable added. A variable whose hosting is
    not in it opens one: it adds the placing cost and charges the node
    demand (its visit marked new). This is the same with or without a ledger.

    Presolve: where :func:`_capacities_cannot_bind` holds (`presolved`),
    :meth:`Ledger.fits` could only return True, so there is no ledger and no
    fits test. Every child list, bound and leaf total is then the ledger
    search's, bit for bit.

    Rows: a variable's children depend on the prefix only through its own
    chain's pins (its visit on the previous pin, its chain term on all of
    them) and through the loads and hostings, which `children` reads live.
    So each (variable index, pinned prefix of its chain) has one row, built
    on first use: per candidate in sorted order, its hosting key, its visit
    (None when presolved), its weighted chain term, its placing cost and,
    at the chain's last position, the chain's weighted hop costs.
    `children`, `assign` and `leaf_total` read it. A chain's rows form a
    trie, whose node is [row or None, {pin: child node}]; `_at` holds, per
    chain, the node of its next position under its current pins, which
    `assign` moves down by the new pin and `undo` restores.

    Leaf prefix: branch order completes the chains in `pair_order` order,
    and its last variable is the last position of the last chain. So when a
    chain completes, the chains before it are complete, and the running
    head, chain and tail sums of :func:`cost_of_routes`, which sums each
    family over the chains in `pair_order`, are the previous chain's sums
    extended by this chain's terms (`_extended`); `assign` pushes them. At a
    leaf's parent they cover every chain but the last, and a leaf extends
    them by the last chain's terms with its own node.
    """

    def __init__(self, instance: ProblemInstance, paths: PathTable,
                 variables: Sequence[_Var]):
        self.instance = instance
        self.paths = paths
        self.variables = variables
        self.candidates = sorted(instance.network.candidates)
        self.presolved = _capacities_cannot_bind(instance, paths)
        self.ledger = None if self.presolved else Ledger(instance, paths)
        self.hosted: set[tuple[str, str, str]] = set()  # the prefix's hostings
        self.assignment: list[str] = []
        self.placement_term = 0.0
        self.pins = [[None] * len(req.chain) for req, _, _ in instance.pair_order]
        self.chain_terms = [self._chain_term(c) for c in range(len(self.pins))]
        self._at: list[list] = [[None, {}] for _ in self.pins]
        # per assigned variable: placement term, chain term and trie node
        # before it, and the hosting it added to `hosted`, if any
        self._journal: list[tuple[float, float, list, tuple | None]] = []
        # (head, chain, tail) sums after each complete chain, in pair_order
        self._sums: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)]

    def _chain_term(self, c: int) -> float:
        _req, s, d = self.instance.pair_order[c]
        return self.instance.destination_weights[d] * _hop_minimum(
            self.paths, s, d, self.pins[c], self.candidates, True)

    def _row(self) -> dict[str, tuple]:
        """The next variable's row, for the current pins of its chain."""
        var = self.variables[len(self.assignment)]
        node = self._at[var.chain]
        row = node[0]
        if row is None:
            w = self.instance.destination_weights[var.d]
            cost = self.paths.cost
            pins = self.pins[var.chain]
            ledger = self.ledger
            if ledger is not None:  # the visit's pair and previous pin, by int id
                index = self.instance.network.node_index
                head, dest = (index[var.s],), (index[var.d],)
                prevs = (index[pins[var.l - 2]],) if var.l > 1 else ()
            row = node[0] = {}
            for k in self.candidates:
                visit = None if ledger is None else ledger.visit(
                    var.req, var.l, index[k], head, dest, prevs)
                pins[var.l - 1] = k
                terms = None
                if var.l == len(pins):
                    nodes = (var.s, *pins, var.d)
                    terms = tuple(w * cost(a, b) for a, b in zip(nodes, nodes[1:]))
                row[k] = ((var.req.id, var.nf, k), visit, self._chain_term(var.chain),
                          self.instance.placing_cost(var.nf, k), terms)
            pins[var.l - 1] = None
        return row

    def bound(self) -> float:
        terms = 0.0
        for term in self.chain_terms:
            terms += term
        return self.placement_term + terms

    def children(self) -> list[tuple[str, float]]:
        """(node, bound) for every feasible value of the next variable."""
        var = self.variables[len(self.assignment)]
        others = 0.0
        for c, term in enumerate(self.chain_terms):
            if c != var.chain:
                others += term
        fits = None if self.ledger is None else self.ledger.fits
        hosted = self.hosted
        placement_term = self.placement_term
        out = []
        for k, (host, visit, term, place, _) in self._row().items():
            if fits is None or fits(visit, host not in hosted):
                # a zero placing cost would add +0.0, which changes nothing
                charged = (placement_term + place if place and host not in hosted
                           else placement_term)
                out.append((k, charged + (others + term)))
        return out

    def leaf_total(self, k: str) -> float:
        """Objective total of the current prefix completed by `k`.

        The prefix must lack only the last variable. The total is
        :func:`cost_of_routes` of the completed state, bit for bit, which
        equals :func:`evaluate_cost` of the corresponding placement.
        """
        host, _, _, _, terms = self._row()[k]
        head, chain, tail = _extended(self._sums[-1], terms)
        placement = 0.0
        if self.instance.placement_cost:  # otherwise every placing cost is zero
            placement = _placement_term(self.instance, self.hosted | {host})
        # cost_of_routes adds a penalty term of +0.0, which changes nothing
        return placement + head + chain + tail

    def assign(self, k: str) -> None:
        var = self.variables[len(self.assignment)]
        host, visit, term, place, terms = self._row()[k]
        c = var.chain
        node = self._at[c]
        new = host not in self.hosted
        self._journal.append((self.placement_term, self.chain_terms[c], node,
                              host if new else None))
        if new:
            self.hosted.add(host)
            self.placement_term += place  # +0.0 where placing is free: no change
        if self.ledger is not None:
            self.ledger.charge(visit, new)
        self.pins[c][var.l - 1] = k
        self.chain_terms[c] = term
        if terms is not None:
            self._sums.append(_extended(self._sums[-1], terms))
        else:
            kids = node[1]
            child = kids.get(k)
            if child is None:
                child = kids[k] = [None, {}]
            self._at[c] = child
        self.assignment.append(k)

    def undo(self) -> None:
        var = self.variables[len(self.assignment) - 1]
        c = var.chain
        self.assignment.pop()
        self.placement_term, self.chain_terms[c], self._at[c], added = self._journal.pop()
        self.pins[c][var.l - 1] = None
        if var.l == len(var.req.chain):
            self._sums.pop()
        if self.ledger is not None:
            self.ledger.undo()
        if added is not None:
            self.hosted.remove(added)

    def goto(self, assignment: Sequence[str]) -> None:
        """Make `assignment` the current prefix via the common prefix."""
        common = 0
        for have, want in zip(self.assignment, assignment):
            if have != want:
                break
            common += 1
        while len(self.assignment) > common:
            self.undo()
        for k in assignment[common:]:
            self.assign(k)


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
    point, so its bound is ``math.inf``.
    """
    weights = instance.destination_weights
    candidates = sorted(instance.network.candidates)
    if not candidates:
        return math.inf
    routes = [[partial.get((req.id, s, d, l)) for l in range(1, len(req.chain) + 1)]
              for req, s, d in instance.pair_order]
    hosted = {(req.id, nf, k)
              for (req, _, _), nodes in zip(instance.pair_order, routes)
              for nf, k in zip(req.chain, nodes) if k is not None}
    committed = cost_of_routes(instance, paths, hosted, routes).total
    relax_term = 0.0
    for (req, s, d), nodes in zip(instance.pair_order, routes):
        relax_term += weights[d] * _hop_minimum(paths, s, d, nodes, candidates, False)
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
    first incumbent.

    Tie policy: the result is bit-identical to exhaustive enumeration. Its
    total is the least float :func:`evaluate_cost` total over all feasible
    assignments, and among assignments with that total the
    lexicographically smallest assignment vector wins. Assignments that tie
    in real arithmetic can differ by a few ulp in float, so the search does
    not stop at the first complete solution: it evaluates every assignment
    whose bound lies within 1e-9 relative of the best total found so far and
    compares them by their evaluated totals.

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
        return ExactResult(None, None, "infeasible", SearchStats(0, 0, "complete"))
    keys = [(v.req.id, v.s, v.d, v.l) for v in variables]
    state = _SearchState(instance, paths, variables)
    expanded = leaves = 0

    def result(status: str, stop: str) -> SolveResult:
        stats = SearchStats(expanded, leaves, stop, presolved=state.presolved)
        if best is None:
            return ExactResult(None, None, status, stats)
        placement = build_placement_per_pair(instance, dict(zip(keys, best[1])))
        return ExactResult(placement, evaluate_cost(instance, placement, paths),
                           status, stats)

    # (total, assignment) of the best complete assignment so far. Complete
    # assignments are evaluated as they are generated, never queued.
    best: tuple[float, tuple[str, ...]] | None = None
    limit = math.inf  # nodes with a larger bound cannot win

    def offer(k: str) -> None:
        nonlocal best, limit, leaves
        leaves += 1
        candidate = (state.leaf_total(k), (*state.assignment, k))
        if best is None or candidate < best:
            best = candidate
            limit = best[0] + 1e-9 * max(1.0, abs(best[0]))

    # Greedy dive along the least child bound for a first incumbent, so a
    # budget-limited run can still return a feasible point.
    while children := state.children():
        k = min(children, key=lambda kb: (kb[1], kb[0]))[0]
        if len(state.assignment) == nvars - 1:
            offer(k)
            break
        state.assign(k)
    state.goto(())

    start = time.perf_counter()
    heap: list[tuple[float, tuple[str, ...]]] = [(state.bound(), ())]
    while heap:
        bound, assignment = heapq.heappop(heap)
        if bound > limit:
            break  # the search is complete
        if expanded >= budget.max_nodes_expanded:
            return result("budget_exceeded", "node_budget")
        if (budget.wall_time_s is not None
                and time.perf_counter() - start > budget.wall_time_s):
            return result("budget_exceeded", "wall_time")
        expanded += 1
        state.goto(assignment)
        last = len(assignment) == nvars - 1
        for k, child_bound in state.children():
            if child_bound > limit:
                continue
            if last:
                offer(k)
            else:
                heapq.heappush(heap, (child_bound, assignment + (k,)))
    return result("infeasible" if best is None else "optimal", "complete")


# ---------------------------------------------------------------------------
# LP export
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _sanitize(token: str) -> str:
    if not token or not all(c.isalnum() or c in "._-" for c in token):
        raise ValueError(f"id {token!r} is not LP-safe (alphanumeric ._- only)")
    return token


def export_lp(instance: ProblemInstance, paths: PathTable | None = None) -> str:
    """Emit the linearized 0-1 program in LP text format.

    Variable naming contract (raw ids joined by underscores):
      x_<request>_<nf>_<node>
      y_<request>_<nf>_<node>_<head>_<dest>
      z_<request>_<nf_i>_<nf_j>_<node_k>_<node_m>_<head>_<dest>

    y/z variables exist only for NFs in the request's chain; z only for
    consecutive chain pairs (all other product terms carry zero
    coefficients everywhere). Objective coefficients are merged per
    variable, so for single-NF chains the head and tail weights meet on one
    y variable. Zero coefficients are omitted. Capacity rows with infinite
    budgets are omitted: a 5a row for a node resource of infinite capacity,
    as a 5b-5d row for a pair of infinite bottleneck. Raises
    :class:`ExportSizeError` when the model would exceed 10^6 variables,
    and ValueError when the instance has no candidate node or an id is not
    LP-safe.
    """
    if paths is None:
        paths = shortest_paths(instance.network, instance.relevant_nodes)
    weights = instance.destination_weights
    dests = sorted(weights)
    candidates = sorted(instance.network.candidates)
    if not candidates:
        raise ValueError("instance has no candidate node, so the program has no variables")
    K = len(candidates)

    n_x = n_y = n_z = 0
    for req in instance.requests:
        L = len(req.chain)
        sd = len(req.heads) * len(dests)
        n_x += L * K
        n_y += L * K * sd
        n_z += max(0, L - 1) * K * K * sd
    if n_x + n_y + n_z > EXPORT_VARIABLE_LIMIT:
        raise ExportSizeError(
            f"model has {n_x + n_y + n_z} variables, over the "
            f"{EXPORT_VARIABLE_LIMIT} export threshold")

    def xname(r: str, i: str, k: str) -> str:
        return f"x_{_sanitize(r)}_{_sanitize(i)}_{_sanitize(k)}"

    def yname(r: str, i: str, k: str, s: str, d: str) -> str:
        return "_".join(["y", _sanitize(r), _sanitize(i), _sanitize(k),
                         _sanitize(s), _sanitize(d)])

    def zname(r: str, i: str, j: str, k: str, m: str, s: str, d: str) -> str:
        return "_".join(["z", _sanitize(r), _sanitize(i), _sanitize(j),
                         _sanitize(k), _sanitize(m), _sanitize(s), _sanitize(d)])

    x_vars: list[str] = []
    y_vars: list[str] = []
    z_vars: list[str] = []
    objective: dict[str, float] = {}

    for req in instance.requests:
        heads = sorted(req.heads)
        chain = req.chain
        for nf in chain:
            for k in candidates:
                name = xname(req.id, nf, k)
                x_vars.append(name)
                c = instance.placing_cost(nf, k)
                if c != 0.0:
                    objective[name] = objective.get(name, 0.0) + c
        for nf in chain:
            for k in candidates:
                for s in heads:
                    for d in dests:
                        y_vars.append(yname(req.id, nf, k, s, d))
        for s in heads:
            for d in dests:
                w = weights[d]
                for k in candidates:
                    name = yname(req.id, chain[0], k, s, d)
                    coef = w * paths.cost(s, k)
                    if coef != 0.0:
                        objective[name] = objective.get(name, 0.0) + coef
                    name = yname(req.id, chain[-1], k, s, d)
                    coef = w * paths.cost(k, d)
                    if coef != 0.0:
                        objective[name] = objective.get(name, 0.0) + coef
                for i, j in zip(chain, chain[1:]):
                    for k in candidates:
                        for m in candidates:
                            name = zname(req.id, i, j, k, m, s, d)
                            z_vars.append(name)
                            coef = w * paths.cost(k, m)
                            if coef != 0.0:
                                objective[name] = objective.get(name, 0.0) + coef

    lines: list[str] = []
    lines.append("Minimize")
    obj_terms = []
    for name in x_vars + y_vars + z_vars:
        if name in objective:
            obj_terms.append(f"{_num(objective[name])} {name}")
    lines.append(" obj: " + (" + ".join(obj_terms) if obj_terms else "0 " + x_vars[0]))
    lines.append("Subject To")

    def row(name: str, terms: list[str], op: str, rhs: float) -> None:
        lines.append(f" {name}: " + " + ".join(terms) + f" {op} {_num(rhs)}")

    # (5a) node capacity, one row per resource dimension
    for k in candidates:
        cap = instance.node_resources.get(k)
        if cap is None:
            continue
        mem_terms = []
        cpu_terms = []
        for req in instance.requests:
            for nf in req.chain:
                dem = instance.catalog[nf]
                mem_terms.append(f"{_num(dem.memory_mb)} {xname(req.id, nf, k)}")
                cpu_terms.append(f"{_num(dem.cpu_cores)} {xname(req.id, nf, k)}")
        if mem_terms and not math.isinf(cap.memory_mb):
            row(f"cap_mem_{k}", mem_terms, "<=", cap.memory_mb)
        if cpu_terms and not math.isinf(cap.cpu_cores):
            row(f"cap_cpu_{k}", cpu_terms, "<=", cap.cpu_cores)

    # (5b) head-hop flow budgets per (head, node)
    all_heads = sorted({s for req in instance.requests for s in req.heads})
    for s in all_heads:
        for k in candidates:
            budget = paths.bottleneck(s, k)
            if math.isinf(budget):
                continue
            terms = []
            for req in instance.requests:
                if s not in req.heads:
                    continue
                for d in dests:
                    terms.append(f"{_num(req.flow_rate_mbps)} "
                                 f"{yname(req.id, req.chain[0], k, s, d)}")
            if terms:
                row(f"flow_head_{s}_{k}", terms, "<=", budget)

    # (5c) chain-hop flow budgets per ordered candidate pair, via z
    for k in candidates:
        for m in candidates:
            budget = paths.bottleneck(k, m)
            if math.isinf(budget):
                continue
            terms = []
            for req in instance.requests:
                for s in sorted(req.heads):
                    for d in dests:
                        for i, j in zip(req.chain, req.chain[1:]):
                            terms.append(f"{_num(req.flow_rate_mbps)} "
                                         f"{zname(req.id, i, j, k, m, s, d)}")
            if terms:
                row(f"flow_chain_{k}_{m}", terms, "<=", budget)

    # (5d) tail-hop flow budgets per (node, destination)
    for k in candidates:
        for d in dests:
            budget = paths.bottleneck(k, d)
            if math.isinf(budget):
                continue
            terms = []
            for req in instance.requests:
                for s in sorted(req.heads):
                    terms.append(f"{_num(req.flow_rate_mbps)} "
                                 f"{yname(req.id, req.chain[-1], k, s, d)}")
            if terms:
                row(f"flow_tail_{k}_{d}", terms, "<=", budget)

    # (5e) every chain position visited at least once
    for req in instance.requests:
        for s in sorted(req.heads):
            for d in dests:
                for l, nf in enumerate(req.chain, start=1):
                    terms = [f"{yname(req.id, nf, k, s, d)}" for k in candidates]
                    row(f"visit_{req.id}_{s}_{d}_{l}", terms, ">=", 1)

    # (5f) visits only where hosted
    for req in instance.requests:
        for nf in req.chain:
            for k in candidates:
                for s in sorted(req.heads):
                    for d in dests:
                        lines.append(
                            f" link_{req.id}_{nf}_{k}_{s}_{d}: "
                            f"{yname(req.id, nf, k, s, d)} - {xname(req.id, nf, k)} <= 0")

    # (5g)-(5i) product-variable linking
    for req in instance.requests:
        for s in sorted(req.heads):
            for d in dests:
                for i, j in zip(req.chain, req.chain[1:]):
                    for k in candidates:
                        for m in candidates:
                            z = zname(req.id, i, j, k, m, s, d)
                            y1 = yname(req.id, i, k, s, d)
                            y2 = yname(req.id, j, m, s, d)
                            lines.append(f" prod_a_{z[2:]}: {z} - {y1} <= 0")
                            lines.append(f" prod_b_{z[2:]}: {z} - {y2} <= 0")
                            lines.append(f" prod_c_{z[2:]}: {z} - {y1} - {y2} >= -1")

    lines.append("Binaries")
    for name in x_vars + y_vars + z_vars:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
