"""Reference exact search: the prefix-by-prefix branch and bound.

A verbatim copy of `_Var`, `_variables`, `_hop_minimum`, `_SearchState` and
`solve_exact` as `pccplace.exact` had them before leaf totals came from
running sums per complete chain and child bounds from cached rows: each
leaf is priced by `cost_of_routes` over every chain. The only additions are
two counters, marked "# counter", that `solve_exact` returns beside its
result: nodes expanded and leaves evaluated. The parts of `Ledger` that the
search calls (`__init__`, `visit`, `can_host`, `fits`, `_host`, `charge`,
`undo`) are copied, verbatim but for the docstrings, as
`pccplace.evaluation` had them while the ledger kept its own hostings, so
this search does not follow changes to the package's ledger API.
`tests/test_exact_differential.py` checks the package's search against this
one solve by solve and node by node.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from pccplace.evaluation import SolveResult, cost_of_routes, evaluate_cost
from pccplace.exact import ExactResult, SolveBudget
from pccplace.graph import PathTable, shortest_paths
from pccplace.model import ProblemInstance, ServiceRequest, build_placement_per_pair


class Ledger:
    def __init__(self, instance: ProblemInstance, paths: PathTable):
        network = instance.network
        self._instance, self._paths = instance, paths
        self._ids, self._index = network.node_ids, network.node_index
        self._n = len(self._ids)
        self._budgets = paths.bottleneck_list
        # (memory, cpu) capacity per int node id, None without an entry
        self._caps: list[tuple[float, float] | None] = [None] * self._n
        for k, cap in instance.node_resources.items():
            self._caps[self._index[k]] = cap.as_tuple()
        self._demand = {nf: dem.as_tuple() for nf, dem in instance.catalog.items()}
        self._dests = sorted(self._index[d] for d in instance.destination_weights)
        # (memory, cpu) per int node id with a capacity entry, else None
        self.load: list[tuple[float, float] | None] = [
            None if cap is None else (0.0, 0.0) for cap in self._caps]
        # the hostings charged so far; a dict, so that undo restores it as it
        # restores the loads
        self.hosted: dict[tuple[str, str, str], bool] = {}
        self.flows: tuple[dict[int, float], ...] = ({}, {}, {})  # 5b-5d, by pair code
        self._saved: list[tuple[object, object, object]] = []  # (table, key, old or None)
        self._marks: list[int] = []
        self._request: ServiceRequest | None = None  # the request `_terms` are of
        self._terms: tuple = ()

    def visit(self, req: ServiceRequest, l: int, node: str, head: str, dest: str,
              prevs: Iterable[str], hosting: bool) -> tuple:
        budgets, index, n = self._budgets, self._index, self._n
        k = index[node]
        head_flow, pair_flow, tail_flow = self.flows
        flows = []
        if l == 1:
            code = index[head] * n + k
            flows.append((head_flow, code, budgets[code]))
        for p in prevs:
            code = index[p] * n + k
            flows.append((pair_flow, code, budgets[code]))
        if l == len(req.chain):
            code = k * n + index[dest]
            flows.append((tail_flow, code, budgets[code]))
        nf = req.chain[l - 1]
        return ((req.id, nf, node) if hosting else None, nf, k,
                req.flow_rate_mbps, flows)

    def can_host(self, nf: str, node: int) -> bool:
        load = self.load[node]
        if load is None:
            return False
        cap, demand = self._caps[node], self._demand[nf]
        return load[0] + demand[0] <= cap[0] and load[1] + demand[1] <= cap[1]

    def fits(self, visit: tuple) -> bool:
        host, nf, node, rate, flows = visit
        if host is not None and host not in self.hosted and not self.can_host(nf, node):
            return False
        for table, pair, budget in flows:
            if table.get(pair, 0.0) + rate > budget:
                return False
        return True

    def _host(self, host: tuple[str, str, str], nf: str, node: int) -> None:
        if host not in self.hosted:
            self._saved.append((self.hosted, host, None))
            self.hosted[host] = True
            load = self.load[node]
            if load is not None:
                self._saved.append((self.load, node, load))
                demand = self._demand[nf]
                self.load[node] = (load[0] + demand[0], load[1] + demand[1])

    def charge(self, visit: tuple) -> None:
        host, nf, node, rate, flows = visit
        saved = self._saved
        self._marks.append(len(saved))
        if host is not None:
            self._host(host, nf, node)
        for table, pair, _ in flows:
            old = table.get(pair)
            saved.append((table, pair, old))
            table[pair] = rate if old is None else old + rate

    def undo(self) -> None:
        saved = self._saved
        for _ in range(len(saved) - self._marks.pop()):
            table, key, old = saved.pop()
            if old is None:
                del table[key]
            else:
                table[key] = old


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


class _SearchState:
    """Chain pins, bound terms and capacity loads of one prefix assignment.

    `assign` extends the prefix by the next variable in branch order and
    `undo` reverts the last one exactly, restoring saved values rather than
    subtracting, so `goto` moves between frontier nodes through their common
    prefix without float drift. The capacity loads are a :class:`Ledger`,
    charged one visit per variable in the checker's order. The bound of the
    prefix is its placement term plus, per chain, the weighted
    `_hop_minimum` over all hops with the chain's positions pinned; only the
    chain of the changed variable is recomputed, from a cache.
    """

    def __init__(self, instance: ProblemInstance, paths: PathTable,
                 variables: Sequence[_Var]):
        self.instance = instance
        self.paths = paths
        self.variables = variables
        self.candidates = sorted(instance.network.candidates)
        self.ledger = Ledger(instance, paths)
        # per variable: (previous chain pin,) -> its visit at each candidate
        self._visits: list[dict[tuple, dict[str, tuple]]] = [{} for _ in variables]
        self.assignment: list[str] = []
        self.placement_term = 0.0
        self.pins = [[None] * len(req.chain) for req, _, _ in instance.pair_order]
        self._term_cache: dict[tuple[int, tuple], float] = {}
        self.chain_terms = [self._chain_term(c) for c in range(len(self.pins))]
        self._journal: list[tuple[float, float]] = []

    def _chain_term(self, c: int) -> float:
        key = (c, tuple(self.pins[c]))
        term = self._term_cache.get(key)
        if term is None:
            _req, s, d = self.instance.pair_order[c]
            term = self.instance.destination_weights[d] * _hop_minimum(
                self.paths, s, d, self.pins[c], self.candidates, True)
            self._term_cache[key] = term
        return term

    def _next_visits(self) -> dict[str, tuple]:
        """The next variable's visit at each candidate, after its chain's pin."""
        var = self.variables[len(self.assignment)]
        prevs = (self.pins[var.chain][var.l - 2],) if var.l > 1 else ()
        cache = self._visits[len(self.assignment)]
        if prevs not in cache:
            cache[prevs] = {k: self.ledger.visit(var.req, var.l, k, var.s, var.d,
                                                 prevs, True)
                            for k in self.candidates}
        return cache[prevs]

    def bound(self) -> float:
        return self.placement_term + sum(self.chain_terms)

    def children(self) -> list[tuple[str, float]]:
        """(node, bound) for every feasible value of the next variable."""
        var = self.variables[len(self.assignment)]
        pins = self.pins[var.chain]
        others = sum(t for c, t in enumerate(self.chain_terms) if c != var.chain)
        fits = self.ledger.fits
        hosted = self.ledger.hosted
        out = []
        for k, visit in self._next_visits().items():
            if not fits(visit):
                continue
            pins[var.l - 1] = k
            term = self._chain_term(var.chain)
            pins[var.l - 1] = None
            placement_term = self.placement_term
            if visit[0] not in hosted:
                placement_term += self.instance.placing_cost(var.nf, k)
            out.append((k, placement_term + (others + term)))
        return out

    def leaf_total(self, k: str) -> float:
        """Objective total of the current prefix completed by `k`.

        The prefix must lack only the last variable. The total is
        :func:`cost_of_routes` of the completed state, which equals
        :func:`evaluate_cost` of the corresponding placement.
        """
        var = self.variables[len(self.assignment)]
        pins = self.pins[var.chain]
        pins[var.l - 1] = k
        hosted = self.ledger.hosted.keys() | {(var.req.id, var.nf, k)}
        total = cost_of_routes(self.instance, self.paths, hosted, self.pins).total
        pins[var.l - 1] = None
        return total

    def assign(self, k: str) -> None:
        var = self.variables[len(self.assignment)]
        visit = self._next_visits()[k]
        self._journal.append((self.placement_term, self.chain_terms[var.chain]))
        if visit[0] not in self.ledger.hosted:
            self.placement_term += self.instance.placing_cost(var.nf, k)
        self.ledger.charge(visit)
        self.pins[var.chain][var.l - 1] = k
        self.chain_terms[var.chain] = self._chain_term(var.chain)
        self.assignment.append(k)

    def undo(self) -> None:
        var = self.variables[len(self.assignment) - 1]
        self.assignment.pop()
        self.placement_term, self.chain_terms[var.chain] = self._journal.pop()
        self.pins[var.chain][var.l - 1] = None
        self.ledger.undo()

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


def solve_exact(
    instance: ProblemInstance,
    paths: PathTable | None = None,
    budget: SolveBudget | None = None,
) -> tuple[SolveResult, int, int]:  # counter
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

    Returns status "optimal" with the proven optimum, "infeasible" when the
    feasible set is empty, or "budget_exceeded" with the best incumbent
    found (if any) once the node or wall-time budget trips.
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
        return ExactResult(None, None, "infeasible"), 0, 0  # counter
    keys = [(v.req.id, v.s, v.d, v.l) for v in variables]
    state = _SearchState(instance, paths, variables)

    def result(assignment: Sequence[str], status: str) -> SolveResult:
        placement = build_placement_per_pair(instance, dict(zip(keys, assignment)))
        return ExactResult(placement, evaluate_cost(instance, placement, paths), status)

    # (total, assignment) of the best complete assignment so far. Complete
    # assignments are evaluated as they are generated, never queued.
    best: tuple[float, tuple[str, ...]] | None = None
    limit = math.inf  # nodes with a larger bound cannot win
    leaves = 0  # counter

    def offer(k: str) -> None:
        nonlocal best, limit
        nonlocal leaves  # counter
        leaves += 1  # counter
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
    expanded = 0
    while heap:
        bound, assignment = heapq.heappop(heap)
        if bound > limit:
            break  # the search is complete
        if expanded >= budget.max_nodes_expanded or (
                budget.wall_time_s is not None
                and time.perf_counter() - start > budget.wall_time_s):
            if best is None:
                return ExactResult(None, None, "budget_exceeded"), expanded, leaves  # counter
            return result(best[1], "budget_exceeded"), expanded, leaves  # counter
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
    if best is None:
        return ExactResult(None, None, "infeasible"), expanded, leaves  # counter
    return result(best[1], "optimal"), expanded, leaves  # counter

