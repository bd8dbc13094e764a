"""Objective evaluation and constraint checking for placements.

The objective has four cost families: placing functions at nodes, routing
from the cache head to the first function, routing between consecutive
functions, and routing from the last function to each handover destination,
the three routing families weighted by the destination probabilities. A
fifth `penalty_term` (zero for fully placed solutions) charges positions a
heuristic failed to host, so partially placed batches remain comparable.
:func:`cost_of_routes` computes it from a hosting set and one route per
(request, head, destination) chain. :func:`evaluate_cost` derives those
routes from a placement's visit plan, after checking its indices; the exact
search and the greedy heuristics, which build their routes themselves, call
:func:`cost_of_routes` directly. The heuristics take the hosting set from
their per-position hosts too, so they cost a result without building its
placement; :class:`SolveResult` builds that on first read.

Capacity checking follows the paper's per-pair bottleneck semantics: each
(endpoint, endpoint) shortest path has an independent capacity budget,
aggregated over everything mapped to that pair. The loads of these families
(5a node resources, 5b-5d head, chain and tail flow) are kept by one
:class:`Ledger`. The exact search charges it visit by visit,
:func:`check_constraints` in batch, and the greedy fill position by position
(:meth:`Ledger.place`), each with the charges the checker makes, so what
either solver places has no 5a-5d row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .graph import PathTable
from .model import (Placement, ProblemInstance, ServiceRequest,
                    placement_index_violations)


class EvaluationError(ValueError):
    """Placement references indices unknown to the instance."""


class UndefinedGainError(ZeroDivisionError):
    """Relative gain against a zero-cost reference is undefined."""


@dataclass(frozen=True)
class CostReport:
    """Itemized objective value.

    `total` is exactly the sum of the five terms; `penalty_term` is zero
    whenever the placement hosts every chain position.
    """

    placement_term: float
    head_hop_term: float
    chain_hop_term: float
    tail_hop_term: float
    penalty_term: float
    total: float

    @classmethod
    def from_terms(cls, placement: float, head: float, chain: float,
                   tail: float, penalty: float = 0.0) -> "CostReport":
        return cls(placement, head, chain, tail, penalty,
                   placement + head + chain + tail + penalty)

    def to_dict(self) -> dict[str, float]:
        return {
            "placement_term": self.placement_term,
            "head_hop_term": self.head_hop_term,
            "chain_hop_term": self.chain_hop_term,
            "tail_hop_term": self.tail_hop_term,
            "penalty_term": self.penalty_term,
            "total": self.total,
        }


@dataclass(frozen=True)
class SolveResult:
    """What every placement algorithm returns.

    `status` is "ok" for a heuristic, and "optimal", "budget_exceeded" or
    "infeasible" for the exact solver, whose placement and cost are None
    when it has no feasible point. `unplaced` lists the (request id,
    position, nf id) chain positions a heuristic could not host.

    Stored are the cost, the status, the unplaced positions and `build`, a
    zero-argument callable that returns the placement, or None where the
    placement is None. :attr:`placement` calls `build` on its first read
    and keeps the result, so a caller that reads only totals and unplaced
    counts, as a sweep does, never builds a visit plan. Every solver's
    `build` is a :func:`functools.partial` of module-level functions, so a
    result pickles, read or not. Equality, hashing and repr cover the cost,
    status and unplaced positions only, never `build` or the placement.
    """

    build: Callable[[], Placement] | None = field(repr=False, compare=False)
    cost: CostReport | None
    status: str
    unplaced: tuple[tuple[str, int, str], ...] = ()

    @cached_property
    def placement(self) -> Placement | None:
        return None if self.build is None else self.build()

    @property
    def total(self) -> float | None:
        return None if self.cost is None else self.cost.total


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint row: family id, index tuple, and slack (< 0)."""

    constraint: str
    index: tuple
    slack: float


class Ledger:
    """The loads of capacity families 5a-5d.

    Families 5b-5d are bounded by per-pair bottleneck budgets. The exact
    search and :func:`check_constraints` charge visit by visit
    (:meth:`visit`, :meth:`fits`, :meth:`charge`); the greedy fill charges a
    position's visits for all its (head, destination) pairs at once
    (:meth:`place`).

    Float policy: a load is the running float sum of its charges, in the
    order they were charged; a hosting's demand is charged once, at the
    first charge naming its (request, nf, node). Demands and rates are
    positive, so charging visits one at a time under :meth:`fits` accepts
    exactly the loads that :meth:`violations` passes, bit for bit, when both
    charge in one order. :meth:`fits` tests each flow of a charge on its
    own, so a charge must name each (table, pair) at most once, as
    :meth:`visit` does for distinct `prevs`.
    :func:`check_constraints` charges in the exact search's variable order
    (request, position, head, destination), hosting demand at the first
    visit of each (request, nf, node), then the hostings with no visit in
    sorted order. Nothing is summed in set order. A node with no entry in
    `node_resources` has no 5a row (AGW's gateway is unlimited) and
    :meth:`can_host` refuses it, so solvers host only on nodes with declared
    resources.
    """

    def __init__(self, instance: ProblemInstance, paths: PathTable):
        self._paths = paths
        self._caps = {k: cap.as_tuple() for k, cap in instance.node_resources.items()}
        self._demand = {nf: dem.as_tuple() for nf, dem in instance.catalog.items()}
        self._dests = sorted(instance.destination_weights)
        # (memory, cpu) per node with a capacity entry
        self.load = dict.fromkeys(self._caps, (0.0, 0.0))
        # the hostings charged so far; a dict, so that undo restores it as it
        # restores the loads
        self.hosted: dict[tuple[str, str, str], bool] = {}
        self.flows: tuple[dict[tuple[str, str], float], ...] = ({}, {}, {})  # 5b-5d
        self._saved: list[tuple[dict, object, object]] = []  # (table, key, old or None)
        self._marks: list[int] = []

    def visit(self, req: ServiceRequest, l: int, node: str, head: str, dest: str,
              prevs: Iterable[str], hosting: bool) -> tuple:
        """Charges of visiting position `l` of `req` at `node` for (head, dest).

        The tuple (hosting or None, nf, node, rate, flows) is resolved once,
        flows holding a (table, pair, budget) per 5b-5d row; each of `prevs`,
        the nodes at position l - 1, adds a chain-hop flow. Unless `hosting`
        is set, the visit charges no node demand.
        """
        bottleneck = self._paths.bottleneck
        head_flow, pair_flow, tail_flow = self.flows
        flows = []
        if l == 1:
            flows.append((head_flow, (head, node), bottleneck(head, node)))
        for p in prevs:
            flows.append((pair_flow, (p, node), bottleneck(p, node)))
        if l == len(req.chain):
            flows.append((tail_flow, (node, dest), bottleneck(node, dest)))
        nf = req.chain[l - 1]
        return ((req.id, nf, node) if hosting else None, nf, node,
                req.flow_rate_mbps, flows)

    def can_host(self, nf: str, node: str) -> bool:
        """Whether `node` has room for one more hosting of `nf` (5a)."""
        load = self.load.get(node)
        if load is None:
            return False
        cap, demand = self._caps[node], self._demand[nf]
        return load[0] + demand[0] <= cap[0] and load[1] + demand[1] <= cap[1]

    def fits(self, visit: tuple) -> bool:
        """Whether charging `visit` keeps every load it adds to within capacity."""
        host, nf, node, rate, flows = visit
        if host is not None and host not in self.hosted and not self.can_host(nf, node):
            return False
        for table, pair, budget in flows:
            if table.get(pair, 0.0) + rate > budget:
                return False
        return True

    def _host(self, host: tuple[str, str, str], nf: str, node: str) -> None:
        if host not in self.hosted:
            self._saved.append((self.hosted, host, None))
            self.hosted[host] = True
            load = self.load.get(node)
            if load is not None:
                self._saved.append((self.load, node, load))
                demand = self._demand[nf]
                self.load[node] = (load[0] + demand[0], load[1] + demand[1])

    def host(self, request: str, nf: str, node: str) -> None:
        """Charge a hosting: its demand, unless it is already hosted."""
        self._marks.append(len(self._saved))
        self._host((request, nf, node), nf, node)

    def charge(self, visit: tuple) -> None:
        """Charge a visit: its hosting as :meth:`host` does, then its flows."""
        host, nf, node, rate, flows = visit
        saved = self._saved
        self._marks.append(len(saved))
        if host is not None:
            self._host(host, nf, node)
        for table, pair, _ in flows:
            old = table.get(pair)
            saved.append((table, pair, old))
            table[pair] = rate if old is None else old + rate

    def place(self, req: ServiceRequest, l: int, node: str,
              before: str | None, after: str | None) -> bool:
        """Host position `l` of `req` at `node` if its flows fit; whether it did.

        The caller tests the hosting demand (5a) with :meth:`can_host`
        first. The flows are those :func:`check_constraints` charges for a
        placement that visits the position at `node` for every (head,
        destination) pair, as :func:`model.build_placement` builds it: if
        l = 1, head flow (s, node) once per destination for each head s;
        chain flow (before, node) and (node, after) once per pair, where
        `before` and `after` host positions l - 1 and l + 1 (None while
        unhosted); and if l = L, tail flow (node, d) once per head for each
        destination d. The n charges of one pair are added one at a time,
        so a load matches the checker's bit for bit when requests are
        placed in batch order and a request's positions on one node in
        chain order; rates are positive, so testing the last sum covers the
        earlier ones. A self pair has an infinite budget and is not
        charged, and the pairs of one call are distinct. A flow over its
        budget undoes the call's charges, so nothing stays charged unless
        every flow fits; :meth:`undo` reverts a call that returned True.
        """
        head_flow, pair_flow, tail_flow = self.flows
        dests = self._dests
        keys = []  # (table, pair, number of charges)
        if l == 1:
            for s in req.heads:
                if s != node:
                    keys.append((head_flow, (s, node), len(dests)))
        if before is not None and before != node:
            keys.append((pair_flow, (before, node), len(req.heads) * len(dests)))
        if after is not None and after != node:
            keys.append((pair_flow, (node, after), len(req.heads) * len(dests)))
        if l == len(req.chain):
            for d in dests:
                if d != node:
                    keys.append((tail_flow, (node, d), len(req.heads)))
        rate = req.flow_rate_mbps
        bottleneck = self._paths.bottleneck
        saved = self._saved
        self._marks.append(len(saved))
        for table, pair, n in keys:
            old = table.get(pair)
            load = 0.0 if old is None else old
            for _ in range(n):
                load += rate
            saved.append((table, pair, old))
            table[pair] = load
            if load > bottleneck(*pair):
                self.undo()
                return False
        nf = req.chain[l - 1]
        self._host((req.id, nf, node), nf, node)
        return True

    def undo(self) -> None:
        """Revert the last :meth:`charge`, :meth:`host` or :meth:`place` exactly."""
        saved = self._saved
        for _ in range(len(saved) - self._marks.pop()):
            table, key, old = saved.pop()
            if old is None:
                del table[key]
            else:
                table[key] = old

    def violations(self) -> list[ConstraintViolation]:
        """Every 5a-5d row over capacity: by family, then by sorted index."""
        out = []
        for k in sorted(self._caps):
            for cap, load, resource in zip(self._caps[k], self.load[k],
                                           ("memory_mb", "cpu_cores")):
                slack = cap - load
                if slack < 0:
                    out.append(ConstraintViolation("5a", (k, resource), slack))
        for family, table in zip(("5b", "5c", "5d"), self.flows):
            for pair in sorted(table):  # an infinite budget never goes negative
                slack = self._paths.bottleneck(*pair) - table[pair]
                if slack < 0:
                    out.append(ConstraintViolation(family, pair, slack))
        return out


def _check_indices(instance: ProblemInstance, placement: Placement) -> None:
    """Raise :class:`EvaluationError` naming the least bad index, if any."""
    bad = placement_index_violations(instance, placement)
    if bad:
        raise EvaluationError(str(bad[0]))


def unplaced_penalty(paths: PathTable) -> float:
    """Cost of one unvisited chain position: twice the largest path cost."""
    return 2.0 * paths.max_cost


def evaluate_cost(
    instance: ProblemInstance,
    placement: Placement,
    paths: PathTable,
) -> CostReport:
    """Compute the itemized objective for `placement`.

    Destination weights are the mobility profile extended with the
    attachment node at the stay probability. Hop terms are evaluated
    literally on the visit plan: a missing position contributes nothing to
    the hop sums and instead incurs :func:`unplaced_penalty` per (head,
    destination) pair, weighted like any routed position.
    """
    _check_indices(instance, placement)
    # (request, head, destination, nf) -> node; of the duplicate visits of a
    # malformed placement the largest node wins, whatever the set order
    visit: dict[tuple[str, str, str, str], str] = {}
    for r, i, k, s, d in placement.y:
        have = visit.get((r, s, d, i))
        if have is None or k > have:
            visit[(r, s, d, i)] = k
    routes = [[visit.get((req.id, s, d, nf)) for nf in req.chain]
              for req, s, d in instance.pair_order]
    return cost_of_routes(instance, paths, placement.x, routes,
                          penalty_cost=unplaced_penalty(paths))


def cost_of_routes(
    instance: ProblemInstance,
    paths: PathTable,
    hosted: Iterable[tuple[str, str, str]],
    routes: Sequence[Sequence[str | None]],
    *,
    penalty_cost: float = 0.0,
) -> CostReport:
    """Itemized objective of a hosting set and a visit plan given per chain.

    `hosted` holds the (request, nf, node) hosting decisions. `routes` has
    one entry per (request, head, destination) chain of
    `instance.pair_order`, in that order: the node visiting each chain
    position, or None where the position is unvisited. Each term is summed
    in a fixed order (the placement term over sorted hosting decisions, the
    hop and penalty terms over `pair_order`), so equal inputs give
    bit-identical totals. This is the one implementation of the objective,
    with three callers: :func:`evaluate_cost`, which derives the routes
    from a placement's visit plan; the exact search, on each complete
    assignment; and the greedy heuristics, which pass the routes they
    built with :func:`unplaced_penalty` (``heuristics._solve_result`` says
    why that report equals :func:`evaluate_cost`'s).
    """
    weights = instance.destination_weights
    placement_term = 0.0
    if instance.placement_cost:  # otherwise every placing cost is zero
        for (r, i, k) in sorted(hosted):
            placement_term += instance.placing_cost(i, k)
    cost = paths.cost
    head_term = 0.0
    chain_term = 0.0
    tail_term = 0.0
    penalty_term = 0.0
    for (req, s, d), nodes in zip(instance.pair_order, routes):
        w = weights[d]
        prev = nodes[0]
        if prev is not None:
            head_term += w * cost(s, prev)
        for k in nodes[1:]:
            if prev is not None and k is not None:
                chain_term += w * cost(prev, k)
            prev = k
        if prev is not None:
            tail_term += w * cost(prev, d)
        missing = nodes.count(None)
        if missing:
            penalty_term += w * penalty_cost * missing
    return CostReport.from_terms(placement_term, head_term, chain_term,
                                 tail_term, penalty_term)


def check_constraints(
    instance: ProblemInstance,
    placement: Placement,
    paths: PathTable,
) -> list[ConstraintViolation]:
    """Check every constraint family; empty list means feasible.

    Families and their index tuples:
      5a  (node, resource)      hosting demand within node capacity
      5b  (head, node)          first-hop flow within the head->node budget
      5c  (node, node)          chain-hop flow within the pair budget
      5d  (node, destination)   last-hop flow within the node->dest budget
      5e  (request, head, destination, position)  visited at least once
      5f  (request, nf, node, head, destination)  visit backed by hosting
      5g/5h/5i                  product-variable links, checked only when the
                                placement carries explicit z entries; 5i is
                                restricted to consecutive chain pairs, the
                                set materialized by the LP export.

    Capacity budgets are per node-pair bottlenecks of the initial network,
    aggregated over all flows mapped to that pair. Loads are charged to a
    :class:`Ledger` in the exact search's variable order (see its float
    policy), so the verdict is the search's, bit for bit.
    """
    _check_indices(instance, placement)
    y_nodes: dict[tuple[str, str, str, str], list[str]] = {}
    y_sorted = sorted(placement.y)
    for (r, i, k, s, d) in y_sorted:
        y_nodes.setdefault((r, s, d, i), []).append(k)

    ledger = Ledger(instance, paths)
    dests = sorted(instance.destination_weights)
    for req in instance.requests:
        pairs = [(s, d) for s in sorted(req.heads) for d in dests]
        for l, nf in enumerate(req.chain, start=1):
            for s, d in pairs:
                # chain flow is the literal sum of y-products, so malformed
                # placements with duplicate visits charge every implied pair
                prevs = y_nodes.get((req.id, s, d, req.chain[l - 2]), ()) if l > 1 else ()
                for k in y_nodes.get((req.id, s, d, nf), ()):
                    ledger.charge(ledger.visit(req, l, k, s, d, prevs,
                                               (req.id, nf, k) in placement.x))
    for (r, i, k) in sorted(placement.x - ledger.hosted.keys()):
        ledger.host(r, i, k)
    out = ledger.violations()

    for req, s, d in instance.pair_order:
        for l, nf in enumerate(req.chain, start=1):
            if (req.id, s, d, nf) not in y_nodes:
                out.append(ConstraintViolation("5e", (req.id, s, d, l), -1.0))

    for (r, i, k, s, d) in y_sorted:
        if (r, i, k) not in placement.x:
            out.append(ConstraintViolation("5f", (r, i, k, s, d), -1.0))

    if placement.z is not None:
        y = placement.y
        for (r, i, j, k, m, s, d) in sorted(placement.z):
            if (r, i, k, s, d) not in y:
                out.append(ConstraintViolation("5g", (r, i, j, k, m, s, d), -1.0))
            if (r, j, m, s, d) not in y:
                out.append(ConstraintViolation("5h", (r, i, j, k, m, s, d), -1.0))
        for req, s, d in instance.pair_order:
            for i, j in zip(req.chain, req.chain[1:]):
                for ki in y_nodes.get((req.id, s, d, i), ()):
                    for kj in y_nodes.get((req.id, s, d, j), ()):
                        if (req.id, i, j, ki, kj, s, d) not in placement.z:
                            out.append(ConstraintViolation(
                                "5i", (req.id, i, j, ki, kj, s, d), -1.0))
    return out


def gain(cost_a: float, cost_b: float) -> float:
    """Relative gain of `cost_a` over reference `cost_b`: (b - a) / b."""
    if cost_b == 0:
        raise UndefinedGainError("reference cost is zero; gain undefined")
    return (cost_b - cost_a) / cost_b
