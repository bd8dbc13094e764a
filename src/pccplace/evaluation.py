"""Objective evaluation and constraint checking for placements.

The objective has four cost families: placing functions at nodes, routing
from the cache head to the first function, routing between consecutive
functions, and routing from the last function to each handover destination,
the three routing families weighted by the destination probabilities. A
fifth `penalty_term` (zero for fully placed solutions) charges positions a
heuristic failed to host, so partially placed batches remain comparable.

Two functions compute it; the shape of the caller's routes decides which.
:func:`cost_of_routes` sums a hosting set and one route per (request, head,
destination) chain in a Python loop. :func:`evaluate_cost` calls it on a
placement's visit plan, and :func:`exact.lower_bound` on a partial
assignment of a desk instance, where a call takes microseconds and numpy's
fixed cost would dominate; the exact search keeps its running sums chain
by chain (``exact._SearchState``), on int node ids, reading costs from
:attr:`graph.PathTable.cost_list`. :func:`cost_of_route_array` prices one
int route per request, the shape of every greedy result, with array
operations on :attr:`graph.PathTable.cost_matrix`; the heuristics call it
without building their placement, which :class:`SolveResult` builds on
first read.

Both equal :func:`evaluate_cost` on the same visits bit for bit. Each term
is the same product of the same floats. Each family is summed left to right
in `pair_order`, the placement term over sorted hostings: ``np.cumsum``
runs ``np.add.accumulate``, which adds strictly in order, whereas
``np.sum`` sums pairwise and ``math.fsum`` and Python 3.12's ``sum``
compensate, so none of those reproduces a loop's ``+=``. A term the loop
skips is exactly +0.0 in the array, which leaves a non-negative running sum
unchanged. A greedy result's visits are its routes':
:func:`model.build_placement` takes its host keys from `instance.requests`
and its nodes from the candidates or the gateway, so the placement passes
the index check; its hosting set is the set of route entries; and
`validate_instance` rejects a function repeated within a chain, so each
(request, head, destination, nf) has one visit, at the node the route
names.

Capacity checking follows the paper's per-pair bottleneck semantics: each
(endpoint, endpoint) shortest path has an independent capacity budget,
aggregated over everything mapped to that pair. The loads of these families
(5a node resources, 5b-5d head, chain and tail flow) are kept by one
:class:`Ledger`, in one representation: 5a loads by int node id, 5b-5d
loads by the int pair code that also indexes the path table's budgets;
node ids reappear only in its violation rows, and code order is id order.
It keeps loads only. 5a charges a node's demand once per hosting and 5b-5d
once per visit, so a caller that visits one hosting many times, as the
exact search and :func:`check_constraints` do, keeps the (request, nf,
node) hostings it has charged and marks the visit that opens one. The
greedy fill hosts each (request, position) once, and `validate_instance`
rejects a function repeated within a chain, so it needs no such key.
The exact search and :func:`check_constraints` charge one (head,
destination) pair per :meth:`Ledger.visit`; the search holds int ids
already, and the checker converts a placement's once. The greedy fill
charges a prefix of whole chains at their anchors in one array pass over
their routes (:meth:`Ledger.place_routes`), then the rest node resources
first, position by position, and checks their flows once on its finished
routes, by the same pass (:meth:`Ledger.fitting_prefix`); only where a
flow would overflow does it charge visits, all of a position's pairs per
visit. Each makes the charges the checker makes, so what either solver
places has no 5a-5d row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

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
    `stats` is the exact solver's :class:`exact.SearchStats` (None for a
    heuristic); it explains a run and, like `build`, is left out of
    equality and repr, so it never reaches stdout or a results table.
    """

    build: Callable[[], Placement] | None = field(repr=False, compare=False)
    cost: CostReport | None
    status: str
    unplaced: tuple[tuple[str, int, str], ...] = ()
    stats: object = field(default=None, repr=False, compare=False)

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

    Families 5b-5d are bounded by per-pair bottleneck budgets. The greedy
    fill charges whole requests from an int route array in one pass
    (:meth:`place_routes`, with :meth:`fitting_prefix` its test alone) and
    node resources alone (:meth:`can_host`, :meth:`add_demand`); every
    other charge is a visit (:meth:`visit`, :meth:`fits`, :meth:`charge`).

    One representation, on int node ids (:attr:`graph.EdgeNetwork.node_index`):
    `load` is a list indexed by int node id, holding (memory, cpu) for a
    node with a `node_resources` entry and None for any other; each 5b-5d
    table of `flows` is a dict keyed by the pair code ``a * n + b`` of int
    ids a and b (n the node count), the code that indexes
    :attr:`graph.PathTable.bottleneck_list`, from which :meth:`visit` and
    :meth:`violations` read budgets. Every method takes int ids; node ids
    are looked up only in :meth:`violations`, which lists rows by int id
    and by code: int order is id order (node ids are numbered in sorted
    order), and code a * n + b orders pairs by a, then b, so that is sorted
    id order. The ledger keeps no hostings: the caller of :meth:`fits` and
    :meth:`charge` says whether a visit opens one, and :meth:`add_demand`
    opens one.

    Float policy: a load is the running float sum of its charges, in the
    order they were charged, one add at a time (a flow charged `count`
    times takes `count` adds of its rate); a hosting's demand is charged
    once, at the charge its caller marks new. Demands and rates are
    positive, so charging visits one at a time under :meth:`fits` accepts
    exactly the loads that :meth:`violations` passes, bit for bit, when
    both charge in one order. :meth:`fits` tests each flow of a visit on
    its own, after all its adds, so a visit names each (table, pair) at
    most once, as :meth:`visit` does. :func:`check_constraints` charges in
    the exact search's variable order (request, position, head,
    destination), marking new the first visit of each hosted (request, nf,
    node), then the hostings with no visit in sorted order.
    :meth:`place_routes` charges the loads that visiting its requests'
    positions would, each family's with one ``np.bincount`` over its
    charges listed request by request in batch order, which within a
    request changes no load (:meth:`fitting_prefix` says why): bincount
    adds a bin's weights one at a time in index order from 0.0, so each
    load is the same running sum, bit for bit
    (``tests/test_summation_order.py`` checks the property). Nothing is
    summed in set order. A node with no entry in `node_resources` has no 5a
    row (AGW's gateway is unlimited) and :meth:`can_host` refuses it, so
    solvers host only on nodes with declared resources.
    """

    def __init__(self, instance: ProblemInstance, paths: PathTable):
        network = instance.network
        self._instance, self._paths = instance, paths
        self._ids = network.node_ids
        self._n = len(self._ids)
        # (memory, cpu) capacity per int node id, None without an entry
        self._caps: list[tuple[float, float] | None] = [None] * self._n
        for k, cap in instance.node_resources.items():
            self._caps[network.node_index[k]] = cap.as_tuple()
        self._demand = {nf: dem.as_tuple() for nf, dem in instance.catalog.items()}
        # (memory, cpu) per int node id with a capacity entry, else None
        self.load: list[tuple[float, float] | None] = [
            None if cap is None else (0.0, 0.0) for cap in self._caps]
        self.flows: tuple[dict[int, float], ...] = ({}, {}, {})  # 5b-5d, by pair code

    def visit(self, req: ServiceRequest, l: int, node: int, heads: Sequence[int],
              dests: Sequence[int], prevs: Iterable[int] = (),
              nexts: Iterable[int] = ()) -> tuple:
        """Charges of visiting position `l` of `req` at the int node id
        `node` for every (head, destination) pair in `heads` x `dests`.

        The tuple is (nf, node, rate, flows), flows holding a (table, pair
        code, budget, count) per 5b-5d pair charged `count` times: if l = 1,
        head flow (s, node) len(dests) times for each head s; chain flow
        (p, node) for each p of `prevs`, the hosts of position l - 1, and
        (node, q) for each q of `nexts`, the hosts of l + 1, len(heads) *
        len(dests) times; and if l is the last position, tail flow (node, d)
        len(heads) times for each destination d. A self pair uses no link,
        so its budget is +inf, and it is never listed. The node demand is
        charged only where the caller marks the visit as opening a hosting
        (:meth:`fits`, :meth:`charge`). Ids are distinct within each
        argument, of nodes relevant to the path table, as the exact
        search's candidates and the nodes of a placement that passes the
        index check are.
        """
        budgets, n = self._paths.bottleneck_list, self._n
        head_flow, pair_flow, tail_flow = self.flows
        per_pair = len(heads) * len(dests)
        flows = []
        if l == 1:
            for s in heads:
                if s != node:
                    code = s * n + node
                    flows.append((head_flow, code, budgets[code], len(dests)))
        for p in prevs:
            if p != node:
                code = p * n + node
                flows.append((pair_flow, code, budgets[code], per_pair))
        for q in nexts:
            if q != node:
                code = node * n + q
                flows.append((pair_flow, code, budgets[code], per_pair))
        if l == len(req.chain):
            row = node * n
            for d in dests:
                if d != node:
                    code = row + d
                    flows.append((tail_flow, code, budgets[code], len(heads)))
        return req.chain[l - 1], node, req.flow_rate_mbps, flows

    def can_host(self, nf: str, node: int) -> bool:
        """Whether the int node id `node` has room for one more hosting of
        `nf` (5a)."""
        load = self.load[node]
        if load is None:
            return False
        cap, demand = self._caps[node], self._demand[nf]
        return load[0] + demand[0] <= cap[0] and load[1] + demand[1] <= cap[1]

    def full(self, node: int) -> bool:
        """Whether no NF of the catalog fits the int node id `node`'s
        remaining room (5a), as :meth:`can_host` tests it; a node without a
        `node_resources` entry is full. Loads never shrink outside
        :meth:`undo`, so a node full before a run of charges is full after
        it."""
        return not any(self.can_host(nf, node) for nf in self._demand)

    def fits(self, visit: tuple, new: bool) -> bool:
        """Whether charging `visit`, with its demand if `new` (it opens a
        hosting), keeps every load it adds to within capacity: each flow is
        tested after its `count` adds, as :meth:`charge` would make them."""
        nf, node, rate, flows = visit
        if new and not self.can_host(nf, node):
            return False
        for table, pair, budget, count in flows:
            load = table.get(pair, 0.0) + rate
            if count > 1:  # a visit of one pair, the exact search's, skips the loop
                for _ in range(count - 1):
                    load += rate
            if load > budget:
                return False
        return True

    def charge(self, visit: tuple, new: bool) -> list[tuple[object, object, object]]:
        """Charge a visit: its demand if `new` (it opens a hosting), then
        each flow's rate `count` times, one add at a time from its stored
        load. Returns its undo record for :meth:`undo`: the (table, key, old
        load or None) of each load it changed; the ledger keeps none."""
        nf, node, rate, flows = visit
        saved = []
        if new and self.load[node] is not None:  # no 5a row without node_resources
            saved.append((self.load, node, self.load[node]))
            self.add_demand(nf, node)
        for table, pair, _, count in flows:
            old = table.get(pair)
            saved.append((table, pair, old))
            load = rate if old is None else old + rate
            for _ in range(count - 1):
                load += rate
            table[pair] = load
        return saved

    def add_demand(self, nf: str, node: int) -> None:
        """Charge one hosting of `nf` at the int node id `node` to 5a only.

        It adds `nf`'s demand to the node's load, and records no flow and
        nothing for :meth:`undo` (:meth:`charge` records the load it
        replaces); the node must have a `node_resources` entry, as
        :meth:`can_host` passing shows. The greedy fill hosts with it,
        testing only :meth:`can_host`, and then checks its routes' flows
        once with :meth:`fitting_prefix`; the flows of this ledger are not
        read again. :func:`check_constraints` charges with it the hostings
        that no visit charged.
        """
        load, demand = self.load[node], self._demand[nf]
        self.load[node] = (load[0] + demand[0], load[1] + demand[1])

    def place_routes(self, routes: np.ndarray) -> int:
        """Host the int route array `routes` for the longest prefix of
        requests that fits; the length of that prefix.

        `routes` has a row for each request of a prefix of
        `instance.requests` and a column per position, as
        :func:`cost_of_route_array` takes it: the int node id hosting the
        position, or -1 where it is unhosted or past the chain. The ledger
        must have nothing charged: no flow, and every load at (0.0, 0.0).
        The prefix is :meth:`fitting_prefix`'s. Its loads, and only those,
        are charged, so `load` and `flows` are, bit for bit, as after the
        visits that :meth:`fitting_prefix` describes. Nothing is recorded
        for :meth:`undo`.
        """
        if any(self.flows) or any(load not in (None, (0.0, 0.0)) for load in self.load):
            raise ValueError("place_routes needs a ledger with nothing charged")
        n, nodes, flows = self._route_charges(routes)
        for (k, memory), (_, cpu) in zip(*(family.loads(n) for family in nodes)):
            self.load[k] = (memory, cpu)
        for table, family in zip(self.flows, flows):
            table.update(family.loads(n))
        return n

    def fitting_prefix(self, routes: np.ndarray) -> int:
        """The number of leading requests of the int route array `routes`
        (as :meth:`place_routes` takes it) whose loads fit, charged from
        nothing; this ledger's own loads are neither read nor changed.

        Request r fits if visiting its positions in batch order, its
        positions on one node in chain order, each marked new for all its
        (head, destination) pairs with its neighbours' hosts so far
        (:meth:`visit`), would pass every :meth:`fits` for it and for all
        requests before it, each visit charged once it passes. Those visits
        charge 5a demand per hosted position; 5b rate per (head,
        destination) pair whose first position is hosted off its head; 5c
        rate per pair and per hop between consecutive positions hosted at
        both ends on distinct nodes, at the visit of whichever end comes
        later; and 5d rate per pair whose last position is hosted off its
        destination. The prefix ends at the first request with a position
        on a node without a `node_resources` entry, which :meth:`can_host`
        refuses.

        Why this is exact: every charge a request makes to one flow pair is
        its rate, and a visit adds it once per charge, so within a request
        neither the order of its charges to a pair nor which visit makes
        them changes the sum, and its charges to one node come in chain
        order; only the batch order of requests matters, and the charges
        here are listed request by request. Loads only grow, so the prefix
        of n requests fits exactly when each load after all its charges is
        within capacity: every earlier check tested a smaller running sum.
        Each family's loads are one ``np.bincount`` of its charges in
        charge order, which adds them one at a time from 0.0 as the ledger
        does, and are compared with an array of capacities by bin: node
        capacities by int id, budgets from
        :attr:`graph.PathTable.bottleneck_matrix` by pair code. The longest
        prefix that fits 5a is found first, then the longest part of it
        that fits 5b-5d, each by testing the whole length and, if it does
        not fit, by bisection (:func:`_longest_prefix`).
        """
        return self._route_charges(routes)[0]

    def _route_charges(self, routes: np.ndarray) -> tuple:
        """:meth:`fitting_prefix`'s length n, and the 5a charges (memory,
        cpu) and the 5b-5d charges as :class:`_Charges`."""
        instance, caps, n_ids = self._instance, self._caps, self._n
        requests = instance.requests[:len(routes)]
        owners, position = np.nonzero(routes >= 0)  # hosted entries, row-major
        at = routes[owners, position]
        capless = np.array([cap is None for cap in caps])[at]
        m = int(owners[capless][0]) if capless.any() else len(requests)
        cut = np.searchsorted(owners, m)
        owners, position, at = owners[:cut], position[:cut], at[:cut]
        lengths = np.array([len(req.chain) for req in requests[:m]], dtype=np.intp)
        nfs = {nf: i for i, nf in enumerate(self._demand)}
        nf_of = np.fromiter(map(nfs.__getitem__, itertools.chain.from_iterable(
            req.chain for req in requests[:m])), dtype=np.intp)[
            (np.cumsum(lengths) - lengths)[owners] + position]  # each entry's nf
        demand = np.array(list(self._demand.values()), dtype=np.float64).reshape(-1, 2)[nf_of]
        capacity = np.array([(math.nan, math.nan) if cap is None else cap for cap in caps],
                            dtype=np.float64).reshape(-1, 2)
        # 5a first: the flows need testing only over the prefix it leaves
        nodes = [_Charges(at, n_ids, demand[:, j], owners, m, capacity[:, j])
                 for j in (0, 1)]
        m = _longest_prefix(nodes, m)
        pairs = instance.pair_arrays
        pair_request = pairs.request[:np.searchsorted(pairs.request, m)]
        rate = np.array([req.flow_rate_mbps for req in requests[:m]], dtype=np.float64)
        before, after = routes[:m, :-1], routes[:m, 1:]
        chained = (before >= 0) & (after >= 0) & (before != after)
        hop_request = np.nonzero(chained)[0]
        # each pair of a request charges each of its hops at one rate, so a
        # request's 5c charges may be listed hop by hop
        per_hop = np.bincount(pair_request, minlength=m)[hop_request]
        budgets = self._paths.bottleneck_matrix.reshape(-1)
        flows = []
        for start, end, owner in (
                (pairs.head[:len(pair_request)], routes[pair_request, 0], pair_request),  # 5b
                (np.repeat(before[chained], per_hop), np.repeat(after[chained], per_hop),
                 np.repeat(hop_request, per_hop)),  # 5c
                (routes[pair_request, lengths[pair_request] - 1], pairs.dest[:len(pair_request)],
                 pair_request)):  # 5d
            charged = (start >= 0) & (end >= 0) & (start != end)
            owner = owner[charged]
            flows.append(_Charges(start[charged] * n_ids + end[charged], n_ids * n_ids,
                                  rate[owner], owner, m, budgets))
        return _longest_prefix(flows, m), nodes, flows

    def undo(self, saved: list[tuple[object, object, object]]) -> None:
        """Revert exactly the :meth:`charge` that returned `saved`; every
        charge made after it must be reverted first."""
        for table, key, old in reversed(saved):
            if old is None:
                del table[key]
            else:
                table[key] = old

    def violations(self) -> list[ConstraintViolation]:
        """Every 5a-5d row over capacity: by family, then by sorted index.

        Rows are listed by int node id and by pair code, which is sorted
        node id order (see the class docstring)."""
        ids, n = self._ids, self._n
        out = []
        for k, (caps, load) in enumerate(zip(self._caps, self.load)):
            if caps is None:
                continue
            for cap, used, resource in zip(caps, load, ("memory_mb", "cpu_cores")):
                slack = cap - used
                if slack < 0:
                    out.append(ConstraintViolation("5a", (ids[k], resource), slack))
        budgets = self._paths.bottleneck_list
        for family, table in zip(("5b", "5c", "5d"), self.flows):
            for code in sorted(table):  # an infinite budget never goes negative
                slack = budgets[code] - table[code]
                if slack < 0:
                    a, b = divmod(code, n)
                    out.append(ConstraintViolation(family, (ids[a], ids[b]), slack))
        return out


class _Charges:
    """The charges of one capacity family that :meth:`Ledger.place_routes`
    makes, in charge order, each to a bin (an int node id, or a pair
    code), with the capacity of every bin."""

    def __init__(self, keys: np.ndarray, size: int, charges: np.ndarray,
                 owners: np.ndarray, n_requests: int, capacity: np.ndarray):
        # keys: the bin of each charge, in [0, size); owners: its request;
        # capacity: the capacity of each bin in [0, size)
        self.keys, self.size, self.charges, self.capacity = keys, size, charges, capacity
        self.ends = np.searchsorted(owners, np.arange(n_requests + 1))  # charges of the first n

    def sums(self, n: int) -> np.ndarray:
        """Each bin's load after the charges of the first n requests, added
        in charge order from 0.0."""
        end = self.ends[n]
        return np.bincount(self.keys[:end], self.charges[:end], minlength=self.size)

    def fits(self, n: int) -> bool:
        return not (self.sums(n) > self.capacity).any()

    def loads(self, n: int) -> Iterable[tuple[int, float]]:
        """(bin, load) of each bin that the first n requests charge, by bin."""
        hit = np.flatnonzero(np.bincount(self.keys[:self.ends[n]], minlength=self.size))
        return zip(hit.tolist(), self.sums(n)[hit].tolist())


def _longest_prefix(families: list[_Charges], m: int) -> int:
    """The largest n <= m whose first n requests' loads fit every family,
    tested at m, then by bisection."""
    def fits(n):
        return all(family.fits(n) for family in families)

    if fits(m):
        return m
    lo, hi = 0, m  # the prefix of lo requests fits, that of hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


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


def _placement_term(instance: ProblemInstance,
                    hosted: Iterable[tuple[str, str, str]]) -> float:
    """Sum of the placing costs of the (request, nf, node) hostings, in sorted order."""
    term = 0.0
    for (r, i, k) in sorted(hosted):
        term += instance.placing_cost(i, k)
    return term


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
    bit-identical totals. Callers: :func:`evaluate_cost`, which derives
    the routes from a placement's visit plan, and :func:`exact.lower_bound`,
    whose routes may differ between the chains of one request.
    """
    weights = instance.destination_weights
    placement_term = 0.0
    if instance.placement_cost:  # otherwise every placing cost is zero
        placement_term = _placement_term(instance, hosted)
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


def cost_of_route_array(
    instance: ProblemInstance,
    paths: PathTable,
    routes: np.ndarray,
) -> CostReport:
    """Itemized objective of one route per request, given as int node ids.

    `routes` has a row per request of `instance.requests` and a column per
    chain position up to the longest chain: the int node id
    (:attr:`graph.EdgeNetwork.node_index`) hosting the position, or -1
    where it is unhosted or past the end of the chain. Every (head,
    destination) chain of a request visits its positions there, and the
    hostings are the route entries. The report is :func:`cost_of_routes`'s
    on those hostings and routes with a penalty cost of
    :func:`unplaced_penalty`, bit for bit (see the module docstring).
    Caller: ``heuristics._solve_result`` (PPCC, SPBA, AGW). One family's
    terms, one float per chain (and hop), are alive at a time.
    """
    pairs = instance.pair_arrays
    matrix = paths.cost_matrix
    w, req = pairs.weight, pairs.request
    lengths = np.array([len(r.chain) for r in instance.requests], dtype=np.intp)
    placement_term = 0.0
    if instance.placement_cost:
        ids = instance.network.node_ids
        placement_term = _placement_term(instance, {
            (r.id, r.chain[l], ids[k])
            for r, row in zip(instance.requests, routes.tolist())
            for l, k in enumerate(row) if k >= 0})
    # Per family: the costs gathered per chain, times the weight, the
    # masked terms set to +0.0, then summed. A gather at -1 reads the last
    # column, which the mask overwrites.
    first = routes[:, 0][req]
    terms = matrix[pairs.head, first]
    terms *= w
    terms[first < 0] = 0.0
    head_term = _sequential_sum(terms)
    before, after = routes[:, :-1], routes[:, 1:]
    terms = matrix[before, after][req]  # chain-major, then hop order
    terms *= w[:, None]
    terms[((before < 0) | (after < 0))[req]] = 0.0
    chain_term = _sequential_sum(terms)
    last = routes[np.arange(len(routes)), lengths - 1][req]
    terms = matrix[last, pairs.dest]
    terms *= w
    terms[last < 0] = 0.0
    tail_term = _sequential_sum(terms)
    # positions at -1, less those past the end of the chain
    missing = ((routes < 0).sum(axis=1) - (routes.shape[1] - lengths))[req]
    terms = w * unplaced_penalty(paths)
    terms *= missing
    terms[missing == 0] = 0.0
    penalty_term = _sequential_sum(terms)
    return CostReport.from_terms(placement_term, head_term, chain_term,
                                 tail_term, penalty_term)


def _sequential_sum(terms: np.ndarray) -> float:
    """The float sum of `terms` in C order, added left to right from 0.0
    (see the module docstring); `terms` is overwritten by its running sums."""
    flat = terms.reshape(-1)
    return float(np.cumsum(flat, out=flat)[-1]) if flat.size else 0.0


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

    Capacity budgets are per node-pair bottlenecks of the initial network,
    aggregated over all flows mapped to that pair. Loads are charged to a
    :class:`Ledger` in the exact search's variable order (see its float
    policy), so the verdict is the search's, bit for bit.
    """
    _check_indices(instance, placement)
    index = instance.network.node_index
    y_nodes: dict[tuple[str, str, str, str], list[int]] = {}  # -> int node ids
    y_sorted = sorted(placement.y)
    for (r, i, k, s, d) in y_sorted:
        y_nodes.setdefault((r, s, d, i), []).append(index[k])

    ledger = Ledger(instance, paths)
    dests = [(d, (index[d],)) for d in sorted(instance.destination_weights)]
    # the hostings no visit has charged yet, by int node id: int order is id order
    unvisited = {(r, i, index[k]) for r, i, k in placement.x}
    for req in instance.requests:
        pairs = [(s, (index[s],), d, dest) for s in sorted(req.heads) for d, dest in dests]
        for l, nf in enumerate(req.chain, start=1):
            for s, head, d, dest in pairs:
                # chain flow is the literal sum of y-products, so malformed
                # placements with duplicate visits charge every implied pair
                prevs = y_nodes.get((req.id, s, d, req.chain[l - 2]), ()) if l > 1 else ()
                for k in y_nodes.get((req.id, s, d, nf), ()):
                    new = (req.id, nf, k) in unvisited
                    unvisited.discard((req.id, nf, k))
                    ledger.charge(ledger.visit(req, l, k, head, dest, prevs), new)
    for (r, i, k) in sorted(unvisited):
        if ledger.load[k] is not None:  # no 5a row without node_resources
            ledger.add_demand(i, k)
    out = ledger.violations()

    for req, s, d in instance.pair_order:
        for l, nf in enumerate(req.chain, start=1):
            if (req.id, s, d, nf) not in y_nodes:
                out.append(ConstraintViolation("5e", (req.id, s, d, l), -1.0))

    for (r, i, k, s, d) in y_sorted:
        if (r, i, k) not in placement.x:
            out.append(ConstraintViolation("5f", (r, i, k, s, d), -1.0))
    return out


def gain(cost_a: float, cost_b: float) -> float:
    """Relative gain of `cost_a` over reference `cost_b`: (b - a) / b."""
    if cost_b == 0:
        raise UndefinedGainError("reference cost is zero; gain undefined")
    return (cost_b - cost_a) / cost_b
