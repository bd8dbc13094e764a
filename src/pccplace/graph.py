"""Edge-network graph and its all-pairs shortest paths.

The network is an undirected weighted graph. Every routing decision in this
package goes through a :class:`PathTable` built by :func:`shortest_paths`,
which breaks cost ties by the lexicographically smallest node sequence so
that solvers, heuristics, and test oracles all see identical paths.
`EdgeNetwork` and `PathTable` are immutable and safe to share across
threads; link loads are kept by `evaluation.Ledger`.

The search runs on int node ids, the positions in the sorted id list
(:attr:`EdgeNetwork.node_index`), so int order is id order. From
`_RELAX_MIN_NODES` nodes on, all relevant sources are searched together, by
one array relaxation (:func:`_relax`) whose floats and trees equal the heap
Dijkstra's (:func:`_dijkstra`) bit for bit; the heap Dijkstra, the one
owner of the tie rule, runs only for a source whose tree has a tie. A
smaller network runs the heap Dijkstra for every source, since there the
relaxation's fixed cost outweighs the searches. A table keeps its costs
and bottlenecks as node-by-node matrices indexed by int node id
(:attr:`PathTable.cost_matrix`, :attr:`PathTable.bottleneck_matrix`), for
array code; scalar code reads flat lists of their Python floats, indexed
by the pair code ``i * n + j`` and built from the matrices on first read.
Per relevant source it keeps the predecessor array of its shortest-path
tree. Node sequences and :class:`PathInfo` records are built when read,
since the solvers read a sequence at most once per request.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DisconnectedGraphError(ValueError):
    """The network graph is not connected; the instance is invalid."""


def link_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered key for the link between `u` and `v`."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Link:
    """Undirected link with a routing cost (abstract units) and capacity (Mbps)."""

    u: str
    v: str
    cost: float
    capacity_mbps: float

    @property
    def key(self) -> tuple[str, str]:
        return link_key(self.u, self.v)


@dataclass(frozen=True)
class EdgeNetwork:
    """Undirected weighted network with a candidate hosting set.

    Fields:
        nodes: all node ids.
        links: undirected links; at most one per unordered pair, no self-loops.
        candidates: subset of nodes that may host functions.
        gateway: the network gateway node.
        attachment: the node the end user is currently attached to.

    Invariants (checked by ``model.validate_instance``, not here): the graph
    is connected, all costs are finite and all costs and capacities are
    strictly positive, and
    candidates/gateway/attachment are members of ``nodes``.
    """

    nodes: frozenset[str]
    links: tuple[Link, ...]
    candidates: frozenset[str]
    gateway: str
    attachment: str

    @cached_property
    def link_map(self) -> dict[tuple[str, str], Link]:
        return {ln.key: ln for ln in self.links}

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        """The node ids in sorted order; a node's int id is its position here."""
        return tuple(sorted(self.nodes))

    @cached_property
    def node_index(self) -> dict[str, int]:
        """node id -> int id, its position in :attr:`node_ids`."""
        return {n: i for i, n in enumerate(self.node_ids)}

    @cached_property
    def adjacency(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """node -> sorted tuple of (neighbor, cost), over the links whose
        endpoints are both nodes (``model.validate_instance`` reports the
        others)."""
        adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
        for ln in self.link_map.values():
            if ln.u in adj and ln.v in adj:
                adj[ln.u].append((ln.v, ln.cost))
                adj[ln.v].append((ln.u, ln.cost))
        return {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        start = next(iter(sorted(self.nodes)))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self.adjacency.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self.nodes)


@dataclass(frozen=True)
class PathInfo:
    """One stored shortest path: total cost, node sequence, bottleneck capacity."""

    cost: float
    nodes: tuple[str, ...]
    bottleneck: float


class PathTable:
    """All-pairs shortest paths over a set of relevant nodes.

    For every ordered pair (a, b) of relevant nodes the table holds the
    minimal routing cost, the minimal-cost node sequence (lexicographically
    smallest among ties), and the bottleneck capacity (minimum link capacity
    along the stored sequence; +inf for the (a, a) pair).

    Stored: `cost_matrix` and `bottleneck_matrix`, read-only float64
    arrays, node count by node count, indexed by int node id
    (:attr:`EdgeNetwork.node_index`), NaN wherever an entry names a node
    outside the relevant set; and, per relevant source, the predecessor
    array of its shortest-path tree over int node ids, from which
    :meth:`id_sequence` walks the node sequence back from the target.
    `max_cost` is the largest cost, one max over the relevant block of the
    cost matrix taken when the table is built, since every priced result
    reads it. :attr:`pairs` is a read-only view that builds each
    :class:`PathInfo` when it is read.

    Array code (the greedy fill's pricing and candidate order, the
    ledger's prefix pass) gathers many entries at once from the matrices.
    Scalar code reads one Python float at a time, with no numpy scalar in
    between, from `cost_list` and `bottleneck_list`: the matrices' floats
    as flat lists, entry ``i * n + j`` (the pair code, n the node count)
    being entry [i, j], each built on its first read. The exact search and
    the ledger read them by pair code, and :meth:`cost` and
    :meth:`bottleneck` by node id (`export_lp`, `cost_of_routes`). Two
    threads reading a list first at once may each build it; both build
    equal lists. The lists are not `functools.cached_property` values:
    those write through the instance ``__dict__``, which on CPython 3.11
    unspecialises every attribute read on the table (desk-size
    `solve_exact` ran about 3 % slower). Pair codes sort as their (a, b)
    pairs do, since int order is id order. Entry [i, j] of the cost matrix
    equals ``cost(a, b)`` for relevant nodes a and b with ids i and j, so
    it is exactly symmetric.
    """

    def __init__(self, relevant: frozenset[str], ids: tuple[str, ...],
                 index: dict[str, int], cost_matrix: np.ndarray,
                 bottleneck_matrix: np.ndarray, preds: dict[str, list[int]],
                 max_cost: float):
        self.relevant = relevant
        self.max_cost = max_cost  # 0.0 for a single node
        self._ids = ids
        self._n = len(ids)
        # relevant node id -> int id; any other node is a KeyError
        self._at = {a: index[a] for a in relevant}
        self.cost_matrix = cost_matrix
        self.bottleneck_matrix = bottleneck_matrix
        self._preds = preds
        # set here, not on first read, to keep attribute reads specialised
        self._cost_list: list[float] | None = None
        self._bottleneck_list: list[float] | None = None

    @property
    def cost_list(self) -> list[float]:
        if self._cost_list is None:
            self._cost_list = self.cost_matrix.ravel().tolist()
        return self._cost_list

    @property
    def bottleneck_list(self) -> list[float]:
        if self._bottleneck_list is None:
            self._bottleneck_list = self.bottleneck_matrix.ravel().tolist()
        return self._bottleneck_list

    def _missing(self, a: str, b: str) -> KeyError:
        return KeyError(f"no path entry for pair ({a!r}, {b!r}); "
                        f"is the node in the relevant set?")

    def info(self, a: str, b: str) -> PathInfo:
        cost, ids = self.cost(a, b), self._ids  # cost raises for a missing pair
        nodes = tuple(ids[v] for v in self.id_sequence(self._at[a], self._at[b]))
        return PathInfo(cost, nodes, self.bottleneck(a, b))

    # The accessors below look the pair up directly, since the solvers and
    # the evaluator call them in their inner loops.
    def cost(self, a: str, b: str) -> float:
        at = self._at
        try:
            return (self._cost_list or self.cost_list)[at[a] * self._n + at[b]]
        except KeyError:
            raise self._missing(a, b) from None

    def id_sequence(self, a: int, b: int) -> list[int]:
        """The stored a -> b node sequence as int node ids, for relevant
        nodes with int ids `a` and `b` (a fresh list; nothing is checked)."""
        return _walk(self._preds[self._ids[a]], b)

    def bottleneck(self, a: str, b: str) -> float:
        at = self._at
        try:
            return (self._bottleneck_list or self.bottleneck_list)[at[a] * self._n + at[b]]
        except KeyError:
            raise self._missing(a, b) from None

    @property
    def pairs(self) -> Mapping[tuple[str, str], PathInfo]:
        """Every (a, b) pair, source-major in id order, to its :class:`PathInfo`."""
        return _PairView(self)


class _PairView(Mapping):
    """Read-only (a, b) -> :class:`PathInfo` view of a :class:`PathTable`."""

    def __init__(self, table: PathTable):
        self._table = table

    def __getitem__(self, pair: tuple[str, str]) -> PathInfo:
        if pair not in self:
            raise KeyError(pair)
        return self._table.info(*pair)

    def __contains__(self, pair: object) -> bool:
        rel = self._table.relevant
        return (isinstance(pair, tuple) and len(pair) == 2
                and pair[0] in rel and pair[1] in rel)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return itertools.product(sorted(self._table.relevant), repeat=2)

    def __len__(self) -> int:
        return len(self._table.relevant) ** 2


def _dijkstra(adj: list[list[tuple[int, float, float]]], source: int,
              ) -> tuple[list[float], list[int], list[float]]:
    """Single-source shortest paths over int node ids: cost, predecessor, bottleneck.

    Node ids are positions in the sorted id list, so comparing int
    sequences compares the id sequences. Each target gets the minimal cost
    and, among minimal-cost paths, the lexicographically smallest node
    sequence, read back through the returned predecessor array (-1 at the
    source). Heap entries are (cost, id); a strictly cheaper relaxation
    replaces the predecessor, and an exactly equal one (rare with float
    costs) goes to :func:`_tie`, which owns the tie rule: :func:`_relax`
    reads a source's tree from its own arrays only where no target has a
    tie, and runs this function for every other source.

    Why the tie branch re-processes nodes: with positive costs and no
    absorption every tied predecessor is strictly cheaper, so it has been
    popped with its final sequence before the target is. But a cost tiny
    next to the path cost is absorbed (``c + w == c``): then a node and its
    tied predecessor share one cost, pop in id order instead of sequence
    order, and a node's sequence can still shrink after it relaxed its
    neighbours. :func:`_tie` therefore re-pushes a node whose predecessor
    it replaces, and a re-popped node re-pushes its children, so every
    node is processed again after each change to its sequence. At the end
    each sequence is the smallest over its tied neighbours, which is the
    one fixed point the tuple-keyed (cost, sequence) Dijkstra reaches.

    The bottleneck is the least link capacity on the final sequence (+inf
    at the source). It is taken from the final tree after the search, not
    carried in the relaxation, so it depends only on the final sequences
    however often absorbed ties re-parent nodes. Nodes are walked in
    processing order: a node's last processing follows its final
    predecessor's last one, so each is computed from its predecessor's
    final value.
    """
    n = len(adj)
    dist = [math.inf] * n
    pred = [-1] * n
    link_cap = [math.inf] * n  # capacity of the link (pred[v], v)
    dist[source] = 0.0
    heap = [(0.0, source)]
    order = []  # every processing, in turn
    record, pop, push = order.append, heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d != dist[u]:
            continue  # stale entry
        record(u)
        for v, w, cap in adj[u]:
            c = d + w
            dv = dist[v]
            if c < dv:
                dist[v] = c
                pred[v] = u
                link_cap[v] = cap
                push(heap, (c, v))
            elif c == dv and _tie(pred, u, v):
                link_cap[v] = cap
                push(heap, (c, v))
    bn = [math.inf] * n
    for v in order:
        p = pred[v]
        if p >= 0:
            b, cap = bn[p], link_cap[v]
            bn[v] = b if b < cap else cap
    return dist, pred, bn


def _tie(pred: list[int], u: int, v: int) -> bool:
    """Whether `v`, reached from `u` at exactly its cost, is to be (re)processed.

    Replaces ``pred[v]`` by `u` if the sequence to `u` with `v` appended is
    smaller than the stored sequence to `v`. Both candidates end in `v`: a
    bare comparison of the two predecessors' sequences would let a prefix
    win, though a prefix extended by `v` can still lose. Also true, without
    a change, when `u` already is ``pred[v]``: then `u` is being processed
    again because its sequence changed, and so did `v`'s.
    """
    p = pred[v]
    if p == u:
        return True
    if _walk(pred, u) + [v] < _walk(pred, p) + [v]:
        pred[v] = u
        return True
    return False


def _walk(pred: list[int], v: int) -> list[int]:
    """The node sequence from the source to `v` along `pred`."""
    seq = [v]
    while pred[v] >= 0:
        v = pred[v]
        seq.append(v)
    seq.reverse()
    return seq


def _relax(adj: list[list[tuple[int, float, float]]], sources: list[int],
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest paths from every int node id of `sources` at once: cost,
    predecessor and bottleneck arrays, node by source, and `rows`, the row
    of each int node id in them.

    Column j of each array is what ``_dijkstra(adj, sources[j])`` returns,
    bit for bit, node v's entry in row ``rows[v]``. Rows hold the nodes by
    in-degree, descending, ties by id, so the nodes with an in-link in
    degree position (slot) s are the leading rows: a sliced layout, with no
    padding. The costs come from a relaxation of a node x source array:
    0.0 at each source and +inf elsewhere; in each round every node takes
    the least of its own value and ``D[u] + w`` over its in-links, one slot
    at a time, in place over the slot's rows. The rounds stop at the first
    that changes nothing.

    Why the floats are Dijkstra's: both are the least left-to-right path
    sums. Rounding is monotone, so ``fl(d + w)`` never falls as d falls,
    and with w > 0 it is never below d. So round r reaches, at the latest,
    the least sum over the paths of at most r links from the least sums of
    one link fewer; a cycle never lowers a sum, so the rounds end at the
    least sums. Dijkstra pops each node at its final cost and relaxes every
    link from there, so it ends at the same least sums.

    The tree. For each target v and source the in-links with ``D[u] + w ==
    D[v]`` are counted. Dijkstra's final predecessor of v is the tail of
    such a link, whatever :func:`_tie` did on the way, since a predecessor
    is set only by a link reaching v at its cost then, and replaced when
    that cost falls. So where every target but the source has exactly one
    such link, the tree is unique and equal to Dijkstra's, and the
    predecessors and link capacities are read from those links. The tails
    must also be strictly cheaper than their targets, so that no cost is
    absorbed (``c + w == c``) and the predecessors descend to the source.
    The bottleneck is then the least capacity up the tree, by pointer
    doubling; a minimum does not depend on the order. Any other source is
    run by :func:`_dijkstra`, the one owner of the tie rule, and its
    columns of the predecessor and bottleneck arrays are replaced by that
    run's. Generated float networks have no such source; integer and
    absorbed costs do.
    """
    n, m = len(adj), len(sources)
    degree = np.fromiter(map(len, adj), np.intp, n)
    order = np.argsort(-degree, kind="stable")  # the node id of each row
    rows = np.empty(n, np.intp)
    rows[order] = np.arange(n)
    ids = order.tolist()
    slots = []  # per slot: its row count c and, per row, the in-link's tail row, cost, capacity
    for s in range(int(degree.max(initial=0))):
        c = int(np.count_nonzero(degree > s))
        tail, cost, cap = np.array([adj[v][s] for v in ids[:c]]).T
        slots.append((c, rows[tail.astype(np.intp)], cost[:, None], cap[:, None]))
    cols = np.arange(m)
    held = rows[sources]
    dist = np.full((n, m), math.inf)
    dist[held, cols] = 0.0
    before, gathered = np.empty_like(dist), np.empty_like(dist)
    while True:
        np.copyto(before, dist)
        for c, u, w, _ in slots:
            near, body = gathered[:c], dist[:c]
            dist.take(u, axis=0, out=near, mode="clip")  # "clip": not buffered
            np.minimum(body, np.add(near, w, out=near), out=body)
        if np.array_equal(before, dist):
            break
    del before

    ties = np.zeros((n, m), np.intp)
    pred = np.full((n, m), -1, np.intp)  # rows until the trees are read
    link_cap = np.full((n, m), math.inf)
    cheaper = np.zeros((n, m), bool)
    for c, u, w, cap in slots:
        near, body = gathered[:c], dist[:c]
        dist.take(u, axis=0, out=near, mode="clip")
        less = near < body
        tied = np.add(near, w, out=near) == body
        ties[:c] += tied
        np.copyto(pred[:c], u[:, None], where=tied)
        np.copyto(link_cap[:c], cap, where=tied)
        np.copyto(cheaper[:c], less, where=tied)
    del gathered
    unique = (ties == 1) & cheaper
    del ties, cheaper
    unique[held, cols] = True  # a source has no tied in-link
    rerun = np.flatnonzero(~unique.all(axis=0)).tolist()

    # Pointer doubling over flat indices: `up` is the 2**k-th ancestor's
    # entry, and the bottleneck covers the 2**k links up to it. A source,
    # and any entry of a rerun column, points at itself.
    flat = np.arange(n * m).reshape(n, m)
    up = np.where(unique & (pred >= 0), pred * m + cols, flat)
    del unique, flat
    while True:
        np.minimum(link_cap, link_cap.take(up), out=link_cap)
        higher = up.take(up)
        if np.array_equal(higher, up):
            break
        up = higher
    del up, higher
    pred = np.append(order, -1)[pred]  # rows to node ids; -1 stays -1
    for j in rerun:
        _, tree, bn = _dijkstra(adj, sources[j])
        pred[:, j], link_cap[:, j] = np.take(tree, order), np.take(bn, order)
    return dist, pred, link_cap, rows


def _each_source(adj: list[list[tuple[int, float, float]]], sources: list[int],
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_relax`'s arrays from one :func:`_dijkstra` run per source,
    row v for int node id v."""
    shape = (len(adj), len(sources))
    dist, pred, bn = np.empty(shape), np.empty(shape, np.intp), np.empty(shape)
    for j, source in enumerate(sources):
        dist[:, j], pred[:, j], bn[:, j] = _dijkstra(adj, source)
    return dist, pred, bn, np.arange(len(adj))


# The node count from which `shortest_paths` takes `_relax`; below it the
# heap runs cost less than the relaxation's hundred or so numpy calls.
# Generated networks, every relevant source, 2 vCPUs, best of 15, `_relax`
# against `_each_source`: 6 nodes 0.14 against 0.04 ms, 15 nodes 0.22
# against 0.21-0.22 ms, 17 nodes 0.23-0.25 against 0.26-0.27 ms, 22 nodes
# 0.24-0.30 against 0.40-0.42 ms.
_RELAX_MIN_NODES = 16


def _adjacency(network: EdgeNetwork) -> list[list[tuple[int, float, float]]]:
    """Per int node id, the (neighbour, cost, capacity) of its links in
    neighbour order."""
    index = network.node_index
    adj: list[list[tuple[int, float, float]]] = [[] for _ in index]
    for ln in network.link_map.values():
        u, v = index[ln.u], index[ln.v]
        adj[u].append((v, ln.cost, ln.capacity_mbps))
        adj[v].append((u, ln.cost, ln.capacity_mbps))
    for nbrs in adj:
        nbrs.sort()
    return adj


def shortest_paths(
    network: EdgeNetwork,
    relevant: Iterable[str],
) -> PathTable:
    """Build the all-pairs :class:`PathTable` over `relevant` nodes.

    Args:
        network: connected network; raises :class:`DisconnectedGraphError`
            otherwise.
        relevant: node ids to include (must all be network nodes).

    Cost is symmetric across each unordered pair; the stored sequences for
    (a, b) and (b, a) may differ under cost ties but each is the
    lexicographically smallest in its own direction. All relevant sources
    are searched at once by :func:`_relax`, over the int ids of the sorted
    node list and :func:`_adjacency`; its floats and trees are
    :func:`_dijkstra`'s, which it runs itself only for a source whose tree
    has a tie. Below `_RELAX_MIN_NODES` nodes :func:`_dijkstra` runs for
    every source instead (:func:`_each_source`). The gathers that take the
    search's relevant rows also put them in id order. The cost of a pair
    is taken from the smaller endpoint's column, once, into one canonical
    array; the cost matrix is filled from it, and the cost list from the
    matrix, so they hold the same floats.
    """
    rel = sorted(set(relevant))
    missing = [n for n in rel if n not in network.nodes]
    if missing:
        raise KeyError(f"relevant nodes not in network: {missing}")
    if not network.is_connected():
        raise DisconnectedGraphError("network graph is not connected")

    ids = network.node_ids
    index = network.node_index
    adj = _adjacency(network)
    rel_ids = [index[b] for b in rel]
    search = _relax if len(ids) >= _RELAX_MIN_NODES else _each_source
    dist, pred, bn, rows = search(adj, rel_ids)
    at = np.array(rel_ids, dtype=np.intp)
    held = rows[at]  # the rows of the relevant nodes
    preds = dict(zip(rel, pred[rows].T.tolist()))
    del pred
    dist = dist[held].T  # relevant x relevant, source by target, both in id order
    # Canonical cost from the smaller endpoint's column: entry [i, j] comes
    # from source min(i, j), so P_ab == P_ba exactly despite float summation
    # order.
    i = np.arange(len(rel))
    canonical = np.where(i[:, None] <= i, dist, dist.T)
    matrices = []
    for block in (canonical, bn[held].T):
        matrix = np.full((len(ids), len(ids)), np.nan)
        matrix[at[:, None], at] = block
        matrix.flags.writeable = False
        matrices.append(matrix)
    # costs are >= 0, so the initial 0.0 changes only an empty table's max
    max_cost = float(canonical.max(initial=0.0))
    return PathTable(frozenset(rel), ids, index, *matrices, preds, max_cost)
