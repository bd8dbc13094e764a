"""Edge-network graph and its all-pairs shortest paths.

The network is an undirected weighted graph. Every routing decision in this
package goes through a :class:`PathTable` built by :func:`shortest_paths`,
which breaks cost ties by the lexicographically smallest node sequence so
that solvers, heuristics, and test oracles all see identical paths.
`EdgeNetwork` and `PathTable` are immutable and safe to share across
threads; link loads are kept by `evaluation.Ledger`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


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
    is connected, all costs and capacities are strictly positive, and
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
    def adjacency(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """node -> sorted tuple of (neighbor, cost)."""
        adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
        for ln in self.link_map.values():
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


@dataclass(frozen=True)
class PathTable:
    """All-pairs shortest paths over a set of relevant nodes.

    For every ordered pair (a, b) of relevant nodes the table holds the
    minimal routing cost, the minimal-cost node sequence (lexicographically
    smallest among ties), and the bottleneck capacity (minimum link capacity
    along the stored sequence; +inf for the (a, a) pair).
    """

    pairs: dict[tuple[str, str], PathInfo]
    relevant: frozenset[str]

    def info(self, a: str, b: str) -> PathInfo:
        try:
            return self.pairs[(a, b)]
        except KeyError:
            raise KeyError(f"no path entry for pair ({a!r}, {b!r}); "
                           f"is the node in the relevant set?") from None

    # The accessors below look the pair up directly, since the solvers and
    # the evaluator call them in their inner loops; `info` explains a miss.
    def cost(self, a: str, b: str) -> float:
        try:
            return self.pairs[(a, b)].cost
        except KeyError:
            return self.info(a, b).cost

    def sequence(self, a: str, b: str) -> tuple[str, ...]:
        return self.info(a, b).nodes

    def bottleneck(self, a: str, b: str) -> float:
        try:
            return self.pairs[(a, b)].bottleneck
        except KeyError:
            return self.info(a, b).bottleneck

    @cached_property
    def max_cost(self) -> float:
        """Largest pairwise cost in the table (0.0 for a single node)."""
        return max((p.cost for p in self.pairs.values()), default=0.0)


def _dijkstra_lex(network: EdgeNetwork, source: str) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Single-source shortest paths with (cost, node-sequence) lexicographic keys.

    With strictly positive link costs the composite key is extension-monotone,
    so the classic lazy-deletion Dijkstra yields, per target, the minimal cost
    and the lexicographically smallest node sequence among minimal-cost paths.
    """
    adj = network.adjacency
    best: dict[str, tuple[float, tuple[str, ...]]] = {source: (0.0, (source,))}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (source,), source)]
    while heap:
        cost, seq, u = heapq.heappop(heap)
        if best.get(u) != (cost, seq):
            continue  # stale entry
        for v, w in adj.get(u, ()):
            cand = (cost + w, seq + (v,))
            cur = best.get(v)
            if cur is None or cand < cur:
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    return best


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
    lexicographically smallest in its own direction.
    """
    rel = sorted(set(relevant))
    missing = [n for n in rel if n not in network.nodes]
    if missing:
        raise KeyError(f"relevant nodes not in network: {missing}")
    if not network.is_connected():
        raise DisconnectedGraphError("network graph is not connected")

    link_map = network.link_map
    pairs: dict[tuple[str, str], PathInfo] = {}
    by_source = {a: _dijkstra_lex(network, a) for a in rel}
    for a in rel:
        best = by_source[a]
        for b in rel:
            if a == b:
                pairs[(a, a)] = PathInfo(0.0, (a,), math.inf)
                continue
            _, seq = best[b]
            # Canonical cost from the lexicographically smaller endpoint's
            # run, so P_ab == P_ba exactly despite float summation order.
            cost = by_source[min(a, b)][max(a, b)][0]
            bottleneck = min(
                link_map[link_key(u, v)].capacity_mbps
                for u, v in zip(seq, seq[1:])
            )
            pairs[(a, b)] = PathInfo(cost, seq, bottleneck)
    return PathTable(pairs=pairs, relevant=frozenset(rel))
