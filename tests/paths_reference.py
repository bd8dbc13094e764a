"""Reference all-pairs shortest paths: the tuple-keyed lexicographic Dijkstra.

A verbatim copy of the string-keyed `PathTable`, `_dijkstra_lex` and
`shortest_paths` that `pccplace.graph` used before it moved to integer node
ids and predecessor arrays. `tests/test_graph.py` checks the package's
table against this one pair by pair: cost bits, node sequence, bottleneck,
key order, length and the error text of a missing pair.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from pccplace.graph import (DisconnectedGraphError, EdgeNetwork, PathInfo,
                            link_key)


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


def _dijkstra_lex(
    network: EdgeNetwork, source: str,
) -> tuple[dict[str, tuple[float, tuple[str, ...]]], dict[str, float]]:
    """Single-source shortest paths with (cost, node-sequence) lexicographic keys.

    With strictly positive link costs the composite key is extension-monotone,
    so the classic lazy-deletion Dijkstra yields, per target, the minimal cost
    and the lexicographically smallest node sequence among minimal-cost paths.
    The second map holds each node's bottleneck, the least link capacity on
    its stored sequence (+inf at the source). It is carried down the tree:
    the relaxation that sets ``best[v]`` from ``u`` sets ``min(bn[u], cap)``,
    and ``u`` is expanded only with its final sequence, so every entry is
    the minimum over exactly the links of the stored sequence (``min`` is
    exact in any order).
    """
    adj = network.adjacency
    link_map = network.link_map
    best: dict[str, tuple[float, tuple[str, ...]]] = {source: (0.0, (source,))}
    bn: dict[str, float] = {source: math.inf}
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
                bn[v] = min(bn[u], link_map[link_key(u, v)].capacity_mbps)
                heapq.heappush(heap, (cand[0], cand[1], v))
    return best, bn


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

    pairs: dict[tuple[str, str], PathInfo] = {}
    by_source = {a: _dijkstra_lex(network, a) for a in rel}
    for a in rel:
        best, bn = by_source[a]
        for b in rel:
            if a == b:
                pairs[(a, a)] = PathInfo(0.0, (a,), math.inf)
                continue
            # Canonical cost from the lexicographically smaller endpoint's
            # run, so P_ab == P_ba exactly despite float summation order.
            cost = by_source[min(a, b)][0][max(a, b)][0]
            pairs[(a, b)] = PathInfo(cost, best[b][1], bn[b])
    return PathTable(pairs=pairs, relevant=frozenset(rel))
