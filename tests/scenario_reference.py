"""Reference graph builder: every attachment and partner list rebuilt per link.

A verbatim copy of `_build_graph` as `pccplace.scenario` had it, but for the
docstring, from before the attachment list was kept in placement order
across tree nodes and partners were read from a row of open nodes: each tree
node scans every placed node and each top-up link scans every node with
`degree_ok`. `tests/test_scenario.py::TestGraphBuilder` checks the package's
builder against this one.
"""

from __future__ import annotations

from pccplace.graph import Link, link_key
from pccplace.scenario import GenerationError, ScenarioParams, _rng


def _build_graph(params: ScenarioParams, seed: int) -> tuple[list[str], list[str], list[Link]]:
    n_cand = params.num_candidates
    n_transit = max(1, round(params.transit_fraction * n_cand))
    n = n_cand + n_transit
    if n < 3 and params.degree[0] >= 2:
        raise GenerationError(
            f"cannot satisfy degree >= {params.degree[0]} with {n} nodes")
    width = len(str(n - 1))
    ids = [f"n{i:0{width}d}" for i in range(n)]
    is_candidate = [i < n_cand for i in range(n)]
    deg_lo, deg_hi = params.degree

    rng_tree = _rng(seed, "tree")
    order = [int(i) for i in rng_tree.permutation(n)]
    adj: dict[int, set[int]] = {i: set() for i in range(n)}

    def degree_ok(i: int) -> bool:
        return not is_candidate[i] or len(adj[i]) < deg_hi

    edges: list[tuple[int, int]] = []
    for pos in range(1, n):
        node = order[pos]
        choices = [order[j] for j in range(pos) if degree_ok(order[j])]
        if not choices:
            raise GenerationError("no attachment point under the degree cap")
        parent = choices[int(rng_tree.integers(len(choices)))]
        adj[node].add(parent)
        adj[parent].add(node)
        edges.append((node, parent))

    rng_deg = _rng(seed, "degree")
    for i in range(n_cand):
        target = int(rng_deg.integers(deg_lo, deg_hi + 1))
        while len(adj[i]) < target:
            partners = [j for j in range(n)
                        if j != i and j not in adj[i] and degree_ok(j)]
            if not partners:
                if len(adj[i]) >= deg_lo:
                    break
                raise GenerationError(
                    f"cannot reach degree {deg_lo} for candidate {ids[i]}")
            j = partners[int(rng_deg.integers(len(partners)))]
            adj[i].add(j)
            adj[j].add(i)
            edges.append((i, j))

    rng_cost = _rng(seed, "link_cost")
    lo, hi = params.link_cost
    links = []
    for a, b in sorted(link_key(ids[u], ids[v]) for u, v in edges):
        links.append(Link(u=a, v=b, cost=float(rng_cost.uniform(lo, hi)),
                          capacity_mbps=params.link_capacity_mbps))
    candidates = [ids[i] for i in range(n_cand)]
    return ids, candidates, links

