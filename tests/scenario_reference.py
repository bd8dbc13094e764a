"""Reference graph builder and request draws.

`_build_graph` is a verbatim copy of the one `pccplace.scenario` had, but
for the docstring, from before the attachment list was kept in placement
order across tree nodes and partners were read from a row of open nodes:
each tree node scans every placed node and each top-up link scans every
node with `degree_ok`. `tests/test_scenario.py::TestGraphBuilder` checks the
package's builder against this one.

`requests` is the generator's request loop: numpy ``Generator`` calls on
each request's own stream, built by `_rng`. The package's per-request path,
`_draws_each`, makes the same calls, and its batch pass must equal them.
`tests/test_request_draws.py` checks the generated requests against it.
"""

from __future__ import annotations

from pccplace.graph import Link, link_key
from pccplace.model import ServiceRequest
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



def requests(params: ScenarioParams, seed: int) -> list[ServiceRequest]:
    _, candidates, _ = _build_graph(params, seed)
    nf_width = len(str(params.catalog_size - 1))
    nf_ids = [f"f{i:0{nf_width}d}" for i in range(params.catalog_size)]
    req_width = len(str(params.batch_size - 1))
    requests = []
    h_lo, h_hi = params.heads_per_request
    c_lo, c_hi = params.chain_length
    for idx in range(params.batch_size):
        rng_req = _rng(seed, "request", idx)
        length = int(rng_req.integers(c_lo, c_hi + 1))
        chain = tuple(nf_ids[i] for i in rng_req.choice(
            len(nf_ids), size=length, replace=False).tolist())
        n_heads = min(int(rng_req.integers(h_lo, h_hi + 1)), len(candidates))
        heads = frozenset(candidates[i] for i in rng_req.choice(
            len(candidates), size=n_heads, replace=False).tolist())
        rate = float(rng_req.uniform(*params.flow_rate_mbps))
        requests.append(ServiceRequest(
            id=f"r{idx:0{req_width}d}", chain=chain,
            flow_rate_mbps=rate, heads=heads))
    return requests
