"""Seeded random generation of problem instances.

Randomness comes from numpy's PCG64 seeded through ``SeedSequence`` with a
documented spawn-key per structural choice (one sub-stream for the spanning
tree, one for degree top-up, one for link costs, and so on; one per request
for request-level draws). Adding or changing one parameter therefore never
perturbs draws in unrelated streams, and the same (params, seed) pair
always yields a byte-identical instance.

Request streams are not built one ``SeedSequence`` and ``PCG64`` at a time.
With a spawn key, ``SeedSequence`` pads the seed's 32-bit words to its
4-word pool and then hashes in the key words one by one, each step mixing
one word into the pool with a hash constant that depends only on how many
words came before. The pool after the seed and the shared word 7 is
therefore the same for every request, and only the last word, the request
index, differs. `_request_state_words` takes that pool from numpy once and
repeats numpy's arithmetic for the index word and ``generate_state(4,
uint64)`` as uint32 array operations over all requests; `_pcg64_state`
applies PCG64's seeding step to each request's words, and one generator is
set to each state in turn. Both are tested against ``_rng`` itself, so
stream (7, idx) stays the one the spawn-key contract names.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .graph import EdgeNetwork, Link, link_key
from .model import (
    MobilityProfile,
    ProblemInstance,
    Resources,
    ServiceRequest,
    validate_instance,
)


class GenerationError(RuntimeError):
    """The requested parameters cannot produce a valid instance."""


# Stable sub-stream ids; do not renumber (reproducibility contract).
_STREAMS = {
    "tree": 0,
    "degree": 1,
    "link_cost": 2,
    "node_resources": 3,
    "catalog": 4,
    "attachment": 5,
    "mobility": 6,
    "request": 7,  # spawn key (7, request_index)
}


def _rng(seed: int, stream: str, index: int | None = None) -> np.random.Generator:
    key = (_STREAMS[stream],) if index is None else (_STREAMS[stream], index)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier; part of the reproducibility contract.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(const: int, mult: int, steps: int) -> np.ndarray:
    """`const` and the `steps` constants after it (each the last times
    `mult` modulo 2**32), as a uint32 column."""
    out = [const]
    for _ in range(steps):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _request_state_words(seed: int, count: int) -> np.ndarray:
    """Row idx is ``SeedSequence(entropy=seed, spawn_key=(7, idx))
    .generate_state(4, np.uint64)``, for every idx < `count`.

    `SeedSequence(entropy=seed, spawn_key=(7,))` has hashed every word but
    the index into its pool; its hash constant has stepped four times per
    word hashed. The index word's four hashmix-and-mix steps and
    ``generate_state`` then run as uint32 array operations over all
    requests. `seed` must be a non-negative int and `count` at most 2**32.
    """
    prefix = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAMS["request"],))
    hashed = max(4, -(-seed.bit_length() // 32)) + 1  # seed words padded to 4, and 7
    const = (_INIT_A * pow(_MULT_A, 4 * hashed, 1 << 32)) & _MASK32
    a = _hash_constants(const, _MULT_A, 4)
    value = (np.arange(count, dtype=np.uint32) ^ a[:4]) * a[1:]
    value ^= value >> 16
    pool = _MIX_MULT_L * prefix.pool[:, None] - _MIX_MULT_R * value  # wraps mod 2**32
    pool ^= pool >> 16
    b = _hash_constants(_INIT_B, _MULT_B, 8)  # eight words, from the pool in turn
    value = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]
    value ^= value >> 16
    return np.ascontiguousarray(value.T, dtype="<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words: list[int]) -> dict[str, Any]:
    """The ``PCG64.state`` that seeding from these four uint64 words gives."""
    s0, s1, i0, i1 = words
    inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
    state = ((inc + ((s0 << 64) | s1)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@dataclass(frozen=True)
class ScenarioParams:
    """Generator knobs; defaults follow the standard simulation setup.

    Ranged fields are (low, high) bounds sampled uniformly per entity
    (inclusive bounds for integer ranges). `stay_probability` of None means
    the stay mass is itself drawn uniformly from [0, 1].
    """

    num_candidates: int = 20
    batch_size: int = 50
    degree: tuple[int, int] = (2, 5)
    heads_per_request: tuple[int, int] = (1, 5)
    num_destinations: tuple[int, int] = (1, 5)
    chain_length: tuple[int, int] = (3, 5)
    catalog_size: int = 10
    link_cost: tuple[float, float] = (1.0, 100.0)
    link_capacity_mbps: float = 2000.0
    placement_cost: float = 0.0
    node_memory_mb: tuple[float, float] = (8192.0, 16384.0)
    node_cpu_cores: float = 32.0
    nf_memory_mb: tuple[float, float] = (10.0, 50.0)
    nf_cpu_cores: tuple[float, float] = (0.125, 0.25)
    flow_rate_mbps: tuple[float, float] = (0.064, 10.0)
    stay_probability: float | None = None
    transit_fraction: float = 0.1


_RANGE_FIELDS = {"degree", "heads_per_request", "num_destinations", "chain_length",
                 "link_cost", "node_memory_mb", "nf_memory_mb", "nf_cpu_cores",
                 "flow_rate_mbps"}
_INT_RANGE_FIELDS = {"degree", "heads_per_request", "num_destinations", "chain_length"}


def validate_params(params: ScenarioParams) -> None:
    """Raise ValueError naming the offending field."""
    if params.num_candidates < 1:
        raise ValueError("num_candidates: must be >= 1")
    if params.batch_size < 1:
        raise ValueError("batch_size: must be >= 1")
    if params.catalog_size < 1:
        raise ValueError("catalog_size: must be >= 1")
    for name in _RANGE_FIELDS:
        lo, hi = getattr(params, name)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name}: range bounds must be finite ({lo}, {hi})")
        if lo > hi:
            raise ValueError(f"{name}: empty range ({lo}, {hi})")
        if lo < 0:
            raise ValueError(f"{name}: negative lower bound {lo}")
    if params.degree[0] < 1:
        raise ValueError("degree: lower bound must be >= 1")
    if params.chain_length[0] < 1:
        raise ValueError("chain_length: lower bound must be >= 1")
    if params.chain_length[1] > params.catalog_size:
        raise ValueError("chain_length: upper bound exceeds catalog_size "
                         "(chains hold distinct NFs)")
    if params.heads_per_request[0] < 1:
        raise ValueError("heads_per_request: lower bound must be >= 1")
    if params.num_destinations[0] < 1:
        raise ValueError("num_destinations: lower bound must be >= 1")
    if not params.link_capacity_mbps > 0:  # NaN too
        raise ValueError("link_capacity_mbps: must be > 0")
    if not params.node_cpu_cores > 0:
        raise ValueError("node_cpu_cores: must be > 0")
    if not params.placement_cost >= 0:
        raise ValueError("placement_cost: must be >= 0")
    if params.stay_probability is not None and not 0.0 <= params.stay_probability <= 1.0:
        raise ValueError("stay_probability: must be in [0, 1]")
    if not 0.0 <= params.transit_fraction <= 1.0:
        raise ValueError("transit_fraction: must be in [0, 1]")


def params_to_dict(params: ScenarioParams) -> dict[str, Any]:
    out = dataclasses.asdict(params)
    for name in _RANGE_FIELDS:
        out[name] = list(out[name])
    return out


def _field_number(key: str, value: Any, integer: bool) -> int | float:
    """`value` as field `key` holds it: an int if `integer` (an integral
    float such as 20.0 included), else a float. A bool, a non-number or a
    non-integral value on an integer field raises ValueError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key}: expected a number, got {type(value).__name__}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key}: {value!r} is not an integer")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key}: {value!r} is out of float range") from None


def params_from_dict(data: Mapping[str, Any]) -> ScenarioParams:
    """Build params from a config mapping; a non-mapping, an unknown key or
    a value of the wrong type raises ValueError, naming the key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"parameters: expected a mapping, got {type(data).__name__}")
    fields = {f.name for f in dataclasses.fields(ScenarioParams)}
    unknown = sorted(set(data) - fields)
    if unknown:
        raise ValueError(f"{unknown[0]}: unknown parameter")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in _RANGE_FIELDS:
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ValueError(f"{key}: expected [low, high]")
            integer = key in _INT_RANGE_FIELDS
            kwargs[key] = tuple(_field_number(key, v, integer) for v in value)
        elif key == "stay_probability" and value is None:
            kwargs[key] = None
        else:
            kwargs[key] = _field_number(
                key, value, key in ("num_candidates", "batch_size", "catalog_size"))
    params = ScenarioParams(**kwargs)
    validate_params(params)
    return params


def _build_graph(params: ScenarioParams, seed: int) -> tuple[list[str], list[str], list[Link]]:
    """Random connected graph with candidate degrees in the configured range.

    A random spanning tree guarantees connectivity (candidate degrees capped
    at the range's upper bound during construction), then edges are added
    until each candidate reaches a per-node target degree sampled from the
    range. Non-candidate transit nodes have unbounded degree. Node 0 is the
    gateway and belongs to the candidate set.
    """
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


def generate_instance(params: ScenarioParams, seed: int) -> ProblemInstance:
    """Deterministically generate one valid problem instance.

    Structure: connected random graph with candidate degrees in the degree
    range; gateway is node 0; the attachment is a uniformly chosen
    non-gateway node; destinations are distinct non-attachment nodes whose
    probability masses are uniform positives normalized to 1 minus the stay
    probability; request chains hold distinct NFs; heads are candidate
    subsets. All numeric draws are uniform within their configured ranges.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    validate_params(params)
    ids, candidates, links = _build_graph(params, seed)
    n = len(ids)

    rng_att = _rng(seed, "attachment")
    attachment = ids[int(rng_att.integers(1, n))]
    network = EdgeNetwork(
        nodes=frozenset(ids),
        links=tuple(links),
        candidates=frozenset(candidates),
        gateway=ids[0],
        attachment=attachment,
    )

    rng_res = _rng(seed, "node_resources")
    mem_lo, mem_hi = params.node_memory_mb
    node_resources = {
        k: Resources(memory_mb=float(rng_res.uniform(mem_lo, mem_hi)),
                     cpu_cores=params.node_cpu_cores)
        for k in candidates
    }

    rng_cat = _rng(seed, "catalog")
    nf_width = len(str(params.catalog_size - 1))
    catalog = {}
    for i in range(params.catalog_size):
        catalog[f"f{i:0{nf_width}d}"] = Resources(
            memory_mb=float(rng_cat.uniform(*params.nf_memory_mb)),
            cpu_cores=float(rng_cat.uniform(*params.nf_cpu_cores)),
        )
    nf_ids = sorted(catalog)

    rng_mob = _rng(seed, "mobility")
    stay = (float(rng_mob.uniform(0.0, 1.0))
            if params.stay_probability is None else params.stay_probability)
    non_attachment = [x for x in ids if x != attachment]
    d_lo, d_hi = params.num_destinations
    n_dest = min(int(rng_mob.integers(d_lo, d_hi + 1)), len(non_attachment))
    dest_nodes = [str(x) for x in rng_mob.choice(non_attachment, size=n_dest,
                                                 replace=False)]
    masses = rng_mob.uniform(size=n_dest)
    scale = (1.0 - stay) / float(np.sum(masses))
    destinations = {d: float(m * scale) for d, m in zip(dest_nodes, masses)}
    mobility = MobilityProfile(destinations=destinations, stay_probability=stay)

    req_width = len(str(params.batch_size - 1))
    requests = []
    h_lo, h_hi = params.heads_per_request
    c_lo, c_hi = params.chain_length
    # The mobility draws are done, so its generator is set to each request's
    # stream (7, idx) in turn. `choice` draws the same indices from a size as
    # from a population of that size.
    rng_req = rng_mob
    for idx, words in enumerate(_request_state_words(seed, params.batch_size).tolist()):
        rng_req.bit_generator.state = _pcg64_state(words)
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

    placement_cost: dict[str, dict[str, float]] = {}
    if params.placement_cost != 0.0:
        placement_cost = {nf: {k: params.placement_cost for k in candidates}
                          for nf in nf_ids}

    instance = ProblemInstance(
        network=network,
        catalog=catalog,
        node_resources=node_resources,
        requests=tuple(requests),
        placement_cost=placement_cost,
        mobility=mobility,
    )
    problems = validate_instance(instance)
    if problems:
        raise GenerationError(
            f"generated instance is invalid: {problems[0]}")
    return instance
