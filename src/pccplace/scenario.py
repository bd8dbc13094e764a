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

A request's draws are numpy ``Generator`` calls on its stream: ``integers(
c_lo, c_hi + 1)`` for the chain length, ``choice(catalog_size, length,
replace=False)`` for the chain, ``integers(h_lo, h_hi + 1)`` for the head
count (capped at the candidate count), ``choice(num_candidates, count,
replace=False)`` for the heads and ``uniform(lo, hi)`` for the flow rate.
`_request_draws` computes the same values with integer code on a block of
the stream's raw 64-bit outputs (``random_raw``), because numpy's Python-level
bookkeeping costs more per call than the draws themselves. It repeats
numpy's algorithms (``numpy/random/src/distributions/distributions.c`` and
``_generator.pyx``), which consume the stream as follows:

- A 32-bit word is the low half of a raw output, then its high half.
- ``integers(lo, hi + 1)`` is ``lo + bounded(hi - lo)``. ``bounded(span)``
  takes no word for a span of 0. Otherwise it is Lemire's method (Lemire
  2019, ACM TOMACS 29(1)): ``m = word * (span + 1)``; the draw is ``m >>
  32`` unless the low half of ``m`` is below ``(2**32 - 1 - span) % (span +
  1)``, in which case the next word is tried. A span of 2**32 or more does
  the same with 64 bits on the next whole raw output, leaving a buffered
  half-word buffered.
- ``choice(n, size, replace=False)`` is Floyd's method (Bentley & Floyd
  1987, CACM 30(9)): for j in [n - size, n) it picks ``bounded(j)``, or j if
  that was picked already, then swaps position i with ``bounded(i)`` for i =
  size - 1 down to 1. When n > 10000 and size > n // 50 numpy shuffles the
  tail of ``arange(n)`` instead: i from n - 1 down to max(n - size, 1) swaps
  with ``bounded(i)``, and the picks are the last `size` entries.
- ``uniform(lo, hi)`` is ``lo + (hi - lo) * ((raw >> 11) * 2**-53)`` on the
  next whole raw output; a buffered half-word is skipped.

`tests/test_request_draws.py` checks every branch against ``Generator``
itself, Lemire rejections included.
"""

from __future__ import annotations

import dataclasses
import itertools
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
_MASK64 = (1 << 64) - 1
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


def _words(raw: np.ndarray) -> list[int]:
    """The 32-bit words of PCG64's raw outputs, each output's low half first."""
    return raw.astype("<u8", copy=False).view("<u4").tolist()


def _bounded(w: list[int], k: int, span: int) -> tuple[int, int]:
    """(``integers(0, span + 1)``, next word) drawn from the words `w[k:]`.

    A 64-bit draw after an odd number of words moves the buffered half-word
    `w[k]` to just past the raw outputs it read, where the next 32-bit draw
    finds it.
    """
    if span == 0:
        return 0, k
    n = span + 1
    if span > _MASK32:
        q = (k + 1) // 2
        threshold = (_MASK64 - span) % n
        m = (w[2 * q] | w[2 * q + 1] << 32) * n
        while m & _MASK64 < threshold:
            q += 1
            m = (w[2 * q] | w[2 * q + 1] << 32) * n
        if k % 2:
            w[2 * q + 1] = w[k]
            return m >> 64, 2 * q + 1
        return m >> 64, 2 * q + 2
    m = w[k] * n
    k += 1
    if m & _MASK32 < n:
        threshold = (_MASK32 - span) % n
        while m & _MASK32 < threshold:
            m = w[k] * n
            k += 1
    return m >> 32, k


class _Arange(dict):
    """``arange(n)`` as a dict of the entries that moved."""

    def __missing__(self, i: int) -> int:
        return i


def _sample(w: list[int], k: int, n: int, size: int) -> tuple[list[int], int]:
    """(``choice(n, size, replace=False)``, next word) drawn from the words
    `w[k:]`; n is at most 2**32. `_bounded` is inlined: it runs per pick."""
    tail = n > 10000 and size > n // 50  # numpy shuffles the tail of arange(n)
    if tail:
        picks: Any = _Arange()
        top, bottom = n - 1, max(n - size, 1)
    else:  # Floyd's method, then a shuffle
        picks = [0] if n == size else []  # j = 0 takes no word
        seen = set(picks)
        for j in range(max(n - size, 1), n):
            m = w[k] * (j + 1)
            k += 1
            if m & _MASK32 <= j:
                threshold = (_MASK32 - j) % (j + 1)
                while m & _MASK32 < threshold:
                    m = w[k] * (j + 1)
                    k += 1
            v = m >> 32
            if v in seen:
                v = j
            seen.add(v)
            picks.append(v)
        top, bottom = size - 1, 1
    for i in range(top, bottom - 1, -1):
        m = w[k] * (i + 1)
        k += 1
        if m & _MASK32 <= i:
            threshold = (_MASK32 - i) % (i + 1)
            while m & _MASK32 < threshold:
                m = w[k] * (i + 1)
                k += 1
        j = m >> 32
        picks[i], picks[j] = picks[j], picks[i]
    return ([picks[i] for i in range(n - size, n)] if tail else picks), k


def _request_draws(
    bitgen: np.random.PCG64, state_words: list[list[int]],
    chain_length: tuple[int, int], catalog_size: int,
    heads_per_request: tuple[int, int], num_candidates: int,
    flow_rate: tuple[float, float],
) -> list[tuple[list[int], list[int], float]]:
    """(chain indices, head indices, flow rate) of each request whose stream
    `bitgen` is seeded from a row of `state_words` (see the module docstring).

    Each stream's block holds the raw outputs its draws take when no word is
    rejected; a request that runs past its block reads its stream again with
    a block twice as long. Lemire's method rejects less than half of the
    words, so a request that still runs past 256 blocks is a fault, and its
    IndexError is raised.
    """
    (c_lo, c_hi), (h_lo, h_hi), (lo, hi) = chain_length, heads_per_request, flow_rate
    block = c_hi + min(h_hi, num_candidates) + 1
    raws = []
    for words in state_words:
        bitgen.state = _pcg64_state(words)
        raws.append(bitgen.random_raw(block))
    flat = _words(np.concatenate(raws))
    out = []
    for i, words in enumerate(state_words):
        w = flat[2 * block * i:2 * block * (i + 1)]
        while True:
            try:
                length, k = _bounded(w, 0, c_hi - c_lo)
                chain, k = _sample(w, k, catalog_size, c_lo + length)
                count, k = _bounded(w, k, h_hi - h_lo)
                heads, k = _sample(w, k, num_candidates, min(h_lo + count, num_candidates))
                q = (k + 1) // 2
                u = (w[2 * q] >> 11 | w[2 * q + 1] << 21) * 2.0**-53
                break
            except IndexError:
                if len(w) > 256 * block:
                    raise
                bitgen.state = _pcg64_state(words)
                w = _words(bitgen.random_raw(len(w)))
        out.append((chain, heads, lo + (hi - lo) * u))
    return out


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
        if name in _INT_RANGE_FIELDS and hi >= 2**63:  # numpy's int64 draws
            raise ValueError(f"{name}: upper bound {hi} is not below 2**63")
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
    deg_lo, deg_hi = params.degree

    rng_tree = _rng(seed, "tree")
    order = [int(i) for i in rng_tree.permutation(n)]
    adj: list[set[int]] = [set() for _ in range(n)]
    cap = [deg_hi] * n_cand + [n] * n_transit  # a transit degree stays below n

    # Placed nodes under the degree cap, in placement order: a degree only
    # grows, so a node leaves this list once and for all.
    attach = [order[0]]
    edges: list[tuple[int, int]] = []
    for node in order[1:]:
        if not attach:
            raise GenerationError("no attachment point under the degree cap")
        parent = attach[int(rng_tree.integers(len(attach)))]
        adj[node].add(parent)
        adj[parent].add(node)
        edges.append((node, parent))
        if len(adj[parent]) == cap[parent]:
            attach.remove(parent)
        if cap[node] > 1:
            attach.append(node)

    rng_deg = _rng(seed, "degree")
    under_cap = bytearray(len(adj[j]) < cap[j] for j in range(n))
    for i in range(n_cand):
        target = int(rng_deg.integers(deg_lo, deg_hi + 1))
        if len(adj[i]) >= target:
            continue
        free = bytearray(under_cap)  # under the cap, not i, not yet adjacent to i
        for j in adj[i] | {i}:
            free[j] = 0
        while len(adj[i]) < target:
            partners = list(itertools.compress(range(n), free))
            if not partners:
                if len(adj[i]) >= deg_lo:
                    break
                raise GenerationError(
                    f"cannot reach degree {deg_lo} for candidate {ids[i]}")
            j = partners[int(rng_deg.integers(len(partners)))]
            adj[i].add(j)
            adj[j].add(i)
            edges.append((i, j))
            free[j] = 0
            under_cap[j] = len(adj[j]) < cap[j]
        under_cap[i] = len(adj[i]) < cap[i]

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
    # The mobility draws are done, so its bit generator serves the requests.
    draws = _request_draws(
        rng_mob.bit_generator, _request_state_words(seed, params.batch_size).tolist(),
        params.chain_length, len(nf_ids), params.heads_per_request, len(candidates),
        params.flow_rate_mbps)
    requests = [ServiceRequest(id=f"r{idx:0{req_width}d}",
                               chain=tuple(map(nf_ids.__getitem__, chain)),
                               flow_rate_mbps=rate,
                               heads=frozenset(map(candidates.__getitem__, heads)))
                for idx, (chain, heads, rate) in enumerate(draws)]

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
