"""Seeded random generation of problem instances.

Randomness comes from numpy's PCG64 seeded through ``SeedSequence`` with a
documented spawn-key per structural choice (one sub-stream for the spanning
tree, one for degree top-up, one for link costs, and so on; one per request
for request-level draws). Adding or changing one parameter therefore never
perturbs draws in unrelated streams, and the same (params, seed) pair
always yields a byte-identical instance.

Request idx draws from its own stream, spawn key (7, idx), with numpy
``Generator`` calls: ``integers(c_lo, c_hi + 1)`` for the chain length,
``choice(catalog_size, length, replace=False)`` for the chain, ``integers(
h_lo, h_hi + 1)`` for the head count (capped at the candidate count),
``choice(num_candidates, count, replace=False)`` for the heads and
``uniform(lo, hi)`` for the flow rate. `_draws_each` makes exactly those
calls. For a large batch numpy's per-call bookkeeping costs more than the
draws, so `_draws_batch` computes the same values for the whole batch in one
uint64 array pass. It repeats what numpy's algorithms
(``numpy/random/src/distributions/distributions.c`` and ``_generator.pyx``)
do with 32-bit words, each the low half of a raw 64-bit output, then its
high half:

- ``integers(lo, hi + 1)`` is ``lo + bounded(hi - lo)``. ``bounded(span)``
  takes no word for a span of 0. Otherwise it is Lemire's method (Lemire
  2019, ACM TOMACS 29(1)): ``m = word * (span + 1)``; the draw is ``m >>
  32`` unless the low half of ``m`` is below ``(2**32 - 1 - span) % (span +
  1)``, in which case the next word is tried.
- ``choice(n, size, replace=False)`` is Floyd's method (Bentley & Floyd
  1987, CACM 30(9)): for j in [n - size, n) it picks ``bounded(j)``, or j if
  that was picked already, then swaps position i with ``bounded(i)`` for i =
  size - 1 down to 1.
- ``uniform(lo, hi)`` is ``lo + (hi - lo) * ((raw >> 11) * 2**-53)`` on the
  next whole raw output.

The pass builds no generator:

- With a spawn key, ``SeedSequence`` pads the seed's 32-bit words to its
  4-word pool and then hashes in the key words one by one, each step mixing
  one word into the pool with a hash constant that depends only on how many
  words came before. The pool after the seed and the shared word 7 is
  therefore the same for every request. `_request_state_words` takes it
  from numpy once and repeats numpy's arithmetic for the index word and
  ``generate_state(4, uint64)`` as uint32 array operations.
- Every stream steps the same LCG, s -> s * M + inc modulo 2**128, so t
  steps jump in closed form (Brown 1994, "Random number generation with
  arbitrary strides"). PCG64 outputs a state by XSL-RR, ``rotr64(hi ^ lo,
  hi >> 58)`` (O'Neill 2014, HMC-CS-2014-0905). `_raw_streams` takes the
  jump constants as Python ints per block length and the products as
  uint64 array operations on 32-bit halves.
- The draws listed above run column by column: each one over all requests
  at once, each request reading its own next word. Every word is taken as
  accepted. Lemire's method returns ``m >> 32`` of the first word whose
  ``m`` has a low half not below the threshold, so for a request with no
  word below its threshold one word per draw is what numpy reads, and its
  values, picks and swaps are numpy's. Such a request reads only the words
  its block holds. A request with a word below its threshold is drawn
  again by `_draws_each`.

`_request_draws` hands a batch to `_draws_each` whole when the pass does not
cover its shape: a span of 2**32 or more (numpy's 64-bit draw, which also
moves a buffered half-word), or chains or head sets longer than
`_BATCH_MAX_LENGTH` = 64. The length bound also keeps numpy's tail shuffle
out, which needs a size above n // 50 > 200. Longer sets gain nothing, since
each pick is checked against every earlier one: heads of 1-150 of 200
candidates take 49.5 ms in numpy against 46.6 ms in the pass at 624
requests, and 119 against 123 ms at 2000.

The pass costs some twenty numpy calls per column, and it has about two
columns per raw output of a request's block, while numpy's own calls cost
about 70 us a request. So `_request_draws` takes the pass from
`_BATCH_PER_OUTPUT` = 1 request per raw output of the block on. Measured in
ms, numpy / pass (2 vCPUs, numpy 2.4, best of 9), at 0.5, 1 and 2 requests
per raw output:

======================================  =========  =========  =========
shape (block)                           0.5        1          2
======================================  =========  =========  =========
default: chains 3-5, heads 1-5 (11)     0.45/0.83  0.81/0.85  1.56/0.85
heads 1-20 of 200 (26)                  0.93/1.82  1.88/1.90  3.74/2.05
heads 1-64 of 200 (70)                  2.59/5.03  5.17/5.55  9.64/7.97
chains 1-64 of 200 (70)                 2.48/4.97  5.10/5.80  10.16/8.20
======================================  =========  =========  =========

At 2000 requests the default shape takes 145 against 8.6 ms. Per-request
integer code repeating numpy's algorithms on raw outputs would beat both on
batches of 2 to 43 requests at the default shape, by up to about 0.6 ms a
batch (0.29 against 0.86 ms at 11 requests). No benchmark workload draws
such a batch, so the package keeps numpy's own calls there.

`tests/test_request_draws.py` checks both paths against ``Generator``
itself, Lemire rejections included.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from .graph import EdgeNetwork, Link, link_key
from .model import (
    MobilityProfile,
    ProblemInstance,
    Resources,
    ServiceRequest,
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


def _request_state_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(entropy=seed, spawn_key=(7, indices[i]))
    .generate_state(4, np.uint64)``.

    `SeedSequence(entropy=seed, spawn_key=(7,))` has hashed every word but
    the index into its pool; its hash constant has stepped four times per
    word hashed. The index word's four hashmix-and-mix steps and
    ``generate_state`` then run as uint32 array operations over all
    requests. `seed` must be a non-negative int and every index below 2**32.
    """
    prefix = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAMS["request"],))
    hashed = max(4, -(-seed.bit_length() // 32)) + 1  # seed words padded to 4, and 7
    const = (_INIT_A * pow(_MULT_A, 4 * hashed, 1 << 32)) & _MASK32
    a = _hash_constants(const, _MULT_A, 4)
    value = (indices.astype(np.uint32) ^ a[:4]) * a[1:]
    value ^= value >> 16
    pool = _MIX_MULT_L * prefix.pool[:, None] - _MIX_MULT_R * value  # wraps mod 2**32
    pool ^= pool >> 16
    b = _hash_constants(_INIT_B, _MULT_B, 8)  # eight words, from the pool in turn
    value = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]
    value ^= value >> 16
    return np.ascontiguousarray(value.T, dtype="<u4").view("<u8").astype(np.uint64)


# (chain_length, catalog_size, heads_per_request, num_candidates, flow_rate)
_Shape = tuple[tuple[int, int], int, tuple[int, int], int, tuple[float, float]]
_Draws = list[tuple[list[int], list[int], float]]

# `_request_draws` takes the batch pass from this many requests per raw
# output of a request's block (11 requests at the default shape), and the
# pass draws chains and head sets up to `_BATCH_MAX_LENGTH` long; see the
# module docstring for the measurements.
_BATCH_PER_OUTPUT = 1
_BATCH_MAX_LENGTH = 64


def _request_draws(seed: int, count: int, shape: _Shape) -> _Draws:
    """(chain indices, head indices, flow rate) of requests 0 to `count` - 1
    of the batch (see the module docstring): by `_draws_batch` from
    `_BATCH_PER_OUTPUT` requests per raw output of a request's block on, if
    the pass covers the shape, else by `_draws_each`."""
    chain_length, _, heads_per_request, num_candidates, _ = shape
    if (count >= _BATCH_PER_OUTPUT * _block(chain_length, heads_per_request, num_candidates)
            and _covered(shape)):
        return _draws_batch(seed, np.arange(count), *shape)
    return _draws_each(seed, range(count), *shape)


def _covered(shape: _Shape) -> bool:
    """Whether the batch pass draws `shape`: head counts with a span below
    2**32, populations of at most 2**32, whose Floyd picks take one word
    each, and chains and head sets up to `_BATCH_MAX_LENGTH` long. The
    length bound keeps numpy's tail shuffle out: it needs a size above n //
    50 > 200."""
    (_, c_hi), catalog_size, (h_lo, h_hi), num_candidates, _ = shape
    return (h_hi - h_lo <= _MASK32 and max(catalog_size, num_candidates) <= 2**32
            and max(c_hi, min(h_hi, num_candidates)) <= _BATCH_MAX_LENGTH)


def _block(chain_length: tuple[int, int], heads_per_request: tuple[int, int],
           num_candidates: int) -> int:
    """The raw outputs a request's draws read when no word is rejected."""
    return chain_length[1] + min(heads_per_request[1], num_candidates) + 1


def _draws_each(
    seed: int, indices: Iterable[int],
    chain_length: tuple[int, int], catalog_size: int,
    heads_per_request: tuple[int, int], num_candidates: int,
    flow_rate: tuple[float, float],
) -> _Draws:
    """The draws of each request in `indices`, by numpy's own ``Generator``
    calls on its stream."""
    (c_lo, c_hi), (h_lo, h_hi) = chain_length, heads_per_request
    out = []
    for idx in indices:
        rng = _rng(seed, "request", idx)
        length = int(rng.integers(c_lo, c_hi + 1))
        chain = rng.choice(catalog_size, length, replace=False).tolist()
        count = min(int(rng.integers(h_lo, h_hi + 1)), num_candidates)
        heads = rng.choice(num_candidates, count, replace=False).tolist()
        out.append((chain, heads, float(rng.uniform(*flow_rate))))
    return out


# uint64 operands for the batch pass: numpy 1.x casts uint64 combined with
# a Python int to float64.
_U0, _U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (0, 1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


@functools.lru_cache(maxsize=16)
def _jumps(block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Low and high 64 bits of M**(t + 2) and of 1 + M + ... + M**(t + 1)
    modulo 2**128, for t < `block` and PCG64's multiplier M."""
    power, total, mult, run = [], [], _PCG64_MULT, 1
    for _ in range(block):
        run = (run + mult) & _MASK128
        mult = (mult * _PCG64_MULT) & _MASK128
        power.append(mult)
        total.append(run)
    out = tuple(np.array([v >> shift & _MASK64 for v in values], dtype=np.uint64)
                for values in (power, total) for shift in (0, 64))
    for a in out:
        a.flags.writeable = False
    return out  # type: ignore[return-value]


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product of uint64 `a` and `b`,
    from the 32-bit halves; no partial sum reaches 2**64."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _raw_streams(state_words: np.ndarray, block: int) -> np.ndarray:
    """Row i is ``random_raw(block)`` of PCG64 seeded from the uint64 words
    ``state_words[i]``, as one uint64 array.

    Seeding from words (s0, s1, i0, i1) sets inc = (i0 i1) * 2 + 1 and x =
    inc + (s0 s1) as 128-bit numbers. Output t then reads the state x *
    M**(t + 2) + inc * (1 + M + ... + M**(t + 1)) modulo 2**128: seeding
    steps the LCG once from x, and each output steps it once more. On
    64-bit words the low word is the sum of the two low-by-low products
    modulo 2**64; the high word adds their high halves (`_mulhi`), the four
    cross products modulo 2**64 and the carry of the low sum. The output is
    XSL-RR: ``rotr64(hi ^ lo, hi >> 58)``.
    """
    s0, s1, i0, i1 = (col[:, None] for col in state_words.T)
    inc_lo, inc_hi = (i1 << _U1) | _U1, (i0 << _U1) | (i1 >> _U63)
    x_lo = inc_lo + s1
    x_hi = inc_hi + s0 + (x_lo < s1)
    a_lo, a_hi, c_lo, c_hi = _jumps(block)
    p, q = x_lo * a_lo, inc_lo * c_lo
    lo = p + q
    hi = (_mulhi(x_lo, a_lo) + _mulhi(inc_lo, c_lo) + x_hi * a_lo + x_lo * a_hi
          + inc_hi * c_lo + inc_lo * c_hi + (lo < p))
    v = hi ^ lo
    rot = hi >> _U58
    return (v >> rot) | (v << ((_U64 - rot) & _U63))


def _draws_batch(
    seed: int, indices: np.ndarray,
    chain_length: tuple[int, int], catalog_size: int,
    heads_per_request: tuple[int, int], num_candidates: int,
    flow_rate: tuple[float, float],
) -> _Draws:
    """`_draws_each` for every request at once, by uint64 array code, on a
    shape the pass covers (`_covered`).

    The raw outputs come from `_raw_streams`, and every draw runs over the
    requests as a column: the word a request reads next is at its own
    position `at` in the flat word array. Words are read as if none is
    rejected; a request with a rejected word is drawn again by
    `_draws_each`.
    """
    (c_lo, c_hi), (h_lo, h_hi), (lo, hi) = chain_length, heads_per_request, flow_rate
    block = _block(chain_length, heads_per_request, num_candidates)
    raw = _raw_streams(_request_state_words(seed, indices), block)
    count = len(raw)
    words = raw.astype("<u8").view("<u4").astype(np.uint64).ravel()
    at = np.arange(0, 2 * block * count, 2 * block)
    rejected = np.zeros(count, dtype=bool)

    def bounded(span: np.ndarray) -> np.ndarray:
        # ``integers(0, span + 1)`` per request; a span of 0 reads no word
        n = span + _U1
        m = words.take(at) * n
        rejected[:] |= (m & _LOW32) < (_LOW32 - span) % n
        at[:] += span > _U0
        return m >> _U32

    def sample(n: int, sizes: np.ndarray, width: int) -> list[list[int]]:
        # Floyd's method, then the shuffle, `sizes` picks per request
        picks = np.zeros((count, width), dtype=np.uint64)
        top = np.uint64(n) - sizes
        for c in range(width):
            col = np.uint64(c)
            j = np.where(sizes > col, top + col, _U0)  # j = 0 reads no word
            v = bounded(j)
            if c:
                v = np.where((picks[:, :c] == v[:, None]).any(axis=1), j, v)
            picks[:, c] = v
        flat, base = picks.ravel(), np.arange(0, count * width, width)
        for t in map(np.uint64, range(1, width)):  # i = size - 1 down to 1
            i = np.where(sizes > t, sizes - t, _U0)
            a, b = base + i.astype(np.intp), base + bounded(i).astype(np.intp)
            flat[a], flat[b] = flat[b], flat[a]
        return [row[:size] for row, size in zip(picks.tolist(), sizes.tolist())]

    lengths = np.uint64(c_lo) + bounded(np.uint64(c_hi - c_lo))
    chains = sample(catalog_size, lengths, c_hi)
    counts = np.minimum(np.uint64(h_lo) + bounded(np.uint64(h_hi - h_lo)),
                        np.uint64(num_candidates))
    heads = sample(num_candidates, counts, min(h_hi, num_candidates))
    u = (raw.ravel().take((at + 1) // 2) >> _U11) * 2.0**-53
    out = list(zip(chains, heads, (lo + (hi - lo) * u).tolist()))
    again = np.flatnonzero(rejected)
    if len(again):
        redrawn = _draws_each(seed, indices[again].tolist(), chain_length,
                              catalog_size, heads_per_request, num_candidates, flow_rate)
        for i, draw in zip(again.tolist(), redrawn):
            out[i] = draw
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
# Ranges of quantities an instance needs positive (link costs, demands,
# capacities, flow rates): with a lower bound of 0 a draw is hi * u for u a
# multiple of 2**-53, so an upper bound whose least nonzero draw hi * 2**-53
# rounds to 0, an upper bound of 0 among them, draws 0 for many u, not only
# for u = 0 (which `generate_instance` checks for).
_POSITIVE_RANGE_FIELDS = {"link_cost", "node_memory_mb", "nf_memory_mb", "nf_cpu_cores",
                          "flow_rate_mbps"}


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
        if name in _POSITIVE_RANGE_FIELDS and lo == 0 and not hi * 2**-53 > 0:
            raise ValueError(f"{name}: upper bound {hi} is too small for a lower "
                             f"bound of 0: its least nonzero draw rounds to 0")
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
    if not 0 <= params.placement_cost < math.inf:
        raise ValueError("placement_cost: must be finite and >= 0")
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

    # One sized draw gives the floats of one scalar draw per link, in order.
    keys = sorted(link_key(ids[u], ids[v]) for u, v in edges)
    costs = _rng(seed, "link_cost").uniform(*params.link_cost, size=len(keys)).tolist()
    links = [Link(u=a, v=b, cost=cost, capacity_mbps=params.link_capacity_mbps)
             for (a, b), cost in zip(keys, costs)]
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

    The instance is valid by construction, so `model.validate_instance` is
    not run on it: `validate_params` and the construction steps rule out
    each of its violations but two, which are checked here and raise
    GenerationError naming the field. A drawn link cost, node memory, NF
    demand or flow rate must be positive and finite: a range with lower
    bound 0 draws 0 when numpy's double is 0, and a draw near the largest
    float can round to inf. And the destination masses must not all draw 0.
    A destination's probability is then m * fl((1 - stay) / S) for its mass
    m and the masses' float sum S >= m, so at most 1. With the stay
    probability the n destination probabilities sum to 1 within (2n + 2) *
    2**-53, inside `model.MOBILITY_MASS_TOL` for up to 4 million
    destinations, so on any graph of up to 4 million nodes.
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

    memory = _rng(seed, "node_resources").uniform(
        *params.node_memory_mb, size=len(candidates)).tolist()
    node_resources = {k: Resources(memory_mb=mb, cpu_cores=params.node_cpu_cores)
                      for k, mb in zip(candidates, memory)}

    nf_width = len(str(params.catalog_size - 1))
    nf_ids = [f"f{i:0{nf_width}d}" for i in range(params.catalog_size)]
    # One sized draw gives the floats of one scalar draw of memory, then one
    # of cpu, per NF, in order.
    nf_memory, nf_cpu = _rng(seed, "catalog").uniform(
        *zip(params.nf_memory_mb, params.nf_cpu_cores), size=(len(nf_ids), 2)).T.tolist()
    catalog = dict(zip(nf_ids, map(Resources, nf_memory, nf_cpu)))

    rng_mob = _rng(seed, "mobility")
    stay = (float(rng_mob.uniform(0.0, 1.0))
            if params.stay_probability is None else params.stay_probability)
    non_attachment = [x for x in ids if x != attachment]
    d_lo, d_hi = params.num_destinations
    n_dest = min(int(rng_mob.integers(d_lo, d_hi + 1)), len(non_attachment))
    dest_nodes = [str(x) for x in rng_mob.choice(non_attachment, size=n_dest,
                                                 replace=False)]
    masses = rng_mob.uniform(size=n_dest)
    if not masses.any():
        raise GenerationError("destinations: every destination mass drew 0")
    scale = (1.0 - stay) / float(np.sum(masses))
    destinations = {d: float(m * scale) for d, m in zip(dest_nodes, masses)}
    mobility = MobilityProfile(destinations=destinations, stay_probability=stay)

    req_width = len(str(params.batch_size - 1))
    draws = _request_draws(seed, params.batch_size, (
        params.chain_length, len(nf_ids), params.heads_per_request, len(candidates),
        params.flow_rate_mbps))
    requests = [ServiceRequest(id=f"r{idx:0{req_width}d}",
                               chain=tuple(map(nf_ids.__getitem__, chain)),
                               flow_rate_mbps=rate,
                               heads=frozenset(map(candidates.__getitem__, heads)))
                for idx, (chain, heads, rate) in enumerate(draws)]

    placement_cost: dict[str, dict[str, float]] = {}
    if params.placement_cost != 0.0:
        placement_cost = {nf: {k: params.placement_cost for k in candidates}
                          for nf in nf_ids}

    for field, values in (
            ("link_cost", [ln.cost for ln in links]), ("node_memory_mb", memory),
            ("nf_memory_mb", nf_memory), ("nf_cpu_cores", nf_cpu),
            ("flow_rate_mbps", [rate for _, _, rate in draws])):
        if not all(0 < v < math.inf for v in values):
            raise GenerationError(f"{field}: a draw is 0 or infinite")
    return ProblemInstance(
        network=network,
        catalog=catalog,
        node_resources=node_resources,
        requests=tuple(requests),
        placement_cost=placement_cost,
        mobility=mobility,
    )
