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
uint64)`` as uint32 array operations over all requests. For a small batch
`_pcg64_state` applies PCG64's seeding step to each request's words, and
one generator is set to each state in turn. Both are tested against
``_rng`` itself, so stream (7, idx) stays the one the spawn-key contract
names.

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

For a large enough batch (below), `_draws_batch` draws the whole batch in
one uint64 array pass, and each request's draws equal `_draws_each`'s:

- The raw outputs need no generator. Every stream steps the same LCG, s ->
  s * M + inc modulo 2**128, so t steps jump in closed form (Brown 1994,
  "Random number generation with arbitrary strides"). Output t of a stream
  seeded with x = inc + initstate reads the state x * M**(t + 2) + inc *
  (1 + M + ... + M**(t + 1)): seeding steps once from x, and each output
  steps once more. PCG64 outputs a state by XSL-RR, ``rotr64(hi ^ lo, hi
  >> 58)`` (O'Neill 2014, HMC-CS-2014-0905). `_raw_streams` takes the jump
  constants as Python ints per block length and the products as uint64
  array operations on 32-bit halves.
- The draws listed above run column by column: each one over all requests
  at once, each request reading its own next word. Every word is taken as
  accepted. Lemire's method returns ``m >> 32`` of the first word whose
  ``m`` has a low half not below the threshold, so for a request with no
  word below its threshold one word per draw is what numpy reads, and its
  values, picks and swaps are numpy's. Such a request reads only the words
  its block holds, so none runs past its block. A request with a word below
  its threshold is drawn again, whole, by `_draws_each`.
- A shape with a span of 2**32 or more (a 64-bit draw, which also moves the
  buffered half-word), or with chains or head sets longer than
  `_BATCH_MAX_LENGTH` = 64, is drawn by `_draws_each` whole. The length
  bound also keeps numpy's tail shuffle out, which needs a size above n //
  50 > 200. Longer sets gain nothing, since each pick is checked against
  every earlier one: heads of 1-150 of 200 candidates take 27.1 ms in the
  per-request code against 28.8 ms in the pass at 624 requests, and 99
  against 102 ms at 2000.
- The pass costs some twenty numpy calls per column, and it has about two
  columns per raw output of a request's block, while the per-request code
  costs about 9 us a request at the default shape. So `_request_draws`
  takes the pass from `_BATCH_PER_OUTPUT` = 4 requests per raw output of
  the block on. Measured in ms, per-request code / pass (2 vCPUs, numpy
  2.4, best of 9), at 3, 4 and 5 requests per raw output:

  ======================================  =========  =========  =========
  shape (block)                           3          4          5
  ======================================  =========  =========  =========
  default: chains 3-5, heads 1-5 (11)     0.33/0.41  0.44/0.42  0.55/0.44
  heads 1-20 of 200 (26)                  1.04/1.02  1.41/1.12  1.78/1.30
  heads 1-64 of 200 (70)                  5.25/4.64  6.47/5.91  8.29/7.04
  chains 1-64 of 200 (70)                 4.56/4.67  6.50/5.50  8.33/6.19
  ======================================  =========  =========  =========

  At 2000 requests the default shape takes 19.2 against 4.2 ms.

`tests/test_request_draws.py` checks every branch of both paths against
``Generator`` itself, Lemire rejections included.
"""

from __future__ import annotations

import dataclasses
import functools
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


_Draws = list[tuple[list[int], list[int], float]]


def _request_draws(
    bitgen: np.random.PCG64, state_words: np.ndarray,
    chain_length: tuple[int, int], catalog_size: int,
    heads_per_request: tuple[int, int], num_candidates: int,
    flow_rate: tuple[float, float],
) -> _Draws:
    """(chain indices, head indices, flow rate) of each request whose stream
    is seeded from a row of `state_words` (see the module docstring): by
    `_draws_batch` from `_BATCH_PER_OUTPUT` requests per raw output of a
    request's block on, else by `_draws_each`. `bitgen` is set to the
    streams the per-request code reads."""
    shape = (chain_length, catalog_size, heads_per_request, num_candidates, flow_rate)
    if len(state_words) < _BATCH_PER_OUTPUT * _block(chain_length, heads_per_request,
                                                     num_candidates):
        return _draws_each(bitgen, state_words.tolist(), *shape)
    return _draws_batch(bitgen, state_words, *shape)


def _block(chain_length: tuple[int, int], heads_per_request: tuple[int, int],
           num_candidates: int) -> int:
    """The raw outputs a request's draws read when no word is rejected."""
    return chain_length[1] + min(heads_per_request[1], num_candidates) + 1


def _draws_each(
    bitgen: np.random.PCG64, state_words: list[list[int]],
    chain_length: tuple[int, int], catalog_size: int,
    heads_per_request: tuple[int, int], num_candidates: int,
    flow_rate: tuple[float, float],
) -> _Draws:
    """`_request_draws`, one request at a time, on `bitgen` set to each
    stream in turn.

    Each stream's block holds the raw outputs its draws take when no word is
    rejected; a request that runs past its block reads its stream again with
    a block twice as long. Lemire's method rejects less than half of the
    words, so a request that still runs past 256 blocks is a fault, and its
    IndexError is raised.
    """
    (c_lo, c_hi), (h_lo, h_hi), (lo, hi) = chain_length, heads_per_request, flow_rate
    block = _block(chain_length, heads_per_request, num_candidates)
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


# `_request_draws` takes the batch pass from this many requests per raw
# output of a request's block (44 requests at the default shape), and the
# pass draws chains and head sets up to `_BATCH_MAX_LENGTH` long; see the
# module docstring for the measurements.
_BATCH_PER_OUTPUT = 4
_BATCH_MAX_LENGTH = 64

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
    ``state_words[i]`` (see `_pcg64_state`), as one uint64 array.

    Output t reads the state x * M**(t + 2) + inc * (1 + M + ... + M**(t +
    1)) modulo 2**128, with x = inc + initstate: seeding steps the LCG once
    from x, and each output steps it once more. On 64-bit words the low
    word is the sum of the two low-by-low products modulo 2**64; the high
    word adds their high halves (`_mulhi`), the four cross products modulo
    2**64 and the carry of the low sum. The output is XSL-RR: ``rotr64(hi ^
    lo, hi >> 58)``.
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


def _covered(n: int, size: int) -> bool:
    """Whether the batch pass draws ``choice(n, k, replace=False)`` for
    every k up to `size`: by Floyd's method on 32-bit words, and no longer
    than `_BATCH_MAX_LENGTH`. numpy's tail shuffle needs k > n // 50 > 200."""
    return n <= 2**32 and size <= _BATCH_MAX_LENGTH


def _draws_batch(
    bitgen: np.random.PCG64, state_words: np.ndarray,
    chain_length: tuple[int, int], catalog_size: int,
    heads_per_request: tuple[int, int], num_candidates: int,
    flow_rate: tuple[float, float],
) -> _Draws:
    """`_request_draws` for every request at once, by uint64 array code.

    The raw outputs come from `_raw_streams`, and every draw runs over the
    requests as a column: the word a request reads next is at its own
    position `at` in the flat word array. Words are read as if none is
    rejected; a request with a rejected word is drawn again by
    `_draws_each`. A shape with a 64-bit span, or with chains or head sets
    longer than `_BATCH_MAX_LENGTH`, is drawn by `_draws_each` whole.
    """
    (c_lo, c_hi), (h_lo, h_hi), (lo, hi) = chain_length, heads_per_request, flow_rate
    h_top = min(h_hi, num_candidates)
    if not (h_hi - h_lo <= _MASK32 and _covered(catalog_size, c_hi)
            and _covered(num_candidates, h_top)):
        return _draws_each(bitgen, state_words.tolist(), chain_length, catalog_size,
                           heads_per_request, num_candidates, flow_rate)
    block = _block(chain_length, heads_per_request, num_candidates)
    raw = _raw_streams(state_words, block)
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
    heads = sample(num_candidates, counts, h_top)
    u = (raw.ravel().take((at + 1) // 2) >> _U11) * 2.0**-53
    out = list(zip(chains, heads, (lo + (hi - lo) * u).tolist()))
    again = np.flatnonzero(rejected)
    if len(again):
        redrawn = _draws_each(bitgen, state_words[again].tolist(), chain_length,
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
        rng_mob.bit_generator, _request_state_words(seed, params.batch_size),
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
