"""The generator's request draws against numpy's own ``Generator`` calls.

`_request_draws` reads each request's raw PCG64 outputs and repeats numpy's
algorithms in integer code. Here every request is drawn both ways on the
same stream, ``SeedSequence(seed, spawn_key=(7, idx))``: with
``integers``, ``choice(replace=False)`` and ``uniform``, as the generator
once called them, and with `_request_draws`. Populations reach 2**31 + 5,
where Lemire's method rejects about half of the words, and numpy's
tail-shuffle branch of ``choice``. No population here makes numpy build a
large array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccplace import scenario
from pccplace.scenario import _bounded, _request_draws, _request_state_words

SEEDS = [0, 1, 2**32, 2**63 - 1, 2**130 + 12345]
INDICES = [0, 1, 7, 4999]
FLOW = (0.064, 10.0)


def numpy_draws(seed, idx, chain_length, catalog_size, heads_per_request,
                num_candidates, flow_rate=FLOW):
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(7, idx))))
    length = int(rng.integers(chain_length[0], chain_length[1] + 1))
    chain = rng.choice(catalog_size, size=length, replace=False).tolist()
    count = min(int(rng.integers(heads_per_request[0], heads_per_request[1] + 1)),
                num_candidates)
    heads = rng.choice(num_candidates, size=count, replace=False).tolist()
    return chain, heads, float(rng.uniform(*flow_rate))


class CountingPCG64:
    """The PCG64 interface `_request_draws` uses, counting ``random_raw`` calls."""

    def __init__(self):
        self.bitgen = np.random.PCG64()
        self.raw_calls = 0

    @property
    def state(self):
        return self.bitgen.state

    @state.setter
    def state(self, value):
        self.bitgen.state = value

    def random_raw(self, size):
        self.raw_calls += 1
        return self.bitgen.random_raw(size)


def assert_draws_match(seed, indices, shape, flow_rate=FLOW):
    """`_request_draws` equals numpy on every request; returns the number of
    requests that read past their first block."""
    words = _request_state_words(seed, max(indices) + 1)[indices].tolist()
    bitgen = CountingPCG64()
    got = _request_draws(bitgen, words, *shape, flow_rate)
    for idx, (chain, heads, rate) in zip(indices, got):
        want_chain, want_heads, want_rate = numpy_draws(seed, idx, *shape, flow_rate)
        assert chain == want_chain, (seed, idx)
        assert heads == want_heads, (seed, idx)
        assert rate.hex() == want_rate.hex(), (seed, idx)
    return bitgen.raw_calls - len(indices)


# (chain_length, catalog_size, heads_per_request, num_candidates)
SHAPES = {
    "default": ((3, 5), 10, (1, 5), 20),
    "one-and-one": ((1, 1), 1, (1, 1), 1),  # spans of 0 everywhere
    "two": ((1, 2), 2, (2, 2), 2),
    "chain-is-catalog": ((3, 5), 5, (1, 5), 20),  # Floyd's j = 0 takes no word
    "heads-above-candidates": ((3, 5), 10, (2, 9), 4),
    "wide": ((1, 60), 200, (1, 200), 200),
    "rejections": ((6, 6), 2**31 + 5, (1, 6), 2**31 + 5),
    "full-word": ((1, 4), 2**32, (1, 2), 2**32 - 1),  # span 2**32 - 1
    "tail-shuffle-10001": ((201, 201), 10001, (1, 3), 20),
    "tail-shuffle-20000": ((1, 2), 20, (380, 401), 20000),
    "floyd-at-the-edges": ((200, 200), 10001, (201, 201), 10000),
    "count-rejections": ((1, 3), 10, (1, 2**31 + 4), 7),
    "64-bit-head-count": ((1, 3), 10, (1, 2**40), 7),
    "64-bit-after-half-word": ((2, 2), 3, (2**33, 2**33 + 2**35), 9),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_equals_numpy(seed, shape):
    assert_draws_match(seed, INDICES, shape)


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_equals_integers(seed):
    # 32- and 64-bit spans in turn, each after an odd and an even number of
    # words: a 64-bit draw leaves a buffered half-word for the next 32-bit
    # one. 2**62 + 1 and 2**31 + 4 reject about a quarter and half of draws.
    spans = [10, 2**40, 7, 2**31 + 4, 2**62 + 1, 2**62 + 1, 3, 0, 2**32 - 1,
             2**63 - 1, 2**33, 5, 2**31 + 4, 2**62 + 1, 9] * 4
    rng = np.random.Generator(np.random.PCG64(seed))
    want = [int(rng.integers(0, span + 1)) for span in spans]
    w = np.random.PCG64(seed).random_raw(300).astype("<u8").view("<u4").tolist()
    got, k = [], 0
    for span in spans:
        value, k = _bounded(w, k, span)
        got.append(value)
    assert got == want


def test_rejections_read_past_the_block():
    # half of the words are rejected at 2**31 + 5: the re-read runs
    assert assert_draws_match(3, list(range(40)), SHAPES["rejections"]) > 0


def test_fault_raises_after_bounded_rereads(monkeypatch):
    # an IndexError that more words cannot cure must surface, not loop
    def broken(w, k, n, size):
        return [][0]

    monkeypatch.setattr(scenario, "_sample", broken)
    bitgen = CountingPCG64()
    words = _request_state_words(1, 1).tolist()
    with pytest.raises(IndexError):
        _request_draws(bitgen, words, *SHAPES["default"], FLOW)
    assert bitgen.raw_calls == 1 + 8  # the block, then 2, 4, ..., 256 blocks


def test_flow_rate_range():
    for flow_rate in [(0.0, 1.0), (5.0, 5.0), (1e-3, 1e300)]:
        assert_draws_match(11, INDICES, SHAPES["default"], flow_rate)


@st.composite
def shapes(draw):
    big = draw(st.booleans())
    catalog_size = draw(st.integers(1, 2**31 + 5) if big else st.integers(1, 30))
    num_candidates = draw(st.integers(1, 2**31 + 5) if big else st.integers(1, 30))
    c_hi = draw(st.integers(1, min(catalog_size, 12)))
    c_lo = draw(st.integers(1, c_hi))
    h_lo = draw(st.integers(1, 12))
    h_hi = draw(st.integers(h_lo, h_lo + draw(st.sampled_from([0, 3, 12, 2**31 + 4, 2**40]))))
    if num_candidates > 10000:  # keep numpy's choice off its tail shuffle
        h_hi = min(h_hi, 12)
    return (c_lo, c_hi), catalog_size, (h_lo, h_hi), num_candidates


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**130), idx=st.integers(0, 2**16), shape=shapes())
def test_random_shapes_equal_numpy(seed, idx, shape):
    assert_draws_match(seed, [idx], shape)
