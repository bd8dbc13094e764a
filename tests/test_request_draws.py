"""The generator's request draws against numpy's own ``Generator`` calls.

`_request_draws` draws a small batch, or a shape the batch pass does not
cover, with `_draws_each`: the reference loop, numpy's ``integers``,
``choice(replace=False)`` and ``uniform`` on each request's stream,
``SeedSequence(seed, spawn_key=(7, idx))``. From `_BATCH_PER_OUTPUT`
requests per raw output of a request's block on it takes `_draws_batch`, a
uint64 array pass that repeats numpy's algorithms on the streams' raw
outputs. Here every request is drawn by numpy on that stream and by each
path, the batch pass called directly whatever the batch size.
Populations reach 2**31 + 5, where Lemire's method rejects about half of
the words, and numpy's tail-shuffle branch of ``choice``. No population
here makes numpy build a large array.

The batch pass's raw streams are checked against ``PCG64.random_raw``
itself, and a request with a rejected word must be redrawn by
`_draws_each` and still match. `generate_instance` equals
`scenario_reference.requests` on both sides of the crossover.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario_reference
from pccplace import scenario
from pccplace.scenario import (
    _BATCH_PER_OUTPUT,
    ScenarioParams,
    _draws_batch,
    _draws_each,
    _raw_streams,
    _request_state_words,
    generate_instance,
)

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


def batch(seed, indices, *shape):
    return _draws_batch(seed, np.array(indices), *shape)


def assert_draws_match(seed, indices, shape, flow_rate=FLOW, draws=_draws_each):
    """`draws` (`_draws_each` or `batch`) equals numpy on every request."""
    got = draws(seed, indices, *shape, flow_rate)
    assert len(got) == len(indices)
    for idx, (chain, heads, rate) in zip(indices, got):
        want_chain, want_heads, want_rate = numpy_draws(seed, idx, *shape, flow_rate)
        assert chain == want_chain, (seed, idx)
        assert heads == want_heads, (seed, idx)
        assert rate.hex() == want_rate.hex(), (seed, idx)


@pytest.fixture
def handed(monkeypatch):
    """The indices each call of `_draws_each` draws, call by call."""
    calls = []
    draws_each = scenario._draws_each

    def spy(seed, indices, *shape):
        calls.append(list(indices))
        return draws_each(seed, indices, *shape)

    monkeypatch.setattr(scenario, "_draws_each", spy)
    return calls


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
    "longest-in-batch": ((1, 64), 64, (1, 64), 200),  # _BATCH_MAX_LENGTH
}


# Shapes `_request_draws` hands to `_draws_each` whole: a 64-bit span, or a
# chain or head set longer than 64, numpy's tail shuffle among them.
UNCOVERED = {"wide", "tail-shuffle-10001", "tail-shuffle-20000", "floyd-at-the-edges",
             "64-bit-head-count", "64-bit-after-half-word"}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_equals_numpy(seed, shape):
    assert_draws_match(seed, INDICES, shape)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SHAPES)
def test_batch_equals_numpy(seed, name, handed, monkeypatch):
    if name in UNCOVERED:
        # from the crossover on, an uncovered shape still skips the pass
        monkeypatch.setattr(scenario, "_BATCH_PER_OUTPUT", 0)
        monkeypatch.setattr(scenario, "_draws_batch", None)
        indices = list(range(40))
        assert_draws_match(seed, indices, SHAPES[name], draws=lambda seed, indices, *shape:
                           scenario._request_draws(seed, len(indices), shape))
        assert handed == [indices]
        return
    assert scenario._covered((*SHAPES[name], FLOW))
    assert_draws_match(seed, INDICES + list(range(8, 40)), SHAPES[name], draws=batch)
    if "rejections" not in name:
        assert handed == []  # no word of these spans is rejected here


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_streams_equal_random_raw(seed):
    words = _request_state_words(seed, np.array(INDICES))
    for block in range(1, 61):
        raw = _raw_streams(words, block)
        assert raw.dtype == np.uint64 and raw.shape == (len(INDICES), block)
        for row, idx in zip(raw, INDICES):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(7, idx)))
            assert row.tolist() == want.random_raw(block).tolist(), (seed, block)


def test_batch_redraws_rejected_requests(handed):
    # One word a request: the chain's single pick from 2**31 + 5, the low
    # half of the stream's first raw output. Lemire's method rejects it when
    # the low half of word * (2**31 + 5) is below (2**32 - 1 - span) %
    # (span + 1) = 2**31 - 5, about half of the time. Exactly the requests
    # with a rejected word are handed to `_draws_each`, in batch order, and
    # all match numpy.
    indices = list(range(60))
    span = 2**31 + 4
    shape = ((1, 1), span + 1, (1, 1), 1)
    rejected = []
    for idx in indices:
        raw = np.random.PCG64(np.random.SeedSequence(3, spawn_key=(7, idx))).random_raw(1)
        word = int(raw[0]) & 0xFFFF_FFFF
        if (word * (span + 1)) & 0xFFFF_FFFF < (2**32 - 1 - span) % (span + 1):
            rejected.append(idx)
    assert 10 < len(rejected) < 50
    assert_draws_match(3, indices, shape, draws=batch)
    assert handed == [rejected]


def test_flow_rate_range():
    for flow_rate in [(0.0, 1.0), (5.0, 5.0), (1e-3, 1e300)]:
        for draws in (_draws_each, batch):
            assert_draws_match(11, INDICES, SHAPES["default"], flow_rate, draws)


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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**130), idx=st.integers(0, 2**16), shape=shapes())
def test_random_shapes_batch_equal_numpy(seed, idx, shape):
    # a shape the pass does not cover is drawn by `_draws_each`, as
    # `_request_draws` would
    draws = batch if scenario._covered((*shape, FLOW)) else _draws_each
    assert_draws_match(seed, [idx, idx + 1, idx + 5], shape, draws=draws)


def requests_outline(requests):
    return [(r.id, r.chain, sorted(r.heads), r.flow_rate_mbps.hex()) for r in requests]


DEFAULT_BATCH_MIN = _BATCH_PER_OUTPUT * (5 + 5 + 1)  # chains and heads up to 5
# batch sizes at K=30 on both sides of the crossover, and desk shapes as
# perfbench's desk corpora draw them
BATCHES = {str(b): ScenarioParams(num_candidates=30, batch_size=b)
           for b in (1, 2, DEFAULT_BATCH_MIN - 1, DEFAULT_BATCH_MIN, 43, 44, 2000)}
BATCHES.update({f"desk-K{k}-{b}": ScenarioParams(
    num_candidates=k, batch_size=b, chain_length=(1, 2), heads_per_request=(1, 2),
    num_destinations=(1, 1)) for k in (2, 5) for b in (1, 2)})


@pytest.mark.parametrize("params", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("seed", [0, 2**130 + 12345])
def test_generate_instance_equals_reference(params, seed):
    assert (requests_outline(generate_instance(params, seed).requests)
            == requests_outline(scenario_reference.requests(params, seed)))


@pytest.mark.parametrize("shape", [SHAPES["default"], ((3, 5), 10, (1, 20), 200)])
@pytest.mark.parametrize("below", [True, False])
def test_batch_pass_from_batch_min(shape, below, handed, monkeypatch):
    # the crossover is `_BATCH_PER_OUTPUT` requests per raw output of a
    # request's block; below it each request's stream is read by numpy
    (_, c_hi), _, (_, h_hi), num_candidates = shape
    count = _BATCH_PER_OUTPUT * (c_hi + min(h_hi, num_candidates) + 1) - below
    passes = []
    draws_batch = scenario._draws_batch

    def spy(seed, indices, *args):
        passes.append(indices.tolist())
        return draws_batch(seed, indices, *args)

    monkeypatch.setattr(scenario, "_draws_batch", spy)
    scenario._request_draws(4, count, (*shape, FLOW))
    assert passes == ([] if below else [list(range(count))])
    assert handed == ([list(range(count))] if below else [])
