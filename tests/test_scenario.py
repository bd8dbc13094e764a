import dataclasses
import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario_reference
from pccplace import scenario
from pccplace.model import instance_to_json, validate_instance
from pccplace.scenario import (
    GenerationError,
    ScenarioParams,
    _build_graph,
    _request_state_words,
    _rng,
    generate_instance,
    params_from_dict,
    params_to_dict,
    validate_params,
)
from test_request_draws import shapes


class TestGenerateInstance:
    def test_candidate_count_and_degree_bounds(self):
        params = ScenarioParams(num_candidates=20)
        inst = generate_instance(params, seed=42)
        assert len(inst.network.candidates) == 20
        degrees = {n: 0 for n in inst.network.nodes}
        for key in inst.network.link_map:
            degrees[key[0]] += 1
            degrees[key[1]] += 1
        for k in inst.network.candidates:
            assert 2 <= degrees[k] <= 5

    @pytest.mark.parametrize("seed", range(100))
    def test_always_valid_connected_and_degree_bounded(self, seed):
        params = ScenarioParams(num_candidates=6, batch_size=3)
        inst = generate_instance(params, seed=seed)
        assert validate_instance(inst) == []
        assert inst.network.is_connected()
        degrees = {n: 0 for n in inst.network.nodes}
        for key in inst.network.link_map:
            degrees[key[0]] += 1
            degrees[key[1]] += 1
        for k in inst.network.candidates:
            assert 2 <= degrees[k] <= 5

    @pytest.mark.parametrize("seed", range(20))
    def test_mobility_mass_sums_to_one(self, seed):
        inst = generate_instance(ScenarioParams(num_candidates=8), seed=seed)
        mass = inst.mobility.stay_probability + sum(
            inst.mobility.destinations.values())
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_no_mobility_limit(self):
        params = ScenarioParams(num_candidates=8, stay_probability=1.0)
        inst = generate_instance(params, seed=3)
        assert inst.mobility.destinations  # still generated
        assert all(p == 0.0 for p in inst.mobility.destinations.values())
        weights = inst.destination_weights
        assert weights[inst.network.attachment] == 1.0

    def test_deterministic_bytes(self):
        params = ScenarioParams(num_candidates=12, batch_size=20)
        a = instance_to_json(generate_instance(params, seed=99))
        b = instance_to_json(generate_instance(params, seed=99))
        assert a == b

    @pytest.mark.parametrize("params, seed, digest", [
        (ScenarioParams(), 7,
         "21dfdea5e3c8eda68a12c9b0e7044f3e4d83e65abd24c9c4eac64b566ee35040"),
        (ScenarioParams(num_candidates=20, batch_size=200, placement_cost=1.5), 3,
         "9b65907056b9fc8e8c9a32879a90a6b7112c30c4f32fc893d19ff88d56e09fb7"),
        (ScenarioParams(num_candidates=200, batch_size=2000), 1,
         "c691a175e858fc9c58fcfd2a94688d66122a2829a10e7f821009c403b21ddd4e"),
        # a two-word seed, as trial_seed(0, "stay_probability", 0.5, 1) gives
        (ScenarioParams(num_candidates=20, batch_size=200, stay_probability=0.5),
         9041502537324589337,
         "c8260ec8d5b638aea15a49b7bdae0e19c138b8eca799dc61723c026c20ac608c"),
        # a five-word seed: one word past SeedSequence's 4-word pool
        (ScenarioParams(num_candidates=12, batch_size=30), 2**130 + 12345,
         "b0dbc3fd4d01cb5577a59c743fe5a46cd986682f0745e2358561ca6ea211a2d5"),
        # edge shapes: chain length span 0
        (ScenarioParams(num_candidates=12, batch_size=40, chain_length=(1, 1)), 4,
         "2b15842d3ca342550e4b487eed797e9157d068b84343ce3b6d7706d7a6a52aee"),
        # chains as long as the catalog: Floyd's first pick takes no word
        (ScenarioParams(num_candidates=12, batch_size=40, catalog_size=5,
                        chain_length=(3, 5)), 5,
         "9f011ed966a0809c7fcff5bc6a09a7b09543abe43ebea18710c59855017b4b94"),
        # head counts above the candidate count are capped
        (ScenarioParams(num_candidates=4, batch_size=40, heads_per_request=(2, 9)), 6,
         "7976bef97f5a18921280fa88f76ac54fa2c601729b583ba94a4a0c363112f789"),
        # candidates of degree 1: the tree runs through the transit nodes
        (ScenarioParams(num_candidates=10, batch_size=20, degree=(1, 1),
                        transit_fraction=0.5), 0,
         "80448eea3593852846c8c2f532ebb698858538660db9ce3b14ce0c34208329f4"),
        # one transit node
        (ScenarioParams(num_candidates=15, batch_size=30, transit_fraction=0.0), 8,
         "94441307f5384a5228c757b57f2be31de926f4da5f78c16a1041e48581e946f3"),
    ])
    def test_pinned_bytes(self, params, seed, digest):
        # generator output is a contract: these digests hold across releases
        text = instance_to_json(generate_instance(params, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("params, seed, message", [
        (ScenarioParams(num_candidates=10, batch_size=5, degree=(1, 1),
                        transit_fraction=0.0), 0,
         "no attachment point under the degree cap"),
        (ScenarioParams(num_candidates=6, batch_size=5, degree=(3, 3),
                        transit_fraction=0.0), 2,
         "cannot reach degree 3 for candidate n4"),
    ])
    def test_pinned_degree_cap_errors(self, params, seed, message):
        with pytest.raises(GenerationError) as exc:
            generate_instance(params, seed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", None])
    def test_bad_seed_names_seed(self, seed):
        with pytest.raises(ValueError, match="^seed: "):
            generate_instance(ScenarioParams(num_candidates=5), seed)

    def test_numpy_integer_seed_equals_int_seed(self):
        params = ScenarioParams(num_candidates=6, batch_size=5)
        assert (instance_to_json(generate_instance(params, np.uint64(2**40 + 3)))
                == instance_to_json(generate_instance(params, 2**40 + 3)))

    def test_different_seeds_differ(self):
        params = ScenarioParams(num_candidates=12, batch_size=20)
        a = instance_to_json(generate_instance(params, seed=1))
        b = instance_to_json(generate_instance(params, seed=2))
        assert a != b

    def test_gateway_is_node_zero_and_candidate(self):
        inst = generate_instance(ScenarioParams(num_candidates=5), seed=0)
        assert inst.network.gateway == sorted(inst.network.nodes)[0]
        assert inst.network.gateway in inst.network.candidates

    def test_attachment_is_not_gateway(self):
        for seed in range(10):
            inst = generate_instance(ScenarioParams(num_candidates=5), seed=seed)
            assert inst.network.attachment != inst.network.gateway

    def test_chains_are_distinct_nfs_within_length_range(self):
        params = ScenarioParams(num_candidates=8, batch_size=30,
                                chain_length=(3, 5))
        inst = generate_instance(params, seed=11)
        for req in inst.requests:
            assert 3 <= len(req.chain) <= 5
            assert len(set(req.chain)) == len(req.chain)

    def test_heads_are_candidates(self):
        inst = generate_instance(ScenarioParams(num_candidates=8), seed=5)
        for req in inst.requests:
            assert req.heads <= inst.network.candidates

    def test_flow_rates_within_range(self):
        inst = generate_instance(ScenarioParams(num_candidates=8), seed=6)
        for req in inst.requests:
            assert 0.064 <= req.flow_rate_mbps <= 10.0

    def test_placement_cost_default_zero_but_settable(self):
        inst = generate_instance(ScenarioParams(num_candidates=5), seed=1)
        assert inst.placement_cost == {}
        priced = generate_instance(
            ScenarioParams(num_candidates=5, placement_cost=3.0), seed=1)
        assert priced.placing_cost("f0", sorted(priced.network.candidates)[0]) == 3.0
        # pricing must not perturb any other draw
        unpriced = dataclasses.replace(priced, placement_cost={})
        base = generate_instance(ScenarioParams(num_candidates=5), seed=1)
        assert instance_to_json(unpriced) == instance_to_json(base)

    def test_changing_one_stream_leaves_others_alone(self):
        # different flow-rate range: graph, catalog, mobility unchanged
        a = generate_instance(ScenarioParams(num_candidates=6), seed=4)
        b = generate_instance(
            ScenarioParams(num_candidates=6, flow_rate_mbps=(1.0, 2.0)), seed=4)
        assert a.network == b.network
        assert a.catalog == b.catalog
        assert a.mobility == b.mobility
        assert [r.chain for r in a.requests] == [r.chain for r in b.requests]
        assert [r.heads for r in a.requests] == [r.heads for r in b.requests]

    # field: (stream it is drawn from, flat index of a forced draw in each
    # `uniform` call on that stream); a catalog draw is memory then cpu per NF
    FORCED = {"link_cost": ("link_cost", -1), "node_memory_mb": ("node_resources", -1),
              "nf_memory_mb": ("catalog", -2), "nf_cpu_cores": ("catalog", -1),
              "flow_rate_mbps": ("request", -1)}

    @pytest.mark.parametrize("value", [0.0, math.inf])
    @pytest.mark.parametrize("field", FORCED)
    def test_forced_draw_names_field(self, monkeypatch, field, value):
        # 0 is drawn from a zero lower bound when numpy's double is 0, and a
        # draw near the largest float can round to inf
        stream, at = self.FORCED[field]
        force_draws(monkeypatch, stream, at, value)
        params = ScenarioParams(num_candidates=6, batch_size=3, link_cost=(0.0, 100.0),
                                node_memory_mb=(0.0, 16384.0), nf_memory_mb=(0.0, 50.0),
                                nf_cpu_cores=(0.0, 0.25), flow_rate_mbps=(0.0, 10.0))
        with pytest.raises(GenerationError, match=f"^{field}: a draw is 0 or infinite$"):
            generate_instance(params, 0)

    def test_all_destination_masses_zero_raises(self, monkeypatch):
        force_draws(monkeypatch, "mobility", slice(None), 0.0)
        with pytest.raises(GenerationError, match="^destinations: every destination mass"):
            generate_instance(ScenarioParams(num_candidates=6, num_destinations=(3, 3)), 0)

    def test_too_small_for_degree_raises(self):
        with pytest.raises(GenerationError):
            generate_instance(
                ScenarioParams(num_candidates=1, transit_fraction=0.0), seed=0)


def force_draws(monkeypatch, stream, at, value):
    """Make each ``uniform`` call on `stream` return numpy's draw with its
    flat element(s) `at` set to `value`; every other call is numpy's."""
    rng = scenario._rng

    class Forced:
        def __init__(self, real):
            self.real = real

        def uniform(self, *args, **kwargs):
            out = np.array(self.real.uniform(*args, **kwargs))
            out.flat[at] = value
            return out if out.ndim else out[()]

        def __getattr__(self, name):
            return getattr(self.real, name)

    def forced_rng(seed, name, index=None):
        real = rng(seed, name, index)
        return Forced(real) if name == stream else real

    monkeypatch.setattr(scenario, "_rng", forced_rng)


# Range bounds from 0 and subnormals to the largest float.
BOUNDS = st.one_of(st.just(0.0), st.floats(0.0, 2.0**-1000),
                   st.floats(0.0, sys.float_info.max))


@st.composite
def positive_ranges(draw):
    lo, hi = sorted((draw(BOUNDS), draw(BOUNDS)))
    if lo == 0 and not hi * 2**-53 > 0:  # validate_params refuses such a range
        hi = 2.0**-1021  # the least it accepts
    return lo, hi


@st.composite
def scenario_params(draw):
    """Parameters `validate_params` accepts: graphs of up to 60 nodes, request
    shapes as `test_request_draws.shapes` draws them at that size, and every
    positive range drawn by `positive_ranges`."""
    chain_length, catalog_size, heads_per_request, num_candidates = draw(
        shapes(big=st.just(False)))
    d_lo = draw(st.integers(1, 6))
    n_lo = draw(st.integers(1, 40))
    return ScenarioParams(
        num_candidates=num_candidates, batch_size=draw(st.integers(1, 60)),
        degree=(d_lo, draw(st.integers(d_lo, 8))), heads_per_request=heads_per_request,
        num_destinations=(n_lo, draw(st.integers(n_lo, 80))),
        chain_length=chain_length, catalog_size=catalog_size,
        link_capacity_mbps=draw(st.floats(0.0, math.inf, exclude_min=True)),
        node_cpu_cores=draw(st.floats(0.0, math.inf, exclude_min=True)),
        placement_cost=draw(BOUNDS),
        stay_probability=draw(st.none() | st.floats(0.0, 1.0)),
        transit_fraction=draw(st.floats(0.0, 1.0)),
        **{field: draw(positive_ranges()) for field in (
            "link_cost", "node_memory_mb", "nf_memory_mb", "nf_cpu_cores", "flow_rate_mbps")})


@settings(max_examples=200, deadline=None)
@given(params=scenario_params(), seed=st.integers(0, 2**70))
def test_generated_instances_are_valid(params, seed):
    # valid by construction, or refused by the graph builder with its own error
    validate_params(params)
    try:
        inst = generate_instance(params, seed)
    except GenerationError as exc:
        with pytest.raises(GenerationError) as built:
            _build_graph(params, seed)
        assert str(built.value) == str(exc)
        return
    assert validate_instance(inst) == []


class TestParams:
    def test_defaults_are_valid(self):
        validate_params(ScenarioParams())

    def test_bad_range_names_field(self):
        with pytest.raises(ValueError, match="chain_length"):
            validate_params(ScenarioParams(chain_length=(5, 3)))
        with pytest.raises(ValueError, match="batch_size"):
            validate_params(ScenarioParams(batch_size=0))
        with pytest.raises(ValueError, match="stay_probability"):
            validate_params(ScenarioParams(stay_probability=1.5))

    @pytest.mark.parametrize("field, value", [
        ("link_cost", (math.nan, 5.0)),
        ("nf_cpu_cores", (math.nan, 0.2)),
        ("flow_rate_mbps", (0.1, math.nan)),
        ("node_memory_mb", (math.nan, math.nan)),
        ("link_cost", (1.0, math.inf)),
        ("link_capacity_mbps", math.nan),
        ("node_cpu_cores", math.nan),
        ("placement_cost", math.nan),
    ], ids=["link_cost-nan-low", "nf_cpu_cores-nan-low", "flow_rate_mbps-nan-high",
            "node_memory_mb-nan-both", "link_cost-inf-high", "link_capacity_mbps-nan",
            "node_cpu_cores-nan", "placement_cost-nan"])
    def test_non_finite_bound_names_field(self, field, value):
        # NaN fails every comparison, so each check must be one NaN fails
        with pytest.raises(ValueError, match=field):
            validate_params(dataclasses.replace(ScenarioParams(), **{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("placement_cost", math.inf),
        ("link_cost", (0.0, 0.0)),
        ("flow_rate_mbps", (0.0, 0.0)),
        ("nf_memory_mb", (0.0, 0.0)),
        ("nf_cpu_cores", (0.0, 0.0)),
        ("node_memory_mb", (0.0, 0.0)),
        # a zero lower bound with an upper bound whose least nonzero draw,
        # hi * 2**-53, rounds to 0
        ("link_cost", (0.0, 5e-324)),
        ("flow_rate_mbps", (0.0, 5e-324)),
        ("nf_memory_mb", (0.0, 5e-324)),
        ("nf_cpu_cores", (0.0, 1e-320)),
        ("node_memory_mb", (0.0, 2.0**-1022)),
    ])
    def test_invalid_instance_params_name_field(self, field, value):
        # each would yield only instances that fail validation on an entity
        # such as r0 or f0; the field is named before anything is built
        params = dataclasses.replace(ScenarioParams(), **{field: value})
        with pytest.raises(ValueError, match=f"^{field}: "):
            validate_params(params)
        with pytest.raises(ValueError, match=f"^{field}: "):
            generate_instance(params, 1)
        if isinstance(value, tuple):  # a zero lower bound alone stays valid
            validate_params(dataclasses.replace(params, **{field: (0.0, 1.0)}))
            # the least upper bound whose least nonzero draw is nonzero
            validate_params(dataclasses.replace(params, **{field: (0.0, 2.0**-1021)}))

    @pytest.mark.parametrize("field", ["degree", "heads_per_request",
                                       "num_destinations", "chain_length"])
    def test_int_range_beyond_int64_names_field(self, field):
        # numpy's int64 draws raised on these; the request draws do not
        params = dataclasses.replace(ScenarioParams(catalog_size=2**64),
                                     **{field: (1, 2**63)})
        with pytest.raises(ValueError, match=f"^{field}: upper bound"):
            validate_params(params)
        validate_params(dataclasses.replace(params, **{field: (1, 2**63 - 1)}))

    def test_chain_longer_than_catalog_rejected(self):
        with pytest.raises(ValueError, match="chain_length"):
            validate_params(ScenarioParams(catalog_size=3, chain_length=(3, 5)))

    def test_round_trip_dict(self):
        params = ScenarioParams(num_candidates=25, stay_probability=0.5)
        again = params_from_dict(params_to_dict(params))
        assert again == params

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            params_from_dict({"mystery": 1})

    def test_range_shape_enforced(self):
        with pytest.raises(ValueError, match="chain_length"):
            params_from_dict({"chain_length": 4})

    def test_overrides_from_dict(self):
        params = params_from_dict({"num_candidates": 30,
                                   "chain_length": [2, 4],
                                   "stay_probability": None})
        assert params.num_candidates == 30
        assert params.chain_length == (2, 4)
        assert params.stay_probability is None


class TestRequestStreams:
    """The batch pass's seeding words against numpy's SeedSequence."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**130 + 12345]
    INDICES = [0, 1, 2**16, 4999]

    @pytest.fixture(scope="class")
    def words(self):
        return {seed: _request_state_words(seed, np.arange(2**16 + 1))
                for seed in self.SEEDS}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_seed_sequence_state(self, words, seed):
        for idx in self.INDICES:
            ref = np.random.SeedSequence(entropy=seed, spawn_key=(7, idx))
            assert words[seed].dtype == np.uint64
            assert words[seed][idx].tolist() == ref.generate_state(4, np.uint64).tolist()


class TestGraphBuilder:
    """`_build_graph` against `scenario_reference`, which rebuilds its
    attachment and partner lists for every link: the same links in the same
    order with the same cost bits, or the same error text."""

    @staticmethod
    def outcome(build, params, seed):
        try:
            ids, candidates, links = build(params, seed)
        except GenerationError as exc:
            return str(exc)
        return ids, candidates, [(l.u, l.v, l.cost.hex(), l.capacity_mbps)
                                 for l in links]

    @pytest.mark.parametrize("num_candidates", [1, 2, 3, 20, 200])
    @pytest.mark.parametrize("degree", [(1, 1), (1, 2), (2, 2), (2, 5), (3, 3), (4, 6)])
    def test_equals_reference(self, num_candidates, degree):
        for transit_fraction in (0.0, 0.1, 0.5, 1.0):
            params = ScenarioParams(num_candidates=num_candidates, degree=degree,
                                    transit_fraction=transit_fraction)
            for seed in range(2 if num_candidates == 200 else 4):
                assert (self.outcome(_build_graph, params, seed)
                        == self.outcome(scenario_reference._build_graph, params, seed))
