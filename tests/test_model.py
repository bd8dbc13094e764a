import json
import random

import numpy as np
import pytest

from pccplace.evaluation import check_constraints
from pccplace.graph import shortest_paths
from pccplace.model import (
    MobilityProfile,
    ParseError,
    Placement,
    Violation,
    build_placement,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    placement_index_violations,
    placement_to_json,
    validate_instance,
)
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import make_instance


def codes(violations):
    return {v.code for v in violations}


class TestValidateInstance:
    def test_well_formed(self, tiny1):
        assert validate_instance(tiny1) == []

    def test_mobility_mass_exceeded(self, tiny1):
        bad = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d": 1.0}, stay=0.2,
        )
        assert "MobilityMassExceeded" in codes(validate_instance(bad))

    def test_mobility_mass_deficit(self, tiny1):
        bad = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"b": 0.5}, stay=0.0,
        )
        assert "MobilityMassDeficit" in codes(validate_instance(bad))

    def test_unknown_nf(self):
        bad = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f9"], 1.0, ["a"])],
            destinations={"b": 1.0},
        )
        assert "UnknownNF" in codes(validate_instance(bad))

    def test_disconnected(self):
        bad = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"b": 1.0}, nodes=["a", "b", "z"],
        )
        assert "GraphDisconnected" in codes(validate_instance(bad))

    def test_negative_link_cost_and_self_loop(self):
        bad = make_instance(
            links=[("a", "b", -1.0), ("b", "b", 1.0), ("a", "b", 2.0)],
            candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"b": 1.0},
        )
        found = codes(validate_instance(bad))
        assert {"NonPositiveLinkCost", "SelfLoopLink", "DuplicateLink"} <= found

    def test_unknown_link_endpoint(self):
        # a link to a node outside `nodes` is reported, not a KeyError from
        # the adjacency that the connectivity check builds
        data = instance_to_dict(generate_instance(ScenarioParams(), 0))
        data["network"]["links"].append({"u": "n0", "v": "zz", "cost": 1.0,
                                         "capacity_mbps": 1.0})
        found = validate_instance(instance_from_dict(data))
        assert [(v.code, v.detail) for v in found] == [("UnknownLinkEndpoint", "link n0-zz")]

    def test_infinite_link_cost(self):
        bad = make_instance(
            links=[("a", "b", float("inf"), float("inf"))], candidates=["b"],
            gateway="a", attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"b": 1.0},
        )
        # an infinite capacity stays legal
        assert codes(validate_instance(bad)) == {"InfiniteLinkCost"}

    @pytest.mark.parametrize("cost", [-1.0, float("nan")])
    def test_negative_or_nan_placement_cost(self, cost):
        bad = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"b": 1.0}, placement_cost={"f1": {"b": cost}},
        )
        assert codes(validate_instance(bad)) == {"NegativePlacementCost"}

    def test_missing_node_resources(self):
        bad = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 1.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"c": 1.0},
            node_resources={"b": (100.0, 4.0)},
        )
        assert "MissingNodeResources" in codes(validate_instance(bad))

    def test_empty_batch_and_heads(self):
        bad = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, [])],
            destinations={"b": 1.0},
        )
        assert "EmptyHeads" in codes(validate_instance(bad))

    def test_repeated_nf_in_chain(self):
        bad = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1", "f1"], 1.0, ["a"])],
            destinations={"b": 1.0},
        )
        assert "RepeatedNFInChain" in codes(validate_instance(bad))

    def test_violation_str(self):
        assert "UnknownNF" in str(Violation("UnknownNF", "r1: f9"))


class TestDestinationWeights:
    def test_attachment_gets_stay_probability(self, tiny1):
        assert tiny1.destination_weights == {"a": 0.0, "d": 1.0}

    def test_attachment_in_destinations_merges(self):
        inst = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"a": 0.25, "b": 0.25}, stay=0.5,
        )
        assert inst.destination_weights == {"a": 0.75, "b": 0.25}


class TestPairArrays:
    """`pair_arrays` is built from the requests; it equals the arrays read
    off `pair_order`'s tuples element for element."""

    @staticmethod
    def from_pair_order(inst):
        index, weights = inst.network.node_index, inst.destination_weights
        position = {req.id: r for r, req in enumerate(inst.requests)}
        order = inst.pair_order
        return ([position[req.id] for req, _, _ in order],
                [index[s] for _, s, _ in order],
                [index[d] for _, _, d in order],
                [weights[d].hex() for _, _, d in order])

    @pytest.mark.parametrize("params, seed", [
        (ScenarioParams(), 1),
        (ScenarioParams(num_candidates=20, batch_size=200), 2),
        (ScenarioParams(num_candidates=60, batch_size=30, stay_probability=0.0), 3),
        (ScenarioParams(num_candidates=5, batch_size=40, heads_per_request=(1, 1),
                        num_destinations=(1, 1), stay_probability=1.0), 4),
    ])
    def test_equals_pair_order(self, params, seed):
        inst = generate_instance(params, seed)
        request, head, dest, weight = inst.pair_arrays
        assert request.dtype == head.dtype == dest.dtype == np.intp
        assert weight.dtype == np.float64
        assert (request.tolist(), head.tolist(), dest.tolist(),
                [w.hex() for w in weight.tolist()]) == self.from_pair_order(inst)
        assert not any(a.flags.writeable for a in inst.pair_arrays)

    def test_hand_built_instance(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
            candidates=["b", "c"], gateway="a", attachment="b",
            requests=[("r1", ["f1"], 1.0, ["d", "a"]), ("r2", ["f1"], 1.0, ["c"])],
            destinations={"d": 0.7, "a": 0.1}, stay=0.2)
        request, head, dest, weight = inst.pair_arrays
        assert request.tolist() == [0] * 6 + [1] * 3
        assert head.tolist() == [0, 0, 0, 3, 3, 3, 2, 2, 2]
        assert dest.tolist() == [0, 1, 3] * 3
        assert weight.tolist() == [0.1, 0.2, 0.7] * 3
        assert (request.tolist(), head.tolist(), dest.tolist(),
                [w.hex() for w in weight.tolist()]) == self.from_pair_order(inst)


class TestInstanceSerialization:
    def test_round_trip_is_canonical(self, tiny1):
        text = instance_to_json(tiny1)
        again = instance_to_json(instance_from_json(text))
        assert text == again

    def test_missing_mobility_key(self, tiny1):
        data = instance_to_dict(tiny1)
        del data["mobility"]
        with pytest.raises(ParseError) as err:
            instance_from_json(json.dumps(data))
        assert "$.mobility" in str(err.value)

    def test_unknown_field_rejected(self, tiny1):
        data = instance_to_dict(tiny1)
        data["surprise"] = 1
        with pytest.raises(ParseError) as err:
            instance_from_json(json.dumps(data))
        assert "unknown field" in str(err.value)

    def test_nested_unknown_field_rejected(self, tiny1):
        data = instance_to_dict(tiny1)
        data["network"]["extra"] = []
        with pytest.raises(ParseError) as err:
            instance_from_json(json.dumps(data))
        assert "$.network.extra" in str(err.value)

    def test_type_error_has_path(self, tiny1):
        data = instance_to_dict(tiny1)
        data["mobility"]["stay_probability"] = "zero"
        with pytest.raises(ParseError) as err:
            instance_from_json(json.dumps(data))
        assert "$.mobility.stay_probability" in str(err.value)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            instance_from_json("{not json")

    @pytest.mark.parametrize("digits, path", [
        (400, "$.mobility.stay_probability"),  # float() overflows
        (5000, "$"),  # json.loads passes int's string-conversion limit
    ])
    def test_integer_beyond_float_range_has_path(self, tiny1, digits, path):
        text = instance_to_json(tiny1)
        assert text.count('"stay_probability": 0.0') == 1
        text = text.replace('"stay_probability": 0.0', '"stay_probability": 1' + "0" * digits)
        with pytest.raises(ParseError) as err:
            instance_from_json(text)
        assert err.value.path == path

    def test_generated_instance_round_trips_bit_exactly(self):
        params = ScenarioParams(num_candidates=20, batch_size=10)
        inst = generate_instance(params, seed=42)
        text = instance_to_json(inst)
        again = instance_to_json(instance_from_json(text))
        assert text == again

    def test_zero_placement_costs_serialize_sparse(self, tiny1):
        data = instance_to_dict(tiny1)
        assert data["placement_cost"] == {}


class TestPlacementSerialization:
    def test_round_trip(self, tiny1):
        """A placement file is the sorted x and y entries, and no z."""
        placement = build_placement(tiny1, {("r1", 1): "b"})
        data = json.loads(placement_to_json(placement))
        assert data == {"x": [["r1", "f1", "b"]],
                        "y": [["r1", "f1", "b", "a", "a"],
                              ["r1", "f1", "b", "a", "d"]]}


def paths_for(instance):
    return shortest_paths(instance.network, instance.relevant_nodes)


def families(violations):
    return {v.constraint for v in violations}


class TestPlacementStructure:
    """The structural rows of :func:`check_constraints`: 5e (every position
    visited) and 5f (every visit hosted), plus the index check."""

    def test_valid_placement(self, tiny1):
        placement = build_placement(tiny1, {("r1", 1): "b"})
        assert placement_index_violations(tiny1, placement) == []
        assert check_constraints(tiny1, placement, paths_for(tiny1)) == []

    def test_missing_visit(self, tiny1):
        placement = build_placement(tiny1, {})
        found = check_constraints(tiny1, placement, paths_for(tiny1))
        assert [(v.constraint, v.index) for v in found] == [
            ("5e", ("r1", "a", "a", 1)), ("5e", ("r1", "a", "d", 1))]

    def test_visit_without_hosting(self, tiny1):
        good = build_placement(tiny1, {("r1", 1): "b"})
        corrupted = Placement(x=frozenset(), y=good.y)
        found = check_constraints(tiny1, corrupted, paths_for(tiny1))
        assert [(v.constraint, v.index) for v in found] == [
            ("5f", ("r1", "f1", "b", "a", "a")), ("5f", ("r1", "f1", "b", "a", "d"))]

    def test_unknown_node_in_y(self, tiny1):
        good = build_placement(tiny1, {("r1", 1): "b"})
        corrupted = Placement(x=good.x | {("r1", "f1", "q")},
                              y=good.y | {("r1", "f1", "q", "a", "d")})
        found = placement_index_violations(tiny1, corrupted)
        assert [str(v) for v in found if v.code == "UnknownNode"] == [
            "UnknownNode: x[r1,f1,q]", "UnknownNode: y[r1,f1,q,a,d]"]

    @pytest.mark.parametrize("seed", range(30))
    def test_random_bit_flips_are_caught(self, tiny1, seed):
        """Any y add/remove or x removal breaks 5e or 5f."""
        rng = random.Random(seed)
        good = build_placement(tiny1, {("r1", 1): "b"})
        x, y = set(good.x), set(good.y)
        kind = rng.choice(["drop_y", "add_y", "drop_x"])
        if kind == "drop_y":
            y.remove(rng.choice(sorted(y)))
        elif kind == "add_y":
            candidates = [
                ("r1", "f1", k, s, d)
                for k in ("b", "c") for s in ("a",) for d in ("a", "d")
                if ("r1", "f1", k, s, d) not in y
            ]
            y.add(rng.choice(candidates))
        else:
            x.remove(rng.choice(sorted(x)))
        corrupted = Placement(x=frozenset(x), y=frozenset(y))
        found = families(check_constraints(tiny1, corrupted, paths_for(tiny1)))
        assert found == {"5e" if kind == "drop_y" else "5f"}
