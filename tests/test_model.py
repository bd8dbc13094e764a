import json
import random

import pytest

from pccplace.model import (
    MobilityProfile,
    ParseError,
    Placement,
    Violation,
    build_placement,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    placement_from_json,
    placement_structure_violations,
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
        placement = build_placement(tiny1, {("r1", 1): "b"})
        text = placement_to_json(placement)
        assert placement_from_json(text) == placement

    def test_z_entries_preserved(self):
        placement = Placement(
            x=frozenset({("r1", "f1", "b")}),
            y=frozenset({("r1", "f1", "b", "a", "d")}),
            z=frozenset({("r1", "f1", "f2", "b", "c", "a", "d")}),
        )
        assert placement_from_json(placement_to_json(placement)) == placement

    def test_bad_arity_rejected(self):
        with pytest.raises(ParseError):
            placement_from_json('{"x": [["r1", "f1"]], "y": []}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            placement_from_json('{"x": [], "y": [], "w": []}')


class TestPlacementStructure:
    def test_valid_placement(self, tiny1):
        placement = build_placement(tiny1, {("r1", 1): "b"})
        assert placement_structure_violations(tiny1, placement) == []

    def test_missing_visit(self, tiny1):
        placement = build_placement(tiny1, {})
        found = codes(placement_structure_violations(tiny1, placement))
        assert "MissingVisit" in found

    def test_visit_without_hosting(self, tiny1):
        good = build_placement(tiny1, {("r1", 1): "b"})
        corrupted = Placement(x=frozenset(), y=good.y)
        found = codes(placement_structure_violations(tiny1, corrupted))
        assert "VisitWithoutHosting" in found

    def test_duplicate_visit(self, tiny1):
        good = build_placement(tiny1, {("r1", 1): "b"})
        extra = ("r1", "f1", "c", "a", "d")
        corrupted = Placement(
            x=good.x | {("r1", "f1", "c")},
            y=good.y | {extra},
        )
        found = codes(placement_structure_violations(tiny1, corrupted))
        assert "DuplicateVisit" in found

    def test_unknown_node_in_y(self, tiny1):
        good = build_placement(tiny1, {("r1", 1): "b"})
        corrupted = Placement(x=good.x | {("r1", "f1", "q")},
                              y=good.y | {("r1", "f1", "q", "a", "d")})
        found = placement_structure_violations(tiny1, corrupted)
        assert [str(v) for v in found if v.code == "UnknownNode"] == [
            "UnknownNode: x[r1,f1,q]", "UnknownNode: y[r1,f1,q,a,d]"]

    @pytest.mark.parametrize("seed", range(30))
    def test_random_bit_flips_are_caught(self, tiny1, seed):
        """Any y add/remove or x removal breaks a structural invariant."""
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
        assert placement_structure_violations(tiny1, corrupted) != []
