import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pccplace.evaluation import (
    EvaluationError,
    Ledger,
    UndefinedGainError,
    check_constraints,
    evaluate_cost,
    gain,
)
from pccplace.graph import shortest_paths
from pccplace.model import (
    MobilityProfile,
    Placement,
    ProblemInstance,
    build_placement,
)

from conftest import PATH_LINKS, make_instance

# int node ids of PATH_LINKS' path a-b-c-d (positions in sorted id order)
A, B, C, D = range(4)


def paths_for(instance):
    return shortest_paths(instance.network, instance.relevant_nodes)


def families(violations):
    return {v.constraint for v in violations}


class TestEvaluateCost:
    def test_single_nf_two_hop_terms(self, tiny1):
        paths = paths_for(tiny1)
        at_b = build_placement(tiny1, {("r1", 1): "b"})
        report = evaluate_cost(tiny1, at_b, paths)
        assert report.placement_term == 0.0
        assert report.head_hop_term == 1.0   # P(a,b) * rho(d)=1
        assert report.chain_hop_term == 0.0
        assert report.tail_hop_term == 5.0   # P(b,d)
        assert report.penalty_term == 0.0
        assert report.total == 6.0

    def test_both_tiny1_placements_cost_six(self, tiny1):
        paths = paths_for(tiny1)
        for node, expected in (("b", 6.0), ("c", 6.0)):
            placement = build_placement(tiny1, {("r1", 1): node})
            assert evaluate_cost(tiny1, placement, paths).total == expected

    def test_zero_distance_identity(self):
        # head, hosting node, and destination coincide at b
        inst = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, ["b"])],
            destinations={"b": 1.0},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b"})
        assert evaluate_cost(inst, placement, paths).total == 0.0

    def test_placement_cost_term(self, tiny1):
        inst = ProblemInstance(
            network=tiny1.network, catalog=tiny1.catalog,
            node_resources=tiny1.node_resources, requests=tiny1.requests,
            placement_cost={"f1": {"b": 2.5}}, mobility=tiny1.mobility)
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b"})
        report = evaluate_cost(inst, placement, paths)
        assert report.placement_term == 2.5
        assert report.total == 8.5

    def test_on_path_single_nf_total_is_endpoint_cost(self, tiny1):
        # any on-path hosting node gives total = P(s, d) when L=1 and C=0
        paths = paths_for(tiny1)
        for node in ("b", "c"):
            placement = build_placement(tiny1, {("r1", 1): node})
            assert evaluate_cost(tiny1, placement, paths).total == paths.cost("a", "d")

    def test_chain_hops_between_consecutive_positions(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r1", 2): "c"})
        report = evaluate_cost(inst, placement, paths)
        assert report.head_hop_term == 1.0
        assert report.chain_hop_term == 2.0
        assert report.tail_hop_term == 3.0
        assert report.total == 6.0

    def test_penalty_for_missing_position(self, tiny1):
        paths = paths_for(tiny1)
        empty = build_placement(tiny1, {})
        report = evaluate_cost(tiny1, empty, paths)
        # default penalty: 2 * max pairwise cost = 12, weighted by rho over
        # both evaluation destinations (d at 1.0, attachment a at 0.0)
        assert report.penalty_term == 12.0
        assert report.total == 12.0

    def test_unknown_indices_raise(self, tiny1):
        paths = paths_for(tiny1)
        bad = Placement(x=frozenset({("r9", "f1", "b")}), y=frozenset())
        with pytest.raises(EvaluationError):
            evaluate_cost(tiny1, bad, paths)
        bad = Placement(
            x=frozenset({("r1", "f1", "b")}),
            y=frozenset({("r1", "f1", "b", "z", "d")}))
        with pytest.raises(EvaluationError):
            evaluate_cost(tiny1, bad, paths)

    @pytest.mark.parametrize("check", [evaluate_cost, check_constraints])
    def test_transit_node_raises(self, check):
        # c is a network node, but no candidate, head, destination, gateway
        # or attachment, so the path table has no entry for it
        inst = make_instance(
            links=PATH_LINKS, candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])], destinations={"d": 1.0})
        at_c = build_placement(inst, {("r1", 1): "c"})
        with pytest.raises(EvaluationError, match=r"^TransitNode: x\[r1,f1,c\]$"):
            check(inst, at_c, paths_for(inst))
        visits_c = Placement(x=build_placement(inst, {("r1", 1): "b"}).x, y=at_c.y)
        with pytest.raises(EvaluationError, match=r"^TransitNode: y\[r1,f1,c,a,a\]$"):
            check(inst, visits_c, paths_for(inst))

    def test_index_error_names_least_entry_under_any_hash_seed(self):
        # Three unknown requests in one frozenset: the error must name the
        # least entry, not whichever the set's hash order yields first.
        script = textwrap.dedent("""
            from conftest import PATH_LINKS, make_instance
            from pccplace.evaluation import EvaluationError, evaluate_cost
            from pccplace.graph import shortest_paths
            from pccplace.model import Placement

            inst = make_instance(
                links=PATH_LINKS, candidates=["b", "c"], gateway="a",
                attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
                destinations={"d": 1.0})
            bad = Placement(x=frozenset({("r7", "f1", "c"), ("r8", "f1", "b"),
                                         ("r9", "f1", "b")}), y=frozenset())
            try:
                evaluate_cost(inst, bad,
                              shortest_paths(inst.network, inst.relevant_nodes))
            except EvaluationError as exc:
                print(exc)
        """)
        messages = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            messages.add(out.stdout.strip())
        assert len(messages) == 1
        assert "r7" in messages.pop()

    @given(alpha=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def test_rho_scaling_is_exactly_linear(self, alpha):
        base = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d": 0.75, "c": 0.25}, stay=0.0,
        )
        scaled = ProblemInstance(
            network=base.network, catalog=base.catalog,
            node_resources=base.node_resources, requests=base.requests,
            placement_cost={},
            mobility=MobilityProfile(
                destinations={d: p * alpha
                              for d, p in base.mobility.destinations.items()},
                stay_probability=base.mobility.stay_probability * alpha))
        paths = paths_for(base)
        placement = build_placement(base, {("r1", 1): "b"})
        r0 = evaluate_cost(base, placement, paths)
        r1 = evaluate_cost(scaled, placement, paths)
        assert r1.head_hop_term == alpha * r0.head_hop_term
        assert r1.chain_hop_term == alpha * r0.chain_hop_term
        assert r1.tail_hop_term == alpha * r0.tail_hop_term

    def test_report_total_is_sum_of_terms(self, tiny1):
        paths = paths_for(tiny1)
        placement = build_placement(tiny1, {("r1", 1): "c"})
        r = evaluate_cost(tiny1, placement, paths)
        assert r.total == (r.placement_term + r.head_hop_term
                           + r.chain_hop_term + r.tail_hop_term
                           + r.penalty_term)
        assert set(r.to_dict()) == {
            "placement_term", "head_hop_term", "chain_hop_term",
            "tail_hop_term", "penalty_term", "total"}


class TestCheckConstraints:
    def test_feasible_placement_is_clean(self, tiny1):
        paths = paths_for(tiny1)
        placement = build_placement(tiny1, {("r1", 1): "b"})
        assert check_constraints(tiny1, placement, paths) == []

    def test_memory_overflow_flags_5a(self):
        inst = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"]), ("r2", ["f1"], 1.0, ["a"])],
            destinations={"b": 1.0},
            node_resources={"b": (15.0, 8.0)},  # two f1 need 20
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r2", 1): "b"})
        violations = check_constraints(inst, placement, paths)
        assert [v for v in violations if v.constraint == "5a"
                and v.index == ("b", "memory_mb") and v.slack < 0]

    def test_demand_charged_once_per_hosting(self):
        # r1 visits its hosting (r1, f1, b) for four (head, destination)
        # pairs; r2 is visited at c, and x also names (r2, f1, b) and
        # (r2, f1, a), which no visit backs. b's memory holds 70: the two
        # hostings there charge 40 each, once, whatever the visits; a has no
        # node_resources entry, so no 5a row.
        inst = make_instance(
            links=PATH_LINKS, candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a", "c"]), ("r2", ["f1"], 1.0, ["a"])],
            destinations={"d": 0.6}, stay=0.4,
            catalog={"f1": (40.0, 1.0)},
            node_resources={"b": (70.0, 8.0), "c": (1000.0, 8.0)})
        placement = build_placement(inst, {("r1", 1): "b", ("r2", 1): "c"})
        assert len([v for v in placement.y if v[:3] == ("r1", "f1", "b")]) == 4
        placement = Placement(x=placement.x | {("r2", "f1", "b"), ("r2", "f1", "a")},
                              y=placement.y)
        got = [(v.constraint, v.index, v.slack)
               for v in check_constraints(inst, placement, paths_for(inst))]
        assert got == [("5a", ("b", "memory_mb"), -10.0)]

    def test_visit_without_hosting_flags_5f(self, tiny1):
        paths = paths_for(tiny1)
        good = build_placement(tiny1, {("r1", 1): "b"})
        corrupted = Placement(x=frozenset(), y=good.y)
        assert "5f" in families(check_constraints(tiny1, corrupted, paths))

    def test_missing_visit_flags_5e(self, tiny1):
        paths = paths_for(tiny1)
        empty = build_placement(tiny1, {})
        violations = check_constraints(tiny1, empty, paths)
        assert families(violations) == {"5e"}
        # one row per (request, head, destination, position)
        assert len(violations) == 2

    def test_head_flow_over_budget_flags_5b(self):
        inst = make_instance(
            links=[("a", "b", 1.0, 5.0)], candidates=["b"], gateway="a",
            attachment="a",
            requests=[("r1", ["f1"], 4.0, ["a"]), ("r2", ["f1"], 4.0, ["a"])],
            destinations={"b": 1.0},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r2", 1): "b"})
        violations = check_constraints(inst, placement, paths)
        assert [v for v in violations if v.constraint == "5b"
                and v.index == ("a", "b")]

    def test_unknown_indices_raise(self, tiny1):
        paths = paths_for(tiny1)
        good = build_placement(tiny1, {("r1", 1): "b"})
        for bad in (Placement(x=good.x, y=frozenset({("r9", "f1", "b", "a", "d")})),
                    Placement(x=good.x, y=frozenset({("r1", "f1", "zz", "a", "d")})),
                    Placement(x=frozenset({("r1", "f9", "b")}), y=good.y)):
            with pytest.raises(EvaluationError):
                check_constraints(tiny1, bad, paths)


def host_at_b(ledger, inst, nf):
    """Charge a visit at b that opens a hosting of `nf`, for r1's only
    (head, destination) pair (a, d)."""
    req = dataclasses.replace(inst.requests[0], chain=(nf,))
    ledger.charge(ledger.visit(req, 1, "b", "a", "d", ()), True)


class TestLedger:
    def test_node_accounting(self):
        inst = make_instance(
            links=PATH_LINKS, candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])], destinations={"d": 1.0},
            catalog={"f1": (40.0, 1.0), "f2": (70.0, 1.0)},
            node_resources={"b": (100.0, 4.0)})
        ledger = Ledger(inst, paths_for(inst))
        (r1,) = inst.requests
        first, second = (ledger.visit(r1, 1, "b", "a", "d", ()),
                         ledger.visit(r1, 2, "b", "a", "d", ("b",)))
        assert ledger.can_host("f1", B) and ledger.fits(first, True)
        ledger.charge(first, True)
        assert ledger.load[B] == (40.0, 1.0)
        assert not ledger.can_host("f2", B)
        # the caller marks which visit opens a hosting: only that one is
        # charged, and tested for, node demand
        assert not ledger.fits(second, True) and ledger.fits(second, False)
        ledger.charge(first, False)
        assert ledger.load[B] == (40.0, 1.0)
        ledger.undo()
        ledger.undo()
        assert ledger.load[B] == (0.0, 0.0) and ledger.flows == ({}, {}, {})
        assert not ledger.can_host("f1", A)  # no node_resources entry
        assert ledger.load[A] is None

    def _full_instance(self):
        # f3 is the smallest NF in both resources; cpu binds on b
        return make_instance(
            links=PATH_LINKS, candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])], destinations={"d": 1.0},
            catalog={"f1": (40.0, 1.0), "f2": (70.0, 1.5), "f3": (10.0, 0.25)},
            node_resources={"b": (1000.0, 2.0)})

    def test_node_without_resources_is_full(self):
        inst = self._full_instance()
        ledger = Ledger(inst, paths_for(inst))
        assert ledger.full(A) and ledger.full(C) and ledger.full(D)
        assert not ledger.full(B)

    @pytest.mark.parametrize("first, fill_ups", [(None, 8), ("f1", 4), ("f2", 2)])
    def test_full_exactly_when_the_smallest_nf_stops_fitting(self, first, fill_ups):
        inst = self._full_instance()
        ledger = Ledger(inst, paths_for(inst))
        if first is not None:
            host_at_b(ledger, inst, first)
        for _ in range(fill_ups):
            assert not ledger.full(B) and ledger.can_host("f3", B)
            host_at_b(ledger, inst, "f3")
        assert ledger.full(B) and not ledger.can_host("f3", B)
        ledger.undo()  # loads shrink only by undo
        assert not ledger.full(B)

    def test_full_node_hosts_no_nf(self):
        inst = self._full_instance()
        ledger = Ledger(inst, paths_for(inst))
        for nf in ("f1", "f3", "f3", "f3", "f3"):
            host_at_b(ledger, inst, nf)
            verdicts = {nf: ledger.can_host(nf, B) for nf in inst.catalog}
            assert ledger.full(B) == (not any(verdicts.values())), verdicts
        assert ledger.full(B)
        assert not any(ledger.can_host(nf, k) for nf in inst.catalog for k in (A, B, C, D))

    def test_visit_fit_charge_and_violations(self):
        inst = make_instance(
            links=[("a", "b", 1.0, 5.0)], candidates=["b"], gateway="a",
            attachment="a",
            requests=[("r1", ["f1"], 4.0, ["a"]), ("r2", ["f1"], 4.0, ["a"])],
            destinations={"b": 1.0})
        ledger = Ledger(inst, paths_for(inst))
        r1, r2 = inst.requests
        first = ledger.visit(r1, 1, "b", "a", "b", ())
        second = ledger.visit(r2, 1, "b", "a", "b", ())
        assert ledger.fits(first, True)
        ledger.charge(first, True)
        assert not ledger.fits(second, True)  # head flow 8 over the a->b budget 5
        ledger.charge(second, True)
        assert [(v.constraint, v.index, v.slack) for v in ledger.violations()] \
            == [("5b", ("a", "b"), -3.0)]
        ledger.undo()
        assert ledger.violations() == [] and not ledger.fits(second, True)
        ledger.undo()
        assert ledger.fits(second, True)
        assert ledger.flows == ({}, {}, {}) and ledger.load == [None, (0.0, 0.0)]

    def test_rows_follow_the_families_in_sorted_key_order(self):
        inst = make_instance(
            links=[("a", "b", 1.0, 5.0), ("b", "c", 2.0), ("c", "d", 3.0, 5.0)],
            candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 6.0, ["a"])], destinations={"d": 1.0},
            node_resources={"b": (5.0, 8.0)})
        ledger = Ledger(inst, paths_for(inst))
        ledger.charge(ledger.visit(inst.requests[0], 1, "b", "a", "d", ()), True)
        assert [(v.constraint, v.index, v.slack) for v in ledger.violations()] == [
            ("5a", ("b", "memory_mb"), -5.0),
            ("5b", ("a", "b"), -1.0),
            ("5d", ("b", "d"), -1.0),
        ]

    def test_rows_in_id_order_where_ids_do_not_sort_numerically(self):
        # "n10" < "n2" < "n9": rows follow node id order in every family, as
        # the int ids and pair codes they are kept by do; numeric order
        # would put n9 before n10
        inst = make_instance(
            links=[("n10", "n2", 1.0, 5.0), ("n2", "n9", 1.0, 5.0), ("n10", "n9", 1.0, 5.0)],
            candidates=["n10", "n2", "n9"], gateway="n2", attachment="n9",
            requests=[("r1", ["f1", "f2"], 6.0, ["n9", "n10"]),
                      ("r2", ["f1", "f2"], 6.0, ["n9", "n10"])],
            destinations={"n10": 0.5}, stay=0.5,
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
            node_resources={k: (5.0, 8.0) for k in ("n10", "n2", "n9")})
        # charged r1 first, so the 5c and 5d tables fill out of id order
        placement = build_placement(inst, {("r1", 1): "n2", ("r1", 2): "n9",
                                           ("r2", 1): "n2", ("r2", 2): "n10"})
        got = [(v.constraint, v.index, v.slack)
               for v in check_constraints(inst, placement, paths_for(inst))]
        assert got == [
            ("5a", ("n10", "memory_mb"), -5.0),
            ("5a", ("n2", "memory_mb"), -15.0),
            ("5a", ("n9", "memory_mb"), -5.0),
            ("5b", ("n10", "n2"), -19.0),
            ("5b", ("n9", "n2"), -19.0),
            ("5c", ("n2", "n10"), -19.0),
            ("5c", ("n2", "n9"), -19.0),
            ("5d", ("n10", "n9"), -7.0),
            ("5d", ("n9", "n10"), -7.0),
        ]

    def test_place_charges_what_the_checker_charges(self):
        # Heads a and c, destinations d and the attachment a, chain f1 f2 at
        # b and c, position 2 placed first: every load place leaves equals
        # the one left by the checker's charging, visit by visit, bit for
        # bit. Self pairs, whose budget is infinite, are not charged.
        inst = make_instance(
            links=PATH_LINKS, candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 0.1, ["a", "c"]),
                      ("r2", ["f1", "f2"], 0.7, ["a", "c"])],
            destinations={"d": 0.6}, stay=0.4,
            catalog={"f1": (10.0, 0.1), "f2": (10.0, 0.2)})
        paths = paths_for(inst)
        at = {1: "b", 2: "c"}
        placed, checked = Ledger(inst, paths), Ledger(inst, paths)
        for req in inst.requests:
            assert placed.place(req, 2, C, None, None)
            assert placed.place(req, 1, B, None, C)
            for l in (1, 2):
                prevs = (at[l - 1],) if l > 1 else ()
                pairs = [(s, d) for s in sorted(req.heads)
                         for d in sorted(inst.destination_weights)]
                for s, d in pairs:  # the first visit opens the hosting
                    checked.charge(checked.visit(req, l, at[l], s, d, prevs),
                                   (s, d) == pairs[0])
        assert placed.load == checked.load
        assert placed.flows == tuple({pair: load for pair, load in table.items()
                                      if pair // 4 != pair % 4}  # no self pair
                                     for table in checked.flows)

    def test_verdict_independent_of_hash_seed(self):
        # 0.1 + 0.2 + 0.3 cores on a 0.6-core node: the checker's verdict
        # must not depend on the order a frozenset yields its entries, and
        # what PPCC and the exact search place must pass it.
        script = textwrap.dedent("""
            import json
            from conftest import cpu_sum_instance
            from pccplace.evaluation import check_constraints
            from pccplace.exact import solve_exact
            from pccplace.graph import shortest_paths
            from pccplace.heuristics import ppcc
            from pccplace.model import build_placement

            inst = cpu_sum_instance()
            paths = shortest_paths(inst.network, inst.relevant_nodes)
            all_a = build_placement(inst, {("r1", l): "a" for l in (1, 2, 3)})
            out = {"all_a": all_a, "ppcc": ppcc(inst, paths).placement,
                   "exact": solve_exact(inst, paths).placement}
            print(json.dumps({
                name: [(v.constraint, v.index, v.slack)
                       for v in check_constraints(inst, placement, paths)]
                for name, placement in out.items()}))
        """)
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.add(out.stdout.strip())
        assert len(outputs) == 1
        verdicts = json.loads(outputs.pop())
        assert verdicts["ppcc"] == [] and verdicts["exact"] == []
        # charged in chain order, the three demands overrun the node
        assert [v[:2] for v in verdicts["all_a"]] == [["5a", ["a", "cpu_cores"]]]


class TestGain:
    def test_ten_percent(self):
        assert gain(90.0, 100.0) == pytest.approx(0.10)

    def test_zero(self):
        assert gain(100.0, 100.0) == 0.0

    def test_high_mobility_magnitude(self):
        assert gain(74.0, 100.0) == pytest.approx(0.26)

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedGainError):
            gain(1.0, 0.0)
