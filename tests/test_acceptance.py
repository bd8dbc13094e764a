"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The heavy Monte-Carlo sweeps are module-scoped fixtures shared between
criteria; all seeds are fixed, so every number asserted here is
reproducible bit-for-bit.
"""

import dataclasses
import math
import random
import time

import pytest

from pccplace.bench import SweepSpec, run_sweep, trial_seed
from pccplace.evaluation import check_constraints, evaluate_cost
from pccplace.exact import export_lp, solve_exact
from pccplace.graph import shortest_paths
from pccplace.heuristics import agw, ppcc, spba
from pccplace.model import Placement, instance_to_json
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import make_instance
from oracle import enumerate_optimal

JOBS = 4


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def paths_for(instance):
    return shortest_paths(instance.network, instance.relevant_nodes)


# ---------------------------------------------------------------------------
# Tiny-instance corpus shared by criteria 1 and 2
# ---------------------------------------------------------------------------

def _slack_corpus():
    """120 generated tiny instances with provably slack capacities."""
    out = []
    for i in range(120):
        params = ScenarioParams(
            num_candidates=2 + i % 4,
            batch_size=1 + i % 2,
            chain_length=(1, 2),
            heads_per_request=(1, 2),
            num_destinations=(1, 1),
        )
        out.append(generate_instance(params, seed=10_000 + i))
    return out


def _tight_corpus():
    """80 micro instances with deliberately tight node and link capacities."""
    out = []
    for i in range(80):
        params = ScenarioParams(
            num_candidates=2 + i % 2,
            batch_size=1,
            chain_length=(1, 2),
            heads_per_request=(1, 1),
            num_destinations=(1, 1),
        )
        inst = generate_instance(params, seed=20_000 + i)
        rng = random.Random(30_000 + i)
        total_mem = sum(inst.catalog[nf].memory_mb
                        for r in inst.requests for nf in r.chain)
        total_cpu = sum(inst.catalog[nf].cpu_cores
                        for r in inst.requests for nf in r.chain)
        node_resources = {
            k: dataclasses.replace(
                cap,
                memory_mb=total_mem * rng.choice((0.45, 0.9, 1.5, 2.5)),
                cpu_cores=total_cpu * rng.choice((0.9, 1.5, 2.5)))
            for k, cap in inst.node_resources.items()
        }
        rate = max(r.flow_rate_mbps for r in inst.requests)
        links = tuple(
            dataclasses.replace(
                ln, capacity_mbps=rate * rng.choice((0.5, 1.2, 2.4, 6.0)))
            for ln in inst.network.links)
        network = dataclasses.replace(inst.network, links=links)
        out.append(dataclasses.replace(
            inst, network=network, node_resources=node_resources))
    return out


@pytest.fixture(scope="module")
def tiny_corpus_results():
    corpus = _slack_corpus() + _tight_corpus()
    assert len(corpus) == 200
    start = time.perf_counter()
    results = []
    for inst in corpus:
        paths = paths_for(inst)
        res = solve_exact(inst, paths)
        status, total, _ = enumerate_optimal(inst, paths)
        results.append((inst, paths, res, status, total))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_oracle_equivalence(tiny_corpus_results):
    results, elapsed = tiny_corpus_results
    mismatches = []
    optima = 0
    for idx, (inst, paths, res, status, total) in enumerate(results):
        if res.status != status:
            mismatches.append((idx, res.status, status))
        elif status == "optimal":
            optima += 1
            if res.total != total:
                mismatches.append((idx, res.total, total))
    ok = not mismatches and elapsed < 60.0
    assert report(
        1, "oracle equivalence",
        ok,
        f"[{len(results)} instances, {optima} optimal, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s]"), mismatches


def test_criterion_2_optimality_dominance(tiny_corpus_results):
    results, _ = tiny_corpus_results
    violations = []
    compared = 0
    for idx, (inst, paths, res, status, _) in enumerate(results):
        if status != "optimal":
            continue
        heuristic_runs = [ppcc(inst, paths), spba(inst, paths),
                          agw(inst, paths)]
        for name, hres in zip(("ppcc", "spba", "agw"), heuristic_runs):
            if hres.unplaced:
                continue
            if check_constraints(inst, hres.placement, paths):
                # the greedy fill charges what the checker charges, so only
                # AGW, whose gateway reserves no flow, may be infeasible
                if name != "agw":
                    violations.append((idx, name, "infeasible"))
                continue
            compared += 1
            if res.total > hres.total + 1e-9:
                violations.append((idx, name, res.total, hres.total))
    ok = not violations and compared > 0
    assert report(
        2, "optimality dominance", ok,
        f"[{compared} comparisons, {len(violations)} violations]"), violations


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps shared by criteria 3 and 4
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rho_sweep():
    params = ScenarioParams(num_candidates=20, batch_size=200)
    spec = SweepSpec(axis="stay_probability",
                     values=(0.0, 0.25, 0.5, 0.75, 1.0))
    start = time.perf_counter()
    table = run_sweep(spec, params, trials=100,
                      algorithms=("ppcc", "spba", "agw"), jobs=JOBS)
    return table, time.perf_counter() - start


def _gain_stats(table, value):
    gains = [r.gain_vs_spba for r in table.records
             if r.algorithm == "ppcc" and r.value == value
             and r.gain_vs_spba is not None]
    n = len(gains)
    mean = sum(gains) / n
    if n < 2:
        return mean, 0.0, n
    var = sum((g - mean) ** 2 for g in gains) / (n - 1)
    return mean, math.sqrt(var / n), n


def test_criterion_3_zero_mobility_null_result(rho_sweep):
    table, _ = rho_sweep
    mean, _, n = _gain_stats(table, 1.0)
    ok = n == 100 and abs(mean) <= 0.01
    assert report(
        3, "zero-mobility null result", ok,
        f"[mean gain(ppcc,spba) at rho_o=1: {mean:.5f}, {n} trials]")


def test_criterion_4_mobility_trend(rho_sweep):
    table, elapsed = rho_sweep
    values = (0.0, 0.25, 0.5, 0.75, 1.0)
    stats = [_gain_stats(table, v) for v in values]
    gain_at_zero = stats[0][0]
    monotone_ok = True
    for (m1, s1, _), (m2, s2, _) in zip(stats, stats[1:]):
        pooled = math.sqrt(s1 ** 2 + s2 ** 2)
        if m2 > m1 + pooled:
            monotone_ok = False
    ok = gain_at_zero > 0.02 and monotone_ok and elapsed < 600.0
    seq = ", ".join(f"{m:.4f}" for m, _, _ in stats)
    assert report(
        4, "mobility trend", ok,
        f"[gains: {seq}; runtime {elapsed:.0f}s]")


def test_criterion_5_linear_growth():
    params = ScenarioParams(num_candidates=20)
    spec = SweepSpec(axis="batch_size", values=(50, 100, 150, 200))
    table = run_sweep(spec, params, trials=100,
                      algorithms=("ppcc", "spba", "agw"), jobs=JOBS)
    r2_by_algo = {}
    for algo in ("ppcc", "spba", "agw"):
        xs = [float(r.value) for r in table.rows if r.algorithm == algo]
        ys = [r.mean_cost for r in table.rows if r.algorithm == algo]
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = my - slope * mx
        ss_res = sum((y - (slope * x + intercept)) ** 2
                     for x, y in zip(xs, ys))
        ss_tot = sum((y - my) ** 2 for y in ys)
        r2_by_algo[algo] = 1.0 - ss_res / ss_tot
    ok = all(r2 >= 0.99 for r2 in r2_by_algo.values())
    detail = ", ".join(f"{a}: R2={v:.4f}" for a, v in r2_by_algo.items())
    assert report(5, "linear growth", ok, f"[{detail}]")


def test_criterion_6_heuristic_scale_runtime():
    params = ScenarioParams(num_candidates=50, batch_size=200,
                            chain_length=(5, 5))
    instance = generate_instance(params, seed=77)
    paths = paths_for(instance)
    start = time.perf_counter()
    result = ppcc(instance, paths)
    elapsed = time.perf_counter() - start
    # exact is rejected outright at this scale
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(axis="batch_size", values=(200,)), params,
                  trials=1, algorithms=("exact",))
    ok = elapsed < 1.0 and not result.unplaced
    assert report(
        6, "heuristic scale runtime", ok,
        f"[K=50 R=200 L=5: {elapsed * 1000:.0f} ms]")


# ---------------------------------------------------------------------------
# Criterion 7: constraint-checker soundness under bit-flip corruption
# ---------------------------------------------------------------------------

def _literal_family_oracle(instance, placement, paths):
    """Independently coded re-evaluation of each constraint family.

    Written as plain quantified loops over the index sets, sharing nothing
    with the package checker but the instance accessors and path budgets.
    Returns the set of violated family ids.
    """
    fams = set()
    dests = sorted(instance.destination_weights)
    K = sorted(instance.network.candidates)
    x, y = placement.x, placement.y

    for k in K:
        cap = instance.node_resources[k]
        mem = sum(instance.catalog[i].memory_mb for (r, i, kk) in x if kk == k)
        cpu = sum(instance.catalog[i].cpu_cores for (r, i, kk) in x if kk == k)
        if mem > cap.memory_mb or cpu > cap.cpu_cores:
            fams.add("5a")

    heads_all = sorted({s for r in instance.requests for s in r.heads})
    for s in heads_all:
        for k in K:
            flow = 0.0
            for req in instance.requests:
                if s not in req.heads:
                    continue
                for d in dests:
                    if (req.id, req.chain[0], k, s, d) in y:
                        flow += req.flow_rate_mbps
            if flow > paths.bottleneck(s, k):
                fams.add("5b")

    for k in K:
        for m in K:
            budget = paths.bottleneck(k, m)
            if math.isinf(budget):
                continue
            flow = 0.0
            for req in instance.requests:
                for s in sorted(req.heads):
                    for d in dests:
                        for i, j in zip(req.chain, req.chain[1:]):
                            if (req.id, i, k, s, d) in y and \
                                    (req.id, j, m, s, d) in y:
                                flow += req.flow_rate_mbps
            if flow > budget:
                fams.add("5c")

    for k in K:
        for d in dests:
            flow = 0.0
            for req in instance.requests:
                for s in sorted(req.heads):
                    if (req.id, req.chain[-1], k, s, d) in y:
                        flow += req.flow_rate_mbps
            if flow > paths.bottleneck(k, d):
                fams.add("5d")

    for req in instance.requests:
        for s in sorted(req.heads):
            for d in dests:
                for nf in req.chain:
                    if not any((req.id, nf, k, s, d) in y for k in K):
                        fams.add("5e")

    for (r, i, k, s, d) in y:
        if (r, i, k) not in x:
            fams.add("5f")
    return fams


def _corruption_fixture_single_nf():
    inst = make_instance(
        links=[("s1", "k1", 1.0, 2.5), ("s1", "k2", 1.0, 0.5),
               ("k1", "d1", 1.0, 1.5), ("k2", "d1", 1.0, 0.5),
               ("k1", "o", 1.0, 1.5), ("k2", "o", 1.0, 0.5)],
        candidates=["k1", "k2"], gateway="k1", attachment="o",
        requests=[("r1", ["f1"], 1.0, ["s1"])],
        destinations={"d1": 0.6}, stay=0.4,
        node_resources={"k1": (10.5, 0.25), "k2": (5.0, 0.05)},
    )
    hosts = {("r1", 1): "k1"}
    return inst, hosts


def _corruption_fixture_two_nf():
    inst = make_instance(
        links=[("s1", "k1", 1.0, 2.5), ("k1", "k2", 1.0, 2.5),
               ("k2", "d1", 1.0, 1.5), ("k2", "o", 1.0, 1.5),
               ("s1", "k2", 1.0, 0.5), ("k1", "d1", 1.0, 0.5),
               ("k1", "o", 1.0, 0.5)],
        candidates=["k1", "k2"], gateway="k1", attachment="o",
        requests=[("r1", ["f1", "f2"], 1.0, ["s1"])],
        destinations={"d1": 0.6}, stay=0.4,
        catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
        node_resources={"k1": (10.4, 0.25), "k2": (10.4, 0.25)},
    )
    hosts = {("r1", 1): "k1", ("r1", 2): "k2"}
    return inst, hosts


def _flip_universe(instance, placement):
    """All single-entry corruptions of x/y that change the placement."""
    dests = sorted(instance.destination_weights)
    K = sorted(instance.network.candidates)
    flips = []
    for req in instance.requests:
        for nf in req.chain:
            for k in K:
                entry = (req.id, nf, k)
                flips.append(("x_remove" if entry in placement.x else "x_add",
                              entry))
                for s in sorted(req.heads):
                    for d in dests:
                        ye = (req.id, nf, k, s, d)
                        flips.append(
                            ("y_remove" if ye in placement.y else "y_add", ye))
    return flips


@pytest.mark.parametrize("fixture", [_corruption_fixture_single_nf,
                                     _corruption_fixture_two_nf])
def test_criterion_7_checker_soundness(fixture):
    from pccplace.model import build_placement

    inst, hosts = fixture()
    paths = paths_for(inst)
    good = build_placement(inst, hosts)
    assert check_constraints(inst, good, paths) == []
    assert _literal_family_oracle(inst, good, paths) == set()

    universe = _flip_universe(inst, good)
    rng = random.Random(1234)
    missed = []
    family_mismatches = []
    for _ in range(1000):
        kind, entry = universe[rng.randrange(len(universe))]
        x, y = set(good.x), set(good.y)
        if kind == "x_add":
            x.add(entry)
        elif kind == "x_remove":
            x.remove(entry)
        elif kind == "y_add":
            y.add(entry)
        else:
            y.remove(entry)
        corrupted = Placement(x=frozenset(x), y=frozenset(y))
        found = {v.constraint for v in check_constraints(inst, corrupted, paths)}
        expected = _literal_family_oracle(inst, corrupted, paths)
        if not found:
            missed.append((kind, entry))
        if found != expected:
            family_mismatches.append((kind, entry, found, expected))
    ok = not missed and not family_mismatches
    assert report(
        7, "constraint-checker soundness", ok,
        f"[1000 corruptions, {len(missed)} missed, "
        f"{len(family_mismatches)} family mismatches]"), (missed,
                                                          family_mismatches)


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end determinism of the CLI
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    from pccplace.cli import main

    gen_args = ["generate", "--seed", "9", "--set", "num_candidates=8",
                "--set", "batch_size=6"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(gen_args + ["--out", str(a)]) == 0
    assert main(gen_args + ["--out", str(b)]) == 0
    generate_ok = a.read_bytes() == b.read_bytes()

    sol1, sol2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for algo in ("ppcc", "spba", "agw"):
        assert main(["solve", "--instance", str(a), "--algo", algo,
                     "--out", str(sol1)]) == 0
        assert main(["solve", "--instance", str(a), "--algo", algo,
                     "--out", str(sol2)]) == 0
        generate_ok &= sol1.read_bytes() == sol2.read_bytes()

    bench_args = ["bench", "--sweep", "rho_o=0,1", "--trials", "2",
                  "--seed", "3", "--set", "num_candidates=6",
                  "--set", "batch_size=3", "--format", "both"]
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(bench_args + ["--jobs", "1", "--out", str(r1)]) == 0
    assert main(bench_args + ["--jobs", "2", "--out", str(r2)]) == 0
    bench_ok = ((r1 / "results.csv").read_bytes() ==
                (r2 / "results.csv").read_bytes())
    bench_ok &= ((r1 / "results.json").read_bytes() ==
                 (r2 / "results.json").read_bytes())

    ok = generate_ok and bench_ok
    assert report(8, "determinism", ok,
                  f"[generate/solve identical: {generate_ok}, "
                  f"bench across jobs identical: {bench_ok}]")


# ---------------------------------------------------------------------------
# Criterion 9: LP export cross-checked with an external MILP solver
# ---------------------------------------------------------------------------

def test_criterion_9_lp_export_cross_check(tiny1):
    milp = pytest.importorskip("scipy.optimize", reason="needs scipy MILP")
    del milp
    from lp_check import solve_lp_with_milp

    paths = paths_for(tiny1)
    exact_total = solve_exact(tiny1, paths).total
    optimum, values = solve_lp_with_milp(export_lp(tiny1, paths))
    ok = exact_total == 6.0 and optimum == 6.0
    # the external solution must also be a feasible placement of value 6
    x = frozenset(tuple(name.split("_")[1:4]) for name, v in values.items()
                  if name.startswith("x_") and v == 1)
    y = frozenset(tuple(name.split("_")[1:6]) for name, v in values.items()
                  if name.startswith("y_") and v == 1)
    external = Placement(x=x, y=y)
    ok = ok and check_constraints(tiny1, external, paths) == []
    ok = ok and evaluate_cost(tiny1, external, paths).total == 6.0
    assert report(9, "LP export cross-check", ok,
                  f"[exact: {exact_total}, external MILP: {optimum}]")


def test_acceptance_seed_stability():
    """Guard: the corpus and sweeps above derive from these seeds."""
    assert trial_seed(0, "stay_probability", 1.0, 0) == \
        trial_seed(0, "stay_probability", 1.0, 0)
    inst = generate_instance(ScenarioParams(num_candidates=4, batch_size=1,
                                            chain_length=(1, 2),
                                            heads_per_request=(1, 2),
                                            num_destinations=(1, 1)),
                             seed=10_000)
    assert instance_to_json(inst) == instance_to_json(
        generate_instance(ScenarioParams(num_candidates=4, batch_size=1,
                                         chain_length=(1, 2),
                                         heads_per_request=(1, 2),
                                         num_destinations=(1, 1)),
                          seed=10_000))
