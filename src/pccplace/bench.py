"""Monte-Carlo sweep harness: run algorithms over seeded random instances.

Trial seeds are derived by hashing (base seed, axis name, axis value, trial
index), so adding sweep values never changes existing rows, and every
algorithm in a trial sees the same instance (paired comparison). Results
aggregate to one row per (axis value, algorithm) and serialize to CSV or
JSON; with runtime measurement off (the default) outputs are byte-identical
across runs and across worker counts.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .evaluation import UndefinedGainError, gain
from .exact import SolveBudget, solve_exact
from .graph import shortest_paths
from .heuristics import agw, ppcc, spba
from .scenario import ScenarioParams, generate_instance, validate_params

AXES = ("num_candidates", "batch_size", "stay_probability")

# Every placement algorithm by name, as a solver (instance, paths, budget)
# -> SolveResult; only the exact solver uses the budget. The order is the
# row order of the result tables. Each entry looks its function up in this
# module when called, so a wrapper set on the module attribute sees the call.
SOLVERS = {
    "exact": lambda instance, paths, budget: solve_exact(instance, paths, budget),
    "ppcc": lambda instance, paths, budget: ppcc(instance, paths),
    "spba": lambda instance, paths, budget: spba(instance, paths),
    "agw": lambda instance, paths, budget: agw(instance, paths),
}
ALGORITHMS = tuple(SOLVERS)
CSV_COLUMNS = ("axis", "value", "algorithm", "mean_cost", "stderr_cost",
               "mean_gain_vs_spba", "mean_gain_vs_agw", "infeasible_count",
               "mean_runtime_ms")

# Exact solves are only allowed on desk-scale instances, and are limited by
# expanded nodes only (no wall clock) so that results stay deterministic.
_DESK_SCALE = {"num_candidates": 6, "batch_size": 3, "chain_length": 3,
               "heads_per_request": 2, "num_destinations": 1}
_SWEEP_BUDGET = SolveBudget(wall_time_s=None)


class EmptyTableError(ValueError):
    """Refusing to emit an empty result table."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple


@dataclass(frozen=True)
class TrialRecord:
    value: float | int
    trial: int
    seed: int
    algorithm: str
    status: str  # "ok" | "optimal" | "budget_exceeded" | "infeasible"
    cost: float | None
    unplaced: int
    runtime_ms: float
    gain_vs_spba: float | None
    gain_vs_agw: float | None


@dataclass(frozen=True)
class AggRow:
    value: float | int
    algorithm: str
    mean_cost: float | None
    stderr_cost: float | None
    mean_gain_vs_spba: float | None
    mean_gain_vs_agw: float | None
    infeasible_count: int
    mean_runtime_ms: float


@dataclass(frozen=True)
class ResultTable:
    axis: str
    trials: int
    algorithms: tuple[str, ...]
    records: tuple[TrialRecord, ...]
    rows: tuple[AggRow, ...]


def trial_seed(base_seed: int, axis: str, value, trial: int) -> int:
    """Stable 63-bit seed from (base seed, axis, value, trial)."""
    text = f"{base_seed}|{axis}|{value!r}|{trial}"
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def fmt_num(x: float) -> str:
    """Compact, deterministic number formatting for CSV/stdout."""
    if x != x or math.isinf(x):
        return repr(x)
    s = f"{x:.12g}"
    return s


def _apply_axis(params: ScenarioParams, axis: str, value) -> ScenarioParams:
    if axis in ("num_candidates", "batch_size"):
        return dataclasses.replace(params, **{axis: int(value)})
    if axis == "stay_probability":
        return dataclasses.replace(params, stay_probability=float(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {AXES}")


def _check_desk_scale(params: ScenarioParams, spec: SweepSpec) -> None:
    probe = [_apply_axis(params, spec.axis, v) for v in spec.values]
    for p in probe:
        if (p.num_candidates > _DESK_SCALE["num_candidates"]
                or p.batch_size > _DESK_SCALE["batch_size"]
                or p.chain_length[1] > _DESK_SCALE["chain_length"]
                or p.heads_per_request[1] > _DESK_SCALE["heads_per_request"]
                or p.num_destinations[1] > _DESK_SCALE["num_destinations"]):
            raise ValueError(
                "exact solving requires desk-scale parameters "
                f"(limits: {_DESK_SCALE})")


def _run_trial(args) -> list[TrialRecord]:
    params, axis, value, trial, seed, algorithms, measure_runtime = args
    instance = generate_instance(params, seed)
    paths = shortest_paths(instance.network, instance.relevant_nodes)

    results: dict[str, dict] = {}
    for algo in ALGORITHMS:
        if algo not in algorithms:
            continue
        t0 = time.perf_counter()
        res = SOLVERS[algo](instance, paths, _SWEEP_BUDGET)
        results[algo] = {
            "status": res.status, "cost": res.total,
            "unplaced": len(res.unplaced),
            "runtime_ms": ((time.perf_counter() - t0) * 1000.0
                           if measure_runtime else 0.0),
        }

    def gain_vs(algo_cost: float | None, ref: str) -> float | None:
        if ref not in results or algo_cost is None:
            return None
        ref_cost = results[ref]["cost"]
        if ref_cost is None:
            return None
        try:
            return gain(algo_cost, ref_cost)
        except UndefinedGainError:
            return None

    records = []
    for algo in ALGORITHMS:
        if algo not in results:
            continue
        e = results[algo]
        records.append(TrialRecord(
            value=value, trial=trial, seed=seed, algorithm=algo,
            status=e["status"], cost=e["cost"], unplaced=e["unplaced"],
            runtime_ms=e["runtime_ms"],
            gain_vs_spba=gain_vs(e["cost"], "spba"),
            gain_vs_agw=gain_vs(e["cost"], "agw"),
        ))
    return records


def _mean_stderr(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def run_sweep(
    spec: SweepSpec,
    base_params: ScenarioParams,
    trials: int,
    algorithms: tuple[str, ...] = ("ppcc", "spba", "agw"),
    *,
    base_seed: int = 0,
    jobs: int = 1,
    measure_runtime: bool = False,
) -> ResultTable:
    """Run `trials` seeded instances per axis value for each algorithm.

    Every algorithm in a trial runs on the same instance. Infeasible exact
    solves are excluded from that row's means and counted. The exact budget
    is node-limited only (no wall clock) so results stay deterministic.
    Worker count never affects output.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if spec.axis not in AXES:
        raise ValueError(f"unknown sweep axis {spec.axis!r}; expected one of {AXES}")
    if not spec.values:
        raise ValueError("sweep has no values")
    unknown = sorted(set(algorithms) - set(ALGORITHMS))
    if unknown:
        raise ValueError(f"unknown algorithm {unknown[0]!r}")
    validate_params(base_params)
    if "exact" in algorithms:
        _check_desk_scale(base_params, spec)

    tasks = []
    for value in spec.values:
        params = _apply_axis(base_params, spec.axis, value)
        for trial in range(trials):
            seed = trial_seed(base_seed, spec.axis, value, trial)
            tasks.append((params, spec.axis, value, trial, seed,
                          tuple(algorithms), measure_runtime))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_task = list(pool.map(_run_trial, tasks))
    else:
        per_task = [_run_trial(t) for t in tasks]
    records = tuple(rec for batch in per_task for rec in batch)

    rows = []
    for value in spec.values:
        for algo in ALGORITHMS:
            if algo not in algorithms:
                continue
            recs = [r for r in records if r.value == value and r.algorithm == algo]
            if not recs:
                continue
            costs = [r.cost for r in recs if r.status != "infeasible" and r.cost is not None]
            mean, stderr = _mean_stderr(costs)
            g_spba, _ = _mean_stderr([r.gain_vs_spba for r in recs
                                      if r.gain_vs_spba is not None])
            g_agw, _ = _mean_stderr([r.gain_vs_agw for r in recs
                                     if r.gain_vs_agw is not None])
            runtime, _ = _mean_stderr([r.runtime_ms for r in recs])
            rows.append(AggRow(
                value=value, algorithm=algo, mean_cost=mean, stderr_cost=stderr,
                mean_gain_vs_spba=g_spba, mean_gain_vs_agw=g_agw,
                infeasible_count=sum(1 for r in recs if r.status == "infeasible"),
                mean_runtime_ms=runtime if runtime is not None else 0.0,
            ))
    return ResultTable(axis=spec.axis, trials=trials,
                       algorithms=tuple(a for a in ALGORITHMS if a in algorithms),
                       records=records, rows=tuple(rows))


def table_to_csv(table: ResultTable) -> str:
    if not table.rows:
        raise EmptyTableError("result table has no rows")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in table.rows:
        writer.writerow([
            table.axis,
            fmt_num(float(row.value)),
            row.algorithm,
            "" if row.mean_cost is None else fmt_num(row.mean_cost),
            "" if row.stderr_cost is None else fmt_num(row.stderr_cost),
            "" if row.mean_gain_vs_spba is None else fmt_num(row.mean_gain_vs_spba),
            "" if row.mean_gain_vs_agw is None else fmt_num(row.mean_gain_vs_agw),
            row.infeasible_count,
            fmt_num(row.mean_runtime_ms),
        ])
    return buf.getvalue()


def table_to_json(table: ResultTable) -> str:
    if not table.rows:
        raise EmptyTableError("result table has no rows")
    payload = {
        "axis": table.axis,
        "trials": table.trials,
        "algorithms": list(table.algorithms),
        "rows": [
            {
                "value": row.value,
                "algorithm": row.algorithm,
                "mean_cost": row.mean_cost,
                "stderr_cost": row.stderr_cost,
                "mean_gain_vs_spba": row.mean_gain_vs_spba,
                "mean_gain_vs_agw": row.mean_gain_vs_agw,
                "infeasible_count": row.infeasible_count,
                "mean_runtime_ms": row.mean_runtime_ms,
            }
            for row in table.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_results(table: ResultTable, fmt: str, path: str) -> None:
    """Write the aggregated table to `path` as "csv" or "json"."""
    if fmt == "csv":
        text = table_to_csv(table)
    elif fmt == "json":
        text = table_to_json(table)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
