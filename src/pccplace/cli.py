"""Command-line front-end.

Exit codes: 0 success, 2 usage/validation/parse problem, 3 infeasible,
4 budget exhausted. Errors go to stderr as one JSON object; stdout stays
machine-readable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench as bench_mod
from . import exact, model, scenario
from .bench import SweepSpec, fmt_num
from .graph import shortest_paths

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

_AXIS_ALIASES = {"rho_o": "stay_probability"}

# The most values a start:step:stop range sweep may have. Each value runs
# its own trials, so a longer range is refused as a usage error before its
# value list outgrows memory.
MAX_SWEEP_VALUES = 10_000


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _load_params(args) -> scenario.ScenarioParams:
    data = {}
    if getattr(args, "params", None):
        with open(args.params, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError(f"{item!r}: expected KEY=VALUE")
        key, raw = item.split("=", 1)
        if "," in raw:
            overrides[key] = [_coerce(part) for part in raw.split(",")]
        else:
            overrides[key] = _coerce(raw)
    if isinstance(data, dict):  # otherwise params_from_dict names its type
        data = {**data, **overrides}
    return scenario.params_from_dict(data)


def _coerce(raw: str):
    raw = raw.strip()
    if raw.lower() in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _load_instance(path: str) -> model.ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return model.instance_from_json(fh.read())


def _load_valid_instance(path: str) -> model.ProblemInstance | int:
    """The instance at `path`, or the usage exit code once the first parse
    error or invariant violation is reported."""
    try:
        instance = _load_instance(path)
    except (model.ParseError, OSError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    violations = model.validate_instance(instance)
    if violations:
        return _fail(EXIT_USAGE, f"invalid instance: {violations[0]}")
    return instance


def _cmd_generate(args) -> int:
    try:
        params = _load_params(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, f"invalid params: {exc}")
    try:
        instance = scenario.generate_instance(params, args.seed)
    except (ValueError, scenario.GenerationError) as exc:  # ValueError: the seed
        return _fail(EXIT_USAGE, str(exc))
    try:
        Path(args.out).write_text(model.instance_to_json(instance), encoding="utf-8")
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write output: {exc}")
    print(args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        instance = _load_instance(args.instance)
    except (model.ParseError, OSError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    violations = model.validate_instance(instance)
    print(json.dumps([{"code": v.code, "detail": v.detail} for v in violations]))
    return EXIT_OK if not violations else EXIT_USAGE


def _cmd_solve(args) -> int:
    instance = _load_valid_instance(args.instance)
    if isinstance(instance, int):
        return instance
    paths = shortest_paths(instance.network, instance.relevant_nodes)
    budget = exact.SolveBudget(max_nodes_expanded=args.budget_nodes,
                               wall_time_s=args.budget_seconds)
    res = bench_mod.SOLVERS[args.algo](instance, paths, budget)
    if res.status == "infeasible":
        return _fail(EXIT_INFEASIBLE, "no feasible placement")
    if res.cost is None:
        return _fail(EXIT_BUDGET, "budget exhausted before any feasible placement")

    if args.out:
        payload = {
            "algorithm": args.algo,
            "status": res.status,
            "total": res.total,
            "cost": res.cost.to_dict(),
            "unplaced": [{"request": r, "position": l, "nf": nf}
                         for (r, l, nf) in res.unplaced],
            "placement": model.placement_to_dict(res.placement),
        }
        try:
            Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                                      encoding="utf-8")
        except OSError as exc:
            return _fail(EXIT_USAGE, f"cannot write output: {exc}")
    print(fmt_num(res.total))
    return EXIT_BUDGET if res.status == "budget_exceeded" else EXIT_OK


def _cmd_export_lp(args) -> int:
    instance = _load_valid_instance(args.instance)
    if isinstance(instance, int):
        return instance
    try:
        text = exact.export_lp(instance)
    except ValueError as exc:  # ExportSizeError included
        return _fail(EXIT_USAGE, str(exc))
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write output: {exc}")
    print(args.out)
    return EXIT_OK


def _parse_sweep(spec: str) -> SweepSpec:
    if "=" not in spec:
        raise ValueError("sweep must look like AXIS=v1,v2,... or AXIS=start:step:stop")
    axis, raw = spec.split("=", 1)
    axis = _AXIS_ALIASES.get(axis.strip(), axis.strip())
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("range sweep must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError("range sweep start, step and stop must be finite")
        if step <= 0:
            raise ValueError("sweep step must be > 0")
        values = []
        i = 0
        while True:
            v = round(start + i * step, 10)
            if v > stop + 1e-9:
                break
            if values and v == values[-1]:
                raise ValueError(f"sweep values repeat: step {step!r} is lost "
                                 "when values are rounded to 10 decimals")
            if len(values) == MAX_SWEEP_VALUES:
                raise ValueError(f"range sweep has more than {MAX_SWEEP_VALUES} values; "
                                 "use a larger step")
            values.append(v)
            i += 1
    else:
        values = [float(p) for p in raw.split(",")]
    return SweepSpec(axis=axis, values=tuple(values))


def _cmd_bench(args) -> int:
    try:
        params = _load_params(args)
        spec = _parse_sweep(args.sweep)
        algorithms = tuple(a.strip() for a in args.algos.split(","))
        table = bench_mod.run_sweep(
            spec, params, args.trials, algorithms,
            base_seed=args.seed, jobs=args.jobs,
            measure_runtime=args.measure_runtime)
    except (ValueError, OSError, json.JSONDecodeError, scenario.GenerationError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    outdir = Path(args.out)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if args.format in ("csv", "both"):
            path = outdir / "results.csv"
            bench_mod.emit_results(table, "csv", str(path))
            written.append(str(path))
        if args.format in ("json", "both"):
            path = outdir / "results.json"
            bench_mod.emit_results(table, "json", str(path))
            written.append(str(path))
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write output: {exc}")
    for path in written:
        print(path)
    return EXIT_OK


def _at_least(convert, low):
    """argparse type: `convert` the value and reject NaN, or a value below
    `low`."""
    def check(raw: str):
        value = convert(raw)
        if math.isnan(value):
            raise argparse.ArgumentTypeError(f"{raw!r} is not a number")
        if value < low:
            raise argparse.ArgumentTypeError(f"{raw!r} is below {low}")
        return value
    check.__name__ = convert.__name__  # argparse names it in its messages
    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccplace",
        description="Joint proactive-caching / VNF-chain placement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", help="JSON file of generator parameters")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one parameter (repeatable; ranges as lo,hi)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="place one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", required=True, choices=bench_mod.ALGORITHMS)
    p.add_argument("--out", help="write placement + cost report JSON here")
    p.add_argument("--budget-nodes", type=_at_least(int, 0), default=10_000_000)
    p.add_argument("--budget-seconds", type=_at_least(float, 0), default=60.0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("export-lp", help="write the linearized 0-1 program")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("bench", help="run a Monte-Carlo sweep")
    p.add_argument("--sweep", required=True,
                   metavar="AXIS=v1,v2|AXIS=start:step:stop",
                   help="axis is num_candidates, batch_size, or "
                        "stay_probability (alias rho_o)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--algos", default="ppcc,spba,agw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="JSON file of generator parameters")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--jobs", type=_at_least(int, 1), default=1,
                   help="worker processes, at most one per trial; output does not depend on it")
    p.add_argument("--format", choices=["csv", "json", "both"], default="csv")
    p.add_argument("--measure-runtime", action="store_true",
                   help="record wall times, which exclude cyclic-GC pauses; "
                        "SPBA is given PPCC's time when both share one fill "
                        "(makes output nondeterministic)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
