"""Run every workload untraced and traced, print all metrics and checks.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload this prints the end-to-end metrics with their units, the
failure count and output check, every per-layer metric of the traced run,
the tracing overhead (untraced minus traced ops_per_s, as a share of the
untraced value) and whether the spans account for the traced wall time.
Then it runs `validate.py` on the whole acceptance corpus. Exits 1 when a
run did not complete, an output check failed, the spans leave more than
`MIN_COVERED` of the traced wall time unaccounted, or the acceptance corpus
has a wrong exact result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COVERED = 0.95

# What ops_per_s counts, and its name in the workload's own terms.
OPS = {
    "sweep-paper": ("trials_per_s", "trials / wall time of the bench call, emit included"),
    "sweep-large-tight": ("trials_per_s", "trials / wall time of the bench call, emit included"),
    "desk-validate": ("exact_solves_per_s", "corpus instances / summed solve_exact time"),
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict] | None:
    """(result, counters of the summary line) of one run.py run, or None."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed (exit {proc.returncode}): {proc.stderr.strip()}")
        return None
    for line in lines[:-1]:
        print(f"  {line}")
    counters = dict(token.split("=", 1) for token in lines[-2].split()
                    if "=" in token)
    return json.loads(lines[-1]), counters


def report(workload: str, seed: int, seconds: int) -> bool:
    print(f"== {workload} (seed {seed}, {seconds} s per run)")
    plain = run(workload, seed, seconds, 0)
    traced = run(workload, seed, seconds, 1)
    if plain is None or traced is None:
        return False
    (plain, counters), (traced, _) = plain, traced
    alias, meaning = OPS[workload]
    e2e = plain["metrics"]
    print("  end-to-end (untraced):")
    for name, m in e2e.items():
        note = f"  = {alias}: {meaning}" if name == "ops_per_s" else ""
        print(f"    {name:<38} {m['value']:>14.6g} {m['unit']:<6}{note}")
    attempted, failed = plain["attempted"], plain["failed"]
    stops = int(counters.get("budget_stops", 0))
    print(f"    {'fail_frac':<38} {(failed + stops) / attempted:>14.6g} ratio "
          f"  ({failed} wrong and {stops} budget stops of {attempted}; "
          f"outputs correct: {plain['correct']})")
    layer = traced["metrics"]
    print("  per-layer (traced):")
    for name, m in layer.items():
        print(f"    {name:<38} {m['value']:>14.6g} {m['unit']}")
    untraced_ops = e2e["ops_per_s"]["value"]
    overhead = (untraced_ops - layer["trace.ops_per_s"]["value"]) / untraced_ops
    covered = layer["trace.covered_frac"]["value"]
    print(f"  tracing overhead: {overhead:.1%} of untraced ops_per_s")
    accounted = covered >= MIN_COVERED
    print(f"  span accounting: self times cover {covered:.1%} of the traced "
          f"wall time ({'ok' if accounted else 'FAILED'}, need {MIN_COVERED:.0%})")
    return accounted and plain["correct"] and traced["correct"]


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in config["workloads"]]
    results = [report(name, args.seed, args.seconds) for name in names]
    print("== acceptance corpus (validate.py)")
    proc = subprocess.run([sys.executable, str(HERE / "validate.py")], cwd=ROOT,
                          capture_output=True, text=True)
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    results.append(proc.returncode == 0)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
