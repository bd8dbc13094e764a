"""Sweep workloads: `pccplace bench` driven in-process through `cli.main`.

One measured unit is one `bench` call with `--jobs 1`. Its rate is the
call's trials divided by the call's wall time, emit included. Each call's
`results.csv` must match the SHA-256 pinned in `digests.json`; the CSV bytes
are a contract (generator bytes, summation order, identical output across
`--jobs`). `results.json` is not pinned, because per-row counts may be added
to it.

A run with benchmark seed n cycles through the block of bench base seeds
`block * (n % BLOCKS) + j`, j < block, so one run averages over several
inputs and every base seed it uses has a pinned digest. Seed 0 starts with
`pccplace bench --seed 0`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time

from common import ROOT, WORK, Outcome, SpeedProbe, timed
from pccplace import cli

DIGESTS = ROOT / "perfbench" / "digests.json"
BLOCKS = 8  # digests are pinned for bench base seeds 0 .. block * BLOCKS - 1

# workload -> (bench arguments, trials per call, base seeds per block). A
# block holds about as many base seeds as a run makes calls.
SWEEPS = {
    # The paper's headline experiment (acceptance criteria 3 and 4): many
    # mid-size instances, each evaluated three times.
    "sweep-paper": ([
        "--sweep", "stay_probability=0,0.25,0.5,0.75,1",
        "--algos", "ppcc,spba,agw",
        "--set", "num_candidates=20", "--set", "batch_size=200",
        "--trials", "2", "--format", "both",
    ], 5 * 2, 32),
    # Large and CPU-tight: all-pairs paths and the greedy fill carry weight,
    # and only here does the greedy leave the head (fallback scan, flow checks).
    "sweep-large-tight": ([
        "--sweep", "batch_size=500,1000,2000",
        "--algos", "ppcc,spba,agw",
        "--set", "num_candidates=200", "--set", "node_cpu_cores=8",
        "--trials", "1", "--format", "csv",
    ], 3 * 1, 8),
}


def base_seeds(workload: str, seed: int) -> list[int]:
    block = SWEEPS[workload][2]
    return [block * (seed % BLOCKS) + j for j in range(block)]


def pinned_base_seeds(workload: str) -> range:
    return range(SWEEPS[workload][2] * BLOCKS)


def bench_argv(workload: str, base_seed: int, out) -> list[str]:
    args = SWEEPS[workload][0]
    return ["bench", *args, "--seed", str(base_seed), "--jobs", "1",
            "--out", str(out)]


def run_call(workload: str, base_seed: int,
             probe: SpeedProbe | None = None) -> tuple[float, int, str | None]:
    """One timed `bench` call: (seconds, exit code, results.csv SHA-256)."""
    out = WORK / workload
    shutil.rmtree(out, ignore_errors=True)
    argv = bench_argv(workload, base_seed, out)
    with contextlib.redirect_stdout(io.StringIO()):
        wall, code = timed(probe, cli.main, argv)
    csv = out / "results.csv"
    digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.is_file() else None
    return wall, code, digest


def load_pins(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    """Repeat `bench` calls until `seconds` have passed (at least one call)."""
    pins = load_pins(workload)
    _, trials, _ = SWEEPS[workload]
    seeds = base_seeds(workload, seed)
    outcome = Outcome()
    start = time.perf_counter()
    with outcome.probe:
        while True:
            base = seeds[len(outcome.units) % len(seeds)]
            wall, code, digest = run_call(workload, base, outcome.probe)
            outcome.units.append((trials, wall))
            outcome.attempted += trials
            if code != 0 or digest != pins[str(base)]:
                outcome.failed += trials
            if time.perf_counter() - start >= seconds:
                break
    shutil.rmtree(WORK / workload, ignore_errors=True)
    outcome.wall_s = time.perf_counter() - start
    return outcome
