"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-paper, sweep-large-tight, desk-validate (see README.md).
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 when the run
completed, whatever its checks found, and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common

WORKLOADS = ("sweep-paper", "sweep-large-tight", "desk-validate")
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload base seed; 0 reproduces the acceptance "
                             "corpus and `pccplace bench --seed 0`")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up and exit (one setup_s sample)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def setup(workload: str, seed: int):
    """Import the layers the workload drives and build its first inputs."""
    if workload == "desk-validate":
        import desk

        return desk.build_corpus(seed, 0)
    import sweeps  # noqa: F401  (imports pccplace.cli)

    return None


def sample_setup_s(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only do the set-up.

    Each child probes the machine speed during its set-up and prints the
    probe's own time and slowdown; a sample is the child's wall time less
    the probe time, scaled to the nominal speed.
    """
    cmd = [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        seconds, proc = common.timed(None, subprocess.run, cmd, check=True,
                                     cwd=common.ROOT, capture_output=True, text=True)
        probe_s, slowdown = (float(x) for x in proc.stdout.split())
        samples.append((seconds - probe_s) / slowdown)
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, state):
    if workload == "desk-validate":
        import desk

        return desk.measure(seed, seconds, state)
    import sweeps

    return sweeps.measure(workload, seed, seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_checkout_sources()
    except common.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        with common.SpeedProbe() as probe:
            setup(args.workload, args.seed)
        print(probe.total_s, probe.slowdown)
        return 0

    if args.trace:
        import tracing

        # Inputs are built inside the traced phase, so that per-operation
        # generation and path counts cover every operation.
        with tracing.Tracer() as tracer:
            outcome = measure(args.workload, args.seed, args.seconds, None)
        metrics = tracer.layer_metrics(outcome.attempted, outcome.wall_s,
                                       outcome.ops_per_s)
        units = tracing.LAYER_METRICS
        tracer.write(
            common.WORK / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "machine": common.machine_info(), "metrics": metrics})
    else:
        state = setup(args.workload, args.seed)
        outcome = measure(args.workload, args.seed, args.seconds, state)
        metrics = {
            "ops_per_s": outcome.ops_per_s,
            "setup_s": sample_setup_s(args.workload, args.seed),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        units = END_TO_END_UNITS

    print("machine " + json.dumps(common.machine_info(), sort_keys=True))
    print(f"{args.workload} seed={args.seed} units={len(outcome.units)} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"budget_stops={outcome.budget_stops} wall_s={outcome.wall_s:.3f} "
          f"raw_ops_per_s={outcome.raw_ops_per_s:.6g} "
          f"slowdown={outcome.probe.slowdown:.4f}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
