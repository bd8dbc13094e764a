"""Validate `solve_exact` on the whole acceptance corpus, slack and tight.

    python3 perfbench/validate.py

Solves the criterion-1 corpus (120 slack and 80 tightened instances, the
acceptance suite's seeds) under the desk workload's node budget, checks each
result against the brute-force reference, prints the tally per half and the
acceptance-suite indices of wrong results, and exits 1 when any result is wrong. The timed
`desk-validate` workload runs only the slack half; this is where the
tightened half's known wrong optima show.
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.use_checkout_sources()
    import desk

    halves = {
        "slack": [desk.slack_instance(i, 0) for i in range(120)],
        "tight": [desk.tight_instance(i, 0) for i in range(80)],
    }
    wrong = 0
    first = 0  # acceptance-suite index of the half's first instance
    for half, instances in halves.items():
        verdicts = []
        for inst in instances:
            paths = desk.shortest_paths(inst.network, inst.relevant_nodes)
            result = desk.solve_exact(inst, paths, desk.BUDGET)
            verdicts.append(desk.verdict(inst, paths, result))
        bad = [first + i for i, v in enumerate(verdicts) if v == "wrong"]
        wrong += len(bad)
        first += len(instances)
        print(f"acceptance corpus, {half}: {len(verdicts)} solves, "
              f"{verdicts.count('ok')} ok, {verdicts.count('budget')} budget stops, "
              f"{len(bad)} wrong {bad}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
