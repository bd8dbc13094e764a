"""Pin the SHA-256 of each sweep call's results.csv for every base seed used.

    python3 perfbench/pin_digests.py [WORKLOAD ...]

Rewrites the named workloads' entries (default: all) in digests.json. Pins
are taken once, from the commit that defines the benchmark; a later change
that needs new pins changes the CSV contract and must say so.
"""

from __future__ import annotations

import json
import sys

import common


def main(argv: list[str]) -> int:
    common.use_checkout_sources()
    import sweeps

    names = argv or list(sweeps.SWEEPS)
    pins = (json.loads(sweeps.DIGESTS.read_text(encoding="utf-8"))
            if sweeps.DIGESTS.is_file() else {})
    for name in names:
        pins[name] = {}
        for base in sweeps.pinned_base_seeds(name):
            _, code, digest = sweeps.run_call(name, base)
            if code != 0 or digest is None:
                print(f"{name} seed {base}: bench exited {code}", file=sys.stderr)
                return 1
            pins[name][str(base)] = digest
            print(name, base, digest, flush=True)
    sweeps.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
