"""What the benchmark under ``perfbench/`` reads from the package.

The benchmark's tracer replaces package functions by attribute name, and
its desk workload and tests read a few result shapes directly. Deleting or
renaming one of those in ``src/`` breaks the benchmark without failing any
other test here, so this module checks each of them. The attribute list is
read from ``perfbench/tracing.py`` at run time, so it follows that file.
It also runs a few of the benchmark's sweep calls and checks their
``results.csv`` bytes against the digests pinned in ``perfbench/``.
"""

import hashlib
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from pccplace import cli
from pccplace.exact import ExactResult
from pccplace.graph import shortest_paths
from pccplace.model import build_placement_per_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _patches():
    # tracing.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, attr) for m, attr, *_ in module.PATCHES if m.startswith("pccplace.")]


PATCHES = _patches()


@pytest.mark.parametrize("module_name, attr", PATCHES,
                         ids=[f"{m}.{attr}" for m, attr in PATCHES])
def test_traced_attribute_exists_and_is_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None))


def test_exact_result_takes_placement_cost_and_status(tiny1):
    empty = ExactResult(None, None, "budget_exceeded")
    assert (empty.placement, empty.cost, empty.status) == (None, None, "budget_exceeded")

    placement = build_placement_per_pair(tiny1, {("r1", "a", "a", 1): "b",
                                                 ("r1", "a", "d", 1): "b"})
    result = ExactResult(placement, None, "optimal")
    assert (result.placement, result.status) == (placement, "optimal")


def test_path_pairs_carry_bottlenecks(tiny1):
    paths = shortest_paths(tiny1.network, tiny1.relevant_nodes)
    least = min((p.bottleneck for p in paths.pairs.values()
                 if not math.isinf(p.bottleneck)), default=math.inf)
    assert least == 2000.0


@pytest.fixture(scope="module")
def sweeps():
    # sweeps.py imports its sibling `common` by plain name, since the
    # benchmark runs with perfbench/ on sys.path. Here both load by path and
    # stand in sys.modules only while they run.
    with pytest.MonkeyPatch.context() as mp:
        for name in ("common", "sweeps"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        return module


@pytest.mark.parametrize("workload, base", [
    ("sweep-paper", 0), ("sweep-paper", 1), ("sweep-paper", 255),
    ("sweep-large-tight", 0), ("sweep-large-tight", 63),
])
def test_sweep_csv_matches_pinned_digest(sweeps, tmp_path, capsys, workload, base):
    # The benchmark's sweep calls, run as it runs them, must reproduce the
    # results.csv bytes pinned in perfbench/digests.json (read, never written).
    out = tmp_path / "out"
    assert cli.main(sweeps.bench_argv(workload, base, out)) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == sweeps.load_pins(workload)[str(base)]
