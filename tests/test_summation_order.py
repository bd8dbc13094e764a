"""Float totals are summed left to right in the modules that price solutions
and compute path costs.

Summation order is part of the bit-identity contract (exact totals against
the oracle, pinned sweep digests; path costs feed both). ``np.sum`` adds
pairwise, and ``math.fsum`` and Python 3.12's builtin ``sum`` compensate,
so none of them reproduces a loop's ``+=`` on every supported Python. This
test parses those modules and fails on any call to them, except where
the operands are plainly integers: ``sum(1 for ...)`` and ``.sum()`` over
a comparison (a boolean mask).

``np.bincount`` with weights is allowed, and the guard does not flag it: it
adds each bin's weights one at a time in index order, starting from 0.0,
which is the loop's ``+=`` bin by bin. ``Ledger.place_routes`` rests on
this to charge many loads at once, bit for bit as ``Ledger.place`` would;
`test_bincount_adds_in_index_order` checks the property.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import pccplace

MODULES = ("evaluation.py", "exact.py", "heuristics.py", "bench.py", "graph.py")


def _is_int_count(call: ast.Call) -> bool:
    """``sum(<int literal> for ...)``: a count, which no order changes."""
    return (len(call.args) == 1 and not call.keywords
            and isinstance(call.args[0], (ast.GeneratorExp, ast.ListComp))
            and isinstance(call.args[0].elt, ast.Constant)
            and type(call.args[0].elt.value) is int)


def float_sums(source: str) -> list[str]:
    """`line: call` for every float-summing call in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            bad = (func.id == "sum" and not _is_int_count(node)) or func.id == "fsum"
        elif isinstance(func, ast.Attribute):
            if func.attr == "sum":  # np.sum(...), array.sum(...)
                bad = not isinstance(func.value, ast.Compare)
            else:
                bad = func.attr == "fsum"
        else:
            bad = False
        if bad:
            out.append(f"{node.lineno}: {ast.unparse(node)}")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_float_sum_call(module):
    path = Path(pccplace.__file__).parent / module
    assert float_sums(path.read_text()) == []


@pytest.mark.parametrize("call", [
    "sum(values)", "sum(t for t in terms)", "sum([1.0, 2.0])", "sum(1.0 for _ in x)",
    "math.fsum(values)", "fsum(values)", "np.sum(terms)", "numpy.sum(terms)",
    "terms.sum()", "terms.sum(axis=1)",
])
def test_guard_flags(call):
    assert len(float_sums(call)) == 1


@pytest.mark.parametrize("call", [
    "sum(1 for r in recs if r.ok)", "(routes < 0).sum(axis=1)",
    "np.cumsum(terms)", "total += term",
])
def test_guard_allows(call):
    assert float_sums(call) == []


def test_bincount_adds_in_index_order():
    rng = np.random.default_rng(7)
    weights = rng.random(4096) * 10.0 ** rng.integers(-6, 7, 4096)
    bins = rng.integers(0, 5, 4096)
    loops = [0.0] * 5
    for b, w in zip(bins.tolist(), weights.tolist()):
        loops[b] += w
    total = 0.0
    for w in weights.tolist():
        total += w
    # pairwise summation gives other floats on these values ...
    assert float(np.sum(weights)) != total
    assert [float(np.sum(weights[bins == b])) for b in range(5)] != loops
    # ... and bincount gives the loop's, in one bin or many
    one = np.bincount(np.zeros(len(weights), dtype=np.intp), weights)
    assert one.tolist()[0].hex() == total.hex()
    assert [x.hex() for x in np.bincount(bins, weights).tolist()] == [x.hex() for x in loops]
