"""Reference greedy fill: the scan over every candidate, request by request.

The code of `_greedy_chain_fill` and `_by_distance` as `pccplace.heuristics`
had it, and of the parts of `Ledger` that the fill calls (`__init__`,
`can_host`, `_host`, `place`, `undo`) as `pccplace.evaluation` had it,
verbatim but for the docstrings and the on-path read (the stored sequence
by int id, mapped to node ids, since `PathTable.sequence` is gone), from
before full nodes left the fallback scan and `Ledger.place` resolved each
request once: the fallback order keeps
every candidate, and `place` rebuilds its flow keys on every call. The fill
prices its hosts with the package's `_solve_result`, as the int route array
that `_routes` builds from them.
`tests/test_greedy_differential.py` checks the package's fill against this
one instance and target at a time.
"""

from __future__ import annotations

import numpy as np

from pccplace.evaluation import SolveResult
from pccplace.graph import PathTable
from pccplace.heuristics import _solve_result
from pccplace.model import ProblemInstance, ServiceRequest


class Ledger:
    def __init__(self, instance: ProblemInstance, paths: PathTable):
        self._paths = paths
        self._caps = {k: cap.as_tuple() for k, cap in instance.node_resources.items()}
        self._demand = {nf: dem.as_tuple() for nf, dem in instance.catalog.items()}
        self._dests = sorted(instance.destination_weights)
        # (memory, cpu) per node with a capacity entry
        self.load = dict.fromkeys(self._caps, (0.0, 0.0))
        # the hostings charged so far; a dict, so that undo restores it as it
        # restores the loads
        self.hosted: dict[tuple[str, str, str], bool] = {}
        self.flows: tuple[dict[tuple[str, str], float], ...] = ({}, {}, {})  # 5b-5d
        self._saved: list[tuple[dict, object, object]] = []  # (table, key, old or None)
        self._marks: list[int] = []

    def can_host(self, nf: str, node: str) -> bool:
        """Whether `node` has room for one more hosting of `nf` (5a)."""
        load = self.load.get(node)
        if load is None:
            return False
        cap, demand = self._caps[node], self._demand[nf]
        return load[0] + demand[0] <= cap[0] and load[1] + demand[1] <= cap[1]

    def _host(self, host: tuple[str, str, str], nf: str, node: str) -> None:
        if host not in self.hosted:
            self._saved.append((self.hosted, host, None))
            self.hosted[host] = True
            load = self.load.get(node)
            if load is not None:
                self._saved.append((self.load, node, load))
                demand = self._demand[nf]
                self.load[node] = (load[0] + demand[0], load[1] + demand[1])

    def place(self, req: ServiceRequest, l: int, node: str,
              before: str | None, after: str | None) -> bool:
        head_flow, pair_flow, tail_flow = self.flows
        dests = self._dests
        keys = []  # (table, pair, number of charges)
        if l == 1:
            for s in req.heads:
                if s != node:
                    keys.append((head_flow, (s, node), len(dests)))
        if before is not None and before != node:
            keys.append((pair_flow, (before, node), len(req.heads) * len(dests)))
        if after is not None and after != node:
            keys.append((pair_flow, (node, after), len(req.heads) * len(dests)))
        if l == len(req.chain):
            for d in dests:
                if d != node:
                    keys.append((tail_flow, (node, d), len(req.heads)))
        rate = req.flow_rate_mbps
        bottleneck = self._paths.bottleneck
        saved = self._saved
        self._marks.append(len(saved))
        for table, pair, n in keys:
            old = table.get(pair)
            load = 0.0 if old is None else old
            for _ in range(n):
                load += rate
            saved.append((table, pair, old))
            table[pair] = load
            if load > bottleneck(*pair):
                self.undo()
                return False
        nf = req.chain[l - 1]
        self._host((req.id, nf, node), nf, node)
        return True

    def undo(self) -> None:
        saved = self._saved
        for _ in range(len(saved) - self._marks.pop()):
            table, key, old = saved.pop()
            if old is None:
                del table[key]
            else:
                table[key] = old


def _by_distance(paths: PathTable, head: int, candidates: np.ndarray) -> np.ndarray:
    return candidates[np.argsort(paths.cost_matrix[head, candidates], kind="stable")]


def greedy_chain_fill(
    instance: ProblemInstance,
    paths: PathTable,
    target: str,
) -> SolveResult:
    candidates = instance.network.candidates
    ids, index = instance.network.node_ids, instance.network.node_index
    candidate_ids = np.array(sorted(index[k] for k in candidates), dtype=np.intp)
    ledger = Ledger(instance, paths)

    hosts: dict[tuple[str, int], str] = {}
    unplaced: list[tuple[str, int, str]] = []
    by_distance: dict[str, list[str]] = {}  # anchor head -> fallback order
    refused: set[tuple[str, str]] = set()  # (nf, node) without room
    for req in instance.requests:
        s_star = min(sorted(req.heads), key=lambda s: (paths.cost(s, target), s))
        on_path = [ids[v] for v in paths.id_sequence(index[s_star], index[target])
                   if ids[v] in candidates]
        pending = dict(enumerate(req.chain, start=1))
        at: list[str | None] = [None] * (len(req.chain) + 2)  # position -> host
        for scan in (on_path, None):
            if scan is None:
                order = by_distance.get(s_star)
                if order is None:
                    order = by_distance[s_star] = [ids[k] for k in _by_distance(
                        paths, index[s_star], candidate_ids).tolist()]
                on_set = set(on_path)
                scan = [k for k in order if k not in on_set]
            for k in scan:
                # pending holds positions in ascending order and only shrinks
                for l in tuple(pending):
                    nf = pending[l]
                    if (nf, k) in refused:
                        continue
                    if not ledger.can_host(nf, k):
                        refused.add((nf, k))
                    elif ledger.place(req, l, k, at[l - 1], at[l + 1]):
                        at[l] = hosts[(req.id, l)] = k
                        del pending[l]
                if not pending:
                    break
            if not pending:
                break
        unplaced.extend((req.id, l, nf) for l, nf in pending.items())

    return _solve_result(instance, paths, _routes(instance, hosts), tuple(unplaced))


def _routes(instance: ProblemInstance, hosts: dict[tuple[str, int], str]) -> np.ndarray:
    """`hosts` as the int route array that `_solve_result` prices."""
    index = instance.network.node_index
    width = max(len(req.chain) for req in instance.requests)
    # an unhosted position, or one past the chain, has no host: index.get(None, -1)
    return np.array([[index.get(hosts.get((req.id, l)), -1) for l in range(1, width + 1)]
                     for req in instance.requests], dtype=np.intp)
