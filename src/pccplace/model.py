"""Domain model: NF catalog, requests, mobility, problem instances, placements.

All types are immutable after construction. Semantic invariants are checked
by :func:`validate_instance`, which returns violations as data rather than
raising, so a caller can report every problem at once. It is the check on
instances from outside the program: CLI `validate`, `solve` and `export-lp`
run it on every instance they read. Generated instances are valid by
construction (see :func:`scenario.generate_instance`) and skip it. Parsing
problems, by contrast, are structural and raise :class:`ParseError` with a
JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from .graph import EdgeNetwork, Link

MOBILITY_MASS_TOL = 1e-9


class ParseError(ValueError):
    """Malformed instance JSON; message carries the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Resources:
    """Resource vector of a function demand or a node capacity."""

    memory_mb: float
    cpu_cores: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.memory_mb, self.cpu_cores)


@dataclass(frozen=True)
class ServiceRequest:
    """One service request: an ordered NF chain plus its cache-head set.

    The cache at the chain head is not part of `chain`; it is realized by
    the head set `heads` (the candidate proactive-cache locations this
    request may start from).
    """

    id: str
    chain: tuple[str, ...]
    flow_rate_mbps: float
    heads: frozenset[str]


@dataclass(frozen=True)
class MobilityProfile:
    """Handover destinations with their probabilities, plus the stay probability.

    stay_probability + sum(destinations.values()) must equal 1 (within 1e-9).
    """

    destinations: dict[str, float]
    stay_probability: float


class PairArrays(NamedTuple):
    """:attr:`ProblemInstance.pair_order` as read-only arrays, one entry per
    (request, head, destination) chain in that order."""

    request: np.ndarray  # position of the request in `requests`
    head: np.ndarray  # int node id of the head (`EdgeNetwork.node_index`)
    dest: np.ndarray  # int node id of the destination
    weight: np.ndarray  # float64 destination weight


@dataclass(frozen=True)
class ProblemInstance:
    """The complete, immutable input to every placement algorithm."""

    network: EdgeNetwork
    catalog: dict[str, Resources]
    node_resources: dict[str, Resources]
    requests: tuple[ServiceRequest, ...]
    placement_cost: dict[str, dict[str, float]]
    mobility: MobilityProfile

    def placing_cost(self, nf_id: str, node: str) -> float:
        return self.placement_cost.get(nf_id, {}).get(node, 0.0)

    @cached_property
    def destination_weights(self) -> dict[str, float]:
        """Evaluation destinations: the mobility set plus the attachment node.

        The no-handover case carries routing cost too, so the attachment
        node enters the destination set at the stay probability (merged
        additively if it already appears as a destination).
        """
        weights = dict(self.mobility.destinations)
        o = self.network.attachment
        weights[o] = weights.get(o, 0.0) + self.mobility.stay_probability
        return {d: weights[d] for d in sorted(weights)}

    @cached_property
    def relevant_nodes(self) -> frozenset[str]:
        """Nodes that can appear as path endpoints: candidates, heads,
        destinations, gateway, attachment."""
        rel = set(self.network.candidates)
        rel.add(self.network.gateway)
        rel.add(self.network.attachment)
        rel.update(self.mobility.destinations)
        for r in self.requests:
            rel.update(r.heads)
        return frozenset(rel)

    @cached_property
    def request_map(self) -> dict[str, ServiceRequest]:
        """Requests by id."""
        return {r.id: r for r in self.requests}

    @cached_property
    def pair_order(self) -> tuple[tuple[ServiceRequest, str, str], ...]:
        """Every (request, head, destination) chain in canonical order:
        requests as given, then sorted heads, then sorted evaluation
        destinations. Sums over chains run in this order."""
        dests = sorted(self.destination_weights)
        return tuple((req, s, d) for req in self.requests
                     for s in sorted(req.heads) for d in dests)

    @cached_property
    def pair_arrays(self) -> PairArrays:
        """:attr:`pair_order` as int and float arrays, for array code.

        Built from the requests, not from :attr:`pair_order`'s tuples: int
        ids are positions in the sorted id list, so each request's sorted
        head ids are its sorted heads, each repeated once per destination,
        and the sorted destinations are tiled once per (request, head).
        """
        index = self.network.node_index
        weights = self.destination_weights
        heads = [sorted(map(index.__getitem__, req.heads)) for req in self.requests]
        per_request = np.array(list(map(len, heads)), dtype=np.intp)
        head = np.array([s for row in heads for s in row], dtype=np.intp)
        arrays = PairArrays(
            np.repeat(np.arange(len(heads), dtype=np.intp), per_request * len(weights)),
            np.repeat(head, len(weights)),
            np.tile(np.array([index[d] for d in weights], dtype=np.intp), len(head)),
            np.tile(np.array(list(weights.values()), dtype=np.float64), len(head)))
        for a in arrays:
            a.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class Placement:
    """Solution object: hosting decisions `x` and the visit plan `y`.

    x entries are (request, nf, node); y entries are
    (request, nf, node, head, destination). The program's product variable
    z is the product of two y visits, so it is derived from y, never stored.
    """

    x: frozenset[tuple[str, str, str]]
    y: frozenset[tuple[str, str, str, str, str]]


def build_placement(
    instance: ProblemInstance,
    hosts: Mapping[tuple[str, int], str],
) -> Placement:
    """Placement from per-(request, position) hosting decisions.

    `hosts` maps (request id, 1-based position) to the hosting node; missing
    positions are simply absent from x/y (the request is partially placed).
    The visit plan replicates each decision across every
    (head, destination) pair of the request.
    """
    dests = sorted(instance.destination_weights)
    x = set()
    y = set()
    for req in instance.requests:
        pairs = [(s, d) for s in sorted(req.heads) for d in dests]
        for l, nf in enumerate(req.chain, start=1):
            k = hosts.get((req.id, l))
            if k is None:
                continue
            x.add((req.id, nf, k))
            y.update([(req.id, nf, k, s, d) for s, d in pairs])
    return Placement(x=frozenset(x), y=frozenset(y))


def build_placement_per_pair(
    instance: ProblemInstance,
    visits: Mapping[tuple[str, str, str, int], str],
) -> Placement:
    """Placement from per-(request, head, destination, position) decisions.

    Used by the exact solver, whose visit plan may pick different nodes per
    (head, destination) pair; x is the union of all used nodes.
    """
    x = set()
    y = set()
    reqs = instance.request_map
    for (r, s, d, l), k in visits.items():
        nf = reqs[r].chain[l - 1]
        x.add((r, nf, k))
        y.add((r, nf, k, s, d))
    return Placement(x=frozenset(x), y=frozenset(y))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One invariant failure, with a machine-readable code."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def validate_instance(instance: ProblemInstance) -> list[Violation]:
    """Check every instance invariant; empty list means valid."""
    v: list[Violation] = []
    net = instance.network
    add = lambda code, detail: v.append(Violation(code, detail))

    seen_links: set[tuple[str, str]] = set()
    for ln in net.links:
        if ln.u == ln.v:
            add("SelfLoopLink", f"link {ln.u}-{ln.v}")
        if ln.u not in net.nodes or ln.v not in net.nodes:
            add("UnknownLinkEndpoint", f"link {ln.u}-{ln.v}")
        if ln.key in seen_links:
            add("DuplicateLink", f"link {ln.u}-{ln.v}")
        seen_links.add(ln.key)
        if not ln.cost > 0:
            add("NonPositiveLinkCost", f"link {ln.u}-{ln.v}: cost {ln.cost}")
        elif ln.cost == math.inf:  # a capacity may be infinite, a cost not
            add("InfiniteLinkCost", f"link {ln.u}-{ln.v}: cost {ln.cost}")
        if not ln.capacity_mbps > 0:
            add("NonPositiveLinkCapacity", f"link {ln.u}-{ln.v}: capacity {ln.capacity_mbps}")

    if not net.is_connected():
        add("GraphDisconnected", "network graph is not connected")
    for k in sorted(net.candidates - net.nodes):
        add("CandidateNotANode", k)
    if net.gateway not in net.nodes:
        add("GatewayNotANode", net.gateway)
    if net.attachment not in net.nodes:
        add("AttachmentNotANode", net.attachment)

    for nf in sorted(instance.catalog):
        dem = instance.catalog[nf]
        if not (dem.memory_mb > 0 and dem.cpu_cores > 0):
            add("NonPositiveNFDemand", f"{nf}: {dem.as_tuple()}")
        elif math.inf in dem.as_tuple():  # a capacity may be infinite, a demand not
            add("InfiniteNFDemand", f"{nf}: {dem.as_tuple()}")
    for k in sorted(instance.node_resources):
        cap = instance.node_resources[k]
        if k not in net.candidates:
            add("NodeResourcesForNonCandidate", k)
        if not (cap.memory_mb > 0 and cap.cpu_cores > 0):
            add("NonPositiveNodeCapacity", f"{k}: {cap.as_tuple()}")
    for k in sorted(net.candidates - set(instance.node_resources)):
        add("MissingNodeResources", k)

    if not instance.requests:
        add("EmptyBatch", "instance has no requests")
    seen_ids: set[str] = set()
    for req in instance.requests:
        if req.id in seen_ids:
            add("DuplicateRequestId", req.id)
        seen_ids.add(req.id)
        if len(req.chain) < 1:
            add("EmptyChain", req.id)
        if len(set(req.chain)) != len(req.chain):
            add("RepeatedNFInChain", f"{req.id}: {list(req.chain)}")
        for nf in req.chain:
            if nf not in instance.catalog:
                add("UnknownNF", f"{req.id}: {nf}")
        if not req.heads:
            add("EmptyHeads", req.id)
        for s in sorted(req.heads - net.nodes):
            add("UnknownHeadNode", f"{req.id}: {s}")
        if not req.flow_rate_mbps > 0:
            add("NonPositiveFlowRate", f"{req.id}: {req.flow_rate_mbps}")
        elif req.flow_rate_mbps == math.inf:
            add("InfiniteFlowRate", f"{req.id}: {req.flow_rate_mbps}")

    mob = instance.mobility
    mass = mob.stay_probability + sum(mob.destinations.values())
    for d in sorted(mob.destinations):
        if d not in net.nodes:
            add("UnknownDestination", d)
        if not 0.0 <= mob.destinations[d] <= 1.0:
            add("ProbabilityOutOfRange", f"destination {d}: {mob.destinations[d]}")
    if not 0.0 <= mob.stay_probability <= 1.0:
        add("ProbabilityOutOfRange", f"stay_probability: {mob.stay_probability}")
    if mass > 1.0 + MOBILITY_MASS_TOL:
        add("MobilityMassExceeded", f"stay + sum(destinations) = {mass}")
    elif mass < 1.0 - MOBILITY_MASS_TOL:
        add("MobilityMassDeficit", f"stay + sum(destinations) = {mass}")
    if not mob.destinations and mob.stay_probability < 1.0 - MOBILITY_MASS_TOL:
        add("EmptyDestinations", "no destinations but stay_probability < 1")

    for nf in sorted(instance.placement_cost):
        if nf not in instance.catalog:
            add("PlacementCostUnknownNF", nf)
        for node in sorted(instance.placement_cost[nf]):
            if node not in net.candidates:
                add("PlacementCostUnknownNode", f"{nf} at {node}")
            cost = instance.placement_cost[nf][node]
            if not cost >= 0:  # NaN too
                add("NegativePlacementCost", f"{nf} at {node}: {cost}")
            elif cost == math.inf:
                add("InfinitePlacementCost", f"{nf} at {node}: {cost}")
    return v


def placement_index_violations(
    instance: ProblemInstance, placement: Placement
) -> list[Violation]:
    """Placement entries that use indices the instance does not know.

    Reports an unknown request, an nf outside the request's chain, an
    unknown node, a network node outside `relevant_nodes` (TransitNode: the
    path table has no entry for it), a head outside the request's head set
    and a destination outside the evaluation destinations. Violations come
    x entries first, then y entries, each in sorted entry order, so the
    first one names the least offending entry. The placement is scanned once
    unsorted and only the violations found are sorted, since
    :func:`evaluation.evaluate_cost` runs this check on every call.
    """
    reqs = instance.request_map
    dests = instance.destination_weights
    nodes = instance.network.nodes
    relevant = instance.relevant_nodes
    # (x or y, entry, index of the offending field in the entry, code)
    found: list[tuple[int, tuple, int, str]] = []
    for entry in placement.x:
        r, i, k = entry
        req = reqs.get(r)
        if req is None:
            found.append((0, entry, 0, "UnknownRequest"))
        elif i not in req.chain:
            found.append((0, entry, 1, "NFNotInChain"))
        if k not in relevant:
            found.append((0, entry, 2, "TransitNode" if k in nodes else "UnknownNode"))
    for entry in placement.y:
        r, i, k, s, d = entry
        req = reqs.get(r)
        if req is None:
            found.append((1, entry, 0, "UnknownRequest"))
        else:
            if i not in req.chain:
                found.append((1, entry, 1, "NFNotInChain"))
            if s not in req.heads:
                found.append((1, entry, 3, "HeadNotInRequest"))
        if k not in relevant:
            found.append((1, entry, 2, "TransitNode" if k in nodes else "UnknownNode"))
        if d not in dests:
            found.append((1, entry, 4, "UnknownDestination"))
    found.sort()
    return [Violation(code, f"{'xy'[part]}[{','.join(entry)}]")
            for part, entry, _, code in found]


# ---------------------------------------------------------------------------
# Canonical JSON serialization
# ---------------------------------------------------------------------------

def _require(obj: Any, path: str, typ: type, what: str) -> Any:
    if not isinstance(obj, typ):
        raise ParseError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(path, f"expected number, got {type(obj).__name__}")
    try:
        return float(obj)
    except OverflowError:  # an integer literal beyond float range
        raise ParseError(path, "number is out of float range") from None


def _check_keys(obj: Mapping[str, Any], path: str, required: Iterable[str]) -> None:
    required = list(required)
    for key in required:
        if key not in obj:
            raise ParseError(f"{path}.{key}", "missing required field")
    unknown = sorted(set(obj) - set(required))
    if unknown:
        raise ParseError(f"{path}.{unknown[0]}", "unknown field")


def instance_to_dict(instance: ProblemInstance) -> dict[str, Any]:
    """Canonical dict form: fixed field order, sorted keys, sparse nonzero costs."""
    net = instance.network
    links = sorted(net.link_map.values(), key=lambda ln: ln.key)
    cost_block: dict[str, dict[str, float]] = {}
    for nf in sorted(instance.placement_cost):
        nonzero = {k: c for k, c in instance.placement_cost[nf].items() if c != 0.0}
        if nonzero:
            cost_block[nf] = {k: nonzero[k] for k in sorted(nonzero)}
    return {
        "network": {
            "nodes": sorted(net.nodes),
            "links": [
                {"u": ln.key[0], "v": ln.key[1], "cost": ln.cost,
                 "capacity_mbps": ln.capacity_mbps}
                for ln in links
            ],
            "candidates": sorted(net.candidates),
            "gateway": net.gateway,
            "attachment": net.attachment,
        },
        "catalog": {
            nf: {"memory_mb": dem.memory_mb, "cpu_cores": dem.cpu_cores}
            for nf, dem in sorted(instance.catalog.items())
        },
        "node_resources": {
            k: {"memory_mb": cap.memory_mb, "cpu_cores": cap.cpu_cores}
            for k, cap in sorted(instance.node_resources.items())
        },
        "requests": [
            {"id": r.id, "chain": list(r.chain),
             "flow_rate_mbps": r.flow_rate_mbps, "heads": sorted(r.heads)}
            for r in instance.requests
        ],
        "placement_cost": cost_block,
        "mobility": {
            "destinations": {d: p for d, p in sorted(instance.mobility.destinations.items())},
            "stay_probability": instance.mobility.stay_probability,
        },
    }


def instance_to_json(instance: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def instance_from_dict(data: Any) -> ProblemInstance:
    """Parse the canonical instance dict; unknown or missing fields raise
    :class:`ParseError` with the offending JSON path."""
    _require(data, "$", dict, "object")
    _check_keys(data, "$", ["network", "catalog", "node_resources",
                            "requests", "placement_cost", "mobility"])

    netd = _require(data["network"], "$.network", dict, "object")
    _check_keys(netd, "$.network", ["nodes", "links", "candidates", "gateway", "attachment"])
    nodes = [_require(n, "$.network.nodes[*]", str, "string")
             for n in _require(netd["nodes"], "$.network.nodes", list, "array")]
    links = []
    for idx, lk in enumerate(_require(netd["links"], "$.network.links", list, "array")):
        p = f"$.network.links[{idx}]"
        _require(lk, p, dict, "object")
        _check_keys(lk, p, ["u", "v", "cost", "capacity_mbps"])
        links.append(Link(
            u=_require(lk["u"], f"{p}.u", str, "string"),
            v=_require(lk["v"], f"{p}.v", str, "string"),
            cost=_number(lk["cost"], f"{p}.cost"),
            capacity_mbps=_number(lk["capacity_mbps"], f"{p}.capacity_mbps"),
        ))
    network = EdgeNetwork(
        nodes=frozenset(nodes),
        links=tuple(links),
        candidates=frozenset(
            _require(c, "$.network.candidates[*]", str, "string")
            for c in _require(netd["candidates"], "$.network.candidates", list, "array")),
        gateway=_require(netd["gateway"], "$.network.gateway", str, "string"),
        attachment=_require(netd["attachment"], "$.network.attachment", str, "string"),
    )

    catalog: dict[str, Resources] = {}
    for nf, dem in _require(data["catalog"], "$.catalog", dict, "object").items():
        p = f"$.catalog.{nf}"
        _require(dem, p, dict, "object")
        _check_keys(dem, p, ["memory_mb", "cpu_cores"])
        catalog[nf] = Resources(_number(dem["memory_mb"], f"{p}.memory_mb"),
                                _number(dem["cpu_cores"], f"{p}.cpu_cores"))

    node_resources: dict[str, Resources] = {}
    for k, cap in _require(data["node_resources"], "$.node_resources", dict, "object").items():
        p = f"$.node_resources.{k}"
        _require(cap, p, dict, "object")
        _check_keys(cap, p, ["memory_mb", "cpu_cores"])
        node_resources[k] = Resources(_number(cap["memory_mb"], f"{p}.memory_mb"),
                                      _number(cap["cpu_cores"], f"{p}.cpu_cores"))

    requests = []
    for idx, rq in enumerate(_require(data["requests"], "$.requests", list, "array")):
        p = f"$.requests[{idx}]"
        _require(rq, p, dict, "object")
        _check_keys(rq, p, ["id", "chain", "flow_rate_mbps", "heads"])
        requests.append(ServiceRequest(
            id=_require(rq["id"], f"{p}.id", str, "string"),
            chain=tuple(_require(nf, f"{p}.chain[*]", str, "string")
                        for nf in _require(rq["chain"], f"{p}.chain", list, "array")),
            flow_rate_mbps=_number(rq["flow_rate_mbps"], f"{p}.flow_rate_mbps"),
            heads=frozenset(_require(h, f"{p}.heads[*]", str, "string")
                            for h in _require(rq["heads"], f"{p}.heads", list, "array")),
        ))

    placement_cost: dict[str, dict[str, float]] = {}
    for nf, by_node in _require(data["placement_cost"], "$.placement_cost", dict, "object").items():
        p = f"$.placement_cost.{nf}"
        _require(by_node, p, dict, "object")
        placement_cost[nf] = {
            k: _number(c, f"{p}.{k}") for k, c in by_node.items()
        }

    mobd = _require(data["mobility"], "$.mobility", dict, "object")
    _check_keys(mobd, "$.mobility", ["destinations", "stay_probability"])
    destinations = {
        d: _number(p_, f"$.mobility.destinations.{d}")
        for d, p_ in _require(mobd["destinations"], "$.mobility.destinations", dict, "object").items()
    }
    mobility = MobilityProfile(
        destinations=destinations,
        stay_probability=_number(mobd["stay_probability"], "$.mobility.stay_probability"),
    )

    return ProblemInstance(
        network=network,
        catalog=catalog,
        node_resources=node_resources,
        requests=tuple(requests),
        placement_cost=placement_cost,
        mobility=mobility,
    )


def instance_from_json(text: str) -> ProblemInstance:
    try:
        data = json.loads(text)
    except ValueError as exc:  # an integer literal over int's digit limit too
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)


def placement_to_dict(placement: Placement) -> dict[str, Any]:
    return {
        "x": [list(t) for t in sorted(placement.x)],
        "y": [list(t) for t in sorted(placement.y)],
    }


def placement_to_json(placement: Placement) -> str:
    return json.dumps(placement_to_dict(placement), indent=2) + "\n"
