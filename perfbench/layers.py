"""In-process replay of served ops, layer by layer, for the traced run.

Each replay function repeats what the server does for one op by calling
each layer's public functions on the op's own request body, with a span
around every call.  Replays run after the served phase, with the server
stopped, so they neither contend with it nor change what it measured.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.delta import NetlistDelta, seed_artifacts, updated_edge_state, warm_partition
from repro.hypergraph import from_json
from repro.intersection import graph_from_edge_state, intersection_graph
from repro.matching import IncrementalMatching
from repro.partitioning import IGMatchConfig, SweepWarmStart, ig_match, ig_match_sweep
from repro.service.engine import PartitionRequest, payload_to_result, result_to_payload
from repro.service.fingerprint import request_fingerprint
from repro.spectral import spectral_ordering

from .spans import Tracer

try:
    from repro.core import csr_active
except ImportError:  # a build with one core has no switch: CSR throughout
    def csr_active() -> bool:
        return True

#: The request every workload sends: ``POST /partition`` with no
#: options, i.e. IG-Match with the default seed and split stride.
REQUEST = PartitionRequest()
CONFIG = IGMatchConfig(seed=REQUEST.seed, split_stride=REQUEST.split_stride)


def _respond(tr: Tracer, op: str, result, served: Dict[str, Any]) -> None:
    """The response document the HTTP layer encodes for a serve."""
    with tr.span("service.respond", op):
        doc = dict(served)
        doc["result"] = result_to_payload(result)
        json.dumps(doc, sort_keys=True).encode("utf-8")


def replay_matching(
    tr: Tracer,
    op: str,
    parent: int,
    graph,
    order: Sequence[int],
    lo: int = 1,
    hi: Optional[int] = None,
    seed=(),
) -> None:
    """Drive the matcher over split ranks ``lo..hi`` of ``order`` the
    way ``ig_match_sweep`` does (one move and one König classification
    per split), timing each call, and count the work it did.

    A window that starts past rank 1 is reached with ``jump_start``,
    timed as a move.  ``matching.class_changes`` counts nets whose class
    differs from the previous split's."""
    hi = len(order) - 1 if hi is None else hi
    matcher = IncrementalMatching(graph)
    if lo > 1:
        t0 = time.perf_counter()
        matcher.jump_start([order[i] for i in range(lo - 1)], seed)
        tr.add("matching.move", op, parent, t0, time.perf_counter())
    previous = None
    changes = classified = 0
    for index in range(lo - 1, hi):
        t0 = time.perf_counter()
        matcher.move_to_right(order[index])
        t1 = time.perf_counter()
        codes = matcher.classify()
        t2 = time.perf_counter()
        tr.add("matching.move", op, parent, t0, t1)
        tr.add("matching.classify", op, parent, t1, t2)
        codes = np.asarray(codes)
        if previous is not None:
            changes += int(np.count_nonzero(codes != previous))
            classified += codes.size
        previous = codes
    tr.count(op, "matching.augmentations", matcher.augmentations)
    tr.count(op, "matching.search_visits", matcher.search_visits)
    tr.count(op, "matching.class_changes", changes)
    tr.count(op, "matching.nets_classified", classified)


def replay_miss(tr: Tracer, op: str, body: bytes, served: Dict[str, Any], cache) -> None:
    """A first serve: parse, build, fingerprint, cache miss, IG-Match
    (intersection graph, spectral ordering, sweep), cache write, session
    seed, response.  ``cache`` is a disk-backed ``ResultCache``."""
    with tr.span("op", op):
        with tr.span("service.parse", op):
            doc = json.loads(body)
        with tr.span("hypergraph.from_json", op):
            h = from_json(doc["netlist"])
        with tr.span("service.fingerprint", op):
            key = request_fingerprint(h, REQUEST)
        with tr.span("service.cache.lookup", op):
            cache.lookup(key)
        with tr.span("intersection.build", op):
            graph = intersection_graph(h)
        with tr.span("spectral.ordering", op):
            order = spectral_ordering(graph, seed=REQUEST.seed)
        capture: Dict[str, Any] = {}
        with tr.span("partitioning.sweep", op) as sweep:
            ig_match_sweep(h, CONFIG, order=order, graph=graph, capture=capture)
        replay_matching(tr, op, sweep, graph, order)
        payload = served["result"]
        with tr.span("service.cache.put", op):
            cache.put(key, payload)
        with tr.span("service.session_seed", op):
            seed_artifacts(h, payload, REQUEST.algorithm, capture)
        _respond(tr, op, payload_to_result(h, payload), served)


def replay_hit(tr: Tracer, op: str, body: bytes, served: Dict[str, Any], cache) -> None:
    """A repeat serve: parse, build, fingerprint, memory-cache hit,
    rebuild the result from the cached payload, response."""
    with tr.span("op", op):
        with tr.span("service.parse", op):
            doc = json.loads(body)
        with tr.span("hypergraph.from_json", op):
            h = from_json(doc["netlist"])
        with tr.span("service.fingerprint", op):
            key = request_fingerprint(h, REQUEST)
        with tr.span("service.cache.lookup", op):
            payload, _ = cache.lookup(key)
        with tr.span("service.respond", op):
            doc = dict(served)
            doc["result"] = result_to_payload(payload_to_result(h, payload))
            json.dumps(doc, sort_keys=True).encode("utf-8")


@dataclass
class EcoSession:
    """What the server's session holds for the head of a delta chain."""

    h: Any
    key: str
    artifacts: Any


def seed_session(h, served_result: Dict[str, Any]) -> EcoSession:
    """The session a cold serve of ``h`` leaves behind (untimed)."""
    capture: Dict[str, Any] = {}
    ig_match(h, CONFIG, capture=capture)
    artifacts = seed_artifacts(h, served_result, REQUEST.algorithm, capture)
    return EcoSession(h, request_fingerprint(h, REQUEST), artifacts)


def replay_delta(
    tr: Tracer, op: str, body: bytes, served: Dict[str, Any], session: EcoSession
) -> EcoSession:
    """A delta serve against ``session``: parse, delta parse / validate /
    apply, fingerprint, warm partition (edge-state patch, spectral
    ordering, windowed sweep), response.  Returns the next session."""
    base = session.h
    with tr.span("op", op):
        with tr.span("service.parse", op):
            doc = json.loads(body)
        with tr.span("delta.parse", op):
            delta = NetlistDelta.from_doc(doc["delta"])
        with tr.span("delta.validate", op):
            delta.validate(base)
        with tr.span("delta.apply", op):
            application = delta.apply_detailed(base)
        h2 = application.hypergraph
        with tr.span("service.fingerprint", op):
            key = request_fingerprint(h2, REQUEST)
        if key == session.key and session.artifacts.payload:
            _respond(tr, op, payload_to_result(h2, session.artifacts.payload), served)
            return session
        artifacts = session.artifacts
        with tr.span("delta.warm", op) as warm:
            result, fresh, _ = warm_partition(base, artifacts, application, REQUEST)
        with tr.span("intersection.patch", op, parent=warm):
            state = updated_edge_state(
                base, artifacts.edge_state, application, weighting=artifacts.weighting
            )
            graph = graph_from_edge_state(h2.num_nets, state, set_csr=csr_active())
        with tr.span("spectral.ordering", op, parent=warm):
            order = spectral_ordering(graph, seed=REQUEST.seed)
        details = result.details
        lo, hi = details["window_lo"], details["window_hi"]
        seed = _mapped_matching(artifacts.matching, application.net_map)
        with tr.span("partitioning.window_sweep", op, parent=warm) as sweep:
            ig_match_sweep(
                h2, CONFIG, order=order, graph=graph,
                warm=SweepWarmStart(lo=lo, hi=hi, matching_seed=seed),
            )
        replay_matching(tr, op, sweep, graph, order, lo, hi, seed)
        fresh.payload = result_to_payload(result)
        _respond(tr, op, result, served)
    return EcoSession(h2, key, fresh)


def _mapped_matching(matching, net_map):
    """The previous matching in edited-net indices, as the warm sweep
    seeds its matcher (pairs touching a removed net are dropped)."""
    return tuple(
        (net_map[u], net_map[v])
        for u, v in matching
        if net_map[u] is not None and net_map[v] is not None
    )
