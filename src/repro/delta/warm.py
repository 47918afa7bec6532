"""Warm-started partitioning across a netlist delta.

The ECO serving core: given a base hypergraph, the artifacts saved when
the base was partitioned (its intersection edge state, the best split
rank and matching for IG-Match, the gain structures for FM), and a
validated :class:`~repro.delta.model.DeltaApplication`, produce the
edited hypergraph's partition while reusing everything the delta did
not touch:

* **IG-Match** — the intersection graph is patched, not rebuilt
  (:func:`~repro.delta.igraph.updated_edge_state`); the eigen ordering
  is re-solved on the patched graph (cheap relative to the sweep, and
  bitwise what a cold build would order); the split sweep is restricted
  to a window around the previous best rank, jump-starting the
  incremental matcher from the previous matching
  (:class:`~repro.partitioning.SweepWarmStart`).  Every evaluation
  inside the window is identical to the cold sweep's at the same rank.
* **FM** — the previous sides map through the delta (new modules join
  the lighter side), and the engine's pin counts and gains are patched
  for touched nets/modules only (:meth:`FMEngine.from_state
  <repro.partitioning.FMEngine.from_state>`) before the normal pass
  loop refines.
* anything else falls back to a cold
  :func:`~repro.service.run_partitioner` run on the edited hypergraph.

:func:`warm_partition` returns the result together with the refreshed
:class:`SessionArtifacts` for the edited hypergraph, so a serving
session can chain deltas indefinitely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..intersection import (
    EdgeState,
    graph_from_edge_state,
    intersection_edge_state,
)
from ..obs import incr, span
from ..parallel import ParallelConfig
from ..partitioning import (
    FMConfig,
    FMEngine,
    IGMatchConfig,
    Partition,
    PartitionResult,
    SweepWarmStart,
    ig_match_sweep,
)
from ..partitioning.fm import fm_refine_engine
from ..spectral import spectral_ordering
from .igraph import updated_edge_state
from .model import DeltaApplication

__all__ = [
    "SessionArtifacts",
    "seed_artifacts",
    "warm_partition",
]

#: Half-width of the warm sweep window, as evaluated split ranks on
#: each side of the previous best rank.  Small ECO edits move the best
#: split by a handful of ranks at most; the floor keeps tiny netlists
#: sweeping everything (where warm == cold exactly).
WARM_WINDOW = 64


@dataclass
class SessionArtifacts:
    """Everything a serving session stores to warm-start the next delta.

    ``payload`` is the served result payload (the session's prior
    answer, returned verbatim on a no-op delta).  The remaining fields
    are algorithm-specific warm state; any of them may be ``None`` when
    the session was seeded from a cache hit (payload only) — the warm
    path then degrades gracefully to partial reuse.
    """

    payload: Dict[str, Any]
    #: Canonical intersection edge state of the session's hypergraph
    #: (IG-Match; lets the next delta patch instead of rebuild).
    edge_state: Optional[EdgeState] = None
    #: Intersection weighting the edge state was built with.
    weighting: str = "paper"
    #: Best split rank of the previous sweep (window centre).
    best_rank: Optional[int] = None
    #: Matching pairs ``(net, net)`` at the previous best split.
    matching: Tuple[Tuple[int, int], ...] = ()
    #: FM gain structures of the previous answer: per-net pin counts,
    #: net cut, per-module gains (pure functions of (h, sides)).
    fm_pin_count: Optional[List[List[int]]] = None
    fm_cut: Optional[int] = None
    fm_gains: Optional[List[int]] = None

    def estimated_bytes(self) -> int:
        """Rough retained size, for the session store's accounting."""
        total = 256
        sides = self.payload.get("sides")
        if sides is not None:
            total += 8 * len(sides)
        if self.edge_state is not None:
            total += sum(
                a.nbytes
                for a in (
                    self.edge_state.edge_a,
                    self.edge_state.edge_b,
                    self.edge_state.weights,
                    self.edge_state.first_mod,
                )
            )
        total += 16 * len(self.matching)
        if self.fm_pin_count is not None:
            total += 16 * len(self.fm_pin_count)
        if self.fm_gains is not None:
            total += 8 * len(self.fm_gains)
        return total


def seed_artifacts(
    h: Hypergraph,
    payload: Dict[str, Any],
    algorithm: str,
    capture: Optional[Dict[str, Any]] = None,
) -> SessionArtifacts:
    """Build full session artifacts after a cold compute.

    ``capture`` is the dict filled by ``ig_match(..., capture=...)``
    (best rank and matching pairs).  For FM the gain structures are
    rebuilt once from the final sides — O(pins), amortised across every
    delta the session will serve.
    """
    artifacts = SessionArtifacts(payload=payload)
    if algorithm == "ig-match":
        artifacts.edge_state = intersection_edge_state(h)
        if capture:
            artifacts.best_rank = capture.get("best_rank")
            artifacts.matching = tuple(capture.get("matching", ()))
    elif algorithm == "fm":
        engine = FMEngine(h, payload["sides"])
        artifacts.fm_pin_count = engine.pin_count
        artifacts.fm_cut = engine.cut
        artifacts.fm_gains = engine.gains
    return artifacts


def _map_matching(
    matching: Tuple[Tuple[int, int], ...],
    application: DeltaApplication,
) -> Tuple[Tuple[int, int], ...]:
    """Previous matching pairs in edited-net indices (dropping pairs
    that touch a removed net; the jump-start repair re-grows those)."""
    net_map = application.net_map
    mapped = []
    for u, v in matching:
        mu, mv = net_map[u], net_map[v]
        if mu is not None and mv is not None:
            mapped.append((mu, mv))
    return tuple(mapped)


def _map_sides(
    sides: List[int],
    application: DeltaApplication,
) -> List[int]:
    """Previous sides in edited-module indices; each added module joins
    the side with less mapped area (deterministic, ascending index)."""
    edited = application.hypergraph
    mapped = [0] * edited.num_modules
    side_area = [0.0, 0.0]
    for v, target in enumerate(application.module_map):
        if target is not None:
            s = sides[v]
            mapped[target] = s
            side_area[s] += edited.module_area(target)
    for v in application.added_modules:
        lighter = 0 if side_area[0] <= side_area[1] else 1
        mapped[v] = lighter
        side_area[lighter] += edited.module_area(v)
    return mapped


def _touched_for_fm(
    base: Hypergraph, application: DeltaApplication
) -> Tuple[set, set]:
    """(touched edited-net set, touched edited-module set) whose FM
    state cannot be copied across the delta."""
    edited = application.hypergraph
    changed_final = {
        application.net_map[k] for k in application.changed_nets
    }
    touched_nets = changed_final | set(application.added_nets)
    touched_mods = set(application.added_modules)
    for e in touched_nets:
        touched_mods.update(edited.pins(e))
    changed_base = set(application.changed_nets)
    for k, target in enumerate(application.net_map):
        if target is None or k in changed_base:
            for p in base.pins(k):
                mapped = application.module_map[p]
                if mapped is not None:
                    touched_mods.add(mapped)
    return touched_nets, touched_mods


def _warm_ig_match(
    base: Hypergraph,
    artifacts: SessionArtifacts,
    application: DeltaApplication,
    seed: int,
    split_stride: int,
) -> Tuple[PartitionResult, SessionArtifacts]:
    h2 = application.hypergraph
    config = IGMatchConfig(seed=seed, split_stride=split_stride)
    start = time.perf_counter()
    with span(
        "delta.warm.igmatch", modules=h2.num_modules, nets=h2.num_nets
    ) as sp:
        if artifacts.edge_state is not None:
            state = updated_edge_state(
                base, artifacts.edge_state, application,
                weighting=artifacts.weighting,
            )
        else:
            state = intersection_edge_state(h2, artifacts.weighting)
        graph = graph_from_edge_state(h2.num_nets, state)
        order = spectral_ordering(
            graph, backend=config.backend, seed=config.seed
        )

        warm: Optional[SweepWarmStart] = None
        if artifacts.best_rank is not None:
            centre = min(artifacts.best_rank, h2.num_nets - 1)
            lo = max(1, centre - WARM_WINDOW)
            hi = min(h2.num_nets - 1, centre + WARM_WINDOW)
            warm = SweepWarmStart(
                lo=lo,
                hi=hi,
                matching_seed=_map_matching(
                    artifacts.matching, application
                ),
            )
        capture: Dict[str, Any] = {}
        evaluations, partition = ig_match_sweep(
            h2, config, order=order, graph=graph,
            warm=warm, capture=capture,
        )
        if partition is None:
            raise PartitionError(
                "warm IG-Match found no feasible completion in the "
                "sweep window"
            )
        best = min(evaluations, key=lambda e: (e.ratio_cut, e.rank))
        sp.set(
            window_lo=warm.lo if warm else None,
            window_hi=warm.hi if warm else None,
            best_rank=best.rank,
        )
    elapsed = time.perf_counter() - start
    result = PartitionResult(
        algorithm="IG-Match",
        partition=partition,
        elapsed_seconds=elapsed,
        details={
            "best_rank": best.rank,
            "matching_bound": best.matching_size,
            "splits_evaluated": len(evaluations),
            "weighting": config.weighting,
            "backend": config.backend,
            "recursive_depth": 0,
            "orderings_tried": 1,
            "best_ordering": 0,
            "warm": True,
            "window_lo": warm.lo if warm else 0,
            "window_hi": warm.hi if warm else 0,
        },
    )
    incr("delta.warm.igmatch")
    fresh = SessionArtifacts(
        payload={},  # caller installs the served payload
        edge_state=state,
        weighting=artifacts.weighting,
        best_rank=capture.get("best_rank"),
        matching=tuple(capture.get("matching", ())),
    )
    return result, fresh


def _warm_fm(
    base: Hypergraph,
    artifacts: SessionArtifacts,
    application: DeltaApplication,
    seed: int,
) -> Tuple[PartitionResult, SessionArtifacts]:
    h2 = application.hypergraph
    config = FMConfig(seed=seed)
    start = time.perf_counter()
    with span(
        "delta.warm.fm", modules=h2.num_modules, nets=h2.num_nets
    ) as sp:
        sides2 = _map_sides(list(artifacts.payload["sides"]), application)
        if (
            artifacts.fm_pin_count is not None
            and artifacts.fm_gains is not None
        ):
            touched_nets, touched_mods = _touched_for_fm(
                base, application
            )
            pin_count: List[Optional[List[int]]] = [None] * h2.num_nets
            for k, target in enumerate(application.net_map):
                if target is not None and target not in touched_nets:
                    pin_count[target] = list(artifacts.fm_pin_count[k])
            for e in sorted(touched_nets):
                counts = [0, 0]
                for p in h2.pins(e):
                    counts[sides2[p]] += 1
                pin_count[e] = counts
            cut = sum(
                1 for c in pin_count if c[0] > 0 and c[1] > 0
            )
            gains = [0] * h2.num_modules
            for v, target in enumerate(application.module_map):
                if target is not None and target not in touched_mods:
                    gains[target] = artifacts.fm_gains[v]
            engine = FMEngine.from_state(
                h2, sides2, pin_count, cut, gains,
                recompute_gains=sorted(touched_mods),
            )
            sp.set(
                patched=True,
                touched_nets=len(touched_nets),
                touched_modules=len(touched_mods),
            )
        else:
            engine = FMEngine(h2, sides2)
            sp.set(patched=False)
        final_sides, cut, passes = fm_refine_engine(engine, config)
    elapsed = time.perf_counter() - start
    result = PartitionResult(
        algorithm="FM",
        partition=Partition(h2, final_sides),
        elapsed_seconds=elapsed,
        details={
            "passes": passes,
            "balance_tolerance": config.balance_tolerance,
            "seed": config.seed,
            "lookahead": config.lookahead,
            "starts": 1,
            "warm": True,
        },
    )
    incr("delta.warm.fm")
    fresh = SessionArtifacts(
        payload={},
        fm_pin_count=engine.pin_count,
        fm_cut=engine.cut,
        fm_gains=engine.gains,
    )
    return result, fresh


def warm_partition(
    base: Hypergraph,
    artifacts: SessionArtifacts,
    application: DeltaApplication,
    request: Any,
    parallel: Optional[ParallelConfig] = None,
) -> Tuple[PartitionResult, SessionArtifacts, bool]:
    """Partition the edited hypergraph, reusing the session's artifacts.

    Returns ``(result, fresh_artifacts, warm)`` where ``warm`` records
    whether a warm engine path actually ran (``False`` means the
    algorithm fell back to a cold run on the edited hypergraph).  The
    returned artifacts describe the *edited* hypergraph; the caller
    installs the served payload into them and stores them under the
    edited fingerprint.
    """
    h2 = application.hypergraph
    viable = h2.num_modules >= 2 and h2.num_nets >= 2
    if viable and request.algorithm == "ig-match":
        result, fresh = _warm_ig_match(
            base, artifacts, application,
            seed=request.seed, split_stride=request.split_stride,
        )
        return result, fresh, True
    if viable and request.algorithm == "fm":
        result, fresh = _warm_fm(
            base, artifacts, application, seed=request.seed
        )
        return result, fresh, True

    from ..service.engine import run_partitioner

    result = run_partitioner(h2, request, parallel=parallel)
    return result, SessionArtifacts(payload={}), False
