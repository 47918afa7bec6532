"""Pure-Python reference implementations: the oracles for the fast paths.

The product runs its hot paths on flat arrays — the CSR incidence twin
``h.csr`` and the graph's :meth:`~repro.graph.Graph.csr_arrays` — with
numpy doing the per-pin and per-edge work.  Each function here is the
plain loop that fast path replaced, kept only as a test oracle; the
product must equal it exactly (same values, same order, same float
bits), which ``tests/test_core_equivalence.py`` checks layer by layer:

* :func:`edge_state` — the intersection build as a per-edge loop over
  :func:`~repro.intersection.shared_module_map`;
* :func:`adjacency_matrix` — COO assembly of the adjacency matrix;
* :func:`classify` / :func:`alternating_mark` — König classification
  by a queue BFS over the matcher's adjacency lists;
* :func:`evaluate_split` — IG-Match Phase II, one pin at a time;
* :func:`fm_init` — FM pin counts, cut and gains by definition.

:func:`reference_paths` swaps all of them (and a from-scratch CSR twin
for the delta patcher) into the product at once, so a whole
partitioner run on the reference paths can be compared end to end with
the product run: byte-identical results and equal obs counters.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext
from typing import ContextManager, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import scipy.sparse as sp

import repro.delta.model
import repro.graph.laplacian
import repro.intersection.build
import repro.partitioning.igmatch as igmatch
from repro.hypergraph import Hypergraph
from repro.intersection import EdgeState, get_weighting, shared_module_map
from repro.matching.incremental import IncrementalMatching, VertexClass
from repro.partitioning.fm import FMEngine
from repro.partitioning.igmatch import (
    _L_SIDE,
    _R_SIDE,
    _UNASSIGNED,
    SplitEvaluation,
)
from repro.partitioning.metrics import ratio_cut_cost

__all__ = [
    "PATHS",
    "adjacency_matrix",
    "alternating_mark",
    "classify",
    "edge_state",
    "evaluate_split",
    "fm_init",
    "reference_paths",
    "run_on",
]

_LEFT = 0
_RIGHT = 1


def edge_state(h: Hypergraph, weighting_name: str = "paper") -> EdgeState:
    """The intersection graph's edges in first-encounter order: one
    weighting call per intersecting net pair, zero weights dropped."""
    weighting = get_weighting(weighting_name)
    edge_a, edge_b, weights, first_mod = [], [], [], []
    for (net_a, net_b), shared in shared_module_map(h).items():
        weight = weighting(h, net_a, net_b, shared)
        if weight > 0:
            edge_a.append(net_a)
            edge_b.append(net_b)
            weights.append(weight)
            first_mod.append(shared[0])
    return EdgeState(
        np.asarray(edge_a, dtype=np.int64),
        np.asarray(edge_b, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        np.asarray(first_mod, dtype=np.int64),
    )


def adjacency_matrix(g) -> sp.csr_matrix:
    """The symmetric adjacency matrix assembled from COO triplets."""
    n = g.num_vertices
    rows = []
    cols = []
    vals = []
    for u, v, w in g.edges():
        rows.append(u)
        cols.append(v)
        vals.append(w)
        rows.append(v)
        cols.append(u)
        vals.append(w)
    return sp.csr_matrix(
        (np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n)
    )


def alternating_mark(
    matcher: IncrementalMatching, from_side: int
) -> List[bool]:
    """Everything alternating-reachable from ``from_side``'s unmatched
    vertices, by a sequential queue BFS."""
    side = matcher._side
    match = matcher._match
    adjacency = matcher._adjacency
    visit = [False] * matcher.num_vertices
    queue = deque()
    for v in range(matcher.num_vertices):
        if side[v] == from_side and match[v] == -1:
            visit[v] = True
            queue.append(v)
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if side[w] == side[u] or visit[w]:
                continue
            # (u, w) is a crossing non-matching edge (w unmarked, so it
            # cannot be u's partner, which is marked with u).
            visit[w] = True
            mate = match[w]
            if mate != -1 and not visit[mate]:
                visit[mate] = True
                queue.append(mate)
    return visit


def classify(matcher: IncrementalMatching) -> List[int]:
    """König class codes of every vertex for the matcher's current split."""
    reach_l = alternating_mark(matcher, _LEFT)
    reach_r = alternating_mark(matcher, _RIGHT)
    codes = []
    for v in range(matcher.num_vertices):
        if matcher._side[v] == _LEFT:
            if reach_l[v]:
                codes.append(VertexClass.EVEN_L)
            elif reach_r[v]:
                codes.append(VertexClass.ODD_R)
            else:
                codes.append(VertexClass.CORE_L)
        elif reach_r[v]:
            codes.append(VertexClass.EVEN_R)
        elif reach_l[v]:
            codes.append(VertexClass.ODD_L)
        else:
            codes.append(VertexClass.CORE_R)
    return codes


def evaluate_split(
    h: Hypergraph,
    codes: Sequence[int],
    rank: int,
    matching_size: int,
) -> Tuple[Optional[SplitEvaluation], Optional[List[int]]]:
    """IG-Match Phase II: winner nets pin their modules, the rest go
    wholesale to whichever side gives the better ratio cut."""
    n = h.num_modules
    assign = [_UNASSIGNED] * n
    for net in range(h.num_nets):
        code = codes[net]
        if code == VertexClass.EVEN_L:
            for pin in h.pins(net):
                assign[pin] = _L_SIDE
        elif code == VertexClass.EVEN_R:
            for pin in h.pins(net):
                assign[pin] = _R_SIDE

    num_l = assign.count(_L_SIDE)
    num_r = assign.count(_R_SIDE)
    num_n = n - num_l - num_r

    cut_if_core_l = 0  # unassigned modules join the L side
    cut_if_core_r = 0
    for net in range(h.num_nets):
        pins = h.pins(net)
        if len(pins) < 2:
            continue
        in_l = in_r = in_n = 0
        for pin in pins:
            side = assign[pin]
            if side == _L_SIDE:
                in_l += 1
            elif side == _R_SIDE:
                in_r += 1
            else:
                in_n += 1
        # Core → L: uncut iff all pins land in L (in_r == 0) or all in R.
        if not (in_r == 0 or (in_l == 0 and in_n == 0)):
            cut_if_core_l += 1
        if not (in_l == 0 or (in_r == 0 and in_n == 0)):
            cut_if_core_r += 1

    ratio_core_l = ratio_cut_cost(cut_if_core_l, num_l + num_n, num_r)
    ratio_core_r = ratio_cut_cost(cut_if_core_r, num_l, num_r + num_n)
    if ratio_core_l == float("inf") and ratio_core_r == float("inf"):
        return None, None

    core_to_l = ratio_core_l <= ratio_core_r
    evaluation = SplitEvaluation(
        rank=rank,
        matching_size=matching_size,
        nets_cut=cut_if_core_l if core_to_l else cut_if_core_r,
        ratio_cut=ratio_core_l if core_to_l else ratio_core_r,
        assign_core_to_l=core_to_l,
    )
    return evaluation, assign


def fm_init(
    h: Hypergraph, sides: Sequence[int]
) -> Tuple[List[List[int]], int, List[int]]:
    """FM ``(pin_count, cut, gains)`` for ``sides``, by definition: a
    cell gains 1 per net where it is the sole pin on its side and loses
    1 per net lying entirely on its side (nets under 2 pins ignored)."""
    pin_count = [[0, 0] for _ in range(h.num_nets)]
    for net, pins in h.iter_nets():
        for pin in pins:
            pin_count[net][sides[pin]] += 1
    cut = sum(1 for in0, in1 in pin_count if in0 > 0 and in1 > 0)
    gains = []
    for cell in range(h.num_modules):
        side = sides[cell]
        gain = 0
        for net in h.nets_of(cell):
            counts = pin_count[net]
            if counts[0] + counts[1] < 2:
                continue
            if counts[side] == 1:
                gain += 1
            if counts[1 - side] == 0:
                gain -= 1
        gains.append(gain)
    return pin_count, cut, gains


# ----------------------------------------------------------------------
# The whole product on the reference paths
# ----------------------------------------------------------------------
class _ReferenceSweepArrays(igmatch._SweepArrays):
    """The sweep's Phase II input, keeping ``h`` for the oracle."""

    def __init__(self, h: Hypergraph, use_net_weights: bool = False):
        super().__init__(h, use_net_weights)
        self.h = h


_product_evaluate_split = igmatch._evaluate_split


def _reference_evaluate_split(arrays, codes, rank, matching_size):
    if arrays.net_weights is not None:  # the weighted objective has no oracle
        return _product_evaluate_split(arrays, codes, rank, matching_size)
    return evaluate_split(arrays.h, codes, rank, matching_size)


def _reference_fm_counts(engine: FMEngine) -> None:
    engine.pin_count, engine.cut, engine.gains = fm_init(
        engine.h, engine.sides
    )


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the product on the oracles for the ``with`` block.

    Replaces the vectorised intersection edge state, CSR Laplacian
    assembly, numpy König classification, vectorised Phase II and FM
    initialisation with the loops above, and makes
    :meth:`~repro.delta.NetlistDelta.apply` leave the edited netlist's
    CSR twin to be rebuilt from scratch instead of patched.  The
    patches are process-local, so work fanned out to process-pool
    workers may still run the product paths.
    """
    patches = (
        (repro.intersection.build, "intersection_edge_state", edge_state),
        (repro.graph.laplacian, "adjacency_matrix", adjacency_matrix),
        (IncrementalMatching, "classify", classify),
        (igmatch, "_SweepArrays", _ReferenceSweepArrays),
        (igmatch, "_evaluate_split", _reference_evaluate_split),
        (FMEngine, "_init_counts", _reference_fm_counts),
        (repro.delta.model, "_patch_csr", lambda base, application: None),
    )
    with ExitStack() as stack:
        for target, name, replacement in patches:
            stack.enter_context(mock.patch.object(target, name, replacement))
        yield


#: Test ids for the two ways to run the product: ``"dict"`` on the
#: reference loops above (dict/list adjacency, one pin at a time),
#: ``"csr"`` on its own flat-array paths.
PATHS = ("dict", "csr")


def run_on(paths: str) -> ContextManager[None]:
    """The context that runs the product on ``paths`` (see :data:`PATHS`)."""
    if paths not in PATHS:
        raise ValueError(f"unknown paths {paths!r}")
    return reference_paths() if paths == "dict" else nullcontext()
