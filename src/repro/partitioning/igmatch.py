"""IG-Match: spectral net partitioning with matching-based completion.

The paper's main algorithm (Section 3, Figures 5–7):

1. Build the intersection graph ``G'`` of the netlist hypergraph and sort
   its second Laplacian eigenvector, giving a linear ordering of the nets.
2. Sweep a split point along the ordering.  At each split, the
   intersection-graph edges crossing the split form a bipartite graph
   ``B``; a maximum matching of ``B`` (maintained incrementally) and the
   König decomposition select a maximum independent set of *winner* nets
   (Phase I), which pin modules to sides.  The leftover modules are tried
   wholesale on each side and the better ratio cut kept (Phase II).
3. Return the best completed module partition over all splits.

Guarantees surfaced as checkable invariants:

* the completed partition never cuts more nets than the size of the
  maximum matching of ``B`` (Theorem 5) — optionally asserted per split;
* the output is deterministic for a fixed eigensolver seed, one of the
  paper's headline practical advantages.

The recursive extension sketched in Section 3 (re-partitioning the
unassigned core instead of assigning it wholesale) is available via
``recursive_depth``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..intersection import intersection_graph
from ..matching import IncrementalMatching
from ..matching.incremental import VertexClass
from ..obs import add_timing, emit, incr, is_enabled, span
from ..parallel import ParallelConfig, pstarmap
from ..spectral import spectral_ordering
from .metrics import ratio_cut_cost
from .partition import Partition, PartitionResult

__all__ = [
    "IGMatchConfig",
    "SplitEvaluation",
    "SweepWarmStart",
    "ig_match",
    "ig_match_sweep",
]

_L_SIDE = 0
_R_SIDE = 1
_UNASSIGNED = 2


@dataclass(frozen=True)
class IGMatchConfig:
    """Tuning knobs for :func:`ig_match`.

    ``weighting`` selects the intersection-graph edge weighting
    (``"paper"`` by default).  ``backend``/``seed`` control the
    eigensolver.  ``split_stride`` evaluates every k-th split (1 = all
    splits, the paper's algorithm; larger values trade quality for
    speed on very large netlists).  ``check_invariants`` asserts
    Theorem 5's loser bound at every evaluated split.
    ``recursive_depth`` > 0 enables the recursive completion extension.
    """

    weighting: str = "paper"
    backend: str = "scipy"
    seed: int = 0
    split_stride: int = 1
    check_invariants: bool = False
    recursive_depth: int = 0
    min_part_modules: int = 1
    #: Sweep orderings from this many Laplacian eigenvectors (2nd,
    #: 3rd, ...) and keep the best completion — the multi-eigenvector
    #: variant explored in the Hagen–Kahng follow-up work.  Falls back
    #: to the Fiedler ordering alone when the intersection graph cannot
    #: supply more eigenvectors (disconnected or too small).
    candidate_orderings: int = 1
    #: Optimise the *weighted* ratio cut: the numerator becomes the sum
    #: of cut-net weights (criticality), so heavy nets are kept uncut
    #: preferentially — the "critical signal nets" emphasis of the
    #: paper's introduction.  Theorem 5's loser-count invariant applies
    #: to net *counts*, so ``check_invariants`` is unavailable in this
    #: mode.  No-op on unweighted netlists.
    use_net_weights: bool = False
    #: Fan the candidate-ordering sweeps out over a worker pool
    #: (``None`` resolves from the ``REPRO_WORKERS`` /
    #: ``REPRO_BACKEND`` environment).  IG-Match is deterministic, so
    #: this only changes wall-clock time, never the result.
    parallel: Optional[ParallelConfig] = None


@dataclass(frozen=True)
class SplitEvaluation:
    """Outcome of completing the module partition at one split rank.

    ``nets_cut`` is a count normally, or the summed cut-net weight when
    the sweep runs with ``use_net_weights``.
    """

    rank: int
    matching_size: int
    nets_cut: float
    ratio_cut: float
    assign_core_to_l: bool


@dataclass(frozen=True)
class SweepWarmStart:
    """Warm-start directive for :func:`ig_match_sweep`.

    Restricts the sweep to split ranks ``lo..hi`` (inclusive, both in
    ``1..num_nets-1``).  The matcher reaches the rank ``lo`` state via
    :meth:`~repro.matching.IncrementalMatching.jump_start` — flipping
    the first ``lo - 1`` ordered nets in one shot, installing
    ``matching_seed`` pairs that are still valid crossing edges, and
    repairing to maximum with a single augmentation pass — instead of
    replaying ``lo - 1`` incremental moves.  König classes depend only
    on *which* matching is maximum, never on how it was found, so every
    evaluation inside the window is identical to the cold sweep's
    evaluation at the same rank.
    """

    lo: int
    hi: int
    matching_seed: Tuple[Tuple[int, int], ...] = ()


class _SweepArrays:
    """Flat pin arrays for the vectorised Phase II.

    ``pin_modules[i]`` / ``pin_nets[i]`` give the module and net of the
    i-th pin, read from the CSR net rows of ``h.csr``; ``net_valid``
    masks nets with >= 2 pins (the only ones that can be cut).  Built
    once per sweep.
    """

    def __init__(self, h: Hypergraph, use_net_weights: bool = False):
        csr = h.csr
        sizes = np.diff(csr.net_indptr)
        self.pin_modules = csr.net_indices
        self.pin_nets = np.repeat(
            np.arange(h.num_nets, dtype=np.int64), sizes
        )
        self.net_valid = sizes >= 2
        if use_net_weights and h.has_net_weights:
            self.net_weights = np.asarray(h.net_weights, dtype=float)
        else:
            self.net_weights = None
        self.num_modules = h.num_modules
        self.num_nets = h.num_nets


def _evaluate_split(
    arrays: _SweepArrays,
    codes: List[int],
    rank: int,
    matching_size: int,
) -> Tuple[Optional[SplitEvaluation], Optional[List[int]]]:
    """Phase II of the main loop: complete the module partition.

    ``codes[net]`` is the König class of each net (R = nets already
    swept, i.e. the first ``rank`` of the ordering).  Winner nets pin
    their modules; unassigned modules are tried on the L side and on the
    R side and the better ratio cut wins.

    Returns the evaluation and the module assignment array (values
    ``_L_SIDE``/``_R_SIDE``/``_UNASSIGNED``) for the winning option, or
    ``(None, None)`` when both completions are degenerate (one side
    empty).
    """
    codes_arr = np.asarray(codes, dtype=np.int8)
    net_class = codes_arr[arrays.pin_nets]
    assign = np.full(arrays.num_modules, _UNASSIGNED, dtype=np.int8)
    assign[arrays.pin_modules[net_class == VertexClass.EVEN_L]] = _L_SIDE
    assign[arrays.pin_modules[net_class == VertexClass.EVEN_R]] = _R_SIDE

    num_l = int(np.count_nonzero(assign == _L_SIDE))
    num_r = int(np.count_nonzero(assign == _R_SIDE))
    num_n = arrays.num_modules - num_l - num_r

    # Per-net pin counts on each side classify every net under both
    # completions at once.
    pin_sides = assign[arrays.pin_modules]
    m = arrays.num_nets
    in_l = np.bincount(
        arrays.pin_nets[pin_sides == _L_SIDE], minlength=m
    )
    in_r = np.bincount(
        arrays.pin_nets[pin_sides == _R_SIDE], minlength=m
    )
    in_n = np.bincount(
        arrays.pin_nets[pin_sides == _UNASSIGNED], minlength=m
    )

    valid = arrays.net_valid
    # Core → L: uncut iff all pins land in L (in_r == 0) or all in R.
    uncut_core_l = (in_r == 0) | ((in_l == 0) & (in_n == 0))
    uncut_core_r = (in_l == 0) | ((in_r == 0) & (in_n == 0))
    if arrays.net_weights is None:
        cut_if_core_l = int(np.count_nonzero(valid & ~uncut_core_l))
        cut_if_core_r = int(np.count_nonzero(valid & ~uncut_core_r))
    else:
        # Criticality mode: the numerator is the summed weight of cut
        # nets (IGMatchConfig.use_net_weights).
        cut_if_core_l = float(
            arrays.net_weights[valid & ~uncut_core_l].sum()
        )
        cut_if_core_r = float(
            arrays.net_weights[valid & ~uncut_core_r].sum()
        )

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
    return evaluation, assign.tolist()


def _materialise(
    h: Hypergraph, assign: Sequence[int], core_to_l: bool
) -> List[int]:
    """Resolve unassigned modules to the chosen side; return 0/1 sides.

    Side 0 (U) is the L side of the net split, side 1 (W) the R side.
    """
    resolved = _L_SIDE if core_to_l else _R_SIDE
    return [
        (resolved if a == _UNASSIGNED else a) for a in assign
    ]


def ig_match_sweep(
    h: Hypergraph,
    config: IGMatchConfig = IGMatchConfig(),
    order: Optional[Sequence[int]] = None,
    graph=None,
    warm: Optional[SweepWarmStart] = None,
    capture: Optional[dict] = None,
) -> Tuple[List[SplitEvaluation], Optional[Partition]]:
    """Run the full IG-Match sweep; return all evaluations and the best
    completed partition.

    ``order`` overrides the spectral net ordering (used by ablations that
    feed the same ordering to several completion strategies); ``graph``
    supplies a prebuilt intersection graph to avoid rebuilding it across
    multiple sweeps.  ``warm`` restricts the sweep to a rank window,
    jump-starting the matcher (see :class:`SweepWarmStart`); ``capture``,
    when a dict, receives the best split's rank and matching pairs —
    observation only, the sweep outcome is unchanged.
    """
    if h.num_modules < 2:
        raise PartitionError("IG-Match needs at least 2 modules")
    if h.num_nets < 2:
        raise PartitionError("IG-Match needs at least 2 nets to split")
    if config.split_stride < 1:
        raise PartitionError(
            f"split_stride must be >= 1, got {config.split_stride}"
        )

    if graph is None:
        graph = intersection_graph(h, config.weighting)
    if order is None:
        order = spectral_ordering(
            graph, backend=config.backend, seed=config.seed
        )
    elif sorted(order) != list(range(h.num_nets)):
        raise PartitionError("order must be a permutation of net indices")

    matcher = IncrementalMatching(graph)
    evaluations: List[SplitEvaluation] = []
    best_eval: Optional[SplitEvaluation] = None
    best_assign: Optional[List[int]] = None

    num_nets = h.num_nets
    start_index = 0
    stop_index = num_nets - 1
    if warm is not None:
        if not 1 <= warm.lo <= warm.hi <= num_nets - 1:
            raise PartitionError(
                f"warm window [{warm.lo}, {warm.hi}] outside valid "
                f"split ranks 1..{num_nets - 1}"
            )
        # Reach the rank ``lo - 1`` state in one shot; the loop below
        # then performs the rank ``lo`` move exactly like a cold sweep.
        matcher.jump_start(
            [order[i] for i in range(warm.lo - 1)], warm.matching_seed
        )
        start_index = warm.lo - 1
        stop_index = warm.hi
    use_weights = config.use_net_weights and h.has_net_weights
    if use_weights and config.check_invariants:
        raise PartitionError(
            "check_invariants (Theorem 5, a net-count bound) is not "
            "available with use_net_weights"
        )
    # The per-split loop is the pipeline's hot path, so it is profiled
    # with local perf_counter accumulators (reported once after the
    # loop) rather than a span per split; ``profiling`` is a local
    # bool, so the disabled cost is one branch per split.
    profiling = is_enabled()
    match_seconds = 0.0
    complete_seconds = 0.0
    t_mark = 0.0
    with span("igmatch.sweep", nets=num_nets) as sweep_span:
        arrays = _SweepArrays(h, use_weights)
        for index in range(start_index, stop_index):
            net = order[index]
            if profiling:
                t_mark = time.perf_counter()
            # Nets swept so far (including this one) form the R side.
            matcher.move_to_right(net)
            rank = index + 1
            if rank % config.split_stride and rank != num_nets - 1:
                if profiling:
                    match_seconds += time.perf_counter() - t_mark
                continue
            codes = matcher.classify()
            if profiling:
                now = time.perf_counter()
                match_seconds += now - t_mark
                t_mark = now
            evaluation, assign = _evaluate_split(
                arrays, codes, rank, matcher.matching_size
            )
            if profiling:
                complete_seconds += time.perf_counter() - t_mark
            if evaluation is None:
                continue
            if config.check_invariants and (
                evaluation.nets_cut > evaluation.matching_size
            ):
                raise PartitionError(
                    f"Theorem 5 violated at rank {rank}: "
                    f"{evaluation.nets_cut} nets cut > matching size "
                    f"{evaluation.matching_size}"
                )
            evaluations.append(evaluation)
            if best_eval is None or (
                (evaluation.ratio_cut, evaluation.rank)
                < (best_eval.ratio_cut, best_eval.rank)
            ):
                best_eval = evaluation
                best_assign = assign
                if capture is not None:
                    md = matcher.matching_dict()
                    capture["best_rank"] = rank
                    capture["matching"] = tuple(
                        sorted(
                            (v, p) for v, p in md.items() if v < p
                        )
                    )

        if profiling:
            splits = len(evaluations)
            sweep_span.set(
                splits=splits,
                augmentations=matcher.augmentations,
                matching_size=matcher.matching_size,
            )
            add_timing(
                "igmatch.matching",
                match_seconds,
                count=splits,
                augmentations=matcher.augmentations,
            )
            add_timing("igmatch.completion", complete_seconds, count=splits)
            incr("igmatch.sweeps")
            incr("igmatch.splits_evaluated", splits)
            incr("matching.augmentations", matcher.augmentations)
            incr(
                "matching.augmentation_attempts",
                matcher.augmentation_attempts,
            )
            incr("matching.search_visits", matcher.search_visits)
            emit(
                "igmatch.sweep",
                nets=num_nets,
                splits=splits,
                augmentations=matcher.augmentations,
                final_matching_size=matcher.matching_size,
                best_rank=None if best_eval is None else best_eval.rank,
            )
            if evaluations:
                # The ratio-cut-vs-split-index curve behind Theorem 6's
                # sweep, plus the matching-size (Theorem 5 bound) at
                # each evaluated split — the IG-Match analogue of the
                # EIG1 splits.curve event.
                emit(
                    "igmatch.curve",
                    nets=num_nets,
                    ranks=[e.rank for e in evaluations],
                    ratio_cuts=[e.ratio_cut for e in evaluations],
                    nets_cut=[e.nets_cut for e in evaluations],
                    matching_sizes=[
                        e.matching_size for e in evaluations
                    ],
                    best_rank=(
                        None if best_eval is None else best_eval.rank
                    ),
                )

    if best_eval is None or best_assign is None:
        return evaluations, None
    with span("igmatch.refinement", recursive_depth=config.recursive_depth):
        sides = _materialise(h, best_assign, best_eval.assign_core_to_l)
        partition = Partition(h, sides)
        if config.recursive_depth > 0:
            partition = _recursive_refine(
                h, best_assign, partition, config
            )
    return evaluations, partition


def _recursive_refine(
    h: Hypergraph,
    assign: Sequence[int],
    baseline: Partition,
    config: IGMatchConfig,
) -> Partition:
    """The recursive extension: instead of sending every unassigned
    module to one side, bipartition the unassigned set with a recursive
    IG-Match call and try both orientations of that sub-partition.

    Keeps the better of the baseline and the recursive completion, so it
    never degrades the result.
    """
    unassigned = [v for v, a in enumerate(assign) if a == _UNASSIGNED]
    if len(unassigned) < 4:
        return baseline

    from ..hypergraph import induced_subhypergraph

    sub, module_map, _ = induced_subhypergraph(h, unassigned)
    if sub.num_nets < 2 or sub.num_modules < 2:
        return baseline
    sub_config = IGMatchConfig(
        weighting=config.weighting,
        backend=config.backend,
        seed=config.seed,
        split_stride=config.split_stride,
        recursive_depth=config.recursive_depth - 1,
    )
    try:
        _, sub_partition = ig_match_sweep(sub, sub_config)
    except PartitionError:
        return baseline
    if sub_partition is None:
        return baseline

    best = baseline
    for orientation in (0, 1):
        sides = list(assign)
        for sub_index, module in enumerate(module_map):
            sub_side = sub_partition.side(sub_index)
            if orientation:
                sub_side = 1 - sub_side
            sides[module] = sub_side
        try:
            candidate = Partition(h, sides)
        except PartitionError:
            continue
        if candidate.ratio_cut < best.ratio_cut:
            best = candidate
    return best


def _candidate_orders(
    h: Hypergraph, graph, config: IGMatchConfig
) -> List[List[int]]:
    """Net orderings from the first ``candidate_orderings``
    eigenvectors, falling back to the single component-aware ordering
    when the graph cannot supply them."""
    from ..spectral import nontrivial_eigenvectors, ordering_from_values
    from ..errors import SpectralError

    count = max(1, config.candidate_orderings)
    if count > 1:
        try:
            _, vectors = nontrivial_eigenvectors(
                graph, count, backend=config.backend, seed=config.seed
            )
            return [
                ordering_from_values(vectors[:, i])
                for i in range(vectors.shape[1])
            ]
        except SpectralError:
            pass
    return [
        spectral_ordering(graph, backend=config.backend, seed=config.seed)
    ]


def _sweep_task(
    h: Hypergraph,
    config: IGMatchConfig,
    order: Sequence[int],
    graph,
    capture: bool = False,
) -> Tuple[
    int, Optional[SplitEvaluation], Optional[List[int]], Optional[dict]
]:
    """Run one candidate ordering's sweep (picklable worker task).

    Returns ``(splits_evaluated, best_evaluation, sides, captured)``
    with the partition flattened to its side list so process workers
    never ship a full :class:`Partition` back.  ``captured`` (the best
    split's matching snapshot) travels through the return tuple so the
    process backend works — mutated closures would not survive pickling.
    """
    captured: Optional[dict] = {} if capture else None
    evaluations, partition = ig_match_sweep(
        h, config, order=order, graph=graph, capture=captured
    )
    if partition is None:
        return len(evaluations), None, None, None
    sweep_best = min(evaluations, key=lambda e: (e.ratio_cut, e.rank))
    return len(evaluations), sweep_best, list(partition.sides), captured


def ig_match(
    h: Hypergraph,
    config: IGMatchConfig = IGMatchConfig(),
    order: Optional[Sequence[int]] = None,
    capture: Optional[dict] = None,
) -> PartitionResult:
    """Partition ``h`` with IG-Match; the paper's primary algorithm.

    Returns a :class:`PartitionResult` whose ``details`` include the best
    split rank, the matching-size bound at that split (Theorem 5), and
    the number of splits evaluated.  With
    ``config.candidate_orderings > 1`` the sweep is repeated for
    orderings from additional Laplacian eigenvectors and the best
    completion kept (still fully deterministic).  When ``capture`` is a
    dict it receives the winning sweep's best rank and matching pairs
    (the warm-start seed the ECO serving path stores per session);
    passing it never changes the result.
    """
    start = time.perf_counter()
    if h.num_modules < 2:
        raise PartitionError("IG-Match needs at least 2 modules")
    if h.num_nets < 2:
        raise PartitionError("IG-Match needs at least 2 nets to split")

    with span(
        "igmatch", modules=h.num_modules, nets=h.num_nets
    ) as ig_span:
        graph = intersection_graph(h, config.weighting)
        if order is not None:
            orders: List[Sequence[int]] = [order]
        else:
            with span(
                "igmatch.ordering", candidates=config.candidate_orderings
            ):
                orders = _candidate_orders(h, graph, config)

        # Candidate orderings sweep independently over the shared
        # intersection graph — the IG-Match fan-out site.  Reduction is
        # in ordering index order, so the first ordering wins ties.
        sweeps = pstarmap(
            _sweep_task,
            [
                (h, config, list(candidate), graph, capture is not None)
                for candidate in orders
            ],
            config.parallel,
            label="igmatch.orderings",
        )
        best_partition: Optional[Partition] = None
        best_eval: Optional[SplitEvaluation] = None
        best_index = 0
        best_captured: Optional[dict] = None
        total_evaluations = 0
        for index, (splits, sweep_best, sides, captured) in enumerate(
            sweeps
        ):
            total_evaluations += splits
            if sides is None or sweep_best is None:
                continue
            # Compare orderings by the sweep objective (which is the
            # weighted ratio cut under use_net_weights).
            if best_eval is None or sweep_best.ratio_cut < best_eval.ratio_cut:
                best_partition = Partition(h, sides)
                best_eval = sweep_best
                best_index = index
                best_captured = captured
        if best_eval is not None:
            ig_span.set(
                best_rank=best_eval.rank,
                splits_evaluated=total_evaluations,
                orderings=len(orders),
            )
    elapsed = time.perf_counter() - start
    if best_partition is None or best_eval is None:
        raise PartitionError(
            "IG-Match found no feasible completion at any split"
        )
    if capture is not None and best_captured:
        capture.update(best_captured)
        capture["best_ordering"] = best_index
    return PartitionResult(
        algorithm="IG-Match",
        partition=best_partition,
        elapsed_seconds=elapsed,
        details={
            "best_rank": best_eval.rank,
            "matching_bound": best_eval.matching_size,
            "splits_evaluated": total_evaluations,
            "weighting": config.weighting,
            "backend": config.backend,
            "recursive_depth": config.recursive_depth,
            "orderings_tried": len(orders),
            "best_ordering": best_index,
            **(
                {
                    "weighted_objective": True,
                    "weighted_ratio_cut": best_eval.ratio_cut,
                    "weighted_cut": best_eval.nets_cut,
                }
                if config.use_net_weights and h.has_net_weights
                else {}
            ),
        },
    )
