"""Fiduccia–Mattheyses iterative improvement with gain buckets.

The classic linear-time-per-pass hypergraph bipartitioner [7], used by the
paper (via Wei–Cheng's RCut1.0 adaptation) as the iterative baseline
family.  This module provides:

* :class:`GainBuckets` — the bucket-list structure keyed by gain;
* :class:`FMEngine` — incremental gain maintenance, single FM passes with
  a balance constraint, and prefix-revert semantics;
* :func:`fm_bipartition` — the standard multi-pass r-balanced FM
  partitioner (minimum net cut subject to a balance tolerance).

The ratio-cut variant built on the same engine lives in
:mod:`repro.partitioning.rcut`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..obs import emit, incr, is_enabled, span
from ..parallel import ParallelConfig, pstarmap, spawn_seeds
from .metrics import ratio_cut_cost
from .partition import Partition, PartitionResult

__all__ = ["GainBuckets", "SideBuckets", "FMEngine", "FMConfig",
           "fm_bipartition", "fm_refine_engine", "random_balanced_sides"]


class GainBuckets:
    """Cells bucketed by gain, with O(1) expected operations.

    A simplified bucket list: gain -> set of cells, plus a max-gain
    cursor.  ``pop_best`` returns an arbitrary cell of maximum gain that
    satisfies the caller's feasibility predicate.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, Set[int]] = {}
        self._max_gain: Optional[int] = None

    def __len__(self) -> int:
        return sum(len(s) for s in self._buckets.values())

    def insert(self, cell: int, gain: int) -> None:
        self._buckets.setdefault(gain, set()).add(cell)
        if self._max_gain is None or gain > self._max_gain:
            self._max_gain = gain

    def remove(self, cell: int, gain: int) -> None:
        bucket = self._buckets.get(gain)
        if bucket is None or cell not in bucket:
            raise PartitionError(
                f"cell {cell} not in gain bucket {gain}"
            )
        bucket.remove(cell)
        if not bucket:
            del self._buckets[gain]
            if gain == self._max_gain:
                self._max_gain = max(self._buckets, default=None)

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        """Move a cell between buckets; returns the new gain."""
        if delta == 0:
            return old_gain
        new_gain = old_gain + delta
        self.remove(cell, old_gain)
        self.insert(cell, new_gain)
        return new_gain

    def iter_best_first(self):
        """Yield ``(gain, cell)`` pairs from the highest bucket down."""
        for gain in sorted(self._buckets, reverse=True):
            for cell in tuple(self._buckets[gain]):
                yield gain, cell


class SideBuckets:
    """One :class:`GainBuckets` per partition side.

    Lets a pass ask for the best-gain *feasible* candidate on each side
    separately — required by ratio-gain move selection, where the best
    move from the small side and the best from the large side must be
    compared by their resulting ratio cuts, not by raw cut gain.
    """

    def __init__(self) -> None:
        self._buckets = (GainBuckets(), GainBuckets())
        self._side_of: Dict[int, int] = {}

    def insert(self, cell: int, gain: int, side: int) -> None:
        self._side_of[cell] = side
        self._buckets[side].insert(cell, gain)

    def remove(self, cell: int, gain: int) -> None:
        side = self._side_of.pop(cell)
        self._buckets[side].remove(cell, gain)

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        return self._buckets[self._side_of[cell]].update(
            cell, old_gain, delta
        )

    def best_feasible(self, side: int, feasible):
        """``(gain, cell)`` of the best feasible cell on ``side``."""
        for gain, cell in self._buckets[side].iter_best_first():
            if feasible(cell):
                return gain, cell
        return None

    def tied_feasible(self, side: int, feasible, limit: int = 8):
        """All feasible cells sharing the best feasible gain on
        ``side``, up to ``limit`` — the tie set for lookahead
        selection.  Returns ``(gain, [cells])`` or ``None``."""
        best_gain = None
        cells = []
        for gain, cell in self._buckets[side].iter_best_first():
            if best_gain is not None and gain < best_gain:
                break
            if feasible(cell):
                best_gain = gain
                cells.append(cell)
                if len(cells) >= limit:
                    break
        if best_gain is None:
            return None
        return best_gain, cells


class FMEngine:
    """Mutable FM state over a hypergraph bipartition.

    Maintains, incrementally under single-cell moves:

    * per-net pin counts on each side,
    * the current net cut,
    * per-cell gains (cut decrease if the cell moved), via the standard
      before/after critical-net rules of Fiduccia–Mattheyses,
    * side sizes and areas.

    The engine itself enforces no balance rule — callers pass a
    feasibility predicate to :meth:`run_pass`.
    """

    def __init__(self, h: Hypergraph, sides: Sequence[int]):
        if len(sides) != h.num_modules:
            raise PartitionError(
                f"{len(sides)} sides for {h.num_modules} modules"
            )
        self.h = h
        self.sides: List[int] = [int(s) for s in sides]
        if any(s not in (0, 1) for s in self.sides):
            raise PartitionError("sides must be 0/1")
        self.side_count = [
            self.sides.count(0),
            h.num_modules - self.sides.count(0),
        ]
        areas = h.module_areas
        self.side_area = [0.0, 0.0]
        for v, s in enumerate(self.sides):
            self.side_area[s] += areas[v]
        self._init_counts()
        # Stats of the most recent run_pass (moved/kept/best_value).
        self.last_pass = {"moved": 0, "kept": 0, "best_value": 0.0}

    @classmethod
    def from_state(
        cls,
        h: Hypergraph,
        sides: Sequence[int],
        pin_count: Sequence[Sequence[int]],
        cut: int,
        gains: Sequence[int],
        recompute_gains: Sequence[int] = (),
    ) -> "FMEngine":
        """Build an engine from previously computed gain structures.

        The ECO warm-start constructor: ``pin_count``/``cut``/``gains``
        are pure functions of ``(h, sides)``, so a caller holding them
        from an earlier engine (remapped through a netlist delta) can
        skip the O(pins) cold initialisation and recompute only the
        ``recompute_gains`` modules whose neighbourhoods the delta
        touched.  The caller is trusted on the untouched entries — the
        differential tests assert the patched state equals a cold
        ``FMEngine(h, sides)`` build.
        """
        if len(sides) != h.num_modules:
            raise PartitionError(
                f"{len(sides)} sides for {h.num_modules} modules"
            )
        if len(pin_count) != h.num_nets or len(gains) != h.num_modules:
            raise PartitionError("warm FM state does not match hypergraph")
        engine = cls.__new__(cls)
        engine.h = h
        engine.sides = [int(s) for s in sides]
        if any(s not in (0, 1) for s in engine.sides):
            raise PartitionError("sides must be 0/1")
        engine.side_count = [
            engine.sides.count(0),
            h.num_modules - engine.sides.count(0),
        ]
        areas = h.module_areas
        engine.side_area = [0.0, 0.0]
        for v, s in enumerate(engine.sides):
            engine.side_area[s] += areas[v]
        engine.pin_count = [list(counts) for counts in pin_count]
        engine.cut = int(cut)
        engine.gains = [int(g) for g in gains]
        for v in recompute_gains:
            engine.gains[v] = engine._compute_gain(v)
        engine.last_pass = {"moved": 0, "kept": 0, "best_value": 0.0}
        return engine

    # ------------------------------------------------------------------
    def _init_counts(self) -> None:
        """Vectorised pin-count / cut / gain initialisation.

        Pure integer arithmetic over the flat CSR pin arrays, so the
        results equal a per-pin loop with :meth:`_compute_gain` exactly:
        bincount the pins by side for per-net counts, then sum each
        pin's FS/TE critical-net contribution per module.  Only
        initialisation is vectorised — the incremental :meth:`move`
        bookkeeping and bucket insertion order (which is
        visit-order-sensitive) stay untouched.
        """
        import numpy as np

        h = self.h
        m = h.num_nets
        n = h.num_modules
        csr = h.csr
        sizes = np.diff(csr.net_indptr)
        pin_modules = csr.net_indices
        pin_nets = np.repeat(np.arange(m, dtype=np.int64), sizes)
        sides_arr = np.asarray(self.sides, dtype=np.int64)
        pin_sides = sides_arr[pin_modules]
        in1 = np.bincount(pin_nets[pin_sides == 1], minlength=m)
        in0 = sizes - in1
        self.pin_count = np.stack((in0, in1), axis=1).tolist()
        self.cut = int(np.count_nonzero((in0 > 0) & (in1 > 0)))
        valid = sizes >= 2
        count_same = np.where(pin_sides == 0, in0[pin_nets], in1[pin_nets])
        count_other = np.where(
            pin_sides == 0, in1[pin_nets], in0[pin_nets]
        )
        contribution = np.where(
            valid[pin_nets],
            (count_same == 1).astype(np.int64)
            - (count_other == 0).astype(np.int64),
            0,
        )
        gains = np.bincount(pin_modules, weights=contribution, minlength=n)
        self.gains = gains.astype(np.int64).tolist()

    # ------------------------------------------------------------------
    def _compute_gain(self, cell: int) -> int:
        """Gain of moving ``cell``: FS(cell) - TE(cell)."""
        side = self.sides[cell]
        other = 1 - side
        gain = 0
        for net in self.h.nets_of(cell):
            counts = self.pin_count[net]
            if counts[side] + counts[other] < 2:
                continue
            if counts[side] == 1:
                gain += 1  # cell is the sole pin on its side: uncuts
            if counts[other] == 0:
                gain -= 1  # net entirely on cell's side: move cuts it
        return gain

    def move(self, cell: int, buckets: Optional[GainBuckets] = None,
             locked: Optional[Sequence[bool]] = None) -> None:
        """Move ``cell`` to the other side, updating cut and gains.

        If ``buckets`` is given, free (unlocked) neighbours are re-bucketed
        as their gains change (the moved cell itself must already have been
        removed from the buckets by the caller).
        """
        h = self.h
        from_side = self.sides[cell]
        to_side = 1 - from_side
        for net in h.nets_of(cell):
            counts = self.pin_count[net]
            size = counts[0] + counts[1]
            if size < 2:
                counts[from_side] -= 1
                counts[to_side] += 1
                continue
            # --- before-move critical checks (w.r.t. the TO side) ---
            if counts[to_side] == 0:
                # Net becomes cut by this move.
                self.cut += 1
                self._adjust_net_gains(net, +1, None, buckets, locked, cell)
            elif counts[to_side] == 1:
                self._adjust_single(net, to_side, -1, buckets, locked, cell)
            counts[from_side] -= 1
            counts[to_side] += 1
            # --- after-move critical checks (w.r.t. the FROM side) ---
            if counts[from_side] == 0:
                # Net is no longer cut.
                self.cut -= 1
                self._adjust_net_gains(net, -1, None, buckets, locked, cell)
            elif counts[from_side] == 1:
                self._adjust_single(net, from_side, +1, buckets, locked, cell)
        self.sides[cell] = to_side
        self.side_count[from_side] -= 1
        self.side_count[to_side] += 1
        area = h.module_area(cell)
        self.side_area[from_side] -= area
        self.side_area[to_side] += area
        self.gains[cell] = self._compute_gain(cell)

    def _adjust_net_gains(self, net, delta, _unused, buckets, locked, mover):
        """Add ``delta`` to the gain of every pin of ``net`` except the
        mover."""
        for pin in self.h.pins(net):
            if pin == mover:
                continue
            if locked is not None and locked[pin]:
                self.gains[pin] += delta
                continue
            if buckets is not None:
                self.gains[pin] = buckets.update(
                    pin, self.gains[pin], delta
                )
            else:
                self.gains[pin] += delta

    def _adjust_single(self, net, side, delta, buckets, locked, mover):
        """Adjust the single pin of ``net`` on ``side`` (if not mover)."""
        for pin in self.h.pins(net):
            if pin != mover and self.sides[pin] == side:
                if locked is not None and locked[pin]:
                    self.gains[pin] += delta
                elif buckets is not None:
                    self.gains[pin] = buckets.update(
                        pin, self.gains[pin], delta
                    )
                else:
                    self.gains[pin] += delta
                return

    # ------------------------------------------------------------------
    def lookahead_gain(
        self, cell: int, locked: Optional[Sequence[bool]] = None
    ) -> int:
        """Krishnamurthy-style second-level gain of ``cell``.

        Counts nets that would become *critical in our favour* once the
        cell moved: a net with exactly two pins on the cell's side whose
        other side-mate is still free will be uncuttable by one further
        move (+1), while a net whose single to-side pin is free loses
        that potential (-1).  Used to break first-level gain ties
        ([21]); exact multi-level gain vectors are overkill for a
        tie-breaker and this on-demand form needs no extra bookkeeping.
        """
        side = self.sides[cell]
        other = 1 - side
        h = self.h
        gain2 = 0
        for net in h.nets_of(cell):
            counts = self.pin_count[net]
            if counts[side] + counts[other] < 2:
                continue
            if counts[side] == 2:
                mate_free = any(
                    p != cell
                    and self.sides[p] == side
                    and (locked is None or not locked[p])
                    for p in h.pins(net)
                )
                if mate_free:
                    gain2 += 1
            if counts[other] == 1:
                target = next(
                    (
                        p
                        for p in h.pins(net)
                        if self.sides[p] == other
                    ),
                    None,
                )
                if target is not None and (
                    locked is None or not locked[target]
                ):
                    gain2 -= 1
        return gain2

    def _current_value(self, objective: str) -> float:
        if objective == "cut":
            return float(self.cut)
        return ratio_cut_cost(
            self.cut, self.side_count[0], self.side_count[1]
        )

    def _candidate_value(self, objective: str, cell: int, gain: int) -> float:
        """Objective value the partition would have after moving ``cell``."""
        new_cut = self.cut - gain
        if objective == "cut":
            return float(new_cut)
        # The from side loses one module, the to side gains one.
        from_side = self.sides[cell]
        if from_side == 0:
            u, w = self.side_count[0] - 1, self.side_count[1] + 1
        else:
            u, w = self.side_count[0] + 1, self.side_count[1] - 1
        return ratio_cut_cost(new_cut, u, w)

    def run_pass(
        self, feasible, objective="cut", lookahead: int = 1
    ) -> Tuple[int, float]:
        """One FM pass with prefix revert.

        Every cell moves at most once.  At each step the best-gain
        feasible candidate of each side is found and the move minimising
        the post-move ``objective`` is applied (for ``"cut"`` this is
        classic FM best-gain selection; for ``"ratio"`` it is Wei–Cheng's
        myopic ratio-gain selection, where the denominator term makes
        moves from the large side more attractive).  With
        ``lookahead >= 2``, first-level gain ties are broken by the
        Krishnamurthy second-level gain (:meth:`lookahead_gain`).  The
        pass tracks the prefix with the best objective value and reverts
        the rest.

        Returns ``(moves_kept, best_objective_value)``.
        """
        if objective not in ("cut", "ratio"):
            raise PartitionError(f"unknown objective {objective!r}")
        h = self.h
        n = h.num_modules
        locked = [False] * n
        buckets = SideBuckets()
        for v in range(n):
            buckets.insert(v, self.gains[v], self.sides[v])

        move_sequence: List[int] = []
        best_prefix = 0
        best_value = self._current_value(objective)

        while True:
            candidates = []
            for side in (0, 1):
                if lookahead >= 2:
                    found = buckets.tied_feasible(side, feasible)
                    if found is None:
                        continue
                    gain, tied = found
                    cell = max(
                        tied,
                        key=lambda c: self.lookahead_gain(c, locked),
                    )
                    candidates.append(
                        (
                            self._candidate_value(objective, cell, gain),
                            -gain,
                            cell,
                        )
                    )
                else:
                    found = buckets.best_feasible(side, feasible)
                    if found is not None:
                        gain, cell = found
                        candidates.append(
                            (
                                self._candidate_value(
                                    objective, cell, gain
                                ),
                                -gain,
                                cell,
                            )
                        )
            if not candidates:
                break
            _, neg_gain, chosen = min(candidates)
            buckets.remove(chosen, -neg_gain)
            locked[chosen] = True
            self.move(chosen, buckets=buckets, locked=locked)
            move_sequence.append(chosen)
            value = self._current_value(objective)
            if value < best_value:
                best_value = value
                best_prefix = len(move_sequence)

        # Revert moves beyond the best prefix.
        for cell in reversed(move_sequence[best_prefix:]):
            self.move(cell)
        # Telemetry for callers/obs: what the pass actually did.
        self.last_pass = {
            "moved": len(move_sequence),
            "kept": best_prefix,
            "best_value": best_value,
        }
        return best_prefix, best_value

    def partition(self) -> Partition:
        return Partition(self.h, self.sides)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FMConfig:
    """Options for :func:`fm_bipartition`.

    ``balance_tolerance`` is the allowed deviation of either side's area
    from half the total, as a fraction of the total area (0.0 requests a
    bisection up to one cell).  ``max_passes`` bounds the pass loop;
    passes stop early when one yields no improvement.  ``lookahead=2``
    enables Krishnamurthy second-level gain tie-breaking [21].

    ``starts > 1`` runs the whole multi-pass optimisation from that
    many independent random initial partitions (seeds spawned up front
    from ``seed``) and keeps the lowest cut — classic multi-start
    refinement.  The starts fan out through :mod:`repro.parallel`
    according to ``parallel`` (``None`` resolves from the
    ``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment); results are
    identical on every backend.  ``starts=1`` preserves the historical
    single-start behaviour (initial partition drawn directly from
    ``random.Random(seed)``).
    """

    balance_tolerance: float = 0.10
    max_passes: int = 20
    seed: int = 0
    lookahead: int = 1
    starts: int = 1
    parallel: Optional[ParallelConfig] = None


def random_balanced_sides(
    h: Hypergraph, rng: random.Random
) -> List[int]:
    """A random half/half side assignment (by module count)."""
    order = list(range(h.num_modules))
    rng.shuffle(order)
    sides = [0] * h.num_modules
    for v in order[len(order) // 2 :]:
        sides[v] = 1
    return sides


def _optimise_start(
    h: Hypergraph, sides: List[int], config: FMConfig
) -> Tuple[List[int], int, int]:
    """The multi-pass FM loop from one initial partition.

    Returns ``(final_sides, cut, passes)``.  Module-level and driven by
    plain data so multi-start refinement can run it in process workers.
    """
    return fm_refine_engine(FMEngine(h, sides), config)


def fm_refine_engine(
    engine: FMEngine, config: FMConfig
) -> Tuple[List[int], int, int]:
    """Run the multi-pass FM loop on an already-initialised engine.

    Returns ``(final_sides, cut, passes)``.  Factored out of
    :func:`_optimise_start` so the ECO warm path can refine an engine
    built via :meth:`FMEngine.from_state` without paying a cold
    initialisation; behaviour is identical for a freshly built engine.
    """
    h = engine.h
    total_area = h.total_area
    max_cell_area = max(h.module_areas, default=0.0)
    slack = config.balance_tolerance * total_area + max_cell_area
    low = total_area / 2 - slack
    high = total_area / 2 + slack

    def feasible(cell: int) -> bool:
        from_side = engine.sides[cell]
        # Never empty a side: zero-area modules (pads) make the area
        # window insufficient on its own.
        if engine.side_count[from_side] <= 1:
            return False
        to_side = 1 - from_side
        area = h.module_area(cell)
        new_to = engine.side_area[to_side] + area
        new_from = engine.side_area[from_side] - area
        return low <= new_to <= high and low <= new_from <= high

    passes = 0
    profiling = is_enabled()
    cut_initial = engine.cut
    pass_cuts: List[int] = []
    pass_kept: List[int] = []
    with span(
        "fm", modules=h.num_modules, nets=h.num_nets, cut_initial=engine.cut
    ) as fm_span:
        for _ in range(config.max_passes):
            before = engine.cut
            moves, _ = engine.run_pass(
                feasible, objective="cut", lookahead=config.lookahead
            )
            passes += 1
            if profiling:
                incr("fm.passes")
                incr("fm.moves_attempted", engine.last_pass["moved"])
                incr("fm.moves_kept", moves)
                emit(
                    "fm.pass",
                    index=passes,
                    moved=engine.last_pass["moved"],
                    kept=moves,
                    cut_before=before,
                    cut_after=engine.cut,
                )
                pass_cuts.append(engine.cut)
                pass_kept.append(moves)
            if engine.cut >= before or moves == 0:
                break
        fm_span.set(passes=passes, cut_final=engine.cut)
        if profiling and pass_cuts:
            # The per-pass gain curve: cut after each pass, starting
            # from the initial cut at pass 0.
            emit(
                "fm.curve",
                cut_initial=cut_initial,
                passes=list(range(len(pass_cuts) + 1)),
                cuts=[cut_initial] + pass_cuts,
                kept=pass_kept,
            )
    return list(engine.sides), engine.cut, passes


def _fm_start_task(
    h: Hypergraph, config: FMConfig, start_seed: int
) -> Tuple[List[int], int, int]:
    """One multi-start run from a spawned per-start seed (picklable)."""
    rng = random.Random(start_seed)
    sides = random_balanced_sides(h, rng)
    return _optimise_start(h, sides, config)


def fm_bipartition(
    h: Hypergraph,
    config: FMConfig = FMConfig(),
    initial_sides: Optional[Sequence[int]] = None,
) -> PartitionResult:
    """Min-net-cut r-balanced bipartition by multi-pass FM.

    With ``config.starts > 1`` (and no ``initial_sides``) the
    optimisation is repeated from independent random starts and the
    lowest final cut wins; ties go to the lowest start index, so the
    result is deterministic and backend-independent.
    """
    if h.num_modules < 2:
        raise PartitionError("FM needs at least 2 modules")
    start = time.perf_counter()

    multi_start = initial_sides is None and config.starts > 1
    if multi_start:
        with span("fm.multistart", starts=config.starts) as ms_span:
            start_seeds = spawn_seeds(config.seed, config.starts)
            outcomes = pstarmap(
                _fm_start_task,
                [(h, config, s) for s in start_seeds],
                config.parallel,
                label="fm.starts",
            )
            best_sides, best_cut, best_passes = outcomes[0]
            for sides, cut, passes in outcomes[1:]:
                if cut < best_cut:
                    best_sides, best_cut, best_passes = sides, cut, passes
            ms_span.set(cut_final=best_cut)
    else:
        if initial_sides is None:
            rng = random.Random(config.seed)
            sides = random_balanced_sides(h, rng)
        else:
            sides = list(initial_sides)
        best_sides, best_cut, best_passes = _optimise_start(
            h, sides, config
        )

    elapsed = time.perf_counter() - start
    return PartitionResult(
        algorithm="FM",
        partition=Partition(h, best_sides),
        elapsed_seconds=elapsed,
        details={
            "passes": best_passes,
            "balance_tolerance": config.balance_tolerance,
            "seed": config.seed,
            "lookahead": config.lookahead,
            "starts": config.starts if multi_start else 1,
        },
    )
