"""The canonical Fiduccia–Mattheyses bucket-list structure.

FM's linear-time-per-pass claim rests on a specific data structure: an
array of doubly-linked lists indexed by gain (bounded by ±p_max, the
maximum cell degree), a max-gain pointer that only moves down by
scanning and up by O(1) on insert, and O(1) unlink/relink per gain
update.  :class:`LinkedGainBuckets` implements it faithfully.

The default engine uses the simpler dict-of-sets
(:class:`repro.partitioning.fm.GainBuckets`) — equivalent behaviour,
friendlier code.  This class exists (a) as the faithful reference for
the paper-era complexity argument and (b) as a drop-in alternative:
it implements the same ``insert / remove / update / iter_best_first``
interface, and the test suite drives both through identical traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import PartitionError
from ..obs import incr

__all__ = ["LinkedGainBuckets"]


class _Node:
    __slots__ = ("cell", "prev", "next")

    def __init__(self, cell: int):
        self.cell = cell
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class LinkedGainBuckets:
    """Gain buckets as a doubly-linked-list array with a max pointer.

    ``max_gain`` bounds |gain|; inserts outside the bound grow the
    array (real netlists fix p_max up front; growing keeps the class
    general).  Within a bucket, cells pop in LIFO order — the classic
    implementation's behaviour.
    """

    def __init__(self, max_gain: int = 16):
        if max_gain < 1:
            raise PartitionError(f"max_gain must be >= 1, got {max_gain}")
        self._bound = max_gain
        self._heads: List[Optional[_Node]] = [None] * (2 * max_gain + 1)
        self._nodes: Dict[int, _Node] = {}
        self._gains: Dict[int, int] = {}
        self._max_index: Optional[int] = None
        self._count = 0

    # ------------------------------------------------------------------
    def _index(self, gain: int) -> int:
        if abs(gain) > self._bound:
            self._grow(abs(gain))
        return gain + self._bound

    def _grow(self, needed: int) -> None:
        # A grow means the preset p_max bound was too small — worth
        # counting, since each one is an O(bound) reallocation.
        incr("fm.bucket_grows")
        new_bound = max(needed, 2 * self._bound)
        shift = new_bound - self._bound
        self._heads = (
            [None] * shift + self._heads + [None] * shift
        )
        if self._max_index is not None:
            self._max_index += shift
        self._bound = new_bound

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    @classmethod
    def from_gains(cls, gains, max_gain: Optional[int] = None
                   ) -> "LinkedGainBuckets":
        """Bulk-build from a dense gain vector (cell ``i`` ↦ ``gains[i]``).

        Exactly equivalent to inserting cells ``0..n-1`` in ascending
        order — same LIFO bucket order, same ``iter_best_first``
        sequence — but the bound is preset from the data, so the build
        never triggers an O(bound) ``fm.bucket_grows`` reallocation.
        This is the natural entry point for gain vectors computed in
        bulk by the vectorised FM initialisation.
        """
        gain_list = [int(g) for g in gains]
        if max_gain is None:
            max_gain = max((abs(g) for g in gain_list), default=0)
        buckets = cls(max_gain=max(int(max_gain), 1))
        for cell, gain in enumerate(gain_list):
            buckets.insert(cell, gain)
        return buckets

    def insert(self, cell: int, gain: int) -> None:
        if cell in self._nodes:
            raise PartitionError(f"cell {cell} already bucketed")
        index = self._index(gain)
        node = _Node(cell)
        head = self._heads[index]
        node.next = head
        if head is not None:
            head.prev = node
        self._heads[index] = node
        self._nodes[cell] = node
        self._gains[cell] = gain
        self._count += 1
        if self._max_index is None or index > self._max_index:
            self._max_index = index

    def remove(self, cell: int, gain: int) -> None:
        node = self._nodes.get(cell)
        if node is None or self._gains[cell] != gain:
            raise PartitionError(
                f"cell {cell} not in gain bucket {gain}"
            )
        index = self._index(gain)
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._heads[index] = node.next
        if node.next is not None:
            node.next.prev = node.prev
        del self._nodes[cell]
        del self._gains[cell]
        self._count -= 1
        # Let the max pointer drift down lazily.
        while (
            self._max_index is not None
            and self._max_index >= 0
            and self._heads[self._max_index] is None
        ):
            self._max_index -= 1
        if self._max_index is not None and self._max_index < 0:
            self._max_index = None

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        """Relink a cell into its new bucket; returns the new gain."""
        if delta == 0:
            return old_gain
        self.remove(cell, old_gain)
        new_gain = old_gain + delta
        self.insert(cell, new_gain)
        return new_gain

    def iter_best_first(self):
        """Yield ``(gain, cell)`` best-gain-first (LIFO within bucket).

        Snapshot semantics like the dict implementation: mutations
        during iteration do not disturb already-yielded buckets.
        """
        if self._max_index is None:
            return
        for index in range(self._max_index, -1, -1):
            node = self._heads[index]
            cells = []
            while node is not None:
                cells.append(node.cell)
                node = node.next
            gain = index - self._bound
            for cell in cells:
                yield gain, cell
