"""The netlist hypergraph: the fundamental circuit representation.

A circuit netlist is modelled as a hypergraph ``H = (V, E')`` where vertices
are *modules* (cells, gates, pads) and hyperedges are *signal nets*, each net
being the set of modules it connects (Schweikert & Kernighan, 1972).  This is
the input representation for every algorithm in the library.

The :class:`Hypergraph` class is immutable after construction.  Modules and
nets are addressed by dense integer indices ``0 .. n-1`` and ``0 .. m-1``;
optional string names can be attached for I/O and reporting.  Immutability
keeps the many derived structures (intersection graph, clique-model graph,
spectral orderings) trivially consistent; transformations produce new
hypergraphs (see :mod:`repro.hypergraph.transform`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import HypergraphError

__all__ = ["Hypergraph"]


def _freeze_pins(
    nets: Sequence[Iterable[int]],
) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Normalise raw net pin lists into sorted, de-duplicated tuples.

    Returns the frozen pin structure and the implied module count (one past
    the largest module index seen; zero when there are no pins at all).
    """
    frozen: List[Tuple[int, ...]] = []
    max_module = -1
    for net_index, pins in enumerate(nets):
        pin_list = sorted(set(int(p) for p in pins))
        if pin_list and pin_list[0] < 0:
            raise HypergraphError(
                f"net {net_index} has a negative module index {pin_list[0]}"
            )
        if pin_list:
            max_module = max(max_module, pin_list[-1])
        frozen.append(tuple(pin_list))
    return tuple(frozen), max_module + 1


class Hypergraph:
    """An immutable netlist hypergraph.

    Parameters
    ----------
    nets:
        A sequence of nets; each net is an iterable of module indices
        (its *pins*).  Duplicate pins within one net are collapsed.
    num_modules:
        The total number of modules.  May exceed the largest index that
        appears in a net (isolated modules are legal — e.g. pads that are
        modelled but unconnected).  Defaults to one past the largest pin.
    module_names / net_names:
        Optional human-readable names, used by the text I/O formats.
    module_areas:
        Optional per-module areas.  The spectral algorithms in the paper
        are area-oblivious (Section 4 of the paper), but areas are carried
        through so partition reports can show ``area_U : area_W`` columns
        like the paper's tables.  Defaults to unit area for every module.

    Examples
    --------
    >>> h = Hypergraph([[0, 1], [1, 2, 3], [0, 3]])
    >>> h.num_modules, h.num_nets, h.num_pins
    (4, 3, 7)
    >>> h.pins(1)
    (1, 2, 3)
    >>> h.nets_of(3)
    (1, 2)
    """

    __slots__ = (
        "_pins",
        "_nets_of",
        "_num_modules",
        "_num_pins",
        "_module_names",
        "_net_names",
        "_module_areas",
        "_net_weights",
        "_name",
        "_csr",
    )

    def __init__(
        self,
        nets: Sequence[Iterable[int]],
        num_modules: Optional[int] = None,
        module_names: Optional[Sequence[str]] = None,
        net_names: Optional[Sequence[str]] = None,
        module_areas: Optional[Sequence[float]] = None,
        net_weights: Optional[Sequence[float]] = None,
        name: str = "",
    ):
        pins, implied_modules = _freeze_pins(nets)
        if num_modules is None:
            num_modules = implied_modules
        elif num_modules < implied_modules:
            raise HypergraphError(
                f"num_modules={num_modules} but nets reference module index "
                f"{implied_modules - 1}"
            )
        self._pins = pins
        self._num_modules = int(num_modules)
        self._num_pins = sum(len(p) for p in pins)
        self._name = name
        self._csr = None

        nets_of: List[List[int]] = [[] for _ in range(self._num_modules)]
        for net, net_pins in enumerate(pins):
            for module in net_pins:
                nets_of[module].append(net)
        self._nets_of: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lst) for lst in nets_of
        )

        self._module_names = self._check_names(
            module_names, self._num_modules, "module"
        )
        self._net_names = self._check_names(net_names, len(pins), "net")
        if net_weights is None:
            self._net_weights: Optional[Tuple[float, ...]] = None
        else:
            weights = tuple(float(w) for w in net_weights)
            if len(weights) != len(pins):
                raise HypergraphError(
                    f"expected {len(pins)} net weights, got {len(weights)}"
                )
            if any(w < 0 for w in weights):
                raise HypergraphError("net weights must be non-negative")
            self._net_weights = weights
        if module_areas is None:
            self._module_areas: Tuple[float, ...] = (1.0,) * self._num_modules
        else:
            areas = tuple(float(a) for a in module_areas)
            if len(areas) != self._num_modules:
                raise HypergraphError(
                    f"expected {self._num_modules} module areas, "
                    f"got {len(areas)}"
                )
            if any(a < 0 for a in areas):
                raise HypergraphError("module areas must be non-negative")
            self._module_areas = areas

    @staticmethod
    def _check_names(
        names: Optional[Sequence[str]], expected: int, kind: str
    ) -> Optional[Tuple[str, ...]]:
        if names is None:
            return None
        frozen = tuple(str(n) for n in names)
        if len(frozen) != expected:
            raise HypergraphError(
                f"expected {expected} {kind} names, got {len(frozen)}"
            )
        return frozen

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """An optional identifying label (e.g. the benchmark name)."""
        return self._name

    @property
    def num_modules(self) -> int:
        """Number of modules (hypergraph vertices), ``|V|``."""
        return self._num_modules

    @property
    def num_nets(self) -> int:
        """Number of signal nets (hyperedges), ``|E'|``."""
        return len(self._pins)

    @property
    def num_pins(self) -> int:
        """Total pin count — the sum of all net sizes."""
        return self._num_pins

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def pins(self, net: int) -> Tuple[int, ...]:
        """The modules connected by ``net``, as a sorted tuple."""
        try:
            return self._pins[net]
        except IndexError:
            raise HypergraphError(
                f"net index {net} out of range (have {self.num_nets} nets)"
            ) from None

    def nets_of(self, module: int) -> Tuple[int, ...]:
        """The nets incident to ``module``, as a sorted tuple."""
        try:
            return self._nets_of[module]
        except IndexError:
            raise HypergraphError(
                f"module index {module} out of range "
                f"(have {self.num_modules} modules)"
            ) from None

    def net_size(self, net: int) -> int:
        """Number of pins on ``net`` (the ``k`` of a *k-pin net*)."""
        return len(self.pins(net))

    def module_degree(self, module: int) -> int:
        """Number of nets incident to ``module`` (``d_k`` in the paper)."""
        return len(self.nets_of(module))

    def module_area(self, module: int) -> float:
        """Area of ``module`` (1.0 unless areas were supplied)."""
        if not 0 <= module < self._num_modules:
            raise HypergraphError(f"module index {module} out of range")
        return self._module_areas[module]

    @property
    def module_areas(self) -> Tuple[float, ...]:
        """Areas of all modules, indexed by module."""
        return self._module_areas

    @property
    def total_area(self) -> float:
        """Sum of all module areas."""
        return sum(self._module_areas)

    def net_weight(self, net: int) -> float:
        """Weight (multiplicity/importance) of ``net``; 1.0 by default.

        The paper's algorithms count nets; weights feed the *weighted*
        cut metrics (:func:`repro.partitioning.metrics.weighted_net_cut`)
        and survive file round-trips (e.g. hMETIS fmt-1 files).
        """
        if not 0 <= net < self.num_nets:
            raise HypergraphError(f"net index {net} out of range")
        if self._net_weights is None:
            return 1.0
        return self._net_weights[net]

    @property
    def has_net_weights(self) -> bool:
        """True when explicit net weights were supplied."""
        return self._net_weights is not None

    @property
    def net_weights(self) -> Tuple[float, ...]:
        """Weights of all nets, indexed by net (unit when unweighted)."""
        if self._net_weights is None:
            return (1.0,) * self.num_nets
        return self._net_weights

    def module_name(self, module: int) -> str:
        """Name of ``module``; synthesised as ``m<i>`` when unnamed."""
        if self._module_names is not None:
            return self._module_names[module]
        if not 0 <= module < self._num_modules:
            raise HypergraphError(f"module index {module} out of range")
        return f"m{module}"

    def net_name(self, net: int) -> str:
        """Name of ``net``; synthesised as ``n<j>`` when unnamed."""
        if self._net_names is not None:
            return self._net_names[net]
        if not 0 <= net < self.num_nets:
            raise HypergraphError(f"net index {net} out of range")
        return f"n{net}"

    @property
    def has_module_names(self) -> bool:
        return self._module_names is not None

    @property
    def has_net_names(self) -> bool:
        return self._net_names is not None

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def iter_nets(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(net_index, pins)`` pairs for every net."""
        return enumerate(self._pins)

    def iter_modules(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(module_index, incident_nets)`` pairs for every module."""
        return enumerate(self._nets_of)

    def net_sizes(self) -> List[int]:
        """List of net sizes indexed by net."""
        return [len(p) for p in self._pins]

    def module_degrees(self) -> List[int]:
        """List of module degrees indexed by module."""
        return [len(n) for n in self._nets_of]

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def isolated_modules(self) -> List[int]:
        """Modules incident to no net at all."""
        return [v for v, nets in enumerate(self._nets_of) if not nets]

    def neighbors_of_module(self, module: int) -> List[int]:
        """All modules sharing at least one net with ``module``."""
        seen = set()
        for net in self.nets_of(module):
            seen.update(self._pins[net])
        seen.discard(module)
        return sorted(seen)

    def nets_sharing_module(self, net: int) -> List[int]:
        """All nets sharing at least one module with ``net``.

        These are exactly the neighbours of ``net`` in the intersection
        graph (Section 2.2 of the paper).
        """
        seen = set()
        for module in self.pins(net):
            seen.update(self._nets_of[module])
        seen.discard(net)
        return sorted(seen)

    def clique_model_nonzeros(self) -> int:
        """Number of off-diagonal nonzeros the clique net model produces.

        A *k*-pin net induces ``k*(k-1)`` directed adjacency entries (the
        matrix is symmetric; both triangles are counted, matching the
        paper's nonzero accounting for, e.g., Test05).  Overlapping nets
        may share entries; this is the upper bound that ignores sharing —
        see :mod:`repro.analysis.sparsity` for the exact count.
        """
        return sum(k * (k - 1) for k in self.net_sizes())

    # ------------------------------------------------------------------
    # CSR incidence twin
    # ------------------------------------------------------------------
    @property
    def csr(self):
        """The :class:`~repro.hypergraph.csr.CsrHypergraph` twin.

        Built lazily on first access (O(pins)) and cached; the cached
        arrays are frozen, so sharing across threads is safe.  The
        cache never enters pickles — process-pool workers rebuild it
        once per worker.
        """
        if self._csr is None:
            from .csr import CsrHypergraph

            self._csr = CsrHypergraph.from_hypergraph(self)
        return self._csr

    def __getstate__(self):
        # Exclude the cached CSR arrays: keeps task pickles for the
        # process backend small, at the cost of one O(pins) rebuild
        # per worker.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_csr"
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._csr = None

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<Hypergraph{label}: {self.num_modules} modules, "
            f"{self.num_nets} nets, {self.num_pins} pins>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._pins == other._pins
            and self._num_modules == other._num_modules
            and self._module_areas == other._module_areas
            and self.net_weights == other.net_weights
        )

    def __hash__(self) -> int:
        return hash((self._pins, self._num_modules))
