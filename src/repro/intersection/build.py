"""Construction of the netlist intersection graph.

Given the netlist hypergraph ``H = (V', E')`` with ``m`` nets, the
intersection graph ``G'`` (Section 2.2) has one vertex per net, and an edge
between two nets exactly when they share at least one module.  ``G'`` is
uniquely determined by ``H``; the converse does not hold.

Construction is O(total pin pair work): for each module of degree ``d`` we
touch its ``C(d, 2)`` incident-net pairs.  Shared module lists per net pair
are accumulated so any :mod:`weighting <repro.intersection.weights>` can be
evaluated exactly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple, Union

from ..graph import Graph
from ..hypergraph import Hypergraph
from ..obs import incr, span
from .weights import Weighting, get_weighting

__all__ = [
    "EdgeState",
    "graph_from_edge_state",
    "intersection_edge_state",
    "intersection_graph",
    "intersection_nonzeros",
    "shared_module_map",
]


class EdgeState(NamedTuple):
    """The intersection graph as four parallel arrays.

    One entry per edge ``(edge_a[i], edge_b[i])`` with ``a < b``, weight
    ``weights[i]``, and ``first_mod[i]`` the smallest shared module.
    Entries are in canonical order — sorted by ``(first_mod, a, b)``,
    the first-encounter order of the per-edge loop over
    :func:`shared_module_map` — so replaying them through
    :func:`graph_from_edge_state` reproduces a cold build's adjacency
    byte for byte.  This is the representation the incremental ECO
    machinery (:mod:`repro.delta`) stores and patches.
    """

    edge_a: "object"  # np.ndarray[int64]
    edge_b: "object"  # np.ndarray[int64]
    weights: "object"  # np.ndarray[float64]
    first_mod: "object"  # np.ndarray[int64]

    @property
    def num_edges(self) -> int:
        return int(self.edge_a.size)


def shared_module_map(
    h: Hypergraph,
) -> Dict[Tuple[int, int], List[int]]:
    """Map each intersecting net pair ``(a, b)`` with a < b to the shared
    modules.

    The keys are exactly the edges of the intersection graph.
    """
    shared: Dict[Tuple[int, int], List[int]] = {}
    for module, nets in h.iter_modules():
        for i, net_a in enumerate(nets):
            for net_b in nets[i + 1 :]:
                shared.setdefault((net_a, net_b), []).append(module)
    return shared


def intersection_graph(
    h: Hypergraph,
    weighting: Union[str, Weighting] = "paper",
) -> Graph:
    """Build the weighted intersection graph ``G'`` of ``h``.

    Parameters
    ----------
    h:
        The netlist hypergraph.  Nets of size 0 or 1 become isolated
        vertices of ``G'`` (they share no module with anything), which the
        downstream spectral code tolerates; prefer
        :func:`repro.hypergraph.drop_degenerate_nets` first.
    weighting:
        Either a scheme name (``"paper"``, ``"unit"``, ``"overlap"``,
        ``"jaccard"``) or a callable; see
        :mod:`repro.intersection.weights`.  Names take the vectorised
        :func:`intersection_edge_state` build, which also installs the
        graph's CSR adjacency; callables are evaluated per edge.  Both
        give the same graph, down to edge insertion order and weight
        bits.

    Returns
    -------
    Graph
        A graph on ``h.num_nets`` vertices where vertex ``j`` is net ``j``.
    """
    with span(
        "intersection.build", nets=h.num_nets, modules=h.num_modules
    ) as sp:
        if isinstance(weighting, str):
            g = graph_from_edge_state(
                h.num_nets, intersection_edge_state(h, weighting)
            )
        else:
            g = Graph(h.num_nets)
            for (net_a, net_b), shared in shared_module_map(h).items():
                weight = weighting(h, net_a, net_b, shared)
                if weight > 0:
                    g.add_edge(net_a, net_b, weight)
        sp.set(edges=g.num_edges)
        incr("intersection.builds")
        incr("intersection.edges", g.num_edges)
    return g


def intersection_edge_state(
    h: Hypergraph, weighting_name: str = "paper"
) -> EdgeState:
    """Compute the canonical :class:`EdgeState` of ``h`` vectorised.

    Named weightings only (the warm-start machinery needs a name it can
    re-evaluate per edge).  Edge order and weight bits equal the per-edge
    loop over ``get_weighting(weighting_name)``: per-module contributions
    accumulate lowest module first, one IEEE add per step, exactly like
    the sequential Python sum.  Touches ``h.csr`` (materialising it if
    needed).
    """
    import numpy as np

    get_weighting(weighting_name)  # reject unknown names early
    csr = h.csr
    indptr = csr.module_indptr
    indices = csr.module_indices
    degrees = np.diff(indptr)

    # Enumerate every (module, net_a, net_b) co-incidence, batching
    # modules by degree so each batch is one fancy-indexed gather plus
    # one triu pair expansion (lexicographic (a, b) within a module,
    # matching shared_module_map's nested loop).
    pair_a_parts = []
    pair_b_parts = []
    pair_mod_parts = []
    for d in np.unique(degrees):
        if d < 2:
            continue
        d = int(d)
        mods = np.flatnonzero(degrees == d)
        rows = indices[indptr[mods][:, None] + np.arange(d)]
        iu, ju = np.triu_indices(d, 1)
        pair_a_parts.append(rows[:, iu].ravel())
        pair_b_parts.append(rows[:, ju].ravel())
        pair_mod_parts.append(np.repeat(mods, iu.size))
    if not pair_a_parts:
        empty_i = np.empty(0, dtype=np.int64)
        return EdgeState(
            empty_i, empty_i, np.empty(0, dtype=np.float64), empty_i
        )

    a = np.concatenate(pair_a_parts)
    b = np.concatenate(pair_b_parts)
    mod = np.concatenate(pair_mod_parts)
    # Group co-incidences by edge; within a group modules stay
    # ascending, which is the order shared_module_map's lists
    # accumulate in.
    order = np.lexsort((mod, b, a))
    a, b, mod = a[order], b[order], mod[order]
    boundary = np.empty(a.size, dtype=bool)
    boundary[0] = True
    np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=boundary[1:])
    group_start = np.flatnonzero(boundary)
    counts = np.diff(np.append(group_start, a.size))
    edge_a = a[group_start]
    edge_b = b[group_start]
    first_mod = mod[group_start]

    sizes = np.diff(csr.net_indptr)
    if weighting_name == "unit":
        weights = np.ones(edge_a.size, dtype=np.float64)
    elif weighting_name == "overlap":
        weights = counts.astype(np.float64)
    elif weighting_name == "jaccard":
        union = sizes[edge_a] + sizes[edge_b] - counts
        weights = counts / union
    else:  # "paper" — get_weighting() already rejected unknown names
        size_term = 1.0 / sizes[edge_a] + 1.0 / sizes[edge_b]
        contrib = np.repeat(size_term, counts) / (degrees[mod] - 1.0)
        # Accumulate each edge's per-module terms sequentially (lowest
        # module first, one IEEE add per round) — exactly the Python
        # loop's summation order, never numpy's pairwise reduction.
        weights = np.zeros(edge_a.size, dtype=np.float64)
        for k in range(int(counts.max())):
            sel = counts > k
            weights[sel] += contrib[group_start[sel] + k]

    keep = weights > 0
    if not np.all(keep):
        edge_a = edge_a[keep]
        edge_b = edge_b[keep]
        first_mod = first_mod[keep]
        weights = weights[keep]

    enc = np.lexsort((edge_b, edge_a, first_mod))
    return EdgeState(
        edge_a[enc], edge_b[enc], weights[enc], first_mod[enc]
    )


def graph_from_edge_state(
    num_nets: int, state: EdgeState, *, set_csr: bool = True
) -> Graph:
    """Materialise a :class:`~repro.graph.Graph` from an edge state.

    Edges are inserted in array order — canonical states reproduce the
    cold build's adjacency iteration order exactly — and the symmetric
    CSR adjacency is always installed.  ``set_csr`` is ignored; it is
    accepted only so older callers that still pass it keep working.
    """
    import numpy as np

    g = Graph(num_nets)
    edge_a, edge_b, weights = state.edge_a, state.edge_b, state.weights
    for u, v, w in zip(
        edge_a.tolist(), edge_b.tolist(), weights.tolist()
    ):
        g.add_edge(u, v, w)

    # Hand downstream consumers (Laplacian assembly, vectorised König
    # classification) the canonical symmetric CSR adjacency for free.
    row = np.concatenate([edge_a, edge_b])
    col = np.concatenate([edge_b, edge_a])
    val = np.concatenate([weights, weights])
    sym = np.lexsort((col, row))
    sym_indptr = np.zeros(num_nets + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=num_nets), out=sym_indptr[1:])
    g.set_csr_arrays(sym_indptr, col[sym], val[sym])
    return g


def intersection_nonzeros(h: Hypergraph) -> int:
    """Nonzeros in the intersection-graph adjacency matrix.

    This is the quantity the paper compares against the clique model's
    nonzero count (e.g. Test05: 19 935 vs 219 811) to argue the dual
    representation is an order of magnitude sparser.
    """
    return 2 * len(shared_module_map(h))
