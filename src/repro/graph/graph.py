"""Sparse weighted undirected graphs.

:class:`Graph` is the representation shared by the net-model graphs
(clique/star/path expansions of the hypergraph) and the intersection graph.
It stores a weighted adjacency list; parallel edge insertions accumulate
weight, which is exactly the semantics the net models need (two nets both
connecting modules *u* and *v* add their contributions to ``A_uv``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import GraphError

__all__ = ["Graph"]


class Graph:
    """A weighted undirected graph on vertices ``0 .. n-1``.

    Self-loops are rejected: by the convention of the paper (Section 1.1),
    ``A_ii = 0`` always.

    Examples
    --------
    >>> g = Graph(3)
    >>> g.add_edge(0, 1, 0.5)
    >>> g.add_edge(0, 1, 0.25)   # accumulates
    >>> g.weight(0, 1)
    0.75
    >>> g.degree(0)
    0.75
    """

    __slots__ = ("_adj", "_num_edges", "_total_weight", "_csr_cache")

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise GraphError(f"negative vertex count {num_vertices}")
        self._adj: List[Dict[int, float]] = [
            {} for _ in range(num_vertices)
        ]
        self._num_edges = 0
        self._total_weight = 0.0
        # Optional (indptr, indices, data) numpy triple describing the
        # symmetric adjacency in canonical CSR form (rows complete,
        # columns sorted).  Installed by bulk builders (the intersection
        # build) or built lazily by csr_arrays(); invalidated by any
        # mutation.
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add ``weight`` to the edge ``{u, v}`` (creating it if absent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop on vertex {u} rejected (A_ii = 0)")
        if weight <= 0:
            raise GraphError(
                f"edge ({u},{v}) weight must be positive, got {weight}"
            )
        if v not in self._adj[u]:
            self._num_edges += 1
            self._adj[u][v] = 0.0
            self._adj[v][u] = 0.0
        self._adj[u][v] += weight
        self._adj[v][u] += weight
        self._total_weight += weight
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return self._num_edges

    @property
    def num_nonzeros(self) -> int:
        """Number of nonzeros in the (symmetric) adjacency matrix.

        Each undirected edge contributes two nonzeros; this matches the
        nonzero accounting the paper uses for sparsity comparisons.
        """
        return 2 * self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return self._total_weight

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; zero when the edge is absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj[u].get(v, 0.0)

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over neighbours of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u])

    def neighbor_weights(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> float:
        """Weighted degree ``d(u)`` — the sum of incident edge weights."""
        self._check_vertex(u)
        return sum(self._adj[u].values())

    def unweighted_degree(self, u: int) -> int:
        """Number of distinct neighbours of ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def degrees(self) -> List[float]:
        """Weighted degrees of all vertices, indexed by vertex."""
        return [sum(nbrs.values()) for nbrs in self._adj]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over edges once each as ``(u, v, weight)`` with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    # ------------------------------------------------------------------
    # CSR adjacency cache
    # ------------------------------------------------------------------
    def set_csr_arrays(self, indptr, indices, data) -> None:
        """Install canonical CSR adjacency arrays built elsewhere.

        The caller guarantees the triple describes exactly this graph's
        symmetric adjacency with sorted column indices per row.  Bulk
        builders use this to hand downstream consumers (Laplacian
        assembly, vectorised König classification) zero-copy arrays.
        """
        self._csr_cache = (indptr, indices, data)

    def csr_arrays(self):
        """The cached ``(indptr, indices, data)`` triple, building it
        from the adjacency lists on first use.

        Requires numpy; rows are complete and columns sorted, so the
        triple is a canonical scipy CSR pattern.  Invalidated by
        :meth:`add_edge`.
        """
        if self._csr_cache is None:
            import numpy as np

            n = self.num_vertices
            counts = np.fromiter(
                (len(nbrs) for nbrs in self._adj),
                dtype=np.int64,
                count=n,
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            nnz = int(indptr[-1])
            indices = np.empty(nnz, dtype=np.int64)
            data = np.empty(nnz, dtype=np.float64)
            pos = 0
            for nbrs in self._adj:
                for v in sorted(nbrs):
                    indices[pos] = v
                    data[pos] = nbrs[v]
                    pos += 1
            self._csr_cache = (indptr, indices, data)
        return self._csr_cache

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, vertices: Sequence[int]
    ) -> Tuple["Graph", List[int]]:
        """Restrict to a vertex subset; returns (subgraph, new->old map)."""
        vertex_list = sorted(set(int(v) for v in vertices))
        for v in vertex_list:
            self._check_vertex(v)
        old_to_new = {old: new for new, old in enumerate(vertex_list)}
        sub = Graph(len(vertex_list))
        for old_u in vertex_list:
            for old_v, w in self._adj[old_u].items():
                if old_u < old_v and old_v in old_to_new:
                    sub.add_edge(old_to_new[old_u], old_to_new[old_v], w)
        return sub, vertex_list

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise GraphError(
                f"vertex {u} out of range (have {len(self._adj)} vertices)"
            )

    def __repr__(self) -> str:
        return (
            f"<Graph: {self.num_vertices} vertices, "
            f"{self.num_edges} edges, total weight "
            f"{self._total_weight:.4g}>"
        )
