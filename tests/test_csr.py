"""Unit tests for the flat CSR hypergraph substrate.

Covers the substrate itself — exact lossless ``Hypergraph`` ⇄
``CsrHypergraph`` round-trips over adversarial shapes, construction
validation (including the cross-direction incidence check with a
human-readable error), pickling behaviour of the lazy cache — plus the
building blocks the hot paths rest on: the Graph CSR adjacency cache
and the bulk-build entry point of the linked bucket list.  The
oracle-vs-product *result* equivalence lives in
``tests/test_core_equivalence.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import HypergraphError
from repro.graph import Graph
from repro.hypergraph import (
    CsrHypergraph,
    Hypergraph,
    find_incidence_mismatch,
)
from repro.partitioning.bucket_list import LinkedGainBuckets
from tests.strategies import adversarial_csr_hypergraphs, hypergraphs


def small_h(**kwargs):
    return Hypergraph(
        [[0, 1, 2], [1, 3], [0, 3], [2]], num_modules=5, **kwargs
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=150)
    @given(adversarial_csr_hypergraphs())
    def test_lossless_round_trip(self, h):
        c = CsrHypergraph.from_hypergraph(h)
        back = c.to_hypergraph()
        assert back == h
        assert back.name == h.name
        assert back.module_areas == h.module_areas
        assert back.has_net_weights == h.has_net_weights
        assert back.net_weights == h.net_weights
        assert back.has_module_names == h.has_module_names
        assert back.has_net_names == h.has_net_names
        if h.has_module_names:
            assert [back.module_name(v) for v in range(h.num_modules)] == [
                h.module_name(v) for v in range(h.num_modules)
            ]
        if h.has_net_names:
            assert [back.net_name(e) for e in range(h.num_nets)] == [
                h.net_name(e) for e in range(h.num_nets)
            ]

    @settings(max_examples=100)
    @given(adversarial_csr_hypergraphs())
    def test_csr_twin_matches_object_view(self, h):
        c = h.csr
        assert c.num_modules == h.num_modules
        assert c.num_nets == h.num_nets
        assert c.num_pins == h.num_pins
        assert c.net_sizes().tolist() == h.net_sizes()
        assert c.module_degrees().tolist() == h.module_degrees()
        for e in range(h.num_nets):
            row = c.net_indices[c.net_indptr[e]:c.net_indptr[e + 1]]
            assert tuple(row.tolist()) == h.pins(e)
        for v in range(h.num_modules):
            row = c.module_indices[
                c.module_indptr[v]:c.module_indptr[v + 1]
            ]
            assert tuple(row.tolist()) == h.nets_of(v)

    def test_arrays_are_frozen_and_cached(self):
        h = small_h()
        c = h.csr
        assert c is h.csr  # cached
        for arr in (
            c.net_indptr,
            c.net_indices,
            c.module_indptr,
            c.module_indices,
            c.module_areas,
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_weightless_hypergraph_round_trips_weightless(self):
        h = small_h()
        c = h.csr
        assert c.net_weights is None
        assert not c.to_hypergraph().has_net_weights
        hw = small_h(net_weights=[1.0, 2.0, 0.5, 3.0])
        cw = hw.csr
        assert cw.net_weights is not None
        assert cw.to_hypergraph().net_weights == hw.net_weights
        assert cw.net_weights_or_unit().tolist() == list(hw.net_weights)
        assert c.net_weights_or_unit().tolist() == [1.0] * 4

    def test_pickle_drops_csr_cache(self):
        h = small_h(name="pickled")
        _ = h.csr
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert clone.name == "pickled"
        assert clone._csr is None
        assert clone.csr == h.csr  # rebuilt on demand, equal content

    def test_equality_and_repr(self):
        a = small_h().csr
        b = CsrHypergraph.from_hypergraph(small_h())
        assert a == b
        assert a != CsrHypergraph.from_hypergraph(
            Hypergraph([[0, 1]], num_modules=2)
        )
        assert "modules=5" in repr(a)
        assert a.summary() == (5, 4, 8)


# ----------------------------------------------------------------------
# Construction validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_inconsistent_incidence_names_module_and_net(self):
        c = small_h().csr
        # Drop net 2 from module 0's transpose row: module 0 still
        # appears in net 2's pin list.
        rows = [
            c.module_indices[
                c.module_indptr[v]:c.module_indptr[v + 1]
            ].tolist()
            for v in range(c.num_modules)
        ]
        rows[0] = [0]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = np.asarray(
            [x for r in rows for x in r], dtype=np.int64
        )
        with pytest.raises(HypergraphError) as exc:
            CsrHypergraph(c.net_indptr, c.net_indices, indptr, indices)
        message = str(exc.value)
        assert "module 0" in message
        assert "net 2" in message
        assert "inconsistent incidence" in message

    def test_phantom_transpose_pin_rejected(self):
        # Pin present in module→nets only.
        with pytest.raises(HypergraphError) as exc:
            CsrHypergraph(
                net_indptr=[0, 1],
                net_indices=[0],
                module_indptr=[0, 1, 2],
                module_indices=[0, 0],
            )
        assert "module 1" in str(exc.value)
        assert "net 0" in str(exc.value)

    def test_out_of_range_and_unsorted_rejected(self):
        with pytest.raises(HypergraphError):
            CsrHypergraph([0, 1], [5], [0, 0], [])  # module 5 of 1
        with pytest.raises(HypergraphError):
            CsrHypergraph([0, 2], [1, 0], [0, 1, 1], [0])  # unsorted
        with pytest.raises(HypergraphError):
            CsrHypergraph([0, 2], [0, 0], [0, 2], [0, 0])  # duplicate
        with pytest.raises(HypergraphError):
            CsrHypergraph([0, 3], [0, 1], [0, 1, 1], [0])  # indptr/pins

    def test_metadata_length_validation(self):
        c = small_h().csr
        with pytest.raises(HypergraphError):
            CsrHypergraph(
                c.net_indptr,
                c.net_indices,
                c.module_indptr,
                c.module_indices,
                module_areas=[1.0],
            )
        with pytest.raises(HypergraphError):
            CsrHypergraph(
                c.net_indptr,
                c.net_indices,
                c.module_indptr,
                c.module_indices,
                net_weights=[1.0],
            )

    @settings(max_examples=60)
    @given(adversarial_csr_hypergraphs())
    def test_consistent_arrays_have_no_mismatch(self, h):
        c = h.csr
        assert (
            find_incidence_mismatch(
                c.net_indptr,
                c.net_indices,
                c.module_indptr,
                c.module_indices,
            )
            is None
        )
        # Re-validating a trusted conversion succeeds.
        CsrHypergraph(
            c.net_indptr,
            c.net_indices,
            c.module_indptr,
            c.module_indices,
            module_areas=c.module_areas,
            net_weights=c.net_weights,
        )

    def test_find_incidence_mismatch_reports_direction(self):
        # (module 0, net 0) known only to the net→modules direction.
        assert find_incidence_mismatch([0, 1], [0], [0, 0], []) == (
            0,
            0,
            "module→nets",
        )
        assert find_incidence_mismatch([0, 0], [], [0, 1], [0]) == (
            0,
            0,
            "net→modules",
        )


# ----------------------------------------------------------------------
# Graph CSR adjacency cache
# ----------------------------------------------------------------------
class TestGraphCsrCache:
    def test_lazy_build_matches_adjacency(self):
        g = Graph(4)
        g.add_edge(2, 0, 0.5)
        g.add_edge(0, 1, 1.25)
        g.add_edge(3, 1, 2.0)
        indptr, indices, data = g.csr_arrays()
        assert indptr.tolist() == [0, 2, 4, 5, 6]
        assert indices.tolist() == [1, 2, 0, 3, 0, 1]
        assert data.tolist() == [1.25, 0.5, 1.25, 2.0, 0.5, 2.0]

    def test_mutation_invalidates_cache(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        first = g.csr_arrays()
        g.add_edge(1, 2, 1.0)
        assert g._csr_cache is None
        indptr, indices, _ = g.csr_arrays()
        assert indices.size == 4
        assert first[1].size == 2  # old triple untouched

    def test_adjacency_matrix_identical_with_and_without_cache(self):
        from repro.graph.laplacian import adjacency_matrix
        from tests.oracles import adjacency_matrix as coo_adjacency

        g = Graph(5)
        g.add_edge(0, 3, 0.75)
        g.add_edge(3, 1, 1.5)
        g.add_edge(2, 4, 0.25)
        fresh = coo_adjacency(g)
        assert g._csr_cache is None
        adjacency_matrix(g)  # builds the cache
        cached = adjacency_matrix(g)
        assert (fresh != cached).nnz == 0
        assert fresh.dtype == cached.dtype == np.float64
        assert cached.indptr.tolist() == fresh.indptr.tolist()
        assert cached.indices.tolist() == fresh.indices.tolist()
        assert cached.data.tolist() == fresh.data.tolist()


# ----------------------------------------------------------------------
# Bulk bucket build
# ----------------------------------------------------------------------
class TestBucketBulkBuild:
    def test_from_gains_equals_sequential_inserts(self):
        gains = [3, -2, 0, 3, 7, -7, 1, 0]
        sequential = LinkedGainBuckets(max_gain=7)
        for cell, gain in enumerate(gains):
            sequential.insert(cell, gain)
        bulk = LinkedGainBuckets.from_gains(gains)
        assert list(bulk.iter_best_first()) == list(
            sequential.iter_best_first()
        )
        assert len(bulk) == len(gains)

    def test_from_gains_presizes_no_grow(self):
        from repro import obs

        with obs.isolated() as state:
            obs.enable()
            LinkedGainBuckets.from_gains([64, -64, 0])
            obs.disable()
        assert "fm.bucket_grows" not in state.counters

    def test_from_gains_empty(self):
        assert list(LinkedGainBuckets.from_gains([]).iter_best_first()) \
            == []
