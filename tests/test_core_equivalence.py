"""Oracle-vs-product differential suite.

The product runs IG-Match and every baseline on one substrate: the flat
CSR arrays of ``h.csr`` and :meth:`Graph.csr_arrays`, with numpy doing
the per-pin and per-edge work.  ``tests/oracles.py`` keeps the plain
Python loops those fast paths replaced.  The contract between them is
not "close enough" — it is **bit identity**, enforced three ways:

1. End-to-end: all 8 algorithms through :func:`run_partitioner` must
   reproduce ``tests/data/golden_end_to_end.json`` — canonical result
   bytes (as SHA-256) *and* the full obs counter dict, or the identical
   error on infeasible inputs — and a run with every layer swapped for
   its oracle (:func:`tests.oracles.reference_paths`) must equal the
   product run, also on fuzzed instances.
2. Layer-by-layer: intersection-graph construction (adjacency order,
   bitwise edge weights), the Laplacian, the matcher's König
   ``classify`` and the Phase II completion under random sweeps, and FM
   engine initialisation — each against its oracle.
3. Service-level: fingerprints ignore the representation, a served
   result equals a direct compute, and disk-cache entries written on
   one set of paths are byte-identical hits on the other.

The ``dict`` / ``csr`` test ids name the two ways to run the product
(:data:`tests.oracles.PATHS`): on the reference loops, or on its own
flat-array paths.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import obs
from repro.errors import ReproError
from repro.graph import Graph
from repro.graph.laplacian import adjacency_matrix, laplacian_matrix
from repro.hypergraph import Hypergraph
from repro.intersection import (
    get_weighting,
    intersection_edge_state,
    intersection_graph,
)
from repro.matching.incremental import IncrementalMatching
from repro.partitioning.fm import FMEngine
from repro.partitioning.igmatch import _evaluate_split, _SweepArrays
from repro.service import (
    PartitionEngine,
    PartitionRequest,
    ResultCache,
    canonical_result_bytes,
    run_partitioner,
)
from repro.service.engine import ALGORITHMS
from repro.service.fingerprint import canonical_fingerprint, exact_fingerprint
from tests import oracles
from tests.conftest import random_hypergraph
from tests.strategies import hypergraphs, partitionable_hypergraphs

WEIGHTINGS = ("unit", "overlap", "jaccard", "paper")

#: Recorded on a tree where the dict-of-dict and CSR representations
#: were both selectable at run time, after checking that they agreed on
#: every case; never regenerate it from the product it checks.  Keys are
#: ``"<algorithm>/<seed>"`` for ``random_hypergraph(seed, 14, 18)`` and
#: ``"<algorithm>/<name>"`` for the :data:`DEGENERATE` instances.
GOLDEN = Path(__file__).parent / "data" / "golden_end_to_end.json"

#: Inputs some algorithms refuse: the golden file pins their errors.
DEGENERATE = {
    "one-net": lambda: Hypergraph([[0, 1]], num_modules=2),
    "one-module": lambda: Hypergraph([[0], [0]], num_modules=1),
    "no-nets": lambda: Hypergraph([], num_modules=3),
}


def run_one(paths, h, request):
    """One full run on ``paths``: (outcome, counters).

    ``outcome`` is the canonical result bytes on success, or an
    ``("error", type-name, message)`` triple when the instance is
    infeasible — identical errors are equivalent behaviour.  Counters
    are the complete deterministic obs tally for the run.
    """
    with obs.isolated() as state:
        obs.enable()
        try:
            with oracles.run_on(paths):
                result = run_partitioner(h, request)
            outcome = canonical_result_bytes(result)
        except ReproError as exc:
            outcome = ("error", type(exc).__name__, str(exc))
        finally:
            obs.disable()
        return outcome, dict(state.counters)


def golden_entry(outcome, counters):
    """A :func:`run_one` result in the golden file's shape."""
    if isinstance(outcome, tuple):
        entry = {"error": list(outcome[1:])}
    else:
        entry = {"sha256": hashlib.sha256(outcome).hexdigest()}
    entry["counters"] = counters
    return entry


def graph_signature(g: Graph) -> list:
    """Insertion-ordered adjacency with bitwise-exact weights."""
    return [
        (v, [(u, struct.pack("<d", w)) for u, w in nbrs.items()])
        for v, nbrs in enumerate(g._adj)
    ]


def float_bits(values) -> list:
    return [struct.pack("<d", x) for x in values]


# ----------------------------------------------------------------------
# 1. End-to-end: every algorithm, golden file and oracle run
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_bit_identical(self, algorithm, golden):
        cases = [
            (
                str(seed),
                random_hypergraph(seed, num_modules=14, num_nets=18),
                seed,
            )
            for seed in range(6)
        ] + [(name, make(), 0) for name, make in DEGENERATE.items()]
        for name, h, seed in cases:
            request = PartitionRequest(
                algorithm=algorithm, seed=seed, restarts=2, starts=2
            )
            product = run_one("csr", h, request)
            assert golden_entry(*product) == golden[f"{algorithm}/{name}"], (
                f"{algorithm} {name}: result or counters left the golden file"
            )
            assert run_one("dict", h, request) == product, (
                f"{algorithm} {name}: reference paths diverge"
            )

    @pytest.mark.parametrize("algorithm", ("ig-match", "fm", "multilevel"))
    @settings(max_examples=20, deadline=None)
    @given(h=partitionable_hypergraphs(max_modules=16, max_nets=20))
    def test_fuzzed_instances_bit_identical(self, algorithm, h):
        request = PartitionRequest(algorithm=algorithm, seed=3, restarts=1)
        assert run_one("dict", h, request) == run_one("csr", h, request)

    def test_split_stride_and_restarts_respected_on_both_cores(self):
        h = random_hypergraph(9, num_modules=16, num_nets=20)
        for request in (
            PartitionRequest("ig-match", seed=1, split_stride=3),
            PartitionRequest("fm", seed=4, restarts=5),
            PartitionRequest("ig-vote", seed=2, starts=3),
        ):
            assert run_one("dict", h, request) == run_one("csr", h, request)


# ----------------------------------------------------------------------
# 2. Layer-by-layer
# ----------------------------------------------------------------------
class TestIntersectionLayer:
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @settings(max_examples=40, deadline=None)
    @given(
        h=hypergraphs(
            max_modules=12,
            max_nets=15,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    def test_graph_identical_including_order(self, weighting, h):
        # A callable weighting takes the per-edge loop; the name takes
        # the vectorised build.
        per_edge = intersection_graph(h, get_weighting(weighting))
        vectorised = intersection_graph(h, weighting)
        assert graph_signature(per_edge) == graph_signature(vectorised)
        assert struct.pack("<d", per_edge.total_weight) == struct.pack(
            "<d", vectorised.total_weight
        )
        expected = oracles.edge_state(h, weighting)
        state = intersection_edge_state(h, weighting)
        for got, want in zip(state, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_csr_build_installs_matching_adjacency_cache(self):
        h = random_hypergraph(5, num_modules=12, num_nets=16)
        g = intersection_graph(h, "paper")
        assert g._csr_cache is not None
        cached = tuple(arr.tolist() for arr in g._csr_cache)
        g._csr_cache = None
        rebuilt = tuple(arr.tolist() for arr in g.csr_arrays())
        assert cached == rebuilt


class TestSpectralLayer:
    @staticmethod
    def assert_same_matrix(expected, got):
        assert (expected != got).nnz == 0
        assert expected.indptr.tolist() == got.indptr.tolist()
        assert expected.indices.tolist() == got.indices.tolist()
        assert float_bits(expected.data) == float_bits(got.data)

    def test_adjacency_and_laplacian_identical(self):
        for seed in range(4):
            h = random_hypergraph(seed, num_modules=14, num_nets=18)
            g = intersection_graph(h, "paper")
            with oracles.reference_paths():
                reference_laplacian = laplacian_matrix(g)
            self.assert_same_matrix(
                oracles.adjacency_matrix(g), adjacency_matrix(g)
            )
            self.assert_same_matrix(reference_laplacian, laplacian_matrix(g))


class TestMatchingLayer:
    @settings(max_examples=30, deadline=None)
    @given(h=hypergraphs(max_modules=12, max_nets=15))
    def test_classify_identical_under_random_sweeps(self, h):
        g = intersection_graph(h, "paper")
        order = list(range(g.num_vertices))
        random.Random(7).shuffle(order)
        matcher = IncrementalMatching(g)
        for v in order:
            matcher.move_to_right(v)
            assert matcher.classify() == oracles.classify(matcher)


class TestPhaseTwoLayer:
    @settings(max_examples=30, deadline=None)
    @given(
        h=hypergraphs(
            min_modules=2,
            max_modules=14,
            max_nets=16,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    def test_evaluations_identical_under_random_sweeps(self, h):
        g = intersection_graph(h, "paper")
        order = list(range(g.num_vertices))
        random.Random(11).shuffle(order)
        matcher = IncrementalMatching(g)
        arrays = _SweepArrays(h)
        for rank, v in enumerate(order[:-1], start=1):
            matcher.move_to_right(v)
            codes = matcher.classify()
            got = _evaluate_split(arrays, codes, rank, matcher.matching_size)
            want = oracles.evaluate_split(
                h, codes, rank, matcher.matching_size
            )
            assert got == want


class TestFMLayer:
    @settings(max_examples=40, deadline=None)
    @given(
        h=hypergraphs(
            max_modules=14,
            max_nets=18,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    def test_engine_init_identical(self, h):
        rng = random.Random(h.num_pins)
        for sides in (
            [v % 2 for v in range(h.num_modules)],
            [rng.randrange(2) for _ in range(h.num_modules)],
        ):
            engine = FMEngine(h, sides)
            pin_count, cut, gains = oracles.fm_init(h, sides)
            assert engine.pin_count == pin_count
            assert engine.cut == cut
            assert engine.gains == gains


# ----------------------------------------------------------------------
# 3. Service level: fingerprints, engines, and the shared disk cache
# ----------------------------------------------------------------------
class TestServiceLevel:
    def test_fingerprints_are_core_blind(self):
        h = random_hypergraph(11, num_modules=13, num_nets=17)
        before = (exact_fingerprint(h), canonical_fingerprint(h))
        h.csr  # materialise the CSR twin
        assert (exact_fingerprint(h), canonical_fingerprint(h)) == before
        with oracles.reference_paths():
            assert (
                exact_fingerprint(h), canonical_fingerprint(h)
            ) == before

    @pytest.mark.parametrize("paths", oracles.PATHS)
    def test_served_equals_direct(self, paths):
        h = random_hypergraph(4, num_modules=13, num_nets=16)
        request = PartitionRequest("ig-match", seed=2, restarts=2)
        with oracles.run_on(paths):
            engine = PartitionEngine(cache=None)
            served = engine.partition(h, request)
            direct = run_partitioner(h, request)
        assert canonical_result_bytes(served.result) == \
            canonical_result_bytes(direct)
        assert served.source == "computed"
        assert not served.cached

    def test_dict_written_disk_cache_hits_for_csr_engine(self, tmp_path):
        h = random_hypergraph(8, num_modules=14, num_nets=18)
        request = PartitionRequest("ig-match", seed=5, restarts=2)

        with oracles.reference_paths():
            writer = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
            first = writer.partition(h, request)
        assert first.source == "computed"

        # A fresh engine (cold memory tier) on the product paths, same
        # disk directory: the entry must be a byte-identical hit.
        reader = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
        second = reader.partition(h, request)
        assert second.cached
        assert second.source == "disk"
        assert second.fingerprint == first.fingerprint
        assert canonical_result_bytes(second.result) == \
            canonical_result_bytes(first.result)
        assert reader.cache.stats["disk_hits"] == 1

    def test_csr_written_disk_cache_hits_for_dict_engine(self, tmp_path):
        h = random_hypergraph(12, num_modules=12, num_nets=15)
        request = PartitionRequest("fm", seed=6, restarts=3)
        writer = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
        first = writer.partition(h, request)
        with oracles.reference_paths():
            reader = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
            second = reader.partition(h, request)
        assert second.source == "disk"
        assert canonical_result_bytes(second.result) == \
            canonical_result_bytes(first.result)
