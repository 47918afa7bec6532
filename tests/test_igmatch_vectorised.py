"""The vectorised Phase II must match the pure-Python oracle exactly."""

import pytest

from repro.intersection import intersection_graph
from repro.matching import IncrementalMatching
from repro.partitioning.igmatch import _SweepArrays, _evaluate_split
from repro.spectral import spectral_ordering
from tests.conftest import random_hypergraph
from tests.oracles import evaluate_split, reference_paths


@pytest.mark.parametrize("seed", range(8))
def test_vectorised_equals_reference(seed):
    h = random_hypergraph(seed, num_modules=18, num_nets=22)
    graph = intersection_graph(h, "paper")
    order = spectral_ordering(graph, seed=0)
    matcher = IncrementalMatching(graph)
    arrays = _SweepArrays(h)
    for index, net in enumerate(order[:-1]):
        matcher.move_to_right(net)
        codes = matcher.classify()
        ref_eval, ref_assign = evaluate_split(
            h, codes, index + 1, matcher.matching_size
        )
        vec_eval, vec_assign = _evaluate_split(
            arrays, codes, index + 1, matcher.matching_size
        )
        assert ref_eval == vec_eval
        if ref_assign is None:
            assert vec_assign is None
        else:
            assert list(ref_assign) == list(vec_assign)


def test_degenerate_nets_agree():
    """Nets of size 0/1 must be ignored identically by both paths."""
    from repro.hypergraph import Hypergraph

    h = Hypergraph([[0, 1], [2], [], [1, 2], [0, 2]], num_modules=3)
    graph = intersection_graph(h, "paper")
    matcher = IncrementalMatching(graph)
    arrays = _SweepArrays(h)
    for rank, net in enumerate([0, 3], start=1):
        matcher.move_to_right(net)
        codes = matcher.classify()
        ref = evaluate_split(h, codes, rank, matcher.matching_size)
        vec = _evaluate_split(arrays, codes, rank, matcher.matching_size)
        assert ref[0] == vec[0]


def test_large_circuit_same_final_partition(medium_circuit):
    """End-to-end: the oracle Phase II (and every other reference
    layer) on a non-trivial circuit yields the identical partition."""
    from repro.partitioning import IGMatchConfig, ig_match

    fast = ig_match(medium_circuit, IGMatchConfig(seed=0))
    with reference_paths():
        reference = ig_match(medium_circuit, IGMatchConfig(seed=0))
    assert fast.partition.sides == reference.partition.sides
    assert fast.nets_cut == reference.nets_cut
