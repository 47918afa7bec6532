"""Warm-start differential contracts: warm must equal cold where it
overlaps, with the product on its own paths (``csr``) and with every
cold-path layer swapped for its oracle (``dict``,
:func:`tests.oracles.reference_paths`).

* the patched intersection edge state is bitwise the cold rebuild;
* every warm sweep evaluation equals the cold sweep's at the same rank,
  and the warm partition equals cold's when the best rank stays inside
  the window;
* the patched FM engine state equals a cold rebuild on the same sides;
* ``warm_partition`` reproduces what the serving delta path returns;
* a served no-op delta is *byte-identical* (canonical result bytes) to
  the base serve.
"""

import json
import random

import numpy as np
import pytest

from repro.delta import (
    NetlistDelta,
    dumps_delta,
    random_delta,
    seed_artifacts,
    updated_edge_state,
    warm_partition,
)
from repro.intersection import build
from repro.partitioning import FMEngine, IGMatchConfig, ig_match_sweep
from repro.partitioning.igmatch import SweepWarmStart
from repro.service import (
    PartitionEngine,
    PartitionRequest,
    canonical_result_bytes,
    run_partitioner,
)
from repro.service.engine import result_to_payload
from tests.conftest import random_hypergraph
from tests.oracles import PATHS, run_on


def _base(seed=5):
    return random_hypergraph(seed, num_modules=40, num_nets=60)


def _request(algorithm):
    return PartitionRequest(algorithm=algorithm, seed=0)


def _direct_artifacts(h, request):
    """Seed artifacts exactly as a cold engine serve would."""
    capture = {}
    result = run_partitioner(h, request, capture=capture)
    return result, seed_artifacts(
        h, result_to_payload(result), request.algorithm, capture
    )


class TestEdgeStatePatch:
    @pytest.mark.parametrize("paths", PATHS)
    def test_patched_state_bitwise_equals_cold(self, paths):
        h = _base()
        rng = random.Random(11)
        with run_on(paths):
            # Looked up on the module so the dict paths' per-edge
            # oracle stands in for the cold build.
            state = build.intersection_edge_state(h)
            for _ in range(5):
                delta = random_delta(h, rng)
                application = delta.apply_detailed(h)
                h2 = application.hypergraph
                patched = updated_edge_state(h, state, application)
                cold = build.intersection_edge_state(h2)
                np.testing.assert_array_equal(
                    patched.edge_a, cold.edge_a
                )
                np.testing.assert_array_equal(
                    patched.edge_b, cold.edge_b
                )
                np.testing.assert_array_equal(
                    patched.weights, cold.weights
                )
                np.testing.assert_array_equal(
                    patched.first_mod, cold.first_mod
                )
                h, state = h2, patched


class TestWarmSweep:
    @pytest.mark.parametrize("paths", PATHS)
    def test_warm_evaluations_equal_cold_at_same_ranks(self, paths):
        h = _base(seed=9)
        config = IGMatchConfig(seed=0)
        with run_on(paths):
            cold_capture = {}
            cold_evals, cold_part = ig_match_sweep(
                h, config, capture=cold_capture
            )
            best_rank = cold_capture["best_rank"]
            lo = max(1, best_rank - 8)
            hi = min(h.num_nets - 1, best_rank + 8)
            warm = SweepWarmStart(
                lo=lo, hi=hi, matching_seed=cold_capture["matching"]
            )
            warm_evals, warm_part = ig_match_sweep(h, config, warm=warm)
        cold_by_rank = {e.rank: e for e in cold_evals}
        assert warm_evals, "warm sweep evaluated nothing"
        for evaluation in warm_evals:
            cold_eval = cold_by_rank[evaluation.rank]
            assert evaluation.ratio_cut == cold_eval.ratio_cut
            assert evaluation.matching_size == cold_eval.matching_size
            assert evaluation.nets_cut == cold_eval.nets_cut
            assert (
                evaluation.assign_core_to_l
                == cold_eval.assign_core_to_l
            )
        assert warm_part is not None and cold_part is not None
        assert warm_part.sides == cold_part.sides

    def test_warm_window_outside_valid_ranks_rejected(self):
        h = _base(seed=9)
        from repro.errors import PartitionError

        with pytest.raises(PartitionError, match="warm window"):
            ig_match_sweep(
                h,
                IGMatchConfig(seed=0),
                warm=SweepWarmStart(lo=0, hi=5),
            )

    def test_seedless_warm_start_equals_seeded(self):
        h = _base(seed=9)
        config = IGMatchConfig(seed=0)
        capture = {}
        ig_match_sweep(h, config, capture=capture)
        rank = capture["best_rank"]
        lo, hi = max(1, rank - 4), min(h.num_nets - 1, rank + 4)
        seeded, _ = ig_match_sweep(
            h,
            config,
            warm=SweepWarmStart(
                lo=lo, hi=hi, matching_seed=capture["matching"]
            ),
        )
        unseeded, _ = ig_match_sweep(
            h, config, warm=SweepWarmStart(lo=lo, hi=hi)
        )
        assert [
            (e.rank, e.ratio_cut, e.matching_size) for e in seeded
        ] == [
            (e.rank, e.ratio_cut, e.matching_size) for e in unseeded
        ]


class TestWarmFM:
    @pytest.mark.parametrize("paths", PATHS)
    def test_patched_engine_state_equals_cold_rebuild(self, paths):
        h = _base(seed=3)
        request = _request("fm")
        rng = random.Random(21)
        with run_on(paths):
            _result, artifacts = _direct_artifacts(h, request)
            for _ in range(3):
                delta = random_delta(h, rng)
                application = delta.apply_detailed(h)
                result, fresh, warm = warm_partition(
                    h, artifacts, application, request
                )
                assert warm
                h2 = application.hypergraph
                cold_engine = FMEngine(h2, result.partition.sides)
                assert fresh.fm_pin_count == cold_engine.pin_count
                assert fresh.fm_cut == cold_engine.cut
                assert fresh.fm_gains == cold_engine.gains
                fresh.payload = result_to_payload(result)
                h, artifacts = h2, fresh


class TestWarmPartition:
    @pytest.mark.parametrize("paths", PATHS)
    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_served_delta_equals_direct_warm_partition(
        self, paths, algorithm
    ):
        h = _base(seed=7)
        request = _request(algorithm)
        delta = random_delta(h, random.Random(13))
        doc = json.loads(dumps_delta(delta))
        with run_on(paths):
            engine = PartitionEngine()
            base_served = engine.partition(h, request)
            served = engine.partition_delta(
                base_served.fingerprint, doc, request
            )
            _result, artifacts = _direct_artifacts(h, request)
            application = NetlistDelta.from_doc(doc).apply_detailed(h)
            direct, _fresh, warm = warm_partition(
                h, artifacts, application, request
            )
        assert warm
        assert served.source == "delta-warm"
        assert canonical_result_bytes(
            served.result
        ) == canonical_result_bytes(direct)

    @pytest.mark.parametrize("paths", PATHS)
    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_noop_delta_byte_identical_to_cold(self, paths, algorithm):
        h = _base(seed=2)
        request = _request(algorithm)
        noop = json.loads(dumps_delta(NetlistDelta()))
        with run_on(paths):
            engine = PartitionEngine()
            base_served = engine.partition(h, request)
            served = engine.partition_delta(
                base_served.fingerprint, noop, request
            )
        assert served.fingerprint == base_served.fingerprint
        assert served.source == "session"
        assert canonical_result_bytes(
            served.result
        ) == canonical_result_bytes(base_served.result)
        assert engine.stats["service.delta.noop"] == 1

    def test_non_warm_algorithm_falls_back_cold(self):
        h = _base(seed=4)
        request = _request("eig1")
        _result, artifacts = _direct_artifacts(h, request)
        delta = random_delta(h, random.Random(2))
        application = delta.apply_detailed(h)
        result, _fresh, warm = warm_partition(
            h, artifacts, application, request
        )
        assert not warm
        assert result.partition is not None

    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_quality_no_worse_over_a_chain(self, algorithm):
        h = _base(seed=17)
        request = _request(algorithm)
        rng = random.Random(5)
        _result, artifacts = _direct_artifacts(h, request)
        for _ in range(4):
            delta = random_delta(h, rng, module_churn=False)
            application = delta.apply_detailed(h)
            result, fresh, warm = warm_partition(
                h, artifacts, application, request
            )
            assert warm
            cold = run_partitioner(application.hypergraph, request)
            assert result.ratio_cut <= cold.ratio_cut
            fresh.payload = result_to_payload(result)
            h, artifacts = application.hypergraph, fresh
