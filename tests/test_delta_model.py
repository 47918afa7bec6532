"""NetlistDelta value semantics: wire format, validation, algebra.

The algebraic properties (``apply(invert(d))`` is the identity;
compose-then-apply equals apply-then-apply) are checked with hypothesis
over :func:`tests.strategies.adversarial_csr_hypergraphs` — the same
degenerate-shape generator the CSR substrate is fuzzed with — both with
the patched CSR twin ``apply`` installs (``csr``) and with the twin
rebuilt from scratch (``dict``, :func:`tests.oracles.reference_paths`).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import (
    DELTA_FORMAT,
    ModuleAdd,
    NetAdd,
    NetlistDelta,
    dumps_delta,
    load_delta,
    loads_delta,
    random_delta,
    save_delta,
)
from repro.errors import DeltaError
from repro.hypergraph import CsrHypergraph, Hypergraph
from repro.service import exact_fingerprint
from tests.oracles import PATHS, run_on
from tests.strategies import adversarial_csr_hypergraphs


@pytest.fixture
def base():
    return Hypergraph(
        [[0, 1], [1, 2, 3], [0, 3], [2, 3]], name="base"
    )


class TestWireFormat:
    def test_empty_delta_is_format_tag_only(self):
        assert json.loads(dumps_delta(NetlistDelta())) == {
            "format": DELTA_FORMAT
        }

    def test_round_trip_all_fields(self, base):
        delta = NetlistDelta(
            remove_modules=(0,),
            add_modules=(ModuleAdd(area=2.0, name="new"),),
            set_module_areas={1: 3.0},
            remove_nets=(0,),
            add_nets=(NetAdd(pins=(1, 2), weight=2.0),),
            set_pins={1: (1, 2)},
            set_net_weights={2: 4.0},
        )
        assert loads_delta(dumps_delta(delta)) == delta

    def test_canonical_text_is_stable(self, base):
        delta = NetlistDelta(remove_nets=(1, 0), set_pins={2: (0, 1)})
        assert dumps_delta(delta) == dumps_delta(
            loads_delta(dumps_delta(delta))
        )

    def test_save_load(self, base, tmp_path):
        delta = NetlistDelta(set_pins={0: (0, 2)})
        path = tmp_path / "delta.json"
        save_delta(delta, path)
        assert load_delta(path) == delta

    def test_bad_format_tag_rejected(self):
        with pytest.raises(DeltaError, match="format"):
            NetlistDelta.from_doc({"format": "nope"})

    def test_bad_json_rejected(self):
        with pytest.raises(DeltaError, match="invalid delta JSON"):
            loads_delta("{not json")


class TestValidation:
    def test_remove_module_out_of_range(self, base):
        with pytest.raises(DeltaError):
            NetlistDelta(remove_modules=(99,)).validate(base)

    def test_set_pins_on_removed_net(self, base):
        with pytest.raises(DeltaError):
            NetlistDelta(
                remove_nets=(0,), set_pins={0: (1, 2)}
            ).validate(base)

    def test_apply_validates(self, base):
        with pytest.raises(DeltaError):
            NetlistDelta(remove_nets=(99,)).apply(base)


class TestAlgebra:
    @pytest.mark.parametrize("paths", PATHS)
    @settings(max_examples=40, deadline=None)
    @given(
        h=adversarial_csr_hypergraphs(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_apply_invert_is_identity(self, paths, h, seed):
        delta = random_delta(h, random.Random(seed))
        with run_on(paths):
            edited = delta.apply(h)
            restored = delta.invert(h).apply(edited)
        assert exact_fingerprint(restored) == exact_fingerprint(h)

    @pytest.mark.parametrize("paths", PATHS)
    @settings(max_examples=40, deadline=None)
    @given(
        h=adversarial_csr_hypergraphs(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_compose_equals_sequential_apply(self, paths, h, seed):
        rng = random.Random(seed)
        first = random_delta(h, rng)
        middle = first.apply(h)
        second = random_delta(middle, rng)
        with run_on(paths):
            composed = first.compose(second, h).apply(h)
            sequential = second.apply(first.apply(h))
        assert exact_fingerprint(composed) == exact_fingerprint(
            sequential
        )

    @settings(max_examples=40, deadline=None)
    @given(
        h=adversarial_csr_hypergraphs(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_apply_identical_across_cores(self, h, seed):
        """The patched CSR twin ``apply`` installs equals the twin
        rebuilt from the edited tuples, array for array."""
        delta = random_delta(h, random.Random(seed))
        edited = delta.apply(h)
        patched = edited._csr
        assert patched is not None
        rebuilt = CsrHypergraph.from_hypergraph(edited)
        for field in (
            "net_indptr",
            "net_indices",
            "module_indptr",
            "module_indices",
            "module_areas",
            "net_weights",
        ):
            got, want = getattr(patched, field), getattr(rebuilt, field)
            if want is None:
                assert got is None, field
            else:
                assert got.dtype == want.dtype, field
                assert got.tobytes() == want.tobytes(), field
        assert patched.module_names == rebuilt.module_names
        assert patched.net_names == rebuilt.net_names
        assert patched.name == rebuilt.name

    def test_noop_apply_preserves_fingerprint(self, base):
        assert exact_fingerprint(
            NetlistDelta().apply(base)
        ) == exact_fingerprint(base)
