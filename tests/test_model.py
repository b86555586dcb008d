"""Tests for whole-model evaluation, fusion to deployed form, and timing."""

import numpy as np
import pytest

from mhaf.config import load_preset
from mhaf.errors import NumericError, ShapeError, StateError
from mhaf.graph import assemble, count_params_flops
from mhaf.model import benchmark_forward, forward, fuse_model
from mhaf.weights import init_weights, load_weights, save_weights

from oracles import normalized_max_error


def tiny_setup(seed=0):
    graph = assemble(load_preset("lite-nano"))
    return graph, init_weights(graph, seed=seed)


def tiny_input(size=64, batch=1, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, size, size)).astype(np.float32)


class TestForward:
    def test_output_levels_and_shapes(self):
        graph, store = tiny_setup()
        out = forward(graph, store, tiny_input(128))
        assert sorted(out) == ["p3", "p4", "p5"]
        width = load_preset("lite-nano").scaled_neck_channels
        assert out["p3"].shape == (1, width, 16, 16)
        assert out["p4"].shape == (1, width, 8, 8)
        assert out["p5"].shape == (1, width, 4, 4)

    def test_repeat_is_bit_identical(self):
        graph, store = tiny_setup()
        x = tiny_input()
        a = forward(graph, store, x)
        b = forward(graph, store, x)
        for level in a:
            assert np.array_equal(a[level], b[level])

    def test_batch_dimension_carries_through(self):
        graph, store = tiny_setup()
        out = forward(graph, store, tiny_input(64, batch=3))
        assert out["p5"].shape[0] == 3

    def test_batch_elements_are_independent(self):
        graph, store = tiny_setup()
        x = tiny_input(64, batch=2)
        joint = forward(graph, store, x)
        solo = forward(graph, store, x[1:2])
        # batched matmul may reassociate sums, so compare relative to scale
        assert normalized_max_error(joint["p3"][1], solo["p3"][0]) <= 1e-5

    def test_naive_conv_route_agrees(self):
        # same graph, two independent convolution implementations
        graph, store = tiny_setup()
        x = tiny_input(64)
        fast = forward(graph, store, x)
        naive = forward(graph, store, x, use_naive_conv=True)
        for level in fast:
            assert normalized_max_error(fast[level], naive[level]) <= 1e-5

    def test_nonfinite_activation_names_the_node(self):
        graph, store = tiny_setup()
        x = tiny_input()
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="stem.1"):
            forward(graph, store, x)

    def test_indivisible_input_rejected_up_front(self):
        # 100 is not a multiple of nano's total stride 32; the check must
        # name that divisor instead of failing inside a fusion node
        graph = assemble(load_preset("nano"))
        store = init_weights(graph, seed=0)
        with pytest.raises(ShapeError, match="100x100 must be divisible by 32"):
            forward(graph, store, tiny_input(100))


class TestFusion:
    def test_outcome_accounting(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        assert outcome.bn_nodes_removed == 5
        assert outcome.params_after < outcome.params_before
        assert outcome.graph.form == "deployed"
        assert outcome.store.form == "deployed"

    def test_no_normalization_nodes_survive(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        assert all(n.kind != "bn" for n in outcome.graph.nodes.values())
        assert not any(".bn." in name for name in outcome.store.entries)

    def test_bookkeeping_matches_outcome(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        assert count_params_flops(outcome.graph).params == outcome.params_after

    def test_forward_is_preserved(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        x = tiny_input(96)
        before = forward(graph, store, x)
        after = forward(outcome.graph, outcome.store, x)
        for level in before:
            dev = np.max(np.abs(before[level] - after[level]))
            assert dev <= 1e-3

    def test_fusing_twice_is_refused(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        with pytest.raises(StateError, match="already in deployed"):
            fuse_model(outcome.graph, outcome.store)

    def test_deployed_store_round_trips(self, tmp_path):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        path = tmp_path / "deployed.mhwt"
        save_weights(outcome.store, path)
        loaded = load_weights(path)
        assert loaded.form == "deployed"
        x = tiny_input()
        a = forward(outcome.graph, outcome.store, x)
        b = forward(outcome.graph, loaded, x)
        for level in a:
            assert np.array_equal(a[level], b[level])


class TestBenchmark:
    def test_result_fields(self):
        graph, store = tiny_setup()
        res = benchmark_forward(
            graph, store, tiny_input(64), "training", warmups=1, iterations=3
        )
        assert res.label == "training"
        assert res.input_shape == (1, 3, 64, 64)
        assert res.iterations == 3
        assert 0 < res.min_seconds <= res.median_seconds <= res.max_seconds

    def test_record_is_flat(self):
        graph, store = tiny_setup()
        res = benchmark_forward(
            graph, store, tiny_input(64), "training", warmups=0, iterations=1
        )
        rec = res.to_record()
        assert rec["label"] == "training"
        assert isinstance(rec["median_seconds"], float)
