"""Tests for whole-model evaluation, fusion to deployed form, and timing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhaf.blocks
import mhaf.model
import mhaf.reparam
from mhaf.blocks import ConvUnit, deploy_conv_unit, deploy_rephms
from mhaf.config import ModelSpec, load_preset, parse_config, serialize_config
from mhaf.errors import NumericError, ShapeError, StateError
from mhaf.ghfks import default_plan, uniform_plan
from mhaf.graph import assemble, count_params_flops, graph_param_entries, shape_infer
from mhaf.model import benchmark_forward, forward, fuse_model
from mhaf.reparam import fuse_conv_bn
from mhaf.tensor import conv2d_naive
from mhaf.weights import bind_node_weights, init_weights, load_weights, save_weights

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

    def test_naive_conv_route_agrees(self, monkeypatch):
        # same graph, two independent convolution implementations: every
        # conv, inside blocks too, takes the reference route on the second run
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        x = tiny_input(64)
        calls = []

        def naive(inp, kernel):
            calls.append(kernel)
            return conv2d_naive(inp, kernel)

        for g, s in ((graph, store), (outcome.graph, outcome.store)):
            fast = forward(g, s, x)
            with monkeypatch.context() as m:
                for module in (mhaf.blocks, mhaf.reparam, mhaf.model):
                    m.setattr(module, "conv2d_fast", naive)
                calls.clear()
                reference = forward(g, s, x)
            convs = [e for e in graph_param_entries(g) if e.kind == "conv_weight"]
            assert len(calls) == len(convs)
            for level in fast:
                assert normalized_max_error(fast[level], reference[level]) <= 1e-5

    def test_nonfinite_activation_names_the_node(self):
        # a finite input meets a NaN weight: the first conv's output blows up
        graph, store = tiny_setup()
        store.entries["stem.1.conv.weight"][0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="stem.1"):
            forward(graph, store, tiny_input())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected_before_any_node(self, monkeypatch, bad):
        graph, store = tiny_setup()
        x = tiny_input()
        x[0, 1, 7, 9] = bad
        ran = []
        monkeypatch.setattr(mhaf.model, "_eval_node", lambda *args: ran.append(args))
        with pytest.raises(NumericError, match="input 'images'"):
            forward(graph, store, x)
        assert not ran

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


def non_identity_bn_store(graph, seed=0):
    """Seeded weights whose batchnorms are not identity transforms: mean and
    beta ~ N(0, 0.1), var and gamma ~ U(0.8, 1.25)."""
    store = init_weights(graph, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for entry in graph_param_entries(graph):
        if entry.kind in ("bn_mean", "bn_beta"):
            arr = rng.normal(0.0, 0.1, entry.shape)
        elif entry.kind in ("bn_var", "bn_gamma"):
            arr = rng.uniform(0.8, 1.25, entry.shape)
        else:
            continue
        store.entries[entry.name] = arr.astype(np.float32)
    return store


def deployed_entries_by_hand(graph, store):
    """{entry name: array} of the deployed form, spelled out here from the
    structured fold path (fuse_conv_bn, deploy_conv_unit, deploy_rephms over
    bind_node_weights) rather than from the graph's entry enumeration."""
    out = {}

    def emit(prefix, unit):
        if isinstance(unit, ConvUnit):
            out[f"{prefix}.conv.weight"] = unit.kernel.weights
            out[f"{prefix}.conv.bias"] = unit.kernel.bias
        else:
            out[f"{prefix}.fused.weight"] = unit.fused.weights
            out[f"{prefix}.fused.bias"] = unit.fused.bias

    for node in graph:
        bound = bind_node_weights(node, store, "training")
        if node.kind == "conv":
            (bn,) = [n for n in graph if n.inputs == (node.name,)]
            folded = fuse_conv_bn(bound, bind_node_weights(bn, store, "training"))
            out[f"{node.name}.weight"] = folded.weights
            out[f"{node.name}.bias"] = folded.bias
        elif node.kind == "rephms":
            deployed = deploy_rephms(bound)
            emit(f"{node.name}.entry", deployed.entry)
            for s, blocks in enumerate(deployed.streams, start=2):
                for b, block in enumerate(blocks, start=1):
                    for part in ("expand", "mixer", "pw", "proj"):
                        emit(f"{node.name}.s{s}.b{b}.{part}", getattr(block, part))
            emit(f"{node.name}.exit", deployed.exit)
        elif node.kind in ("saf", "aaf"):
            for slot in ("down", "ctrl"):
                unit = getattr(bound, slot, None)
                if unit is not None:
                    emit(f"{node.name}.{slot}", deploy_conv_unit(unit))
    return out


class TestFusionOracle:
    @pytest.mark.parametrize("scale", ["nano", "small"])
    def test_fused_entries_match_structured_fold_bit_for_bit(self, scale):
        graph = assemble(load_preset(scale))
        store = non_identity_bn_store(graph, seed=7)
        fused = fuse_model(graph, store).store
        expected = deployed_entries_by_hand(graph, store)
        assert list(fused.entries) == list(expected)
        for name, want in expected.items():
            got = fused.entries[name]
            assert got.dtype == want.dtype == np.float32, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


@st.composite
def model_specs(draw):
    """Valid specs: every scaled width is a multiple of 8 * its stream count,
    so it splits evenly into the streams."""
    width = draw(st.sampled_from((0.5, 1.0)))
    bb_streams, neck_streams = draw(st.integers(2, 3)), draw(st.integers(2, 3))

    def base(streams, most):
        return int(8 * streams * draw(st.integers(1, most)) / width)

    spec = ModelSpec(
        scale="drawn",
        width=width,
        depth=draw(st.sampled_from((0.33, 1.0))),
        input_size=64,
        stage_channels=tuple(base(bb_streams, 3) for _ in range(4)),
        neck_channels=base(neck_streams, 2),
        backbone_streams=bb_streams,
        backbone_blocks=draw(st.integers(1, 2)),
        neck_streams=neck_streams,
        neck_blocks=draw(st.integers(1, 2)),
        expansion=draw(st.sampled_from((0.5, 1.0, 2.0))),
    )
    return parse_config(serialize_config(spec))  # validates the draw


class TestShapeProperty:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        spec=model_specs(),
        plan=st.one_of(
            st.just(default_plan()),
            st.sampled_from((3, 5, 7, 9)).map(uniform_plan),
        ),
        size=st.sampled_from((32, 64, 96, 128)),
    )
    def test_shape_infer_agrees_with_forward(self, spec, plan, size):
        graph = assemble(spec, plan)
        shapes = shape_infer(graph, size)
        x = np.random.default_rng(size).standard_normal((1, 3, size, size))
        out = forward(graph, init_weights(graph, seed=0), x.astype(np.float32))
        assert {lv: y.shape for lv, y in out.items()} == {
            graph.node(name).attrs["level"]: (1, *shapes[name]) for name in graph.outputs
        }


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
