"""Tests for whole-model evaluation, fusion to deployed form, and timing."""

import copy
import gc
import hashlib
import pickle
import platform
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhaf.blocks
import mhaf.model
import mhaf.reparam
from mhaf.blocks import ConvUnit, fold_slot
from mhaf.config import ModelSpec, load_preset
from mhaf.errors import ConfigError, NumericError, ShapeError, StateError
from mhaf.ghfks import default_plan, uniform_plan
from mhaf.graph import (
    ModelGraph,
    assemble,
    count_params_flops,
    graph_param_entries,
    rephms_spec,
    shape_infer,
)
from mhaf.model import benchmark_forward, forward, fuse_model
from mhaf.reparam import RepHConvWeights, fuse_conv_bn, merge_heterogeneous
from mhaf.tensor import conv2d_naive
from mhaf.weights import (
    bind_node_weights,
    init_weights,
    load_weights,
    save_weights,
)

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

    def test_empty_batch_in_both_forms(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        x = tiny_input(64, batch=0)
        for g, s in ((graph, store), (outcome.graph, outcome.store)):
            full = forward(g, s, tiny_input(64))
            out = forward(g, s, x)
            assert sorted(out) == sorted(full)
            for level, arr in out.items():
                assert arr.shape == (0, *full[level].shape[1:]), (g.form, level)

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

    def test_use_naive_conv_routes_exactly_the_conv_nodes(self, monkeypatch):
        # the flag sends the graph's own conv nodes, and only those, through
        # conv2d_naive; every conv inside a composite node stays on
        # conv2d_fast
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        x = tiny_input(64)
        for g, s in ((graph, store), (outcome.graph, outcome.store)):
            fast = forward(g, s, x)
            calls = {"naive": [], "fast": []}

            def counting(route, conv):
                def wrapper(inp, kernel):
                    calls[route].append(kernel)
                    return conv(inp, kernel)
                return wrapper

            with monkeypatch.context() as m:
                m.setattr(mhaf.model, "conv2d_naive", counting("naive", conv2d_naive))
                for module in (mhaf.blocks, mhaf.reparam, mhaf.model):
                    m.setattr(module, "conv2d_fast", counting("fast", module.conv2d_fast))
                naive = forward(g, s, x, use_naive_conv=True)
            conv_nodes = [n for n in g if n.kind == "conv"]
            convs = [e for e in graph_param_entries(g) if e.kind == "conv_weight"]
            assert conv_nodes
            assert sorted(id(k.weights) for k in calls["naive"]) == sorted(
                id(s[f"{n.name}.weight"]) for n in conv_nodes
            )
            assert len(calls["fast"]) == len(convs) - len(conv_nodes)
            for level in fast:
                assert normalized_max_error(fast[level], naive[level]) <= 1e-5

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

    @pytest.mark.parametrize("hw", [(0, 0), (0, 64), (64, 0)])
    def test_empty_input_rejected_before_any_node(self, monkeypatch, hw):
        graph, store = tiny_setup()
        x = np.zeros((1, 3, *hw), dtype=np.float32)
        ran = []
        monkeypatch.setattr(mhaf.model, "_eval_node", lambda *args: ran.append(args))
        with pytest.raises(ShapeError, match=f"{hw[0]}x{hw[1]} must be a positive multiple of 32"):
            forward(graph, store, x)
        assert not ran


def count_prepare_calls(monkeypatch) -> Counter:
    """Count validate_store calls and bind_node_weights calls per node name,
    by rebinding both names in mhaf.model."""
    counts = Counter()
    validate, bind = mhaf.model.validate_store, mhaf.model.bind_node_weights

    def counting_validate(graph, store):
        counts["validate_store"] += 1
        return validate(graph, store)

    def counting_bind(node, store):
        counts[node.name] += 1
        return bind(node, store)

    monkeypatch.setattr(mhaf.model, "validate_store", counting_validate)
    monkeypatch.setattr(mhaf.model, "bind_node_weights", counting_bind)
    return counts


def fresh_forward(graph, store, x):
    """Forward on deep copies of the graph and store: nothing carried over."""
    g, s = copy.deepcopy((graph, store))
    return forward(g, s, x)


def assert_same_outputs(got, want):
    assert list(got) == list(want)
    for level in want:
        assert np.array_equal(got[level], want[level]), level


def first_entry(graph, kind, within=""):
    return next(
        e.name for e in graph_param_entries(graph) if e.kind == kind and within in e.name
    )


def scale_in_place(name, factor):
    def change(graph, store):
        store.entries[name] *= np.float32(factor)
    return change


def replace_entry(graph, store):
    name = first_entry(graph, "conv_weight", ".mixer.")
    store.entries[name] = store[name] * np.float32(2)


def add_node(graph, store):
    graph.add("extra", "silu", (graph.outputs[0],))


def drop_an_output(graph, store):
    graph.outputs = graph.outputs[1:]


LITE = assemble(load_preset("lite-nano"))
# change -> (the next forward prepares a new plan, the outputs move)
PLAN_CHANGES = {
    "replace an entry": (replace_entry, True, True),
    "conv weight in place": (scale_in_place("stem.1.conv.weight", 0.5), False, True),
    "bn vector in place": (
        scale_in_place(first_entry(LITE, "bn_gamma", "backbone.p3."), 1.5), False, True
    ),
    "depthwise mixer weight in place": (
        scale_in_place(first_entry(LITE, "conv_weight", ".mixer."), -1.0), False, True
    ),
    "graph.add": (add_node, True, False),
    "reassign graph.outputs": (drop_an_output, True, True),
}


class TestPlan:
    def test_each_node_bound_and_store_validated_once(self, monkeypatch):
        graph, store = tiny_setup()
        counts = count_prepare_calls(monkeypatch)
        x = tiny_input()
        first = forward(graph, store, x)
        for _ in range(4):
            assert_same_outputs(forward(graph, store, x), first)
        bound = [n.name for n in graph if n.kind != "input"]
        assert counts == Counter(["validate_store", *bound])

    @pytest.mark.parametrize("name", PLAN_CHANGES)
    def test_outputs_follow_every_change(self, monkeypatch, name):
        change, reprepares, moves = PLAN_CHANGES[name]
        graph, store = tiny_setup()
        x = tiny_input()
        before = forward(graph, store, x)
        change(graph, store)
        want = fresh_forward(graph, store, x)
        counts = count_prepare_calls(monkeypatch)
        got = forward(graph, store, x)
        assert_same_outputs(got, want)
        assert counts["validate_store"] == int(reprepares)
        assert any(
            lv not in got or not np.array_equal(before[lv], got[lv]) for lv in before
        ) == moves

    def test_in_place_write_into_a_deployed_mixer_shows(self):
        graph, store = tiny_setup()
        outcome = fuse_model(graph, store)
        graph, store = outcome.graph, outcome.store
        x = tiny_input()
        before = forward(graph, store, x)
        name = first_entry(graph, "conv_weight", ".mixer.")
        store.entries[name] *= np.float32(-1)
        got = forward(graph, store, x)
        assert_same_outputs(got, fresh_forward(graph, store, x))
        assert not np.array_equal(got["p3"], before["p3"])

    def test_new_input_size_reuses_the_plan(self, monkeypatch):
        graph, store = tiny_setup()
        forward(graph, store, tiny_input(64))
        x = tiny_input(96)
        want = fresh_forward(graph, store, x)
        counts = count_prepare_calls(monkeypatch)
        assert_same_outputs(forward(graph, store, x), want)
        assert not counts

    def test_two_stores_alternate_on_one_graph(self, monkeypatch):
        graph = assemble(load_preset("lite-nano"))
        stores = [init_weights(graph, seed=0), init_weights(graph, seed=1)]
        x = tiny_input()
        wants = [fresh_forward(graph, s, x) for s in stores]
        counts = count_prepare_calls(monkeypatch)
        for _ in range(3):
            for store, want in zip(stores, wants):
                assert_same_outputs(forward(graph, store, x), want)
        assert counts["validate_store"] == 2

    def test_removed_entry_raises(self):
        graph, store = tiny_setup()
        forward(graph, store, tiny_input())
        del store.entries["stem.1.conv.weight"]
        with pytest.raises(ShapeError, match=r"missing=\['stem.1.conv.weight'\]"):
            forward(graph, store, tiny_input())

    def test_plan_does_not_keep_a_dropped_graph_alive(self):
        graph, store = tiny_setup()
        x = tiny_input()
        want = forward(graph, store, x)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None
        assert_same_outputs(forward(assemble(load_preset("lite-nano")), store, x), want)

    def test_plan_does_not_keep_a_dropped_store_alive(self):
        graph, store = tiny_setup()
        forward(graph, store, tiny_input())
        ref = weakref.ref(store)
        del store
        gc.collect()
        assert ref() is None

    def test_store_with_a_plan_copies_and_pickles(self):
        graph, store = tiny_setup()
        x = tiny_input()
        want = forward(graph, store, x)
        for twin in (copy.copy(store), pickle.loads(pickle.dumps(store))):
            assert twin not in mhaf.model._PLANS
            assert_same_outputs(forward(graph, twin, x), want)


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

    def test_bn_not_after_a_conv_is_refused(self):
        graph = ModelGraph()
        graph.add("x", "input", channels=3)
        graph.add("norm", "bn", ("x",), channels=3)
        graph.outputs = ("norm",)
        with pytest.raises(StateError, match="bn node 'norm' does not follow a conv"):
            fuse_model(graph, init_weights(graph))

    def test_conv_without_a_trailing_bn_is_refused(self):
        graph = ModelGraph()
        graph.add("x", "input", channels=3)
        graph.add("stem", "conv", ("x",), in_ch=3, out_ch=4, kernel=3, stride=1, groups=1)
        graph.add("act", "silu", ("stem",))
        graph.outputs = ("act",)
        with pytest.raises(StateError, match="conv node 'stem' has no trailing bn"):
            fuse_model(graph, init_weights(graph))

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
    """{entry name: array} of the deployed form, spelled out here: each
    aggregation module walked entry -> streams -> blocks -> exit, and each
    bound slot folded by fuse_conv_bn or merge_heterogeneous directly,
    rather than through the graph's entry enumeration and ``fold_slot``."""
    out = {}

    def emit(prefix, unit):
        if isinstance(unit, RepHConvWeights):
            fused = merge_heterogeneous(unit)
            out[f"{prefix}.fused.weight"] = fused.weights
            out[f"{prefix}.fused.bias"] = fused.bias
        else:
            folded = fuse_conv_bn(unit.kernel, unit.bn)
            out[f"{prefix}.conv.weight"] = folded.weights
            out[f"{prefix}.conv.bias"] = folded.bias

    for node in graph:
        bound = bind_node_weights(node, store)
        if node.kind == "conv":
            (bn,) = [n for n in graph if n.inputs == (node.name,)]
            folded = fuse_conv_bn(bound, bind_node_weights(bn, store))
            out[f"{node.name}.weight"] = folded.weights
            out[f"{node.name}.bias"] = folded.bias
        elif node.kind == "rephms":
            spec = rephms_spec(node)
            paths = ["entry"]
            for s in range(2, spec.streams + 1):
                for b in range(1, spec.blocks_per_stream + 1):
                    paths += [f"s{s}.b{b}.{part}" for part in ("expand", "mixer", "pw", "proj")]
            paths.append("exit")
            assert list(bound) == paths, node.name
            for path in paths:
                emit(f"{node.name}.{path}", bound[path])
        elif node.kind in ("saf", "aaf"):
            for slot in ("down", "ctrl"):
                if slot in bound:
                    emit(f"{node.name}.{slot}", bound[slot])
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

    # sha256 of nano's weight files, init seed 5 with non-identity BN: a
    # change to the fold arithmetic or to entry order must fail here
    PINNED = {
        "training": "e4a2137ed0837ac6693955f1baa942e6b6fcab09fedd1fca01422acd9056ca2f",
        "deployed": "8753dc4faf14d92ca757624b7ba1a1ad6e20d2f60a2feb998afb2141fbdc0769",
    }

    def test_nano_weight_files_are_pinned(self, tmp_path):
        graph = assemble(load_preset("nano"))
        store = non_identity_bn_store(graph, seed=5)
        stores = {"training": store, "deployed": fuse_model(graph, store).store}
        for form, saved in stores.items():
            path = tmp_path / f"{form}.mhwt"
            save_weights(saved, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED[form], form

    def test_deployed_binding_gives_the_folded_slots(self):
        """Binding a fused composite node gives, slot for slot, what
        fold_slot makes of the training-form slots: BN-free ConvUnits with
        the same hyper-parameters and equal arrays."""
        graph = assemble(load_preset("nano"))
        store = non_identity_bn_store(graph, seed=9)
        outcome = fuse_model(graph, store)
        composite = 0
        for node in graph:
            if node.kind not in ("rephms", "saf", "aaf"):
                continue
            composite += 1
            folded = {
                path: fold_slot(unit)
                for path, unit in bind_node_weights(node, store).items()
            }
            fused_node = outcome.graph.node(node.name)
            bound = bind_node_weights(fused_node, outcome.store)
            assert list(bound) == list(folded), node.name
            for path, want in folded.items():
                got = bound[path]
                where = f"{node.name}.{path}"
                assert isinstance(got, ConvUnit) and isinstance(want, ConvUnit), where
                assert got.bn is None and want.bn is None, where
                assert got.act == want.act, where
                g, w = got.kernel, want.kernel
                assert (g.stride, g.padding, g.groups) == (w.stride, w.padding, w.groups), where
                assert np.array_equal(g.weights, w.weights), where
                assert np.array_equal(g.bias, w.bias), where
        assert composite > 0


@st.composite
def model_specs(draw):
    """Valid specs: every scaled width is a multiple of 8 * its stream count,
    so it splits evenly into the streams."""
    width = draw(st.sampled_from((0.5, 1.0)))
    bb_streams, neck_streams = draw(st.integers(2, 3)), draw(st.integers(2, 3))

    def base(streams, most):
        return int(8 * streams * draw(st.integers(1, most)) / width)

    return ModelSpec(
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
        fused_shapes = []

        def recording(fuse):
            def wrapper(*args):
                y = fuse(*args)
                fused_shapes.append(y.shape)
                return y
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for name in ("saf_fuse", "aaf_fuse"):
                mp.setattr(mhaf.model, name, recording(getattr(mhaf.model, name)))
            out = forward(graph, init_weights(graph, seed=0), x.astype(np.float32))
        assert {lv: y.shape for lv, y in out.items()} == {
            graph.node(name).attrs["level"]: (1, *shapes[name]) for name in graph.outputs
        }
        assert fused_shapes == [
            (1, *shapes[n.name]) for n in graph if n.kind in ("saf", "aaf")
        ]


class TestBenchmark:
    def test_result_fields(self):
        graph, store = tiny_setup()
        res = benchmark_forward(graph, store, tiny_input(64), "training", iterations=3)
        assert res.label == "training"
        assert res.input_shape == (1, 3, 64, 64)
        assert res.iterations == 3
        assert 0 < res.min_seconds <= res.median_seconds <= res.max_seconds

    @pytest.mark.parametrize("counts, message", [
        ({"iterations": 0}, "iterations must be at least 1, got 0"),
        ({"iterations": 2.5}, "iterations must be an integer, got 2.5"),
    ])
    def test_bad_counts_rejected_before_any_forward(self, monkeypatch, counts, message):
        graph, store = tiny_setup()
        calls = []
        monkeypatch.setattr(mhaf.model, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=message):
            benchmark_forward(graph, store, tiny_input(64), "training", **counts)
        assert calls == []

    def test_record_is_flat(self):
        graph, store = tiny_setup()
        res = benchmark_forward(graph, store, tiny_input(64), "training", iterations=1)
        rec = res.to_record()
        assert rec["label"] == "training"
        assert isinstance(rec["median_seconds"], float)


# Run in a fresh interpreter: build nano in one form, warm it with 5
# forwards, then print the mean minor page faults of 5 more.
FAULTS_PER_FORWARD = """
import resource, sys
import numpy as np
import mhaf

form, path = sys.argv[1], sys.argv[2]
graph = mhaf.assemble(mhaf.resolve_config("nano"))
if form == "deployed":
    fused = mhaf.fuse_model(graph, mhaf.init_weights(graph, seed=0))
    graph, store, shape = fused.graph, fused.store, (1, 3, 320, 320)
else:
    store, shape = mhaf.load_weights(path), (4, 3, 96, 96)
x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
for _ in range(5):
    mhaf.forward(graph, store, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    mhaf.forward(graph, store, x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the fault counts depend on glibc's malloc",
)
class TestForwardPageFaults:
    """A warm forward reuses heap pages rather than faulting in fresh ones,
    whatever ran before it in the process: its multi-MB temporaries must not
    each be a new mmap.  Each case runs in a fresh interpreter, with nothing
    freed by this test session in its heap."""

    @pytest.mark.parametrize("form", ["deployed", "training"])
    def test_warm_forward_takes_few_minor_faults(self, tmp_path, form):
        # deployed: nano at 320x320 from init_weights, with no file;
        # training: batch 4 at 96x96 from a file this process wrote, so a
        # streamed load is all that ran before the plan
        path = tmp_path / "nano.mhwt"
        if form == "training":
            graph = assemble(load_preset("nano"))
            save_weights(init_weights(graph, seed=0), str(path))
        proc = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_FORWARD, form, str(path)],
            capture_output=True, text=True, check=True,
        )
        faults = float(proc.stdout)
        assert faults < 100, f"{faults:.0f} minor faults per warm {form} forward"
