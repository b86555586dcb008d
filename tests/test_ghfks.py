"""Tests for the kernel-size schedule and the receptive-field analyzer."""

import math

import numpy as np
import pytest

from mhaf.config import PRESET_NAMES, load_preset
from mhaf.errors import GraphError, KernelError
from mhaf.ghfks import (
    KernelPlan,
    default_plan,
    receptive_field,
    rf_report,
    uniform_plan,
)
from mhaf.graph import ModelGraph, assemble, graph_param_entries
from mhaf.model import forward, fuse_model
from mhaf.weights import init_weights


def chain_graph():
    """Empty graph with a single image input, ready for appending."""
    g = ModelGraph()
    g.add("x", "input", (), channels=3)
    return g


class TestKernelPlan:
    def test_default_schedule_values(self):
        plan = default_plan()
        assert plan.backbone == {"p2": 3, "p3": 5, "p4": 7, "p5": 9}
        for pathway in ("shallow", "deep"):
            assert plan.neck[pathway] == {"p3": 5, "p4": 7, "p5": 9}
        plan.validate()

    def test_kernel_lookup_helpers(self):
        plan = default_plan()
        assert plan.backbone_kernel("p4") == 7
        assert plan.neck_kernel("p3", "deep") == 5

    def test_even_kernel_rejected_at_construction(self):
        with pytest.raises(KernelError, match="odd"):
            uniform_plan(4)

    def test_missing_level_rejected_at_construction(self):
        with pytest.raises(KernelError, match="backbone"):
            KernelPlan(backbone={"p2": 3, "p3": 5, "p4": 7}, neck=default_plan().neck)

    def test_uniform_three_builds_but_fails_validation(self):
        # the all-3x3 ablation must be constructable so it can be measured,
        # while still failing the schedule check
        plan = uniform_plan(3)
        with pytest.raises(KernelError, match="5, 7, 9"):
            plan.validate()

    def test_uniform_nine_happens_to_satisfy_schedule(self):
        uniform_plan(9).validate()

    def test_decreasing_backbone_rejected(self):
        plan = default_plan()
        plan.backbone["p5"] = 5
        plan.backbone["p4"] = 7
        with pytest.raises(KernelError, match="non-decreasing"):
            plan.validate()

    def test_decreasing_neck_rejected(self):
        plan = default_plan()
        plan.neck["deep"]["p5"] = 5
        plan.neck["deep"]["p4"] = 7
        with pytest.raises(KernelError, match="non-decreasing"):
            plan.validate()


class TestReceptiveFieldPrimitives:
    def test_single_conv(self):
        g = chain_graph()
        g.add("c", "conv", ("x",), kernel=3, stride=1)
        entry = receptive_field(g)["c"]
        assert entry.rf == 3
        assert entry.stride == 1

    def test_strided_then_unit_conv(self):
        # after a stride-2 conv the jump doubles, so the second kernel
        # contributes (k-1)*2 input pixels
        g = chain_graph()
        g.add("c1", "conv", ("x",), kernel=3, stride=2)
        g.add("c2", "conv", ("c1",), kernel=3, stride=1)
        ent = receptive_field(g)
        assert (ent["c1"].rf, ent["c1"].stride) == (3, 2)
        assert (ent["c2"].rf, ent["c2"].stride) == (7, 2)

    def test_elementwise_kinds_pass_through(self):
        g = chain_graph()
        g.add("c", "conv", ("x",), kernel=5, stride=1)
        g.add("b", "bn", ("c",))
        g.add("s", "silu", ("b",))
        ent = receptive_field(g)
        assert ent["s"].rf == ent["c"].rf == 5

    def test_multi_stream_block_depth_rule(self):
        # a block node with N streams and M inner blocks applies
        # (N-1)*M sequential kxk mixers along its deepest path
        g = chain_graph()
        g.add("r", "rephms", ("x",), streams=3, blocks=2, kernel=5,
              in_ch=8, out_ch=8, expansion=2.0)
        entry = receptive_field(g)["r"]
        assert entry.rf == 1 + (3 - 1) * 2 * (5 - 1)
        assert entry.stride == 1


class TestReceptiveFieldFusionRoles:
    @pytest.mark.parametrize(
        "kind, role, rf",
        [
            ("saf", "below", 9 + 2),  # avgpool: one step of the input's jump
            ("saf", "above", 9),  # upsample, 1x1 conv
            ("saf", "above_refined", 9),  # upsample
            ("aaf", "below_refined", 9 + 2 * 2),  # 3x3/2 conv: two steps
            ("aaf", "below_deep", 9 + 2),
            ("aaf", "above_refined", 9),
        ],
    )
    def test_role_rule(self, kind, role, rf):
        # the same-level input sees a single pixel at jump 4, so the other
        # input's path sets the node's rf; every role lands on jump 4
        g = chain_graph()
        g.add("finer", "conv", ("x",), kernel=9, stride=2)
        g.add("same", "conv", ("x",), kernel=1, stride=4)
        g.add("coarser", "conv", ("x",), kernel=9, stride=8)
        other = "finer" if role.startswith("below") else "coarser"
        g.add("fuse", kind, ("same", other), roles=("same", role))
        entry = receptive_field(g)["fuse"]
        assert (entry.rf, entry.stride) == (rf, 4)

    @pytest.mark.parametrize("kind, role", [("saf", "below"), ("aaf", "above_refined")])
    def test_role_at_the_wrong_stride_raises(self, kind, role):
        # both inputs sit at jump 4, but the role expects its input at 2
        # (below) or 8 (above) to meet the same-level input's jump
        g = chain_graph()
        g.add("same", "conv", ("x",), kernel=1, stride=4)
        g.add("other", "conv", ("x",), kernel=3, stride=4)
        g.add("fuse", kind, ("same", "other"), roles=("same", role))
        with pytest.raises(GraphError, match=f"'fuse': {role} input sits at stride 4"):
            receptive_field(g)

    def test_same_role_passes_through(self):
        g = chain_graph()
        g.add("c", "conv", ("x",), kernel=5, stride=2)
        g.add("fuse", "aaf", ("c",), roles=("same",))
        entry = receptive_field(g)["fuse"]
        assert (entry.rf, entry.stride) == (5, 2)


class TestModelReceptiveField:
    def test_head_rf_grows_with_stride(self):
        graph = assemble(load_preset("nano"))
        report = rf_report(graph)
        assert [e.node for e in report] == ["head.p3", "head.p4", "head.p5"]
        assert [e.stride for e in report] == [8, 16, 32]
        rfs = [e.rf for e in report]
        assert rfs == sorted(rfs)
        assert len(set(rfs)) == 3

    def test_nano_default_plan_values(self):
        report = rf_report(assemble(load_preset("nano")))
        assert [e.rf for e in report] == [871, 975, 1247]

    def test_uniform_ablation_shrinks_every_head(self):
        spec = load_preset("nano")
        scheduled = rf_report(assemble(spec))
        flat = rf_report(assemble(spec, uniform_plan(3)))
        for a, b in zip(flat, scheduled):
            assert a.rf < b.rf

    def test_rf_never_below_stride(self):
        entries = receptive_field(assemble(load_preset("nano")))
        for entry in entries.values():
            assert entry.rf >= entry.stride

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_entries_are_ints_in_both_forms(self, name):
        # every jump is a product of conv strides, so records print no
        # 2.0-style floats
        training = assemble(load_preset(name))
        deployed = fuse_model(training, init_weights(training)).graph
        for graph in (training, deployed):
            for entry in receptive_field(graph).values():
                assert type(entry.rf) is int and type(entry.stride) is int, entry

    def test_records_are_flat_dicts(self):
        entry = rf_report(assemble(load_preset("nano")))[0]
        rec = entry.to_record()
        assert rec == {"node": "head.p3", "rf": 871, "stride": 8}


class TestReceptiveFieldThroughForward:
    """The input columns that reach the central output column of each head
    of all-3x3 nano, found through ``forward``, fit in the head's ``rf``.

    Every conv weight is ``1/fan_in``, and ``init_weights`` leaves BNs as
    identities and biases at zero, so no value goes negative and an output
    is non-zero exactly when its window meets a non-zero input.  Underflow
    could only hide taps, so the measured window is a lower bound.  At this
    width the default schedule's P5 window reaches both input edges."""

    WIDTH = 1024

    @pytest.fixture(scope="class")
    def nano_3x3(self):
        graph = assemble(load_preset("nano"), uniform_plan(3))
        store = init_weights(graph)
        for entry in graph_param_entries(graph):
            if entry.kind == "conv_weight":
                fan_in = math.prod(entry.shape[1:])
                store.entries[entry.name] = np.full(entry.shape, 1 / fan_in, np.float32)
        return graph, store

    @pytest.mark.parametrize(
        "level",
        ["p3", "p4", pytest.param("p5", marks=pytest.mark.xfail(reason="ROADMAP item 10"))],
    )
    def test_measured_window_fits_rf(self, nano_3x3, level):
        graph, store = nano_3x3
        entry = receptive_field(graph)[f"head.{level}"]
        col = (self.WIDTH // entry.stride) // 2

        def reaches(ones: slice) -> bool:
            x = np.zeros((1, 3, 32, self.WIDTH), np.float32)
            x[..., ones] = 1
            return bool(forward(graph, store, x)[level][..., col].any())

        # bisect for the last column whose right half-plane reaches col ...
        lo, hi = 0, self.WIDTH
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if reaches(slice(mid, None)) else (lo, mid)
        right = lo
        # ... and the first whose left half-plane does
        lo, hi = -1, self.WIDTH - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches(slice(None, mid + 1)) else (mid, hi)
        left = hi
        assert 0 < left and right < self.WIDTH - 1, "the window meets an input edge"
        assert right - left + 1 <= entry.rf, f"columns {left}..{right} reach column {col}"
