"""Tests for graph assembly, shape inference, bookkeeping, and export."""

import numpy as np
import pytest

from mhaf.config import PRESET_NAMES, load_preset
from mhaf.errors import GraphError, ShapeError
from mhaf.ghfks import uniform_plan
from mhaf.graph import (
    KINDS,
    ModelGraph,
    assemble,
    count_params_flops,
    export_graph,
    graph_param_entries,
    shape_infer,
    validate_model,
)


def nano_graph():
    return assemble(load_preset("nano"))


class TestGraphContainer:
    def test_insertion_is_topological(self):
        g = ModelGraph()
        g.add("x", "input", (), channels=3)
        with pytest.raises(GraphError, match="unknown input"):
            g.add("c", "conv", ("missing",), kernel=3)

    def test_duplicate_name_rejected(self):
        g = ModelGraph()
        g.add("x", "input", (), channels=3)
        with pytest.raises(GraphError, match="duplicate"):
            g.add("x", "input", (), channels=3)

    def test_unknown_kind_rejected(self):
        g = ModelGraph()
        with pytest.raises(GraphError, match="kind"):
            g.add("x", "dense", ())

    @pytest.mark.parametrize("kind", ["split", "add", "pool", "upsample", "concat"])
    def test_removed_kinds_rejected(self, kind):
        # assembly never emits these (fusion nodes pool, upsample and
        # concatenate inside), so they are not node kinds
        g = ModelGraph()
        g.add("x", "input", (), channels=3)
        with pytest.raises(GraphError, match="kind"):
            g.add("y", kind, ("x",))


class TestAssembly:
    def test_every_preset_assembles(self):
        for name in PRESET_NAMES:
            graph = assemble(load_preset(name))
            assert graph.outputs == ("head.p3", "head.p4", "head.p5")

    def test_every_kind_is_one_assembly_emits(self):
        # a kind assembly stops emitting goes from KINDS with it
        emitted = {
            node.kind for name in PRESET_NAMES for node in assemble(load_preset(name))
        }
        assert emitted == KINDS

    def test_node_and_edge_counts_are_stable(self):
        g = nano_graph()
        assert len(g.nodes) == 35
        assert len(g.edges()) == 47

    def test_shallow_fusion_arities(self):
        g = nano_graph()
        assert len(g.node("neck.p3.shallow.fuse").inputs) == 4
        assert len(g.node("neck.p4.shallow.fuse").inputs) == 4
        assert len(g.node("neck.p5.shallow.fuse").inputs) == 2

    def test_deep_fusion_arities(self):
        g = nano_graph()
        assert len(g.node("neck.p3.deep.fuse").inputs) == 2
        assert len(g.node("neck.p4.deep.fuse").inputs) == 4
        assert len(g.node("neck.p5.deep.fuse").inputs) == 3

    def test_shallow_fusion_roles_and_sources(self):
        node = nano_graph().node("neck.p4.shallow.fuse")
        assert node.attrs["roles"] == ("below", "same", "above", "above_refined")
        assert node.inputs == (
            "backbone.p3",
            "backbone.p4",
            "backbone.p5",
            "neck.p5.shallow",
        )

    def test_deep_fusion_mixes_both_finer_pathways(self):
        # the two finer-level contributions must come from different
        # pathways, otherwise the second one adds nothing new
        node = nano_graph().node("neck.p4.deep.fuse")
        assert node.attrs["roles"] == (
            "below_refined",
            "below_deep",
            "same",
            "above_refined",
        )
        below_refined, below_deep = node.inputs[0], node.inputs[1]
        assert below_refined != below_deep
        assert below_refined == "neck.p3.shallow"
        assert below_deep == "neck.p3.deep"

    @pytest.mark.parametrize("plan", [None, uniform_plan(3)], ids=["default", "all-3x3"])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_every_fusion_node_is_wired_as_pinned(self, preset, plan):
        # spelled out here, not derived from FUSION_ROLES, so that a changed
        # step or source in that table shows
        wiring = [
            ("neck.p5.shallow.fuse", ("below", "same"), ("backbone.p4", "backbone.p5")),
            ("neck.p4.shallow.fuse", ("below", "same", "above", "above_refined"),
             ("backbone.p3", "backbone.p4", "backbone.p5", "neck.p5.shallow")),
            ("neck.p3.shallow.fuse", ("below", "same", "above", "above_refined"),
             ("backbone.p2", "backbone.p3", "backbone.p4", "neck.p4.shallow")),
            ("neck.p3.deep.fuse", ("same", "above_refined"),
             ("neck.p3.shallow", "neck.p4.shallow")),
            ("neck.p4.deep.fuse", ("below_refined", "below_deep", "same", "above_refined"),
             ("neck.p3.shallow", "neck.p3.deep", "neck.p4.shallow", "neck.p5.shallow")),
            ("neck.p5.deep.fuse", ("below_refined", "below_deep", "same"),
             ("neck.p4.shallow", "neck.p4.deep", "neck.p5.shallow")),
        ]
        graph = assemble(load_preset(preset), plan)
        got = [(n.name, n.attrs["roles"], n.inputs) for n in graph if n.kind in ("saf", "aaf")]
        assert got == wiring

    def test_backbone_mixers_follow_plan(self):
        g = nano_graph()
        for level, kernel in (("p2", 3), ("p3", 5), ("p4", 7), ("p5", 9)):
            assert g.node(f"backbone.{level}").attrs["kernel"] == kernel


class TestFusionRoles:
    @pytest.mark.parametrize(
        "node, roles, reason",
        [
            ("neck.p4.shallow.fuse", ("below", "same", "abvoe", "above_refined"),
             "unknown saf role 'abvoe'"),
            ("neck.p4.shallow.fuse", ("below", "same", "above"), "for 4 inputs"),
            ("neck.p4.shallow.fuse", ("below", "same", "same", "above_refined"),
             "role 'same' twice"),
            ("neck.p5.shallow.fuse", ("below", "above"), "lacks the 'same' role"),
        ],
        ids=["typo", "short", "duplicate", "missing-same"],
    )
    def test_bad_roles_rejected_when_added(self, node, roles, reason):
        source = assemble(load_preset("lite-nano"))
        g = ModelGraph()
        with pytest.raises(GraphError, match=f"'{node}'.*{reason}"):
            for n in source:
                attrs = dict(n.attrs, roles=roles) if n.name == node else n.attrs
                g.add(n.name, n.kind, n.inputs, **attrs)
        assert node not in g.nodes


class TestShapeInference:
    def test_head_shapes_at_default_size(self):
        shapes = shape_infer(nano_graph())
        assert shapes["head.p3"] == (160, 80, 80)
        assert shapes["head.p4"] == (160, 40, 40)
        assert shapes["head.p5"] == (160, 20, 20)

    def test_alternate_input_size(self):
        shapes = shape_infer(nano_graph(), input_size=320)
        assert shapes["head.p5"] == (160, 10, 10)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ShapeError, match="32"):
            shape_infer(nano_graph(), input_size=100)

    @pytest.mark.parametrize("size", [0, (0, 64), (64, 0), (-32, 64)])
    def test_non_positive_input_rejected(self, size):
        with pytest.raises(ShapeError, match="must be a positive multiple of 32"):
            shape_infer(nano_graph(), input_size=size)

    @pytest.mark.parametrize(
        "size",
        [(64,), (64, 64, 64), 64.0, "64", (64.0, 64.0), (64, True), True],
        ids=["one", "three", "float", "str", "float-pair", "bool-in-pair", "bool"],
    )
    def test_malformed_input_size_rejected(self, size):
        match = "input size must be a positive int or a pair of ints"
        with pytest.raises(ShapeError, match=match):
            shape_infer(nano_graph(), input_size=size)
        with pytest.raises(ShapeError, match=match):
            count_params_flops(nano_graph(), input_size=size)

    @pytest.mark.parametrize("size", [64, (64, 96), [64, 96], (np.int64(64), 96)])
    def test_int_and_pair_input_sizes_accepted(self, size):
        shapes = shape_infer(nano_graph(), input_size=size)
        h, w = (size, size) if isinstance(size, int) else size
        assert shapes["images"] == (3, h, w)
        assert all(type(n) is int for n in shapes["head.p5"])

    def test_tampered_width_is_caught(self):
        # shape inference recomputes concat widths, so a drifted
        # bookkeeping attribute cannot go unnoticed
        g = nano_graph()
        g.node("neck.p4.deep.fuse").attrs["out_ch"] = 999
        with pytest.raises(GraphError, match="neck.p4.deep.fuse"):
            shape_infer(g)

    def test_control_conv_input_width_is_checked(self):
        # the ctrl unit is laid out from ``above_ch``; an input of another
        # width would only fail inside the conv, naming no node
        g = assemble(load_preset("lite-nano"))
        g.node("neck.p4.shallow.fuse").attrs["above_ch"] += 8
        with pytest.raises(ShapeError, match="neck.p4.shallow.fuse.*above input"):
            shape_infer(g, 64)


class TestBookkeeping:
    def test_nano_totals(self):
        bk = count_params_flops(nano_graph())
        assert 1_900_000 <= bk.params <= 2_600_000
        assert 6.0e9 <= bk.flops <= 8.5e9

    def test_small_totals(self):
        bk = count_params_flops(assemble(load_preset("small")))
        assert 6_000_000 <= bk.params <= 8_500_000
        assert 21e9 <= bk.flops <= 30e9

    def test_totals_grow_with_scale(self):
        totals = [count_params_flops(assemble(load_preset(n))) for n in PRESET_NAMES]
        params = [t.params for t in totals]
        flops = [t.flops for t in totals]
        assert params == sorted(params) and len(set(params)) == len(params)
        assert flops == sorted(flops) and len(set(flops)) == len(flops)

    def test_per_node_sums_to_total(self):
        bk = count_params_flops(nano_graph())
        assert sum(p for p, _ in bk.per_node.values()) == bk.params
        assert sum(f for _, f in bk.per_node.values()) == bk.flops

    def test_params_match_learnable_entry_sizes(self):
        g = nano_graph()
        bk = count_params_flops(g)
        entries = graph_param_entries(g)
        learnable = sum(e.size for e in entries if e.learnable)
        assert learnable == bk.params

    def test_entry_names_unique(self):
        names = [e.name for e in graph_param_entries(nano_graph())]
        assert len(names) == len(set(names))


class TestExport:
    def test_dot_is_deterministic(self):
        text1 = export_graph(nano_graph(), "dot")
        text2 = export_graph(nano_graph(), "dot")
        assert text1 == text2

    def test_dot_structure(self):
        g = nano_graph()
        text = export_graph(g, "dot")
        lines = text.strip().split("\n")
        assert lines[0] == 'digraph "nano" {'
        assert lines[-1] == "}"
        edge_lines = [ln for ln in lines if " -> " in ln]
        assert len(edge_lines) == len(g.edges())
        for src, dst in g.edges():
            assert f'"{src}" -> "{dst}";' in text

    def test_dot_names_all_nodes(self):
        g = nano_graph()
        text = export_graph(g, "dot")
        for name in g.nodes:
            assert f'"{name}" [label=' in text

    def test_records_cover_nodes_and_edges(self):
        g = nano_graph()
        recs = export_graph(g, "records")
        nodes = [r for r in recs if r["type"] == "node"]
        edges = [r for r in recs if r["type"] == "edge"]
        assert len(nodes) == len(g.nodes)
        assert len(edges) == len(g.edges())
        assert all(isinstance(r, dict) for r in recs)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="json"):
            export_graph(nano_graph(), "json")


class TestValidateModel:
    def test_default_model_passes_every_check(self):
        checks = validate_model(load_preset("nano"))
        assert [c.name for c in checks] == [
            "config",
            "kernel-plan",
            "graph-build",
            "shapes-and-strides",
        ]
        assert all(c.passed for c in checks)

    def test_a_bug_is_not_a_failed_check(self, monkeypatch):
        # only the package's own errors make a check fail; anything else
        # is a bug and propagates
        def broken(spec, plan):
            raise TypeError("a bug")

        monkeypatch.setattr("mhaf.graph.assemble", broken)
        with pytest.raises(TypeError, match="a bug"):
            validate_model(load_preset("nano"))

    def test_off_schedule_plan_fails_only_that_check(self):
        checks = validate_model(load_preset("nano"), uniform_plan(3))
        by_name = {c.name: c for c in checks}
        assert not by_name["kernel-plan"].passed
        assert by_name["graph-build"].passed
        assert by_name["shapes-and-strides"].passed
