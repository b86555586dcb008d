"""Tests for the bottleneck block, the multi-stream aggregation module, and
the two cross-resolution fusion nodes."""

from collections import Counter

import numpy as np
import pytest

from mhaf.blocks import (
    ConvUnit,
    ConvUnitSpec,
    RepHMSSpec,
    aaf_fuse,
    aaf_layout,
    conv_unit_forward,
    fold_slot,
    random_conv_unit,
    random_rephms,
    rephms_concat_width,
    rephms_forward,
    rephms_layout,
    saf_fuse,
    saf_layout,
)
from mhaf.config import load_preset
from mhaf.errors import KernelError, ShapeError, StateError
from mhaf.graph import assemble
from mhaf.reparam import RepHConvSpec, RepHConvWeights, random_rephconv, rephconv_forward
from mhaf.tensor import avgpool2d, concat_channels, silu, split_channels, upsample2x
from mhaf.weights import bind_node_weights, init_weights


def make_block(rng, width, kernel=5, expansion=2.0):
    """One bottleneck block's slot dict, in evaluation order."""
    ec = int(round(width * expansion))
    return {
        "expand": random_conv_unit(ConvUnitSpec("expand", width, ec, 1), rng),
        "mixer": random_rephconv(RepHConvSpec(ec, kernel), rng),
        "pw": random_conv_unit(ConvUnitSpec("pw", ec, ec, 1), rng),
        "proj": random_conv_unit(ConvUnitSpec("proj", ec, width, 1, act=False), rng),
    }


def run_block(x, block):
    """Run a block's units one after another, in dict order."""
    for unit in block.values():
        if isinstance(unit, RepHConvWeights):
            x = rephconv_forward(x, unit)
        else:
            x = conv_unit_forward(x, unit)
    return x


def deploy_units(units):
    """The deployed form of a slot dict: every slot folded by fold_slot."""
    return {path: fold_slot(unit) for path, unit in units.items()}


class CountingDict(dict):
    """A slot dict that counts how often each path is read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


class TestBlock:
    def test_preserves_width_and_resolution(self):
        rng = np.random.default_rng(20)
        block = make_block(rng, 16, kernel=7)
        x = rng.standard_normal((2, 16, 12, 12)).astype(np.float32)
        assert run_block(x, block).shape == (2, 16, 12, 12)

    def test_zero_input_gives_bias_propagation_map(self):
        """With zero input the block reduces to propagated BN shifts: finite,
        deterministic, and spatially constant away from the padded border
        (the border sees truncated kernel sums)."""
        rng = np.random.default_rng(21)
        block = make_block(rng, 8, kernel=5)
        x = np.zeros((1, 8, 10, 10), dtype=np.float32)
        y = run_block(x, block)
        assert np.all(np.isfinite(y))
        assert np.array_equal(y, run_block(x, block))
        interior = y[:, :, 3:7, 3:7]
        assert np.allclose(interior, interior[:, :, :1, :1], atol=0)

    def test_deployed_block_matches_training_block(self):
        rng = np.random.default_rng(22)
        block = make_block(rng, 16, kernel=9)
        x = rng.standard_normal((1, 16, 14, 14)).astype(np.float32)
        y_train = run_block(x, block)
        y_deploy = run_block(x, deploy_units(block))
        assert np.abs(y_train - y_deploy).max() <= 1e-3

    def test_projection_must_be_linear(self):
        """Every block's projection slot is linear in the layout, and binding
        a store keeps it so."""
        for streams, blocks in [(2, 1), (3, 2), (4, 3)]:
            spec = RepHMSSpec(24, 24, streams, blocks, kernel=5)
            proj = [s for s in rephms_layout(spec) if s.path.endswith(".proj")]
            assert len(proj) == (streams - 1) * blocks
            assert not any(s.act for s in proj)
        graph = assemble(load_preset("nano"))
        store = init_weights(graph, seed=0)
        seen = 0
        for node in graph:
            if node.kind != "rephms":
                continue
            units = bind_node_weights(node, store)
            for path, unit in units.items():
                if path.endswith(".proj"):
                    assert unit.act is False and unit.bn is not None, (node.name, path)
                    seen += 1
        assert seen > 0


class TestRepHMS:
    def test_two_stream_single_block_degenerates_to_manual_pipeline(self):
        """With N=2, M=1 the module is exactly: entry conv, split in half,
        one block on the second half, concat, exit conv."""
        rng = np.random.default_rng(30)
        spec = RepHMSSpec(in_ch=24, out_ch=16, streams=2, blocks_per_stream=1, kernel=5)
        units = random_rephms(spec, rng)
        x = rng.standard_normal((1, 24, 8, 8)).astype(np.float32)

        hidden = conv_unit_forward(x, units["entry"])
        first, second = split_channels(hidden, 2)
        block = {p: u for p, u in units.items() if p.startswith("s2.b1.")}
        assert list(block) == ["s2.b1.expand", "s2.b1.mixer", "s2.b1.pw", "s2.b1.proj"]
        block_out = run_block(second, block)
        want = conv_unit_forward(concat_channels([first, block_out]), units["exit"])

        assert np.array_equal(rephms_forward(x, spec, units), want)

    @pytest.mark.parametrize("streams", [2, 3, 4])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_concat_width_matches_closed_form(self, streams, blocks):
        """The exit conv consumes stream_width * (1 + (N-1)*M) channels for
        every stream/block combination."""
        out_ch = 24  # divisible by 2, 3 and 4
        spec = RepHMSSpec(48, out_ch, streams, blocks, kernel=3)
        want = (out_ch // streams) * (1 + (streams - 1) * blocks)
        assert rephms_concat_width(spec) == want
        exit_slot = [s for s in rephms_layout(spec) if getattr(s, "path", "") == "exit"][0]
        assert exit_slot.in_ch == want
        # and the module actually runs with that wiring
        rng = np.random.default_rng(31)
        units = random_rephms(spec, rng)
        x = rng.standard_normal((1, 48, 8, 8)).astype(np.float32)
        y = rephms_forward(x, spec, units)
        assert y.shape == (1, out_ch, 8, 8)

    def test_cascade_feeds_next_stream(self):
        """Stream 3 must see chunk + stream 2's final output; zeroing stream
        2's blocks changes stream 3's input and therefore the result."""
        rng = np.random.default_rng(32)
        spec = RepHMSSpec(24, 24, streams=3, blocks_per_stream=1, kernel=3)
        units = random_rephms(spec, rng)
        x = rng.standard_normal((1, 24, 8, 8)).astype(np.float32)
        base = rephms_forward(x, spec, units)
        # kill stream 2's projection so its output becomes a constant map
        units["s2.b1.proj"].kernel.weights[:] = 0
        changed = rephms_forward(x, spec, units)
        assert not np.allclose(base, changed)

    @pytest.mark.parametrize("streams,blocks,kernel", [(2, 1, 5), (2, 2, 7), (3, 2, 9)])
    def test_deploy_form_is_numerically_invariant(self, streams, blocks, kernel):
        rng = np.random.default_rng(33)
        spec = RepHMSSpec(32, 24, streams, blocks, kernel)
        units = random_rephms(spec, rng)
        x = rng.standard_normal((2, 32, 10, 10)).astype(np.float32)
        y_train = rephms_forward(x, spec, units)
        deployed = deploy_units(units)
        for path, unit in deployed.items():
            assert isinstance(unit, ConvUnit) and unit.bn is None, path
            if path.endswith(".mixer"):
                assert unit.act is False and unit.kernel.groups == unit.kernel.out_channels
        y_deploy = rephms_forward(x, spec, deployed)
        assert np.abs(y_train - y_deploy).max() <= 1e-3

    @pytest.mark.parametrize("path", ["s2.b1.mixer", "s2.b1.pw"])
    def test_deploying_twice_is_rejected(self, path):
        """Folding an already-deployed slot, a merged mixer or a BN-folded
        conv unit, raises instead of folding again."""
        rng = np.random.default_rng(34)
        deployed = deploy_units(random_rephms(RepHMSSpec(16, 16, 2, 1, 3), rng))
        with pytest.raises(StateError, match="already in deployed form"):
            fold_slot(deployed[path])

    def test_spec_validation(self):
        with pytest.raises(Exception):
            RepHMSSpec(16, 16, streams=1, blocks_per_stream=1, kernel=3)
        with pytest.raises(Exception):
            RepHMSSpec(16, 16, streams=2, blocks_per_stream=0, kernel=3)
        with pytest.raises(Exception):
            RepHMSSpec(16, 16, streams=2, blocks_per_stream=1, kernel=4)
        with pytest.raises(ShapeError):
            RepHMSSpec(16, 18, streams=4, blocks_per_stream=1, kernel=3)

    def test_collapsed_block_width_rejected_at_construction(self):
        # 4 channels per stream at expansion 0.1 round to a 0-wide block
        with pytest.raises(ShapeError, match="expansion 0.1 collapses the block width"):
            RepHMSSpec(8, 8, streams=2, blocks_per_stream=1, kernel=3, expansion=0.1)

    @pytest.mark.parametrize("expansion", [float("nan"), float("inf")])
    def test_non_finite_expansion_rejected_at_construction(self, expansion):
        with pytest.raises(KernelError, match="positive finite"):
            RepHMSSpec(8, 8, streams=2, blocks_per_stream=1, kernel=3, expansion=expansion)


class TestSlotCoverage:
    """Every composite node reads each path of its layout exactly once and
    rejects a dict whose paths differ from the layout."""

    @pytest.mark.parametrize("streams,blocks", [(2, 1), (2, 3), (3, 2), (4, 1)])
    def test_rephms_reads_every_layout_path_once(self, streams, blocks):
        rng = np.random.default_rng(60)
        spec = RepHMSSpec(16, 24, streams, blocks, kernel=5)
        units = CountingDict(random_rephms(spec, rng))
        rephms_forward(rng.standard_normal((1, 16, 6, 6)).astype(np.float32), spec, units)
        assert units.reads == Counter(s.path for s in rephms_layout(spec))

    def test_rephms_rejects_a_missing_or_extra_path(self):
        rng = np.random.default_rng(61)
        spec = RepHMSSpec(16, 24, 3, 1, kernel=3)
        units = random_rephms(spec, rng)
        x = rng.standard_normal((1, 16, 6, 6)).astype(np.float32)
        missing = {p: u for p, u in units.items() if p != "s3.b1.pw"}
        with pytest.raises(StateError, match="lack slot 's3.b1.pw'"):
            rephms_forward(x, spec, missing)
        extra = dict(units, **{"s3.b2.pw": units["s3.b1.pw"]})
        with pytest.raises(StateError, match="unexpected slot 's3.b2.pw'"):
            rephms_forward(x, spec, extra)

    @staticmethod
    def layout_units(rng, layout):
        return CountingDict({s.path: random_conv_unit(s, rng) for s in layout})

    @pytest.mark.parametrize("has_above", [True, False])
    def test_saf_reads_every_layout_path_once(self, has_above):
        rng = np.random.default_rng(62)
        below = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
        same = rng.standard_normal((1, 16, 4, 4)).astype(np.float32)
        above = rng.standard_normal((1, 32, 2, 2)).astype(np.float32) if has_above else None
        layout = saf_layout(16, 32 if has_above else None)
        units = self.layout_units(rng, layout)
        saf_fuse(below, same, above, None, units)
        assert units.reads == Counter(s.path for s in layout)

    @pytest.mark.parametrize(
        "roles",
        [
            ("below_refined", "below_deep", "same", "above_refined"),
            ("same", "above_refined"),
            ("below_refined", "below_deep", "same"),
            ("below_deep", "same"),
        ],
    )
    def test_aaf_reads_every_layout_path_once(self, roles):
        rng = np.random.default_rng(63)
        w = 8
        size = {"below_refined": 16, "below_deep": 16, "same": 8, "above_refined": 4}
        inputs = [
            rng.standard_normal((1, w, n, n)).astype(np.float32) if r in roles else None
            for r, n in size.items()
        ]
        layout = aaf_layout(w, roles)
        units = self.layout_units(rng, layout)
        aaf_fuse(*inputs, units)
        assert units.reads == Counter(s.path for s in layout)

    def test_fusion_rejects_a_missing_or_extra_path(self):
        rng = np.random.default_rng(64)
        w = 8
        below = rng.standard_normal((1, w, 16, 16)).astype(np.float32)
        same = rng.standard_normal((1, w, 8, 8)).astype(np.float32)
        ctrl = random_conv_unit(ConvUnitSpec("ctrl", w, w, 1), rng)
        with pytest.raises(StateError, match="lack slot 'down'"):
            aaf_fuse(below, None, same, None, {})
        with pytest.raises(StateError, match="unexpected slot 'ctrl'"):
            aaf_fuse(None, None, same, None, {"ctrl": ctrl})
        with pytest.raises(StateError, match="unexpected slot 'ctrl'"):
            saf_fuse(None, same, None, None, {"ctrl": ctrl})


class TestShallowFusion:
    def setup_weights(self, rng, same_ch, above_ch):
        return {
            "ctrl": random_conv_unit(ConvUnitSpec("ctrl", above_ch, same_ch // 2, 1), rng)
        }

    def test_reference_channel_example(self):
        """Backbone widths (64, 128, 256) with a 128-wide refined input fuse
        into 64 + 128 + 64 + 128 = 384 channels."""
        rng = np.random.default_rng(40)
        below = rng.standard_normal((1, 64, 16, 16)).astype(np.float32)
        same = rng.standard_normal((1, 128, 8, 8)).astype(np.float32)
        above = rng.standard_normal((1, 256, 4, 4)).astype(np.float32)
        refined = rng.standard_normal((1, 128, 4, 4)).astype(np.float32)
        weights = self.setup_weights(rng, 128, 256)
        out = saf_fuse(below, same, above, refined, weights)
        assert out.shape == (1, 384, 8, 8)

    def test_term_order_and_content(self):
        """The concat is (pooled finer, same, controlled coarser, upsampled
        refined) in that order; the control unit runs before its upsample."""
        rng = np.random.default_rng(41)
        below = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
        same = rng.standard_normal((1, 16, 4, 4)).astype(np.float32)
        above = rng.standard_normal((1, 32, 2, 2)).astype(np.float32)
        refined = rng.standard_normal((1, 12, 2, 2)).astype(np.float32)
        weights = self.setup_weights(rng, 16, 32)
        out = saf_fuse(below, same, above, refined, weights)
        assert np.array_equal(out[:, :8], silu(avgpool2d(below)))
        assert np.array_equal(out[:, 8:24], same)
        controlled = out[:, 24:32]
        assert np.array_equal(
            controlled, upsample2x(conv_unit_forward(above, weights["ctrl"]))
        )
        # the unit acts per pixel, so upsampling first computes the same map
        # up to the rounding of a matmul over four times the pixels
        upsampled_first = conv_unit_forward(upsample2x(above), weights["ctrl"])
        deviation = np.max(np.abs(controlled - upsampled_first))
        assert deviation <= 1e-6 * np.max(np.abs(upsampled_first))
        assert np.array_equal(out[:, 32:], upsample2x(refined))

    def test_top_level_two_term_boundary(self):
        """The coarsest node fuses only the pooled finer level and itself."""
        rng = np.random.default_rng(42)
        below = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
        same = rng.standard_normal((1, 16, 4, 4)).astype(np.float32)
        out = saf_fuse(below, same, None, None, {})
        assert out.shape == (1, 24, 4, 4)

    def test_missing_control_conv_rejected(self):
        rng = np.random.default_rng(43)
        same = rng.standard_normal((1, 16, 4, 4)).astype(np.float32)
        above = rng.standard_normal((1, 32, 2, 2)).astype(np.float32)
        with pytest.raises(StateError):
            saf_fuse(None, same, above, None, {})

    def test_resolution_mismatch_rejected(self):
        rng = np.random.default_rng(44)
        same = rng.standard_normal((1, 16, 4, 4)).astype(np.float32)
        bad_below = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
        with pytest.raises(ShapeError, match="twice"):
            saf_fuse(bad_below, same, None, None, {})


class TestDeepFusion:
    def make_weights(self, rng, width, has_below=True, has_above=True):
        weights = {}
        if has_below:
            weights["down"] = random_conv_unit(
                ConvUnitSpec("down", width, width, 3, stride=2), rng
            )
        if has_above:
            weights["ctrl"] = random_conv_unit(ConvUnitSpec("ctrl", width, width, 1), rng)
        return weights

    def test_four_equal_contributions(self):
        rng = np.random.default_rng(50)
        w = 16
        below_refined = rng.standard_normal((1, w, 8, 8)).astype(np.float32)
        below_deep = rng.standard_normal((1, w, 8, 8)).astype(np.float32)
        same = rng.standard_normal((1, w, 4, 4)).astype(np.float32)
        above = rng.standard_normal((1, w, 2, 2)).astype(np.float32)
        weights = self.make_weights(rng, w)
        out = aaf_fuse(below_refined, below_deep, same, above, weights)
        assert out.shape == (1, 4 * w, 4, 4)
        # same-level feature sits third
        assert np.array_equal(out[:, 2 * w : 3 * w], same)
        # pooled deep-pathway feature sits second
        assert np.array_equal(out[:, w : 2 * w], silu(avgpool2d(below_deep)))

    def test_unequal_width_rejected(self):
        """All contributions must carry the same channel count."""
        rng = np.random.default_rng(51)
        below_deep = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
        same = rng.standard_normal((1, 16, 4, 4)).astype(np.float32)
        with pytest.raises(ShapeError, match="equal channel widths"):
            aaf_fuse(None, below_deep, same, None, {})

    def test_finest_level_boundary(self):
        """The finest node has no finer inputs: two-term concat."""
        rng = np.random.default_rng(52)
        w = 8
        same = rng.standard_normal((1, w, 8, 8)).astype(np.float32)
        above = rng.standard_normal((1, w, 4, 4)).astype(np.float32)
        weights = self.make_weights(rng, w, has_below=False)
        out = aaf_fuse(None, None, same, above, weights)
        assert out.shape == (1, 2 * w, 8, 8)

    def test_coarsest_level_boundary(self):
        """The coarsest node has no coarser input: three-term concat."""
        rng = np.random.default_rng(53)
        w = 8
        below_refined = rng.standard_normal((1, w, 16, 16)).astype(np.float32)
        below_deep = rng.standard_normal((1, w, 16, 16)).astype(np.float32)
        same = rng.standard_normal((1, w, 8, 8)).astype(np.float32)
        weights = self.make_weights(rng, w, has_above=False)
        out = aaf_fuse(below_refined, below_deep, same, None, weights)
        assert out.shape == (1, 3 * w, 8, 8)

    def test_down_conv_required_when_finer_present(self):
        rng = np.random.default_rng(54)
        w = 8
        below = rng.standard_normal((1, w, 16, 16)).astype(np.float32)
        same = rng.standard_normal((1, w, 8, 8)).astype(np.float32)
        with pytest.raises(StateError):
            aaf_fuse(below, None, same, None, {})
