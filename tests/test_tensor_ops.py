"""Tests for the core tensor ops against independent scalar oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from mhaf.errors import KernelError, ShapeError
from mhaf.tensor import (
    BNParams,
    ConvKernel,
    avgpool2d,
    batchnorm_infer,
    concat_channels,
    conv2d_fast,
    conv2d_naive,
    silu,
    split_channels,
    to_tensor4,
    upsample2x,
)

from oracles import (
    avgpool_scalar,
    batchnorm_scalar,
    conv2d_scalar,
    normalized_max_error,
    silu_scalar,
    upsample_scalar,
)


def random_kernel(rng, cin, cout, k, stride=1, groups=1, bias=True):
    w = rng.standard_normal((cout, cin // groups, k, k)).astype(np.float32) / k
    b = rng.standard_normal(cout).astype(np.float32) if bias else None
    return ConvKernel(weights=w, bias=b, stride=stride, groups=groups)


class TestConvNaive:
    def test_matches_scalar_oracle_bitwise(self):
        """The reference conv reproduces the brute-force scalar loop exactly,
        since both accumulate in the same fixed order."""
        rng = np.random.default_rng(101)
        for cin, cout, k, s, g in [
            (3, 8, 3, 1, 1),
            (4, 6, 5, 2, 2),
            (6, 6, 3, 1, 6),
            (5, 10, 1, 1, 1),
            (4, 4, 7, 2, 1),
        ]:
            x = rng.standard_normal((2, cin, 9, 11)).astype(np.float32)
            ker = random_kernel(rng, cin, cout, k, stride=s, groups=g)
            got = conv2d_naive(x, ker)
            want = conv2d_scalar(x, ker.weights, ker.bias, s, ker.padding, g)
            assert got.shape == want.shape
            assert np.array_equal(got, want), f"mismatch for config {(cin, cout, k, s, g)}"

    def test_same_padding_preserves_size(self):
        """Default padding keeps H and W at stride 1 for every odd kernel."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
        for k in (1, 3, 5, 7, 9):
            ker = random_kernel(rng, 4, 4, k)
            assert conv2d_naive(x, ker).shape == (1, 4, 16, 16)

    def test_stride_two_halves_even_extent(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        ker = random_kernel(rng, 3, 5, 3, stride=2)
        assert conv2d_naive(x, ker).shape == (1, 5, 16, 16)

    def test_deterministic_across_runs(self):
        """Two evaluations of the same conv are bit-identical."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 8, 12, 12)).astype(np.float32)
        ker = random_kernel(rng, 8, 8, 5)
        assert np.array_equal(conv2d_naive(x, ker), conv2d_naive(x, ker))

    def test_linearity_with_zero_bias(self):
        """conv(a*x + b*y) == a*conv(x) + b*conv(y) within float32 noise."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 6, 10, 10)).astype(np.float32)
        y = rng.standard_normal((1, 6, 10, 10)).astype(np.float32)
        ker = random_kernel(rng, 6, 12, 3, bias=False)
        a, b = np.float32(0.7), np.float32(-1.3)
        lhs = conv2d_naive(a * x + b * y, ker)
        rhs = a * conv2d_naive(x, ker) + b * conv2d_naive(y, ker)
        assert normalized_max_error(lhs, rhs) <= 1e-5

    def test_channel_mismatch_names_both_shapes(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 5, 8, 8)).astype(np.float32)
        ker = random_kernel(rng, 4, 4, 3)
        with pytest.raises(ShapeError) as exc:
            conv2d_naive(x, ker)
        assert "(1, 5, 8, 8)" in str(exc.value)
        assert "(4, 4, 3, 3)" in str(exc.value)

    def test_zero_extent_input_rejected(self):
        # same padding fits any kernel to any input of extent >= 1
        x = np.zeros((1, 2, 0, 4), dtype=np.float32)
        ker = random_kernel(np.random.default_rng(12), 2, 2, 7)
        for conv in (conv2d_naive, conv2d_fast):
            with pytest.raises(ShapeError, match="extent must be at least 1, got 0"):
                conv(x, ker)


# (cin, cout, k, stride, groups, (h, w)[, parts]); inputs have batch 2.  With
# parts > 1 the conv reads the last of `parts` channel slices that
# split_channels cuts from a wider input: a view that is not C-contiguous.
DISPATCH_CASES = [
    (8, 16, 1, 1, 1, (14, 18)),      # pointwise
    (8, 16, 1, 2, 1, (14, 18)),      # strided pointwise
    (16, 16, 3, 1, 16, (14, 18)),    # depthwise
    (16, 16, 9, 1, 16, (14, 18)),    # large depthwise
    (16, 16, 3, 2, 16, (14, 18)),    # strided depthwise
    (160, 160, 9, 1, 160, (3, 3)),   # depthwise kernel larger than its plane
    (8, 12, 3, 1, 1, (14, 18)),      # dense
    (8, 12, 5, 2, 1, (14, 18)),      # dense strided
    (12, 8, 3, 1, 4, (14, 18)),      # grouped
    (12, 8, 1, 2, 4, (14, 18)),      # grouped strided pointwise
    (8, 16, 3, 1, 8, (14, 18)),      # channel-multiplier depthwise
    (16, 16, 5, 2, 16, (15, 17)),    # strided depthwise on an odd-width map
    (16, 16, 1, 1, 16, (14, 18), 2), # unpadded depthwise 1x1 on a channel slice
    (8, 8, 5, 1, 8, (1, 12)),        # depthwise with a single output row
    (160, 160, 5, 1, 160, (40, 40)), # tiled depthwise, rows copied in uneven channel chunks
    (16, 16, 3, 1, 16, (14, 13)),    # depthwise on a prime width: one tile
    (16, 16, 9, 1, 16, (14, 22)),    # depthwise tile (11 columns) narrower than its kernel
    (8, 8, 3, 1, 8, (6, 80)),        # depthwise on a wide map: eight tiles per row
    (32, 32, 3, 1, 32, (40, 40), 2), # tiled depthwise on a channel slice, two chunks
    (16, 16, 3, 1, 16, (1, 1)),      # depthwise taps cropped to the centre: 1x1
    (16, 16, 7, 1, 16, (2, 3)),      # depthwise outer ring cropped: 7x7 runs as 5x5
]


def _blas_able(a: np.ndarray) -> bool:
    """numpy's rule for handing a (stack of) matrices to BLAS: one of the
    last two axes has unit stride, and the other's stride is at least that
    axis's length."""
    (m, n), (sm, sn), item = a.shape[-2:], a.strides[-2:], a.itemsize
    return (sn == item and sm >= n * item) or (sm == item and sn >= m * item)


def _dispatch_case_id(case):
    *conv, (h, w) = case[:6]
    name = "-".join(map(str, conv))
    name = name if (h, w) == (14, 18) else f"{name}-{h}x{w}"
    return name if len(case) == 6 else f"{name}-slice{case[6]}"


class TestConvFast:
    @pytest.mark.parametrize(
        "case", DISPATCH_CASES, ids=[_dispatch_case_id(c) for c in DISPATCH_CASES]
    )
    def test_each_dispatch_path_matches_naive(self, case):
        """Every fast-path specialization agrees with the reference conv."""
        cin, cout, k, s, g, hw, parts = (*case, 1)[:7]
        rng = np.random.default_rng(200 + cin + cout + k + s + g)
        x = rng.standard_normal((2, cin * parts, *hw)).astype(np.float32)
        x = split_channels(x, parts)[-1]
        assert x.flags.c_contiguous == (parts == 1)
        ker = random_kernel(rng, cin, cout, k, stride=s, groups=g)
        err = normalized_max_error(conv2d_fast(x, ker), conv2d_naive(x, ker))
        assert err <= 1e-5

    def test_every_matmul_is_blas_able(self, monkeypatch):
        """Every matmul the fast routes make takes operands and output that
        numpy passes to BLAS; an overlapping view would fall back to numpy's
        own, much slower, matmul loop."""
        matmul = np.matmul
        seen = []

        def checked(*args, **kwargs):
            out = matmul(*args, **kwargs)
            seen.extend(a.shape for a in (*args, out) if not _blas_able(np.asarray(a)))
            return out

        monkeypatch.setattr(np, "matmul", checked)
        rng = np.random.default_rng(305)
        for case in DISPATCH_CASES:
            cin, cout, k, s, g, hw, parts = (*case, 1)[:7]
            x = rng.standard_normal((2, cin * parts, *hw)).astype(np.float32)
            x = split_channels(x, parts)[-1]
            conv2d_fast(x, random_kernel(rng, cin, cout, k, stride=s, groups=g))
            assert not seen, f"{_dispatch_case_id(case)}: not BLAS-able {seen}"

    @pytest.mark.parametrize("width", [13, 24])
    def test_depthwise_batch_images_independent(self, width):
        """Folding the batch into the depthwise matmul rows mixes no images:
        changing image 0 leaves images 1-2 bit-identical.  Width 13 is one
        tile per row, width 24 two."""
        rng = np.random.default_rng(306)
        ker = random_kernel(rng, 8, 8, 5, groups=8)
        x = rng.standard_normal((3, 8, 7, width)).astype(np.float32)
        before = conv2d_fast(x, ker)
        x[0] = rng.standard_normal(x.shape[1:]).astype(np.float32)
        after = conv2d_fast(x, ker)
        assert np.array_equal(after[1:], before[1:])
        assert not np.array_equal(after[0], before[0])

    @pytest.mark.parametrize("groups", [16, 1], ids=["depthwise", "dense"])
    def test_empty_batch_matches_naive(self, groups):
        """A batch of no images gives the reference's empty NCHW result."""
        rng = np.random.default_rng(307)
        ker = random_kernel(rng, 16, 16, 5, groups=groups)
        x = np.zeros((0, 16, 14, 18), dtype=np.float32)
        fast, naive = conv2d_fast(x, ker), conv2d_naive(x, ker)
        assert fast.shape == naive.shape == (0, 16, 14, 18)
        assert fast.dtype == naive.dtype == np.float32

    def test_random_config_sweep(self):
        """Forty random shape/kernel configurations stay within tolerance of
        the reference implementation."""
        rng = np.random.default_rng(300)
        for trial in range(40):
            g = int(rng.choice([1, 1, 1, 2, 4]))
            cpg = int(rng.integers(1, 6))
            opg = int(rng.integers(1, 6))
            cin, cout = g * cpg, g * opg
            k = int(rng.choice([1, 3, 5, 7, 9]))
            s = int(rng.choice([1, 2]))
            h = int(rng.integers(k, k + 13))
            w = int(rng.integers(k, k + 13))
            x = rng.standard_normal((int(rng.integers(1, 3)), cin, h, w)).astype(np.float32)
            ker = random_kernel(rng, cin, cout, k, stride=s, groups=g)
            err = normalized_max_error(conv2d_fast(x, ker), conv2d_naive(x, ker))
            assert err <= 1e-5, f"trial {trial}: error {err:.2e}"

    def test_nonfinite_outputs_cover_the_reference_ones(self):
        """One inf input: wherever the reference output is non-finite, the
        fast one is too.  The depthwise band's zeros meet the inf as 0 * inf,
        so the fast route makes the output rows of the tiles that read it
        NaN and numpy warns.  Width 12 is one tile; width 24 is two, and the
        tile that never reads the inf stays finite."""
        rng = np.random.default_rng(303)
        ker = random_kernel(rng, 2, 2, 3, groups=2)
        for width in (12, 24):
            x = rng.standard_normal((1, 2, 5, width)).astype(np.float32)
            x[0, 0, 2, 5] = np.inf
            with pytest.warns(RuntimeWarning, match="invalid value"):
                fast = conv2d_fast(x, ker)
            bad = ~np.isfinite(conv2d_naive(x, ker))
            assert bad.sum() == 9
            assert np.all(~np.isfinite(fast)[bad])
            assert np.all(np.isfinite(fast[:, 1]))
            assert np.all(np.isfinite(fast[:, :, :, 12:]))

    def test_depthwise_peak_memory(self):
        """One depthwise k=5 conv of a 160x40x40 map allocates under 6 MB at
        its peak: the padded input, the output, one shared tile band and a
        channel chunk of tile rows, not a band as wide as the map."""
        rng = np.random.default_rng(304)
        x = rng.standard_normal((1, 160, 40, 40)).astype(np.float32)
        ker = random_kernel(rng, 160, 160, 5, groups=160)
        tracemalloc.start()
        try:
            conv2d_fast(x, ker)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"peak {peak / 1e6:.2f} MB"

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(301)
        x = rng.standard_normal((2, 32, 20, 20)).astype(np.float32)
        ker = random_kernel(rng, 32, 32, 3)
        assert np.array_equal(conv2d_fast(x, ker), conv2d_fast(x, ker))

    def test_shape_validation_shared_with_naive(self):
        rng = np.random.default_rng(302)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        ker = random_kernel(rng, 8, 8, 3)
        with pytest.raises(ShapeError):
            conv2d_fast(x, ker)


class TestKernelValidation:
    def test_even_kernel_rejected(self):
        w = np.zeros((4, 4, 4, 4), dtype=np.float32)
        with pytest.raises(KernelError, match="odd"):
            ConvKernel(weights=w)

    def test_non_square_kernel_rejected(self):
        w = np.zeros((4, 4, 3, 5), dtype=np.float32)
        with pytest.raises(KernelError, match="square"):
            ConvKernel(weights=w)

    def test_default_bias_is_zero(self):
        ker = ConvKernel(weights=np.ones((2, 3, 3, 3), dtype=np.float32))
        assert np.array_equal(ker.bias, np.zeros(2, dtype=np.float32))

    def test_default_padding_is_half_kernel(self):
        ker = ConvKernel(weights=np.ones((2, 3, 5, 5), dtype=np.float32))
        assert ker.padding == 2

    def test_bias_length_checked(self):
        with pytest.raises(KernelError):
            ConvKernel(
                weights=np.ones((2, 3, 3, 3), dtype=np.float32),
                bias=np.zeros(3, dtype=np.float32),
            )

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(KernelError):
            ConvKernel(weights=np.ones((6, 2, 3, 3), dtype=np.float32), groups=4)


class TestBatchNorm:
    def test_matches_scalar_oracle(self):
        """Inference BN agrees with the float64 per-element formula."""
        rng = np.random.default_rng(400)
        x = rng.standard_normal((3, 6, 5, 7)).astype(np.float32)
        bn = BNParams(
            mean=rng.standard_normal(6).astype(np.float32),
            var=rng.uniform(0.5, 2.0, 6).astype(np.float32),
            gamma=rng.uniform(0.5, 1.5, 6).astype(np.float32),
            beta=rng.standard_normal(6).astype(np.float32),
        )
        want = batchnorm_scalar(x, bn.mean, bn.var, bn.gamma, bn.beta, bn.eps)
        assert np.allclose(batchnorm_infer(x, bn), want, rtol=1e-5, atol=1e-6)

    def test_identity_params_change_nothing(self):
        rng = np.random.default_rng(401)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        out = batchnorm_infer(x, BNParams.identity(4))
        # eps=1e-5 inside sqrt perturbs the scale by ~5e-6 relative
        assert np.allclose(out, x, rtol=1e-5, atol=1e-6)

    def test_channel_count_checked(self):
        x = np.zeros((1, 4, 2, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            batchnorm_infer(x, BNParams.identity(8))

    def test_mismatched_vector_lengths_rejected(self):
        with pytest.raises(ShapeError):
            BNParams(
                mean=np.zeros(4, dtype=np.float32),
                var=np.ones(4, dtype=np.float32),
                gamma=np.ones(5, dtype=np.float32),
                beta=np.zeros(4, dtype=np.float32),
            )


class TestElementwiseAndResampling:
    def test_silu_matches_oracle(self):
        rng = np.random.default_rng(500)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32) * 4
        assert np.allclose(silu(x), silu_scalar(x), rtol=1e-5, atol=1e-6)
        assert silu(x).dtype == np.float32

    def test_silu_extremes_are_finite_and_quiet(self):
        # exp(-x) overflows for x <= -88.8 in float32; the result must
        # still be a finite (zero) float32 without any floating-point warning
        x = np.array([1e4, -1e4, 100, -100, -88.8, 0], dtype=np.float32)
        x = x.reshape(1, 1, 2, 3)
        before = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = silu(x)
        assert y.dtype == np.float32
        assert np.all(np.isfinite(y))
        large = x >= 100
        assert np.array_equal(y[large], x[large])
        assert np.array_equal(x, before)

    def test_avgpool_matches_oracle(self):
        rng = np.random.default_rng(501)
        x = rng.standard_normal((2, 5, 8, 10)).astype(np.float32)
        assert np.allclose(avgpool2d(x), avgpool_scalar(x), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("layout", ["channel-slice", "channels-last"])
    def test_avgpool_non_contiguous_input(self, layout):
        """Strided views of the input still give a C-contiguous float32 map."""
        rng = np.random.default_rng(504)
        x = rng.standard_normal((2, 10, 8, 6)).astype(np.float32)
        if layout == "channel-slice":
            x = split_channels(x, 2)[1]
        else:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert not x.flags.c_contiguous
        out = avgpool2d(x)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.allclose(out, avgpool_scalar(x), rtol=1e-5, atol=1e-6)

    def test_avgpool_rejects_odd_extent(self):
        x = np.zeros((1, 1, 7, 8), dtype=np.float32)
        with pytest.raises(ShapeError):
            avgpool2d(x)

    def test_upsample_matches_index_map(self):
        rng = np.random.default_rng(502)
        x = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        assert np.array_equal(upsample2x(x), upsample_scalar(x))

    def test_pool_then_upsample_preserves_shape(self):
        rng = np.random.default_rng(503)
        x = rng.standard_normal((1, 2, 12, 16)).astype(np.float32)
        assert upsample2x(avgpool2d(x)).shape == x.shape


class TestConcatSplit:
    def test_round_trip(self):
        """Splitting a concatenation recovers the original tensors."""
        rng = np.random.default_rng(600)
        parts = [rng.standard_normal((2, 4, 6, 6)).astype(np.float32) for _ in range(3)]
        merged = concat_channels(parts)
        assert merged.shape == (2, 12, 6, 6)
        for got, want in zip(split_channels(merged, 3), parts):
            assert np.array_equal(got, want)

    def test_mismatched_input_names_offender(self):
        a = np.zeros((1, 2, 4, 4), dtype=np.float32)
        b = np.zeros((1, 2, 4, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="concat input 1"):
            concat_channels([a, b])

    def test_split_requires_divisibility(self):
        x = np.zeros((1, 10, 2, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            split_channels(x, 3)

    def test_non_float32_rejected(self):
        a = np.zeros((1, 2, 4, 4), dtype=np.float64)
        with pytest.raises(ShapeError, match="float32"):
            concat_channels([a])


class TestTensorCoercion:
    def test_to_tensor4_casts_and_orders(self):
        x = to_tensor4(np.zeros((1, 2, 3, 4), dtype=np.float64))
        assert x.dtype == np.float32 and x.flags.c_contiguous

    def test_to_tensor4_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            to_tensor4(np.zeros((2, 3, 4)))
