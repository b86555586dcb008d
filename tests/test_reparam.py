"""Tests for conv/BN folding and heterogeneous-branch merging.

The oracle throughout is the explicit operator composition evaluated with
the reference convolution: fused weights must reproduce what the unfused
ops compute.
"""

import numpy as np
import pytest

from mhaf.errors import ConfigError, KernelError
from mhaf.reparam import (
    RepHConvSpec,
    RepHConvWeights,
    fuse_conv_bn,
    merge_heterogeneous,
    random_rephconv,
    rephconv_forward,
    verify_equivalence,
)
from mhaf.tensor import BNParams, ConvKernel, batchnorm_infer, conv2d_fast, conv2d_naive

from oracles import normalized_max_error


def random_bn(rng, channels):
    return BNParams(
        mean=rng.normal(0.0, 0.3, channels).astype(np.float32),
        var=rng.uniform(0.5, 1.5, channels).astype(np.float32),
        gamma=rng.uniform(0.5, 1.5, channels).astype(np.float32),
        beta=rng.normal(0.0, 0.3, channels).astype(np.float32),
    )


class TestBranchSets:
    def test_branch_sizes_descend_to_three(self):
        assert RepHConvSpec(8, 9).branch_kernels == (7, 5, 3)
        assert RepHConvSpec(8, 7).branch_kernels == (5, 3)
        assert RepHConvSpec(8, 5).branch_kernels == (3,)

    def test_three_by_three_has_no_branches(self):
        assert RepHConvSpec(8, 3).branch_kernels == ()

    def test_even_main_kernel_rejected(self):
        with pytest.raises(KernelError):
            RepHConvSpec(8, 4)


class TestFuseConvBN:
    def test_matches_two_op_composition(self):
        """Folding BN into a conv reproduces conv-then-BN on random draws,
        across dense, grouped and depthwise layouts."""
        rng = np.random.default_rng(42)
        for trial in range(30):
            g = int(rng.choice([1, 1, 2, 4]))
            cpg = int(rng.integers(1, 5))
            opg = int(rng.integers(1, 5))
            cin, cout = g * cpg, g * opg
            k = int(rng.choice([1, 3, 5]))
            w = rng.standard_normal((cout, cpg, k, k)).astype(np.float32) / k
            bias = rng.standard_normal(cout).astype(np.float32)
            kernel = ConvKernel(weights=w, bias=bias, groups=g)
            bn = random_bn(rng, cout)
            x = rng.standard_normal((2, cin, 8, 8)).astype(np.float32)
            want = batchnorm_infer(conv2d_naive(x, kernel), bn)
            got = conv2d_naive(x, fuse_conv_bn(kernel, bn))
            assert normalized_max_error(got, want) <= 1e-5, f"trial {trial}"

    def test_original_bias_participates(self):
        """A conv that already carries a bias folds correctly: the bias is
        shifted by -mean and rescaled like the weights."""
        kernel = ConvKernel(
            weights=np.zeros((2, 1, 1, 1), dtype=np.float32),
            bias=np.array([1.0, 2.0], dtype=np.float32),
        )
        bn = BNParams(
            mean=np.array([0.5, 0.5], dtype=np.float32),
            var=np.array([1.0, 1.0], dtype=np.float32) - np.float32(1e-5),
            gamma=np.array([2.0, 2.0], dtype=np.float32),
            beta=np.array([0.1, 0.1], dtype=np.float32),
        )
        fused = fuse_conv_bn(kernel, bn)
        # (bias - mean) * gamma / sqrt(var + eps) + beta, with var+eps == 1
        assert np.allclose(fused.bias, [1.1, 3.1], atol=1e-6)

    def test_channel_mismatch_rejected(self):
        kernel = ConvKernel(weights=np.zeros((4, 2, 3, 3), dtype=np.float32))
        with pytest.raises(Exception, match="channels"):
            fuse_conv_bn(kernel, BNParams.identity(6))


class TestMerge:
    @pytest.mark.parametrize("main_k,tol", [(3, 1e-6), (5, 1e-4), (7, 1e-4), (9, 1e-4)])
    def test_merged_conv_matches_branch_sum_oracle(self, main_k, tol):
        """The deployed kernel reproduces the explicit sum of BN-ed branch
        convolutions, evaluated with the reference conv."""
        rng = np.random.default_rng(main_k * 17)
        spec = RepHConvSpec(8, main_k)
        for trial in range(5):
            weights = random_rephconv(spec, rng)
            x = rng.standard_normal((1, 8, 12, 12)).astype(np.float32)
            want = np.zeros((1, 8, 12, 12), dtype=np.float32)
            for kernel, bn in weights.branches:
                want = want + batchnorm_infer(conv2d_naive(x, kernel), bn)
            got = conv2d_naive(x, merge_heterogeneous(weights))
            err = float(np.abs(got.astype(np.float64) - want.astype(np.float64)).max())
            assert err <= tol, f"main {main_k} trial {trial}: {err:.2e}"

    @pytest.mark.parametrize("channels,main_k", [(4, 3), (8, 5), (16, 9)])
    def test_deployed_parameter_count(self, channels, main_k):
        """Deployed form is one depthwise kernel of the main size, carrying
        exactly channels * (k*k + 1) parameters."""
        weights = random_rephconv(RepHConvSpec(channels, main_k), np.random.default_rng(1))
        deployed = merge_heterogeneous(weights)
        assert deployed.weights.shape == (channels, 1, main_k, main_k)
        assert (deployed.stride, deployed.groups) == (1, channels)
        assert deployed.weights.size + deployed.bias.size == channels * (main_k * main_k + 1)

    def test_forward_uses_declared_form(self):
        rng = np.random.default_rng(2)
        weights = random_rephconv(RepHConvSpec(6, 7), rng)
        x = rng.standard_normal((1, 6, 10, 10)).astype(np.float32)
        y_train = rephconv_forward(x, weights)
        y_deploy = conv2d_fast(x, merge_heterogeneous(weights))
        assert y_train.shape == y_deploy.shape == (1, 6, 10, 10)
        assert np.abs(y_train - y_deploy).max() <= 1e-4


class TestWeightValidation:
    def test_branch_sizes_checked(self):
        spec = RepHConvSpec(4, 5)
        only_main = [
            (
                ConvKernel(weights=np.zeros((4, 1, 5, 5), dtype=np.float32), groups=4),
                BNParams.identity(4),
            )
        ]
        with pytest.raises(KernelError):
            RepHConvWeights(spec=spec, branches=only_main)

    def test_dense_conv_rejected(self):
        spec = RepHConvSpec(4, 3)
        dense = [
            (
                ConvKernel(weights=np.zeros((4, 4, 3, 3), dtype=np.float32)),
                BNParams.identity(4),
            )
        ]
        with pytest.raises(KernelError, match="depthwise"):
            RepHConvWeights(spec=spec, branches=dense)


class TestVerifyEquivalence:
    def test_passes_at_documented_tolerance(self):
        report = verify_equivalence(RepHConvSpec(16, 7), trials=20, tolerance=1e-4, seed=3)
        assert report.passed
        assert report.max_abs_error > 0  # float32 never matches exactly
        assert report.trials == 20

    def test_zero_tolerance_fails(self):
        report = verify_equivalence(RepHConvSpec(8, 5), trials=5, tolerance=0.0, seed=4)
        assert not report.passed

    def test_seeded_runs_reproduce(self):
        a = verify_equivalence(RepHConvSpec(8, 9), trials=5, seed=7)
        b = verify_equivalence(RepHConvSpec(8, 9), trials=5, seed=7)
        assert a.max_abs_error == b.max_abs_error
        assert a.mean_abs_error == b.mean_abs_error

    def test_zero_trials_rejected(self):
        """A run that compares nothing must not report a pass."""
        with pytest.raises(ConfigError, match="trials must be at least 1, got 0"):
            verify_equivalence(RepHConvSpec(8, 5), trials=0)

    @pytest.mark.parametrize("settings, message", [
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ])
    def test_bad_trials_and_seeds_rejected(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            verify_equivalence(RepHConvSpec(8, 5), **settings)

    def test_record_and_summary_carry_the_numbers(self):
        report = verify_equivalence(RepHConvSpec(4, 5), trials=3, seed=5)
        rec = report.to_record()
        assert rec["main_kernel"] == 5 and rec["channels"] == 4
        assert rec["passed"] == report.passed
        assert "max_abs" in report.summary()
        assert "5+3" in report.summary()
