"""Structural re-parameterization of multi-branch depthwise convolutions.

A training-form unit runs several parallel depthwise convolutions of
decreasing odd kernel size (k, k-2, ..., 3), each followed by its own batch
norm, and sums the results.  Because conv and inference-BN are both linear,
the whole bundle collapses at deployment into a single depthwise conv of the
largest kernel size:

* fold each branch's BN into its conv weights/bias,
* sum weights and biases across branches, each smaller kernel added into
  the centred window of its size: zero-padding a kernel to the main size
  keeps the output map identical, because a conv's padding is half its
  kernel size (``ConvKernel.padding``) and so grows by the same amount.

The functions here implement those steps plus a self-contained
numerical equivalence check used by tests and the command-line tool.
:class:`RepHConvWeights` holds the training form only; the deployed form is
the plain bias-carrying ``ConvKernel`` that :func:`merge_heterogeneous`
returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import KernelError, ShapeError
from .tensor import BN_EPS, BNParams, ConvKernel, batchnorm_infer, check_setting, conv2d_fast

__all__ = [
    "RepHConvSpec",
    "RepHConvWeights",
    "EquivalenceReport",
    "fuse_conv_bn",
    "merge_heterogeneous",
    "rephconv_forward",
    "random_rephconv",
    "verify_equivalence",
]


def branch_sizes(main_kernel: int) -> tuple[int, ...]:
    """Side-branch kernel sizes for a given main kernel: every smaller odd
    size down to 3.  A 3x3 main kernel has no side branches."""
    if main_kernel % 2 == 0 or main_kernel < 3:
        raise KernelError(f"main kernel must be odd and >= 3, got {main_kernel}")
    return tuple(range(main_kernel - 2, 2, -2))


@dataclass(frozen=True)
class RepHConvSpec:
    """Shape contract of one heterogeneous-kernel depthwise unit."""

    channels: int
    main_kernel: int

    def __post_init__(self):
        branch_sizes(self.main_kernel)  # rejects an even or too small main kernel
        if self.channels < 1:
            raise KernelError(f"channels must be >= 1, got {self.channels}")

    @property
    def branch_kernels(self) -> tuple[int, ...]:
        return branch_sizes(self.main_kernel)

    @property
    def all_kernels(self) -> tuple[int, ...]:
        return (self.main_kernel, *self.branch_kernels)


@dataclass(eq=False)
class RepHConvWeights:
    """Training-form parameters of one unit: ``branches`` holds one
    (depthwise ConvKernel, BNParams) pair per kernel size, largest first.
    The deployed form is the single kernel :func:`merge_heterogeneous`
    returns."""

    spec: RepHConvSpec
    branches: list[tuple[ConvKernel, BNParams]]

    def __post_init__(self):
        c = self.spec.channels
        got = tuple(k.kernel_size for k, _ in self.branches)
        if got != self.spec.all_kernels:
            raise KernelError(
                f"branch kernel sizes {list(got)} do not match spec "
                f"{list(self.spec.all_kernels)}"
            )
        for kernel, bn in self.branches:
            _check_depthwise(kernel, c)
            if bn.channels != c:
                raise ShapeError(f"branch BN has {bn.channels} channels, expected {c}")

    def param_count(self) -> int:
        """Learnable parameter count (conv weights + bias, BN gamma/beta)."""
        return sum(k.weights.size + 2 * bn.channels for k, bn in self.branches)


def _check_depthwise(kernel: ConvKernel, channels: int) -> None:
    if kernel.groups != channels or kernel.out_channels != channels or kernel.weights.shape[1] != 1:
        raise KernelError(
            f"expected a depthwise conv over {channels} channels, got weights "
            f"{kernel.weights.shape} with groups={kernel.groups}"
        )
    if kernel.stride != 1:
        raise KernelError("re-parameterized units are stride 1")


def fuse_conv_bn(kernel: ConvKernel, bn: BNParams) -> ConvKernel:
    """Fold an inference BN into the preceding convolution.

    With ``s = gamma / sqrt(var + BN_EPS)`` per output channel, the returned
    kernel computes ``bn(conv(x))`` in a single conv:
    weights scale by ``s`` and the bias becomes ``(bias - mean) * s + beta``.
    Works for any conv (dense, grouped, depthwise), including one that
    already carries a bias.
    """
    if bn.channels != kernel.out_channels:
        raise ShapeError(
            f"BN has {bn.channels} channels but conv produces {kernel.out_channels}"
        )
    scale = (bn.gamma / np.sqrt(bn.var + np.float32(BN_EPS))).astype(np.float32)
    weights = kernel.weights * scale[:, None, None, None]
    bias = (kernel.bias - bn.mean) * scale + bn.beta
    return ConvKernel(
        weights=weights,
        bias=bias.astype(np.float32),
        stride=kernel.stride,
        groups=kernel.groups,
    )


def merge_heterogeneous(weights: RepHConvWeights) -> ConvKernel:
    """Collapse a training-form unit into its single deployed conv: a
    bias-carrying depthwise kernel of the main size.

    Each branch is BN-folded first, then added into the centred window of
    its size in the main-size accumulator, as if zero-padded to it.
    """
    spec = weights.spec
    main_k = spec.main_kernel
    acc_w = np.zeros((spec.channels, 1, main_k, main_k), dtype=np.float32)
    acc_b = np.zeros(spec.channels, dtype=np.float32)
    for kernel, bn in weights.branches:
        folded = fuse_conv_bn(kernel, bn)
        m = (main_k - kernel.kernel_size) // 2
        acc_w[:, :, m : main_k - m, m : main_k - m] += folded.weights
        acc_b += folded.bias
    return ConvKernel(weights=acc_w, bias=acc_b, groups=spec.channels)


def rephconv_forward(x: np.ndarray, weights: RepHConvWeights) -> np.ndarray:
    """Run one training-form unit: the BN-ed branch outputs summed in
    declaration order (largest kernel first)."""
    (kernel, bn), *rest = weights.branches
    out = batchnorm_infer(conv2d_fast(x, kernel), bn)
    for kernel, bn in rest:
        out += batchnorm_infer(conv2d_fast(x, kernel), bn)
    return out


def random_rephconv(spec: RepHConvSpec, rng: np.random.Generator) -> RepHConvWeights:
    """Sample a plausible training-form unit for testing.

    Branch weights are standard normal scaled by 0.5/k, which keeps each
    branch's response near unit variance the way trained depthwise filters
    do; BN statistics are drawn in well-conditioned ranges.  Keeping
    activations at this scale matters: the two evaluation orders disagree
    by a couple of float32 ulps of the largest activation, so an inflated
    draw would measure magnitude rather than arithmetic.
    """
    c = spec.channels
    branches = []
    for k in spec.all_kernels:
        w = (rng.standard_normal((c, 1, k, k)) * (0.5 / k)).astype(np.float32)
        kernel = ConvKernel(weights=w, stride=1, groups=c)
        bn = BNParams(
            mean=rng.normal(0.0, 0.3, c).astype(np.float32),
            var=rng.uniform(0.5, 1.5, c).astype(np.float32),
            gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
            beta=rng.normal(0.0, 0.3, c).astype(np.float32),
        )
        branches.append((kernel, bn))
    return RepHConvWeights(spec=spec, branches=branches)


@dataclass
class EquivalenceReport:
    """Outcome of a training-vs-deployed numerical comparison."""

    spec: RepHConvSpec
    trials: int
    tolerance: float
    max_abs_error: float
    mean_abs_error: float
    training_seconds: float
    deployed_seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.max_abs_error <= self.tolerance)

    def to_record(self) -> dict:
        return {
            "channels": self.spec.channels,
            "main_kernel": self.spec.main_kernel,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "max_abs_error": self.max_abs_error,
            "mean_abs_error": self.mean_abs_error,
            "training_seconds": self.training_seconds,
            "deployed_seconds": self.deployed_seconds,
            "passed": self.passed,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"unit c={self.spec.channels} k={self.spec.main_kernel} "
            f"({'+'.join(str(k) for k in self.spec.all_kernels)}): "
            f"max_abs={self.max_abs_error:.3e} mean_abs={self.mean_abs_error:.3e} "
            f"tol={self.tolerance:.1e} "
            f"t_train={self.training_seconds:.3f}s t_deploy={self.deployed_seconds:.3f}s "
            f"[{status}]"
        )


def verify_equivalence(
    spec: RepHConvSpec,
    trials: int = 100,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> EquivalenceReport:
    """Empirically check that merging preserves the unit's function.

    Each trial samples fresh weights, merges them, and runs both forms on a
    20x20 standard-normal input, accumulating the worst absolute output
    difference.  Wall-clock per form is recorded as a side effect (the
    deployed form should never be slower).
    """
    check_setting("trials", trials, 1)
    check_setting("seed", seed, 0)
    rng = np.random.default_rng(seed)
    max_abs = 0.0
    mean_abs = 0.0
    t_train = 0.0
    t_deploy = 0.0
    for _ in range(trials):
        weights = random_rephconv(spec, rng)
        deployed = merge_heterogeneous(weights)
        x = rng.standard_normal((1, spec.channels, 20, 20)).astype(np.float32)
        t0 = time.perf_counter()
        y_train = rephconv_forward(x, weights)
        t1 = time.perf_counter()
        y_deploy = conv2d_fast(x, deployed)
        t2 = time.perf_counter()
        t_train += t1 - t0
        t_deploy += t2 - t1
        diff = np.abs(y_train.astype(np.float64) - y_deploy.astype(np.float64))
        max_abs = max(max_abs, float(diff.max()))
        mean_abs += float(diff.mean())
    return EquivalenceReport(
        spec=spec,
        trials=trials,
        tolerance=tolerance,
        max_abs_error=max_abs,
        mean_abs_error=mean_abs / trials,
        training_seconds=t_train,
        deployed_seconds=t_deploy,
    )
