"""
Folding batchnorm and merging heterogeneous kernels
===================================================

A multi-branch depthwise unit trains as parallel 9/7/5/3 convolutions, each
with its own batchnorm.  At deployment the whole stack collapses into one
9x9 convolution: fold each branch's BN into its weights, zero-pad every
kernel to 9x9, and sum.  This script walks those steps on real numbers and
measures how close the collapsed unit stays to the training-form stack.
"""

import numpy as np

from mhaf import BNParams, ConvKernel, batchnorm_infer, conv2d_fast
from mhaf.reparam import (
    RepHConvSpec,
    fuse_conv_bn,
    merge_heterogeneous,
    random_rephconv,
    rephconv_forward,
    verify_equivalence,
)

rng = np.random.default_rng(1)

# --- step 1: BN folding on a single conv -------------------------------
# bn(conv(x)) and conv(x, folded) are the same map; the fold scales each
# output channel's weights by gamma/sqrt(var+eps) and shifts the bias.
c = 6
w = (rng.standard_normal((c, 1, 3, 3)) * 0.2).astype(np.float32)
kernel = ConvKernel(weights=w, groups=c)
bn = BNParams(
    mean=rng.normal(0, 0.3, c).astype(np.float32),
    var=rng.uniform(0.5, 1.5, c).astype(np.float32),
    gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
    beta=rng.normal(0, 0.3, c).astype(np.float32),
)
x = rng.standard_normal((1, c, 12, 12)).astype(np.float32)
two_op = batchnorm_infer(conv2d_fast(x, kernel), bn)
one_op = conv2d_fast(x, fuse_conv_bn(kernel, bn))
print(f"BN fold, two ops vs one: max gap {np.max(np.abs(two_op - one_op)):.2e}")

# --- step 2: the heterogeneous merge ------------------------------------
# a 9x9 main kernel travels with 7/5/3 branches during training
spec = RepHConvSpec(channels=16, main_kernel=9)
print(f"\nbranch set for a 9x9 unit: {(spec.main_kernel,) + spec.branch_kernels}")

unit = random_rephconv(spec, rng)
print(f"training form stores {unit.param_count():,} floats "
      f"({len(unit.branches)} branches, each with BN)")

merged = merge_heterogeneous(unit)
k = merged.kernel_size
print(f"deployed form stores {merged.weights.size + merged.bias.size:,} floats "
      f"(one {k}x{k} depthwise conv with a bias)")

# --- step 3: the two forms compute the same function ---------------------
x = rng.standard_normal((1, 16, 20, 20)).astype(np.float32)
training_out = rephconv_forward(x, unit)
deployed_out = conv2d_fast(x, merged)
print(f"forward gap on one input: {np.max(np.abs(training_out - deployed_out)):.2e}")

# the packaged check sweeps many random draws and times both forms
report = verify_equivalence(spec, trials=50, tolerance=1e-4, seed=0)
print(report.summary())
