"""
Two independent convolution routes
==================================

Every higher-level guarantee in this package bottoms out at conv2d.  To keep
that foundation trustworthy there are two implementations: ``conv2d_naive``,
a transparent loop kept close to the textbook definition, and
``conv2d_fast``, which runs depthwise kernels as a channels-last
shift-and-accumulate loop and every other conv as one grouped im2col matmul.
This script runs both on the same inputs and prints how far apart they land.
"""

import numpy as np

from mhaf import ConvKernel, conv2d_fast, conv2d_naive

rng = np.random.default_rng(0)


def compare(tag, x, kernel):
    fast = conv2d_fast(x, kernel)
    naive = conv2d_naive(x, kernel)
    gap = np.max(np.abs(fast - naive)) / (1.0 + np.max(np.abs(naive)))
    print(f"{tag:<28} in {tuple(x.shape)} -> out {tuple(fast.shape)}  "
          f"relative gap {gap:.2e}")


# a plain dense 3x3 with same-padding, the workhorse case
x = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
w = (rng.standard_normal((12, 8, 3, 3)) * 0.2).astype(np.float32)
compare("dense 3x3", x, ConvKernel(weights=w))

# stride 2 halves the resolution; padding stays (k-1)//2
compare("dense 3x3 stride 2", x, ConvKernel(weights=w, stride=2))

# 1x1 convs are channel mixers; their im2col columns are the input itself
w1 = (rng.standard_normal((4, 8, 1, 1)) * 0.5).astype(np.float32)
compare("pointwise 1x1", x, ConvKernel(weights=w1))

# depthwise: one filter per channel, groups == channels
wd = (rng.standard_normal((8, 1, 5, 5)) * 0.1).astype(np.float32)
compare("depthwise 5x5", x, ConvKernel(weights=wd, groups=8))

# grouped convolution splits channels into independent halves
wg = (rng.standard_normal((6, 4, 3, 3)) * 0.2).astype(np.float32)
compare("grouped 3x3 (2 groups)", x, ConvKernel(weights=wg, groups=2))

# the naive route is also bit-stable: two runs agree exactly
kernel = ConvKernel(weights=w)
print("naive route deterministic:",
      np.array_equal(conv2d_naive(x, kernel), conv2d_naive(x, kernel)))
