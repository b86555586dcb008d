"""Independent reference implementations used to validate the library.

Everything in here is deliberately written the slow, obvious way (scalar
loops, float64 where noted) and shares no code with the package under test.
If a library op and its oracle agree, a shared indexing bug is about the
only way both can be wrong.
"""

import numpy as np


def conv2d_scalar(x, weights, bias, stride, padding, groups):
    """Brute-force convolution: one float32 accumulator per output element,
    accumulation order (kernel row, kernel col, in-channel within group).

    Out-of-bounds taps are skipped, which is the scalar statement of
    zero-padding.  Matches the library's documented accumulation order so
    results can be compared bit-for-bit.
    """
    b, cin, h, w = x.shape
    cout, cpg, k, _ = weights.shape
    opg = cout // groups
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, oh, ow), dtype=np.float32)
    for n in range(b):
        for co in range(cout):
            gi = co // opg
            for oy in range(oh):
                for ox in range(ow):
                    acc = np.float32(0.0)
                    for kr in range(k):
                        for kc in range(k):
                            for ic in range(cpg):
                                iy = oy * stride + kr - padding
                                ix = ox * stride + kc - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc = np.float32(
                                        acc + weights[co, ic, kr, kc] * x[n, gi * cpg + ic, iy, ix]
                                    )
                    out[n, co, oy, ox] = acc
    return out + bias[None, :, None, None]


def batchnorm_scalar(x, mean, var, gamma, beta, eps):
    """Per-element inference batch norm evaluated in float64."""
    x64 = x.astype(np.float64)
    out = np.empty_like(x64)
    for c in range(x.shape[1]):
        out[:, c] = (
            gamma[c].astype(np.float64)
            * (x64[:, c] - mean[c].astype(np.float64))
            / np.sqrt(var[c].astype(np.float64) + eps)
            + beta[c].astype(np.float64)
        )
    return out


def silu_scalar(x):
    """Per-element x * sigmoid(x) in float64."""
    x64 = x.astype(np.float64)
    return x64 * (1.0 / (1.0 + np.exp(-x64)))


def avgpool_scalar(x):
    """2x2/stride-2 average pooling in float64."""
    b, c, h, w = x.shape
    out = np.zeros((b, c, h // 2, w // 2), dtype=np.float64)
    for n in range(b):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    window = x[n, ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    out[n, ch, i, j] = window.astype(np.float64).mean()
    return out


def upsample_scalar(x):
    """Nearest-neighbour 2x upsample via explicit index mapping."""
    b, c, h, w = x.shape
    out = np.empty((b, c, 2 * h, 2 * w), dtype=x.dtype)
    for i in range(2 * h):
        for j in range(2 * w):
            out[:, :, i, j] = x[:, :, i // 2, j // 2]
    return out


def normalized_max_error(candidate, reference):
    """max |candidate - reference| / (1 + max |reference|).

    The +1 in the denominator keeps the metric meaningful when the
    reference is close to zero.
    """
    c = np.asarray(candidate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    return float(np.abs(c - r).max() / (1.0 + np.abs(r).max()))


def crc64_bitwise(data):
    """Reference CRC-64/XZ: reflected polynomial, one bit at a time."""
    poly = 0xC96C5795D7870F42
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFFFFFFFFFF
