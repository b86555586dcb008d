"""Core tensor conventions and the small set of inference ops everything
else is built from.

Conventions
-----------
* Activations are 4-D ``numpy`` arrays in NCHW order (batch, channels,
  height, width), dtype ``float32``, C-contiguous.
* All arithmetic stays in float32.  The reference convolution
  (:func:`conv2d_naive`) accumulates every output element in a fixed
  (kernel-row, kernel-col, input-channel) order, so repeated runs are
  bit-identical.  :func:`conv2d_fast` trades that fixed order for speed
  and has two routes, both one BLAS matmul: depthwise kernels multiply
  each channel's overlapping input rows by a banded (Toeplitz) matrix of
  its taps, and every other conv multiplies grouped im2col patch columns.
  It is validated against the reference to a relative tolerance.
* Spatial downsampling by pooling/striding always uses factor 2, matching
  the stage layout of the models built on top of these ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import KernelError, ShapeError

__all__ = [
    "ConvKernel",
    "BNParams",
    "to_tensor4",
    "check_tensor4",
    "conv2d_naive",
    "conv2d_fast",
    "conv_output_size",
    "batchnorm_infer",
    "silu",
    "avgpool2d",
    "upsample2x",
    "concat_channels",
    "split_channels",
]


def to_tensor4(arr) -> np.ndarray:
    """Coerce ``arr`` to a C-contiguous float32 NCHW tensor.

    Accepts anything ``np.asarray`` accepts; raises :class:`ShapeError`
    if the result is not 4-dimensional.
    """
    out = np.ascontiguousarray(np.asarray(arr), dtype=np.float32)
    if out.ndim != 4:
        raise ShapeError(f"expected a 4-D NCHW tensor, got shape {out.shape}")
    return out


def check_tensor4(x: np.ndarray, name: str = "input") -> None:
    """Validate that ``x`` follows the NCHW float32 convention."""
    if not isinstance(x, np.ndarray):
        raise ShapeError(f"{name} must be a numpy array, got {type(x).__name__}")
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-D NCHW, got shape {x.shape}")
    if x.dtype != np.float32:
        raise ShapeError(f"{name} must be float32, got {x.dtype}")


@dataclass
class ConvKernel:
    """Weights and hyper-parameters of one 2-D convolution.

    Attributes
    ----------
    weights:
        ``(out_channels, in_channels // groups, k, k)`` float32.  The
        kernel must be square with odd ``k``.
    bias:
        ``(out_channels,)`` float32.  Defaults to zeros.
    stride, padding, groups:
        Usual conv hyper-parameters.  ``padding`` defaults to
        ``(k - 1) // 2`` which preserves spatial size at stride 1.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int | None = None
    groups: int = 1

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights), dtype=np.float32)
        if w.ndim != 4:
            raise KernelError(f"conv weights must be rank 4, got shape {w.shape}")
        if w.shape[2] != w.shape[3]:
            raise KernelError(f"kernel must be square, got {w.shape[2]}x{w.shape[3]}")
        if w.shape[2] % 2 == 0:
            raise KernelError(f"kernel size must be odd, got {w.shape[2]}")
        self.weights = w
        if self.padding is None:
            self.padding = (w.shape[2] - 1) // 2
        if self.bias is None:
            self.bias = np.zeros(w.shape[0], dtype=np.float32)
        else:
            b = np.ascontiguousarray(np.asarray(self.bias), dtype=np.float32)
            if b.shape != (w.shape[0],):
                raise KernelError(
                    f"bias shape {b.shape} does not match out_channels {w.shape[0]}"
                )
            self.bias = b
        if self.stride < 1:
            raise KernelError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise KernelError(f"padding must be >= 0, got {self.padding}")
        if self.groups < 1:
            raise KernelError(f"groups must be >= 1, got {self.groups}")
        if w.shape[0] % self.groups != 0:
            raise KernelError(
                f"out_channels {w.shape[0]} not divisible by groups {self.groups}"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1] * self.groups

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass
class BNParams:
    """Inference-time batch-norm statistics and affine parameters.

    All vectors have shape ``(channels,)``.  The transform applied is
    ``gamma * (x - mean) / sqrt(var + eps) + beta``.
    """

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        vecs = {}
        for name in ("mean", "var", "gamma", "beta"):
            v = np.ascontiguousarray(np.asarray(getattr(self, name)), dtype=np.float32)
            if v.ndim != 1:
                raise ShapeError(f"BN {name} must be rank 1, got shape {v.shape}")
            vecs[name] = v
        sizes = {v.shape[0] for v in vecs.values()}
        if len(sizes) != 1:
            raise ShapeError(
                "BN parameter lengths disagree: "
                + ", ".join(f"{k}={v.shape[0]}" for k, v in vecs.items())
            )
        for name, v in vecs.items():
            setattr(self, name, v)
        if self.eps <= 0:
            raise ShapeError(f"BN eps must be positive, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, channels: int) -> "BNParams":
        """BN that leaves its input unchanged (zero mean, unit variance)."""
        return cls(
            mean=np.zeros(channels, dtype=np.float32),
            var=np.ones(channels, dtype=np.float32),
            gamma=np.ones(channels, dtype=np.float32),
            beta=np.zeros(channels, dtype=np.float32),
        )


def conv_output_size(size: int, k: int, stride: int, padding: int) -> int:
    """Spatial output extent of a convolution along one axis."""
    if size + 2 * padding < k:
        raise ShapeError(
            f"input extent {size} with padding {padding} is smaller than kernel {k}"
        )
    return (size + 2 * padding - k) // stride + 1


def _check_conv_args(x: np.ndarray, kernel: ConvKernel) -> tuple[int, int]:
    check_tensor4(x)
    cin = kernel.in_channels
    if x.shape[1] != cin:
        raise ShapeError(
            f"input has {x.shape[1]} channels but kernel expects {cin} "
            f"(input shape {x.shape}, weight shape {kernel.weights.shape})"
        )
    oh = conv_output_size(x.shape[2], kernel.kernel_size, kernel.stride, kernel.padding)
    ow = conv_output_size(x.shape[3], kernel.kernel_size, kernel.stride, kernel.padding)
    return oh, ow


def conv2d_naive(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Reference 2-D convolution (technically cross-correlation, as in every
    deep-learning framework).

    Accumulates each output element in the fixed order
    (kernel row, kernel col, input channel), entirely in float32, with no
    parallelism, so results are bit-for-bit reproducible.  Use
    :func:`conv2d_fast` for anything performance sensitive.
    """
    oh, ow = _check_conv_args(x, kernel)
    b = x.shape[0]
    g = kernel.groups
    cout = kernel.out_channels
    cpg = kernel.weights.shape[1]  # input channels per group
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding

    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    xg = xp.reshape(b, g, cpg, xp.shape[2], xp.shape[3])
    wg = kernel.weights.reshape(g, cout // g, cpg, k, k)

    out = np.zeros((b, g, cout // g, oh, ow), dtype=np.float32)
    for kr in range(k):
        for kc in range(k):
            patch = xg[:, :, :, kr : kr + s * oh : s, kc : kc + s * ow : s]
            for ic in range(cpg):
                # one fused multiply-add per (kr, kc, ic) step keeps the
                # per-element accumulation order fixed
                out += wg[:, :, ic, kr, kc][None, :, :, None, None] * patch[:, :, ic][:, :, None]
    out = out.reshape(b, cout, oh, ow)
    out += kernel.bias[None, :, None, None]
    return np.ascontiguousarray(out)


def _im2col(
    xp: np.ndarray, groups: int, k: int, stride: int, oh: int, ow: int
) -> np.ndarray:
    """Patch columns of the padded input, shaped (batch, groups,
    C/groups*k*k, oh*ow).  For a stride-1 1x1 conv on a C-contiguous input
    the columns are a view of ``xp``: nothing is copied."""
    b, c = xp.shape[:2]
    cpg = c // groups
    sb, sc, sh, sw = xp.strides
    windows = as_strided(
        xp,
        shape=(b, groups, cpg, k, k, oh, ow),
        strides=(sb, sc * cpg, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(b, groups, cpg * k * k, oh * ow)


def _depthwise_band(xp: np.ndarray, w: np.ndarray, s: int, oh: int, ow: int) -> np.ndarray:
    """Depthwise conv (multiplier 1) of the padded input ``xp``; NCHW out.

    Per channel, output row ``y`` reads padded rows ``y*s .. y*s+k-1`` as
    one vector of length ``k*Wp`` (an overlapping view of ``xp``).  The
    ``(C, k*Wp, ow)`` band holds tap ``w[c, i, j]`` at ``[i*Wp + x*s + j, x]``
    and zeros elsewhere, so one matmul sums each output's k*k taps.  Bands
    are built per call and never kept: the deployed model's total 25 MB.
    """
    b, c, _, wp = xp.shape
    k = w.shape[2]
    sb, sc, sh, sw = xp.strides
    rows = as_strided(
        xp, shape=(b, c, oh, k, wp), strides=(sb, sc, sh * s, sh, sw), writeable=False
    ).reshape(b, c, oh, k * wp)
    i, j, x = np.ogrid[:k, :k, :ow]
    band = np.zeros((c, k * wp, ow), dtype=np.float32)
    band[:, i * wp + x * s + j, x] = w[:, 0, :, :, None]
    return np.matmul(rows, band)


def conv2d_fast(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Fast convolution, numerically equivalent to :func:`conv2d_naive` up
    to float32 rounding.

    Two routes, each one matmul after padding once.  Depthwise kernels
    (groups == in == out channels) multiply overlapping input rows by a
    banded matrix of the taps (:func:`_depthwise_band`).  Every other conv
    (pointwise, dense, grouped, channel-multiplier depthwise, any stride or
    padding) multiplies the grouped weights with im2col patch columns
    (:func:`_im2col`).

    For finite inputs the result matches :func:`conv2d_naive` within
    float32 rounding.  For non-finite inputs, every output that
    :func:`conv2d_naive` makes non-finite is non-finite here too, but the
    depthwise route may make more: ``0 * inf`` in the band's zeros spreads
    NaN along output rows, and numpy warns of the invalid value.
    """
    oh, ow = _check_conv_args(x, kernel)
    b, cin = x.shape[:2]
    cout = kernel.out_channels
    g = kernel.groups
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    w = kernel.weights

    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    if g == cin == cout:
        out = _depthwise_band(xp, w, s, oh, ow)
    else:
        cols = _im2col(xp, g, k, s, oh, ow)
        out = np.matmul(w.reshape(g, cout // g, -1), cols).reshape(b, cout, oh, ow)
    out += kernel.bias[None, :, None, None]
    return out


def batchnorm_infer(x: np.ndarray, bn: BNParams) -> np.ndarray:
    """Apply inference batch normalization channel-wise."""
    check_tensor4(x)
    if x.shape[1] != bn.channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels but BN carries {bn.channels}"
        )
    scale = bn.gamma / np.sqrt(bn.var + np.float32(bn.eps))
    shift = bn.beta - bn.mean * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU activation, ``x * sigmoid(x)``, computed as ``x / (1 + exp(-x))``
    into one float32 buffer.

    For very negative ``x``, ``exp(-x)`` overflows to ``inf`` and the
    quotient is the correctly signed zero, so the overflow is expected and
    silenced.  ``x`` itself is never written.
    """
    out = np.negative(x, out=np.empty(x.shape, dtype=np.float32))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1
    np.divide(x, out, out=out)
    return out


def avgpool2d(x: np.ndarray) -> np.ndarray:
    """2x2, stride-2 average pooling (the cheap anti-aliased downsample used
    for cross-resolution routing)."""
    check_tensor4(x)
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avgpool2d needs even spatial dims, got {h}x{w}")
    out = np.add(x[:, :, ::2, ::2], x[:, :, ::2, 1::2], order="C")
    out += x[:, :, 1::2, ::2]
    out += x[:, :, 1::2, 1::2]
    out *= 0.25
    return out


def upsample2x(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x spatial upsampling."""
    check_tensor4(x)
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def concat_channels(xs: list[np.ndarray]) -> np.ndarray:
    """Concatenate tensors along the channel axis.

    All inputs must share batch and spatial dims; the error message names
    the first offending input.
    """
    if not xs:
        raise ShapeError("concat_channels needs at least one input")
    for i, x in enumerate(xs):
        check_tensor4(x, name=f"concat input {i}")
    ref = xs[0].shape
    for i, x in enumerate(xs[1:], start=1):
        if x.shape[0] != ref[0] or x.shape[2:] != ref[2:]:
            raise ShapeError(
                f"concat input {i} has shape {x.shape}, incompatible with "
                f"input 0 of shape {ref} (batch/spatial dims must match)"
            )
    return np.concatenate(xs, axis=1)


def split_channels(x: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split the channel axis into ``parts`` equal chunks (views)."""
    check_tensor4(x)
    c = x.shape[1]
    if parts < 1 or c % parts != 0:
        raise ShapeError(f"cannot split {c} channels into {parts} equal parts")
    step = c // parts
    return [x[:, i * step : (i + 1) * step] for i in range(parts)]
