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
  and has two routes, both BLAS matmuls.  Depthwise kernels cut each
  output row into equal tiles, copy each tile's overlapping input rows
  channel-major (the batch folds into the matmul rows) and multiply them
  by one banded (Toeplitz) matrix of the channel's taps that every tile
  shares; taps that can only read padding are cropped first.  Every other
  conv is one matmul of grouped im2col patch columns.  It is validated
  against the reference to a relative tolerance.
* Spatial downsampling by pooling/striding always uses factor 2, matching
  the stage layout of the models built on top of these ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, KernelError, ShapeError

BN_EPS = 1e-5  # the variance offset of every batch norm

__all__ = [
    "BN_EPS",
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
    "is_int",
    "check_setting",
]


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_setting(name: str, value, least: int) -> None:
    """Raise :class:`ConfigError` unless ``value``, a run setting such as a
    trial count or a seed, is an integer of at least ``least``."""
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


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


@dataclass(eq=False)
class ConvKernel:
    """Weights and hyper-parameters of one 2-D convolution.

    Attributes
    ----------
    weights:
        ``(out_channels, in_channels // groups, k, k)`` float32.  The
        kernel must be square with odd ``k``.
    bias:
        ``(out_channels,)`` float32.  Defaults to zeros.
    stride, groups:
        Usual conv hyper-parameters: integers (not bools), at least 1.

    Every conv pads each side by :attr:`padding`, ``(k - 1) // 2``: it
    preserves spatial size at stride 1 and centres a smaller kernel's
    window in a larger one's, which the heterogeneous-kernel merge rests on.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
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
        if self.bias is None:
            self.bias = np.zeros(w.shape[0], dtype=np.float32)
        else:
            b = np.ascontiguousarray(np.asarray(self.bias), dtype=np.float32)
            if b.shape != (w.shape[0],):
                raise KernelError(
                    f"bias shape {b.shape} does not match out_channels {w.shape[0]}"
                )
            self.bias = b
        for name in ("stride", "groups"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise KernelError(f"{name} must be an integer >= 1, got {value!r}")
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

    @property
    def padding(self) -> int:
        return (self.kernel_size - 1) // 2


@dataclass(eq=False)
class BNParams:
    """Inference-time batch-norm statistics and affine parameters.

    All vectors have shape ``(channels,)``.  The transform applied is
    ``gamma * (x - mean) / sqrt(var + BN_EPS) + beta``.
    """

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

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


def conv_output_size(size: int, stride: int) -> int:
    """Spatial output extent of a same-padded convolution along one axis:
    the kernel size cancels against its padding."""
    if size < 1:
        raise ShapeError(f"input extent must be at least 1, got {size}")
    return (size - 1) // stride + 1


def _check_conv_args(x: np.ndarray, kernel: ConvKernel) -> tuple[int, int]:
    check_tensor4(x)
    cin = kernel.in_channels
    if x.shape[1] != cin:
        raise ShapeError(
            f"input has {x.shape[1]} channels but kernel expects {cin} "
            f"(input shape {x.shape}, weight shape {kernel.weights.shape})"
        )
    s = kernel.stride
    return conv_output_size(x.shape[2], s), conv_output_size(x.shape[3], s)


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


# Widest depthwise output tile, and the most bytes of tile rows copied at once.
_TILE_MAX = 12
_ROWS_CHUNK_BYTES = 1 << 20


def _tile_width(ow: int) -> int:
    """Output columns per depthwise tile: the largest divisor of ``ow`` up
    to ``_TILE_MAX``, or the whole row (one tile) when that divisor is
    under half of ``min(ow, _TILE_MAX)``."""
    cap = min(ow, _TILE_MAX)
    t = max(d for d in range(1, cap + 1) if ow % d == 0)
    return t if 2 * t >= cap else ow


def _depthwise_band(xp: np.ndarray, w: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Stride-1 depthwise conv (multiplier 1) of the padded input ``xp``;
    NCHW out.

    Each output row is cut into ``nt`` tiles of ``T`` columns
    (:func:`_tile_width`; the tiles fit the row exactly).  Per channel,
    tile ``t`` of output row ``y`` reads padded rows ``y .. y+k-1``,
    columns ``t*T`` on, as one vector of length ``k*L`` with
    ``L = T - 1 + k``.  One ``(C, k*L, T)`` band per channel serves every
    tile: it holds tap ``w[c, i, j]`` at ``[i*L + x + j, x]`` and zeros
    elsewhere, so a matmul sums each output's k*k taps.  The band is one
    copy of a negative-stride view of the taps, zero-padded to
    ``T - 1 + L`` columns.

    The tile rows overlap, and numpy hands BLAS no matrix whose row stride
    is shorter than its rows, so they are always copied: channel-major, in
    channel chunks of at most ``_ROWS_CHUNK_BYTES``, as contiguous
    ``(C_chunk, B*oh*nt, k*L)`` blocks.  Each chunk is one matmul with its
    slice of the band, one GEMM per channel with the batch folded into its
    rows.  The ``(C, B*oh*nt, T)`` product is NCHW after a reshape at
    batch 1 and after one transpose copy otherwise.  Nothing is kept
    between calls.
    """
    b, c = xp.shape[:2]
    k = w.shape[2]
    t = _tile_width(ow)
    nt = ow // t
    span = t - 1 + k
    taps = np.zeros((c, k, t - 1 + span), dtype=np.float32)
    taps[:, :, t - 1 : t - 1 + k] = w[:, 0]
    tc, ti, tj = taps.strides
    band = np.ascontiguousarray(
        as_strided(
            taps[:, :, t - 1 :], shape=(c, k, span, t), strides=(tc, ti, tj, -tj),
            writeable=False,
        )
    ).reshape(c, k * span, t)
    sb, sc, sh, sw = xp.strides
    rows = as_strided(
        xp, shape=(c, b, oh, nt, k, span), strides=(sc, sb, sh, sw * t, sh, sw),
        writeable=False,
    )
    m = b * oh * nt
    step = max(1, _ROWS_CHUNK_BYTES // (m * k * span * 4))
    out = np.empty((c, m, t), dtype=np.float32)
    for c0 in range(0, c, step):
        # an unnamed copy: one chunk of rows is alive at a time
        np.matmul(
            np.ascontiguousarray(rows[c0 : c0 + step]).reshape(-1, m, k * span),
            band[c0 : c0 + step],
            out=out[c0 : c0 + step],
        )
    # already C-contiguous at batch 1, so only a batch pays the copy
    return np.ascontiguousarray(out.reshape(c, b, oh, ow).transpose(1, 0, 2, 3))


def conv2d_fast(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Fast convolution, numerically equivalent to :func:`conv2d_naive` up
    to float32 rounding.

    Two routes after padding once, each handing BLAS only operands it
    takes (contiguous, or views with non-overlapping rows).  Stride-1
    depthwise kernels (groups == in == out channels) multiply copied,
    overlapping input tile rows by a banded matrix of the taps
    (:func:`_depthwise_band`); the outer rings of taps that can only read
    padding (those more than ``max(H, W) - 1`` off centre) are cropped
    first, so a 9x9 kernel on a 3x3 map runs as 5x5.  Every other conv
    (pointwise, dense, grouped, channel-multiplier or strided depthwise)
    multiplies the grouped weights with im2col patch columns
    (:func:`_im2col`).  An all-zero bias is not added; the check runs on
    every call.

    For finite inputs the result matches :func:`conv2d_naive` within
    float32 rounding.  For non-finite inputs, every output that
    :func:`conv2d_naive` makes non-finite is non-finite here too, but the
    depthwise route may make more: ``0 * inf`` in the band's zeros spreads
    NaN along the row of each output tile that reads the value, and numpy
    warns of the invalid value.
    """
    oh, ow = _check_conv_args(x, kernel)
    b, cin = x.shape[:2]
    cout = kernel.out_channels
    if not b:  # an empty batch has no tile rows to size chunks by
        return np.empty((0, cout, oh, ow), dtype=np.float32)
    g = kernel.groups
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    w = kernel.weights
    dw = g == cin == cout and s == 1
    if dw:
        # a ring of taps more than max(H, W) - 1 off centre reads only padding
        crop = max(0, p - max(x.shape[2:]) + 1)
        w, p = w[:, :, crop : k - crop, crop : k - crop], p - crop

    if p:
        # a zeroed buffer with x assigned into it: the same array as np.pad
        # gives, without its general-purpose set-up cost
        xp = np.zeros((b, cin, x.shape[2] + 2 * p, x.shape[3] + 2 * p), dtype=np.float32)
        xp[:, :, p:-p, p:-p] = x
    else:
        xp = x
    if dw:
        out = _depthwise_band(xp, w, oh, ow)
    else:
        cols = _im2col(xp, g, k, s, oh, ow)
        out = np.matmul(w.reshape(g, cout // g, -1), cols).reshape(b, cout, oh, ow)
    if kernel.bias.any():  # training-form convs carry all-zero biases
        out += kernel.bias[None, :, None, None]
    return out


def batchnorm_infer(x: np.ndarray, bn: BNParams) -> np.ndarray:
    """Apply inference batch normalization channel-wise."""
    check_tensor4(x)
    if x.shape[1] != bn.channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels but BN carries {bn.channels}"
        )
    scale = bn.gamma / np.sqrt(bn.var + np.float32(BN_EPS))
    shift = bn.beta - bn.mean * scale
    out = x * scale[None, :, None, None]
    out += shift[None, :, None, None]
    return out


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
