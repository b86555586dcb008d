"""Composite blocks: conv+BN+SiLU units, the expand/mix/project bottleneck,
the multi-stream aggregation module built from it, and the two
cross-resolution fusion nodes used by the neck.

Everything here is a pure function over explicit weights; there is no
hidden module state.  Every composite node takes its weights as one
{slot path: unit} dict keyed by its layout (``rephms_layout``,
``saf_layout``, ``aaf_layout``).  In training form a slot is a ConvUnit with
batch norm, or a multi-branch mixer (``RepHConvWeights``); in deployed form
every slot is a BN-free ConvUnit, a merged mixer being one unactivated
depthwise conv.  :func:`fold_slot` is the one mapping from the first form
to the second.

``FUSION_ROLES`` is the one place the fusion nodes' input roles are
defined: each role's level step, the pathway it draws from and the op it
takes before the concat.  ``FUSION_UNITS`` gives the geometry of the conv
units those ops run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import KernelError, ShapeError, StateError
from .reparam import (
    RepHConvSpec,
    RepHConvWeights,
    fuse_conv_bn,
    merge_heterogeneous,
    random_rephconv,
    rephconv_forward,
)
from .tensor import (
    BNParams,
    ConvKernel,
    avgpool2d,
    batchnorm_infer,
    concat_channels,
    conv2d_fast,
    silu,
    split_channels,
    upsample2x,
)

__all__ = [
    "ConvUnit",
    "ConvUnitSpec",
    "MixerSpec",
    "RepHMSSpec",
    "FUSION_ROLES",
    "FUSION_UNITS",
    "conv_unit_forward",
    "rephms_forward",
    "saf_fuse",
    "aaf_fuse",
    "rephms_layout",
    "saf_layout",
    "aaf_layout",
    "rephms_concat_width",
    "fold_slot",
    "random_conv_unit",
    "random_rephms",
]


@dataclass(eq=False)
class ConvUnit:
    """A convolution, optionally batch-normalized, optionally activated.

    ``bn is None`` means the normalization has been folded into the conv
    (deployed form) or the unit never had one.
    """

    kernel: ConvKernel
    bn: BNParams | None = None
    act: bool = True

    def __post_init__(self):
        if self.bn is not None and self.bn.channels != self.kernel.out_channels:
            raise ShapeError(
                f"conv produces {self.kernel.out_channels} channels but BN "
                f"carries {self.bn.channels}"
            )


def conv_unit_forward(x: np.ndarray, unit: ConvUnit) -> np.ndarray:
    y = conv2d_fast(x, unit.kernel)
    if unit.bn is not None:
        y = batchnorm_infer(y, unit.bn)
    return silu(y) if unit.act else y


def fold_slot(unit: ConvUnit | RepHConvWeights) -> ConvUnit:
    """The deployed form of a training-form slot, a BN-free ConvUnit: a conv
    unit's BN folded into its conv, keeping its activation, or a mixer's
    branches merged into one unactivated depthwise conv.  Training-form
    slots always carry BN, so a slot without one is already deployed and
    raises rather than folding again."""
    if isinstance(unit, RepHConvWeights):
        return ConvUnit(kernel=merge_heterogeneous(unit), act=False)
    if unit.bn is None:
        raise StateError("slot is already in deployed form; refusing to fold again")
    return ConvUnit(kernel=fuse_conv_bn(unit.kernel, unit.bn), act=unit.act)


def _slot_forward(x: np.ndarray, unit: ConvUnit | RepHConvWeights) -> np.ndarray:
    if isinstance(unit, RepHConvWeights):  # a training-form mixer
        return rephconv_forward(x, unit)
    return conv_unit_forward(x, unit)


def _check_slots(paths: list[str], units: dict) -> None:
    """Reject a slot dict whose paths differ from a layout's ``paths``,
    naming the first missing or unexpected path."""
    for path in paths:
        if path not in units:
            raise StateError(f"weights lack slot '{path}'")
    for path in units:
        if path not in paths:
            raise StateError(f"weights carry unexpected slot '{path}'")


@dataclass(frozen=True)
class ConvUnitSpec:
    """Static description of a dense conv unit inside a composite module;
    ``path`` is the dotted slot name used for weight binding."""

    path: str
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    act: bool = True


@dataclass(frozen=True)
class MixerSpec:
    """Static description of a multi-branch depthwise mixer slot."""

    path: str
    spec: RepHConvSpec


@dataclass(frozen=True)
class RepHMSSpec:
    """Shape contract of one multi-stream aggregation module.

    The entry 1x1 maps ``in_ch`` to a hidden width equal to ``out_ch``,
    which is split into ``streams`` equal chunks.  Stream 1 passes through;
    each later stream adds the previous stream's final block output to its
    chunk and runs ``blocks_per_stream`` bottleneck blocks, every one of
    whose outputs is retained for the final concat.
    """

    in_ch: int
    out_ch: int
    streams: int
    blocks_per_stream: int
    kernel: int
    expansion: float = 2.0

    def __post_init__(self):
        if self.streams < 2:
            raise KernelError(f"need at least 2 streams, got {self.streams}")
        if self.blocks_per_stream < 1:
            raise KernelError(
                f"need at least 1 block per stream, got {self.blocks_per_stream}"
            )
        if self.kernel < 3 or self.kernel % 2 == 0:
            raise KernelError(f"mixer kernel must be odd and >= 3, got {self.kernel}")
        if self.out_ch % self.streams != 0:
            raise ShapeError(
                f"hidden width {self.out_ch} not divisible into {self.streams} streams"
            )
        if not 0 < self.expansion < math.inf:  # NaN fails too
            raise KernelError(f"expansion must be a positive finite number, got {self.expansion}")
        if self.expanded_width < 1:
            raise ShapeError(f"expansion {self.expansion} collapses the block width")

    @property
    def hidden(self) -> int:
        return self.out_ch

    @property
    def stream_width(self) -> int:
        return self.out_ch // self.streams

    @property
    def expanded_width(self) -> int:
        return int(round(self.stream_width * self.expansion))


def rephms_concat_width(spec: RepHMSSpec) -> int:
    """Channel count entering the exit conv: the passthrough chunk plus one
    retained output per block of every active stream."""
    n, m = spec.streams, spec.blocks_per_stream
    return spec.stream_width * (1 + (n - 1) * m)


@cache
def rephms_layout(spec: RepHMSSpec) -> tuple[ConvUnitSpec | MixerSpec, ...]:
    """Every weighted slot inside the module, in evaluation order.

    This single sequence drives weight initialization, binding, evaluation
    and parameter accounting, so they cannot drift apart.  It is built once
    per spec and shared, hence immutable.
    """
    cw = spec.stream_width
    ec = spec.expanded_width
    slots: list[ConvUnitSpec | MixerSpec] = [
        ConvUnitSpec("entry", spec.in_ch, spec.hidden, 1)
    ]
    for s in range(2, spec.streams + 1):
        for b in range(1, spec.blocks_per_stream + 1):
            base = f"s{s}.b{b}"
            slots.append(ConvUnitSpec(f"{base}.expand", cw, ec, 1))
            slots.append(MixerSpec(f"{base}.mixer", RepHConvSpec(ec, spec.kernel)))
            slots.append(ConvUnitSpec(f"{base}.pw", ec, ec, 1))
            slots.append(ConvUnitSpec(f"{base}.proj", ec, cw, 1, act=False))
    slots.append(ConvUnitSpec("exit", rephms_concat_width(spec), spec.out_ch, 1))
    return tuple(slots)


def rephms_forward(x: np.ndarray, spec: RepHMSSpec, units: dict) -> np.ndarray:
    """Entry conv, split, cascaded streams with every block output retained,
    concat, exit conv.  ``units`` is the module's {slot path: unit} dict in
    either form (a mixer slot holds RepHConvWeights in training form and a
    ConvUnit once deployed), keyed exactly by :func:`rephms_layout`, whose
    order is evaluation order: the entry, each stream's blocks (an equal
    run of slots each), the exit."""
    paths = [slot.path for slot in rephms_layout(spec)]
    _check_slots(paths, units)
    entry, *inner, exit_ = paths
    m = spec.blocks_per_stream
    size = len(inner) // ((spec.streams - 1) * m)  # slots per block
    blocks = [inner[i : i + size] for i in range(0, len(inner), size)]
    chunks = split_channels(conv_unit_forward(x, units[entry]), spec.streams)
    retained = [chunks[0]]
    h = None
    for s, chunk in enumerate(chunks[1:]):
        h = chunk if h is None else chunk + h
        for block in blocks[s * m : (s + 1) * m]:
            for path in block:
                h = _slot_forward(h, units[path])
            retained.append(h)
    return conv_unit_forward(concat_channels(retained), units[exit_])


# ---------------------------------------------------------------------------
# cross-resolution fusion nodes

# The input roles of each fusion kind, in concat order: role -> (step, the
# input's pyramid level relative to the node's, so its resolution is
# ``2 ** -step`` times the output's; the pathway whose node at that level
# feeds it; the op applied before the concat).  ``pool`` is silu(avgpool);
# ``up`` a bare 2x upsample; ``ctrl`` the node's 1x1 unit, run at the coarse
# resolution before the upsample (a per-pixel unit commutes with a
# nearest-neighbour upsample, and costs a quarter as much there); ``down``
# its 3x3/stride-2 unit.  Assembly, evaluation, shape inference, receptive
# fields, slot layouts and FLOP counts all read this table.
FUSION_ROLES = {
    "saf": {
        "below": (-1, "backbone", "pool"),
        "same": (0, "backbone", None),
        "above": (1, "backbone", "ctrl"),
        "above_refined": (1, "shallow", "up"),
    },
    "aaf": {
        "below_refined": (-1, "shallow", "down"),
        "below_deep": (-1, "deep", "pool"),
        "same": (0, "shallow", None),
        "above_refined": (1, "shallow", "ctrl"),
    },
}
# ops that run the node's conv unit of the same name: op -> (kernel, stride)
FUSION_UNITS = {"ctrl": (1, 1), "down": (3, 2)}


def saf_layout(same_ch: int, above_ch: int | None) -> list[ConvUnitSpec]:
    """Weighted slots of a shallow fusion node."""
    if above_ch is None:
        return []
    return [ConvUnitSpec("ctrl", above_ch, same_ch // 2, *FUSION_UNITS["ctrl"])]


def aaf_layout(width: int, roles: tuple[str, ...]) -> list[ConvUnitSpec]:
    """Weighted slots of a deep fusion node, one per role whose op carries
    a conv, in role order."""
    ops = (FUSION_ROLES["aaf"][role][2] for role in roles)
    return [ConvUnitSpec(op, width, width, *FUSION_UNITS[op])
            for op in ops if op in FUSION_UNITS]


def _fusion_parts(kind: str, inputs: tuple, weights: dict) -> list[np.ndarray]:
    """The concat terms of a fusion node: each present input, in role order,
    passed through its role's op and brought to the resolution of ``same``.
    ``ctrl`` and ``down`` run the node's unit of that name from ``weights``,
    a {slot path: ConvUnit} dict keyed exactly by the slots of the present
    roles (``saf_layout``, ``aaf_layout``), at the input's own resolution:
    ``ctrl`` before its upsample, ``down`` striding to the target."""
    table = FUSION_ROLES[kind]
    ops = [op for (_, _, op), x in zip(table.values(), inputs) if x is not None]
    _check_slots([op for op in ops if op in FUSION_UNITS], weights)
    same = inputs[list(table).index("same")]
    parts = []
    for (role, (step, _, op)), x in zip(table.items(), inputs):
        if x is None:
            continue
        scale = 2 ** -step
        want = (same.shape[2] * scale, same.shape[3] * scale)
        if x.shape[2:] != want:
            raise ShapeError(
                f"{role} input has spatial dims {x.shape[2:]} but must be exactly "
                f"{'twice' if step < 0 else 'half'} the target {same.shape[2:]}"
            )
        if op in FUSION_UNITS:
            x = conv_unit_forward(x, weights[op])
        if op == "pool":
            x = silu(avgpool2d(x))
        elif step > 0:
            x = upsample2x(x)
        parts.append(x)
    return parts


def saf_fuse(
    below: np.ndarray | None,
    same: np.ndarray,
    above: np.ndarray | None,
    above_refined: np.ndarray | None,
    weights: dict,
) -> np.ndarray:
    """Shallow cross-resolution fusion.

    Concatenates, at the resolution of ``same``:

    * the finer backbone level, average-pooled then activated,
    * the same-level backbone feature untouched,
    * the coarser backbone level, channel-controlled (1x1 conv to half the
      same-level width) and activated at its own resolution, then
      upsampled,
    * the coarser refined feature, upsampled as-is.

    Boundary levels pass ``None`` for inputs that do not exist; the concat
    simply shrinks.  ``weights`` is the node's {slot path: ConvUnit} dict,
    holding ``ctrl`` when ``above`` is given.
    """
    return concat_channels(
        _fusion_parts("saf", (below, same, above, above_refined), weights)
    )


def aaf_fuse(
    below_refined: np.ndarray | None,
    below_deep: np.ndarray | None,
    same_refined: np.ndarray,
    above_refined: np.ndarray | None,
    weights: dict,
) -> np.ndarray:
    """Deep cross-resolution fusion.

    Concatenates, at the resolution of ``same_refined``:

    * the finer refined level brought down by a 3x3/stride-2 conv, activated,
    * the finer deep-pathway output, average-pooled then activated,
    * the same-level refined feature untouched,
    * the coarser refined level, 1x1-controlled and activated at its own
      resolution, then upsampled.

    All contributions carry the same channel width, so attention-style
    weighting downstream sees equal-sized operands; a width mismatch is a
    wiring bug and raises.  ``weights`` is the node's {slot path: ConvUnit}
    dict, holding ``down`` and ``ctrl`` when their inputs are given.
    """
    width = same_refined.shape[1]
    parts = _fusion_parts(
        "aaf", (below_refined, below_deep, same_refined, above_refined), weights
    )
    for i, p in enumerate(parts):
        if p.shape[1] != width:
            raise ShapeError(
                f"deep fusion expects equal channel widths, but contribution "
                f"{i} has {p.shape[1]} channels instead of {width}"
            )
    return concat_channels(parts)


# ---------------------------------------------------------------------------
# random builders (tests, equivalence sweeps)


def random_conv_unit(spec: ConvUnitSpec, rng: np.random.Generator) -> ConvUnit:
    """Sample a training-form unit: fan-in-scaled weights, mildly random BN."""
    fan_in = spec.in_ch * spec.kernel * spec.kernel
    w = (rng.standard_normal((spec.out_ch, spec.in_ch, spec.kernel, spec.kernel))
         * np.sqrt(2.0 / fan_in)).astype(np.float32)
    bn = BNParams(
        mean=rng.normal(0.0, 0.2, spec.out_ch).astype(np.float32),
        var=rng.uniform(0.5, 1.5, spec.out_ch).astype(np.float32),
        gamma=rng.uniform(0.5, 1.5, spec.out_ch).astype(np.float32),
        beta=rng.normal(0.0, 0.2, spec.out_ch).astype(np.float32),
    )
    kernel = ConvKernel(weights=w, stride=spec.stride)
    return ConvUnit(kernel=kernel, bn=bn, act=spec.act)


def random_rephms(spec: RepHMSSpec, rng: np.random.Generator) -> dict:
    """Sample a full training-form aggregation module as its slot dict."""
    return {
        slot.path: random_rephconv(slot.spec, rng)
        if isinstance(slot, MixerSpec)
        else random_conv_unit(slot, rng)
        for slot in rephms_layout(spec)
    }
