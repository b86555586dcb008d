"""Kernel-size scheduling across pyramid levels, and receptive-field
analysis of assembled graphs.

``LEVEL_STRIDES`` is the one statement of the pyramid: each level's name
and input stride, finest first.  The backbone has a stage at every level,
the neck and the heads at every level but the finest.

The scheduling idea: convolution kernels grow with the feature stride, so
deep, low-resolution levels see proportionally more context.  The default
schedule uses 3/5/7/9 along backbone stages P2..P5 and 5/7/9 at neck levels
P3..P5 on both fusion pathways.

The receptive-field analyzer walks a model graph along one input row and
carries, per node, the window of every output column: ``lo[j]`` and
``hi[j]``, the first and last input column that can reach column ``j``
(the index maps of Araujo, Norris & Sim, "Computing Receptive Fields of
Convolutional Neural Networks", Distill 2019).  Each op maps its output
columns to the input columns it reads; windows never shrink as ``j``
grows, so the first and last column read bound the union.  A fusion node
takes the union over its roles, each brought to its resolution by the
role's op, so windows that pooling and upsampling shift against each other
widen it.  A node's ``rf`` is its middle column's window size, on a row
wide enough that no middle window meets a row edge.  Its ``jump``, the
input stride between neighbouring output columns, is a product of conv
strides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import FUSION_ROLES, FUSION_UNITS
from .errors import GraphError, KernelError

__all__ = [
    "KernelPlan",
    "default_plan",
    "uniform_plan",
    "RFEntry",
    "receptive_field",
    "rf_report",
]

# pyramid level -> input stride, finest first
LEVEL_STRIDES = {"p2": 4, "p3": 8, "p4": 16, "p5": 32}
BACKBONE_LEVELS = tuple(LEVEL_STRIDES)
NECK_LEVELS = BACKBONE_LEVELS[1:]
PATHWAYS = ("shallow", "deep")
_NECK_ALLOWED = (5, 7, 9)


@dataclass
class KernelPlan:
    """Mixer kernel sizes per backbone stage and per neck level/pathway.

    Construction only checks well-formedness (all slots present, odd sizes),
    so deliberately off-schedule plans -- e.g. an all-3x3 ablation -- can be
    built and run.  :meth:`validate` additionally enforces the scheduling
    discipline and is what the model validator calls.
    """

    backbone: dict[str, int]
    neck: dict[str, dict[str, int]]

    def __post_init__(self):
        if tuple(self.backbone) != BACKBONE_LEVELS:
            raise KernelError(
                f"backbone plan must cover {BACKBONE_LEVELS}, got {tuple(self.backbone)}"
            )
        if tuple(self.neck) != PATHWAYS:
            raise KernelError(
                f"neck plan must cover pathways {PATHWAYS}, got {tuple(self.neck)}"
            )
        for pw in PATHWAYS:
            if tuple(self.neck[pw]) != NECK_LEVELS:
                raise KernelError(
                    f"neck[{pw}] must cover {NECK_LEVELS}, got {tuple(self.neck[pw])}"
                )
        for k in self._all_kernels():
            if not isinstance(k, int) or k < 3 or k % 2 == 0:
                raise KernelError(f"kernel sizes must be odd integers >= 3, got {k}")

    def _all_kernels(self):
        yield from self.backbone.values()
        for pw in PATHWAYS:
            yield from self.neck[pw].values()

    def backbone_kernel(self, level: str) -> int:
        return self.backbone[level]

    def neck_kernel(self, level: str, pathway: str) -> int:
        return self.neck[pathway][level]

    def validate(self) -> None:
        """Enforce the scheduling discipline: backbone sizes non-decreasing
        with depth, neck sizes drawn from {5, 7, 9} and non-decreasing."""
        seq = [self.backbone[lv] for lv in BACKBONE_LEVELS]
        if any(a > b for a, b in zip(seq, seq[1:])):
            raise KernelError(f"backbone kernels must be non-decreasing, got {seq}")
        for pw in PATHWAYS:
            ks = [self.neck[pw][lv] for lv in NECK_LEVELS]
            bad = [k for k in ks if k not in _NECK_ALLOWED]
            if bad:
                raise KernelError(
                    f"neck[{pw}] kernels must come from {_NECK_ALLOWED}, got {ks}"
                )
            if any(a > b for a, b in zip(ks, ks[1:])):
                raise KernelError(f"neck[{pw}] kernels must be non-decreasing, got {ks}")


def default_plan() -> KernelPlan:
    """The stride-matched schedule: 3/5/7/9 over backbone stages, 5/7/9 over
    neck levels on both pathways."""
    return KernelPlan(
        backbone={"p2": 3, "p3": 5, "p4": 7, "p5": 9},
        neck={
            "shallow": {"p3": 5, "p4": 7, "p5": 9},
            "deep": {"p3": 5, "p4": 7, "p5": 9},
        },
    )


def uniform_plan(kernel: int = 3) -> KernelPlan:
    """Every mixer at the same kernel size.  Useful as an ablation baseline;
    note it fails :meth:`KernelPlan.validate` unless the size happens to fit
    the schedule."""
    return KernelPlan(
        backbone={lv: kernel for lv in BACKBONE_LEVELS},
        neck={pw: {lv: kernel for lv in NECK_LEVELS} for pw in PATHWAYS},
    )


@dataclass(frozen=True)
class RFEntry:
    """Receptive field and effective stride of one node's output."""

    node: str
    rf: int
    stride: int

    def to_record(self) -> dict:
        return {"node": self.node, "rf": self.rf, "stride": self.stride}


def _conv(lo: np.ndarray, hi: np.ndarray, kernel: int, stride: int = 1):
    """Windows after a same-padded conv: output column ``j`` reads input
    columns ``stride*j - pad .. stride*j + pad``, clipped to the row."""
    centres = np.arange(0, lo.size, stride)
    pad = (kernel - 1) // 2
    return lo[np.maximum(centres - pad, 0)], hi[np.minimum(centres + pad, lo.size - 1)]


def _role_op(step: int, op: str | None, lo: np.ndarray, hi: np.ndarray):
    """Windows after a fusion role's op, in the order the node runs it: a
    unit's conv (``FUSION_UNITS`` geometry), then the 2x2 pool, reading
    columns 2j and 2j+1, or, for a coarser input, the nearest 2x upsample,
    reading column j // 2."""
    if op in FUSION_UNITS:
        lo, hi = _conv(lo, hi, *FUSION_UNITS[op])
    if op == "pool":
        return lo[0::2], hi[1::2]
    if step > 0:
        return np.repeat(lo, 2), np.repeat(hi, 2)
    return lo, hi


def _windows(graph, width: int) -> dict[str, tuple[np.ndarray, np.ndarray, int]]:
    """{node name: (lo, hi, jump)} over an input row ``width`` columns wide."""
    out: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    for node in graph.nodes.values():
        ins = [out[i] for i in node.inputs]
        kind = node.kind
        if kind == "input":
            cols = np.arange(width)
            out[node.name] = cols, cols, 1
        elif kind == "conv":
            lo, hi, jump = ins[0]
            stride = node.attrs.get("stride", 1)
            out[node.name] = *_conv(lo, hi, node.attrs["kernel"], stride), jump * stride
        elif kind in ("bn", "silu", "head"):
            out[node.name] = ins[0]
        elif kind == "rephms":
            lo, hi, jump = ins[0]
            # the cascade's longest chain of the block's kernel
            for _ in range((node.attrs["streams"] - 1) * node.attrs["blocks"]):
                lo, hi = _conv(lo, hi, node.attrs["kernel"])
            out[node.name] = lo, hi, jump
        elif kind in FUSION_ROLES:
            table = FUSION_ROLES[kind]
            by_role = dict(zip(node.attrs["roles"], ins))
            jump = by_role["same"][2]
            parts = []
            for role, (lo, hi, in_jump) in by_role.items():
                step, _, op = table[role]
                scale = 2 ** -step
                if in_jump * scale != jump:
                    raise GraphError(
                        f"node '{node.name}': {role} input sits at stride "
                        f"{in_jump}, expected {jump / scale:g}"
                    )
                parts.append(_role_op(step, op, lo, hi))
            los, his = zip(*parts)
            out[node.name] = np.minimum.reduce(los), np.maximum.reduce(his), jump
        else:
            raise GraphError(f"node '{node.name}' has unanalyzable kind '{kind}'")
    return out


def receptive_field(graph) -> dict[str, RFEntry]:
    """The receptive field and jump of every node of a model graph.

    Works on any graph object exposing ordered ``nodes`` (a mapping of name
    to nodes with ``kind``, ``inputs`` and ``attrs``).  Windows are carried
    along an input row of 4096 columns, doubled until every node's middle
    window is clear of both row edges; ``rf`` is that window's size.  A
    walk costs about the same at 256 columns as at 4096, so starting wide
    walks the nano and small presets once.  A fusion node sits at its
    ``same`` input's jump, and every other input, scaled by its role's
    resolution ``2 ** -step``, must land on that jump.
    """
    width = 4096
    while True:
        middle = {name: (lo[lo.size // 2], hi[hi.size // 2], jump)
                  for name, (lo, hi, jump) in _windows(graph, width).items()}
        if all(0 < lo and hi < width - 1 for lo, hi, _ in middle.values()):
            return {name: RFEntry(node=name, rf=int(hi - lo + 1), stride=jump)
                    for name, (lo, hi, jump) in middle.items()}
        width *= 2


def rf_report(graph) -> list[RFEntry]:
    """Receptive-field entries for the graph's head nodes, in graph order."""
    all_entries = receptive_field(graph)
    return [all_entries[n.name] for n in graph.nodes.values() if n.kind == "head"]
