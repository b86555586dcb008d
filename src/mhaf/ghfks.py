"""Kernel-size scheduling across pyramid levels, and receptive-field
analysis of assembled graphs.

The scheduling idea: convolution kernels grow with the feature stride, so
deep, low-resolution levels see proportionally more context.  The default
schedule uses 3/5/7/9 along backbone stages P2..P5 and 5/7/9 at neck levels
P3..P5 on both fusion pathways.

The receptive-field analyzer walks a model graph and propagates, per node,
the classic (rf, jump) pair: ``rf`` is the input-pixel extent one output
element can see, ``jump`` the effective stride between neighbouring output
elements.  A conv with kernel k at jump j grows rf by (k-1)*j and
multiplies j by its stride, so every jump is an integer product of conv
strides.  A fusion node takes the worst (largest) rf over its input paths,
each grown by its role's op, and sits at its same-level input's jump.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import FUSION_ROLES
from .errors import GraphError, KernelError

__all__ = [
    "KernelPlan",
    "default_plan",
    "uniform_plan",
    "RFEntry",
    "receptive_field",
    "rf_report",
]

BACKBONE_LEVELS = ("p2", "p3", "p4", "p5")
NECK_LEVELS = ("p3", "p4", "p5")
PATHWAYS = ("shallow", "deep")
_NECK_ALLOWED = (5, 7, 9)
# input steps a fusion role's op adds to the receptive field: the 2x2 pool
# one, the 3x3 down conv two
_RF_STEPS = {"pool": 1, "down": 2}


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


def receptive_field(graph) -> dict[str, RFEntry]:
    """Propagate (rf, jump) through every node of a model graph.

    Works on any graph object exposing ordered ``nodes`` (a mapping of name
    to nodes with ``kind``, ``inputs`` and ``attrs``).  A fusion node sits
    at its ``same`` input's jump and takes the largest rf over its inputs;
    every other input, scaled by its role's resolution, must land on that
    jump.
    """
    entries: dict[str, RFEntry] = {}
    for node in graph.nodes.values():
        ins = [entries[i] for i in node.inputs]
        kind = node.kind
        if kind == "input":
            rf, jump = 1, 1
        elif kind == "conv":
            rf = ins[0].rf + (node.attrs["kernel"] - 1) * ins[0].stride
            jump = ins[0].stride * node.attrs.get("stride", 1)
        elif kind in ("bn", "silu", "head"):
            rf, jump = ins[0].rf, ins[0].stride
        elif kind == "rephms":
            depth = (node.attrs["streams"] - 1) * node.attrs["blocks"]
            rf = ins[0].rf + depth * (node.attrs["kernel"] - 1) * ins[0].stride
            jump = ins[0].stride
        elif kind in FUSION_ROLES:
            table = FUSION_ROLES[kind]
            by_role = dict(zip(node.attrs["roles"], ins))
            jump = by_role["same"].stride
            rf = 0
            for role, entry in by_role.items():
                scale, op = table[role]
                if entry.stride * scale != jump:
                    raise GraphError(
                        f"node '{node.name}': {role} input sits at stride "
                        f"{entry.stride}, expected {jump / scale:g}"
                    )
                rf = max(rf, entry.rf + _RF_STEPS.get(op, 0) * entry.stride)
        else:
            raise GraphError(f"node '{node.name}' has unanalyzable kind '{kind}'")
        entries[node.name] = RFEntry(node=node.name, rf=rf, stride=jump)
    return entries


def rf_report(graph) -> list[RFEntry]:
    """Receptive-field entries for the graph's head nodes, in graph order."""
    all_entries = receptive_field(graph)
    return [all_entries[n.name] for n in graph.nodes.values() if n.kind == "head"]
