"""Whole-model graph: assembly from a configuration, shape inference,
parameter/FLOP bookkeeping, structural validation, and export.

A graph is an ordered set of typed nodes (insertion order is topological by
construction).  Primitive kinds (conv, bn, silu) carry their own
semantics; composite kinds (rephms, saf, aaf) encapsulate an aggregation
module or a fusion node, whose internal weighted slots are enumerated by the
layout helpers in :mod:`mhaf.blocks`.  Pooling, upsampling and
concatenation run only inside the fusion nodes.  Weight entries are
named only here (``node_param_entries``, ``slot_entries``); initialization,
binding, fusion and bookkeeping read those lists.  The fusion kinds' input
roles (``attrs["roles"]``, one per input) come from
:data:`mhaf.blocks.FUSION_ROLES`, the one place their resolutions and ops
are defined; ``add`` rejects roles outside it.

Node naming is stable and positional (``backbone.p3``, ``neck.p4.shallow``,
``head.p5``), which weight stores rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import (
    FUSION_ROLES,
    FUSION_UNITS,
    ConvUnitSpec,
    MixerSpec,
    RepHMSSpec,
    aaf_layout,
    rephms_layout,
    saf_layout,
)
from .config import ModelSpec, spec_hash
from .errors import GraphError, ShapeError
from .ghfks import BACKBONE_LEVELS, NECK_LEVELS, KernelPlan, default_plan
from .tensor import conv_output_size

__all__ = [
    "Node",
    "ModelGraph",
    "ParamEntry",
    "assemble",
    "shape_infer",
    "check_input_size",
    "count_params_flops",
    "Bookkeeping",
    "node_param_entries",
    "slot_entries",
    "graph_param_entries",
    "rephms_spec",
    "export_graph",
    "validate_model",
    "Check",
]

KINDS = frozenset(
    {
        "input",
        "conv",
        "bn",
        "silu",
        "rephms",
        "saf",
        "aaf",
        "head",
    }
)

HEAD_STRIDES = {"p3": 8, "p4": 16, "p5": 32}


@dataclass(frozen=True)
class Node:
    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    attrs: dict = field(default_factory=dict)


class ModelGraph:
    """Ordered DAG of named nodes.  ``add`` enforces that inputs already
    exist, so insertion order doubles as a topological order."""

    def __init__(self, form: str = "training", meta: dict | None = None):
        self.nodes: dict[str, Node] = {}
        self.outputs: tuple[str, ...] = ()
        self.form = form
        self.meta = dict(meta or {})

    def add(self, name: str, kind: str, inputs: tuple[str, ...] = (), **attrs) -> Node:
        if kind not in KINDS:
            raise GraphError(f"unknown node kind '{kind}'")
        if name in self.nodes:
            raise GraphError(f"duplicate node name '{name}'")
        for inp in inputs:
            if inp not in self.nodes:
                raise GraphError(f"node '{name}' references unknown input '{inp}'")
        if kind in FUSION_ROLES:
            _check_roles(name, kind, tuple(attrs.get("roles", ())), len(inputs))
        node = Node(name=name, kind=kind, inputs=tuple(inputs), attrs=attrs)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise GraphError(f"no node named '{name}'") from None

    def __iter__(self):
        return iter(self.nodes.values())

    def __len__(self):
        return len(self.nodes)

    def edges(self) -> list[tuple[str, str]]:
        return [(src, node.name) for node in self for src in node.inputs]


def _check_roles(name: str, kind: str, roles: tuple[str, ...], n_inputs: int) -> None:
    """A fusion node names one distinct role of its kind per input, and
    always the same-level one."""
    for i, role in enumerate(roles):
        if role not in FUSION_ROLES[kind]:
            raise GraphError(f"node '{name}' has unknown {kind} role '{role}'")
        if role in roles[:i]:
            raise GraphError(f"node '{name}' lists role '{role}' twice")
    if "same" not in roles:
        raise GraphError(f"node '{name}' lacks the 'same' role among {roles}")
    if len(roles) != n_inputs:
        raise GraphError(
            f"node '{name}' gives roles {roles} for {n_inputs} inputs; "
            f"each input needs exactly one role"
        )


# ---------------------------------------------------------------------------
# assembly


def rephms_spec(node: Node) -> RepHMSSpec:
    """The shape contract of a ``rephms`` node, from its attributes."""
    a = node.attrs
    return RepHMSSpec(
        in_ch=a["in_ch"],
        out_ch=a["out_ch"],
        streams=a["streams"],
        blocks_per_stream=a["blocks"],
        kernel=a["kernel"],
        expansion=a["expansion"],
    )


def _add_conv_bn_act(graph, base, src, in_ch, out_ch, kernel, stride):
    graph.add(
        f"{base}.conv", "conv", (src,),
        in_ch=in_ch, out_ch=out_ch, kernel=kernel, stride=stride, groups=1, bias=False,
    )
    graph.add(f"{base}.bn", "bn", (f"{base}.conv",), channels=out_ch)
    graph.add(f"{base}.act", "silu", (f"{base}.bn",))
    return f"{base}.act"


def assemble(spec: ModelSpec, plan: KernelPlan | None = None) -> ModelGraph:
    """Build the training-form detection backbone+neck graph.

    Structure: a two-conv stride-4 stem; four backbone stages (P2..P5), each
    a stride-2 downsample followed by an aggregation module; a first
    (shallow) fusion pathway running coarse-to-fine over P5..P3; a second
    (deep) fusion pathway running fine-to-coarse over P3..P5; and one head
    stub per neck level at strides 8/16/32.

    The shallow fusion at level n consumes backbone levels n-1, n, n+1 plus
    the already-refined level n+1; the deep fusion at level n consumes
    refined levels n-1, n, n+1 plus the deep-pathway output at n-1 --
    missing neighbours at the pyramid boundaries simply drop out of the
    concat (P5 shallow keeps 2 terms, P3 deep 2, P5 deep 3).
    """
    plan = plan or default_plan()
    cs = spec.scaled_stage_channels
    w = spec.scaled_neck_channels
    graph = ModelGraph(
        form="training",
        meta={
            "scale": spec.scale,
            "input_size": spec.input_size,
            "spec_hash": spec_hash(spec),
        },
    )

    graph.add("images", "input", channels=3, divisor=32)

    stem_ch = max(8, cs[0] // 2)
    prev = _add_conv_bn_act(graph, "stem.1", "images", 3, stem_ch, 3, 2)
    prev = _add_conv_bn_act(graph, "stem.2", prev, stem_ch, cs[0], 3, 2)

    def add_rephms(name, src, in_ch, out_ch, streams, blocks, kernel):
        graph.add(
            name, "rephms", (src,),
            in_ch=in_ch, out_ch=out_ch, streams=streams, blocks=blocks,
            kernel=kernel, expansion=spec.expansion,
        )
        rephms_spec(graph.node(name))  # surface bad stream splits right here
        return name

    for i, level in enumerate(BACKBONE_LEVELS):
        if level != "p2":
            prev = _add_conv_bn_act(
                graph, f"backbone.{level}.down", prev, cs[i - 1], cs[i], 3, 2
            )
        prev = add_rephms(
            f"backbone.{level}", prev, cs[i], cs[i],
            spec.backbone_streams, spec.scaled_backbone_blocks,
            plan.backbone_kernel(level),
        )

    bb = {lv: f"backbone.{lv}" for lv in BACKBONE_LEVELS}
    ch = {bb[lv]: c for lv, c in zip(BACKBONE_LEVELS, cs)}

    # one fusion node and the aggregation module after it; ``sources`` are
    # in the kind's FUSION_ROLES order, None where a pyramid boundary drops
    # the role
    def add_fusion(level, pathway, kind, sources, **attrs):
        roles, inputs = zip(*((r, s) for r, s in zip(FUSION_ROLES[kind], sources) if s))
        fuse = f"neck.{level}.{pathway}.fuse"
        probe = Node(fuse, kind, inputs, dict(roles=roles, **attrs))
        out_ch = sum(_fusion_widths(probe, [ch[src] for src in inputs]))
        graph.add(fuse, kind, inputs, roles=roles, **attrs, out_ch=out_ch)
        name = add_rephms(
            f"neck.{level}.{pathway}", fuse, out_ch, w,
            spec.neck_streams, spec.scaled_neck_blocks,
            plan.neck_kernel(level, pathway),
        )
        ch[name] = w

    # first fusion pathway (shallow), coarsest level first
    shallow = {
        "p5": (bb["p4"], bb["p5"], None, None),
        "p4": (bb["p3"], bb["p4"], bb["p5"], "neck.p5.shallow"),
        "p3": (bb["p2"], bb["p3"], bb["p4"], "neck.p4.shallow"),
    }
    for level, sources in shallow.items():
        add_fusion(
            level, "shallow", "saf", sources,
            same_ch=ch[sources[1]], above_ch=ch.get(sources[2]),
        )

    # second fusion pathway (deep), finest level first
    deep = {
        "p3": (None, None, "neck.p3.shallow", "neck.p4.shallow"),
        "p4": ("neck.p3.shallow", "neck.p3.deep", "neck.p4.shallow", "neck.p5.shallow"),
        "p5": ("neck.p4.shallow", "neck.p4.deep", "neck.p5.shallow", None),
    }
    for level, sources in deep.items():
        add_fusion(level, "deep", "aaf", sources, width=w)

    for level in NECK_LEVELS:
        graph.add(
            f"head.{level}", "head", (f"neck.{level}.deep",),
            level=level, stride=HEAD_STRIDES[level], channels=w,
        )
    graph.outputs = tuple(f"head.{lv}" for lv in NECK_LEVELS)
    return graph


# ---------------------------------------------------------------------------
# shape inference


def check_input_size(node: Node, hw: tuple[int, int]) -> None:
    """Reject a spatial input size that the model's downsampling stages
    cannot halve cleanly: both extents must be positive multiples of the
    input node's ``divisor``."""
    div = node.attrs.get("divisor", 1)
    if hw[0] <= 0 or hw[1] <= 0:
        raise ShapeError(
            f"input size {hw[0]}x{hw[1]} must be a positive multiple of {div} "
            f"in both extents"
        )
    if hw[0] % div or hw[1] % div:
        raise ShapeError(
            f"input size {hw[0]}x{hw[1]} must be divisible by {div} for this model"
        )


def _fusion_widths(node: Node, channels) -> list[int]:
    """Each input's contribution to a fusion node's concat, in role order:
    the input's own ``channels`` or, for a ``ctrl``/``down`` role, the
    output channels of the node's unit of that name."""
    table = FUSION_ROLES[node.kind]
    slots = {slot.path: slot for slot in node_slots(node).values()}
    widths = []
    for role, c in zip(node.attrs["roles"], channels):
        op = table[role][1]
        if op in FUSION_UNITS:
            want = slots[op].in_ch if op in slots else None
            if c != want:
                raise ShapeError(
                    f"node '{node.name}': {role} input has {c} channels but "
                    f"its {op} conv takes {want}"
                )
            c = slots[op].out_ch
        widths.append(c)
    return widths


def _fusion_shape(node: Node, ins: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Output shape of a fusion node: every input sits at its role's
    resolution, and contributes the width :func:`_fusion_widths` gives."""
    table = FUSION_ROLES[node.kind]
    roles = node.attrs["roles"]
    h, wd = next(s[1:] for role, s in zip(roles, ins) if table[role][0] == 1)
    for role, (_, h_in, w_in) in zip(roles, ins):
        scale = table[role][0]
        if (h_in, w_in) != (h * scale, wd * scale):
            raise ShapeError(
                f"node '{node.name}': {role} input is {h_in}x{w_in}, "
                f"expected {h * scale:g}x{wd * scale:g}"
            )
    widths = _fusion_widths(node, [s[0] for s in ins])
    if node.kind == "aaf" and len(set(widths)) != 1:
        raise ShapeError(
            f"node '{node.name}' expects equal channel widths, but its "
            f"contributions have {widths}"
        )
    if sum(widths) != node.attrs["out_ch"]:
        raise GraphError(
            f"node '{node.name}' declares {node.attrs['out_ch']} output "
            f"channels but its inputs produce {sum(widths)}"
        )
    return (sum(widths), h, wd)


def shape_infer(graph: ModelGraph, input_size=None) -> dict[str, tuple[int, int, int]]:
    """Propagate (channels, height, width) through every node, validating
    channel and resolution consistency along the way.

    ``input_size`` is an int (square) or (h, w) pair; defaults to the
    assembly-time input size when the graph carries one.
    """
    if input_size is None:
        input_size = graph.meta.get("input_size")
        if input_size is None:
            raise ShapeError("graph carries no default input size; pass one")
    hw = (input_size, input_size) if isinstance(input_size, int) else tuple(input_size)

    shapes: dict[str, tuple[int, int, int]] = {}
    for node in graph:
        ins = [shapes[i] for i in node.inputs]
        kind = node.kind
        if kind == "input":
            check_input_size(node, hw)
            shape = (node.attrs.get("channels", 3), hw[0], hw[1])
        elif kind == "conv":
            c, h, wd = ins[0]
            a = node.attrs
            if c != a["in_ch"]:
                raise ShapeError(
                    f"node '{node.name}' expects {a['in_ch']} channels, got {c}"
                )
            shape = (
                a["out_ch"],
                conv_output_size(h, a["stride"]),
                conv_output_size(wd, a["stride"]),
            )
        elif kind in ("bn", "silu", "head"):
            shape = ins[0]
            if kind == "bn" and shape[0] != node.attrs["channels"]:
                raise ShapeError(
                    f"node '{node.name}' normalizes {node.attrs['channels']} "
                    f"channels but receives {shape[0]}"
                )
            if kind == "head":
                want = node.attrs.get("stride")
                got = hw[0] // shape[1]
                if want is not None and got != want:
                    raise GraphError(
                        f"head '{node.name}' sits at stride {got}, expected {want}"
                    )
        elif kind == "rephms":
            c, h, wd = ins[0]
            if c != node.attrs["in_ch"]:
                raise ShapeError(
                    f"node '{node.name}' expects {node.attrs['in_ch']} channels, got {c}"
                )
            shape = (node.attrs["out_ch"], h, wd)
        elif kind in FUSION_ROLES:
            shape = _fusion_shape(node, ins)
        else:
            raise GraphError(f"node '{node.name}' has uninferable kind '{kind}'")
        shapes[node.name] = shape
    return shapes


# ---------------------------------------------------------------------------
# weight entry enumeration


@dataclass(frozen=True)
class ParamEntry:
    """One named array in a weight store."""

    name: str
    shape: tuple[int, ...]
    kind: str  # conv_weight | conv_bias | bn_gamma | bn_beta | bn_mean | bn_var

    @property
    def learnable(self) -> bool:
        # BN running statistics are buffers, not parameters
        return self.kind not in ("bn_mean", "bn_var")

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


def _bn_entries(prefix: str, channels: int) -> list[ParamEntry]:
    return [
        ParamEntry(f"{prefix}.gamma", (channels,), "bn_gamma"),
        ParamEntry(f"{prefix}.beta", (channels,), "bn_beta"),
        ParamEntry(f"{prefix}.mean", (channels,), "bn_mean"),
        ParamEntry(f"{prefix}.var", (channels,), "bn_var"),
    ]


def _unit_entries(prefix: str, slot: ConvUnitSpec, form: str) -> list[ParamEntry]:
    wshape = (slot.out_ch, slot.in_ch, slot.kernel, slot.kernel)
    entries = [ParamEntry(f"{prefix}.conv.weight", wshape, "conv_weight")]
    if form == "deployed":
        entries.append(ParamEntry(f"{prefix}.conv.bias", (slot.out_ch,), "conv_bias"))
    else:
        entries.extend(_bn_entries(f"{prefix}.bn", slot.out_ch))
    return entries


def _mixer_entries(prefix: str, mixer: MixerSpec, form: str) -> list[ParamEntry]:
    spec = mixer.spec
    if form == "deployed":
        k = spec.main_kernel
        return [
            ParamEntry(f"{prefix}.fused.weight", (spec.channels, 1, k, k), "conv_weight"),
            ParamEntry(f"{prefix}.fused.bias", (spec.channels,), "conv_bias"),
        ]
    entries = []
    for k in spec.all_kernels:
        entries.append(
            ParamEntry(f"{prefix}.k{k}.conv.weight", (spec.channels, 1, k, k), "conv_weight")
        )
        entries.extend(_bn_entries(f"{prefix}.k{k}.bn", spec.channels))
    return entries


def node_slots(node: Node) -> dict[str, ConvUnitSpec | MixerSpec]:
    """{entry prefix ``node.slot-path``: slot} for every weighted slot
    inside a composite node, in slot order (empty for primitives)."""
    if node.kind == "rephms":
        slots = rephms_layout(rephms_spec(node))
    elif node.kind == "saf":
        slots = saf_layout(node.attrs["same_ch"], node.attrs["above_ch"])
    elif node.kind == "aaf":
        slots = aaf_layout(node.attrs["width"], node.attrs["roles"])
    else:
        slots = []
    return {f"{node.name}.{slot.path}": slot for slot in slots}


def slot_entries(prefix: str, slot: ConvUnitSpec | MixerSpec, form: str) -> list[ParamEntry]:
    """The entries of one weighted slot of a composite node, named
    ``prefix.*``, in the given form."""
    if isinstance(slot, MixerSpec):
        return _mixer_entries(prefix, slot, form)
    return _unit_entries(prefix, slot, form)


def node_param_entries(node: Node, form: str) -> list[ParamEntry]:
    """Every weight-store entry a node contributes, in deterministic order."""
    if node.kind == "conv":
        a = node.attrs
        wshape = (a["out_ch"], a["in_ch"] // a["groups"], a["kernel"], a["kernel"])
        entries = [ParamEntry(f"{node.name}.weight", wshape, "conv_weight")]
        if a.get("bias"):
            entries.append(ParamEntry(f"{node.name}.bias", (a["out_ch"],), "conv_bias"))
        return entries
    if node.kind == "bn":
        return _bn_entries(node.name, node.attrs["channels"])
    return [
        entry
        for prefix, slot in node_slots(node).items()
        for entry in slot_entries(prefix, slot, form)
    ]


def graph_param_entries(graph: ModelGraph) -> list[ParamEntry]:
    entries = []
    for node in graph:
        entries.extend(node_param_entries(node, graph.form))
    return entries


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Bookkeeping:
    """Learnable parameter and FLOP totals (FLOPs = 2 * conv MACs; batch
    norm, activations and resampling are not counted)."""

    params: int
    flops: int
    per_node: dict[str, tuple[int, int]]


def count_params_flops(graph: ModelGraph, input_size=None) -> Bookkeeping:
    """Learnable parameters and inference FLOPs of the graph as it stands
    (training form counts every branch; deployed form counts merged convs).
    """
    shapes = shape_infer(graph, input_size)
    per_node = {}
    total_p = 0
    total_f = 0
    for node in graph:
        entries = node_param_entries(node, graph.form)
        params = sum(e.size for e in entries if e.learnable)
        _, h, w = shapes[node.name]
        if node.kind in FUSION_ROLES:
            # a fusion unit writes its map at its role's resolution over its
            # stride: ``ctrl`` runs before its upsample, on a quarter of the
            # pixels, and ``down`` lands on the node's own resolution
            scales = {op: scale for scale, op in FUSION_ROLES[node.kind].values()}
            flops = 0
            for prefix, slot in node_slots(node).items():
                oh, ow = (int(n * scales[slot.path]) // slot.stride for n in (h, w))
                convs = slot_entries(prefix, slot, graph.form)
                flops += 2 * oh * ow * sum(e.size for e in convs if e.kind == "conv_weight")
        else:
            # every conv of any other node writes a map at its resolution
            flops = 2 * h * w * sum(e.size for e in entries if e.kind == "conv_weight")
        per_node[node.name] = (params, flops)
        total_p += params
        total_f += flops
    return Bookkeeping(params=total_p, flops=total_f, per_node=per_node)


# ---------------------------------------------------------------------------
# export


def _node_label(node: Node) -> str:
    a = node.attrs
    if node.kind == "conv":
        detail = f" {a['kernel']}x{a['kernel']}/{a['stride']} {a['in_ch']}->{a['out_ch']}"
    elif node.kind == "rephms":
        detail = f" k{a['kernel']} n{a['streams']} m{a['blocks']} {a['in_ch']}->{a['out_ch']}"
    elif node.kind in FUSION_ROLES:
        detail = f" x{len(node.inputs)} ->{a['out_ch']}"
    elif node.kind == "bn":
        detail = f" c{a['channels']}"
    elif node.kind == "head":
        detail = f" /{a['stride']}"
    else:
        detail = ""
    return f"{node.name}\\n{node.kind}{detail}"


def export_graph(graph: ModelGraph, fmt: str = "dot"):
    """Serialize the graph structure.

    ``dot`` returns Graphviz text (deterministic: re-export of the same
    graph is byte-identical).  ``records`` returns a list of flat dicts,
    one per node and one per edge, for line-oriented tooling.
    """
    if fmt == "dot":
        lines = [f'digraph "{graph.meta.get("scale", "model")}" {{', "  rankdir=TB;"]
        for node in graph:
            lines.append(f'  "{node.name}" [label="{_node_label(node)}"];')
        for src, dst in graph.edges():
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "records":
        records = []
        for node in graph:
            rec = {"type": "node", "name": node.name, "kind": node.kind}
            for key, value in node.attrs.items():
                if isinstance(value, (int, float, str, bool, type(None))):
                    rec[key] = value
                elif isinstance(value, tuple):
                    rec[key] = list(value)
            records.append(rec)
        records.extend(
            {"type": "edge", "src": src, "dst": dst} for src, dst in graph.edges()
        )
        return records
    raise ValueError(f"unknown export format '{fmt}'")


# ---------------------------------------------------------------------------
# validation checklist


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def validate_model(spec: ModelSpec, plan: KernelPlan | None = None) -> list[Check]:
    """Run the standard structural checks on a configuration and return one
    pass/fail entry per check."""
    checks: list[Check] = []
    plan = plan or default_plan()

    def run(name, fn):
        try:
            detail = fn()
            checks.append(Check(name, True, detail or "ok"))
            return True
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append(Check(name, False, str(exc)))
            return False

    cs = spec.scaled_stage_channels
    run(
        "config",
        lambda: (
            f"scale={spec.scale} stages={list(cs)} neck={spec.scaled_neck_channels} "
            f"streams={spec.backbone_streams}/{spec.neck_streams} "
            f"blocks={spec.scaled_backbone_blocks}/{spec.scaled_neck_blocks}"
        ),
    )
    run("kernel-plan", lambda: (plan.validate(), "schedule holds")[1])

    graph_box = {}

    def build():
        graph_box["g"] = assemble(spec, plan)
        g = graph_box["g"]
        return f"{len(g)} nodes, {len(g.edges())} edges"

    if not run("graph-build", build):
        return checks
    graph = graph_box["g"]

    def shapes_check():
        shapes = shape_infer(graph)
        heads = {
            lv: shapes[f"head.{lv}"] for lv in NECK_LEVELS
        }
        return ", ".join(f"{lv}:{c}x{h}x{w}" for lv, (c, h, w) in heads.items())

    run("shapes-and-strides", shapes_check)

    def wiring_check():
        expect = {
            "neck.p5.shallow.fuse": 2,
            "neck.p4.shallow.fuse": 4,
            "neck.p3.shallow.fuse": 4,
            "neck.p3.deep.fuse": 2,
            "neck.p4.deep.fuse": 4,
            "neck.p5.deep.fuse": 3,
        }
        for name, arity in expect.items():
            got = len(graph.node(name).inputs)
            if got != arity:
                raise GraphError(f"{name} has {got} inputs, expected {arity}")
        p4 = graph.node("neck.p4.deep.fuse")
        rm = dict(zip(p4.attrs["roles"], p4.inputs))
        if rm["below_refined"] == rm["below_deep"]:
            raise GraphError(
                "deep fusion must draw its two finer-level terms from distinct nodes"
            )
        return "fusion arities 2/4/4 + 2/4/3, finer-level sources distinct"

    run("fusion-wiring", wiring_check)
    return checks
