"""Running and transforming assembled models: forward evaluation, the
training-to-deployed fusion pass, and simple latency benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blocks import (
    aaf_fuse,
    deploy_conv_unit,
    deploy_rephms,
    rephms_forward,
    saf_fuse,
    ConvUnit,
    MixerSpec,
)
from .errors import NumericError, ShapeError, StateError
from .graph import ModelGraph, Node, check_input_size, node_slots
from .reparam import fuse_conv_bn
from .tensor import (
    avgpool2d,
    batchnorm_infer,
    check_tensor4,
    concat_channels,
    conv2d_fast,
    conv2d_naive,
    silu,
    split_channels,
    upsample2x,
)
from .weights import WeightStore, bind_node_weights, validate_store

__all__ = ["forward", "fuse_model", "FusionOutcome", "benchmark_forward", "BenchResult"]


def _eval_node(node: Node, ins: list[np.ndarray], bound, conv_fn) -> np.ndarray:
    kind = node.kind
    if kind == "conv":
        return conv_fn(ins[0], bound)
    if kind == "bn":
        return batchnorm_infer(ins[0], bound)
    if kind == "silu":
        return silu(ins[0])
    if kind == "pool":
        return avgpool2d(ins[0])
    if kind == "upsample":
        return upsample2x(ins[0])
    if kind == "concat":
        return concat_channels(ins)
    if kind == "split":
        return split_channels(ins[0], node.attrs["parts"])[node.attrs["index"]]
    if kind == "add":
        out = ins[0]
        for x in ins[1:]:
            out = out + x
        return out
    if kind == "rephms":
        return rephms_forward(ins[0], bound)
    if kind in ("saf", "aaf"):
        rm = dict(zip(node.attrs["roles"], ins))
        if kind == "saf":
            return saf_fuse(
                rm.get("below"), rm["same"], rm.get("above"),
                rm.get("above_refined"), bound,
            )
        return aaf_fuse(
            rm.get("below_refined"), rm.get("below_deep"), rm["same"],
            rm.get("above_refined"), bound,
        )
    if kind == "head":
        return ins[0]
    raise StateError(f"node '{node.name}' has unexecutable kind '{kind}'")


def forward(
    graph: ModelGraph,
    store: WeightStore,
    x: np.ndarray,
    use_naive_conv: bool = False,
) -> dict[str, np.ndarray]:
    """Evaluate the graph on an NCHW float32 batch.

    Returns {head level: feature map} for the graph outputs.  The input's
    channels and spatial size (both extents multiples of the input node's
    ``divisor``) are checked before any node runs.  Intermediate tensors are
    freed as soon as their last consumer has run; every node output is
    checked for finiteness so numerical blow-ups name their node.
    """
    check_tensor4(x)
    validate_store(graph, store)
    conv_fn = conv2d_naive if use_naive_conv else conv2d_fast

    remaining: dict[str, int] = {}
    for node in graph:
        if node.kind == "input":
            if x.shape[1] != node.attrs.get("channels", 3):
                raise ShapeError(
                    f"input has {x.shape[1]} channels, expected "
                    f"{node.attrs.get('channels', 3)}"
                )
            check_input_size(node, x.shape[2:])
        for src in node.inputs:
            remaining[src] = remaining.get(src, 0) + 1
    for out in graph.outputs:
        remaining[out] = remaining.get(out, 0) + 1

    values: dict[str, np.ndarray] = {}
    for node in graph:
        if node.kind == "input":
            out = x
        else:
            ins = [values[i] for i in node.inputs]
            bound = bind_node_weights(node, store, graph.form)
            out = _eval_node(node, ins, bound, conv_fn)
            if not np.all(np.isfinite(out)):
                raise NumericError(
                    f"node '{node.name}' produced non-finite values"
                )
        values[node.name] = out
        for src in node.inputs:
            remaining[src] -= 1
            if remaining[src] == 0:
                del values[src]

    results = {}
    for name in graph.outputs:
        level = graph.node(name).attrs.get("level", name)
        results[level] = values[name]
    return results


@dataclass
class FusionOutcome:
    """Fused graph and store plus accounting of what was removed."""

    graph: ModelGraph
    store: WeightStore
    bn_nodes_removed: int
    params_before: int
    params_after: int


def fuse_model(graph: ModelGraph, store: WeightStore) -> FusionOutcome:
    """Convert a training-form model to deployed form.

    Standalone conv+BN node pairs collapse into bias-carrying convs (the BN
    node disappears from the graph); composite nodes keep their place but
    their internal BNs fold away and multi-branch mixers merge into single
    kernels.  The computed function is preserved up to float rounding.
    """
    if graph.form != "training":
        raise StateError("model is already in deployed form")
    validate_store(graph, store)

    # which bn nodes follow which conv nodes
    bn_after_conv: dict[str, str] = {}
    for node in graph:
        if node.kind == "bn":
            (src,) = node.inputs
            if graph.node(src).kind == "conv":
                bn_after_conv[node.name] = src
            else:
                raise StateError(
                    f"bn node '{node.name}' does not follow a conv; cannot fuse"
                )

    rename = {bn: conv for bn, conv in bn_after_conv.items()}
    conv_to_bn = {conv: bn for bn, conv in bn_after_conv.items()}

    fused_graph = ModelGraph(form="deployed", meta=dict(graph.meta))
    fused_store = WeightStore(
        entries={}, form="deployed", seed=store.seed, spec_digest=store.spec_digest
    )

    params_before = sum(arr.size for arr in store.entries.values())

    for node in graph:
        if node.kind == "bn":
            continue
        inputs = tuple(rename.get(i, i) for i in node.inputs)
        attrs = dict(node.attrs)
        if node.kind == "conv":
            if node.name not in conv_to_bn:
                raise StateError(
                    f"conv node '{node.name}' has no trailing bn to fold"
                )
            attrs["bias"] = True
        fused_graph.add(node.name, node.kind, inputs, **attrs)

        new = fused_graph.node(node.name)
        if node.kind == "conv":
            kernel = bind_node_weights(node, store, "training")
            bn = bind_node_weights(graph.node(conv_to_bn[node.name]), store, "training")
            folded = fuse_conv_bn(kernel, bn)
            fused_store.entries[f"{node.name}.weight"] = folded.weights
            fused_store.entries[f"{node.name}.bias"] = folded.bias
        elif node.kind == "rephms":
            deployed = deploy_rephms(bind_node_weights(node, store, "training"))
            _emit_rephms(fused_store, new, deployed)
        elif node.kind in ("saf", "aaf"):
            bound = bind_node_weights(node, store, "training")
            for slot in node_slots(node):
                unit = getattr(bound, slot.path)
                _emit_unit(fused_store, f"{node.name}.{slot.path}", deploy_conv_unit(unit))

    fused_graph.outputs = graph.outputs
    validate_store(fused_graph, fused_store)
    params_after = sum(arr.size for arr in fused_store.entries.values())
    return FusionOutcome(
        graph=fused_graph,
        store=fused_store,
        bn_nodes_removed=len(bn_after_conv),
        params_before=params_before,
        params_after=params_after,
    )


def _emit_unit(store: WeightStore, prefix: str, unit: ConvUnit) -> None:
    store.entries[f"{prefix}.conv.weight"] = unit.kernel.weights
    store.entries[f"{prefix}.conv.bias"] = unit.kernel.bias


def _emit_rephms(store: WeightStore, node: Node, deployed) -> None:
    from .blocks import rephms_layout
    from .graph import _rephms_spec

    units = {"entry": deployed.entry, "exit": deployed.exit}
    for si, blocks in enumerate(deployed.streams, start=2):
        for bi, block in enumerate(blocks, start=1):
            base = f"s{si}.b{bi}"
            units[f"{base}.expand"] = block.expand
            units[f"{base}.mixer"] = block.mixer
            units[f"{base}.pw"] = block.pw
            units[f"{base}.proj"] = block.proj
    for slot in rephms_layout(_rephms_spec(node)):
        prefix = f"{node.name}.{slot.path}"
        unit = units[slot.path]
        if isinstance(slot, MixerSpec):
            store.entries[f"{prefix}.fused.weight"] = unit.fused.weights
            store.entries[f"{prefix}.fused.bias"] = unit.fused.bias
        else:
            _emit_unit(store, prefix, unit)


@dataclass
class BenchResult:
    """Median wall-clock of repeated forward passes."""

    label: str
    input_shape: tuple[int, ...]
    warmups: int
    iterations: int
    median_seconds: float
    min_seconds: float
    max_seconds: float

    def to_record(self) -> dict:
        return {
            "label": self.label,
            "input": "x".join(str(d) for d in self.input_shape),
            "warmups": self.warmups,
            "iterations": self.iterations,
            "median_seconds": self.median_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
        }


def benchmark_forward(
    graph: ModelGraph,
    store: WeightStore,
    x: np.ndarray,
    label: str,
    warmups: int = 5,
    iterations: int = 31,
    use_naive_conv: bool = False,
) -> BenchResult:
    """Median-of-N timing after warmup runs (median resists scheduler
    noise better than the mean)."""
    for _ in range(warmups):
        forward(graph, store, x, use_naive_conv=use_naive_conv)
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        forward(graph, store, x, use_naive_conv=use_naive_conv)
        samples.append(time.perf_counter() - t0)
    return BenchResult(
        label=label,
        input_shape=tuple(x.shape),
        warmups=warmups,
        iterations=iterations,
        median_seconds=float(np.median(samples)),
        min_seconds=float(min(samples)),
        max_seconds=float(max(samples)),
    )
