"""Running and transforming assembled models: forward evaluation, the
training-to-deployed fusion pass, and simple latency benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blocks import aaf_fuse, fold_slot, rephms_forward, saf_fuse
from .errors import NumericError, ShapeError, StateError
from .graph import ModelGraph, Node, check_input_size, node_param_entries
from .reparam import fuse_conv_bn
from .tensor import (
    avgpool2d,
    batchnorm_infer,
    check_tensor4,
    concat_channels,
    conv2d_fast,
    conv2d_naive,
    silu,
    upsample2x,
)
from .weights import WeightStore, bind_node_weights, bind_slots, validate_store

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
    channels, spatial size (both extents multiples of the input node's
    ``divisor``) and finiteness are checked before any node runs.
    Intermediate tensors are freed as soon as their last consumer has run;
    every node output is checked for finiteness so blow-ups name their node.

    ``use_naive_conv`` runs the graph's own ``conv`` nodes through
    :func:`conv2d_naive`; convolutions inside composite nodes (``rephms``,
    ``saf``, ``aaf``) always take :func:`conv2d_fast`.
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
            if not np.all(np.isfinite(x)):
                raise NumericError(f"input '{node.name}' holds non-finite values")
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
    node disappears from the graph); composite nodes keep their place and
    each weighted slot folds into one kernel (a unit's BN into its conv, a
    mixer's branches merged).  Deployed entry names come from the fused
    node's own entry list.  The computed function is preserved up to float
    rounding.
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

    conv_to_bn = {conv: bn for bn, conv in bn_after_conv.items()}

    fused_graph = ModelGraph(form="deployed", meta=dict(graph.meta))
    fused_store = WeightStore(
        entries={}, form="deployed", seed=store.seed, spec_digest=store.spec_digest
    )

    params_before = sum(arr.size for arr in store.entries.values())

    for node in graph:
        if node.kind == "bn":
            continue
        attrs = dict(node.attrs)
        if node.kind == "conv":
            if node.name not in conv_to_bn:
                raise StateError(
                    f"conv node '{node.name}' has no trailing bn to fold"
                )
            attrs["bias"] = True
            bn = graph.node(conv_to_bn[node.name])
            kernels = [
                fuse_conv_bn(
                    bind_node_weights(node, store, "training"),
                    bind_node_weights(bn, store, "training"),
                )
            ]
        else:
            kernels = [fold_slot(u) for u in bind_slots(node, store, "training").values()]
        inputs = tuple(bn_after_conv.get(i, i) for i in node.inputs)
        fused = fused_graph.add(node.name, node.kind, inputs, **attrs)
        # each kernel's weight and bias fill the fused node's next two entries
        arrays = [a for k in kernels for a in (k.weights, k.bias)]
        for entry, arr in zip(node_param_entries(fused, "deployed"), arrays, strict=True):
            fused_store.entries[entry.name] = arr

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
) -> BenchResult:
    """Median-of-N timing after warmup runs (median resists scheduler
    noise better than the mean)."""
    for _ in range(warmups):
        forward(graph, store, x)
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        forward(graph, store, x)
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
