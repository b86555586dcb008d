"""Running and transforming assembled models: forward evaluation, the
training-to-deployed fusion pass, and simple latency benchmarks.
"""

from __future__ import annotations

import operator
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .blocks import FUSION_ROLES, ConvUnit, aaf_fuse, fold_slot, rephms_forward, saf_fuse
from .errors import NumericError, ShapeError, StateError
from .graph import ModelGraph, Node, check_input_size, node_param_entries, rephms_spec
from .tensor import batchnorm_infer, check_setting, check_tensor4, conv2d_fast, conv2d_naive, silu
from .weights import WeightStore, bind_node_weights, validate_store

__all__ = ["forward", "fuse_model", "FusionOutcome", "benchmark_forward", "BenchResult"]

WARMUPS = 5  # untimed forwards before benchmark_forward's timed ones
# Larger than any temporary a nano forward at 320x320 allocates; see _Plan.
_HEAP_BLOCK = 16 << 20


def _eval_node(node: Node, ins: list[np.ndarray], bound, conv_fn) -> np.ndarray:
    kind = node.kind
    if kind == "conv":
        return conv_fn(ins[0], bound)
    if kind == "bn":
        return batchnorm_infer(ins[0], bound)
    if kind == "silu":
        return silu(ins[0])
    if kind == "rephms":
        return rephms_forward(ins[0], rephms_spec(node), bound)
    if kind in FUSION_ROLES:
        by_role = dict(zip(node.attrs["roles"], ins))
        fuse = saf_fuse if kind == "saf" else aaf_fuse
        return fuse(*(by_role.get(role) for role in FUSION_ROLES[kind]), bound)
    if kind == "head":
        return ins[0]
    raise StateError(f"node '{node.name}' has unexecutable kind '{kind}'")


class _Plan:
    """What :func:`forward` derives from one (graph, store) pair: every
    node bound to its weights, and after each node the values no later node
    reads.  Bound objects hold the store's own arrays, so a write into an
    entry shows on the next call.  The graph is held weakly; nodes and
    arrays are held so that :meth:`fits` can compare them by identity."""

    def __init__(self, graph: ModelGraph, store: WeightStore):
        validate_store(graph, store)
        nodes = list(graph)
        last_use = {src: i for i, node in enumerate(nodes) for src in node.inputs}
        done = [[] for _ in nodes]
        for src, i in last_use.items():
            if src not in graph.outputs:
                done[i].append(src)
        self.inputs = [node for node in nodes if node.kind == "input"]
        self.steps = [
            (node, None if node.kind == "input" else bind_node_weights(node, store), done[i])
            for i, node in enumerate(nodes)
        ]
        self.levels = [(out, graph.node(out).attrs.get("level", out)) for out in graph.outputs]
        self.graph = weakref.ref(graph)
        self.objects = (*nodes, *store.entries.values())
        self.key = _plan_key(graph, store)
        # Allocate and drop one block that is never touched, so it costs no
        # resident memory.  glibc's malloc serves a request above its mmap
        # threshold with a fresh mmap, whose pages fault on every call, and
        # raises that threshold to the size of an mmapped block when it is
        # freed (mallopt(3)); after this free, the forward's multi-MB
        # temporaries reuse heap pages whatever ran before the plan.
        np.empty(_HEAP_BLOCK, dtype=np.uint8)

    def fits(self, graph: ModelGraph, store: WeightStore) -> bool:
        objects = (*graph, *store.entries.values())
        return (
            self.graph() is graph
            and len(objects) == len(self.objects)
            and all(map(operator.is_, objects, self.objects))
            and self.key == _plan_key(graph, store)
        )


# the plan last prepared for each live store; stores hash by identity, so a
# copied or unpickled store starts without one and a dropped store drops its own
_PLANS: weakref.WeakKeyDictionary[WeightStore, _Plan] = weakref.WeakKeyDictionary()


def _plan_key(graph: ModelGraph, store: WeightStore) -> tuple:
    """What a plan depends on besides node and array identity: forms,
    config digests, outputs, each node's kind, inputs and attrs, and each
    entry's name, shape and dtype."""
    return (
        graph.form,
        graph.meta.get("spec_hash"),
        tuple(graph.outputs),
        [(node.kind, node.inputs, dict(node.attrs)) for node in graph],
        store.form,
        store.spec_digest,
        [(name, arr.shape, arr.dtype) for name, arr in store.entries.items()],
    )


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

    The first call on a (graph, store) pair validates the store and binds
    every node once; this module keeps that plan for as long as the store
    object lives (a copy or an unpickled store starts without one), and
    later calls reuse it.  A plan is reused only for the same graph object
    whose form, outputs and nodes (identity, kind, inputs, attrs) are
    unchanged, with a store whose form, config digest and entries (names,
    array objects, shapes, dtypes) are unchanged; any other call prepares
    afresh.  Writing into an entry array in place needs no new plan: bound
    weights are the store's arrays.

    ``use_naive_conv`` runs the graph's own ``conv`` nodes through
    :func:`conv2d_naive`; convolutions inside composite nodes (``rephms``,
    ``saf``, ``aaf``) always take :func:`conv2d_fast`.
    """
    check_tensor4(x)
    plan = _PLANS.get(store)
    if plan is None or not plan.fits(graph, store):
        plan = _PLANS[store] = _Plan(graph, store)
    conv_fn = conv2d_naive if use_naive_conv else conv2d_fast

    for node in plan.inputs:
        if x.shape[1] != node.attrs.get("channels", 3):
            raise ShapeError(
                f"input has {x.shape[1]} channels, expected "
                f"{node.attrs.get('channels', 3)}"
            )
        check_input_size(node, x.shape[2:])
        if not np.all(np.isfinite(x)):
            raise NumericError(f"input '{node.name}' holds non-finite values")

    values: dict[str, np.ndarray] = {}
    for node, bound, done in plan.steps:
        if node.kind == "input":
            out = x
        else:
            out = _eval_node(node, [values[i] for i in node.inputs], bound, conv_fn)
            if not np.all(np.isfinite(out)):
                raise NumericError(
                    f"node '{node.name}' produced non-finite values"
                )
        values[node.name] = out
        for src in done:
            del values[src]
    return {level: values[name] for name, level in plan.levels}


@dataclass(eq=False)
class FusionOutcome:
    """Fused graph and store plus accounting of what was removed."""

    graph: ModelGraph
    store: WeightStore
    bn_nodes_removed: int
    params_before: int
    params_after: int


def fuse_model(graph: ModelGraph, store: WeightStore) -> FusionOutcome:
    """Convert a training-form model to deployed form.

    Every node binds through :func:`bind_node_weights` and every
    training-form unit folds through :func:`fold_slot`: a ``conv`` node and
    the ``bn`` node after it fold as one unactivated ConvUnit into a
    bias-carrying conv (the BN node disappears from the graph), and each
    weighted slot of a composite node folds into one kernel (a unit's BN
    into its conv, a mixer's branches merged) while the node keeps its
    place.  Deployed entry names come from the fused node's own entry list.
    The computed function is preserved up to float rounding.
    """
    if graph.form != "training":
        raise StateError("model is already in deployed form")
    validate_store(graph, store)

    # the conv node each bn node follows, and the bn node after each conv
    conv_of: dict[str, str] = {}
    for node in graph:
        if node.kind == "bn":
            (src,) = node.inputs
            if graph.node(src).kind != "conv":
                raise StateError(
                    f"bn node '{node.name}' does not follow a conv; cannot fuse"
                )
            conv_of[node.name] = src
    bn_of = {conv: graph.node(bn) for bn, conv in conv_of.items()}

    fused_graph = ModelGraph(form="deployed", meta=dict(graph.meta))
    fused_store = WeightStore(
        entries={}, form="deployed", seed=store.seed, spec_digest=store.spec_digest
    )

    params_before = sum(arr.size for arr in store.entries.values())

    for node in graph:
        if node.kind == "bn":
            continue
        attrs = dict(node.attrs)
        units = bind_node_weights(node, store)
        if node.kind == "conv":
            if node.name not in bn_of:
                raise StateError(
                    f"conv node '{node.name}' has no trailing bn to fold"
                )
            attrs["bias"] = True
            bn = bind_node_weights(bn_of[node.name], store)
            units = {node.name: ConvUnit(kernel=units, bn=bn, act=False)}
        inputs = tuple(conv_of.get(i, i) for i in node.inputs)
        fused = fused_graph.add(node.name, node.kind, inputs, **attrs)
        # each folded unit's weight and bias fill the fused node's next two entries
        kernels = [fold_slot(unit).kernel for unit in units.values()]
        arrays = [a for k in kernels for a in (k.weights, k.bias)]
        for entry, arr in zip(node_param_entries(fused, "deployed"), arrays, strict=True):
            fused_store.entries[entry.name] = arr

    fused_graph.outputs = graph.outputs
    validate_store(fused_graph, fused_store)
    params_after = sum(arr.size for arr in fused_store.entries.values())
    return FusionOutcome(
        graph=fused_graph,
        store=fused_store,
        bn_nodes_removed=len(conv_of),
        params_before=params_before,
        params_after=params_after,
    )


@dataclass
class BenchResult:
    """Median wall-clock of repeated forward passes."""

    label: str
    input_shape: tuple[int, ...]
    iterations: int
    median_seconds: float
    min_seconds: float
    max_seconds: float

    def to_record(self) -> dict:
        return {
            "label": self.label,
            "input": "x".join(str(d) for d in self.input_shape),
            "warmups": WARMUPS,
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
    iterations: int = 31,
) -> BenchResult:
    """Median-of-N timing after :data:`WARMUPS` untimed runs (median resists
    scheduler noise better than the mean)."""
    check_setting("iterations", iterations, 1)
    for _ in range(WARMUPS):
        forward(graph, store, x)
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        forward(graph, store, x)
        samples.append(time.perf_counter() - t0)
    return BenchResult(
        label=label,
        input_shape=tuple(x.shape),
        iterations=iterations,
        median_seconds=float(np.median(samples)),
        min_seconds=float(min(samples)),
        max_seconds=float(max(samples)),
    )
