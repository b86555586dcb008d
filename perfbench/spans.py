"""Span recording around calls into the program's layers, and the per-layer
numbers derived from the spans.

A :class:`Tracer` wraps selected program functions.  Each wrapper is bound in
place of the original function in every module that imports the function by
name (and in the benchmark's own API namespace), so each call is recorded
exactly once, as one span.  Uninstalling puts every original object back.

Spans stay in memory while the benchmark runs and are written out when it
ends.  A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TENSOR_USERS = ("mhaf.blocks", "mhaf.reparam", "mhaf.model")

# span name -> (defining module, function, binding targets).  "api" is the
# benchmark's own namespace of entry points; the other targets are program
# modules that import the function by name.  "tensor.conv" is refined per
# call into the conv class (see conv_span).
SPAN_TABLE = {
    "tensor.conv": ("mhaf.tensor", "conv2d_fast", TENSOR_USERS),
    "tensor.bn": ("mhaf.tensor", "batchnorm_infer", TENSOR_USERS),
    "tensor.silu": ("mhaf.tensor", "silu", TENSOR_USERS),
    "tensor.pool": ("mhaf.tensor", "avgpool2d", TENSOR_USERS),
    "tensor.upsample": ("mhaf.tensor", "upsample2x", TENSOR_USERS),
    "tensor.concat": ("mhaf.tensor", "concat_channels", TENSOR_USERS),
    "tensor.split": ("mhaf.tensor", "split_channels", TENSOR_USERS),
    "reparam.rephconv": ("mhaf.reparam", "rephconv_forward", ("mhaf.blocks",)),
    "reparam.merge": ("mhaf.reparam", "merge_heterogeneous", ("mhaf.blocks",)),
    "reparam.fuse_conv_bn": (
        "mhaf.reparam", "fuse_conv_bn", ("mhaf.reparam", "mhaf.blocks", "mhaf.model"),
    ),
    "blocks.unit": ("mhaf.blocks", "conv_unit_forward", ("mhaf.blocks",)),
    "blocks.rephms": ("mhaf.blocks", "rephms_forward", ("mhaf.model",)),
    "blocks.saf": ("mhaf.blocks", "saf_fuse", ("mhaf.model",)),
    "blocks.aaf": ("mhaf.blocks", "aaf_fuse", ("mhaf.model",)),
    "model.forward": ("mhaf.model", "forward", ("api",)),
    "model.fuse": ("mhaf.model", "fuse_model", ("api",)),
    "weights.bind": ("mhaf.weights", "bind_node_weights", ("mhaf.model",)),
    "weights.validate": ("mhaf.weights", "validate_store", ("mhaf.model",)),
    "weights.crc": ("mhaf.weights", "crc64_xz", ("mhaf.weights",)),
    "weights.init": ("mhaf.weights", "init_weights", ("api",)),
    "weights.save": ("mhaf.weights", "save_weights", ("api",)),
    "weights.load": ("mhaf.weights", "load_weights", ("api",)),
    "graph.param_entries": ("mhaf.graph", "graph_param_entries", ("mhaf.weights",)),
    "graph.assemble": ("mhaf.graph", "assemble", ("api", "mhaf.graph")),
    "graph.shape_infer": ("mhaf.graph", "shape_infer", ("mhaf.graph",)),
    "graph.count": ("mhaf.graph", "count_params_flops", ("api",)),
    "graph.validate": ("mhaf.graph", "validate_model", ("api",)),
    "ghfks.rf": ("mhaf.ghfks", "receptive_field", ("api",)),
    "config.resolve": ("mhaf.config", "resolve_config", ("api",)),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    op: int  # 0 is set-up, 1.. are operations
    flops: int = 0
    nbytes: int = 0


def conv_span(args, kwargs) -> tuple[str, int, int]:
    """Classify a ``conv2d_fast(x, kernel)`` call and count its work.

    Bytes are computed from tensor sizes (input, output, weights, bias), not
    measured.
    """
    x = args[0] if args else kwargs["x"]
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    b, cin, h, w = x.shape
    k, s, p, g = kernel.kernel_size, kernel.stride, kernel.padding, kernel.groups
    cout = kernel.out_channels
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if k == 1 and g == 1:
        name = "tensor.conv_pw"
    elif g == cin == cout:
        name = "tensor.conv_dw"
    elif g == 1:
        name = "tensor.conv_dense"
    else:
        name = "tensor.conv_grouped"
    flops = 2 * b * cout * (cin // g) * k * k * oh * ow
    nbytes = 4 * (x.size + b * cout * oh * ow + kernel.weights.size + cout)
    return name, flops, nbytes


def crc_span(args, kwargs) -> tuple[str, int, int]:
    data = args[0] if args else kwargs["data"]
    return "weights.crc", 0, len(data)


DESCRIBE = {"tensor.conv": conv_span, "weights.crc": crc_span}


class Bindings:
    """Names rebound in modules, and the originals to put back."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._patched)

    def bind(self, target, func: str, original, replacement) -> bool:
        """Bind ``replacement`` as ``target.func`` if that is ``original``."""
        if getattr(target, func, None) is not original:
            return False
        setattr(target, func, replacement)
        self._patched.append((target, func, original))
        return True

    def restore(self) -> None:
        for target, func, original in reversed(self._patched):
            setattr(target, func, original)
        self._patched.clear()


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._bindings = Bindings()

    def wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label, flops, nbytes = describe(args, kwargs) if describe else (name, 0, 0)
            span = Span(label, 0.0, 0.0, stack[-1] if stack else None, self.op, flops, nbytes)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, api) -> None:
        """Bind a wrapper around each original function in every target.

        A target that binds something else under the function's name (the
        program moved or replaced it) is skipped and listed in ``skipped``.
        """
        if self._bindings.active:
            raise RuntimeError("tracer is already installed")
        self.skipped = []
        for name, (module, func, targets) in SPAN_TABLE.items():
            original = getattr(sys.modules[module], func, None)
            if original is None:
                self.skipped.append(f"{module}.{func}")
                continue
            wrapper = self.wrap(name, original)
            for target_name in targets:
                target = api if target_name == "api" else sys.modules[target_name]
                if not hasattr(target, func):
                    continue  # the module does not import this function
                if not self._bindings.bind(target, func, original, wrapper):
                    self.skipped.append(f"{target_name}.{func}")

    def uninstall(self) -> None:
        self._bindings.restore()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.flops, s.nbytes]))
                fh.write("\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return [s.end - s.start - covered(children[i]) for i, s in enumerate(spans)]


@dataclass
class Totals:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    flops: int = 0
    nbytes: int = 0


def totals_by_op(spans: list[Span]) -> dict[int, dict[str, Totals]]:
    """{op id: {span name: Totals}}."""
    out: dict[int, dict[str, Totals]] = defaultdict(lambda: defaultdict(Totals))
    for s, self_s in zip(spans, self_times(spans)):
        t = out[s.op][s.name]
        t.seconds += s.end - s.start
        t.self_seconds += self_s
        t.calls += 1
        t.flops += s.flops
        t.nbytes += s.nbytes
    return out


def layer_value(by_op, ops: list[int], name: str, field: str) -> float:
    """A layer's cost in one set-up (op 0) plus one steady operation.

    The steady part is the low median over the traced operations ``ops``,
    so that counts stay whole numbers.
    """
    def get(op):
        t = by_op.get(op, {}).get(name)
        return getattr(t, field) if t is not None else 0

    return get(0) + statistics.median_low(get(op) for op in ops)


def binds_per_forward(spans: list[Span], ops: set[int]) -> float:
    """Weight re-binds per forward in operations ``ops``: binds called
    directly by a forward."""
    forwards = sum(1 for s in spans if s.op in ops and s.name == "model.forward")
    if not forwards:
        return 0
    binds = sum(
        1 for s in spans
        if s.op in ops and s.name == "weights.bind" and s.parent is not None
        and spans[s.parent].name == "model.forward"
    )
    return binds / forwards


# per-layer metric -> (span name, field, scale).  Fields are those of
# Totals; seconds are reported in ms and bytes in MB.
LAYER_METRICS = {
    "tensor.conv_dw.ms": ("tensor.conv_dw", "seconds", 1e3),
    "tensor.conv_dw.calls": ("tensor.conv_dw", "calls", 1),
    "tensor.conv_dw.gflop": ("tensor.conv_dw", "flops", 1e-9),
    "tensor.conv_dw.mb": ("tensor.conv_dw", "nbytes", 1e-6),
    "tensor.conv_pw.ms": ("tensor.conv_pw", "seconds", 1e3),
    "tensor.conv_pw.calls": ("tensor.conv_pw", "calls", 1),
    "tensor.conv_pw.gflop": ("tensor.conv_pw", "flops", 1e-9),
    "tensor.conv_dense.ms": ("tensor.conv_dense", "seconds", 1e3),
    "tensor.conv_dense.calls": ("tensor.conv_dense", "calls", 1),
    "tensor.conv_dense.gflop": ("tensor.conv_dense", "flops", 1e-9),
    "tensor.silu.ms": ("tensor.silu", "seconds", 1e3),
    "tensor.silu.calls": ("tensor.silu", "calls", 1),
    "tensor.pool.ms": ("tensor.pool", "seconds", 1e3),
    "tensor.upsample.ms": ("tensor.upsample", "seconds", 1e3),
    "tensor.concat.ms": ("tensor.concat", "seconds", 1e3),
    "tensor.bn.ms": ("tensor.bn", "seconds", 1e3),
    "tensor.bn.calls": ("tensor.bn", "calls", 1),
    "reparam.rephconv.self_ms": ("reparam.rephconv", "self_seconds", 1e3),
    "reparam.merge.ms": ("reparam.merge", "seconds", 1e3),
    "reparam.merge.calls": ("reparam.merge", "calls", 1),
    "reparam.fuse_conv_bn.ms": ("reparam.fuse_conv_bn", "seconds", 1e3),
    "reparam.fuse_conv_bn.calls": ("reparam.fuse_conv_bn", "calls", 1),
    "blocks.rephms.self_ms": ("blocks.rephms", "self_seconds", 1e3),
    "blocks.unit.self_ms": ("blocks.unit", "self_seconds", 1e3),
    "blocks.saf.self_ms": ("blocks.saf", "self_seconds", 1e3),
    "blocks.aaf.self_ms": ("blocks.aaf", "self_seconds", 1e3),
    "model.forward.self_ms": ("model.forward", "self_seconds", 1e3),
    "model.fuse.self_ms": ("model.fuse", "self_seconds", 1e3),
    "weights.bind.ms": ("weights.bind", "seconds", 1e3),
    "weights.validate.ms": ("weights.validate", "seconds", 1e3),
    "weights.crc.ms": ("weights.crc", "seconds", 1e3),
    "weights.save.self_ms": ("weights.save", "self_seconds", 1e3),
    "weights.load.self_ms": ("weights.load", "self_seconds", 1e3),
    "weights.init.ms": ("weights.init", "seconds", 1e3),
    "graph.assemble.ms": ("graph.assemble", "seconds", 1e3),
    "graph.shape_infer.ms": ("graph.shape_infer", "seconds", 1e3),
    "graph.count.ms": ("graph.count", "seconds", 1e3),
    "graph.param_entries.ms": ("graph.param_entries", "seconds", 1e3),
    "graph.param_entries.calls": ("graph.param_entries", "calls", 1),
    "ghfks.rf.ms": ("ghfks.rf", "seconds", 1e3),
    "config.resolve.ms": ("config.resolve", "seconds", 1e3),
}

# throughput metric -> (span name, work field, work scale).  The rate is work
# over time, both taken as set-up plus one steady operation.
RATE_METRICS = {
    "tensor.conv_dw.gflop_s": ("tensor.conv_dw", "flops", 1e-9),
    "tensor.conv_pw.gflop_s": ("tensor.conv_pw", "flops", 1e-9),
    "tensor.conv_dense.gflop_s": ("tensor.conv_dense", "flops", 1e-9),
    "weights.crc.mb_per_s": ("weights.crc", "nbytes", 1e-6),
}


def layer_metrics(spans: list[Span], ops: list[int]) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced set-up (op 0) and the
    traced operations ``ops``."""
    by_op = totals_by_op(spans)
    out = {
        metric: layer_value(by_op, ops, name, field) * scale
        for metric, (name, field, scale) in LAYER_METRICS.items()
    }
    for metric, (name, field, scale) in RATE_METRICS.items():
        seconds = layer_value(by_op, ops, name, "seconds")
        work = layer_value(by_op, ops, name, field) * scale
        out[metric] = work / seconds if seconds > 0 else 0.0
    out["weights.bind.per_forward"] = binds_per_forward(spans, set(ops))
    return out
