"""Command-line interface.

Every command but ``plan`` takes a model config as its first positional
argument: a preset name like ``nano`` or a path to a YAML file.  ``plan``
reports the kernel schedule, which no config changes.

Each command builds its report twice over the same facts: a list of
records (flat dicts) and a list of text lines, and returns them with its
exit code.  No command prints.  ``main`` alone renders the report, with
``format_records`` for ``--format records`` and the joined lines otherwise
(``text``, or ``dot`` for ``export``), and writes it to stdout.

``--out FILE`` means one of two things.  On ``init`` and ``fuse`` it is the
weight file the command writes, and the report still goes to stdout.  On
every other command it is the report itself: FILE receives exactly what
stdout would have shown, and stdout stays empty.

Exit codes: 0 success, 1 a validation or equivalence check failed,
2 usage error, 3 file I/O failure (including checksum mismatches).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .blocks import MixerSpec
from .config import PRESET_NAMES, resolve_config
from .errors import MhafError, WeightFileError
from .ghfks import KernelPlan, default_plan, rf_report, uniform_plan
from .graph import (
    assemble,
    count_params_flops,
    export_graph,
    node_slots,
    shape_infer,
    validate_model,
)
from .model import benchmark_forward, forward, fuse_model
from .records import format_records
from .reparam import verify_equivalence
from .weights import init_weights, load_weights, save_weights

__all__ = ["main"]


def _add_format_arg(sub: argparse.ArgumentParser, choices=("text", "records")) -> None:
    sub.add_argument(
        "--format",
        choices=choices,
        default=choices[0],
        help=f"output format (default {choices[0]})",
    )


def _add_out_arg(sub: argparse.ArgumentParser, what="report") -> None:
    sub.add_argument("--out", metavar="FILE", help=f"write the {what} to FILE instead of stdout")


def _add_weights_out_arg(sub: argparse.ArgumentParser, what: str) -> None:
    sub.add_argument(
        "--out", dest="weights_out", metavar="FILE", required=True, help=f"write the {what} to FILE"
    )


def _add_uniform_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--uniform",
        type=int,
        metavar="K",
        help="use a uniform KxK kernel plan instead of the default schedule",
    )


def _at_least(minimum: int, convert=int):
    """argparse type: a number, parsed by ``convert``, no smaller than
    ``minimum`` (NaN fails too).  argparse names the flag in the error and
    exits 2."""

    def number(text: str):
        value = convert(text)  # argparse reports "invalid number value"
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return number


def _plan_from(args) -> KernelPlan:
    if getattr(args, "uniform", None) is not None:
        return uniform_plan(args.uniform)
    return default_plan()


def _training_store(args, graph):
    """The training-form store from ``--weights``, or one initialized from
    ``--seed`` when no file is given."""
    if args.weights:
        return load_weights(args.weights)
    return init_weights(graph, seed=args.seed)


def _seeded_inputs(seed: int, count: int, size: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal((1, 3, size, size)).astype(np.float32)


# ---------------------------------------------------------------------------
# commands: each returns (records, lines, exit code) and prints nothing


def _cmd_validate(args):
    checks = validate_model(resolve_config(args.config), _plan_from(args))
    records = [
        {"type": "check", "name": c.name, "passed": c.passed, "detail": c.detail}
        for c in checks
    ]
    lines = [f"[ {'pass' if c.passed else 'FAIL'} ] {c.name}: {c.detail}" for c in checks]
    failed = sum(1 for c in checks if not c.passed)
    if failed:
        lines.append(f"{failed} of {len(checks)} checks failed")
    else:
        lines.append(f"all {len(checks)} checks passed")
    return records, lines, 1 if failed else 0


def _cmd_shapes(args):
    spec = resolve_config(args.config)
    graph = assemble(spec)
    size = args.input or spec.input_size
    shapes = shape_infer(graph, size)
    totals = count_params_flops(graph, size)
    records = [
        {"type": "shape", "node": name, "kind": graph.node(name).kind,
         "channels": c, "height": h, "width": w}
        for name, (c, h, w) in shapes.items()
    ]
    records.append({"type": "totals", "input_size": size,
                    "params": totals.params, "flops": totals.flops})
    name_w = max(len(n) for n in shapes)
    lines = [
        f"{name:<{name_w}}  {graph.node(name).kind:<8}  {c}x{h}x{w}"
        for name, (c, h, w) in shapes.items()
    ]
    lines.append("")
    lines.append(
        f"params {totals.params:,}  flops {totals.flops:,} "
        f"({totals.flops / 1e9:.2f} GFLOPs at {size}x{size})"
    )
    return records, lines, 0


def _cmd_plan(args):
    plan = _plan_from(args)
    problem = None
    try:
        plan.validate()
    except MhafError as exc:
        problem = str(exc)
    records = [{"type": "kernel", "slot": f"backbone.{lv}", "kernel": k}
               for lv, k in plan.backbone.items()]
    records += [{"type": "kernel", "slot": f"neck.{pw}.{lv}", "kernel": k}
                for pw in plan.neck for lv, k in plan.neck[pw].items()]
    records.append({"type": "schedule", "passed": problem is None,
                    "detail": problem or "schedule holds"})
    lines = ["backbone  " + "  ".join(f"{lv}:{k}" for lv, k in plan.backbone.items())]
    for pw in plan.neck:
        lines.append(f"{pw:<8}  " + "  ".join(f"{lv}:{k}" for lv, k in plan.neck[pw].items()))
    lines.append(f"schedule: {problem or 'ok'}")
    return records, lines, 0 if problem is None else 1


def _cmd_rf(args):
    entries = rf_report(assemble(resolve_config(args.config), _plan_from(args)))
    records = [{"type": "rf", **e.to_record()} for e in entries]
    lines = [f"{e.node}  stride {e.stride:<3} rf {e.rf}" for e in entries]
    return records, lines, 0


def _cmd_export(args):
    graph = assemble(resolve_config(args.config), _plan_from(args))
    return export_graph(graph, "records"), export_graph(graph, "dot").splitlines(), 0


def _cmd_init(args):
    store = init_weights(assemble(resolve_config(args.config)), seed=args.seed)
    save_weights(store, args.weights_out)
    size = os.path.getsize(args.weights_out)
    records = [{
        "type": "init", "path": args.weights_out, "entries": len(store.entries),
        "bytes": size, "seed": args.seed, "config": store.spec_digest,
    }]
    lines = [
        f"wrote {args.weights_out}: {len(store.entries)} entries, {size:,} bytes, "
        f"seed {args.seed}, config {store.spec_digest}"
    ]
    return records, lines, 0


def _cmd_fuse(args):
    graph = assemble(resolve_config(args.config))
    store = _training_store(args, graph)
    outcome = fuse_model(graph, store)
    deviation = 0.0
    for x in _seeded_inputs(args.seed, args.trials, args.input):
        before = forward(graph, store, x)
        after = forward(outcome.graph, outcome.store, x)
        for level in before:
            deviation = max(deviation, float(np.max(np.abs(before[level] - after[level]))))
    passed = deviation <= args.tol
    if passed:
        save_weights(outcome.store, args.weights_out)
    records = [{
        "type": "fusion", "bn_nodes_removed": outcome.bn_nodes_removed,
        "floats_before": outcome.params_before,
        "floats_after": outcome.params_after,
        "trials": args.trials, "input_size": args.input,
        "max_deviation": deviation, "tolerance": args.tol,
        "passed": passed, "out": args.weights_out if passed else None,
    }]
    lines = [
        f"folded {outcome.bn_nodes_removed} normalization nodes into conv weights",
        f"weight floats: {outcome.params_before:,} -> {outcome.params_after:,}",
        f"max deviation over {args.trials} inputs at {args.input}x{args.input}: "
        f"{deviation:.2e} (tolerance {args.tol:.0e})",
        f"wrote {args.weights_out}" if passed else "deviation exceeds tolerance; nothing written",
    ]
    return records, lines, 0 if passed else 1


def _cmd_verify(args):
    graph = assemble(resolve_config(args.config), _plan_from(args))
    specs = sorted(
        {slot.spec for node in graph for slot in node_slots(node).values()
         if isinstance(slot, MixerSpec)},
        key=lambda spec: (spec.main_kernel, spec.channels),
    )
    reports = [
        verify_equivalence(spec, trials=args.trials, tolerance=args.tol, seed=args.seed)
        for spec in specs
    ]
    records = [{"type": "equivalence", **r.to_record()} for r in reports]
    lines = [r.summary() for r in reports]
    bad = sum(1 for r in reports if not r.passed)
    if bad:
        lines.append(f"{bad} of {len(reports)} mixer configurations diverged")
    else:
        lines.append(f"all {len(reports)} mixer configurations equivalent")
    return records, lines, 1 if bad else 0


def _cmd_bench(args):
    graph = assemble(resolve_config(args.config))
    store = _training_store(args, graph)
    x = next(_seeded_inputs(args.seed, 1, args.input))
    training = benchmark_forward(graph, store, x, "training", iterations=args.trials)
    outcome = fuse_model(graph, store)
    deployed = benchmark_forward(
        outcome.graph, outcome.store, x, "deployed", iterations=args.trials
    )
    ratio = training.median_seconds / deployed.median_seconds
    records = [
        {"type": "bench", **training.to_record()},
        {"type": "bench", **deployed.to_record()},
        {"type": "speedup", "ratio": ratio},
    ]
    lines = [_bench_line(training), _bench_line(deployed), f"speedup: {ratio:.2f}x"]
    return records, lines, 0


def _bench_line(res) -> str:
    shape = "x".join(str(d) for d in res.input_shape)
    return (
        f"{res.label:<9} median {res.median_seconds * 1e3:8.2f} ms  "
        f"min {res.min_seconds * 1e3:8.2f}  max {res.max_seconds * 1e3:8.2f}  "
        f"({shape}, {res.iterations} iterations)"
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhaf",
        description="Inspect, initialize, fuse, and time multi-branch "
        "heterogeneous-kernel detection models.",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, handler, help_text, config=True):
        sub = subs.add_parser(name, help=help_text, description=help_text)
        if config:
            sub.add_argument(
                "config", help=f"preset name ({', '.join(PRESET_NAMES)}) or path to a YAML config"
            )
        sub.set_defaults(handler=handler)
        return sub

    sub = command("validate", _cmd_validate, "run structural checks on a model config")
    _add_uniform_arg(sub)
    _add_format_arg(sub)
    _add_out_arg(sub)

    sub = command("shapes", _cmd_shapes, "print per-node output shapes and totals")
    sub.add_argument("--input", type=_at_least(1), metavar="N", help="input resolution override")
    _add_format_arg(sub)
    _add_out_arg(sub)

    sub = command("plan", _cmd_plan, "print the kernel-size schedule", config=False)
    _add_uniform_arg(sub)
    _add_format_arg(sub)
    _add_out_arg(sub)

    sub = command("rf", _cmd_rf, "report receptive fields at the model heads")
    _add_uniform_arg(sub)
    _add_format_arg(sub)
    _add_out_arg(sub)

    sub = command("export", _cmd_export, "export the model graph")
    _add_uniform_arg(sub)
    _add_format_arg(sub, choices=("dot", "records"))
    _add_out_arg(sub, what="graph")

    sub = command("init", _cmd_init, "write deterministically initialized weights")
    sub.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    _add_weights_out_arg(sub, "weight file")
    _add_format_arg(sub)

    sub = command("fuse", _cmd_fuse, "fold normalization into conv weights and verify")
    sub.add_argument("--weights", metavar="FILE", help="training-form weight file (default: fresh init)")
    sub.add_argument("--seed", type=_at_least(0), default=0, help="seed for init and test inputs (default 0)")
    sub.add_argument("--trials", type=_at_least(1), default=10, help="verification inputs (default 10)")
    sub.add_argument("--input", type=_at_least(1), default=320, metavar="N", help="verification resolution (default 320)")
    sub.add_argument("--tol", type=_at_least(0, float), default=1e-2, help="max allowed deviation (default 1e-2)")
    _add_weights_out_arg(sub, "fused weight file")
    _add_format_arg(sub)

    sub = command("verify", _cmd_verify, "check multi-branch/single-kernel equivalence for every mixer")
    _add_uniform_arg(sub)
    sub.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    sub.add_argument("--trials", type=_at_least(1), default=100, help="random draws per mixer (default 100)")
    sub.add_argument("--tol", type=_at_least(0, float), default=1e-4, help="max allowed |error| (default 1e-4)")
    _add_format_arg(sub)
    _add_out_arg(sub)

    sub = command("bench", _cmd_bench, "time training-form vs deployed-form forward passes")
    sub.add_argument("--weights", metavar="FILE", help="training-form weight file (default: fresh init)")
    sub.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    sub.add_argument("--trials", type=_at_least(1), default=31, help="timed iterations per form (default 31)")
    sub.add_argument("--input", type=_at_least(1), default=320, metavar="N", help="input resolution (default 320)")
    _add_format_arg(sub)
    _add_out_arg(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        records, lines, code = args.handler(args)
        if args.format == "records":
            text = format_records(records)
        else:
            text = "\n".join(lines) + "\n"
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (WeightFileError, OSError) as exc:
        print(f"mhaf: {exc}", file=sys.stderr)
        return 3
    except MhafError as exc:
        print(f"mhaf: {exc}", file=sys.stderr)
        return 1
