"""Benchmark of the mhaf toolkit: one closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deployed-320 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
traces one set-up and every other operation, and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in a process of its own, one after
another.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import program
import spans

WORKLOAD_NAMES = ("deployed-320", "training-b4-96", "weights-roundtrip")
# setup_s is the median of at least SETUP_REPS set-ups; cheap set-ups repeat
# until SETUP_SECONDS have gone into them, up to SETUP_REPS_MAX.
SETUP_REPS = 3
SETUP_REPS_MAX = 9
SETUP_SECONDS = 6.0
MAX_PROBLEMS_SHOWN = 5


class Outcomes:
    """Operations attempted and failed.  An operation fails when it raises or
    its output fails the workload's check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl, state, i: int) -> dict | None:
        """Run and check operation ``i``; return its step timings, or None
        if it raised."""
        self.attempted += 1
        try:
            result, steps = wl.operation(state, i)
            problem = wl.check(i, result)
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            self._fail(i, traceback.format_exc(limit=3))
            return None
        if problem:
            self._fail(i, problem)
        return steps

    def _fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if self.failed <= MAX_PROBLEMS_SHOWN:
            print(f"operation {i} failed: {problem}", file=sys.stderr)


def latency(steps: dict) -> float:
    return sum(steps.values())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency: the 90th percentile, or, when
    that would leave fewer than ten samples beyond it, the highest percentile
    that leaves ten.  Below 20 samples that percentile would fall under the
    median, so the maximum stands in for it.

    A fixed percentile rather than the eleventh-worst sample: on a shared
    host the eleventh-worst of a 25 s run lands on whichever stall the host
    had, while the 90th percentile moves with the program."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    beyond = max(10, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def peak_rss_mb() -> float:
    """Peak resident set of this process.  The forward workloads compute
    their references in a child process (reference.py), which this leaves
    out."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(wl, seconds: int, outcomes: Outcomes) -> tuple[dict, dict]:
    """End-to-end metrics: set-up several times, then a closed loop."""
    wl.prepare()
    setups = []
    while len(setups) < SETUP_REPS or (
        len(setups) < SETUP_REPS_MAX and sum(setups) < SETUP_SECONDS
    ):
        state = None  # release the previous set-up before building the next
        t0 = perf_counter()
        state = wl.setup()
        built = perf_counter() - t0
        steps = outcomes.run(wl, state, 0)
        if steps is None:
            raise RuntimeError("the first operation after set-up raised")
        setups.append(built + latency(steps))

    samples = []
    i = 1
    end = perf_counter() + seconds
    while perf_counter() < end:
        steps = outcomes.run(wl, state, i)
        if steps is not None:
            samples.append(steps)
        i += 1
    if not samples:
        raise RuntimeError("every timed operation raised")

    lat = [latency(s) for s in samples]
    p50 = statistics.median(lat)
    tail_value, tail_pct = tail(lat)
    items_per_s = wl.items_per_op * len(lat) / sum(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms.p50": (p50 * 1e3, "ms"),
        "latency_ms.tail": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }

    op = wl.op_label
    detail = {
        f"{op}_ms.p50": p50 * 1e3,
        f"{op}_ms.tail": tail_value * 1e3,
        f"{op}_ms.tail_percentile": tail_pct,
        f"{op}_ms.samples": len(lat),
        f"{wl.item_label}_per_s": items_per_s,
        "setup_s.samples": setups,
    }
    if len(samples[0]) > 1:
        for step in samples[0]:
            detail[f"{step}_ms.p50"] = statistics.median(s[step] for s in samples) * 1e3
    if hasattr(wl, "worst_error"):
        detail["worst_relative_error"] = wl.worst_error
    return metrics, detail


def run_traced(wl, api, seconds: int, outcomes: Outcomes, spans_path: str) -> tuple[dict, dict]:
    """Per-layer metrics: one traced set-up, one untimed warm-up operation,
    then operations that alternate between untraced and traced."""
    wl.prepare()
    tracer = spans.Tracer()
    tracer.install(api)
    try:
        state = wl.setup()
    finally:
        tracer.uninstall()
    outcomes.run(wl, state, 0)

    plain, traced, traced_ops = [], [], []
    i = 1
    end = perf_counter() + seconds
    while perf_counter() < end or i <= 2:  # at least one of each kind
        if i % 2:
            steps = outcomes.run(wl, state, i)
            if steps is not None:
                plain.append(latency(steps))
        else:
            tracer.op = i
            tracer.install(api)
            try:
                steps = outcomes.run(wl, state, i)
            finally:
                tracer.uninstall()
            if steps is not None:
                traced.append(latency(steps))
                traced_ops.append(i)
        i += 1
    if not plain or not traced:
        raise RuntimeError("every untraced or every traced operation raised")
    tracer.write(spans_path)

    values = spans.layer_metrics(tracer.spans, traced_ops)
    values["weights.file_mb"] = wl.file_mb()
    values["model.forward.peak_mb"] = wl.forward_peak_mb(state)
    overhead = (statistics.median(traced) - statistics.median(plain)) * 1e3
    values["trace.overhead_ms"] = overhead
    units = per_layer_units()
    metrics = {name: (values[name], units[name]) for name in units}
    detail = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        f"{wl.op_label}_ms.p50.untraced": statistics.median(plain) * 1e3,
        f"{wl.op_label}_ms.p50.traced": statistics.median(traced) * 1e3,
        "trace.overhead_ms": overhead,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, program.ROOT),
        "skipped_bindings": tracer.skipped,
    }
    return metrics, detail


def per_layer_units() -> dict[str, str]:
    with open(program.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_one(args) -> int:
    program.cap_blas_threads()
    try:
        api = program.load_api()
    except program.ProgramNotFound as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    import workloads

    work_root = program.ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcomes = Outcomes()
    try:
        wl = workloads.WORKLOADS[args.workload](api, args.seed, workdir)
        if args.trace:
            spans_path = str(work_root / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, detail = run_traced(wl, api, args.seconds, outcomes, spans_path)
        else:
            metrics, detail = run_untraced(wl, args.seconds, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["error_rate"] = outcomes.failed / outcomes.attempted
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {outcomes.failed:>7d} / {outcomes.attempted}")
    for name, value in detail.items():
        if isinstance(value, (int, float)) and name != "error_rate":
            print(f"  {name:<28} {value:>14.6g}")
    print(json.dumps({"environment": program.environment(), "detail": detail}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                stdout, _ = proc.communicate()
            except BaseException:
                proc.terminate()  # lets the child remove its work directory
                proc.wait()
                raise
        lines = stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def _terminate(signum, frame):
    # Unwind normally so the work directory is removed and, under
    # --workload all, the running child is stopped too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
