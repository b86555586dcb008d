"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types

import numpy as np
import pytest

import program
import run
import spans
import workloads


@pytest.fixture(scope="module")
def api():
    return program.load_api()


def traced_operation(api, wl, state) -> list[spans.Span]:
    tracer = spans.Tracer()
    tracer.op = 1
    tracer.install(api)
    try:
        wl.operation(state, 1)
    finally:
        tracer.uninstall()
    return tracer.spans


def calls(spans_list, name):
    return sum(1 for s in spans_list if s.name == name)


def test_traced_deployed_forward_call_counts(api, tmp_path):
    wl = workloads.WORKLOADS["deployed-320"](api, 0, tmp_path)
    wl.prepare()
    recorded = traced_operation(api, wl, wl.setup())
    assert calls(recorded, "tensor.conv_pw") == 54
    assert calls(recorded, "tensor.conv_dense") == 7
    assert calls(recorded, "tensor.conv_dw") == 10
    assert calls(recorded, "tensor.silu") == 56
    assert calls(recorded, "tensor.bn") == 0
    assert calls(recorded, "model.forward") == 1


def test_traced_training_forward_call_counts(api, tmp_path):
    wl = workloads.WORKLOADS["training-b4-96"](api, 0, tmp_path)
    wl.prepare()
    recorded = traced_operation(api, wl, wl.setup())
    assert calls(recorded, "tensor.conv_pw") == 54
    assert calls(recorded, "tensor.conv_dense") == 7
    assert calls(recorded, "tensor.conv_dw") == 28
    assert calls(recorded, "tensor.bn") == 89
    assert spans.binds_per_forward(recorded, {1}) == 34


def test_every_wrapper_is_restored(api):
    def bindings():
        out = {}
        for module, func, targets in spans.SPAN_TABLE.values():
            for target_name in targets:
                target = api if target_name == "api" else sys.modules[target_name]
                if hasattr(target, func):
                    out[(target_name, func)] = getattr(target, func)
        return out

    before = bindings()
    tracer = spans.Tracer()
    tracer.install(api)
    try:
        during = bindings()
        assert all(during[key] is not fn for key, fn in before.items())
        assert not tracer.skipped
    finally:
        tracer.uninstall()
    after = bindings()
    assert all(after[key] is fn for key, fn in before.items())


def test_self_time_on_hand_built_tree():
    s = spans.Span
    tree = [
        s("root", 0.0, 10.0, None, 1),
        s("a", 1.0, 3.0, 0, 1),
        s("b", 2.5, 4.0, 0, 1),  # overlaps a: the union [1, 4] counts once
        s("c", 6.0, 7.0, 0, 1),
        s("a.leaf", 1.5, 2.0, 1, 1),  # grandchild: only its parent subtracts it
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 1.5, 1.5, 1.0, 0.5])
    by_op = spans.totals_by_op(tree)
    assert by_op[1]["root"].self_seconds == pytest.approx(6.0)
    assert by_op[1]["root"].seconds == pytest.approx(10.0)


def test_layer_value_adds_setup_to_median_operation():
    s = spans.Span
    recorded = [
        s("x", 0.0, 1.0, None, 0),
        s("x", 0.0, 2.0, None, 1),
        s("x", 0.0, 4.0, None, 2),
        s("x", 0.0, 3.0, None, 3),
    ]
    by_op = spans.totals_by_op(recorded)
    assert spans.layer_value(by_op, [1, 2, 3], "x", "seconds") == pytest.approx(1.0 + 3.0)
    assert spans.layer_value(by_op, [1, 2, 3], "x", "calls") == 2
    assert spans.layer_value(by_op, [1, 2, 3], "absent", "calls") == 0


def test_tail_is_p90_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0)
    assert run.tail(list(range(1, 301))) == (270, 90.0)
    assert run.tail(list(range(50))) == (39, 80.0)
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail([3.0, 1.0, 2.0] * 6) == (3.0, 100.0)


def test_corrupted_output_is_a_failed_operation(api, tmp_path):
    wl = workloads.WORKLOADS["training-b4-96"](api, 0, tmp_path)
    wl.prepare()
    state = wl.setup()
    outcomes = run.Outcomes()
    assert outcomes.run(wl, state, 1) is not None
    assert outcomes.failed == 0

    def corrupted_forward(*args, **kwargs):
        out = api.forward(*args, **kwargs)
        p4 = out["p4"]
        p4.flat[7] += 1e-3 * float(np.max(np.abs(p4)))
        return out

    wl.api = types.SimpleNamespace(**{**vars(api), "forward": corrupted_forward})
    outcomes.run(wl, state, 2)
    assert (outcomes.attempted, outcomes.failed) == (2, 1)


def test_reference_takes_the_naive_route_everywhere(api):
    tensor = sys.modules["mhaf.tensor"]
    users = [sys.modules[name] for name in spans.TENSOR_USERS]
    assert all(m.conv2d_fast is tensor.conv2d_fast for m in users)
    fast = tensor.conv2d_fast
    with workloads.naive_route():
        assert all(m.conv2d_fast is tensor.conv2d_naive for m in users)
    assert tensor.conv2d_fast is fast
    assert all(m.conv2d_fast is fast for m in users)


def test_corrupted_depthwise_kernel_is_a_failed_operation(api, tmp_path, monkeypatch):
    """Only the depthwise branch of conv2d_fast is wrong, and the references
    are computed in this process with it bound: the naive route must keep
    every reference convolution, inside blocks too, away from it."""
    fast = sys.modules["mhaf.tensor"].conv2d_fast

    def corrupted_conv(x, kernel):
        out = fast(x, kernel)
        if kernel.groups == x.shape[1] == kernel.out_channels and kernel.kernel_size > 1:
            out = out * np.float32(1.01)
        return out

    for name in ("mhaf.tensor", *spans.TENSOR_USERS):
        monkeypatch.setattr(sys.modules[name], "conv2d_fast", corrupted_conv)
    wl = workloads.WORKLOADS["training-b4-96"](api, 0, tmp_path)
    wl.write_reference()
    wl.load_reference()
    outcomes = run.Outcomes()
    outcomes.run(wl, wl.setup(), 1)
    assert (outcomes.attempted, outcomes.failed) == (1, 1)


def test_traced_run_ends_when_every_operation_raises(api, tmp_path):
    wl = workloads.WORKLOADS["training-b4-96"](api, 0, tmp_path)

    def raising_forward(*args, **kwargs):
        raise FloatingPointError("forward always raises")

    wl.api = types.SimpleNamespace(**{**vars(api), "forward": raising_forward})
    outcomes = run.Outcomes()
    with pytest.raises(RuntimeError, match="operation raised"):
        run.run_traced(wl, api, 1, outcomes, str(tmp_path / "spans.jsonl"))
    assert outcomes.attempted == outcomes.failed >= 3


def test_corrupted_weight_entry_is_a_failed_operation(api, tmp_path):
    wl = workloads.WORKLOADS["weights-roundtrip"](api, 0, tmp_path)
    wl.prepare()
    graph = wl.setup()

    def corrupted_load(path):
        store = api.load_weights(path)
        name = next(iter(store.entries))
        entry = store.entries[name].copy()
        entry.view(np.uint32).flat[0] ^= 1  # one bit of one entry
        store.entries[name] = entry
        return store

    wl.api = types.SimpleNamespace(**{**vars(api), "load_weights": corrupted_load})
    outcomes = run.Outcomes()
    outcomes.run(wl, graph, 1)
    assert (outcomes.attempted, outcomes.failed) == (1, 1)


def test_store_metadata_is_compared(api):
    graph = api.assemble(api.resolve_config(workloads.PRESET))
    a = api.init_weights(graph, seed=1)
    b = api.init_weights(graph, seed=1)
    assert workloads.store_problem(a, b) is None
    b.seed = 2
    assert "seed" in workloads.store_problem(a, b)


def test_benchmark_json_names_every_reported_metric():
    with open(program.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    produced = set(spans.LAYER_METRICS) | set(spans.RATE_METRICS)
    produced |= {"weights.bind.per_forward", "weights.file_mb", "model.forward.peak_mb",
                 "trace.overhead_ms"}
    declared = {m["name"] for m in bench["per_layer"]}
    assert declared == produced
    with open(program.ROOT / "perfbench" / "layer_map.json", encoding="utf-8") as fh:
        mapped = {name for row in json.load(fh)["rows"] for name in row["per_layer"]}
    assert mapped == declared
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
