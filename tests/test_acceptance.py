"""Acceptance gate: one test per release criterion, each reporting a single
pass/fail line on the real stdout so the verdicts survive output capture.

These tests intentionally re-derive expectations with their own sweeps and
windows rather than reusing unit-test fixtures.
"""

import numpy as np

from mhaf.cli import main as cli_main
from mhaf.config import load_preset
from mhaf.ghfks import default_plan, rf_report, uniform_plan
from mhaf.graph import assemble, count_params_flops
from mhaf.model import benchmark_forward, forward, fuse_model
from mhaf.reparam import RepHConvSpec, fuse_conv_bn, verify_equivalence
from mhaf.tensor import BNParams, ConvKernel, batchnorm_infer, conv2d_fast, conv2d_naive
from mhaf.weights import init_weights

from oracles import normalized_max_error
from test_model import non_identity_bn_store


def report(capsys, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[ {'PASS' if passed else 'FAIL'} ] {name}: {detail}", flush=True)


def random_bn(rng, channels) -> BNParams:
    return BNParams(
        mean=rng.normal(0.0, 0.3, channels).astype(np.float32),
        var=rng.uniform(0.5, 1.5, channels).astype(np.float32),
        gamma=rng.uniform(0.5, 1.5, channels).astype(np.float32),
        beta=rng.normal(0.0, 0.3, channels).astype(np.float32),
    )


def test_01_reparameterization_equivalence(capsys):
    """Deployed single-kernel forward matches the multi-branch training
    forward for every scheduled kernel size and a spread of widths."""
    worst_fold, worst_multi = 0.0, 0.0
    ok = True
    for channels in (8, 32, 64):
        for kernel in (3, 5, 7, 9):
            tol = 1e-6 if kernel == 3 else 1e-4
            rep = verify_equivalence(
                RepHConvSpec(channels, kernel), trials=100, tolerance=tol, seed=0
            )
            ok = ok and rep.passed
            if kernel == 3:
                worst_fold = max(worst_fold, rep.max_abs_error)
            else:
                worst_multi = max(worst_multi, rep.max_abs_error)
    detail = (
        "12 configs x 100 trials on 20x20 inputs: "
        f"worst k=3 {worst_fold:.2e} (tol 1e-06), "
        f"worst k>=5 {worst_multi:.2e} (tol 1e-04)"
    )
    report(capsys, "reparam-equivalence", ok, detail)
    assert ok, detail


def test_02_bn_fusion_two_path_equality(capsys):
    """bn(conv(x)) equals conv with folded weights across 200 random
    conv/BN configurations."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(200):
        mode = trial % 3
        if mode == 0:  # dense
            cin, cout, groups = int(rng.integers(1, 13)), int(rng.integers(1, 13)), 1
        elif mode == 1:  # depthwise
            cin = cout = groups = int(rng.integers(1, 13))
        else:  # grouped
            groups = int(rng.integers(1, 5))
            cin = groups * int(rng.integers(1, 4))
            cout = groups * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        size = k + int(rng.integers(0, 8))
        w = (rng.standard_normal((cout, cin // groups, k, k)) * 0.3).astype(np.float32)
        bias = (
            rng.normal(0.0, 0.3, cout).astype(np.float32)
            if trial % 2
            else np.zeros(cout, dtype=np.float32)
        )
        kern = ConvKernel(weights=w, bias=bias, stride=stride, groups=groups)
        bn = random_bn(rng, cout)
        x = rng.standard_normal((1, cin, size, size)).astype(np.float32)
        two_op = batchnorm_infer(conv2d_fast(x, kern), bn)
        one_op = conv2d_fast(x, fuse_conv_bn(kern, bn))
        worst = max(worst, normalized_max_error(one_op, two_op))
    ok = worst <= 1e-5
    detail = f"200 random configs: worst relative error {worst:.2e} (tol 1e-05)"
    report(capsys, "bn-fusion", ok, detail)
    assert ok, detail


def test_03_convolution_oracle_equivalence(capsys):
    """The dispatching convolution agrees with the reference loop across
    200 random configurations including stride-2 and depthwise cases."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for trial in range(200):
        mode = trial % 4
        k = int(rng.choice([1, 3, 5, 7]))
        stride = 2 if mode in (1, 3) else 1
        if mode in (2, 3):  # depthwise
            cin = cout = groups = int(rng.integers(1, 9))
        else:
            groups = int(rng.choice([1, 1, 2]))
            cin = groups * int(rng.integers(1, 5))
            cout = groups * int(rng.integers(1, 5))
        size = k + int(rng.integers(0, 9))
        w = (rng.standard_normal((cout, cin // groups, k, k)) * 0.4).astype(np.float32)
        bias = rng.normal(0.0, 0.5, cout).astype(np.float32)
        kern = ConvKernel(weights=w, bias=bias, stride=stride, groups=groups)
        x = rng.standard_normal((int(rng.integers(1, 3)), cin, size, size))
        x = x.astype(np.float32)
        worst = max(
            worst, normalized_max_error(conv2d_fast(x, kern), conv2d_naive(x, kern))
        )
    ok = worst <= 1e-5
    detail = f"200 random configs: worst relative error {worst:.2e} (tol 1e-05)"
    report(capsys, "conv-oracle", ok, detail)
    assert ok, detail


def test_04_end_to_end_fusion(capsys):
    """Whole-model fusion preserves nano forward outputs within 1e-2 and
    strictly reduces the stored parameter count."""
    graph = assemble(load_preset("nano"))
    store = init_weights(graph, seed=0)
    outcome = fuse_model(graph, store)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal((1, 3, 320, 320)).astype(np.float32)
        before = forward(graph, store, x)
        after = forward(outcome.graph, outcome.store, x)
        for level in before:
            worst = max(worst, float(np.max(np.abs(before[level] - after[level]))))
    shrunk = outcome.params_after < outcome.params_before
    ok = worst <= 1e-2 and shrunk
    detail = (
        f"10 inputs at 320x320: max |deviation| {worst:.2e} (tol 1e-02); "
        f"stored floats {outcome.params_before:,} -> {outcome.params_after:,}"
    )
    report(capsys, "end-to-end-fusion", ok, detail)
    assert ok, detail


def test_11_fusion_with_non_identity_bn(capsys):
    """Whole-model fusion of a nano whose batchnorms are not identity
    transforms preserves every head within a relative error of 1e-4.  Its
    heads reach about 1.5e3, where float32 rounding alone nears test 04's
    absolute bound, so the error is judged relative to the maps' range."""
    graph = assemble(load_preset("nano"))
    store = non_identity_bn_store(graph, seed=0)
    outcome = fuse_model(graph, store)
    rng = np.random.default_rng(123)
    worst, deviation = {}, 0.0
    for _ in range(3):
        x = rng.standard_normal((1, 3, 320, 320)).astype(np.float32)
        before = forward(graph, store, x)
        after = forward(outcome.graph, outcome.store, x)
        for level in before:
            err = normalized_max_error(after[level], before[level])
            worst[level] = max(worst.get(level, 0.0), err)
            deviation = max(deviation, float(np.max(np.abs(before[level] - after[level]))))
    ok = all(err <= 1e-4 for err in worst.values())
    detail = (
        "3 inputs at 320x320, non-identity BN: worst relative error "
        + ", ".join(f"{level} {err:.2e}" for level, err in worst.items())
        + f" (tol 1e-04); max |deviation| {deviation:.2e}"
    )
    report(capsys, "bn-stats-fusion", ok, detail)
    assert ok, detail


def test_05_architecture_bookkeeping(capsys):
    """Assembled preset totals land in the published windows."""
    nano = count_params_flops(assemble(load_preset("nano")))
    small = count_params_flops(assemble(load_preset("small")))
    nano_ok = 1.9e6 <= nano.params <= 2.6e6 and 6.0e9 <= nano.flops <= 8.5e9
    small_ok = 6.0e6 <= small.params <= 8.5e6 and 21e9 <= small.flops <= 30e9
    ok = nano_ok and small_ok
    detail = (
        f"nano {nano.params / 1e6:.2f}M params / {nano.flops / 1e9:.2f}G flops "
        "(windows [1.9, 2.6] / [6.0, 8.5]); "
        f"small {small.params / 1e6:.2f}M / {small.flops / 1e9:.2f}G "
        "(windows [6.0, 8.5] / [21, 30])"
    )
    report(capsys, "bookkeeping", ok, detail)
    assert ok, detail


def test_06_kernel_schedule(capsys):
    """The default plan assigns 3/5/7/9 across backbone stages and 5/7/9
    across neck levels on both pathways."""
    plan = default_plan()
    backbone_ok = [plan.backbone[lv] for lv in ("p2", "p3", "p4", "p5")] == [3, 5, 7, 9]
    neck_ok = all(
        plan.neck[pw] == {"p3": 5, "p4": 7, "p5": 9} for pw in ("shallow", "deep")
    )
    ok = backbone_ok and neck_ok
    detail = f"backbone {list(plan.backbone.values())}, neck {plan.neck['shallow']}"
    report(capsys, "kernel-schedule", ok, detail)
    assert ok, detail


def test_07_fusion_wiring(capsys):
    """Interior fusion nodes gather four sources each; boundary nodes
    drop exactly the sources that do not exist, and the two finer-level
    contributions of a deep node come from different pathways."""
    g = assemble(load_preset("nano"))
    arities = {
        name: len(g.node(name).inputs)
        for name in (
            "neck.p3.shallow.fuse",
            "neck.p4.shallow.fuse",
            "neck.p5.shallow.fuse",
            "neck.p3.deep.fuse",
            "neck.p4.deep.fuse",
            "neck.p5.deep.fuse",
        )
    }
    expected = {
        "neck.p3.shallow.fuse": 4,
        "neck.p4.shallow.fuse": 4,
        "neck.p5.shallow.fuse": 2,
        "neck.p3.deep.fuse": 2,
        "neck.p4.deep.fuse": 4,
        "neck.p5.deep.fuse": 3,
    }
    deep_p4 = g.node("neck.p4.deep.fuse")
    roles = dict(zip(deep_p4.attrs["roles"], deep_p4.inputs))
    distinct = roles["below_refined"] != roles["below_deep"]
    ok = arities == expected and distinct
    shallow = [arities[f"neck.{lv}.shallow.fuse"] for lv in ("p3", "p4", "p5")]
    deep = [arities[f"neck.{lv}.deep.fuse"] for lv in ("p3", "p4", "p5")]
    detail = (
        f"shallow arities {shallow}, deep arities {deep}; "
        f"deep P4 finer sources {roles['below_refined']} vs {roles['below_deep']}"
    )
    report(capsys, "fusion-wiring", ok, detail)
    assert ok, detail


def test_08_receptive_field_monotonicity(capsys):
    """Head receptive fields grow strictly with stride, and the all-3x3
    ablation strictly shrinks every head's receptive field."""
    spec = load_preset("nano")
    scheduled = rf_report(assemble(spec))
    flat = rf_report(assemble(spec, uniform_plan(3)))
    rfs = [e.rf for e in scheduled]
    increasing = all(a < b for a, b in zip(rfs, rfs[1:]))
    shrunk = all(f.rf < s.rf for f, s in zip(flat, scheduled))
    ok = increasing and shrunk
    detail = f"scheduled {rfs}, all-3x3 {[e.rf for e in flat]}"
    report(capsys, "rf-monotonicity", ok, detail)
    assert ok, detail


def test_09_benchmark_sanity(capsys):
    """Deployed-form median latency does not exceed training-form median."""
    graph = assemble(load_preset("nano"))
    store = init_weights(graph, seed=0)
    x = np.random.default_rng(7).standard_normal((1, 3, 320, 320)).astype(np.float32)
    training = benchmark_forward(graph, store, x, "training", iterations=31)
    outcome = fuse_model(graph, store)
    deployed = benchmark_forward(outcome.graph, outcome.store, x, "deployed", iterations=31)
    ok = deployed.median_seconds <= training.median_seconds
    detail = (
        f"median of 31 at 320x320: training {training.median_seconds * 1e3:.1f} ms, "
        f"deployed {deployed.median_seconds * 1e3:.1f} ms"
    )
    report(capsys, "benchmark-sanity", ok, detail)
    assert ok, detail


def test_10_determinism(capsys, tmp_path):
    """Seeded initialization writes byte-identical files and repeated
    forward passes are bit-identical."""
    a, b = tmp_path / "a.mhwt", tmp_path / "b.mhwt"
    code_a = cli_main(["init", "nano", "--seed", "0", "--out", str(a)])
    code_b = cli_main(["init", "nano", "--seed", "0", "--out", str(b)])
    bytes_ok = code_a == code_b == 0 and a.read_bytes() == b.read_bytes()

    graph = assemble(load_preset("nano"))
    store = init_weights(graph, seed=0)
    x = np.random.default_rng(3).standard_normal((1, 3, 320, 320)).astype(np.float32)
    first = forward(graph, store, x)
    second = forward(graph, store, x)
    bits_ok = all(np.array_equal(first[lv], second[lv]) for lv in first)

    ok = bytes_ok and bits_ok
    detail = (
        f"init --seed 0 twice: {'byte-identical' if bytes_ok else 'DIFFERENT'} "
        f"({a.stat().st_size:,} bytes); repeated forward "
        f"{'bit-identical' if bits_ok else 'DIFFERENT'}"
    )
    report(capsys, "determinism", ok, detail)
    assert ok, detail
