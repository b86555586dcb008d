"""Tests for the command-line interface: output, formats, and exit codes."""

import hashlib
import io
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

from mhaf.cli import main
from mhaf.records import parse_records
from mhaf.weights import load_weights

from test_config import mutated_nano


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_dot(text):
    """Minimal checker for the digraph subset the exporter emits."""
    node_re = re.compile(r'^  "([^"]+)" \[label="[^"]*"\];$')
    edge_re = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')
    lines = text.strip().split("\n")
    header = re.match(r'^digraph "([^"]+)" \{$', lines[0])
    assert header, lines[0]
    assert lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        if line == "  rankdir=TB;":
            continue
        node = node_re.match(line)
        edge = edge_re.match(line)
        assert node or edge, f"unparseable dot line: {line!r}"
        if node:
            nodes.append(node.group(1))
        else:
            edges.append((edge.group(1), edge.group(2)))
    return header.group(1), nodes, edges


FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def masked(text):
    """``text`` with every float replaced by ``F``: fusion deviations,
    equivalence errors and timings depend on the BLAS build and the host."""
    return FLOAT.sub("F", text)


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "nano"])
        assert exc.value.code == 2

    def test_config_missing(self):
        with pytest.raises(SystemExit) as exc:
            main(["rf"])
        assert exc.value.code == 2

    def test_plan_takes_no_config(self):
        # the schedule comes from --uniform or the default plan alone
        with pytest.raises(SystemExit) as exc:
            main(["plan", "nano"])
        assert exc.value.code == 2

    def test_unknown_preset_is_a_validation_error(self, capsys):
        code, _, err = run(capsys, "rf", "giant")
        assert code == 1
        assert "neither a preset" in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("shapes", "--input", "0"),
            ("init", "--seed", "-1"),
            ("fuse", "--seed", "-1"),
            ("fuse", "--trials", "0"),
            ("fuse", "--input", "-64"),
            ("fuse", "--tol", "-1"),
            ("fuse", "--tol", "nan"),
            ("verify", "--seed", "-1"),
            ("verify", "--trials", "0"),
            ("verify", "--tol", "-1"),
            ("verify", "--tol", "nan"),
            ("bench", "--seed", "-1"),
            ("bench", "--trials", "-3"),
            ("bench", "--input", "0"),
        ],
    )
    def test_out_of_range_number_names_its_flag(self, capsys, tmp_path, command, flag, value):
        """Counts and sizes must be positive, seeds and tolerances
        non-negative (a NaN tolerance too); a bad value is a usage error
        before anything runs or is written."""
        out = tmp_path / "w.mhwt"
        argv = [command, "lite-nano", flag, value]
        if command in ("init", "fuse"):
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_clean_config_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "nano")
        assert code == 0
        assert "all 4 checks passed" in out
        assert out.count("[ pass ]") == 4

    def test_off_schedule_plan_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "nano", "--uniform", "3")
        assert code == 1
        assert "[ FAIL ] kernel-plan" in out

    def test_records_format(self, capsys):
        code, out, _ = run(capsys, "validate", "nano", "--format", "records")
        recs = parse_records(out)
        assert code == 0
        assert len(recs) == 4
        assert all(r["type"] == "check" and r["passed"] for r in recs)

    def test_collapsed_block_width_is_a_config_error(self, capsys, tmp_path):
        # no weight command could build blocks of zero width, so the config
        # is refused before any graph exists
        from mhaf.config import load_preset, serialize_config

        text = serialize_config(load_preset("nano"))
        assert "expansion: 2.0" in text
        path = tmp_path / "collapsed.yaml"
        path.write_text(text.replace("expansion: 2.0", "expansion: 0.01"))
        for command in ("validate", "shapes"):
            code, out, err = run(capsys, command, str(path))
            assert code == 1 and out == ""
            assert "config key 'expansion' (line 19): 0.01 x a 16-channel stream" in err

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    @pytest.mark.parametrize("key", ["width", "depth", "expansion"])
    def test_non_finite_number_is_a_config_error(self, capsys, tmp_path, key, value):
        from mhaf.config import load_preset, serialize_config

        text = serialize_config(load_preset("nano"))
        line = next(ln for ln in text.splitlines() if ln.startswith(f"{key}: "))
        path = tmp_path / "non_finite.yaml"
        path.write_text(text.replace(line, f"{key}: {value}"))
        code, out, err = run(capsys, "shapes", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"mhaf: config key '{key}'"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, key", [
        ("scale: !!bool nano", "scale"),
        ("input_size: 1" + "0" * 400, "input_size"),
    ], ids=["tagged", "huge-input"])
    def test_tagged_or_huge_value_is_a_config_error(self, capsys, tmp_path, line, key):
        # these ended in KeyError and OverflowError tracebacks
        from mhaf.config import load_preset, serialize_config

        text = serialize_config(load_preset("nano"))
        old = next(ln for ln in text.splitlines() if ln.startswith(f"{key}: "))
        path = tmp_path / "bad.yaml"
        path.write_text(text.replace(old, line))
        for command in ("validate", "shapes"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"mhaf: config key '{key}'"), err
            assert "Traceback" not in err


class TestMutatedConfigProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=mutated_nano())
    def test_validate_and_shapes_exit_0_or_1(self, text):
        # a config is refused or checked, never a traceback
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.yaml"
            path.write_text(text, encoding="utf-8")
            for command in ("validate", "shapes"):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    assert main([command, str(path)]) in (0, 1)


class TestInspection:
    def test_rf_text(self, capsys):
        code, out, _ = run(capsys, "rf", "nano")
        assert code == 0
        assert "head.p3  stride 8   rf 871" in out
        assert "head.p5  stride 32  rf 1223" in out

    def test_rf_records_round_trip(self, capsys):
        _, out, _ = run(capsys, "rf", "nano", "--format", "records")
        recs = parse_records(out)
        assert recs[0] == {"type": "rf", "node": "head.p3", "rf": 871, "stride": 8}
        assert len(recs) == 3

    def test_rf_uniform_ablation(self, capsys):
        _, sched, _ = run(capsys, "rf", "nano")
        _, flat, _ = run(capsys, "rf", "nano", "--uniform", "3")
        assert sched != flat
        assert "rf 311" in flat

    def test_plan_records(self, capsys):
        code, out, _ = run(capsys, "plan", "--format", "records")
        recs = parse_records(out)
        kernels = [r for r in recs if r["type"] == "kernel"]
        assert code == 0
        assert len(kernels) == 10  # 4 backbone + 3 per neck pathway
        assert recs[-1] == {"type": "schedule", "passed": True, "detail": "schedule holds"}

    def test_plan_off_schedule_exit(self, capsys):
        code, out, _ = run(capsys, "plan", "--uniform", "3")
        assert code == 1
        assert "schedule:" in out

    def test_shapes_totals(self, capsys):
        code, out, _ = run(capsys, "shapes", "nano")
        assert code == 0
        assert "head.p3" in out
        assert "params 2,307,344" in out
        assert "7.77 GFLOPs at 640x640" in out

    def test_shapes_bad_input_size(self, capsys):
        code, _, err = run(capsys, "shapes", "nano", "--input", "100")
        assert code == 1
        assert "32" in err

    def test_yaml_path_is_equivalent_to_preset_name(self, capsys, tmp_path):
        _, by_name, _ = run(capsys, "rf", "nano")
        from mhaf.config import load_preset, serialize_config

        path = tmp_path / "nano.yaml"
        path.write_text(serialize_config(load_preset("nano")))
        code, by_path, _ = run(capsys, "rf", str(path))
        assert code == 0
        assert by_path == by_name


class TestExport:
    def test_dot_is_wellformed(self, capsys):
        code, out, _ = run(capsys, "export", "nano")
        assert code == 0
        name, nodes, edges = parse_dot(out)
        assert name == "nano"
        assert len(nodes) == 35
        assert len(edges) == 47
        assert len(set(edges)) == len(edges)

    def test_dot_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "export", "nano", "--out", str(target))
        assert code == 0
        assert out == ""
        parse_dot(target.read_text())

    def test_records_edges_match_dot(self, capsys):
        _, dot_out, _ = run(capsys, "export", "nano")
        _, rec_out, _ = run(capsys, "export", "nano", "--format", "records")
        _, _, dot_edges = parse_dot(dot_out)
        recs = parse_records(rec_out)
        rec_edges = [(r["src"], r["dst"]) for r in recs if r["type"] == "edge"]
        assert rec_edges == dot_edges


class TestWeightCommands:
    def test_init_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.mhwt", tmp_path / "b.mhwt"
        code1, out, _ = run(capsys, "init", "lite-nano", "--seed", "0", "--out", str(a))
        code2, _, _ = run(capsys, "init", "lite-nano", "--seed", "0", "--out", str(b))
        assert code1 == code2 == 0
        assert "445 entries" in out
        assert a.read_bytes() == b.read_bytes()

    def test_init_records(self, capsys, tmp_path):
        path = tmp_path / "w.mhwt"
        _, out, _ = run(capsys, "init", "lite-nano", "--out", str(path), "--format", "records")
        (rec,) = parse_records(out)
        assert rec["type"] == "init"
        assert rec["entries"] == 445
        assert rec["bytes"] == path.stat().st_size

    def test_fuse_writes_deployed_store(self, capsys, tmp_path):
        fused = tmp_path / "f.mhwt"
        code, out, _ = run(
            capsys, "fuse", "lite-nano", "--trials", "1", "--input", "64",
            "--out", str(fused),
        )
        assert code == 0
        assert "folded 5 normalization nodes" in out
        assert load_weights(fused).form == "deployed"

    def test_fuse_refuses_deployed_input(self, capsys, tmp_path):
        fused = tmp_path / "f.mhwt"
        run(capsys, "fuse", "lite-nano", "--trials", "1", "--input", "64",
            "--out", str(fused))
        code, _, err = run(
            capsys, "fuse", "lite-nano", "--weights", str(fused),
            "--trials", "1", "--input", "64", "--out", str(tmp_path / "g.mhwt"),
        )
        assert code == 1
        assert "deployed" in err

    def test_fuse_rejects_corrupt_weights(self, capsys, tmp_path):
        store_path = tmp_path / "w.mhwt"
        run(capsys, "init", "lite-nano", "--out", str(store_path))
        raw = bytearray(store_path.read_bytes())
        raw[100] ^= 0xFF
        store_path.write_bytes(bytes(raw))
        code, _, err = run(
            capsys, "fuse", "lite-nano", "--weights", str(store_path),
            "--trials", "1", "--input", "64", "--out", str(tmp_path / "f.mhwt"),
        )
        assert code == 3
        assert "checksum" in err

    def test_fuse_missing_weights_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fuse", "lite-nano", "--weights", str(tmp_path / "absent.mhwt"),
            "--trials", "1", "--input", "64", "--out", str(tmp_path / "f.mhwt"),
        )
        assert code == 3
        assert err

    def test_fuse_impossible_tolerance(self, capsys, tmp_path):
        target = tmp_path / "f.mhwt"
        code, out, _ = run(
            capsys, "fuse", "lite-nano", "--trials", "1", "--input", "64",
            "--tol", "0", "--out", str(target),
        )
        assert code == 1
        assert "nothing written" in out
        assert not target.exists()

    def test_fuse_records(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fuse", "lite-nano", "--trials", "2", "--input", "64",
            "--out", str(tmp_path / "f.mhwt"), "--format", "records",
        )
        (rec,) = parse_records(out)
        assert code == 0
        assert rec["type"] == "fusion"
        assert rec["bn_nodes_removed"] == 5
        assert rec["floats_after"] < rec["floats_before"]
        assert rec["passed"] is True

    def test_verify_reports_every_mixer(self, capsys):
        code, out, _ = run(capsys, "verify", "lite-nano", "--trials", "2")
        assert code == 0
        assert "all 7 mixer configurations equivalent" in out

    def test_verify_records(self, capsys):
        code, out, _ = run(
            capsys, "verify", "lite-nano", "--trials", "2", "--format", "records"
        )
        recs = parse_records(out)
        assert code == 0
        assert len(recs) == 7
        assert all(r["passed"] for r in recs)

    def test_verify_zero_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "lite-nano", "--trials", "1", "--tol", "0"
        )
        assert code == 1
        assert "diverged" in out

    def test_bench_reports_both_forms(self, capsys):
        code, out, _ = run(
            capsys, "bench", "lite-nano", "--input", "64", "--trials", "3"
        )
        assert code == 0
        assert "training" in out
        assert "deployed" in out
        assert "speedup:" in out

    def test_bench_records(self, capsys):
        code, out, _ = run(
            capsys, "bench", "lite-nano", "--input", "64", "--trials", "2",
            "--format", "records",
        )
        recs = parse_records(out)
        assert code == 0
        assert [r["type"] for r in recs] == ["bench", "bench", "speedup"]
        assert recs[2]["ratio"] > 0


RECORDS = ("--format", "records")
FUSE = ("fuse", "lite-nano", "--trials", "1", "--input", "64", "--out", "OUT")
VERIFY = ("verify", "lite-nano", "--trials", "2")

# (argv, exit code, sha256 of stdout).  "OUT" in argv stands for a weight
# file under tmp_path, and its path is written back as "OUT" in the output.
# Fuse and verify are pinned with every float masked.
PINNED = [
    (("validate", "nano"), 0,
     "3d7981cc24671cd296dba5b446d670b1af1d21420864134392a55d7529e8c768"),
    (("validate", "nano", *RECORDS), 0,
     "1dc576f09a23cc3baefeee5e2be8d9f10bc7586346ae75bee6e1ae330389346c"),
    (("validate", "nano", "--uniform", "3"), 1,
     "455293aabc314e4ae4151aa0af5404731407334678d188a2890bb07415b6dfd1"),
    (("validate", "nano", "--uniform", "3", *RECORDS), 1,
     "1e467d7584db6b2ca8937e1717ec1c67f841b6047a9c71bb2216ac0b51921446"),
    (("shapes", "nano"), 0,
     "c06d46be1369a7b1eb865aeeb6e01411445fc8ef17730ce6b2066f6a907787c1"),
    (("shapes", "nano", *RECORDS), 0,
     "6864e9c6fc92f5cd6e79d30fb4dc9708eca95c95a29f0d4e245c87c811cebe06"),
    (("plan",), 0,
     "c36a881cee4692f2974b881c108b6caaf24583a21de65d8cbcf63acb65660895"),
    (("plan", *RECORDS), 0,
     "b2d4356e4e1b91d590fc9b1dbadadafe20f564a9d6e0ec333c5805d9860424bc"),
    (("rf", "nano"), 0,
     "da82e029eef4fa7b6c945a3beb09431bb94b63763df37cbb2360c20ce4871c8a"),
    (("rf", "nano", *RECORDS), 0,
     "38b856fa4d2c7d8a8ccc0be051db627e04e5d1c7a72f7491dda55bcc05aee0b9"),
    (("export", "nano"), 0,
     "1e0684efa1d0451471ee553ff9d96abb2880b927821931f9681e3074538aeb14"),
    (("export", "nano", *RECORDS), 0,
     "ff62de4323386e161176ad48402067c4197d852043f7e38750fb0e6bb02023ce"),
    (("init", "lite-nano", "--seed", "3", "--out", "OUT"), 0,
     "2cf606a6f73c113d152ed67bc3b290958211f51d096e67b39e911b8e86e128bc"),
    (("init", "lite-nano", "--seed", "3", "--out", "OUT", *RECORDS), 0,
     "16cc6b8daaa92be57d837504ff16e8ece43185e48525777718501ece269e4645"),
    (FUSE, 0,
     "74d4858e203f0bd138cc00ba646ab9281fe3bdc2d34617e62e69f83fd8a3275e"),
    ((*FUSE, *RECORDS), 0,
     "ae3cfaf6900056c335de797669cfbcd8fb6b78b01aae00e1f4424c1afa00edfe"),
    (VERIFY, 0,
     "3641d5ab2e3609414cca7911f1319e1f31537c1ed94323da954de5797044ea9f"),
    ((*VERIFY, *RECORDS), 0,
     "62496acdbd0ddd23557202bb0d56b53eb068d19e7e22f50e2ad7ebcafe1ad04e"),
]


class TestPinnedOutput:
    """Whole outputs, pinned by digest: a change to any command's report,
    in either format, shows here."""

    @pytest.mark.parametrize(
        "argv, code, digest", PINNED, ids=[" ".join(argv) for argv, _, _ in PINNED]
    )
    def test_stdout_digest(self, capsys, tmp_path, argv, code, digest):
        target = str(tmp_path / "w.mhwt")
        got_code, out, err = run(capsys, *(target if a == "OUT" else a for a in argv))
        out = out.replace(target, "OUT")
        if argv[0] in ("fuse", "verify"):
            out = masked(out)
        assert (got_code, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    @pytest.mark.parametrize("fmt", ["text", "records"])
    @pytest.mark.parametrize("argv", [("validate", "nano"), ("validate", "nano", "--uniform", "3")])
    def test_report_out_receives_stdout(self, capsys, tmp_path, argv, fmt):
        code, shown, _ = run(capsys, *argv, "--format", fmt)
        report = tmp_path / "report.txt"
        code_out, out, err = run(capsys, *argv, "--format", fmt, "--out", str(report))
        assert (code_out, out, err) == (code, "", "")
        assert report.read_text(encoding="utf-8") == shown

    @pytest.mark.parametrize("fmt", ["text", "records"])
    @pytest.mark.parametrize("argv, form", [
        (("init", "lite-nano"), "training"),
        (("fuse", "lite-nano", "--trials", "1", "--input", "64"), "deployed"),
    ])
    def test_weight_commands_report_on_stdout(self, capsys, tmp_path, argv, form, fmt):
        target = tmp_path / "w.mhwt"
        code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
        assert code == 0
        assert load_weights(target).form == form
        if fmt == "records":
            assert len(parse_records(out)) == 1
        else:
            assert str(target) in out.splitlines()[-1]


class TestModuleInvocation:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mhaf", "validate", "nano"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "all 4 checks passed" in proc.stdout

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mhaf"], capture_output=True, text=True
        )
        assert proc.returncode == 2
