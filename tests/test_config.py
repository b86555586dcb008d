"""Tests for model configuration parsing, scaling, and presets."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from mhaf.config import (
    MAX_CASCADE,
    MAX_INPUT,
    MAX_WIDTH,
    PRESET_NAMES,
    ConfigError,
    ModelSpec,
    load_preset,
    normalize_config,
    parse_config,
    resolve_config,
    round_to_multiple_of_8,
    serialize_config,
    spec_hash,
)

from test_model import model_specs


def nano_text():
    return serialize_config(load_preset("nano"))


class TestRounding:
    def test_multiples_pass_through(self):
        for v in (8, 16, 64, 320):
            assert round_to_multiple_of_8(v) == v

    def test_rounds_to_nearest(self):
        assert round_to_multiple_of_8(12) == 16
        assert round_to_multiple_of_8(11) == 8
        assert round_to_multiple_of_8(164) == 168

    def test_never_collapses_to_zero(self):
        assert round_to_multiple_of_8(1) == 8
        assert round_to_multiple_of_8(3) == 8


class TestPresets:
    def test_four_presets_exist(self):
        assert PRESET_NAMES == ("lite-nano", "nano", "small", "medium")
        for name in PRESET_NAMES:
            spec = load_preset(name)
            assert spec.scale == name

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="lite-nano"):
            load_preset("giant")

    def test_nano_scaling(self):
        spec = load_preset("nano")
        assert spec.width == 0.5
        assert spec.scaled_stage_channels == (32, 64, 128, 256)
        assert spec.scaled_neck_channels == 160
        assert spec.scaled_backbone_blocks == 1
        assert spec.scaled_neck_blocks == 1

    def test_width_ordering_across_presets(self):
        widths = [load_preset(n).width for n in PRESET_NAMES]
        assert widths == sorted(widths)
        assert len(set(widths)) == len(widths)

    def test_scaled_widths_divisible_by_streams(self):
        # every stream split must land on whole channels
        for name in PRESET_NAMES:
            spec = load_preset(name)
            for ch in spec.scaled_stage_channels[1:]:
                assert ch % spec.backbone_streams == 0
            assert spec.scaled_neck_channels % spec.neck_streams == 0


class TestParse:
    def test_round_trip(self):
        text = nano_text()
        spec = parse_config(text)
        assert spec == load_preset("nano")
        assert serialize_config(spec) == text

    def test_normalize_is_idempotent(self):
        text = nano_text()
        once = normalize_config(text)
        assert normalize_config(once) == once

    def test_normalize_canonicalizes_key_order(self):
        scrambled = "\n".join(reversed(nano_text().strip().split("\n")))
        # reversing top-level lines breaks nesting, so permute blocks instead
        spec = load_preset("nano")
        loose = (
            "expansion: 2.0\n"
            "width: 0.5\n"
            "scale: nano\n"
            "depth: 0.33\n"
            "input_size: 640\n"
            "rephms:\n"
            "  neck: {streams: 2, blocks: 3}\n"
            "  backbone: {streams: 2, blocks: 3}\n"
            "channels:\n"
            "  neck: 320\n"
            "  stages: [64, 128, 256, 512]\n"
        )
        assert normalize_config(loose) == serialize_config(spec)
        del scrambled

    def test_missing_key_names_it(self):
        text = nano_text().replace("width: 0.5\n", "")
        with pytest.raises(ConfigError, match="width"):
            parse_config(text)

    def test_bad_type_reports_line(self):
        text = nano_text().replace("width: 0.5", "width: wide")
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_config(text)

    def test_zero_width_rejected(self):
        text = nano_text().replace("width: 0.5", "width: 0.0")
        with pytest.raises(ConfigError, match="width"):
            parse_config(text)

    def test_wrong_stage_count_rejected(self):
        text = nano_text().replace("  - 512\n", "")
        with pytest.raises(ConfigError, match="stages"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = nano_text() + "momentum: 0.9\n"
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(text)

    def test_indivisible_stream_split_rejected(self):
        # width 0.3 x 320 -> 96 neck channels; fine for 2 streams,
        # but stage p5 512 * 0.3 -> 152 which 3 streams cannot split
        text = nano_text().replace("width: 0.5", "width: 0.3")
        text = text.replace("    streams: 2\n    blocks: 3\n  neck:", "    streams: 3\n    blocks: 3\n  neck:")
        with pytest.raises(ConfigError, match="streams"):
            parse_config(text)

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("- just\n- a\n- list\n")

    @pytest.mark.parametrize("where", ["top", "channels"])
    def test_mixed_type_unknown_keys_rejected(self, where):
        # sorting the unknown keys to name one compared 1 with 'foo'
        text = nano_text()
        if where == "top":
            text += "1: 2\nfoo: 3\n"
        else:
            text = text.replace("  neck: 320\n", "  neck: 320\n  1: 2\n  foo: 3\n")
        prefix = "" if where == "top" else "channels."
        with pytest.raises(ConfigError, match=rf"^config key '{prefix}1' \(line \d+\): unknown"):
            parse_config(text)

    @pytest.mark.parametrize("text, key", [
        # a literal dotted key is a top-level key, not a path into `channels`
        ("channels.stages: [64, 128, 256, 512]\n", "channels.stages"),
        ("    foo: 3\n", "rephms.neck.foo"),
    ], ids=["literal-dotted", "nested"])
    def test_unknown_key_named_by_dotted_path(self, text, key):
        with pytest.raises(ConfigError, match=rf"^config key '{key}' \(line 19\): unknown"):
            parse_config(nano_text().replace("expansion: 2.0\n", "") + text)

    def test_missing_nested_key_named_by_dotted_path(self):
        text = nano_text().replace("  neck: 320\n", "")
        with pytest.raises(ConfigError, match=r"'channels' \(line 5\): .*\['channels.neck'\]"):
            parse_config(text)

    @pytest.mark.parametrize("value", [
        "2001-13-45",  # a date past the calendar
        "1" * 5000,  # past Python's integer digit limit
        "[" * 800 + "]" * 800,  # nested past the recursion limit
    ], ids=["date", "digits", "nesting"])
    def test_unbuildable_scalar_rejected(self, value):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config(nano_text().replace("scale: nano", f"scale: {value}"))


    @pytest.mark.parametrize("key", ["null", "true", "~", "NULL"])
    def test_unknown_key_named_as_spelled(self, key):
        text = nano_text().replace("expansion: 2.0\n", "") + f"{key}: 1\n"
        with pytest.raises(ConfigError, match=rf"^config key '{key}' \(line 19\): unknown"):
            parse_config(text)

    @pytest.mark.parametrize("line, key", [
        ("width: 0.75", "width"),
        ("  neck: 320", "channels.neck"),
        ("    streams: 2", "rephms.backbone.streams"),
    ])
    def test_repeated_key_rejected_at_second_line(self, line, key):
        # YAML keeps the last of two equal keys; a config refuses the second
        lines = nano_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(line[:-3])) + 1
        lines.insert(at, line)
        with pytest.raises(ConfigError, match=rf"^config key '{key}' \(line {at + 1}\): repeated key$"):
            parse_config("\n".join(lines) + "\n")

    def test_merge_keys_are_read(self):
        text = nano_text().replace(
            "  backbone:\n    streams: 2\n    blocks: 3\n  neck:\n    streams: 2\n    blocks: 3\n",
            "  backbone: &section\n    streams: 2\n    blocks: 3\n  neck:\n    <<: *section\n    blocks: 1\n",
        )
        spec = parse_config(text)
        assert (spec.neck_streams, spec.neck_blocks) == (2, 1)
        assert spec == dataclasses.replace(load_preset("nano"), neck_blocks=1)

    def test_tagged_key_is_not_a_schema_key(self):
        # PyYAML would build this key as an int, or fail to
        text = nano_text().replace("width: 0.5", "!!int width: 0.5")
        with pytest.raises(ConfigError, match=r"^config key 'width' \(line 2\): unknown"):
            parse_config(text)

    def test_collection_key_rejected(self):
        with pytest.raises(ConfigError, match=r"a key must be a scalar\n.* line 20"):
            parse_config(nano_text() + "? [a, b]\n: 1\n")


def nano_fields(**changes):
    """Nano's spec fields as ``ModelSpec`` keywords, with ``changes``."""
    return {**dataclasses.asdict(load_preset("nano")), **changes}


class TestSpecChecksItself:
    """A spec built in code runs the same checks as one parsed from text,
    naming the document key, without a line."""

    @pytest.mark.parametrize("depth", [1e308, 999999.0])
    def test_replace_with_huge_depth_rejected(self, depth):
        with pytest.raises(ConfigError, match=r"^config key 'rephms.backbone': cascade of"):
            dataclasses.replace(load_preset("nano"), depth=depth)

    @pytest.mark.parametrize("field, value, key", [
        ("width", True, "width"),
        ("stage_channels", (64, 128, 256), "channels.stages"),
        ("neck_channels", 320.0, "channels.neck"),
        ("input_size", 641, "input_size"),
        ("expansion", float("nan"), "expansion"),
    ])
    def test_bad_field_named_by_key(self, field, value, key):
        with pytest.raises(ConfigError, match=rf"^config key '{key}': must be "):
            ModelSpec(**nano_fields(**{field: value}))

    def test_fields_are_converted(self):
        spec = ModelSpec(**nano_fields(stage_channels=[64, 128, 256, 512], width=1, expansion=2))
        assert spec.stage_channels == (64, 128, 256, 512)
        assert (spec.width, spec.expansion) == (1.0, 2.0)
        assert isinstance(spec.width, float) and isinstance(spec.expansion, float)
        assert ModelSpec(**nano_fields()) == load_preset("nano")


class TestWidthBounds:
    """Every scaled stage and neck width, and every block's expanded width
    (stream width x expansion, rounded), lies in 1..MAX_WIDTH.  Only
    parse_config runs here: no graph is built on a wide config."""

    def test_presets_sit_below_the_limit(self):
        widest = max(max(load_preset(n).scaled_stage_channels) for n in PRESET_NAMES)
        assert (widest, MAX_WIDTH) == (576, 4096)

    def test_tiny_width_still_gives_eight_channels(self):
        spec = parse_config(nano_text().replace("width: 0.5", "width: 1.0e-300"))
        assert spec.scaled_stage_channels == (8, 8, 8, 8)
        assert spec.scaled_neck_channels == 8

    @pytest.mark.parametrize("base, accepted", [(4096, True), (4104, False)])
    def test_stage_width_bound(self, base, accepted):
        text = nano_text().replace("width: 0.5", "width: 1.0").replace("  - 512", f"  - {base}")
        text = text.replace("expansion: 2.0", "expansion: 1.0")
        if accepted:
            assert parse_config(text).scaled_stage_channels[-1] == MAX_WIDTH
        else:
            match = r"^config key 'channels.stages' \(line 6\): width 4104 .* limit of 4096"
            with pytest.raises(ConfigError, match=match):
                parse_config(text)

    @pytest.mark.parametrize("neck, accepted", [
        ("8192", True), ("8208", False), ("320000000000000000000", False),
    ])
    def test_neck_width_bound(self, neck, accepted):
        text = nano_text().replace("neck: 320", f"neck: {neck}").replace("expansion: 2.0", "expansion: 1.0")
        if accepted:
            assert parse_config(text).scaled_neck_channels == MAX_WIDTH
        else:
            with pytest.raises(ConfigError, match=r"^config key 'channels.neck' \(line 11\): width"):
                parse_config(text)

    @pytest.mark.parametrize("expansion, accepted", [
        # nano's narrowest stream is 16 channels (p2), its widest 128 (p5)
        ("0.04", True), ("0.03", False), ("32.0", True), ("32.01", False), ("1.0e+308", False),
    ])
    def test_expanded_width_bound(self, expansion, accepted):
        text = nano_text().replace("expansion: 2.0", f"expansion: {expansion}")
        if accepted:
            assert parse_config(text).expansion == float(expansion)
        else:
            match = r"^config key 'expansion' \(line 19\): .* block width outside 1..4096"
            with pytest.raises(ConfigError, match=match):
                parse_config(text)


class TestHash:
    def test_hash_is_stable_and_short(self):
        h = spec_hash(load_preset("nano"))
        assert h == spec_hash(parse_config(nano_text()))
        assert len(h) == 12
        int(h, 16)

    def test_hash_separates_presets(self):
        hashes = {spec_hash(load_preset(n)) for n in PRESET_NAMES}
        assert len(hashes) == len(PRESET_NAMES)


class TestResolve:
    def test_resolves_preset_name(self):
        assert resolve_config("small") == load_preset("small")

    def test_resolves_path(self, tmp_path):
        p = tmp_path / "custom.yaml"
        p.write_text(nano_text().replace("scale: nano", "scale: custom"))
        spec = resolve_config(str(p))
        assert spec.scale == "custom"
        assert spec.width == 0.5

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="neither a preset"):
            resolve_config(str(tmp_path / "absent.yaml"))


class TestFieldValidation:
    def test_input_size_must_cover_all_strides(self):
        text = nano_text().replace("input_size: 640", "input_size: 641")
        with pytest.raises(ConfigError, match="multiple of 32"):
            parse_config(text)

    def test_expansion_must_be_positive(self):
        text = nano_text().replace("expansion: 2.0", "expansion: -1.0")
        with pytest.raises(ConfigError, match="expansion"):
            parse_config(text)

    @pytest.mark.parametrize(
        "value", [".nan", ".inf", "1" + "0" * 400], ids=["nan", "inf", "1e400"]
    )
    @pytest.mark.parametrize("key", ["width", "depth", "expansion"])
    def test_non_finite_number_rejected(self, key, value):
        # NaN compares false to everything, so a `value <= 0` test lets it
        # in; an integer past the float range cannot become a float
        text = nano_text()
        line = next(ln for ln in text.splitlines() if ln.startswith(f"{key}: "))
        with pytest.raises(ConfigError, match=rf"^config key '{key}' \(line \d+\): "):
            parse_config(text.replace(line, f"{key}: {value}"))

    def test_input_size_is_bounded(self):
        # an unbounded size reached float arithmetic in shape inference and
        # raised OverflowError; 1 followed by 400 zeros is a multiple of 32
        assert MAX_INPUT == 8192
        text = nano_text().replace("input_size: 640", f"input_size: {MAX_INPUT}")
        assert parse_config(text).input_size == MAX_INPUT
        for value in (MAX_INPUT + 32, "1" + "0" * 400):
            text = nano_text().replace("input_size: 640", f"input_size: {value}")
            with pytest.raises(ConfigError, match=r"^config key 'input_size' \(line 4\): .* in 64\.\.8192"):
                parse_config(text)

    @pytest.mark.parametrize("tag", ["!!bool", "!!timestamp", "!!str", "!"])
    def test_explicitly_tagged_value_named_by_key_and_line(self, tag):
        # PyYAML's constructors raised KeyError on `!!bool nano` and
        # AttributeError on `!!timestamp nano`; any explicit tag is refused
        # before a constructor runs, even one that builds the same value
        text = nano_text().replace("scale: nano", f"scale: {tag} nano")
        with pytest.raises(ConfigError, match=r"^config key 'scale' \(line 1\): .*explicit YAML tag"):
            parse_config(text)

    def test_tag_inside_a_list_value_is_refused(self):
        text = nano_text().replace("  - 128\n", "  - !!bool x\n")
        with pytest.raises(ConfigError, match=r"^config key 'channels.stages' \(line \d+\): .*tag"):
            parse_config(text)

    def test_scaled_width_past_float_range_rejected(self):
        text = nano_text().replace("neck: 320", "neck: 1" + "0" * 400)
        with pytest.raises(ConfigError, match=r"^config key 'width' \(line 2\): .*float range"):
            parse_config(text)


def streams_blocks(text, section, streams, blocks):
    """``text`` with one rephms section's counts replaced."""
    lines = text.splitlines(keepends=True)
    at = lines.index(f"  {section}:\n") + 1
    lines[at : at + 2] = [f"    streams: {streams}\n", f"    blocks: {blocks}\n"]
    return "".join(lines)


class TestCascadeLimit:
    """(streams - 1) x depth-scaled blocks run in cascade per section; a
    config asking for more than MAX_CASCADE is refused before any graph
    exists, so these tests take milliseconds."""

    def test_presets_sit_well_below_the_limit(self):
        cascades = {}
        for name in PRESET_NAMES:
            s = load_preset(name)
            cascades[name] = (
                (s.backbone_streams - 1) * s.scaled_backbone_blocks,
                (s.neck_streams - 1) * s.scaled_neck_blocks,
            )
        assert cascades == {"lite-nano": (1, 1), "nano": (1, 1), "small": (2, 2), "medium": (4, 4)}
        assert MAX_CASCADE == 64

    def test_huge_depth_rejected(self):
        text = nano_text().replace("depth: 0.33", "depth: 999999.0")
        match = r"^config key 'rephms.backbone' \(line 13\): cascade of 2999997 blocks"
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_limit_is_inclusive(self):
        # 3 blocks x 21.3 rounds to 64, x 21.5 to 65
        at = parse_config(nano_text().replace("depth: 0.33", "depth: 21.3"))
        assert (at.neck_streams - 1) * at.scaled_neck_blocks == MAX_CASCADE
        text = nano_text().replace("depth: 0.33", "depth: 21.5")
        with pytest.raises(ConfigError, match="rephms.backbone.*cascade of 65 blocks"):
            parse_config(text)

    def test_each_section_named(self):
        text = streams_blocks(nano_text(), "backbone", 2, 1)
        text = streams_blocks(text, "neck", 4, 3)  # (4 - 1) x 64 blocks -> 192
        with pytest.raises(ConfigError, match=r"'rephms.neck' \(line 16\): cascade of 192"):
            parse_config(text.replace("depth: 0.33", "depth: 21.3"))

    def test_block_count_past_float_range_rejected(self):
        text = streams_blocks(nano_text(), "backbone", 2, "1" + "0" * 400)
        with pytest.raises(ConfigError, match="'rephms.backbone'.*cascade of inf"):
            parse_config(text)


MUTATION_VALUES = (
    "0", "1", "-1", "2.5", "1" + "0" * 400, "999999.0", ".nan", ".inf", "null",
    "true", "''", "x", "[]", "{}", "[64, 128]", "{streams: 2}", "2001-01-01",
)
MUTATION_KEYS = ("foo", "1", "null", "true", "channels.stages", "neck", "blocks")


@st.composite
def mutated_nano(draw):
    """Nano's canonical text after a few line edits: a line deleted,
    duplicated, re-valued, re-indented or cut, or an unknown key added."""
    lines = nano_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "copy", "value", "indent", "cut", "key")))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[draw(st.integers(0, len(lines) - 1))])
        elif op == "value":
            lines[i] = lines[i].rpartition(" ")[0] + " " + draw(st.sampled_from(MUTATION_VALUES))
        elif op == "indent":
            lines[i] = " " * draw(st.sampled_from((0, 1, 2, 4))) + lines[i].lstrip()
        elif op == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            key, value = draw(st.sampled_from(MUTATION_KEYS)), draw(st.sampled_from(MUTATION_VALUES))
            lines.insert(i, " " * draw(st.sampled_from((0, 2, 4))) + f"{key}: {value}")
    return "\n".join(lines) + "\n"


class TestParseProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=mutated_nano())
    def test_mutated_text_parses_or_raises_config_error(self, text):
        try:
            spec = parse_config(text)
        except ConfigError:
            return
        assert parse_config(serialize_config(spec)) == spec

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(spec=model_specs())
    def test_serialize_round_trips(self, spec):
        assert parse_config(serialize_config(spec)) == spec
