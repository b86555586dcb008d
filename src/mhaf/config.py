"""Model configuration: parsing, validation, normalization, presets.

A configuration names a scale label, width/depth multipliers, the base
channel ladder, the stream/block structure of the aggregation modules, and
the default input size.  Everything downstream (assembly, bookkeeping,
weight files) consumes the parsed :class:`ModelSpec`, never raw YAML.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from importlib import resources

import yaml

from .errors import ConfigError
from .ghfks import BACKBONE_LEVELS, LEVEL_STRIDES

__all__ = [
    "ModelSpec",
    "PRESET_NAMES",
    "parse_config",
    "serialize_config",
    "normalize_config",
    "load_preset",
    "resolve_config",
    "spec_hash",
    "round_to_multiple_of_8",
]

PRESET_NAMES = ("lite-nano", "nano", "small", "medium")


def round_to_multiple_of_8(value: float) -> int:
    """Scale-then-round channel rule: nearest multiple of 8, never below 8."""
    return max(8, int(value / 8 + 0.5) * 8)


def _scaled_blocks(base: int, depth: float) -> int:
    """Depth-scaled block count, rounded half-up, floored at 1."""
    return max(1, int(base * depth + 0.5))


@dataclass(frozen=True)
class ModelSpec:
    """Validated model configuration.

    ``stage_channels`` and ``neck_channels`` are the base (unscaled) widths;
    the ``scaled_*`` properties apply the width multiplier and the
    multiple-of-8 rounding rule.
    """

    scale: str
    width: float
    depth: float
    input_size: int
    stage_channels: tuple[int, int, int, int]
    neck_channels: int
    backbone_streams: int
    backbone_blocks: int
    neck_streams: int
    neck_blocks: int
    expansion: float = 2.0

    @property
    def scaled_stage_channels(self) -> tuple[int, int, int, int]:
        return tuple(round_to_multiple_of_8(c * self.width) for c in self.stage_channels)

    @property
    def scaled_neck_channels(self) -> int:
        return round_to_multiple_of_8(self.neck_channels * self.width)

    @property
    def scaled_backbone_blocks(self) -> int:
        return _scaled_blocks(self.backbone_blocks, self.depth)

    @property
    def scaled_neck_blocks(self) -> int:
        return _scaled_blocks(self.neck_blocks, self.depth)


def _key_lines(text: str) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers, for error messages."""
    lines: dict[str, int] = {}
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return lines

    def walk(node, prefix):
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                path = f"{prefix}.{key_node.value}" if prefix else str(key_node.value)
                lines[path] = key_node.start_mark.line + 1
                walk(value_node, path)

    walk(root, "")
    return lines


_TOP_KEYS = {"scale", "width", "depth", "input_size", "channels", "rephms", "expansion"}


def parse_config(text: str) -> ModelSpec:
    """Parse and validate a YAML configuration document.

    Raises :class:`ConfigError` naming the offending key (and its line when
    it exists in the document) for every constraint violation.
    """
    def fail(msg, key=None):
        raise ConfigError(msg, key=key, line=_key_lines(text).get(key))

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a YAML mapping")

    unknown = set(data) - _TOP_KEYS
    if unknown:
        fail(f"unknown key(s): {sorted(unknown)}", key=sorted(unknown)[0])
    missing = {"scale", "width", "depth", "input_size", "channels", "rephms"} - set(data)
    if missing:
        raise ConfigError(f"missing required key(s): {sorted(missing)}")

    scale = data["scale"]
    if not isinstance(scale, str) or not scale:
        fail("scale must be a non-empty string", key="scale")

    def positive_number(key, value):
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0 < value <= sys.float_info.max):  # NaN fails too
            fail(f"must be a positive finite number, got {value!r}", key=key)
        return float(value)

    width = positive_number("width", data["width"])
    depth = positive_number("depth", data["depth"])

    input_size = data["input_size"]
    if not isinstance(input_size, int) or isinstance(input_size, bool):
        fail(f"must be an integer, got {input_size!r}", key="input_size")
    divisor = LEVEL_STRIDES[BACKBONE_LEVELS[-1]]
    if input_size < 64 or input_size % divisor != 0:
        fail(
            f"must be a multiple of {divisor} and at least 64, got {input_size}",
            key="input_size",
        )

    channels = data["channels"]
    if not isinstance(channels, dict):
        fail("must be a mapping with 'stages' and 'neck'", key="channels")
    stages = channels.get("stages")
    if (
        not isinstance(stages, list)
        or len(stages) != len(BACKBONE_LEVELS)
        or any(not isinstance(c, int) or isinstance(c, bool) or c < 8 for c in stages)
    ):
        fail(f"must be a list of {len(BACKBONE_LEVELS)} integers >= 8", key="channels.stages")
    neck = channels.get("neck")
    if not isinstance(neck, int) or isinstance(neck, bool) or neck < 8:
        fail(f"must be an integer >= 8, got {neck!r}", key="channels.neck")
    extra = set(channels) - {"stages", "neck"}
    if extra:
        fail(f"unknown key(s): {sorted(extra)}", key="channels")

    rephms = data["rephms"]
    if not isinstance(rephms, dict) or set(rephms) != {"backbone", "neck"}:
        fail("must be a mapping with 'backbone' and 'neck'", key="rephms")

    def streams_blocks(section):
        cfg = rephms[section]
        key = f"rephms.{section}"
        if not isinstance(cfg, dict) or set(cfg) != {"streams", "blocks"}:
            fail("must be a mapping with 'streams' and 'blocks'", key=key)
        s, b = cfg["streams"], cfg["blocks"]
        if not isinstance(s, int) or isinstance(s, bool) or s < 2:
            fail(f"streams must be an integer >= 2, got {s!r}", key=f"{key}.streams")
        if not isinstance(b, int) or isinstance(b, bool) or b < 1:
            fail(f"blocks must be an integer >= 1, got {b!r}", key=f"{key}.blocks")
        return s, b

    backbone_streams, backbone_blocks = streams_blocks("backbone")
    neck_streams, neck_blocks = streams_blocks("neck")

    expansion = data.get("expansion", 2.0)
    expansion = positive_number("expansion", expansion)

    spec = ModelSpec(
        scale=scale,
        width=width,
        depth=depth,
        input_size=input_size,
        stage_channels=tuple(stages),
        neck_channels=neck,
        backbone_streams=backbone_streams,
        backbone_blocks=backbone_blocks,
        neck_streams=neck_streams,
        neck_blocks=neck_blocks,
        expansion=expansion,
    )
    _check_divisibility(spec)
    return spec


def _check_divisibility(spec: ModelSpec) -> None:
    """Scaled widths must split evenly into the configured stream counts."""
    for level, c in zip(BACKBONE_LEVELS, spec.scaled_stage_channels):
        if c % spec.backbone_streams != 0:
            raise ConfigError(
                f"stage {level} width {c} (after scaling) is not divisible by "
                f"{spec.backbone_streams} backbone streams",
                key="channels.stages",
            )
    w = spec.scaled_neck_channels
    if w % spec.neck_streams != 0:
        raise ConfigError(
            f"neck width {w} (after scaling) is not divisible by "
            f"{spec.neck_streams} neck streams",
            key="channels.neck",
        )


def serialize_config(spec: ModelSpec) -> str:
    """Canonical YAML form of a spec; parse(serialize(s)) == s."""
    doc = {
        "scale": spec.scale,
        "width": spec.width,
        "depth": spec.depth,
        "input_size": spec.input_size,
        "channels": {
            "stages": list(spec.stage_channels),
            "neck": spec.neck_channels,
        },
        "rephms": {
            "backbone": {"streams": spec.backbone_streams, "blocks": spec.backbone_blocks},
            "neck": {"streams": spec.neck_streams, "blocks": spec.neck_blocks},
        },
        "expansion": spec.expansion,
    }
    return yaml.safe_dump(doc, sort_keys=False)


def normalize_config(text: str) -> str:
    """Round-trip a document through parse/serialize, yielding the canonical
    textual form."""
    return serialize_config(parse_config(text))


def spec_hash(spec: ModelSpec) -> str:
    """Short stable digest of the canonical config, stored in weight files
    so a store cannot silently be loaded against the wrong architecture."""
    return hashlib.sha256(serialize_config(spec).encode()).hexdigest()[:12]


def load_preset(name: str) -> ModelSpec:
    """Load one of the packaged scale presets."""
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset '{name}' (available: {', '.join(PRESET_NAMES)})"
        )
    text = resources.files("mhaf.configs").joinpath(f"{name}.yaml").read_text()
    return parse_config(text)


def resolve_config(name_or_path: str) -> ModelSpec:
    """Interpret a CLI argument as a preset name first, then as a file path."""
    if name_or_path in PRESET_NAMES:
        return load_preset(name_or_path)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(
            f"'{name_or_path}' is neither a preset ({', '.join(PRESET_NAMES)}) "
            f"nor a readable file: {exc}"
        ) from exc
    return parse_config(text)
