"""Model configuration: parsing, validation, normalization, presets.

A configuration names a scale label, width/depth multipliers, the base
channel ladder, the stream/block structure of the aggregation modules, and
the default input size.  Everything downstream (assembly, bookkeeping,
weight files) consumes the parsed :class:`ModelSpec`, never raw YAML.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import MISSING, dataclass
from importlib import resources

import yaml

from .errors import ConfigError
from .ghfks import BACKBONE_LEVELS, LEVEL_STRIDES
from .tensor import is_int

__all__ = [
    "MAX_CASCADE",
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

# The most blocks one aggregation section may run in cascade; medium runs 4.
MAX_CASCADE = 64


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


def _count(least: int):
    """The schema's rule for an integer of at least ``least``."""
    return lambda v: is_int(v) and v >= least, f"an integer >= {least}", int


# NaN fails the comparison, and so does an integer past the float range
_NUMBER = (
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and 0 < v <= sys.float_info.max,
    "a positive finite number",
    float,
)
_STRIDE = LEVEL_STRIDES[BACKBONE_LEVELS[-1]]

# The document schema in canonical order: dotted key -> (ModelSpec field,
# test, what a failing value must be, conversion to the field's value).
# parse_config reads a document against it one mapping level at a time and
# serialize_config writes a spec back in this order.  A key is optional
# exactly when its field has a default.
_SCHEMA = {
    "scale": ("scale", lambda v: isinstance(v, str) and v != "", "a non-empty string", str),
    "width": ("width", *_NUMBER),
    "depth": ("depth", *_NUMBER),
    "input_size": (
        "input_size",
        lambda v: is_int(v) and v >= 64 and v % _STRIDE == 0,
        f"an integer multiple of {_STRIDE} and at least 64",
        int,
    ),
    "channels.stages": (
        "stage_channels",
        lambda v: isinstance(v, list) and len(v) == len(BACKBONE_LEVELS)
        and all(is_int(c) and c >= 8 for c in v),
        f"a list of {len(BACKBONE_LEVELS)} integers >= 8",
        tuple,
    ),
    "channels.neck": ("neck_channels", *_count(8)),
    "rephms.backbone.streams": ("backbone_streams", *_count(2)),
    "rephms.backbone.blocks": ("backbone_blocks", *_count(1)),
    "rephms.neck.streams": ("neck_streams", *_count(2)),
    "rephms.neck.blocks": ("neck_blocks", *_count(1)),
    "expansion": ("expansion", *_NUMBER),
}
_KEYS = {field: key for key, (field, *_) in _SCHEMA.items()}
_OPTIONAL = {
    key for field, key in _KEYS.items()
    if ModelSpec.__dataclass_fields__[field].default is not MISSING
}


def _read(node, prefix: str, fail, values: dict) -> None:
    """Check the mapping at ``prefix`` (``""`` or a dotted key and a dot)
    against the schema, then read its leaves into ``values`` as spec fields
    and descend into its mappings."""
    names = list(dict.fromkeys(
        key[len(prefix):].split(".")[0] for key in _SCHEMA if key.startswith(prefix)
    ))
    where = prefix[:-1] or None
    if not isinstance(node, dict):
        fail(f"must be a mapping of {names}", where)
    unknown = [prefix + str(k) for k in node if k not in names]
    if unknown:
        fail(f"unknown key(s): {unknown}", unknown[0])
    missing = [prefix + n for n in names if n not in node and prefix + n not in _OPTIONAL]
    if missing:
        fail(f"missing required key(s): {missing}", where)
    for name in (n for n in names if n in node):
        key, value = prefix + name, node[name]
        if key not in _SCHEMA:
            _read(value, key + ".", fail, values)
            continue
        field, test, wants, convert = _SCHEMA[key]
        if not test(value):
            fail(f"must be {wants}, got {value!r}", key)
        values[field] = convert(value)


def parse_config(text: str) -> ModelSpec:
    """Parse and validate a YAML configuration document.

    Raises :class:`ConfigError` naming the offending key (and its line when
    it exists in the document) for every constraint violation.
    """
    def fail(msg, key=None):
        raise ConfigError(msg, key=key, line=_key_lines(text).get(key))

    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: a scalar that the constructor cannot build, such as a
        # date past the calendar or an integer past Python's digit limit
        raise ConfigError(f"not valid YAML: {exc}") from exc
    values = {}
    _read(data, "", fail, values)
    spec = ModelSpec(**values)
    _check_sizes(spec, fail)
    return spec


def _check_sizes(spec: ModelSpec, fail) -> None:
    """Checks across keys.  A section's cascade, the (streams - 1) x
    depth-scaled blocks that run one after another, is at most
    :data:`MAX_CASCADE`, so a config cannot ask for millions of blocks; and
    the scaled widths split evenly into the stream counts."""
    for section in ("backbone", "neck"):
        try:
            blocks = getattr(spec, f"scaled_{section}_blocks")
        except OverflowError:  # a block count past the float range
            blocks = math.inf
        cascade = (getattr(spec, f"{section}_streams") - 1) * blocks
        if cascade > MAX_CASCADE:
            fail(
                f"cascade of {cascade} blocks ((streams - 1) x depth-scaled "
                f"blocks) exceeds the limit of {MAX_CASCADE}",
                _KEYS[f"{section}_blocks"].rpartition(".")[0],
            )
    try:
        stages, neck = spec.scaled_stage_channels, spec.scaled_neck_channels
    except OverflowError:
        fail("a scaled width is past the float range", _KEYS["width"])
    for level, c in zip(BACKBONE_LEVELS, stages):
        if c % spec.backbone_streams != 0:
            fail(
                f"stage {level} width {c} (after scaling) is not divisible by "
                f"{spec.backbone_streams} backbone streams",
                _KEYS["stage_channels"],
            )
    if neck % spec.neck_streams != 0:
        fail(
            f"neck width {neck} (after scaling) is not divisible by "
            f"{spec.neck_streams} neck streams",
            _KEYS["neck_channels"],
        )


def serialize_config(spec: ModelSpec) -> str:
    """Canonical YAML form of a spec; parse(serialize(s)) == s."""
    doc: dict = {}
    for key, (field, *_) in _SCHEMA.items():
        *parents, name = key.split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        value = getattr(spec, field)
        node[name] = list(value) if isinstance(value, tuple) else value
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
