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
    "MAX_INPUT",
    "MAX_WIDTH",
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
# The widest scaled stage, neck or expanded block width; medium's widest is 576.
MAX_WIDTH = 4096
# The largest default input size; every preset uses 640.
MAX_INPUT = 8192


def round_to_multiple_of_8(value: float) -> int:
    """Scale-then-round channel rule: nearest multiple of 8, never below 8."""
    return max(8, int(value / 8 + 0.5) * 8)


def _scaled_blocks(base: int, depth: float) -> int:
    """Depth-scaled block count, rounded half-up, floored at 1."""
    return max(1, int(base * depth + 0.5))


@dataclass(frozen=True)
class ModelSpec:
    """A model configuration that checks itself however it is built: each
    field passes its schema rule, then the checks across fields run.

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

    def __post_init__(self):
        for key, (field, test, wants, convert) in _SCHEMA.items():
            value = getattr(self, field)
            if not test(value):
                raise ConfigError(f"must be {wants}, got {value!r}", key)
            object.__setattr__(self, field, convert(value))
        _check_sizes(self)

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
_STR_TAG = yaml.resolver.BaseResolver.DEFAULT_SCALAR_TAG

# The document schema in canonical order: dotted key -> (ModelSpec field,
# test, what a failing value must be, conversion to the field's value).
# parse_config reads a document against it one mapping level at a time,
# ModelSpec checks and converts each field by it, and serialize_config
# writes a spec back in this order.  A key is optional exactly when its
# field has a default.
_SCHEMA = {
    "scale": ("scale", lambda v: isinstance(v, str) and v != "", "a non-empty string", str),
    "width": ("width", *_NUMBER),
    "depth": ("depth", *_NUMBER),
    "input_size": (
        "input_size",
        lambda v: is_int(v) and 64 <= v <= MAX_INPUT and v % _STRIDE == 0,
        f"an integer multiple of {_STRIDE} in 64..{MAX_INPUT}",
        int,
    ),
    "channels.stages": (
        "stage_channels",
        lambda v: isinstance(v, (list, tuple)) and len(v) == len(BACKBONE_LEVELS)
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


class _Loader(yaml.SafeLoader):
    """A SafeLoader that records every node written with an explicit tag
    (``!!bool nano``, ``! 1``): the schema's values are plain scalars and
    lists, and a tag would send a value to a constructor of its own."""

    def __init__(self, text: str):
        super().__init__(text)
        self.tagged: set[yaml.Node] = set()

    def compose_node(self, parent, index):
        tagged = getattr(self.peek_event(), "tag", None) is not None
        node = super().compose_node(parent, index)
        if tagged:
            self.tagged.add(node)
        return node


def _inside(node):
    """``node`` and every node inside it, each once: an alias may repeat a
    node or nest it in itself."""
    todo, seen = [node], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            if isinstance(node, yaml.SequenceNode):
                todo += node.value
            elif isinstance(node, yaml.MappingNode):
                todo += [n for pair in node.value for n in pair]


def _read(loader, node, prefix: str, values: dict, lines: dict) -> None:
    """Read the mapping node at ``prefix`` (``""`` or a dotted key and a
    dot) against the schema: record each key's line, build each leaf into
    ``values`` under its spec field, and descend into the nested mappings.
    Keys are named as the document spells them."""
    names = list(dict.fromkeys(
        key[len(prefix):].split(".")[0] for key in _SCHEMA if key.startswith(prefix)
    ))
    where = prefix[:-1] or None
    if not isinstance(node, yaml.MappingNode):
        raise ConfigError(f"must be a mapping of {names}", where)
    for key_node, _ in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            raise ConfigError(f"not valid YAML: a key must be a scalar\n{key_node.start_mark}")
        key = prefix + key_node.value
        repeated = key in lines
        lines[key] = key_node.start_mark.line + 1
        if repeated:
            raise ConfigError("repeated key", key)
    loader.flatten_mapping(node)  # merge keys: the merged pairs go first
    # a schema key is a string: not `null:`, `1:` or `!!int width:`
    unknown = [prefix + str(k.value) for k, _ in node.value
               if k.tag != _STR_TAG or k.value not in names]
    if unknown:
        raise ConfigError(f"unknown key(s): {unknown}", unknown[0])
    found = {k.value: v for k, v in node.value}
    missing = [prefix + n for n in names if n not in found and prefix + n not in _OPTIONAL]
    if missing:
        raise ConfigError(f"missing required key(s): {missing}", where)
    for name in (n for n in names if n in found):
        key = prefix + name
        # a leaf is refused before any constructor runs on it; a mapping's
        # own keys and values are checked as _read descends into it
        within = _inside(found[name]) if key in _SCHEMA else [found[name]]
        tags = [n.tag for n in within if n in loader.tagged]
        if tags:
            raise ConfigError(f"must be a plain value, not one with an explicit YAML tag ({tags[0]})", key)
        if key in _SCHEMA:
            values[_SCHEMA[key][0]] = loader.construct_object(found[name], deep=True)
        else:
            _read(loader, found[name], key + ".", values, lines)


def parse_config(text: str) -> ModelSpec:
    """Parse a YAML configuration document into a checked :class:`ModelSpec`.

    Every constraint violation raises :class:`ConfigError` naming the key as
    the document spells it, and its line when the key is in the document.
    """
    values, lines = {}, {}
    try:
        try:
            loader = _Loader(text)
            _read(loader, loader.get_single_node(), "", values, lines)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            # ValueError: a scalar that the constructor cannot build, such as a
            # date past the calendar or an integer past Python's digit limit
            raise ConfigError(f"not valid YAML: {exc}") from exc
        return ModelSpec(**values)
    except ConfigError as exc:
        if exc.key not in lines:
            raise
        raise ConfigError(exc.message, exc.key, lines[exc.key]) from None


def _check_sizes(spec: ModelSpec) -> None:
    """Checks across keys.  A section's cascade, the (streams - 1) x
    depth-scaled blocks that run one after another, is at most
    :data:`MAX_CASCADE`, so a config cannot ask for millions of blocks; the
    scaled widths split evenly into the stream counts; and no scaled width
    and no block's expanded width is past :data:`MAX_WIDTH`, nor an
    expanded width below 1."""
    for section in ("backbone", "neck"):
        try:
            blocks = getattr(spec, f"scaled_{section}_blocks")
        except OverflowError:  # a block count past the float range
            blocks = math.inf
        cascade = (getattr(spec, f"{section}_streams") - 1) * blocks
        if cascade > MAX_CASCADE:
            raise ConfigError(
                f"cascade of {cascade} blocks ((streams - 1) x depth-scaled "
                f"blocks) exceeds the limit of {MAX_CASCADE}",
                _KEYS[f"{section}_blocks"].rpartition(".")[0],
            )
    try:
        stages, neck = spec.scaled_stage_channels, spec.scaled_neck_channels
    except OverflowError:
        raise ConfigError("a scaled width is past the float range", _KEYS["width"])
    for level, c in zip(BACKBONE_LEVELS, stages):
        if c % spec.backbone_streams != 0:
            raise ConfigError(
                f"stage {level} width {c} (after scaling) is not divisible by "
                f"{spec.backbone_streams} backbone streams",
                _KEYS["stage_channels"],
            )
    if neck % spec.neck_streams != 0:
        raise ConfigError(
            f"neck width {neck} (after scaling) is not divisible by "
            f"{spec.neck_streams} neck streams",
            _KEYS["neck_channels"],
        )
    for field, c, streams in (
        *(("stage_channels", c, spec.backbone_streams) for c in stages),
        ("neck_channels", neck, spec.neck_streams),
    ):
        if c > MAX_WIDTH:
            raise ConfigError(
                f"width {c} (after scaling) exceeds the limit of {MAX_WIDTH}", _KEYS[field]
            )
        # a block widens its stream to round(stream width x expansion);
        # min() keeps an infinite product away from round()
        if not 1 <= round(min(c // streams * spec.expansion, MAX_WIDTH + 1)) <= MAX_WIDTH:
            raise ConfigError(
                f"{spec.expansion} x a {c // streams}-channel stream rounds to a "
                f"block width outside 1..{MAX_WIDTH}",
                _KEYS["expansion"],
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
