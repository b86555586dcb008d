"""Weight storage: deterministic initialization, binding flat arrays into
the structured forms the block functions consume, and a checksummed binary
container.

Entry names belong to :mod:`mhaf.graph`: binding reads the entries that
``slot_entries`` and ``node_param_entries`` list for a slot or node and
picks each array by its entry kind (``conv_weight``, ``conv_bias``,
``bn_*``), so this module spells no entry name of its own.

Container layout (all integers little-endian):

* magic ``MHWT``, u32 version (currently 1), u32 entry count;
* per entry: u16 name length, UTF-8 name, u8 rank, u32 dims, raw float32
  payload;
* trailing u64 CRC-64/XZ checksum of every preceding byte.

Store-level metadata (form, seed, config digest) rides along as a reserved
entry named ``__meta__`` whose payload encodes a UTF-8 string one byte per
float, keeping the container format uniform; a store may not use that name.

The checksum runs lane-parallel: the payload is cut into ``LANES`` equal
lanes, all lanes run slice-by-8 at once as numpy ``uint64`` vectors, and the
lane CRCs are joined by a GF(2) "append zero bytes" map, as zlib's
``crc32_combine`` does.  The result is the plain CRC-64/XZ, so the format is
unchanged.  Loading verifies it, then copies each entry once into its own
aligned, writable float32 array.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
import uuid
from dataclasses import dataclass, field

import numpy as np

from .blocks import ConvUnit, ConvUnitSpec, MixerSpec
from .errors import ShapeError, StateError, WeightFileError
from .graph import (
    ModelGraph,
    Node,
    ParamEntry,
    graph_param_entries,
    node_param_entries,
    node_slots,
    slot_entries,
)
from .reparam import RepHConvWeights
from .tensor import BNParams, ConvKernel

__all__ = [
    "WeightStore",
    "init_weights",
    "validate_store",
    "bind_slot",
    "bind_slots",
    "bind_node_weights",
    "save_weights",
    "load_weights",
    "crc64_xz",
]

META_ENTRY = "__meta__"
MAGIC = b"MHWT"
VERSION = 1


@dataclass(eq=False)
class WeightStore:
    """Flat name -> float32 array mapping plus provenance metadata."""

    entries: dict[str, np.ndarray] = field(default_factory=dict)
    form: str = "training"
    seed: int | None = None
    spec_digest: str | None = None
    # the forward plan last prepared for this store (see mhaf.model.forward)
    _plan: object = field(default=None, init=False, repr=False)

    def __getstate__(self):
        # a plan is derived state tied to one graph object: copies and
        # pickles start without one
        return {**self.__dict__, "_plan": None}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.entries[name]
        except KeyError:
            raise StateError(f"weight store has no entry '{name}'") from None


def init_weights(graph: ModelGraph, seed: int = 0) -> WeightStore:
    """Deterministically initialize every entry the graph expects.

    Conv weights draw from a fan-in-scaled normal (std ``sqrt(2 / fan_in)``),
    biases start at zero, BN starts as the identity transform.  Entries are
    drawn in graph order from a single seeded generator, so equal seeds give
    byte-identical stores.
    """
    rng = np.random.default_rng(seed)
    store = WeightStore(
        form=graph.form, seed=seed, spec_digest=graph.meta.get("spec_hash")
    )
    for entry in graph_param_entries(graph):
        if entry.kind == "conv_weight":
            fan_in = entry.shape[1] * entry.shape[2] * entry.shape[3]
            arr = rng.standard_normal(entry.shape) * np.sqrt(2.0 / fan_in)
            arr = arr.astype(np.float32)
        elif entry.kind == "conv_bias":
            arr = np.zeros(entry.shape, dtype=np.float32)
        elif entry.kind in ("bn_gamma", "bn_var"):
            arr = np.ones(entry.shape, dtype=np.float32)
        elif entry.kind in ("bn_beta", "bn_mean"):
            arr = np.zeros(entry.shape, dtype=np.float32)
        else:
            raise StateError(f"unknown entry kind '{entry.kind}'")
        store.entries[entry.name] = arr
    return store


def validate_store(graph: ModelGraph, store: WeightStore) -> None:
    """Check that a store matches a graph: same form, same config digest
    (when both are known), exactly the expected entry names/shapes, and
    every entry a C-contiguous float32 array, which binding then uses as it
    is, without a copy."""
    if store.form != graph.form:
        raise StateError(
            f"store is in {store.form} form but the graph is {graph.form}"
        )
    digest = graph.meta.get("spec_hash")
    if digest and store.spec_digest and digest != store.spec_digest:
        raise StateError(
            f"store was created for config {store.spec_digest}, graph is {digest}"
        )
    for name, arr in store.entries.items():
        if not isinstance(arr, np.ndarray):
            got = type(arr).__name__
        elif arr.dtype != np.float32:
            got = f"dtype {arr.dtype}"
        elif not arr.flags.c_contiguous:
            got = "a non-contiguous layout"
        else:
            continue
        raise ShapeError(
            f"weight entry '{name}' must be a C-contiguous float32 array, got {got}"
        )
    expected = {e.name: e.shape for e in graph_param_entries(graph)}
    got = {name: arr.shape for name, arr in store.entries.items()}
    if expected != got:
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        wrong = sorted(
            n for n in set(expected) & set(got) if expected[n] != got[n]
        )[:3]
        raise ShapeError(
            "weight store does not match graph: "
            f"missing={missing} unexpected={extra} wrong-shape={wrong}"
        )


# ---------------------------------------------------------------------------
# binding flat entries into structured block weights


def _by_kind(store: WeightStore, entries: list[ParamEntry]) -> list[dict]:
    """The listed arrays as one {entry kind: array} dict per conv; each
    ``conv_weight`` opens the next dict, and a list without one (a ``bn``
    node's) is a single dict."""
    convs: list[dict] = []
    for entry in entries:
        if entry.kind == "conv_weight" or not convs:
            convs.append({})
        convs[-1][entry.kind] = store[entry.name]
    return convs


def _kernel(arrays: dict, stride: int, groups: int) -> ConvKernel:
    w, b = arrays["conv_weight"], arrays.get("conv_bias")
    return ConvKernel(weights=w, bias=b, stride=stride, groups=groups)


def _bn(arrays: dict) -> BNParams | None:
    if "bn_mean" not in arrays:
        return None
    return BNParams(
        mean=arrays["bn_mean"],
        var=arrays["bn_var"],
        gamma=arrays["bn_gamma"],
        beta=arrays["bn_beta"],
    )


def bind_slot(store: WeightStore, prefix: str, slot: ConvUnitSpec | MixerSpec, form: str):
    """Materialize one weighted slot of a composite node, in the given form,
    from the entries :func:`mhaf.graph.slot_entries` lists for it.  A
    conv-unit slot binds as a ConvUnit (stride, groups and activation from
    the slot).  A mixer slot binds as RepHConvWeights in training form and,
    deployed, as the unit :func:`mhaf.blocks.fold_slot` gives it: one
    unactivated stride-1 depthwise ConvUnit."""
    convs = _by_kind(store, slot_entries(prefix, slot, form))
    if isinstance(slot, MixerSpec):
        spec = slot.spec
        branches = [(_kernel(a, 1, spec.channels), _bn(a)) for a in convs]
        if form == "deployed":
            ((fused, _),) = branches
            return ConvUnit(kernel=fused, act=False)
        return RepHConvWeights(spec=spec, branches=branches)
    (arrays,) = convs
    kernel = _kernel(arrays, slot.stride, slot.groups)
    return ConvUnit(kernel=kernel, bn=_bn(arrays), act=slot.act)


def bind_slots(node: Node, store: WeightStore, form: str) -> dict:
    """{slot path: :func:`bind_slot` result} for every weighted slot of a
    composite node, in slot order (empty for primitive kinds)."""
    return {
        slot.path: bind_slot(store, prefix, slot, form)
        for prefix, slot in node_slots(node).items()
    }


def bind_node_weights(node: Node, store: WeightStore, form: str):
    """Materialize the structured weights of one graph node from the
    entries :func:`mhaf.graph.node_param_entries` lists for it.  Returns a
    ConvKernel (stride and groups from the node's attrs), BNParams, or the
    :func:`bind_slots` dict of any other kind (empty for weightless ones)."""
    if node.kind in ("conv", "bn"):
        (arrays,) = _by_kind(store, node_param_entries(node, form))
        if node.kind == "bn":
            return _bn(arrays)
        return _kernel(arrays, node.attrs["stride"], node.attrs["groups"])
    return bind_slots(node, store, form)


# ---------------------------------------------------------------------------
# CRC-64/XZ


def _build_tables() -> list[list[int]]:
    poly = 0xC96C5795D7870F42
    first = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        first.append(crc)
    tables = [first]
    for _ in range(7):
        prev = tables[-1]
        tables.append([first[c & 0xFF] ^ (c >> 8) for c in prev])
    return tables


_TABLES = _build_tables()
_MASK = 0xFFFFFFFFFFFFFFFF
# Lanes of the vector path; one lane block is 8 * LANES bytes, one word per
# lane.  Inputs shorter than a block, and the tail past the last whole
# block, take the scalar loop.
LANES = 4096
# Words per lane made contiguous at a time, a 1 MiB block: a transposed copy
# of the whole payload would be a second payload-sized buffer, and where
# malloc places one decides the process's peak RSS.
_BLOCK_ROWS = 32
# A linear map on the 64-bit register in table form: row j holds the images
# of the 256 values of the register's byte j (least significant first).
# The slice-by-8 step is such a map, the one that appends 8 zero bytes.
_STEP = np.array(_TABLES[::-1], dtype=np.uint64)
_UNIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
# column of byte j (least significant first) in a uint8 view of a uint64
_BYTE_COL = range(8) if sys.byteorder == "little" else range(7, -1, -1)


def _apply(op: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Image of each register in ``regs`` (contiguous uint64) under ``op``."""
    columns = regs.view(np.uint8).reshape(regs.size, 8)
    out = op[0].take(columns[:, _BYTE_COL[0]])
    for j in range(1, 8):
        out ^= op[j].take(columns[:, _BYTE_COL[j]])
    return out


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table form of the map ``a`` after ``b``."""
    images = _apply(a, _apply(b, _UNIT)).reshape(8, 8)
    op = np.zeros((8, 256), dtype=np.uint64)
    for bit in range(8):
        op[:, 1 << bit : 2 << bit] = op[:, : 1 << bit] ^ images[:, bit : bit + 1]
    return op


def _crc_scalar(crc: int, data: np.ndarray) -> int:
    """Slice-by-8 over the bytes ``data`` from the raw register ``crc``."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLES
    n8 = data.size - data.size % 8
    for word in data[:n8].view("<u8").tolist():
        crc ^= word
        crc = (
            t7[crc & 0xFF]
            ^ t6[(crc >> 8) & 0xFF]
            ^ t5[(crc >> 16) & 0xFF]
            ^ t4[(crc >> 24) & 0xFF]
            ^ t3[(crc >> 32) & 0xFF]
            ^ t2[(crc >> 40) & 0xFF]
            ^ t1[(crc >> 48) & 0xFF]
            ^ t0[(crc >> 56) & 0xFF]
        )
    for b in data[n8:].tolist():
        crc = t0[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc


def _crc_lanes(data: np.ndarray) -> int:
    """Register after ``data`` (a whole number of lane blocks) from the
    all-ones init: slice-by-8 on every lane at once, then a pairwise fold."""
    rows = data.size // (8 * LANES)
    lanes = data.view("<u8").reshape(LANES, rows)
    regs = np.zeros(LANES, dtype=np.uint64)
    regs[0] = _MASK  # every other lane runs from zero: a raw, linear CRC
    for start in range(0, rows, _BLOCK_ROWS):
        block = lanes[:, start : start + _BLOCK_ROWS].T
        for row in np.ascontiguousarray(block, dtype=np.uint64):
            regs ^= row
            regs = _apply(_STEP, regs)
    # reg(A + B) = Z(reg(A)) ^ reg0(B), Z appending len(B) zero bytes
    zeros, power, n = None, _STEP, rows
    while n:
        if n & 1:
            zeros = power if zeros is None else _compose(power, zeros)
        n >>= 1
        if n:
            power = _compose(power, power)
    while regs.size > 1:
        pairs = regs.reshape(-1, 2)
        regs = _apply(zeros, np.ascontiguousarray(pairs[:, 0])) ^ pairs[:, 1]
        if regs.size > 1:
            zeros = _compose(zeros, zeros)
    return int(regs[0])


def crc64_xz(data) -> int:
    """CRC-64/XZ (reflected, poly 0x42F0E1EBA9EA3693, init/xorout all-ones)
    of any bytes-like object; the check value of b"123456789" is
    0x995DC9BBDF1939FA.

    The whole lane blocks are split into ``LANES`` equal lanes that run
    slice-by-8 together as numpy ``uint64`` vectors, only lane 0 seeded
    with the init.  CRCs are linear, so adjacent lanes fold pairwise with
    the map that appends one lane's length of zero bytes (the technique of
    zlib's ``crc32_combine``), squared once per level of the fold.  The
    remainder, and any input shorter than one block, takes the scalar
    slice-by-8 loop.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    split = buf.size - buf.size % (8 * LANES)
    crc = _crc_lanes(buf[:split]) if split else _MASK
    return _crc_scalar(crc, buf[split:]) ^ _MASK


# ---------------------------------------------------------------------------
# binary container


def _encode_meta(store: WeightStore) -> np.ndarray:
    text = (
        f"form={store.form};seed={'none' if store.seed is None else store.seed};"
        f"spec={store.spec_digest or 'none'}"
    )
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def _decode_meta(arr: np.ndarray, store: WeightStore) -> None:
    text = bytes(arr.astype(np.uint8).tolist()).decode("utf-8", errors="replace")
    for part in text.split(";"):
        key, _, value = part.partition("=")
        if key == "form":
            store.form = value
        elif key == "seed":
            store.seed = None if value == "none" else int(value)
        elif key == "spec":
            store.spec_digest = None if value == "none" else value


def _pack_entry(buf: bytearray, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise WeightFileError(f"entry name too long: {name[:40]}...")
    buf += struct.pack("<H", len(encoded))
    buf += encoded
    if arr.ndim > 0xFF:
        raise WeightFileError(f"entry rank {arr.ndim} exceeds format limit")
    buf += struct.pack("<B", arr.ndim)
    buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
    buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()


def save_weights(store: WeightStore, path: str) -> None:
    """Write the store to the binary container (metadata entry first, then
    data entries in insertion order, then the checksum).

    The bytes go to a temporary file beside ``path`` that ``os.replace``
    then moves over it, so an existing file at ``path`` is either left
    untouched or replaced whole; the temporary file is removed on failure.
    """
    if META_ENTRY in store.entries:
        raise WeightFileError(
            f"entry name '{META_ENTRY}' is reserved for the store's metadata"
        )
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack("<I", len(store.entries) + 1)
    _pack_entry(buf, META_ENTRY, _encode_meta(store))
    for name, arr in store.entries.items():
        _pack_entry(buf, name, arr)
    buf += struct.pack("<Q", crc64_xz(buf))
    # a named temp file rather than tempfile.mkstemp, whose 0600 mode would
    # survive the rename; open() keeps the usual umask-derived permissions
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_weights(path: str) -> WeightStore:
    """Read a container, verifying the checksum before trusting any entry.

    Each entry is copied once out of the file's bytes, so the loaded arrays
    are aligned, writable and independent of one another.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4 + 4 + 8:
        raise WeightFileError(f"'{path}' is too short to be a weight file")
    if raw[:4] != MAGIC:
        raise WeightFileError(f"'{path}' lacks the weight-file magic")
    body = memoryview(raw)[:-8]
    (stated,) = struct.unpack_from("<Q", raw, len(body))
    actual = crc64_xz(body)
    if stated != actual:
        raise WeightFileError(
            f"checksum mismatch in '{path}': stored {stated:016x}, "
            f"computed {actual:016x}"
        )
    (version,) = struct.unpack_from("<I", body, 4)
    if version != VERSION:
        raise WeightFileError(f"unsupported weight-file version {version}")
    (count,) = struct.unpack_from("<I", body, 8)
    offset = 12
    store = WeightStore(entries={})
    seen = set()
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = str(body[offset : offset + name_len], "utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            n = 1
            for d in dims:
                n *= d
            arr = np.frombuffer(body, dtype="<f4", count=n, offset=offset).reshape(dims)
            offset += 4 * n
            if name in seen:
                raise WeightFileError(f"duplicate entry '{name}' in '{path}'")
            seen.add(name)
            if name == META_ENTRY:
                _decode_meta(arr, store)
            else:
                store.entries[name] = arr.astype(np.float32)
    except (struct.error, ValueError) as exc:
        raise WeightFileError(f"'{path}' is truncated or malformed: {exc}") from exc
    if offset != len(body):
        raise WeightFileError(
            f"'{path}' carries {len(body) - offset} trailing bytes past the "
            f"declared {count} entries"
        )
    return store
