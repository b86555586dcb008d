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

The checksum is liblzma's ``lzma_crc64``, found through the library handle
of CPython's ``_lzma`` extension: about 2 ms for the 9.3 MB nano file,
where the numpy lane CRC it replaced took 25-35 ms.  A Python built without
that extension falls back to a byte-table loop, which takes seconds for
such a file.  Either way the value is the plain CRC-64/XZ, so the format is
unchanged.

Saving and loading stream a file through one 1 MiB chunk, so neither holds
a copy of the file: the checksum runs on as each chunk, or each payload
large enough to skip the chunk, goes by.  Loading checks the length, the
magic and the version first, then the checksum over the whole body, and
only then the structure, each entry in its own aligned, writable float32
array.
"""

from __future__ import annotations

import contextlib
import os
import struct
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
from .tensor import BNParams, ConvKernel, check_setting, is_int

__all__ = [
    "WeightStore",
    "init_weights",
    "validate_store",
    "bind_slot",
    "bind_node_weights",
    "save_weights",
    "load_weights",
    "crc64_xz",
]

META_ENTRY = "__meta__"
MAGIC = b"MHWT"
VERSION = 1
# save_weights and load_weights stage a file's bytes through one reused
# buffer of this size; a payload of at least a quarter of it bypasses it
_CHUNK = 1 << 20


@dataclass(eq=False)
class WeightStore:
    """Flat name -> float32 array mapping plus provenance metadata."""

    entries: dict[str, np.ndarray] = field(default_factory=dict)
    form: str = "training"
    seed: int | None = None
    spec_digest: str | None = None

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
    check_setting("seed", seed, 0)
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


def _check_entry(name: str, arr) -> None:
    """Raise a ShapeError naming the entry unless ``arr`` is a C-contiguous
    float32 array: the one form that binding uses without a copy and that
    the container stores without a conversion."""
    if not isinstance(arr, np.ndarray):
        got = type(arr).__name__
    elif arr.dtype != np.float32:
        got = f"dtype {arr.dtype}"
    elif not arr.flags.c_contiguous:
        got = "a non-contiguous layout"
    else:
        return
    raise ShapeError(
        f"weight entry '{name}' must be a C-contiguous float32 array, got {got}"
    )


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
        _check_entry(name, arr)
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


def bind_slot(store: WeightStore, prefix: str, slot: ConvUnitSpec | MixerSpec):
    """Materialize one weighted slot of a composite node, in the store's
    form, from the entries :func:`mhaf.graph.slot_entries` lists for it.  A
    conv-unit slot binds as a dense ConvUnit (stride and activation from
    the slot).  A mixer slot binds as RepHConvWeights in training form and,
    deployed, as the unit :func:`mhaf.blocks.fold_slot` gives it: one
    unactivated stride-1 depthwise ConvUnit."""
    convs = _by_kind(store, slot_entries(prefix, slot, store.form))
    if isinstance(slot, MixerSpec):
        spec = slot.spec
        branches = [(_kernel(a, 1, spec.channels), _bn(a)) for a in convs]
        if store.form == "deployed":
            ((fused, _),) = branches
            return ConvUnit(kernel=fused, act=False)
        return RepHConvWeights(spec=spec, branches=branches)
    (arrays,) = convs
    kernel = _kernel(arrays, slot.stride, 1)
    return ConvUnit(kernel=kernel, bn=_bn(arrays), act=slot.act)


def bind_node_weights(node: Node, store: WeightStore):
    """Materialize the structured weights of one graph node, in the store's
    form, from the entries :func:`mhaf.graph.node_param_entries` lists for
    it.  Returns a ConvKernel (stride and groups from the node's attrs),
    BNParams, or, for any other kind, {slot path: :func:`bind_slot` result}
    for every weighted slot in slot order (empty for weightless kinds)."""
    if node.kind in ("conv", "bn"):
        (arrays,) = _by_kind(store, node_param_entries(node, store.form))
        if node.kind == "bn":
            return _bn(arrays)
        return _kernel(arrays, node.attrs["stride"], node.attrs["groups"])
    return {
        slot.path: bind_slot(store, prefix, slot)
        for prefix, slot in node_slots(node).items()
    }


# ---------------------------------------------------------------------------
# CRC-64/XZ


def _byte_table() -> list[int]:
    """Register images of the 256 byte values: one byte ``b`` steps the
    register as ``crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)``."""
    poly = 0xC96C5795D7870F42
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _byte_table()
_MASK = 0xFFFFFFFFFFFFFFFF
# bytes per tolist() block of the byte loop, which bounds its memory
_LOOP_BLOCK = 1 << 20


def _resolve_lzma_crc64():
    """liblzma's ``lzma_crc64(buf, size, crc)``, or None when this Python
    has no ``_lzma`` extension or the symbol is not exported.  The lookup
    goes through the extension's own library handle, whose symbol search
    also covers the liblzma it links: the one ``import lzma`` loads."""
    try:
        import _lzma
        import ctypes

        fn = ctypes.CDLL(getattr(_lzma, "__file__", None)).lzma_crc64
    except (ImportError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_uint64
    fn.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64)
    return fn


_lzma_crc64 = _resolve_lzma_crc64()


def crc64_xz(data, crc: int = 0) -> int:
    """CRC-64/XZ (reflected, poly 0x42F0E1EBA9EA3693, init/xorout all-ones)
    of any bytes-like object, continued from ``crc``, the checksum of the
    bytes before it (0 for none): ``crc64_xz(b, crc64_xz(a))`` equals
    ``crc64_xz(a + b)``.  The check value of b"123456789" is
    0x995DC9BBDF1939FA.

    This is the check the .xz format defines, and liblzma computes it:
    the bytes go to ``lzma_crc64`` in place, as a pointer, with no copy
    (about 2 ms for the 9.3 MB nano file on a 2-core machine).  Without
    liblzma the bytes go one at a time through the 256-entry byte table,
    1 MiB at a time; that loop is slow, seconds for a 9 MB file.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if _lzma_crc64 is not None:
        return _lzma_crc64(buf.ctypes.data, buf.size, crc)
    crc ^= _MASK
    for start in range(0, buf.size, _LOOP_BLOCK):
        for b in buf[start : start + _LOOP_BLOCK].tolist():
            crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ _MASK


# ---------------------------------------------------------------------------
# binary container


def _check_meta(store: WeightStore) -> None:
    """Raise a WeightFileError naming the field unless the store's metadata
    reads back as it is: ``form`` a string and ``spec_digest`` None or a
    string, neither holding the ``;`` that separates the fields (nor the
    digest reading as ``""`` or ``"none"``, which load as None), and
    ``seed`` None or an integer."""
    strings = {"form": store.form}
    if store.spec_digest is not None:
        strings["spec_digest"] = store.spec_digest
    for name, value in strings.items():
        if not isinstance(value, str) or ";" in value:
            raise WeightFileError(f"{name} must be a string without ';', got {value!r}")
    if store.spec_digest in ("", "none"):
        raise WeightFileError(f"spec_digest {store.spec_digest!r} would load back as None")
    if store.seed is not None and not is_int(store.seed):
        raise WeightFileError(f"seed must be an integer or None, got {store.seed!r}")


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


def _entry_parts(name: str, arr: np.ndarray) -> tuple:
    """An entry's packed header and its little-endian float32 payload as a
    1-D byte view, of the array itself wherever it already is one (no
    copy)."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise WeightFileError(f"entry name too long: {name[:40]}...")
    if arr.ndim > 0xFF:
        raise WeightFileError(f"entry rank {arr.ndim} exceeds format limit")
    header = struct.pack(
        f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape
    )
    return header, np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8)


class _Sink:
    """The bytes of a file being written, checksummed on their way out.
    Pieces under a quarter chunk are staged in one reused chunk; a larger
    piece is checksummed and written from where it is."""

    def __init__(self, fh):
        self.fh = fh
        self.chunk = memoryview(np.empty(_CHUNK, dtype=np.uint8))
        self.used = 0
        self.crc = 0

    def write(self, data) -> None:
        """Send a 1-D byte view (bytes, or an array's uint8 view)."""
        n = len(data)
        if n >= _CHUNK // 4:
            self.flush()
            self._out(data)
            return
        if self.used + n > _CHUNK:
            self.flush()
        self.chunk[self.used : self.used + n] = data
        self.used += n

    def flush(self) -> None:
        if self.used:
            self._out(self.chunk[: self.used])
            self.used = 0

    def _out(self, data) -> None:
        self.crc = crc64_xz(data, self.crc)
        self.fh.write(data)


def save_weights(store: WeightStore, path: str) -> None:
    """Write the store to the binary container (metadata entry first, then
    data entries in insertion order, then the checksum).  Every entry must
    be a C-contiguous float32 array, as :func:`validate_store` requires; any
    other raises a ShapeError naming it before a byte is written, and
    metadata that would not load back as it is raises a WeightFileError
    naming the field.

    Memory is one 1 MiB chunk: headers and small payloads are copied
    through it, and a payload of at least a quarter chunk is checksummed
    and written straight from its array, so no copy of the file is made.

    The bytes go to a temporary file beside ``path`` that ``os.replace``
    then moves over it, so an existing file at ``path`` is either left
    untouched or replaced whole; the temporary file is removed on failure.
    """
    if META_ENTRY in store.entries:
        raise WeightFileError(
            f"entry name '{META_ENTRY}' is reserved for the store's metadata"
        )
    _check_meta(store)
    parts = [_entry_parts(META_ENTRY, _encode_meta(store))]
    for name, arr in store.entries.items():
        _check_entry(name, arr)
        parts.append(_entry_parts(name, arr))
    # a named temp file rather than tempfile.mkstemp, whose 0600 mode would
    # survive the rename; open() keeps the usual umask-derived permissions
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            sink = _Sink(fh)
            sink.write(struct.pack("<4sII", MAGIC, VERSION, len(parts)))
            for header, payload in parts:
                sink.write(header)
                sink.write(payload)
            sink.flush()
            fh.write(struct.pack("<Q", sink.crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class _Malformed(Exception):
    """A structural fault in a weight file, reported only once the file's
    checksum has passed."""


class _Source:
    """The body of a file being read (every byte before its checksum),
    checksummed as it comes in.  Bytes are staged in one reused chunk; a
    payload rest of at least a quarter chunk is read straight into its
    array."""

    def __init__(self, fh, path: str, size: int):
        self.fh = fh
        self.path = path
        self.chunk = memoryview(np.empty(_CHUNK, dtype=np.uint8))
        self.lo = self.hi = 0  # the staged bytes not yet taken
        self.left = size - 8  # the body bytes still in the file
        self.crc = 0

    def remaining(self) -> int:
        return self.hi - self.lo + self.left

    def take(self, n: int):
        """The next ``n`` bytes, a header's: a view of the chunk, valid
        until the next take, or a copy where they straddle a refill."""
        lo = self.lo
        if n <= self.hi - lo:
            self.lo = lo + n
            return self.chunk[lo : lo + n]
        out = b""
        while n > self.hi - self.lo:
            out += self.chunk[self.lo : self.hi]
            n -= self.hi - self.lo
            self._refill()
        out += self.chunk[self.lo : self.lo + n]
        self.lo += n
        return out

    def take_into(self, dst: memoryview) -> None:
        """Fill ``dst``, a payload's bytes, which the caller has checked
        against :meth:`remaining`."""
        n = min(len(dst), self.hi - self.lo)
        dst[:n] = self.chunk[self.lo : self.lo + n]
        self.lo += n
        rest = len(dst) - n
        if rest >= _CHUNK // 4:
            self._read_into(dst[n:])
        elif rest:
            self._refill()
            dst[n:] = self.chunk[:rest]
            self.lo = rest

    def finish(self) -> int:
        """Checksum the unread rest of the body; return the stated checksum."""
        while self.left:
            self._refill()
        trailer = self.fh.read(8)
        if len(trailer) != 8:
            raise WeightFileError(f"'{self.path}' shrank while it was read")
        return struct.unpack("<Q", trailer)[0]

    def _refill(self) -> None:
        if not self.left:
            raise _Malformed(f"'{self.path}' is truncated or malformed: an entry runs past the end")
        n = min(_CHUNK, self.left)
        self._read_into(self.chunk[:n])
        self.lo, self.hi = 0, n

    def _read_into(self, view: memoryview) -> None:
        if self.fh.readinto(view) != len(view):
            raise WeightFileError(f"'{self.path}' shrank while it was read")
        self.crc = crc64_xz(view, self.crc)
        self.left -= len(view)


def _read_entries(source: _Source, count: int) -> dict[str, np.ndarray]:
    """The ``count`` entries at the source's position, the metadata entry
    among them, in file order.  Each payload gets an array of its own,
    allocated once its declared size is known to fit in the bytes left; a
    structural fault raises :class:`_Malformed`."""
    path = source.path
    entries = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack("<H", source.take(2))
            head = source.take(name_len + 1)
            name, rank = str(head[:-1], "utf-8"), head[-1]
            dims = struct.unpack(f"<{rank}I", source.take(4 * rank))
            n = 1
            for d in dims:
                n *= d
            if 4 * n > source.remaining():
                raise _Malformed(
                    f"'{path}' is truncated or malformed: entry '{name}' declares "
                    f"{4 * n} payload bytes, {source.remaining()} remain"
                )
            arr = np.empty(dims, dtype="<f4")
            source.take_into(memoryview(arr.reshape(-1)).cast("B"))
            if name in entries:
                raise _Malformed(f"duplicate entry '{name}' in '{path}'")
            # a no-op on little-endian hosts, where '<f4' is float32
            entries[name] = arr.astype(np.float32, copy=False)
    except ValueError as exc:  # a name that is not UTF-8, a shape numpy refuses
        raise _Malformed(f"'{path}' is truncated or malformed: {exc}") from exc
    if source.remaining():
        raise _Malformed(
            f"'{path}' carries {source.remaining()} trailing bytes past the "
            f"declared {count} entries"
        )
    return entries


def load_weights(path: str) -> WeightStore:
    """Read a container.  Checks run in this order: the file's length, the
    magic, the version (which decides the checksum), the checksum over the
    whole body, and only then the structure, so a damaged header reports a
    checksum mismatch rather than the structural fault it causes.

    Memory is one 1 MiB chunk beside the entries: the body is checksummed
    chunk by chunk as it is read, headers are parsed from the chunk, each
    payload is checked against the bytes left before its array is
    allocated, and a payload of at least a quarter chunk is read straight
    into its array.  Loaded arrays are aligned, writable and own their
    memory.  A file that shrinks while it is read raises a WeightFileError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + 4 + 4 + 8:
            raise WeightFileError(f"'{path}' is too short to be a weight file")
        source = _Source(fh, path, size)
        magic, version, count = struct.unpack("<4sII", source.take(12))
        if magic != MAGIC:
            raise WeightFileError(f"'{path}' lacks the weight-file magic")
        if version != VERSION:
            raise WeightFileError(f"unsupported weight-file version {version}")
        try:
            entries, fault = _read_entries(source, count), None
        except _Malformed as exc:
            entries, fault = {}, exc
        stated = source.finish()
    if stated != source.crc:
        raise WeightFileError(
            f"checksum mismatch in '{path}': stored {stated:016x}, "
            f"computed {source.crc:016x}"
        )
    if fault is not None:
        raise WeightFileError(str(fault)) from fault
    store = WeightStore(entries=entries)
    meta = entries.pop(META_ENTRY, None)
    if meta is not None:
        try:
            _decode_meta(meta, store)
        except ValueError as exc:
            raise WeightFileError(f"'{path}' is truncated or malformed: {exc}") from exc
    return store
