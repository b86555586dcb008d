"""Tests for weight initialization and the checksummed container format."""

import copy
import dataclasses
import hashlib
import json
import os
import struct
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhaf import weights
from mhaf.config import load_preset
from mhaf.errors import ConfigError, ShapeError, StateError, WeightFileError
from mhaf.graph import assemble, graph_param_entries, node_param_entries
from mhaf.model import fuse_model
from mhaf.tensor import BNParams, ConvKernel
from mhaf.weights import (
    WeightStore,
    bind_node_weights,
    crc64_xz,
    init_weights,
    load_weights,
    save_weights,
    validate_store,
)
from oracles import crc64_bitwise

# 8192 words: the row width of the numpy lane CRC that liblzma replaced.
# Its lane edges stay as regression lengths for both routes.
LANES = 8192


def small_store():
    return init_weights(assemble(load_preset("lite-nano")), seed=0)


# the entry kind each array field of the bound structures holds
FIELD_KIND = {
    (ConvKernel, "weights"): "conv_weight",
    (ConvKernel, "bias"): "conv_bias",
    (BNParams, "mean"): "bn_mean",
    (BNParams, "var"): "bn_var",
    (BNParams, "gamma"): "bn_gamma",
    (BNParams, "beta"): "bn_beta",
}


def reached_arrays(bound):
    """(entry kind, array) for every array reachable from a bound weight
    object, found by walking dataclass fields, lists, tuples and dicts."""
    if isinstance(bound, dict):
        bound = list(bound.values())
    if isinstance(bound, (list, tuple)):
        for item in bound:
            yield from reached_arrays(item)
    elif dataclasses.is_dataclass(bound):
        for f in dataclasses.fields(bound):
            value = getattr(bound, f.name)
            if isinstance(value, np.ndarray):
                yield FIELD_KIND[type(bound), f.name], value
            else:
                yield from reached_arrays(value)


def crc64_trailer(body):
    return struct.pack("<Q", crc64_bitwise(body))


def craft_file(path, entries, version=1, count=None, pad=b"", trailer=crc64_trailer):
    """Write a container byte-by-byte, independent of the library's writer;
    ``trailer`` makes the checksum bytes from the bytes before them."""
    body = bytearray(b"MHWT")
    body += struct.pack("<I", version)
    body += struct.pack("<I", len(entries) if count is None else count)
    for name, values in entries:
        encoded = name.encode("utf-8")
        arr = np.asarray(values, dtype="<f4")
        body += struct.pack("<H", len(encoded))
        body += encoded
        body += struct.pack("<B", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        body += arr.tobytes()
    body += pad
    body += trailer(bytes(body))
    path.write_bytes(bytes(body))


def random_bytes(seed, length):
    return np.random.default_rng(seed).integers(0, 256, size=length, dtype=np.uint8).tobytes()


def offset_views(payload):
    """The payload at each misaligned offset 1-7 of a larger buffer."""
    for offset in range(1, 8):
        yield offset, memoryview(bytes(offset) + payload)[offset:]


class TestChecksum:
    def test_standard_check_value(self):
        assert crc64_xz(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty_input(self):
        assert crc64_xz(b"") == crc64_bitwise(b"")

    def test_matches_bitwise_reference(self):
        rng = np.random.default_rng(7)
        for length in (1, 2, 7, 8, 9, 63, 64, 65, 1000):
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            assert crc64_xz(data) == crc64_bitwise(data)

    def test_sensitive_to_every_byte(self):
        data = bytes(range(64))
        base = crc64_xz(data)
        for i in (0, 31, 63):
            mutated = bytearray(data)
            mutated[i] ^= 0x01
            assert crc64_xz(bytes(mutated)) != base

    def test_liblzma_route_in_use_where_lzma_exists(self):
        # a silent fall to the byte loop would cost seconds per weight file
        pytest.importorskip("_lzma")
        assert weights._lzma_crc64 is not None

    def test_byte_loop_fallback(self, monkeypatch):
        # the route of a Python without liblzma, with 1000-byte blocks so
        # that block edges fall inside short inputs
        monkeypatch.setattr(weights, "_lzma_crc64", None)
        monkeypatch.setattr(weights, "_LOOP_BLOCK", 1000)
        assert crc64_xz(b"123456789") == 0x995DC9BBDF1939FA
        assert crc64_xz(b"") == crc64_bitwise(b"")
        rng = np.random.default_rng(7)
        for length in (1, 7, 8, 9, 65, 999, 1000, 1001, 3007):
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            assert crc64_xz(data) == crc64_bitwise(data), length
        payload = random_bytes(15, 2 * 1000 + 8 * 6 + 5)
        expected = crc64_bitwise(payload)
        for offset, view in offset_views(payload):
            assert crc64_xz(view) == expected, offset


@pytest.fixture(params=["liblzma", "byte-loop"])
def crc_route(request, monkeypatch):
    """Each checksum route in turn: liblzma's, and the byte loop of a Python
    without it."""
    if request.param == "liblzma":
        if weights._lzma_crc64 is None:
            pytest.skip("this Python has no liblzma")
    else:
        monkeypatch.setattr(weights, "_lzma_crc64", None)
    return request.param


class TestChainedChecksum:
    """``crc64_xz(b, crc64_xz(a)) == crc64_xz(a + b)`` on both routes: the
    weight-file reader and writer checksum a file piece by piece."""

    def test_check_value_split_at_every_point(self, crc_route):
        data = b"123456789"
        for cut in range(len(data) + 1):
            assert crc64_xz(data[cut:], crc64_xz(data[:cut])) == 0x995DC9BBDF1939FA, cut

    def test_empty_pieces_change_nothing(self, crc_route):
        assert crc64_xz(b"") == 0
        for crc in (0, 1, 0x995DC9BBDF1939FA, 2**64 - 1):
            assert crc64_xz(b"", crc) == crc
        assert crc64_xz(b"456789", crc64_xz(b"", crc64_xz(b"123"))) == 0x995DC9BBDF1939FA

    def test_multi_mb_buffer_cut_at_seeded_offsets(self, crc_route):
        data = np.random.default_rng(21).integers(0, 256, size=(2 << 20) + 13, dtype=np.uint8)
        cuts = np.sort(np.random.default_rng(22).integers(0, data.size, size=9))
        crc = 0
        for lo, hi in zip([0, *cuts], [*cuts, data.size]):
            crc = crc64_xz(data[lo:hi], crc)
        assert crc == crc64_xz(data)


class TestLaneChecksum:
    """Lengths and layouts at the lane edges of the replaced lane CRC,
    against the bitwise oracle."""

    BLOCK = 8 * LANES  # 65536 bytes, one word per lane: one row

    def test_lane_block_boundaries(self):
        rng = np.random.default_rng(11)
        block = self.BLOCK
        for length in (block - 1, block, block + 1, block + 7, 3 * block + 8 * 5 + 3):
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            assert crc64_xz(data) == crc64_bitwise(data), length

    def test_word_counts_at_lane_edges(self):
        # n % LANES of 0, 1 and LANES - 1
        rng = np.random.default_rng(13)
        for words in (LANES, 2 * LANES, LANES + 1, 2 * LANES + 1, 2 * LANES - 1):
            data = rng.integers(0, 256, size=8 * words, dtype=np.uint8).tobytes()
            assert crc64_xz(data) == crc64_bitwise(data), words

    def test_fewer_words_than_lanes(self):
        rng = np.random.default_rng(14)
        for words in (1, 2, 5, 257, LANES - 1):
            data = rng.integers(0, 256, size=8 * words, dtype=np.uint8).tobytes()
            assert crc64_xz(data) == crc64_bitwise(data), words

    def test_trailing_bytes(self):
        # 1-7 bytes that fill no word, after a few words and after a row
        rng = np.random.default_rng(17)
        for words in (5, LANES + 3):
            for tail in range(1, 8):
                length = 8 * words + tail
                data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
                assert crc64_xz(data) == crc64_bitwise(data), length

    def test_any_bytes_like_input(self):
        data = random_bytes(12, 2 * self.BLOCK + 20)
        expected = crc64_bitwise(data[1:])
        assert crc64_xz(bytearray(data[1:])) == expected
        # an odd offset leaves the bytes unaligned in memory
        assert crc64_xz(memoryview(data)[1:]) == expected
        assert crc64_xz(np.frombuffer(data, dtype=np.uint8)[1:]) == expected

    def test_every_memoryview_offset(self):
        # the same payload, read-only, at each misaligned offset; 6 words
        # past the whole rows and 5 bytes that fill no word
        payload = random_bytes(15, 2 * self.BLOCK + 8 * 6 + 5)
        expected = crc64_bitwise(payload)
        for offset, view in offset_views(payload):
            assert crc64_xz(view) == expected, offset

    def test_all_ones_and_zeros_blocks(self):
        for fill in (b"\x00", b"\xff"):
            data = fill * (2 * self.BLOCK)
            assert crc64_xz(data) == crc64_bitwise(data)

    def test_no_payload_sized_copy(self):
        # the bytes are passed in place and no table is built per call, so
        # even a 100 kB allocation would be a copy of part of the input
        data = np.random.default_rng(16).integers(0, 256, size=8 << 20, dtype=np.uint8)
        tracemalloc.start()
        try:
            crc64_xz(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5, f"peak {peak / 1e6:.2f} MB"


class TestInitialization:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        graph = assemble(load_preset("lite-nano"))
        a, b = tmp_path / "a.mhwt", tmp_path / "b.mhwt"
        save_weights(init_weights(graph, seed=11), a)
        save_weights(init_weights(graph, seed=11), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        graph = assemble(load_preset("lite-nano"))
        s0 = init_weights(graph, seed=0)
        s1 = init_weights(graph, seed=1)
        name = "stem.1.conv.weight"
        assert not np.array_equal(s0[name], s1[name])

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be at least 0, got -1"),
        (2.5, "seed must be an integer, got 2.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
    ])
    def test_bad_seed_rejected(self, seed, message):
        # numpy raises ValueError or TypeError for the first three, and a
        # bool seed made a store that save_weights then refused
        with pytest.raises(ConfigError, match=message):
            init_weights(assemble(load_preset("lite-nano")), seed=seed)

    def test_bn_entries_start_as_identity(self):
        store = small_store()
        assert np.all(store["stem.1.bn.gamma"] == 1.0)
        assert np.all(store["stem.1.bn.var"] == 1.0)
        assert np.all(store["stem.1.bn.beta"] == 0.0)
        assert np.all(store["stem.1.bn.mean"] == 0.0)

    def test_store_matches_its_graph(self):
        graph = assemble(load_preset("lite-nano"))
        validate_store(graph, init_weights(graph, seed=0))

    def test_store_rejected_against_other_config(self):
        store = small_store()
        other = assemble(load_preset("nano"))
        with pytest.raises((ShapeError, StateError)):
            validate_store(other, store)

    def test_missing_entry_is_named(self):
        graph = assemble(load_preset("lite-nano"))
        store = init_weights(graph, seed=0)
        del store.entries["stem.1.conv.weight"]
        with pytest.raises(ShapeError, match="stem.1.conv.weight"):
            validate_store(graph, store)

    @pytest.mark.parametrize(
        "recast, got",
        [
            (lambda a: a.astype(np.float64), "got dtype float64"),
            (np.asfortranarray, "got a non-contiguous layout"),
            (lambda a: a.tolist(), "got list"),
        ],
    )
    def test_entry_must_be_a_c_contiguous_float32_array(self, recast, got):
        # binding uses entries as they are, so a copy-forcing entry is
        # rejected at the boundary rather than silently copied
        graph = assemble(load_preset("lite-nano"))
        store = init_weights(graph, seed=0)
        store.entries["stem.1.conv.weight"] = recast(store["stem.1.conv.weight"])
        match = f"'stem.1.conv.weight' must be a C-contiguous float32 array, {got}"
        with pytest.raises(ShapeError, match=match):
            validate_store(graph, store)

    def test_unknown_lookup_raises(self):
        with pytest.raises(StateError, match="no entry"):
            small_store()["nonexistent.weight"]

    @pytest.mark.parametrize(
        "other", [copy.deepcopy, lambda store: small_store()], ids=["deepcopy", "same-seed"]
    )
    def test_equality_is_identity(self, other):
        # stores hold arrays, whose elementwise == has no single truth value,
        # so == compares identity and answers rather than raising
        store = small_store()
        twin = other(store)
        assert store == store
        assert not store == twin
        assert store != twin


class TestBindingIdentity:
    @pytest.mark.parametrize("scale", ["nano", "small"])
    @pytest.mark.parametrize("form", ["training", "deployed"])
    def test_bound_arrays_are_the_listed_entries_of_their_kind(self, scale, form):
        """Binding hands out the store's own arrays: each one a listed entry
        of the node, in the field of the entry's kind, and every listed
        entry reached.  A kernel without a listed bias gets a fresh zero
        vector, which is no store entry."""
        graph = assemble(load_preset(scale))
        store = init_weights(graph, seed=0)
        if form == "deployed":
            outcome = fuse_model(graph, store)
            graph, store = outcome.graph, outcome.store
        stored = {id(arr) for arr in store.entries.values()}
        for node in graph:
            listed = {id(store[e.name]): e.kind for e in node_param_entries(node, form)}
            seen = set()
            for kind, arr in reached_arrays(bind_node_weights(node, store)):
                if id(arr) in listed:
                    assert listed[id(arr)] == kind, (node.name, kind)
                    seen.add(id(arr))
                else:
                    assert kind == "conv_bias", (node.name, kind)
                    assert id(arr) not in stored and not arr.any(), node.name
            assert seen == set(listed), node.name


def entry_list_digest(graph):
    """sha256 of the graph's entry list, as JSON ``[[name, shape, kind], ...]``
    in store order."""
    listed = [(e.name, list(e.shape), e.kind) for e in graph_param_entries(graph)]
    return len(listed), hashlib.sha256(json.dumps(listed).encode()).hexdigest()


class TestEntryLists:
    # nano's entry lists, pinned: a change to node kinds or slot naming must
    # keep every existing weight file's names, shapes, kinds and order
    PINNED = {
        "training": (445, "83874415f8ab9d7767544d5e7a870d1cad21a65b539842caafeffd4fee04de9c"),
        "deployed": (142, "763cd3e4cf8ce7999c891b4534c81685ef43be19d3ba93b476f741e66bdc4940"),
    }

    def test_nano_entry_lists_are_pinned(self):
        graph = assemble(load_preset("nano"))
        deployed = fuse_model(graph, init_weights(graph, seed=0)).graph
        assert entry_list_digest(graph) == self.PINNED["training"]
        assert entry_list_digest(deployed) == self.PINNED["deployed"]


class TestRoundTrip:
    def test_entries_survive_exactly(self, tmp_path):
        store = small_store()
        path = tmp_path / "w.mhwt"
        save_weights(store, path)
        loaded = load_weights(path)
        assert set(loaded.entries) == set(store.entries)
        for name, arr in store.entries.items():
            assert np.array_equal(loaded.entries[name], arr)
            assert loaded.entries[name].dtype == np.float32

    def test_metadata_survives(self, tmp_path):
        store = small_store()
        path = tmp_path / "w.mhwt"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded.form == "training"
        assert loaded.seed == 0
        assert loaded.spec_digest == store.spec_digest

    def test_resave_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.mhwt", tmp_path / "b.mhwt"
        save_weights(small_store(), p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), str(path))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", refuse)
        other = init_weights(assemble(load_preset("lite-nano")), seed=1)
        with pytest.raises(OSError, match="simulated rename failure"):
            save_weights(other, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.mhwt"]


    def test_loaded_entries_are_writable_aligned_and_independent(self, tmp_path):
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), path)
        loaded = load_weights(path)
        for arr in loaded.entries.values():
            assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
            # each entry owns its memory: no view into the file's bytes or
            # into another entry
            assert arr.base is None and arr.flags.owndata
        name = "stem.1.conv.weight"
        before = {k: v.copy() for k, v in loaded.entries.items() if k != name}
        loaded.entries[name] += 1.0
        assert all(np.array_equal(loaded.entries[k], v) for k, v in before.items())
        assert np.array_equal(loaded.entries[name], small_store()[name] + 1.0)

    @pytest.mark.parametrize(
        "recast, got",
        [(lambda a: a.astype(np.float64), "got dtype float64"), (lambda a: a.tolist(), "got list")],
        ids=["float64", "list"],
    )
    def test_non_float32_entry_rejected_at_save(self, tmp_path, recast, got):
        # a float64 entry would load back as float32, a different store
        store = small_store()
        store.entries["stem.1.conv.weight"] = recast(store["stem.1.conv.weight"])
        match = f"'stem.1.conv.weight' must be a C-contiguous float32 array, {got}"
        with pytest.raises(ShapeError, match=match):
            save_weights(store, tmp_path / "w.mhwt")
        assert list(tmp_path.iterdir()) == []

    def test_reserved_entry_name_rejected_at_save(self, tmp_path):
        path = tmp_path / "meta.mhwt"
        store = WeightStore(entries={
            "__meta__": np.zeros(3, dtype=np.float32),
            "x": np.ones(2, dtype=np.float32),
        })
        with pytest.raises(WeightFileError, match="__meta__"):
            save_weights(store, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("spec_digest", "x;form=deployed", "spec_digest must be a string without ';'"),
            ("form", "training;seed=9", "form must be a string without ';'"),
            ("form", None, "form must be a string"),
            ("spec_digest", 7, "spec_digest must be a string"),
            ("spec_digest", "", "spec_digest '' would load back as None"),
            ("spec_digest", "none", "spec_digest 'none' would load back as None"),
            ("seed", "abc", "seed must be an integer or None, got 'abc'"),
            ("seed", True, "seed must be an integer or None, got True"),
            ("seed", 2.5, "seed must be an integer or None, got 2.5"),
        ],
        ids=["digest-semicolon", "form-semicolon", "form-none", "digest-int",
             "digest-empty", "digest-none", "seed-str", "seed-bool", "seed-float"],
    )
    def test_metadata_that_cannot_load_back_rejected_at_save(self, tmp_path, field, value, match):
        store = WeightStore(entries={"x": np.ones(2, dtype=np.float32)}, **{field: value})
        with pytest.raises(WeightFileError, match=match):
            save_weights(store, tmp_path / "w.mhwt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [None, 0, -7, 2**70, np.int64(9), np.uint8(200)])
    def test_every_integer_seed_round_trips(self, tmp_path, seed):
        store = WeightStore(
            entries={"x": np.ones(2, dtype=np.float32)},
            form="deployed", seed=seed, spec_digest="a=b",
        )
        save_weights(store, tmp_path / "w.mhwt")
        loaded = load_weights(tmp_path / "w.mhwt")
        assert (loaded.form, loaded.seed, loaded.spec_digest) == ("deployed", seed, "a=b")


class TestDamageDetection:
    def test_flipped_byte_is_caught(self, tmp_path):
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), path)
        raw = bytearray(path.read_bytes())
        for pos in (12, len(raw) // 2, len(raw) - 9):
            damaged = bytearray(raw)
            damaged[pos] ^= 0xFF
            path.write_bytes(bytes(damaged))
            with pytest.raises(WeightFileError, match="checksum"):
                load_weights(path)

    def test_truncation_is_caught(self, tmp_path):
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(WeightFileError):
            load_weights(path)

    def test_wrong_magic_is_caught(self, tmp_path):
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ONNX"
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFileError, match="magic"):
            load_weights(path)

    def test_appended_garbage_is_caught(self, tmp_path):
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(WeightFileError, match="checksum"):
            load_weights(path)

    @pytest.mark.parametrize("missing", [4, 100, 3 << 20])
    def test_file_that_shrinks_while_read_is_refused(self, tmp_path, monkeypatch, missing):
        # the size taken at open promises bytes that are gone by the read:
        # in the trailer, inside the body, or past a whole chunk
        path = tmp_path / "w.mhwt"
        save_weights(small_store(), path)
        stat = os.fstat
        monkeypatch.setattr(
            weights.os, "fstat", lambda fd: SimpleNamespace(st_size=stat(fd).st_size + missing)
        )
        with pytest.raises(WeightFileError, match="shrank while it was read"):
            load_weights(path)

    def test_tiny_file_is_caught(self, tmp_path):
        path = tmp_path / "w.mhwt"
        path.write_bytes(b"MHWT\x01")
        with pytest.raises(WeightFileError, match="too short"):
            load_weights(path)


    def test_single_byte_damage_in_multi_mb_payload(self, tmp_path):
        path = tmp_path / "big.mhwt"
        rng = np.random.default_rng(13)
        big = rng.standard_normal((3, 1 << 19)).astype(np.float32)  # 6 MB
        save_weights(WeightStore(entries={"big": big}), path)
        raw = path.read_bytes()
        assert np.array_equal(load_weights(path).entries["big"], big)
        payload_start = len(raw) - 8 - big.nbytes
        for pos in (payload_start, payload_start + big.nbytes // 2, len(raw) - 9):
            damaged = bytearray(raw)
            damaged[pos] ^= 0x10
            path.write_bytes(bytes(damaged))
            with pytest.raises(WeightFileError, match="checksum"):
                load_weights(path)


class TestFormatContract:
    def test_independently_written_file_loads(self, tmp_path):
        # built with nothing but struct.pack, so reader and writer cannot
        # share a bug
        path = tmp_path / "hand.mhwt"
        craft_file(path, [("w", [[1.5, -2.0], [0.25, 8.0]])])
        store = load_weights(path)
        assert np.array_equal(store.entries["w"], [[1.5, -2.0], [0.25, 8.0]])

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.mhwt"
        craft_file(path, [("w", [1.0]), ("w", [2.0])])
        with pytest.raises(WeightFileError, match="duplicate"):
            load_weights(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v9.mhwt"
        craft_file(path, [("w", [1.0])], version=9)
        with pytest.raises(WeightFileError, match="version 9"):
            load_weights(path)

    def test_version_is_read_before_the_checksum(self, tmp_path):
        # a version-2 file ends in a 4-byte CRC-32, not in this version's
        # CRC-64: the version decides the checksum, so it is named first
        path = tmp_path / "v2.mhwt"
        craft_file(
            path, [("w", [1.0, 2.0])], version=2,
            trailer=lambda body: struct.pack("<I", zlib.crc32(body)),
        )
        with pytest.raises(WeightFileError, match="unsupported weight-file version 2"):
            load_weights(path)

    def test_undeclared_trailing_entry_rejected(self, tmp_path):
        path = tmp_path / "extra.mhwt"
        craft_file(path, [("w", [1.0])], pad=b"\x00" * 11)
        with pytest.raises(WeightFileError, match="trailing"):
            load_weights(path)

    def test_library_file_parses_with_plain_struct(self, tmp_path):
        # decode the library's own output with an independent reader
        path = tmp_path / "w.mhwt"
        store = WeightStore(entries={"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3)})
        save_weights(store, path)
        raw = path.read_bytes()
        assert raw[:4] == b"MHWT"
        version, count = struct.unpack_from("<II", raw, 4)
        assert version == 1
        assert count == 2  # metadata entry plus the payload entry
        (stated,) = struct.unpack("<Q", raw[-8:])
        assert stated == crc64_bitwise(raw[:-8])
        offset = 12
        seen = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            n = int(np.prod(dims)) if dims else 1
            seen[name] = np.frombuffer(raw, "<f4", count=n, offset=offset).reshape(dims)
            offset += 4 * n
        assert offset == len(raw) - 8
        assert np.array_equal(seen["a.weight"], store.entries["a.weight"])

    def test_overlong_name_rejected_at_save(self, tmp_path):
        store = WeightStore(entries={"x" * 70_000: np.zeros(1, dtype=np.float32)})
        with pytest.raises(WeightFileError, match="name too long"):
            save_weights(store, tmp_path / "bad.mhwt")

    def test_large_independently_written_file_loads(self, tmp_path):
        # a payload of several lane blocks, checksummed by the bitwise oracle
        path = tmp_path / "large.mhwt"
        values = np.random.default_rng(14).standard_normal((5, 4000)).astype(np.float32)
        assert values.nbytes >= 64 * 1024
        craft_file(path, [("a", [1.0, 2.0, 3.0]), ("big", values)])
        store = load_weights(path)
        assert np.array_equal(store.entries["big"], values)
        assert np.array_equal(store.entries["a"], [1.0, 2.0, 3.0])

    def test_second_meta_entry_rejected(self, tmp_path):
        meta = np.frombuffer(b"form=training", dtype=np.uint8).astype(np.float32)
        path = tmp_path / "meta2.mhwt"
        craft_file(path, [("__meta__", meta), ("w", [1.0]), ("__meta__", meta)])
        with pytest.raises(WeightFileError, match="duplicate entry '__meta__'"):
            load_weights(path)


# ---------------------------------------------------------------------------
# properties of the streamed container, with chunks small enough that
# headers and payloads straddle their edges

CHUNK_EDGES = 64
META_TEXT = st.text(st.characters(blacklist_characters=";"), max_size=12)


@st.composite
def stores(draw):
    """A store of random names, shapes and float32 bit patterns (NaNs with
    payloads among them) and random metadata."""
    names = draw(st.lists(
        st.text(min_size=1, max_size=40).filter(lambda s: s != weights.META_ENTRY),
        max_size=6, unique=True,
    ))
    entries = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 7), max_size=3)))
        raw = draw(st.binary(min_size=4 * int(np.prod(shape)), max_size=4 * int(np.prod(shape))))
        entries[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
    return WeightStore(
        entries=entries,
        form=draw(META_TEXT),
        seed=draw(st.none() | st.integers(-(2**70), 2**70)),
        spec_digest=draw(st.none() | META_TEXT.filter(lambda s: s not in ("", "none"))),
    )


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("props") / "w.mhwt"


def saved_bytes(store, path):
    save_weights(store, path)
    return path.read_bytes()


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestContainerProperties:
    @PROPERTY
    @given(store=stores())
    def test_random_store_round_trips_bit_for_bit(self, scratch_file, store):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "_CHUNK", CHUNK_EDGES)
            raw = saved_bytes(store, scratch_file)
            loaded = load_weights(scratch_file)
        assert saved_bytes(store, scratch_file) == raw  # the chunk size is not in the bytes
        assert (loaded.form, loaded.seed, loaded.spec_digest) == (
            store.form, store.seed, store.spec_digest)
        assert list(loaded.entries) == list(store.entries)
        for name, arr in store.entries.items():
            got = loaded.entries[name]
            assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())

    @PROPERTY
    @given(store=stores(), data=st.data())
    def test_every_truncation_raises_weight_file_error(self, scratch_file, store, data):
        raw = saved_bytes(store, scratch_file)
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        scratch_file.write_bytes(raw[:cut])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "_CHUNK", CHUNK_EDGES)
            with pytest.raises(WeightFileError):
                load_weights(scratch_file)

    @PROPERTY
    @given(store=stores(), data=st.data())
    def test_one_flipped_byte_is_named_by_where_it_lies(self, scratch_file, store, data):
        raw = bytearray(saved_bytes(store, scratch_file))
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
        scratch_file.write_bytes(bytes(raw))
        match = "magic" if pos < 4 else "version" if pos < 8 else "checksum mismatch"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "_CHUNK", CHUNK_EDGES)
            with pytest.raises(WeightFileError, match=match):
                load_weights(scratch_file)


class TestStreamedMemory:
    """A save or load holds one 1 MiB chunk beside the store, never the
    whole file: tracemalloc peaks against nano's 9.3 MB file."""

    SLACK = 1.5 * 2**20

    @pytest.fixture(scope="class")
    def nano(self, tmp_path_factory):
        store = init_weights(assemble(load_preset("nano")), seed=0)
        path = tmp_path_factory.mktemp("nano") / "nano.mhwt"
        save_weights(store, path)
        return store, path

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_peaks_within_a_chunk_of_its_entries(self, nano):
        _, path = nano
        store, peak = self.traced_peak(lambda: load_weights(path))
        held = sum(arr.nbytes for arr in store.entries.values())
        assert held > 9e6
        assert peak - held <= self.SLACK, f"{(peak - held) / 2**20:.2f} MiB above the entries"

    def test_save_peaks_within_a_chunk(self, nano):
        store, path = nano
        _, peak = self.traced_peak(lambda: save_weights(store, path))
        assert peak <= self.SLACK, f"peak {peak / 2**20:.2f} MiB"

    def test_checksum_runs_once_per_chunk_or_large_payload(self, nano, monkeypatch):
        # one call per byte range keeps the checksum cheap: thousands of
        # small calls cost more than the bytes they cover
        store, path = nano
        calls = []
        real = weights.crc64_xz

        def counted(data, crc=0):
            calls.append(len(data))
            return real(data, crc)

        monkeypatch.setattr(weights, "crc64_xz", counted)
        save_weights(store, path)
        saves = len(calls)
        load_weights(path)
        large = sum(arr.nbytes >= weights._CHUNK // 4 for arr in store.entries.values())
        bound = path.stat().st_size // weights._CHUNK + 2 * large + 2
        assert saves <= bound and len(calls) - saves <= bound, (saves, len(calls) - saves, bound)
        assert sum(calls[saves:]) == sum(calls[:saves]) == path.stat().st_size - 8
