# tests/test_shardio.py
import ctypes
import dataclasses
import errno
import os
import re
import shutil
import stat
import sys
import tempfile
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from pmba import shardio
from pmba.matrix import InconsistencyError
from pmba.params import derive_params
from pmba.shardio import (
    FORMAT_VERSION,
    MAGIC,
    AtomicFile,
    ShardFormatError,
    ShardHeader,
    ShardReader,
    ShardSet,
    atomic_set,
    header_for,
    manifest_file,
    pack_header,
    payload_crc,
    read_manifest,
    read_shard,
    shard_params,
    write_shard,
)
from pmba.striping import (
    bytes_to_source,
    encode_stripes,
    reconstruct_stripes,
    repair_stripes,
    source_to_bytes,
    stripe_repairer,
)

BYTE_PARAMS = derive_params(3, 2, 7, q=263)
SMALL = derive_params(3, 2, 7, q=11)

# Fixed header layout: <4sBHHHHIQQ = magic(0:4) version(4) q(5:7) n(7:9)
# k(9:11) delta(11:13) node_index(13:17) stripe_count(17:25)
# original_length(25:33), then n two-byte evaluation points.
FIXED_SIZE = 33


def sample_shard(tmp_path, node_index=3, params=BYTE_PARAMS, seed=41):
    rng = np.random.default_rng(seed)
    header = header_for(params, node_index, original_length=17)  # two stripes at F = 12
    symbols = rng.integers(0, params.q, size=(header.stripe_count, params.alpha)).astype(np.int64)
    path = tmp_path / f"node{node_index}.shard"
    write_shard(path, header, symbols)
    return path, header, symbols


# ---------------------------------------------------------------------------
# shard files
# ---------------------------------------------------------------------------


def test_shard_write_read_round_trip(tmp_path):
    path, header, symbols = sample_shard(tmp_path)
    got_header, got_symbols = read_shard(path)
    assert got_header == header
    assert np.array_equal(got_symbols, symbols)


def test_shard_bytes_are_deterministic(tmp_path):
    path_a, header, symbols = sample_shard(tmp_path, seed=42)
    path_b = tmp_path / "again.shard"
    write_shard(path_b, header, symbols)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_header_layout_is_pinned(tmp_path):
    path, header, _ = sample_shard(tmp_path, node_index=5)
    blob = path.read_bytes()
    assert blob[0:4] == MAGIC == b"PMBA"
    assert blob[4] == FORMAT_VERSION == 1
    assert int.from_bytes(blob[5:7], "little") == 263
    assert int.from_bytes(blob[7:9], "little") == 7
    assert int.from_bytes(blob[9:11], "little") == 3
    assert int.from_bytes(blob[11:13], "little") == 2
    assert int.from_bytes(blob[13:17], "little") == 5
    assert int.from_bytes(blob[17:25], "little") == 2
    assert int.from_bytes(blob[25:33], "little") == 17
    points = [
        int.from_bytes(blob[FIXED_SIZE + 2 * i : FIXED_SIZE + 2 * i + 2], "little")
        for i in range(7)
    ]
    assert tuple(points) == header.eval_points
    assert len(blob) == FIXED_SIZE + 2 * 7 + 2 * 2 * BYTE_PARAMS.alpha


def test_zero_stripe_shard_round_trips(tmp_path):
    params = BYTE_PARAMS
    header = header_for(params, 1, original_length=0)
    path = tmp_path / "empty.shard"
    write_shard(path, header, np.zeros((0, params.alpha), dtype=np.int64))
    got_header, got_symbols = read_shard(path)
    assert got_header == header
    assert got_symbols.shape == (0, params.alpha)


def corrupt(path, offset, new_bytes):
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(new_bytes)] = new_bytes
    path.write_bytes(bytes(blob))


def test_reader_rejects_malformed_files(tmp_path):
    path, _, _ = sample_shard(tmp_path)
    pristine = path.read_bytes()

    path.write_bytes(pristine[:10])
    with pytest.raises(ShardFormatError, match="too short"):
        read_shard(path)

    path.write_bytes(pristine)
    corrupt(path, 0, b"JUNK")
    with pytest.raises(ShardFormatError, match="bad magic"):
        read_shard(path)

    path.write_bytes(pristine)
    corrupt(path, 4, bytes([9]))
    with pytest.raises(ShardFormatError, match="unsupported format version 9"):
        read_shard(path)

    path.write_bytes(pristine[: FIXED_SIZE + 3])
    with pytest.raises(ShardFormatError, match="truncated evaluation-point table"):
        read_shard(path)

    path.write_bytes(pristine[:-2])
    with pytest.raises(ShardFormatError, match="payload holds 14 bytes, header promises 16"):
        read_shard(path)

    path.write_bytes(pristine)
    corrupt(path, 13, (12).to_bytes(4, "little"))
    with pytest.raises(ShardFormatError, match="shard header is invalid: node index 12 outside 1..7"):
        read_shard(path)

    path.write_bytes(pristine)
    corrupt(path, FIXED_SIZE + 2 * 7, (263).to_bytes(2, "little"))
    with pytest.raises(ShardFormatError, match="payload symbol >= q = 263"):
        read_shard(path)


def test_reader_rejects_impossible_header_parameters(tmp_path):
    path, _, _ = sample_shard(tmp_path)
    corrupt(path, 9, (1).to_bytes(2, "little"))  # k = 1
    with pytest.raises(ShardFormatError, match="shard header is invalid"):
        read_shard(path)


def test_writer_guards_shape_and_range(tmp_path):
    params = BYTE_PARAMS
    header = header_for(params, 1, original_length=24)  # two stripes
    with pytest.raises(ValueError, match="does not match"):
        write_shard(tmp_path / "x", header, np.zeros((2, 3), dtype=np.int64))
    bad = np.zeros((2, params.alpha), dtype=np.int64)
    bad[1, 2] = params.q
    with pytest.raises(ValueError, match="payload symbol >= q"):
        write_shard(tmp_path / "x", header, bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[-1, 0, 0, 0]], dtype=np.int64), "payload symbol < 0"),
        (np.array([[-1, 0, 0, 0]], dtype=np.int8), "payload symbol < 0"),
        (np.array([[1.7, 0, 0, 0]]), "payload dtype float64 is not an integer dtype"),
        (np.array([[1.0, 0, 0, 0]]), "payload dtype float64 is not an integer dtype"),
        (np.array([[True, False, False, False]]), "payload dtype bool is not an integer dtype"),
    ],
    ids=["negative-int64", "negative-int8", "fraction", "integral-float", "bool"],
)
def test_writer_refuses_a_payload_its_reader_would_refuse_or_misread(bad, message, tmp_path):
    # as <u2, -1 would be stored as 65535 and 1.7 as 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_shard(tmp_path / "x", header_for(BYTE_PARAMS, 1, 12), bad)
    assert list(tmp_path.iterdir()) == []  # no shard and no temp file


def test_header_q_must_fit_two_bytes():
    with pytest.raises(ValueError, match=r"does not fit the two-byte shard header field \(max 65535\)"):
        derive_params(3, 2, 7, q=65537)


def test_code_key_ignores_only_the_node_index():
    h3 = header_for(BYTE_PARAMS, 3, original_length=17)
    h5 = header_for(BYTE_PARAMS, 5, original_length=17)
    assert h3.code_key() == h5.code_key()
    other = header_for(BYTE_PARAMS, 3, original_length=40)
    assert h3.code_key() != other.code_key()


@pytest.mark.parametrize("field", [
    f.name for f in dataclasses.fields(ShardHeader) if f.name != "node_index"
])
def test_every_header_field_but_the_node_index_is_in_the_code_key(field):
    header = header_for(BYTE_PARAMS, 3, original_length=17)
    assert dataclasses.replace(header, node_index=6).code_key() == header.code_key()
    value = getattr(header, field)
    other = dataclasses.replace(header, **{field: value[::-1] if field == "eval_points" else value + 1})
    assert other.code_key() != header.code_key()


def test_shard_params_rebuilds_the_code():
    header = header_for(BYTE_PARAMS, 2, original_length=0)
    assert shard_params(header, "h.shard") == BYTE_PARAMS
    broken = ShardHeader(
        q=10, n=7, k=3, delta=2, node_index=1, stripe_count=0,
        original_length=0, eval_points=tuple(range(1, 8)),
    )
    with pytest.raises(ShardFormatError, match="h.shard: shard header is invalid"):
        shard_params(broken, "h.shard")


@pytest.mark.parametrize("length", [10, 10**6])
def test_reader_refuses_a_stripe_count_the_length_does_not_take(length, tmp_path):
    # 417 stripes hold a 5000-byte file; a forged length must not trim or pad it
    path = tmp_path / "forged.shard"
    header = dataclasses.replace(header_for(BYTE_PARAMS, 1, 5000), original_length=length)
    path.write_bytes(pack_header(header) + bytes(2 * 417 * BYTE_PARAMS.alpha))
    takes = -(-length // BYTE_PARAMS.file_symbols)
    message = re.escape(
        f"{path}: header records 417 stripes, but its length of {length} bytes takes {takes}"
    )
    with pytest.raises(ShardFormatError, match=message):
        read_shard(path)
    with pytest.raises(ShardFormatError, match=message):
        ShardReader(path)


ROUND_TRIP_CODES = [BYTE_PARAMS, derive_params(4, 3, 13), derive_params(3, 5, 20)]


@pytest.mark.parametrize("params", ROUND_TRIP_CODES, ids=["3-2-7", "4-3-13", "3-5-20"])
def test_header_for_headers_round_trip(params, tmp_path):
    f = params.file_symbols
    rng = np.random.default_rng(67)
    for length in (0, 1, f - 1, f, f + 1, 3 * f + 5):
        for node in (1, params.n):
            header = header_for(params, node, length)
            assert header.stripe_count == -(-length // f)
            symbols = rng.integers(0, params.q, (header.stripe_count, params.alpha))
            path = tmp_path / f"{length}-{node}.shard"
            write_shard(path, header, symbols)
            got_header, got_symbols = read_shard(path)
            assert got_header == header
            assert np.array_equal(got_symbols, symbols)


def forged_headers():
    header = header_for(BYTE_PARAMS, 3, original_length=41)  # four stripes
    return [
        dataclasses.replace(header, stripe_count=3),
        dataclasses.replace(header, stripe_count=5),
        dataclasses.replace(header, node_index=0),
        dataclasses.replace(header, node_index=8),
    ]


@pytest.mark.parametrize("header", forged_headers(), ids=["stripes-1", "stripes+1", "node0", "node8"])
def test_the_writer_refuses_what_the_reader_refuses(header, tmp_path, monkeypatch):
    path = tmp_path / "forged.shard"
    symbols = np.zeros((header.stripe_count, BYTE_PARAMS.alpha), dtype=np.int64)
    path.write_bytes(pack_header(header) + symbols.astype("<u2").tobytes())
    with pytest.raises(ShardFormatError) as refused:
        read_shard(path)
    path.unlink()

    def no_temp_file(*args, **kwargs):
        raise AssertionError("a temp file was made for a refused header")

    monkeypatch.setattr(tempfile, "mkstemp", no_temp_file)
    with pytest.raises(ShardFormatError) as written:
        write_shard(path, header, symbols)
    assert str(written.value) == str(refused.value)
    assert str(refused.value).startswith(f"{path}: ")
    assert list(tmp_path.iterdir()) == []


def test_pack_header_matches_reader(tmp_path):
    header = header_for(BYTE_PARAMS, 4, original_length=0)
    path = tmp_path / "h.shard"
    path.write_bytes(pack_header(header))
    got, symbols = read_shard(path)
    assert got == header and symbols.size == 0


# ---------------------------------------------------------------------------
# checksums, manifests, atomic writes
# ---------------------------------------------------------------------------


def test_payload_crc_known_value():
    assert payload_crc(np.array([[1, 2], [3, 4]], dtype=np.int64)) == 0x92991416


def test_payload_crc_detects_single_symbol_change():
    a = np.arange(8, dtype=np.int64).reshape(2, 4)
    b = a.copy()
    b[0, 0] ^= 1
    assert payload_crc(a) != payload_crc(b)


def test_manifest_round_trip(tmp_path):
    header = header_for(BYTE_PARAMS, 1, original_length=100)
    path = tmp_path / "file.manifest"
    manifest_file(
        path, "file.bin", header,
        [(1, "file.shard01", 0xDEADBEEF), (2, "file.shard02", 0x5)],
    ).commit()
    entries = read_manifest(path)
    assert entries["file"] == "file.bin"
    assert entries["length_bytes"] == "100"
    assert entries["q"] == "263"
    assert entries["n"] == "7"
    assert entries["k"] == "3"
    assert entries["delta"] == "2"
    assert entries["shard01.file"] == "file.shard01"
    assert entries["shard01.crc32"] == "deadbeef"
    assert entries["shard02.crc32"] == "00000005"


def test_manifest_rejects_junk_lines(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("file=a\nnot a pair\n")
    with pytest.raises(ShardFormatError, match="expected key=value"):
        read_manifest(path)



def test_read_manifest_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "twice.manifest"
    path.write_text("file=a\nshard02.crc32=00000000\n\n shard02.crc32 = 12345678\n")
    with pytest.raises(ShardFormatError, match=re.escape(f"{path}:4: repeated key 'shard02.crc32'")):
        read_manifest(path)


def test_read_manifest_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "binary.manifest"
    path.write_bytes(b"\xff\xfe\x00junk")
    with pytest.raises(ShardFormatError, match=re.escape(f"{path}: manifest is not UTF-8")):
        read_manifest(path)


# ---------------------------------------------------------------------------
# shard sets
# ---------------------------------------------------------------------------

SET_STRIPES = 5


def batches_of(monkeypatch, stripes):
    """Shrink the batch a ShardSet of BYTE_PARAMS reads to `stripes` stripes."""
    monkeypatch.setattr(shardio, "BATCH_SYMBOLS", stripes * BYTE_PARAMS.file_symbols)


def shard_set(tmp_path, params=BYTE_PARAMS, original_length=None):
    """Every node's shard of one random encoding, and its manifest."""
    if original_length is None:
        original_length = SET_STRIPES * params.file_symbols - 3
    stripes = params.file_stripes(original_length)
    source = np.random.default_rng(53).integers(0, params.q, (stripes, params.file_symbols))
    coded = encode_stripes(source, params)
    paths, entries = {}, []
    for j in range(1, params.n + 1):
        paths[j] = tmp_path / f"set.shard{j:02d}"
        write_shard(paths[j], header_for(params, j, original_length), coded[j - 1])
        entries.append((j, paths[j].name, payload_crc(coded[j - 1])))
    manifest = tmp_path / "set.manifest"
    manifest_file(manifest, "set", header_for(params, 1, original_length), entries).commit()
    return coded, paths, manifest


@pytest.fixture
def opened_readers(monkeypatch):
    """Every ShardReader that ShardSet opens, so a test can see it closed."""
    readers = []

    class Recorded(ShardReader):
        def __init__(self, path):
            super().__init__(path)
            readers.append(self)

    monkeypatch.setattr(shardio, "ShardReader", Recorded)
    return readers


@pytest.mark.parametrize("count", [1, 2, SET_STRIPES + 2])
def test_a_shard_set_reads_every_file_in_batches_of_count(
    count, tmp_path, opened_readers, monkeypatch
):
    coded, paths, manifest = shard_set(tmp_path)
    batches_of(monkeypatch, count)
    nodes = (2, 5, 7)
    with ShardSet([paths[j] for j in nodes], manifest) as shards:
        assert shards.header == header_for(BYTE_PARAMS, 2, SET_STRIPES * 12 - 3)
        assert shards.params == BYTE_PARAMS
        assert sorted(shards.readers) == list(nodes)
        # every node held, then the manifest's CRCs; a batch is valid until the next read
        batches = [{j: x.copy() for j, x in batch.items()} for batch in shards.batches()]
    sizes = [batch[2].shape[0] for batch in batches]
    assert sizes == [min(count, SET_STRIPES - start) for start in range(0, SET_STRIPES, count)]
    for j in nodes:
        assert np.array_equal(np.concatenate([batch[j] for batch in batches]), coded[j - 1])
    assert len(opened_readers) == 3 and all(r._fh.closed for r in opened_readers)


def test_a_mixed_shard_set_is_refused_naming_both_files(tmp_path, opened_readers):
    _, paths, _ = shard_set(tmp_path)
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    _, others, _ = shard_set(other_dir, original_length=SET_STRIPES * 12)
    with pytest.raises(ShardFormatError) as err:
        ShardSet([paths[1], paths[2], others[3], paths[4]])
    assert f"{others[3]}: header disagrees with {paths[1]}" in str(err.value)
    assert "not from the same encoding" in str(err.value)
    # the fourth file is never opened, and the three that were are closed
    assert len(opened_readers) == 3 and all(r._fh.closed for r in opened_readers)


def test_a_shard_set_closes_its_files_when_opening_or_reading_fails(
    tmp_path, opened_readers, monkeypatch
):
    _, paths, manifest = shard_set(tmp_path)
    batches_of(monkeypatch, 1)
    (tmp_path / "short").write_bytes(b"PMBA")
    with pytest.raises(ShardFormatError, match="too short"):
        ShardSet([paths[1], paths[2], tmp_path / "short"])
    assert len(opened_readers) == 2 and all(r._fh.closed for r in opened_readers)
    with pytest.raises(RuntimeError):
        with ShardSet([paths[1], paths[2], paths[3]], manifest) as shards:
            next(shards.batches([1, 3]))
            raise RuntimeError("stop mid-read")
    assert len(opened_readers) == 5 and all(r._fh.closed for r in opened_readers)
    assert [r.stripes for r in opened_readers[2:]] == [1, 0, 1]
    with pytest.raises(ValueError, match="no shard files given"):
        ShardSet([])


def test_a_second_file_for_a_node_is_refused_and_the_same_file_is_read_once(
    tmp_path, opened_readers, monkeypatch
):
    coded, paths, _ = shard_set(tmp_path)
    batches_of(monkeypatch, 2)
    twin = tmp_path / "twin.shard01"
    shutil.copyfile(paths[1], twin)  # byte-identical, but another file
    with pytest.raises(ShardFormatError, match=re.escape(
        f"{twin} and {paths[1]} both claim node 1"
    )):
        ShardSet([paths[1], paths[2], twin, paths[3]])
    # refused while opening: the fourth file is never opened, the three that were are closed
    assert len(opened_readers) == 3 and all(r._fh.closed for r in opened_readers)

    opened_readers.clear()
    again = tmp_path / "." / paths[1].name  # the same file under another spelling
    with ShardSet([paths[1], paths[2], paths[1], again]) as shards:
        assert sorted(shards.readers) == [1, 2] and shards.readers[1].path == paths[1]
        batches = [{j: x.copy() for j, x in b.items()} for b in shards.batches([1, 2])]
    assert np.array_equal(np.concatenate([b[1] for b in batches]), coded[0])
    assert [r.stripes for r in opened_readers] == [SET_STRIPES, SET_STRIPES, 0, 0]
    assert all(r._fh.closed for r in opened_readers)


def test_a_shard_set_reads_only_the_nodes_it_is_asked_for(tmp_path, opened_readers, monkeypatch):
    coded, paths, manifest = shard_set(tmp_path)
    batches_of(monkeypatch, 2)
    held = [paths[j] for j in (1, 2, 4, 5, 7)]
    with ShardSet(held, manifest) as shards:
        with pytest.raises(ValueError, match=re.escape(
            "requested nodes [3, 6] are not among the given shards [1, 2, 4, 5, 7]"
        )):
            shards.batches([6, 1, 3])  # refused at the call, before any read
        assert [r.stripes for r in opened_readers] == [0] * 5
        batches = [{j: x.copy() for j, x in b.items()} for b in shards.batches([7, 2, 5])]
    assert all(sorted(batch) == [2, 5, 7] for batch in batches)
    for j in (2, 5, 7):
        assert np.array_equal(np.concatenate([batch[j] for batch in batches]), coded[j - 1])
    stripes = {r.header.node_index: r.stripes for r in opened_readers}
    assert stripes == {1: 0, 2: SET_STRIPES, 4: 0, 5: SET_STRIPES, 7: SET_STRIPES}
    assert all(r._fh.closed for r in opened_readers)


def test_a_shard_set_checks_the_manifest_against_what_it_read(tmp_path, opened_readers, monkeypatch):
    coded, paths, manifest = shard_set(tmp_path)
    batches_of(monkeypatch, 2)

    def read(nodes=(1, 2)):
        opened_readers.clear()
        try:
            with ShardSet([paths[1], paths[2], paths[3]], manifest) as shards:
                for _ in shards.batches(nodes):
                    pass
        finally:
            assert len(opened_readers) == 3 and all(r._fh.closed for r in opened_readers)

    read()
    text = manifest.read_text()
    crc = f"{payload_crc(coded[1]):08x}"
    manifest.write_text(text.replace(f"shard02.crc32={crc}", "shard02.crc32=00000000"))
    with pytest.raises(ShardFormatError, match=re.escape(
        f"{paths[2]}: crc32 {crc} does not match manifest 00000000"
    )):
        read()
    read(nodes=(1, 3))  # node 2 is not read, so its CRC is not compared
    manifest.write_text(text.replace(f"shard02.crc32={crc}\n", ""))
    with pytest.raises(ShardFormatError, match=re.escape(
        f"{paths[2]}: manifest {manifest} has no shard02.crc32 line"
    )):
        read()

    manifest.write_text(text.replace("k=3", "k=4"))
    opened_readers.clear()
    with pytest.raises(ShardFormatError, match=re.escape(
        f"{manifest}: manifest k=4 does not match shard headers (3)"
    )):
        ShardSet([paths[1], paths[2], paths[3]], manifest)
    # refused while the first file is open: no other file is opened, and none read
    assert [(r.stripes, r._fh.closed) for r in opened_readers] == [(0, True)]


def test_a_shard_set_keeps_crcs_only_with_a_manifest_or_when_asked(
    tmp_path, opened_readers, monkeypatch
):
    coded, paths, manifest = shard_set(tmp_path)
    batches_of(monkeypatch, 2)
    for kwargs, kept in (({}, False), ({"manifest": manifest}, True), ({"crc": True}, True)):
        with ShardSet([paths[j] for j in (1, 2, 3)], **kwargs) as shards:
            for _ in shards.batches([1, 3]):
                pass
        assert all(not hasattr(r, "crc") for r in shards.readers.values())
        if kept:  # node 2 is not read
            assert shards.crcs == {1: payload_crc(coded[0]), 2: 0, 3: payload_crc(coded[2])}, kwargs
        else:
            assert shards.crcs is None, kwargs


def count_crc32(monkeypatch) -> list:
    calls = []
    real = shardio.crc32
    monkeypatch.setattr(shardio, "crc32", lambda *a: (calls.append(a), real(*a))[1])
    return calls


def test_a_writer_told_to_keep_no_crc_and_a_set_asked_for_none_compute_none(
    tmp_path, monkeypatch
):
    path, header, symbols = sample_shard(tmp_path)
    calls = count_crc32(monkeypatch)
    with shardio.ShardWriter(tmp_path / "again", header, crc=False) as writer:
        writer.write(symbols)
    assert writer.crc is None and (tmp_path / "again").read_bytes() == path.read_bytes()
    with ShardSet([path]) as shards:
        (batch,) = shards.batches()
        assert np.array_equal(batch[3], symbols)
    assert shards.crcs is None and calls == []


def test_write_shard_and_read_shard_compute_no_crc(tmp_path, monkeypatch):
    params = derive_params(3, 2, 7)
    symbols = np.random.default_rng(6).integers(0, params.q, (7, params.alpha))
    calls = count_crc32(monkeypatch)
    write_shard(tmp_path / "s", header_for(params, 2, 80), symbols)
    assert np.array_equal(read_shard(tmp_path / "s")[1], symbols)
    assert calls == []


# ---------------------------------------------------------------------------
# the one CRC-32: libdeflate's where the host has it, else zlib's
# ---------------------------------------------------------------------------


def libdeflate_loads() -> bool:
    try:
        ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (AttributeError, OSError):
        return False
    return True


def test_the_crc32_seam_is_libdeflate_where_the_host_has_it():
    if not libdeflate_loads():
        pytest.skip("libdeflate.so.0 is not installed")
    assert shardio.crc32 is not zlib.crc32
    assert shardio.crc32(b"123456789") == 0xCBF43926


@pytest.mark.parametrize("nbytes", [0, 1, 2, 3, 7, 1001])
@pytest.mark.parametrize("start", [0, 0xDEADBEEF])
def test_crc32_equals_zlib_on_short_payloads(nbytes, start):
    data = np.random.default_rng(nbytes).integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    assert shardio.crc32(data, start) == zlib.crc32(data, start)
    if not start:
        assert shardio.crc32(data) == zlib.crc32(data)


def test_crc32_equals_zlib_on_a_full_batch_as_read_back(tmp_path):
    params = derive_params(3, 2, 7)
    stripes = shardio.batch_stripes(params)
    symbols = np.random.default_rng(8).integers(0, params.q, (2 * stripes, params.alpha))
    path = tmp_path / "s"
    write_shard(path, header_for(params, 1, 2 * stripes * params.file_symbols), symbols)
    running = zlib.crc32(b"one batch before")
    with ShardReader(path) as reader:
        batch = reader.read(stripes)  # read-only <u2, as ShardSet checksums it
        assert not batch.flags.writeable and batch.dtype == np.dtype("<u2")
        for data in (batch, batch.tobytes()):
            assert shardio.crc32(data) == zlib.crc32(data)
            assert shardio.crc32(data, running) == zlib.crc32(data, running)
    assert payload_crc(symbols) == zlib.crc32(symbols.astype("<u2").tobytes())


def test_crc32_refuses_a_non_contiguous_buffer_instead_of_copying_it():
    symbols = np.arange(64, dtype="<u2").reshape(8, 8)
    for data in (symbols[:, ::2], symbols.T, memoryview(symbols)[::2]):
        with pytest.raises((ValueError, BufferError), match="contiguous"):
            shardio.crc32(data)


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize(
    "stand_in",
    [
        pytest.param(no_library, id="no library"),
        pytest.param(lambda name: SimpleNamespace(), id="no symbol"),
        pytest.param(lambda name: SimpleNamespace(libdeflate_crc32=lambda *args: 0), id="wrong check value"),
    ],
)
def test_the_crc32_seam_falls_back_to_zlib(stand_in, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", stand_in)
    assert shardio._resolve_crc32() is zlib.crc32


@pytest.mark.parametrize("char", ["a", "\u00e9", "\u20ac", "\U0001f600"])  # 1 to 4 bytes
def test_a_temp_file_keeps_a_255_byte_name_within_255_bytes_on_a_character_boundary(char, tmp_path):
    if sys.platform != "linux" or os.pathconf(tmp_path, "PC_NAME_MAX") != 255:
        pytest.skip("needs a Linux file system whose names hold 255 bytes")
    width = len(char.encode())
    name = char * (255 // width) + "b" * (255 % width)
    target = tmp_path / name
    assert len(os.fsencode(name)) == 255
    prefix = shardio._temp_prefix(target)
    assert name.startswith(prefix[1:-1]) and len(prefix.encode()) + len("XXXXXXXX.old") <= 255
    for contents in (b"new", b"replacing"):
        with AtomicFile(target) as fh:
            fh.write(contents)
        assert target.read_bytes() == contents
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_atomic_write_replaces_and_leaves_no_residue(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with AtomicFile(target) as fh:
        fh.write(b"new contents")
    assert target.read_bytes() == b"new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_an_atomic_set_creates_missing_directories_and_syncs_each_into_its_parent(
    tmp_path, monkeypatch
):
    synced = []
    monkeypatch.setattr(shardio, "_fsync_dir", synced.append)
    a = tmp_path / "a"
    with atomic_set() as files:
        files.append(AtomicFile(a / "b" / "x"))
        files.append(AtomicFile(a / "c" / "y"))
        files.append(AtomicFile(tmp_path / "z"))
        for f in files:
            f.write(b"data")
    assert [(a / "b" / "x").read_bytes(), (a / "c" / "y").read_bytes()] == [b"data"] * 2
    # each target directory, then the parent of each directory a file created
    assert synced == [a / "b", a, tmp_path, a / "c"]


@pytest.mark.skipif(sys.platform != "linux", reason="sync_file_range is Linux's")
def test_write_back_uses_the_kernel_call_and_ignores_its_refusal():
    assert shardio._sync_file_range is not None
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"data")
        assert shardio._sync_file_range(write_end, 0, 4, shardio._SYNC_FILE_RANGE_WRITE) == -1
        shardio._start_write_back(write_end, 0, 4)  # ESPIPE: nothing happens
    finally:
        os.close(read_end)
        os.close(write_end)


def test_an_atomic_file_refuses_a_directory_target_before_making_a_temp_file(
    tmp_path, monkeypatch
):
    target = tmp_path / "out"
    target.mkdir()
    monkeypatch.setattr(tempfile, "mkstemp", lambda **kw: pytest.fail("temp file made"))
    header = header_for(BYTE_PARAMS, 1, 12)
    for write in (
        lambda: AtomicFile(target),
        lambda: write_shard(target, header, np.zeros((1, BYTE_PARAMS.alpha), dtype=np.int64)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{target}: not a regular file")):
            write()
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


@pytest.mark.parametrize(
    "kind",
    [stat.S_IFCHR, stat.S_IFBLK, stat.S_IFIFO, stat.S_IFSOCK, stat.S_IFDIR, stat.S_IFLNK],
    ids=["char-device", "block-device", "fifo", "socket", "directory", "symlink"],
)
def test_every_file_but_a_regular_one_is_refused_by_the_one_rule(kind, tmp_path, monkeypatch):
    shardio._check_regular("p", stat.S_IFREG | 0o644)
    with pytest.raises(ValueError, match="^p: not a regular file$"):
        shardio._check_regular("p", kind | 0o666)
    # an output that stats as one, such as a device node, is refused before a temp file
    # exists; the stat is faked, since replacing a real device would change the machine
    target, real = tmp_path / "out", os.stat
    fake = os.stat_result((kind | 0o666, 0, 0, 1, 0, 0, 0, 0, 0, 0))
    monkeypatch.setattr(os, "stat", lambda p, *a, **kw: fake if p == target else real(p, *a, **kw))
    monkeypatch.setattr(tempfile, "mkstemp", lambda **kw: pytest.fail("temp file made"))
    with pytest.raises(ValueError, match=re.escape(f"{target}: not a regular file")):
        AtomicFile(target)
    assert list(tmp_path.iterdir()) == []


def test_an_atomic_file_whose_temp_file_cannot_be_made_leaves_no_directory(tmp_path, monkeypatch):
    def refuse(**kw):
        raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), kw["dir"])

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    with pytest.raises(OSError, match="File name too long"):
        AtomicFile(tmp_path / "a" / "b" / "x")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# byte striping
# ---------------------------------------------------------------------------


def test_bytes_to_source_pads_to_whole_stripes():
    assert bytes_to_source(bytes(range(12)), BYTE_PARAMS).shape == (1, 12)
    two = bytes_to_source(bytes(range(13)), BYTE_PARAMS)
    assert two.shape == (2, 12)
    assert two[1, 0] == 12 and two[1, 1:].sum() == 0
    assert bytes_to_source(b"", BYTE_PARAMS).shape == (0, 12)


def test_byte_round_trip_recovers_exact_length():
    data = bytes(range(13))
    source = bytes_to_source(data, BYTE_PARAMS)
    assert source_to_bytes(source, 13) == data
    assert source_to_bytes(bytes_to_source(b"", BYTE_PARAMS), 0) == b""


def test_small_fields_refuse_byte_payloads():
    with pytest.raises(ValueError, match="cannot carry byte payloads"):
        bytes_to_source(b"hi", SMALL)


def test_source_to_bytes_guards():
    source = bytes_to_source(bytes(range(12)), BYTE_PARAMS)
    with pytest.raises(ValueError, match="fewer than the recorded length"):
        source_to_bytes(source, 13)
    tampered = source.copy()
    tampered[0, 0] = 256
    with pytest.raises(InconsistencyError, match="exceeds byte range"):
        source_to_bytes(tampered, 12)


# ---------------------------------------------------------------------------
# batched codec against the stepwise one, every stripe
# ---------------------------------------------------------------------------


# Byte-safe codes across the grid. The first and last block columns of
# each encoding read only 2(k-1) source symbols, so band edges show on
# every stripe, not only on the stripe-0 cross-check.
BYTE_GRID = [
    BYTE_PARAMS,
    derive_params(4, 3, 13),
    derive_params(3, 5, 20),
    derive_params(3, 2, 7, q=65521),  # coded symbols span the two-byte range
]
GRID_IDS = ["3-2-7", "4-3-13", "3-5-20", "3-2-7-q65521"]


def batch_fixture(stripes=3, seed=43, params=BYTE_PARAMS):
    from pmba.encoder import build_message_matrix, encode_all

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=stripes * params.file_symbols - 5).astype(
        np.uint8
    ).tobytes()
    source = bytes_to_source(data, params)
    coded = encode_stripes(source, params)
    stepwise = []
    for s in range(source.shape[0]):
        m = build_message_matrix([int(v) for v in source[s]], params)
        stepwise.append(encode_all(m, params))
    return data, source, coded, stepwise


@pytest.mark.parametrize("params", BYTE_GRID, ids=GRID_IDS)
def test_batched_encoding_matches_stepwise_on_every_stripe(params):
    _, source, coded, stepwise = batch_fixture(params=params)
    assert coded.shape == (params.n, source.shape[0], params.alpha)
    for s, shards in enumerate(stepwise):
        for shard in shards:
            assert tuple(int(v) for v in coded[shard.node_index - 1, s]) == (
                shard.symbol_values()
            )


@pytest.mark.parametrize("params", BYTE_GRID, ids=GRID_IDS)
def test_batched_reconstruction_matches_stepwise_on_every_stripe(params):
    from pmba.reconstructor import reconstruct

    data, source, coded, stepwise = batch_fixture(params=params)
    rng = np.random.default_rng(45)
    sampled = sorted(int(j) for j in rng.choice(params.n, size=params.k, replace=False) + 1)
    for nodes in (tuple(range(1, params.k + 1)), tuple(sampled)):
        payloads = {j: coded[j - 1] for j in nodes}
        decoded = reconstruct_stripes(payloads, params)
        assert np.array_equal(decoded, source)
        for s, shards in enumerate(stepwise):
            picked = [sh for sh in shards if sh.node_index in nodes]
            reference = tuple(v.value for v in reconstruct(picked, params))
            assert tuple(int(v) for v in decoded[s]) == reference
        assert source_to_bytes(decoded, len(data)) == data


@pytest.mark.parametrize("params", BYTE_GRID, ids=GRID_IDS)
def test_batched_repair_matches_stepwise_on_every_stripe(params):
    from pmba.repairer import make_repair_bundle, repair

    _, _, coded, stepwise = batch_fixture(params=params)
    rng = np.random.default_rng(47)
    f = int(rng.integers(1, params.n + 1))
    others = [h for h in range(1, params.n + 1) if h != f]
    for d in params.helper_counts:
        helpers = sorted(int(h) for h in rng.choice(others, size=d, replace=False))
        payloads = {h: coded[h - 1] for h in helpers}
        rebuilt = repair_stripes(payloads, f, params)
        assert np.array_equal(rebuilt, coded[f - 1])
        for s, shards in enumerate(stepwise):
            bundles = [
                make_repair_bundle(sh, f, d, params)
                for sh in shards
                if sh.node_index in helpers
            ]
            reference = repair(f, bundles, params).symbol_values()
            assert tuple(int(v) for v in rebuilt[s]) == reference


def test_round_trips_stay_exact_at_the_largest_modulus():
    # Every source symbol q-1 at the largest prime a code may use, so each
    # product in the kernels is as large as it gets; shard payloads go in as
    # the <u2 arrays ShardReader hands out.
    from pmba.encoder import build_message_matrix, encode_all
    from pmba.reconstructor import reconstruct
    from pmba.repairer import make_repair_bundle, repair

    params = derive_params(3, 2, 7, q=65521)
    q = params.q
    source = np.full((3, params.file_symbols), q - 1, dtype=np.int64)
    source[1] = np.random.default_rng(53).integers(0, q, params.file_symbols)
    coded = encode_stripes(source, params)
    stepwise = [encode_all(build_message_matrix([int(v) for v in row], params), params) for row in source]
    for s, shards in enumerate(stepwise):
        for shard in shards:
            assert tuple(int(v) for v in coded[shard.node_index - 1, s]) == shard.symbol_values()
    stored = {j: coded[j - 1].astype("<u2") for j in range(1, params.n + 1)}
    nodes = (2, 5, 7)
    decoded = reconstruct_stripes({j: stored[j] for j in nodes}, params)
    assert np.array_equal(decoded, source)
    for s, shards in enumerate(stepwise):
        picked = [sh for sh in shards if sh.node_index in nodes]
        assert tuple(int(v) for v in decoded[s]) == tuple(v.value for v in reconstruct(picked, params))
    f = 4
    others = [h for h in range(1, params.n + 1) if h != f]
    for d in params.helper_counts:
        helpers = others[:d]
        rebuilt = repair_stripes({h: stored[h] for h in helpers}, f, params)
        assert np.array_equal(rebuilt, coded[f - 1])
        for s, shards in enumerate(stepwise):
            bundles = [make_repair_bundle(sh, f, d, params) for sh in shards if sh.node_index in helpers]
            assert tuple(int(v) for v in rebuilt[s]) == repair(f, bundles, params).symbol_values()


def test_the_peel_stays_exact_through_a_long_carry_chain():
    # z = 60 chained peel steps at the largest prime a code may use: one
    # stripe of all q-1 and one random stripe, decoded from <u2 payloads.
    from pmba.encoder import build_message_matrix, encode_all
    from pmba.reconstructor import reconstruct

    params = derive_params(3, 5, 20, q=65521)
    assert params.z_delta == 60
    q = params.q
    source = np.full((2, params.file_symbols), q - 1, dtype=np.int64)
    source[1] = np.random.default_rng(59).integers(0, q, params.file_symbols)
    coded = encode_stripes(source, params)
    nodes = (3, 11, 20)
    decoded = reconstruct_stripes({j: coded[j - 1].astype("<u2") for j in nodes}, params)
    assert np.array_equal(decoded, source)
    for s, row in enumerate(source):
        shards = encode_all(build_message_matrix([int(v) for v in row], params), params)
        picked = [sh for sh in shards if sh.node_index in nodes]
        assert tuple(int(v) for v in decoded[s]) == tuple(v.value for v in reconstruct(picked, params))


def test_the_decoder_inverts_one_small_block_not_the_whole_map(monkeypatch):
    # The peel inverts the k(k-1)-square block A_0 once; the F x F map of
    # the k nodes' rows (360 x 360 here) is never built.
    import pmba.reconstructor as reconstructor
    import pmba.striping as striping

    params = derive_params(3, 5, 20)
    shapes = []
    real = reconstructor.invert

    def recorded(a):
        shapes.append((a.rows, a.cols))
        return real(a)

    monkeypatch.setattr(reconstructor, "invert", recorded)
    striping.stripe_decoder(params, (4, 9, 17))
    assert shapes == [(6, 6)]


@pytest.mark.parametrize(
    "nodes, message",
    [
        ([0, 1, 2], "node index 0 outside 1..7"),
        ([1, 2, 8], "node index 8 outside 1..7"),
        ([1, 1, 2], r"node indices must be distinct, got \[1, 1, 2\]"),
    ],
)
def test_the_decoder_refuses_bad_node_lists_by_name(nodes, message):
    from pmba.striping import stripe_decoder

    with pytest.raises(ValueError, match=message):
        stripe_decoder(BYTE_PARAMS, nodes)


def test_batched_reconstruction_needs_exactly_k_payloads():
    _, _, coded, _ = batch_fixture(stripes=1)
    with pytest.raises(ValueError, match="need exactly k = 3 node payloads"):
        reconstruct_stripes({1: coded[0], 2: coded[1]}, BYTE_PARAMS)


BAD_REPAIRS = [
    (8, (1, 2, 3, 4), "failed index must be in 1..7, got 8"),
    (0, (1, 2, 3, 4), "failed index must be in 1..7, got 0"),
    (5, (1, 2, 2, 3), r"node indices must be distinct, got \[1, 2, 2, 3\]"),
    (5, (1, 2, 3, 9), "node index 9 outside 1..7"),
]


@pytest.mark.parametrize("f, helpers, message", BAD_REPAIRS)
def test_the_repairer_refuses_bad_node_lists_by_name(f, helpers, message):
    with pytest.raises(ValueError, match=message):
        stripe_repairer(BYTE_PARAMS, f, helpers)


# a dict of payloads cannot name one helper twice
@pytest.mark.parametrize("f, helpers, message", [r for r in BAD_REPAIRS if len(set(r[1])) == 4])
def test_batched_repair_refuses_bad_node_lists_by_name(f, helpers, message):
    _, _, coded, _ = batch_fixture(stripes=1)
    with pytest.raises(ValueError, match=message):
        repair_stripes({h: coded[0] for h in helpers}, f, BYTE_PARAMS)


def test_batched_repair_refuses_the_failed_node_as_helper():
    _, _, coded, _ = batch_fixture(stripes=1)
    payloads = {h: coded[h - 1] for h in (1, 2, 3, 5)}
    with pytest.raises(ValueError, match="own helpers"):
        repair_stripes(payloads, 5, BYTE_PARAMS)
