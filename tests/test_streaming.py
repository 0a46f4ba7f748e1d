# tests/test_streaming.py
#
# The CLI streams files through the codec in batches of
# shardio.BATCH_SYMBOLS source symbols. These tests shrink the batch to a
# few stripes and check that batch boundaries change no output byte, that
# encode writes the exact bytes pinned by digest, that each command builds
# its linear map and runs its self-check once, that a failure mid-stream
# leaves no file behind, that an input or output other than a regular
# file is refused at open and left as it was, that `reconstruct`,
# `repair` and `verify` with a manifest refuse a flipped bit in any batch
# before they commit, that a CRC-32 is computed once per batch and only
# where something reads it, that each write starts its own write-back
# while every output is still fsynced before its rename, that written
# files follow the umask, and that peak memory does not grow with the file.
import ctypes
import errno
import hashlib
import json
import os
import socket
import stat
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmba import cli, reconstructor, shardio, striping
from pmba.cli import main
from pmba.matrix import InconsistencyError, Matrix
from pmba.params import derive_params
from pmba.shardio import (
    ShardFormatError,
    ShardReader,
    ShardSet,
    ShardWriter,
    header_for,
    manifest_file,
    payload_crc,
    read_shard,
    write_shard,
)

ROOT = Path(__file__).resolve().parent.parent
BATCH = 3  # stripes per batch wherever a test shrinks the batch
CODES = [(3, 2, 7), (4, 3, 13)]
CODE_IDS = ["3-2-7", "4-3-13"]


def small_batches(monkeypatch, params, stripes=BATCH):
    monkeypatch.setattr(shardio, "BATCH_SYMBOLS", stripes * params.file_symbols)


def code_flags(params):
    return ["--k", str(params.k), "--delta", str(params.delta), "--n", str(params.n)]


def encode_file(tmp_path, params, data, name="in.bin"):
    src = tmp_path / name
    src.write_bytes(data)
    out_dir = tmp_path / "sh"
    assert main(["encode", str(src), "-o", str(out_dir), *code_flags(params)]) == 0
    return src, out_dir, {j: out_dir / f"{name}.shard{j:02d}" for j in range(1, params.n + 1)}


def write_reference(ref_dir, params, data):
    """The shard set the whole-file library calls write for `data`."""
    ref_dir.mkdir()
    source = striping.bytes_to_source(data, params)
    coded = striping.encode_stripes(source, params)
    headers = [header_for(params, j, len(data)) for j in range(1, params.n + 1)]
    entries = []
    for j, header in enumerate(headers, start=1):
        name = f"in.bin.shard{j:02d}"
        write_shard(ref_dir / name, header, coded[j - 1])
        entries.append((j, name, payload_crc(coded[j - 1])))
    manifest_file(ref_dir / "in.bin.manifest", "in.bin", headers[0], entries).commit()


def count_calls(monkeypatch, targets):
    """Count calls of module attributes, given as {name: module}."""
    counts = dict.fromkeys(targets, 0)
    for name, module in targets.items():
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


# ---------------------------------------------------------------------------
# batch boundaries change no byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_batch_boundaries_change_no_output_byte(code, tmp_path, monkeypatch, capsys):
    params = derive_params(*code)
    small_batches(monkeypatch, params)
    f_sym = params.file_symbols
    rng = np.random.default_rng(sum(code))
    # empty, one batch, one batch less or more one stripe, three batches
    # and a partial stripe
    lengths = [0, BATCH * f_sym, (BATCH - 1) * f_sym, (BATCH + 1) * f_sym, 3 * BATCH * f_sym + 5]
    for length in lengths:
        work = tmp_path / str(length)
        work.mkdir()
        data = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        _, out_dir, shards = encode_file(work, params, data)
        write_reference(work / "ref", params, data)
        for ref in sorted((work / "ref").iterdir()):
            assert (out_dir / ref.name).read_bytes() == ref.read_bytes(), (length, ref.name)
        assert main(["verify", *map(str, shards.values()), "--manifest", str(out_dir / "in.bin.manifest")]) == 0

        out = work / "out.bin"
        for _ in range(2):
            nodes = sorted(int(j) for j in rng.choice(params.n, params.k, replace=False) + 1)
            assert main(["reconstruct", *(str(shards[j]) for j in nodes), "-o", str(out)]) == 0
            assert out.read_bytes() == data, (length, nodes)

        f = int(rng.integers(1, params.n + 1))
        others = [j for j in shards if j != f]
        for d in params.helper_counts:
            helpers = sorted(int(h) for h in rng.choice(others, d, replace=False))
            rebuilt = work / "rebuilt"
            assert main(["repair", *(str(shards[h]) for h in helpers), "-f", str(f), "--out", str(rebuilt)]) == 0
            assert rebuilt.read_bytes() == shards[f].read_bytes(), (length, f, helpers)
    capsys.readouterr()


# SHA-256 of every file `encode` writes for test_encoded_bytes_are_pinned.
# Any change here changes the on-disk format and must be deliberate.
GOLDEN = {
    (3, 2, 7): {
        "in.bin.manifest": "ea7151e22926d208c3aabff497d0954b0f289ffa217c38b3ba8bb5634eb7eabc",
        "in.bin.shard01": "dcf41ae5a5c6ac23d2ed6d5fbe1605cd7e63c836ea1f34f64ad03c1ab3a0432a",
        "in.bin.shard02": "77385f4380f34eba273f2fa7ce556c7a032c06d0015120a697c8d4c24974c9b6",
        "in.bin.shard03": "2974fade37a7e57eb5eab6a915220e1fe34a5946331a6b6126898f3c358a1036",
        "in.bin.shard04": "4326c8bd65fd62c65b43b3bdfa5fab9765b91c4327627390b06a2aad6c01ae1c",
        "in.bin.shard05": "e9a3efea3b96c7063abae3197c679dc582700e416ff35a470edebe0461c6a35c",
        "in.bin.shard06": "b3eccee9d3c76bec75b6856bf26c1d8eb9a0091114ec9111c4159025e46a5e95",
        "in.bin.shard07": "2c7d53982c36fa02867f48ed8ed2ac9f9aa80e12988612c3c1c2243b04968f96",
    },
    (4, 3, 13): {
        "in.bin.manifest": "41aba4582e1ce74e0f33a77fbd58065a3e810cb484bdb072896007cba31c45a4",
        "in.bin.shard01": "df18b9d15da6d51999e1f2ba0fc063d92037dee1a8563bec96786f604466f1a4",
        "in.bin.shard02": "d614791af0ddf146cc2dffa054dcd08d537823f6c23c5a5ffc57f979c83c1fc0",
        "in.bin.shard03": "9993f883eeacbdd192ea21fb59b066787dc562cf81d687d7cf1a80353d1d0198",
        "in.bin.shard04": "e2148663bd00e95111ce6ca61706d9ead4e6f6b2495dfd787ee84227c4cf8f0c",
        "in.bin.shard05": "e7a03c32a88110a07a5a9b16267a7c98f9f691bc7390b65a8f4207f254666dc0",
        "in.bin.shard06": "a630d00ee54414753c150f3308fcb13079fcab7f8f9f7dedb75688061795c66e",
        "in.bin.shard07": "8f90e3d36a794e7a2571ab029a4698fd6f25ea4d0565076a627fe8594e053d8b",
        "in.bin.shard08": "817865f9f99f87757b5abd8284c8b4abb352c0c0ea9fe98d8bd72fcfa7ec57d0",
        "in.bin.shard09": "e8f956da02718bb2fad802d5c30a01615ef687112ca815c15dfbece080322bc9",
        "in.bin.shard10": "87a36a2c8d8dc2cf0e093bf5d32a71b5703453a97da367048995f35a0e327959",
        "in.bin.shard11": "a4224d986e7aed5fe479f883a267ef8cefbd342bbd541a23e8700fd7bfbd7b93",
        "in.bin.shard12": "47219fd4f2e68ef3530999f2b1aef110ac610237a7097155fb7d793065830018",
        "in.bin.shard13": "a25317fdf5166bd4ebb2db80cfd84cf2d2e5a7e77fd35571a7cf8a19d7042a22",
    },
    (3, 5, 20): {
        "in.bin.manifest": "a1b335947b83d481e0f8f6ad9aa66d4c4ec635fb3680c353a756e5d8cea0859b",
        "in.bin.shard01": "9fae825c9f651b0c6ee18630dc2ffd5ca2226c9bd71e2d2708cc3c13c2e4d1dd",
        "in.bin.shard02": "d9cf8673ffedf87ec475cb25727741087dafddac72f93c90d74ad331f27c7ae6",
        "in.bin.shard03": "9199c60ac1291914e57af75ee3a23a02946ac4a2b4bbc682a8f7090f58a85df5",
        "in.bin.shard04": "b320922759686fd4bc9cda7e82add2159f5cba53d2375d42fa9e51f1478aa1de",
        "in.bin.shard05": "16f85b6453f619c037a04f78c6770279e3a2079a31d15bf33f599f767a1f1b6d",
        "in.bin.shard06": "140bef01a1f44dc4d33b1f56418092f54c40ff8496eaedac9392628ea4217a69",
        "in.bin.shard07": "f949790021212560ec2ebe3931bb10619bec836e1f8f6823918af7ce8a8b88bc",
        "in.bin.shard08": "355a5620597a409abf14a8bb31536e373ba0a8f52a521a95a4e10d9d4d8cc336",
        "in.bin.shard09": "5baf3a560fa26b8d5a47cac68869689a374242a9488470ce0d30f2d7730582f4",
        "in.bin.shard10": "04578a65e96d258457360d8d2b8bd255116998eb7a29b05f24f928ea1831812e",
        "in.bin.shard11": "44fc1b5d0b5b943075b4965021dbc757e3e98913cd07dd433bcdfa418d1ba6f5",
        "in.bin.shard12": "1a9ae1bac3057239bd8ce4baec3a6cee34726d90f53b0f192809d4f7c3da7fb9",
        "in.bin.shard13": "ed2cf2266db22f129b6020528e1fa94499433472d6156e1195664a574c293764",
        "in.bin.shard14": "e8501c7d23d368454c58942bcb36522e57431e6abebe4e681713eb506961ede3",
        "in.bin.shard15": "c6c6fc2af68e0c8117ba73732dead6c6c04754d443f12d7eb92940c4ea884360",
        "in.bin.shard16": "b013268ca7b7f4a5917676abf8c15e2c2f7eca8332ee30a21aab5af910a36a9f",
        "in.bin.shard17": "e114040e4fbb9b51bafc238d64caf4035c8013e104a8fdf192b1de4048675991",
        "in.bin.shard18": "9c345d22d40c0cf333def603acaa47b4a479d19d2e1121255e26d160f569a02c",
        "in.bin.shard19": "8b2c6e9abdc2c52403a53125b65c670e98b34333d21edc70cf44886e624448ce",
        "in.bin.shard20": "10646bca9dd9d48e98747d82ba6dd43ba300fcf57edd4a27f4f05785e37ddcc0",
    },
}


@pytest.mark.parametrize("code", list(GOLDEN), ids=["3-2-7", "4-3-13", "3-5-20"])
def test_encoded_bytes_are_pinned(code, tmp_path, monkeypatch, capsys):
    # three whole batches and a fourth ending in a partial stripe
    params = derive_params(*code)
    small_batches(monkeypatch, params)
    length = (3 * BATCH + 1) * params.file_symbols - 5
    data = np.random.default_rng(sum(code)).integers(0, 256, length, dtype=np.uint8).tobytes()
    _, out_dir, _ = encode_file(tmp_path, params, data)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == GOLDEN[code]
    capsys.readouterr()


def test_each_command_builds_its_map_and_checks_stripe_0_once(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = bytes(range(256)) * 2  # 43 stripes, 15 batches
    _, _, shards = encode_file(tmp_path, params, data)

    # encode_all is the stepwise oracle, run once per stripe of the self-check
    # batch, which is cached per code: each command starts with it cleared.
    # _self_check runs once per kernel: a repairer chains its bundle and
    # combine stages and checks them together, building no bundler. The
    # decode maps' one inverse runs in the reconstructor's peel_maps.
    names = dict.fromkeys(["encode_matrix", "repair_matrix", "encode_all", "_self_check", "stripe_bundler"], striping)
    names["invert"] = reconstructor
    counts = count_calls(monkeypatch, names)

    def start():
        counts.update(dict.fromkeys(names, 0))
        striping._self_check_batch.cache_clear()

    start()
    encode_file(tmp_path, params, data)
    assert (counts["encode_matrix"], counts["encode_all"], counts["_self_check"]) == (1, 2, 1)

    start()
    assert main(["reconstruct", *(str(shards[j]) for j in (2, 4, 7)), "-o", str(tmp_path / "o")]) == 0
    assert (counts["encode_matrix"], counts["invert"], counts["encode_all"], counts["_self_check"]) == (1, 1, 2, 1)

    start()
    helpers = [str(shards[h]) for h in (1, 2, 4, 5, 6, 7)]
    assert main(["repair", *helpers, "-f", "3", "--out", str(tmp_path / "r")]) == 0
    assert (counts["repair_matrix"], counts["encode_all"], counts["encode_matrix"]) == (1, 2, 0)
    assert (counts["stripe_bundler"], counts["_self_check"]) == (0, 1)
    capsys.readouterr()


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(2, 4),
    delta=st.integers(1, 3),
    spare=st.integers(1, 3),
    stripes=st.integers(1, 8),
    per_batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_batches_decode_and_repair_at_every_d(k, delta, spare, stripes, per_batch, seed):
    params = derive_params(k, delta, (delta + 1) * (k - 1) + spare)
    assert not params.power_collisions()  # the default q never collides
    rng = np.random.default_rng(seed)
    source = rng.integers(0, params.q, (stripes, params.file_symbols))
    coded = striping.encode_stripes(source, params)
    starts = range(0, stripes, per_batch)

    def split(node_arrays):
        return [{j: a[s : s + per_batch] for j, a in node_arrays.items()} for s in starts]

    encode = striping.stripe_encoder(params)
    assert np.array_equal(np.concatenate([encode(source[s : s + per_batch]) for s in starts], axis=1), coded)

    nodes = sorted(int(j) for j in rng.choice(params.n, params.k, replace=False) + 1)
    decode = striping.stripe_decoder(params, nodes)
    batches = split({j: coded[j - 1] for j in nodes})
    assert np.array_equal(np.concatenate([decode(b) for b in batches]), source)

    f = int(rng.integers(1, params.n + 1))
    others = [j for j in range(1, params.n + 1) if j != f]
    for d in params.helper_counts:
        helpers = sorted(int(h) for h in rng.choice(others, d, replace=False))
        rebuild = striping.stripe_repairer(params, f, helpers)
        batches = split({h: coded[h - 1] for h in helpers})
        assert np.array_equal(np.concatenate([rebuild(b) for b in batches]), coded[f - 1])


@pytest.mark.parametrize("name", ["encode_matrix", "invert", "repair_matrix"])
def test_a_skewed_map_is_refused_even_when_stripe_0_is_zero(name, monkeypatch):
    params = derive_params(3, 2, 7)
    source = np.random.default_rng(5).integers(0, params.q, (4, params.file_symbols))
    source[0] = 0  # a linear map sends it to zero, skewed or not
    coded = striping.encode_stripes(source, params)
    kernels = {
        "encode_matrix": lambda: striping.encode_stripes(source, params),
        "invert": lambda: striping.reconstruct_stripes({j: coded[j - 1] for j in (1, 2, 3)}, params),
        "repair_matrix": lambda: striping.repair_stripes({h: coded[h - 1] for h in (2, 3, 4, 5)}, 1, params),
    }
    module = reconstructor if name == "invert" else striping  # peel_maps inverts A_0
    real = getattr(module, name)

    def skewed(*args):
        out = real(*args)
        data = np.array(getattr(out, "data", out))
        data[0, 0] += 1
        return Matrix(out.field, data) if isinstance(out, Matrix) else data

    monkeypatch.setattr(module, name, skewed)
    with pytest.raises(InconsistencyError, match="disagree on stripe"):
        kernels[name]()


# ---------------------------------------------------------------------------
# streaming reader and writer
# ---------------------------------------------------------------------------


def test_reader_batches_and_crc_match_the_whole_payload(tmp_path, monkeypatch):
    params = derive_params(3, 2, 7)
    symbols = np.random.default_rng(3).integers(0, params.q, (7, params.alpha))
    path = tmp_path / "s"
    write_shard(path, header_for(params, 2, 80), symbols)
    with ShardReader(path) as reader:
        parts = [reader.read(3).copy(), reader.read(3).copy(), reader.read(1).copy()]
    assert np.array_equal(np.concatenate(parts), read_shard(path)[1])
    small_batches(monkeypatch, params)  # the set reads the same 3, 3 and 1 stripes
    with ShardSet([path], crc=True) as shards:
        assert [batch[2].shape[0] for batch in shards.batches()] == [3, 3, 1]
    assert shards.crcs == {2: payload_crc(symbols)}


def test_a_reader_reads_every_batch_into_one_read_only_buffer(tmp_path):
    params = derive_params(3, 2, 7)
    symbols = np.random.default_rng(4).integers(0, params.q, (7, params.alpha))
    path = tmp_path / "s"
    write_shard(path, header_for(params, 2, 80), symbols)
    with ShardReader(path) as reader:
        first = reader.read(3)
        assert np.array_equal(first, symbols[:3])
        second = reader.read(3)
        assert np.array_equal(second, symbols[3:6])
        assert np.shares_memory(first, second)  # valid until the next read
        last = reader.read(1)  # smaller: the same buffer, not a grown one
        assert np.array_equal(last, symbols[6:]) and np.shares_memory(last, first)
        for batch in (first, second, last):
            assert not batch.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                batch[0, 0] = 0
    _, whole = read_shard(path)
    assert whole.flags.writeable and np.array_equal(whole, symbols)
    assert not np.shares_memory(whole, first) and not np.shares_memory(whole, second)


def test_reader_refuses_to_read_past_the_header_stripe_count(tmp_path):
    params = derive_params(3, 2, 7)
    path = tmp_path / "s"
    write_shard(path, header_for(params, 2, 80), np.ones((7, params.alpha), dtype=np.int64))
    with ShardReader(path) as reader:
        with pytest.raises(ValueError, match=f"{path}: cannot read 8 stripes, 7 remain"):
            reader.read(8)
        with pytest.raises(ValueError, match=f"{path}: cannot read -1 stripes, 7 remain"):
            reader.read(-1)
        assert reader.read(7).shape == (7, params.alpha)
        assert reader.read(0).shape == (0, params.alpha)
        with pytest.raises(ValueError, match=f"{path}: cannot read 1 stripes, 0 remain"):
            reader.read(1)


def test_writer_commits_only_a_whole_payload(tmp_path):
    params = derive_params(3, 2, 7)
    header = header_for(params, 1, 40)
    symbols = np.ones((4, params.alpha), dtype=np.int64)
    with pytest.raises(ValueError, match=r"payload shape \(3, 4\) does not match \(4, 4\)"):
        with ShardWriter(tmp_path / "s", header) as writer:
            writer.write(symbols[:3])
    with pytest.raises(ValueError, match=r"payload shape \(2, 4\) does not match \(1, 4\)"):
        with ShardWriter(tmp_path / "s", header) as writer:
            writer.write(symbols[:3])
            writer.write(symbols[:2])
    assert list(tmp_path.iterdir()) == []
    with ShardWriter(tmp_path / "s", header, crc=True) as writer:
        writer.write(symbols[:1])
        writer.write(symbols[1:])
    assert writer.crc == payload_crc(symbols)
    assert np.array_equal(read_shard(tmp_path / "s")[1], symbols)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_inputs_must_be_regular_files(tmp_path, capsys):
    # a stream's length is unknown until it ends, but the header needs it first
    rc = main(["encode", "/dev/null", "-o", str(tmp_path / "sh"), "--k", "3", "--delta", "2", "--n", "7"])
    assert rc == 1
    assert "/dev/null: not a regular file" in capsys.readouterr().err
    assert not (tmp_path / "sh").exists()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)  # with no writer: an open that waited for one would never return
    proc = run_in_child(OPEN_A_READER, str(fifo))
    assert (proc.returncode, proc.stderr) == (1, f"ShardFormatError: {fifo}: not a regular file\n")


def run_in_child(script, *args):
    """`python -c script args` with pmba importable, so that an open which
    blocks fails the test at the timeout instead of hanging the suite."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60,
    )


def main_in_child(argvs) -> list:
    """Per argv, (exit code, stdout, stderr, shards read) of `main` in one child."""
    proc = run_in_child(REFUSE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# a ShardReader opened in a child process, so that an open which blocks
# fails the test at its timeout instead of hanging the suite
OPEN_A_READER = """
import sys
from pmba.shardio import ShardFormatError, ShardReader
try:
    ShardReader(sys.argv[1])
except ShardFormatError as exc:
    sys.exit(f"ShardFormatError: {exc}")
"""

# CLI commands, given as a JSON list, run in-process in one child so that
# an open which blocks fails the test at its timeout; prints, per command,
# its exit code, stdout, stderr and the shards whose payload it read.
REFUSE = """
import contextlib, io, json, sys
from pmba import shardio
from pmba.cli import main
reads = []
real = shardio.ShardReader.read
shardio.ShardReader.read = lambda self, n: (reads.append(str(self.path)), real(self, n))[1]
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    results.append((rc, out.getvalue(), err.getvalue(), reads[:]))
    reads.clear()
print(json.dumps(results))
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo") or not os.path.exists("/dev/null"), reason="needs mkfifo and /dev/null")
@pytest.mark.parametrize("kind", ["fifo", "directory", "device"])
def test_a_non_regular_input_is_refused_at_open_before_a_byte_is_read(kind, tmp_path):
    params = derive_params(3, 2, 7)
    data = np.random.default_rng(8).integers(0, 256, 3 * params.file_symbols, dtype=np.uint8).tobytes()
    _, _, shards = encode_file(tmp_path, params, data)
    bad = {"device": Path(os.devnull), "directory": tmp_path / "dir", "fifo": tmp_path / "fifo"}[kind]
    if kind == "directory":
        bad.mkdir()
    elif kind == "fifo":
        os.mkfifo(bad)  # with no writer, so an open that waited would wait forever
    work = tmp_path / "work"
    work.mkdir()
    s = [str(shards[j]) for j in range(1, 8)]
    # (argv, exit code): as a shard a data error, as a manifest or source a usage error
    runs = [
        (["verify", str(bad)], 2),
        (["verify", s[0], str(bad)], 2),
        (["reconstruct", s[0], s[1], str(bad), "-o", str(work / "out")], 2),
        (["repair", s[0], s[2], s[3], str(bad), "-f", "2", "--out", str(work / "rep")], 2),
        (["verify", s[0], "--manifest", str(bad)], 1),
        (["reconstruct", *s[:3], "-o", str(work / "out"), "--manifest", str(bad)], 1),
        (["repair", s[0], *s[2:5], "-f", "2", "--out", str(work / "rep"), "--manifest", str(bad)], 1),
        (["encode", str(bad), "-o", str(work / "enc"), *code_flags(params)], 1),
    ]
    for (argv, want), (rc, out, err, reads) in zip(runs, main_in_child([argv for argv, _ in runs]), strict=True):
        assert (rc, out, err, reads) == (want, "", f"error: {bad}: not a regular file\n", []), argv
    assert list(work.iterdir()) == []  # no output, temp file or directory


def make_non_regular(kind, path: Path) -> None:
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "socket":  # bound by a relative name: AF_UNIX caps a path at 107 bytes
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(path))
    elif kind == "symlink to a fifo":
        os.mkfifo(path.with_name(f"{path.name}.fifo"))
        os.symlink(f"{path.name}.fifo", path)
    else:
        path.mkdir()


def file_types(root) -> dict:
    """Every path under `root`, directories' contents too, with its file type;
    symlinks are not followed."""
    paths = [os.path.join(d, name) for d, dirs, files in os.walk(root) for name in dirs + files]
    return {p: stat.S_IFMT(os.lstat(p).st_mode) for p in paths}


@pytest.mark.skipif(not hasattr(os, "mkfifo") or not hasattr(socket, "AF_UNIX"), reason="needs mkfifo and AF_UNIX")
@pytest.mark.parametrize("kind", ["fifo", "socket", "symlink to a fifo", "directory"])
def test_a_non_regular_output_is_refused_at_open_and_left_as_it_was(kind, tmp_path, monkeypatch):
    params = derive_params(3, 2, 7)
    data = np.random.default_rng(9).integers(0, 256, 3 * params.file_symbols, dtype=np.uint8).tobytes()
    src, _, shards = encode_file(tmp_path, params, data)
    monkeypatch.chdir(tmp_path)  # the child runs here too, and every output is named relative to it
    for d in ("out", "enc1", "enc2"):
        os.mkdir(d)
    s = [str(shards[j]) for j in range(1, 5)]
    runs = [  # (argv, the output it is refused for)
        (["reconstruct", *s[:3], "-o", "out/t"], "out/t"),
        (["repair", *s, "-f", "5", "--out", "out/t"], "out/t"),
        (["simulate", *code_flags(params), "--csv", "out/t"], "out/t"),
        (["encode", str(src), "-o", "enc1", *code_flags(params)], "enc1/in.bin.shard03"),
        (["encode", str(src), "-o", "enc2", *code_flags(params)], "enc2/in.bin.manifest"),
    ]
    for bad in dict.fromkeys(bad for _, bad in runs):
        make_non_regular(kind, Path(bad))
    before = file_types(tmp_path)
    assert {before[f"{tmp_path}/{bad}"] for _, bad in runs} == {
        "fifo": {stat.S_IFIFO}, "socket": {stat.S_IFSOCK}, "symlink to a fifo": {stat.S_IFLNK}, "directory": {stat.S_IFDIR},
    }[kind]
    for (argv, bad), (rc, out, err, reads) in zip(runs, main_in_child([argv for argv, _ in runs]), strict=True):
        assert (rc, out, err, reads) == (1, "", f"error: {bad}: not a regular file\n", []), argv
    # every target as it was, a symlink's FIFO too, and no temp file, shard or ledger left
    assert file_types(tmp_path) == before


@pytest.mark.parametrize("command", ["reconstruct", "repair", "simulate"])
def test_a_symlink_to_a_regular_file_is_replaced_and_the_file_it_named_kept(command, tmp_path):
    params = derive_params(3, 2, 7)
    data = np.random.default_rng(10).integers(0, 256, 3 * params.file_symbols, dtype=np.uint8).tobytes()
    _, _, shards = encode_file(tmp_path, params, data)
    kept, link = tmp_path / "kept", tmp_path / "link"
    kept.write_bytes(b"old")
    link.symlink_to(kept)
    s = [str(shards[j]) for j in range(1, 5)]
    argv = {
        "reconstruct": ["reconstruct", *s[:3], "-o", str(link)],
        "repair": ["repair", *s, "-f", "5", "--out", str(link)],
        "simulate": ["simulate", *code_flags(params), "--csv", str(link)],
    }[command]
    ((rc, _, err, _),) = main_in_child([argv])
    assert (rc, err) == (0, "")
    assert not link.is_symlink() and link.stat().st_size > 0
    if command != "simulate":
        assert link.read_bytes() == (data if command == "reconstruct" else shards[5].read_bytes())
    assert kept.read_bytes() == b"old"


# an atomic set whose second target becomes a FIFO after its file was opened
FIFO_BEFORE_COMMIT = """
import os, sys
from pmba.shardio import AtomicFile, atomic_set
try:
    with atomic_set() as files:
        files += [AtomicFile(p) for p in sys.argv[1:]]
        for f in files:
            f.write(b"new")
        os.mkfifo(sys.argv[2])
except ValueError as exc:
    sys.exit(f"ValueError: {exc}")
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
def test_a_target_that_becomes_a_fifo_before_the_commit_rolls_the_set_back(tmp_path):
    old, late = tmp_path / "old", tmp_path / "late"
    old.write_bytes(b"old")  # replaced first, then put back
    proc = run_in_child(FIFO_BEFORE_COMMIT, str(old), str(late))
    assert (proc.returncode, proc.stderr) == (1, f"ValueError: {late}: not a regular file\n")
    assert old.read_bytes() == b"old" and stat.S_ISFIFO(os.lstat(late).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["late", "old"]  # no temp or set-aside file


# ---------------------------------------------------------------------------
# a failure mid-stream leaves nothing behind
# ---------------------------------------------------------------------------


def test_repair_from_a_helper_bad_in_its_last_batch_writes_nothing(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(5).integers(0, 256, 10 * params.file_symbols, dtype=np.uint8).tobytes()
    _, _, shards = encode_file(tmp_path, params, data)
    bad = shards[4]
    blob = bytearray(bad.read_bytes())
    blob[-2:] = params.q.to_bytes(2, "little")  # last symbol of the last batch
    bad.write_bytes(bytes(blob))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    rc = main(["repair", *(str(shards[h]) for h in (2, 3, 4, 5)), "-f", "1",
               "--out", str(out_dir / "in.bin.shard01")])
    assert rc == 2
    assert f"{bad}: payload symbol >= q = {params.q}" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_reconstruct_from_a_truncated_shard_writes_nothing(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(6).integers(0, 256, 10 * params.file_symbols, dtype=np.uint8).tobytes()
    _, _, shards = encode_file(tmp_path, params, data)
    blob = shards[2].read_bytes()
    shards[2].write_bytes(blob[: len(blob) // 2])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    rc = main(["reconstruct", *(str(shards[j]) for j in (1, 2, 3)), "-o", str(out_dir / "in.bin")])
    assert rc == 2
    assert f"{shards[2]}: payload holds" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("size", [20, 100], ids=["first-batch", "later-batch"])
def test_an_input_that_shrinks_while_being_encoded_exits_1_and_leaves_nothing(size, tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)  # 36 bytes per batch: 100 bytes are read as 36, 36 and 28
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(size)))
    real_fstat, ident = os.fstat, file_id(src.stat())

    def longer(fd):  # the input's length says 10 bytes more than reading it gives
        found = real_fstat(fd)
        if file_id(found) != ident:
            return found
        fields = list(found[:10])
        fields[stat.ST_SIZE] += 10
        return os.stat_result(fields)

    monkeypatch.setattr(cli.os, "fstat", longer)
    rc = main(["encode", str(src), "-o", str(tmp_path / "new" / "sh"), *code_flags(params)])
    monkeypatch.undo()
    assert rc == 1
    assert f"{src}: shrank to {size} bytes while being read" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


# 1024 stripes of (3,2,7) are 8 KiB of payload, as much as an open file's
# read buffer holds, so a truncation past the first batch is seen
SHRINK_BATCH, SHRINK_STRIPES = 1024, 3000


@pytest.mark.parametrize("kept", [0, SHRINK_BATCH], ids=["first-batch", "later-batch"])
def test_a_shard_that_shrinks_after_it_was_opened_exits_2_naming_it(kept, tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params, SHRINK_BATCH)
    data = np.random.default_rng(9).integers(0, 256, SHRINK_STRIPES * params.file_symbols, dtype=np.uint8)
    _, _, shards = encode_file(tmp_path, params, data.tobytes())
    shard, whole = shards[2], shards[2].read_bytes()
    cut = len(whole) - (SHRINK_STRIPES - kept) * params.alpha * 2  # keeps the header and `kept` stripes

    with ShardReader(shard) as reader:
        os.truncate(shard, cut)
        reader.read(kept)
        with pytest.raises(ShardFormatError) as refused:
            reader.read(SHRINK_BATCH)
    assert str(refused.value) == f"{shard}: payload shrank while being read"

    # truncated once the set is open, as the decoder is built
    shard.write_bytes(whole)
    real = striping.stripe_decoder
    monkeypatch.setattr(striping, "stripe_decoder", lambda *a: (os.truncate(shard, cut), real(*a))[1])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    rc = main(["reconstruct", *(str(shards[j]) for j in (1, 2, 3)), "-o", str(out_dir / "in.bin")])
    assert rc == 2
    assert f"{shard}: payload shrank while being read" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_encode_that_cannot_write_a_shard_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(256)))
    out_dir = tmp_path / "sh"
    (out_dir / "in.bin.shard03").mkdir(parents=True)  # a directory where shard 3 goes
    (out_dir / "in.bin.shard03" / "keep").write_bytes(b"")
    rc = main(["encode", str(src), "-o", str(out_dir), *code_flags(params)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    names = sorted(p.name for p in out_dir.iterdir())
    assert not [n for n in names if n.startswith(".")]
    assert "in.bin.manifest" not in names
    # shards 01 and 02 were renamed before shard 03 failed, and removed again
    assert not [p for p in out_dir.iterdir() if p.is_file() and p.name.startswith("in.bin.shard")]


def test_encode_that_cannot_sync_leaves_the_old_set_in_place(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    src, out_dir, _ = encode_file(tmp_path, params, bytes(range(200)))
    old = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    src.write_bytes(bytes(range(100)))
    real_fsync, calls = os.fsync, []

    def failing_fsync(fd):
        calls.append(fd)
        if len(calls) == 5:  # the fifth of the n + 1 temp files
            raise OSError("disk full")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    rc = main(["encode", str(src), "-o", str(out_dir), *code_flags(params)])
    monkeypatch.undo()
    assert rc == 1
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == old


def test_encode_that_cannot_rename_a_shard_leaves_the_old_set_in_place(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    src, out_dir, _ = encode_file(tmp_path, params, bytes(range(200)))
    old = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(old) == params.n + 1
    src.write_bytes(bytes(range(100)))
    real_replace, failed = os.replace, []

    def failing_replace(source, target):
        if Path(target).name == "in.bin.shard03" and not failed:  # the new shard 03
            failed.append(source)
            raise OSError("rename refused")
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", failing_replace)
    rc = main(["encode", str(src), "-o", str(out_dir), *code_flags(params)])
    monkeypatch.undo()
    assert rc == 1
    assert "rename refused" in capsys.readouterr().err
    # shards 01 and 02 were replaced before shard 03 failed, and are restored
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == old


def corrupt_last_symbol(shard, q):
    blob = bytearray(shard.read_bytes())
    blob[-2:] = q.to_bytes(2, "little")  # last symbol of the last stripe
    shard.write_bytes(bytes(blob))


def test_a_failed_reconstruct_removes_the_directories_it_created(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(7).integers(0, 256, 10 * params.file_symbols, dtype=np.uint8).tobytes()
    _, _, shards = encode_file(tmp_path, params, data)
    corrupt_last_symbol(shards[3], params.q)
    capsys.readouterr()
    rc = main(["reconstruct", *(str(shards[j]) for j in (1, 2, 3)), "-o", str(tmp_path / "new" / "deep" / "out.bin")])
    assert rc == 2
    assert f"{shards[3]}: payload symbol >= q = {params.q}" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_a_failed_repair_removes_the_directories_it_created(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(8).integers(0, 256, 10 * params.file_symbols, dtype=np.uint8).tobytes()
    _, _, shards = encode_file(tmp_path, params, data)
    corrupt_last_symbol(shards[5], params.q)
    (tmp_path / "n2").mkdir()  # existed before, so it stays
    capsys.readouterr()
    rc = main(["repair", *(str(shards[h]) for h in (2, 3, 4, 5)), "-f", "1",
               "--out", str(tmp_path / "n2" / "x" / "y" / "r.shard")])
    assert rc == 2
    assert f"{shards[5]}: payload symbol >= q = {params.q}" in capsys.readouterr().err
    assert list((tmp_path / "n2").iterdir()) == []


def test_an_encode_that_cannot_rename_removes_the_directories_it_created(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(200)))
    real_replace = os.replace

    def failing_replace(source, target):
        if Path(target).name == "in.bin.manifest":  # after every shard is in place
            raise OSError("rename refused")
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", failing_replace)
    rc = main(["encode", str(src), "-o", str(tmp_path / "a" / "b"), *code_flags(params)])
    monkeypatch.undo()
    assert rc == 1
    assert "rename refused" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


def test_a_discarded_file_keeps_a_created_directory_that_holds_something_else(tmp_path):
    from pmba.shardio import AtomicFile

    fh = AtomicFile(tmp_path / "a" / "b" / "x")
    (tmp_path / "a" / "other").write_bytes(b"")
    fh.discard()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "other"]


# ---------------------------------------------------------------------------
# --manifest on reconstruct and repair; CRC-32s only where something reads them
# ---------------------------------------------------------------------------

# 11 stripes of (3,2,7) in batches of BATCH = 3: 3, 3, 3 and 2, the last
# stripe partial
FLIP_LENGTH = (3 * BATCH + 1) * 12 + 5
FLIP_STRIPES = {"first batch": 0, "last batch": 3 * BATCH, "last partial stripe": 3 * BATCH + 1}


@pytest.fixture
def flip_set(tmp_path, monkeypatch, capsys):
    """A FLIP_LENGTH-byte (3,2,7) file encoded in small batches: its data,
    shard paths and manifest."""
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(11).integers(0, 256, FLIP_LENGTH, dtype=np.uint8).tobytes()
    _, out_dir, shards = encode_file(tmp_path, params, data)
    assert read_shard(shards[1])[0].stripe_count == 3 * BATCH + 2
    capsys.readouterr()
    return data, shards, out_dir / "in.bin.manifest"


def flip_low_bit(path, stripe, alpha=4):
    """Flip the low bit of the first symbol of `stripe` in the shard at
    `path` that stays below q = 257 flipped."""
    blob = bytearray(path.read_bytes())
    start = len(blob) - read_shard(path)[0].stripe_count * alpha * 2 + stripe * alpha * 2
    offset = next(o for o in range(start, start + 2 * alpha, 2) if blob[o : o + 2] != b"\x00\x01")
    blob[offset] ^= 1
    path.write_bytes(bytes(blob))


def test_reconstruct_and_repair_with_a_manifest_write_what_they_write_without(flip_set, tmp_path):
    data, shards, manifest = flip_set
    out = tmp_path / "out.bin"
    argv = ["reconstruct", *(str(shards[j]) for j in (2, 5, 7)), "-o", str(out)]
    assert main([*argv, "--manifest", str(manifest)]) == 0
    assert out.read_bytes() == data
    for helpers in ((2, 3, 4, 5), (2, 3, 4, 5, 6, 7)):
        rebuilt = tmp_path / f"d{len(helpers)}.shard01"
        argv = ["repair", *(str(shards[h]) for h in helpers), "-f", "1", "--out", str(rebuilt)]
        assert main([*argv, "--manifest", str(manifest)]) == 0
        assert rebuilt.read_bytes() == shards[1].read_bytes()


@pytest.mark.parametrize("where", sorted(FLIP_STRIPES))
def test_a_flipped_bit_in_a_shard_read_exits_2_naming_it_and_commits_nothing(where, flip_set, tmp_path, capsys):
    data, shards, manifest = flip_set
    flip_low_bit(shards[3], FLIP_STRIPES[where])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    commands = {
        "reconstruct": ["reconstruct", *(str(shards[j]) for j in (1, 3, 6)), "-o", str(out_dir / "in.bin")],
        "repair d=4": ["repair", *(str(shards[h]) for h in (2, 3, 4, 5)), "-f", "1", "--out", str(out_dir / "a")],
        "repair d=6": ["repair", *(str(shards[h]) for h in (2, 3, 4, 5, 6, 7)), "-f", "1", "--out", str(out_dir / "b")],
        "verify": ["verify", *map(str, shards.values())],
    }
    for name, argv in commands.items():
        assert main([*argv, "--manifest", str(manifest)]) == 2, name
        assert f"{shards[3]}: crc32 " in capsys.readouterr().err, name
        assert list(out_dir.iterdir()) == [], name

    # a reconstruct that does not read the flipped shard is not affected by it
    out = out_dir / "in.bin"
    argv = ["reconstruct", *map(str, shards.values()), "--nodes", "1,2,4", "-o", str(out)]
    assert main([*argv, "--manifest", str(manifest)]) == 0
    assert out.read_bytes() == data


@pytest.mark.parametrize("node", [2, 1])
def test_repair_refuses_a_manifest_without_a_line_for_a_helper_or_the_rebuilt_node(node, flip_set, tmp_path, capsys):
    _, shards, manifest = flip_set
    edited = tmp_path / "edited.manifest"
    lines = manifest.read_text().splitlines()
    edited.write_text("\n".join(line for line in lines if not line.startswith(f"shard{node:02d}.crc32")) + "\n")
    out = tmp_path / "out" / "in.bin.shard01"
    argv = ["repair", *(str(shards[h]) for h in (2, 3, 4, 5)), "-f", "1", "--out", str(out)]
    assert main([*argv, "--manifest", str(edited)]) == 2
    named = shards[node] if node != 1 else out
    assert f"{named}: manifest {edited} has no shard{node:02d}.crc32 line" in capsys.readouterr().err
    assert not out.parent.exists()


def test_repair_compares_the_rebuilt_shard_with_the_manifest_entry_for_it(flip_set, tmp_path, capsys):
    _, shards, manifest = flip_set
    text = manifest.read_text()
    crc = f"{payload_crc(read_shard(shards[1])[1]):08x}"
    wrong = f"{int(crc, 16) ^ 1:08x}"
    edited = tmp_path / "edited.manifest"
    edited.write_text(text.replace(f"shard01.crc32={crc}", f"shard01.crc32={wrong}"))
    out = tmp_path / "out" / "in.bin.shard01"
    argv = ["repair", *(str(shards[h]) for h in (2, 3, 4, 5)), "-f", "1", "--out", str(out)]
    assert main([*argv, "--manifest", str(edited)]) == 2
    assert f"{out}: crc32 {crc} does not match manifest {wrong}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_crc32_runs_once_per_batch_per_node_only_where_something_reads_it(flip_set, tmp_path, monkeypatch, capsys):
    _, shards, manifest = flip_set
    batches = [3, 3, 3, 2]  # stripes per batch
    calls = []
    real = shardio.crc32
    monkeypatch.setattr(
        shardio, "crc32", lambda data, *a: (calls.append(memoryview(data).nbytes), real(data, *a))[1]
    )
    m = ["--manifest", str(manifest)]
    helpers = [str(shards[h]) for h in (2, 3, 4, 5, 6, 7)]
    runs = {  # argv, and the nodes read and written whose CRC-32 is kept
        "reconstruct": (["reconstruct", *map(str, shards.values()), "-o", str(tmp_path / "a")], 0),
        "repair": (["repair", *helpers, "-f", "1", "--out", str(tmp_path / "b")], 0),
        "verify": (["verify", *map(str, shards.values())], 7),
        "verify --manifest": (["verify", *map(str, shards.values()), *m], 7),
        "reconstruct --manifest": (["reconstruct", *map(str, shards.values()), "-o", str(tmp_path / "c"), *m], 3),
        "repair --manifest": (["repair", *helpers, "-f", "1", "--out", str(tmp_path / "d"), *m], 6 + 1),
    }
    for name, (argv, nodes) in runs.items():
        calls.clear()
        assert main(argv) == 0, name
        # one call per batch of each such node, each on the whole batch: 8 bytes per stripe
        assert sorted(calls) == sorted(8 * s for s in batches * nodes), name
    capsys.readouterr()


def hide_libdeflate(monkeypatch):
    """Bind `shardio.crc32` as on a host without libdeflate.so.0."""
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name == "libdeflate.so.0":
            raise OSError(f"{name}: cannot open shared object file")
        return real(name, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ctypes, "CDLL", cdll)
        crc32 = shardio._resolve_crc32()
    assert crc32 is zlib.crc32
    monkeypatch.setattr(shardio, "crc32", crc32)


def test_every_command_prints_exits_and_writes_the_same_without_libdeflate(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(12).integers(0, 256, FLIP_LENGTH, dtype=np.uint8).tobytes()
    seen = []
    for hidden in (False, True):
        if hidden:
            hide_libdeflate(monkeypatch)
        root = tmp_path / ("zlib" if hidden else "default")
        root.mkdir()
        (root / "in.bin").write_bytes(data)
        shards = [str(root / "sh" / f"in.bin.shard{j:02d}") for j in range(1, 8)]
        m = ["--manifest", str(root / "sh" / "in.bin.manifest")]
        bad = root / "bad.shard03"

        def run(argv, root=root):
            rc = main(argv)
            return (rc, *(text.replace(str(root), "<root>") for text in capsys.readouterr()))

        outcomes = [run(["encode", str(root / "in.bin"), "-o", str(root / "sh"), *code_flags(params)])]
        bad.write_bytes(Path(shards[2]).read_bytes())
        flip_low_bit(bad, 5)
        outcomes += map(run, [
            ["verify", *shards],
            ["verify", *shards, *m],
            ["reconstruct", *shards[1:4], "-o", str(root / "out.bin"), *m],
            ["repair", *shards[1:], "-f", "1", "--out", str(root / "r.shard01"), *m],
            ["verify", *shards[:2], str(bad), *shards[3:], *m],
        ])
        files = {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        seen.append((outcomes, files))
    assert [rc for rc, *_ in seen[0][0]] == [0, 0, 0, 0, 0, 2]
    assert seen[0] == seen[1]


# ---------------------------------------------------------------------------
# write-back starts with each write; fsync at commit stays the guarantee
# ---------------------------------------------------------------------------


def file_id(st):
    return st.st_dev, st.st_ino


def record_write_back(monkeypatch):
    """Stand in for sync_file_range; returns {file id: [(offset, nbytes)]}
    in call order. A temp file keeps its id through the rename. Each range
    must already be in the file, not held in a buffer."""
    ranges = {}

    def recording(fd, offset, nbytes, flags):
        st = os.fstat(fd)
        assert flags == shardio._SYNC_FILE_RANGE_WRITE and st.st_size == offset + nbytes
        ranges.setdefault(file_id(st), []).append((offset, nbytes))
        return 0

    monkeypatch.setattr(shardio, "_sync_file_range", recording)
    return ranges


def assert_written_back(ranges, path, writes):
    """`path`'s recorded ranges are `writes` non-empty ranges, in order and
    contiguous, that cover exactly [0, its size)."""
    got = ranges.pop(file_id(path.stat()), [])
    assert len(got) == writes, (path.name, got)
    end = 0
    for offset, nbytes in got:
        assert offset == end and nbytes > 0, (path.name, got)
        end += nbytes
    assert end == path.stat().st_size, (path.name, got)


@pytest.mark.parametrize("stripes", [3 * BATCH - 1, 0], ids=["three-batches", "empty"])
def test_each_write_starts_the_write_back_of_exactly_its_bytes(stripes, tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    ranges = record_write_back(monkeypatch)
    length = max(stripes * params.file_symbols - 5, 0)
    data = np.random.default_rng(stripes).integers(0, 256, length, dtype=np.uint8).tobytes()
    batches = 3 if length else 0
    _, out_dir, shards = encode_file(tmp_path, params, data)
    for shard in shards.values():  # the header, then one payload per batch
        assert_written_back(ranges, shard, 1 + batches)
    assert_written_back(ranges, out_dir / "in.bin.manifest", 1)
    assert ranges == {}

    out = tmp_path / "out.bin"
    assert main(["reconstruct", *(str(shards[j]) for j in (2, 5, 7)), "-o", str(out)]) == 0
    assert out.read_bytes() == data
    assert_written_back(ranges, out, batches)
    assert ranges == {}

    rebuilt = tmp_path / "rebuilt"
    assert main(["repair", *(str(shards[h]) for h in (1, 2, 4, 6)), "-f", "3", "--out", str(rebuilt)]) == 0
    assert rebuilt.read_bytes() == shards[3].read_bytes()
    assert_written_back(ranges, rebuilt, 1 + batches)
    assert ranges == {}
    capsys.readouterr()


def record_durability(monkeypatch):
    """Log ("fsync", file id, is a directory) and ("replace", file id, target)
    events in order, running the real calls."""
    events, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", file_id(st), stat.S_ISDIR(st.st_mode)))
        real_fsync(fd)

    def replace(source, target):
        events.append(("replace", file_id(os.stat(source)), Path(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def assert_durable(events, outputs, directories):
    """Each output is fsynced once, before its rename, and each directory once,
    after the last rename; nothing else is fsynced or renamed."""
    renames = [i for i, e in enumerate(events) if e[0] == "replace"]
    assert sorted(events[i][2] for i in renames) == sorted(outputs)
    for path in outputs:
        syncs = [i for i, e in enumerate(events) if e[:2] == ("fsync", file_id(path.stat()))]
        (rename,) = [i for i in renames if events[i][2] == path]
        assert len(syncs) == 1 and not events[syncs[0]][2] and syncs[0] < rename, path
    dirs = [(e[1], i) for i, e in enumerate(events) if e[0] == "fsync" and e[2]]
    assert sorted(d for d, _ in dirs) == sorted(file_id(d.stat()) for d in directories)
    assert all(i > max(renames) for _, i in dirs)
    assert len(events) == 2 * len(outputs) + len(directories)


def test_every_output_is_fsynced_before_its_rename_and_every_directory_after(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(5).integers(0, 256, 10 * params.file_symbols, dtype=np.uint8).tobytes())
    events = record_durability(monkeypatch)

    out_dir = tmp_path / "new" / "sh"
    assert main(["encode", str(src), "-o", str(out_dir), *code_flags(params)]) == 0
    shards = {j: out_dir / f"in.bin.shard{j:02d}" for j in range(1, params.n + 1)}
    # the n shards and the manifest; the target directory, then the parent of
    # each directory encode created
    assert_durable(events, [*shards.values(), out_dir / "in.bin.manifest"], [out_dir, tmp_path / "new", tmp_path])

    events.clear()
    out = tmp_path / "a" / "out.bin"
    assert main(["reconstruct", *(str(shards[j]) for j in (1, 4, 6)), "-o", str(out)]) == 0
    assert_durable(events, [out], [out.parent, tmp_path])

    events.clear()
    rebuilt = tmp_path / "rebuilt"
    assert main(["repair", *(str(shards[h]) for h in (1, 3, 4, 5, 6, 7)), "-f", "2", "--out", str(rebuilt)]) == 0
    assert_durable(events, [rebuilt], [tmp_path])
    capsys.readouterr()


def absent_write_back(monkeypatch):
    monkeypatch.setattr(shardio, "_sync_file_range", None)


def refused_write_back(monkeypatch):
    def refusing(fd, offset, nbytes, flags):
        ctypes.set_errno(errno.ENOSYS)
        return -1

    monkeypatch.setattr(shardio, "_sync_file_range", refusing)


@pytest.mark.parametrize("stand_in", [absent_write_back, refused_write_back], ids=["absent", "refused"])
def test_outputs_do_not_depend_on_the_write_back(stand_in, tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = np.random.default_rng(6).integers(0, 256, 10 * params.file_symbols - 3, dtype=np.uint8).tobytes()
    outputs = {}
    for side in ("real", "stand-in"):
        if side == "stand-in":
            stand_in(monkeypatch)
        work = tmp_path / side
        work.mkdir()
        _, out_dir, shards = encode_file(work, params, data)
        assert main(["reconstruct", *(str(shards[j]) for j in (3, 4, 7)), "-o", str(work / "out.bin")]) == 0
        assert main(["repair", *(str(shards[h]) for h in (2, 3, 4, 5)), "-f", "1", "--out", str(work / "r")]) == 0
        outputs[side] = {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
    assert outputs["stand-in"] == outputs["real"]
    assert outputs["real"][Path("out.bin")] == data
    assert outputs["real"][Path("r")] == outputs["real"][Path("sh/in.bin.shard01")]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# written files follow the umask
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_follow_the_umask(umask, tmp_path, capsys):
    params = derive_params(3, 2, 7)
    old = os.umask(umask)
    try:
        write_shard(tmp_path / "lib.shard", header_for(params, 1, 0), np.zeros((0, params.alpha), dtype=np.int64))
        _, out_dir, shards = encode_file(tmp_path, params, b"some bytes")
        out = tmp_path / "restored.bin"
        assert main(["reconstruct", *(str(shards[j]) for j in (1, 2, 3)), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    written = [tmp_path / "lib.shard", shards[1], out_dir / "in.bin.manifest", out]
    for path in written:
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path.name


# ---------------------------------------------------------------------------
# peak memory does not grow with the file
# ---------------------------------------------------------------------------


# Linux counts in a child's ru_maxrss the resident memory of the process
# it was forked from, so each command starts from this small launcher, not
# from the test process. It prints the command's exit code and peak RSS.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "pmba.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mib(args) -> float:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *args], env=env, capture_output=True, text=True, timeout=120
    )
    rc, maxrss = proc.stdout.split()
    assert rc == "0", proc.stderr
    return int(maxrss) / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="needs os.wait4 and ru_maxrss in KiB")
def test_peak_rss_does_not_grow_with_the_file(tmp_path):
    rng = np.random.default_rng(9)
    peaks = {}
    for mib in (4, 24):
        work = tmp_path / str(mib)
        work.mkdir()
        src = work / "in.bin"
        with open(src, "wb") as fh:
            for _ in range(mib):
                fh.write(rng.integers(0, 256, 2**20, dtype=np.uint8).tobytes())
        sh = [str(work / f"in.bin.shard{j:02d}") for j in range(1, 8)]
        peaks[mib] = {
            "encode": peak_rss_mib(["encode", str(src), "-o", str(work), "--k", "3", "--delta", "2", "--n", "7"]),
            "verify": peak_rss_mib(["verify", *sh, "--manifest", str(work / "in.bin.manifest")]),
            "reconstruct": peak_rss_mib(["reconstruct", *sh[1:4], "-o", str(work / "out.bin")]),
            "repair": peak_rss_mib(["repair", *sh[1:7], "-f", "1", "--out", str(work / "rep")]),
        }
        assert (work / "out.bin").read_bytes() == src.read_bytes()
    for command, small in peaks[4].items():
        assert abs(peaks[24][command] - small) < 16, (command, peaks)
