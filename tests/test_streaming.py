# tests/test_streaming.py
#
# The CLI streams files through the codec in batches of
# striping.BATCH_SYMBOLS source symbols. These tests shrink the batch to a
# few stripes and check that batch boundaries change no output byte, that
# each command builds its linear map and runs its self-check once, that
# a failure mid-stream leaves no file behind, that written files follow the
# umask, and that peak memory does not grow with the file.
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmba import striping
from pmba.cli import main
from pmba.matrix import InconsistencyError, Matrix
from pmba.params import derive_params
from pmba.shardio import (
    ShardFormatError,
    ShardReader,
    ShardWriter,
    header_for,
    payload_crc,
    read_shard,
    write_manifest,
    write_shard,
)

ROOT = Path(__file__).resolve().parent.parent
BATCH = 3  # stripes per batch wherever a test shrinks the batch
CODES = [(3, 2, 7), (4, 3, 13)]
CODE_IDS = ["3-2-7", "4-3-13"]


def small_batches(monkeypatch, params, stripes=BATCH):
    monkeypatch.setattr(striping, "BATCH_SYMBOLS", stripes * params.file_symbols)


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
    write_manifest(ref_dir / "in.bin.manifest", "in.bin", headers[0], entries)


def count_calls(monkeypatch, names):
    """Count calls of the named striping module attributes."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(striping, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(striping, name, counted)
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


def test_each_command_builds_its_map_and_checks_stripe_0_once(tmp_path, monkeypatch, capsys):
    params = derive_params(3, 2, 7)
    small_batches(monkeypatch, params)
    data = bytes(range(256)) * 2  # 43 stripes, 15 batches
    _, _, shards = encode_file(tmp_path, params, data)

    # encode_all is the stepwise oracle, run once per stripe of the self-check
    names = ["encode_matrix", "repair_matrix", "invert", "encode_all"]
    counts = count_calls(monkeypatch, names)
    encode_file(tmp_path, params, data)
    assert (counts["encode_matrix"], counts["encode_all"]) == (1, 2)

    counts.update(dict.fromkeys(names, 0))
    assert main(["reconstruct", *(str(shards[j]) for j in (2, 4, 7)), "-o", str(tmp_path / "o")]) == 0
    assert (counts["encode_matrix"], counts["invert"], counts["encode_all"]) == (1, 1, 2)

    counts.update(dict.fromkeys(names, 0))
    helpers = [str(shards[h]) for h in (1, 2, 4, 5, 6, 7)]
    assert main(["repair", *helpers, "-f", "3", "--out", str(tmp_path / "r")]) == 0
    assert (counts["repair_matrix"], counts["encode_all"], counts["encode_matrix"]) == (1, 2, 0)
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
    assume(not params.power_collisions())
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
    real = getattr(striping, name)

    def skewed(*args):
        out = real(*args)
        data = np.array(getattr(out, "data", out))
        data[0, 0] += 1
        return Matrix(out.field, data) if isinstance(out, Matrix) else data

    monkeypatch.setattr(striping, name, skewed)
    with pytest.raises(InconsistencyError, match="disagree on stripe"):
        kernels[name]()


# ---------------------------------------------------------------------------
# streaming reader and writer
# ---------------------------------------------------------------------------


def test_reader_batches_and_crc_match_the_whole_payload(tmp_path):
    params = derive_params(3, 2, 7)
    symbols = np.random.default_rng(3).integers(0, params.q, (7, params.alpha))
    path = tmp_path / "s"
    write_shard(path, header_for(params, 2, 80), symbols)
    with ShardReader(path) as reader:
        parts = [reader.read(3), reader.read(3), reader.read(1)]
        crc = reader.crc
    assert np.array_equal(np.concatenate(parts), read_shard(path)[1])
    assert crc == payload_crc(symbols)


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
    with ShardWriter(tmp_path / "s", header) as writer:
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
    params = derive_params(3, 2, 7)
    shard = tmp_path / "s"
    write_shard(shard, header_for(params, 1, 20), np.zeros((2, params.alpha), dtype=np.int64))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen(["cp", str(shard), str(fifo)])
    try:
        with pytest.raises(ShardFormatError, match="fifo: not a regular file"):
            ShardReader(fifo)
    finally:
        writer.wait(timeout=30)


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
