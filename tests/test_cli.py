# tests/test_cli.py
#
# Every test drives main(argv) in-process and checks exit codes, streams
# and the bytes that land on disk. Exit codes: 0 ok, 1 usage, 2 bad data.
import dataclasses
import shutil
import sys

import numpy as np
import pytest

from pmba import reconstructor, shardio, striping
from pmba.cli import main
from pmba.cluster import CSV_HEADER, Cluster
from pmba.encoder import build_message_matrix, encode_all
from pmba.matrix import Matrix
from pmba.params import derive_params
from pmba.repairer import make_repair_bundle
from pmba.shardio import ShardReader, header_for, pack_header, read_shard, write_shard

CODE_FLAGS = ["--k", "3", "--delta", "2", "--n", "7"]


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    """A 1000-byte file encoded once; tests copy what they mutate."""
    root = tmp_path_factory.mktemp("enc")
    data = bytes(np.random.default_rng(47).integers(0, 256, size=1000, dtype=np.uint8))
    src = root / "data.bin"
    src.write_bytes(data)
    out_dir = root / "shards"
    rc = main(["encode", str(src), "--out-dir", str(out_dir), *CODE_FLAGS])
    assert rc == 0
    return data, src, out_dir


def shard_path(out_dir, j):
    return out_dir / f"data.bin.shard{j:02d}"


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_writes_all_shards_and_a_manifest(encoded, capsys):
    data, src, out_dir = encoded
    capsys.readouterr()
    for j in range(1, 8):
        assert shard_path(out_dir, j).is_file()
    assert (out_dir / "data.bin.manifest").is_file()
    header, symbols = read_shard(shard_path(out_dir, 1))
    assert (header.q, header.n, header.k, header.delta) == (257, 7, 3, 2)
    assert header.original_length == 1000
    assert header.stripe_count == 84  # ceil(1000 / 12)
    assert symbols.shape == (84, 4)


def test_encode_reports_progress(tmp_path, capsys):
    src = tmp_path / "tiny.bin"
    src.write_bytes(b"abc")
    rc = main(["encode", str(src), "-o", str(tmp_path / "out"), *CODE_FLAGS])
    out = capsys.readouterr().out
    assert rc == 0
    assert "encoded 3 bytes into 7 shards" in out
    assert out.count("wrote") == 8  # 7 shards + 1 manifest


def test_encode_refuses_q_too_large_for_the_header(tmp_path, capsys):
    src = tmp_path / "x.bin"
    src.write_bytes(b"x")
    rc = main(
        ["encode", str(src), "-o", str(tmp_path), "--k", "3", "--delta", "2",
         "--n", "7", "--q", "65537"]
    )
    assert rc == 1
    assert "does not fit the two-byte shard header field" in capsys.readouterr().err


def test_encode_refuses_a_wide_q_before_writing_anything(tmp_path, capsys):
    src = tmp_path / "x.bin"
    src.write_bytes(b"x" * 100)
    out_dir = tmp_path / "sh"
    rc = main(["encode", str(src), "-o", str(out_dir), *CODE_FLAGS, "--q", "65537"])
    assert rc == 1
    assert "does not fit the two-byte shard header field" in capsys.readouterr().err
    assert not out_dir.exists()


def test_encode_refuses_q_too_small_for_bytes(tmp_path, capsys):
    src = tmp_path / "x.bin"
    src.write_bytes(b"x")
    rc = main(
        ["encode", str(src), "-o", str(tmp_path), "--k", "3", "--delta", "2",
         "--n", "7", "--q", "11"]
    )
    assert rc == 1
    assert "cannot carry byte payloads" in capsys.readouterr().err


def test_encode_refuses_a_code_whose_points_share_a_power(tmp_path, capsys):
    # 16^4 = 1 mod 257: nodes 1 and 16 (and 15 and 17) would refuse to
    # reconstruct together, so the code is not MDS and must not be written
    src = tmp_path / "f.bin"
    src.write_bytes(b"x" * 100)
    out_dir = tmp_path / "sh"
    rc = main(
        ["encode", str(src), "-o", str(out_dir), "--k", "5", "--delta", "3", "--n", "17", "--q", "257"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "q = 257" in err and "{1,16}" in err and "{15,17}" in err
    assert not out_dir.exists()


def test_encode_refuses_composite_q(tmp_path, capsys):
    src = tmp_path / "x.bin"
    src.write_bytes(b"x")
    rc = main(
        ["encode", str(src), "-o", str(tmp_path), "--k", "3", "--delta", "2",
         "--n", "7", "--q", "1000"]
    )
    assert rc == 1
    assert "q must be prime" in capsys.readouterr().err


@pytest.mark.skipif(sys.platform != "linux", reason="needs file names of any bytes but / and NUL")
@pytest.mark.parametrize(
    "name, message",
    [
        # read_manifest splits lines with str.splitlines, so each would break the manifest
        *((name, f"file name {name!r} holds a line break") for name in
          ["a\x0cq=11", "a\nb", "a\rb", "a\x1eb", "a\u2028b", "a\x85"]),
        # the byte 0xff, which UTF-8 text cannot hold
        ("\udcff.bin", "'utf-8' codec can't encode character '\\udcff'"),
    ],
)
def test_encode_refuses_an_input_name_its_manifest_could_not_hold(name, message, tmp_path, capsys):
    src = tmp_path / name
    src.write_bytes(bytes(100))
    rc = main(["encode", str(src), "-o", str(tmp_path / "new" / "s"), *CODE_FLAGS])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [src]  # no shard, temp file or created directory


def test_encode_missing_input_file(tmp_path, capsys):
    rc = main(["encode", str(tmp_path / "ghost.bin"), "-o", str(tmp_path), *CODE_FLAGS])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_defaults_to_the_lowest_k_nodes(encoded, tmp_path, capsys):
    data, _, out_dir = encoded
    out = tmp_path / "back.bin"
    shards = [str(shard_path(out_dir, j)) for j in range(1, 8)]
    rc = main(["reconstruct", *shards, "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == data
    assert "from nodes [1, 2, 3]" in capsys.readouterr().out


def test_reconstruct_from_any_chosen_k_subset(encoded, tmp_path):
    data, _, out_dir = encoded
    for nodes in ((2, 5, 7), (1, 4, 6), (3, 5, 6)):
        out = tmp_path / ("back" + "".join(map(str, nodes)))
        shards = [str(shard_path(out_dir, j)) for j in nodes]
        rc = main(
            ["reconstruct", *shards, "-o", str(out), "--nodes", ",".join(map(str, nodes))]
        )
        assert rc == 0
        assert out.read_bytes() == data


def counted_reads(monkeypatch):
    """The node of every ShardReader.read call from here on."""
    nodes = []
    real = ShardReader.read
    monkeypatch.setattr(
        ShardReader, "read", lambda self, n: (nodes.append(self.header.node_index), real(self, n))[1]
    )
    return nodes


def test_reconstruct_reads_only_the_chosen_nodes(encoded, tmp_path, monkeypatch):
    data, _, out_dir = encoded
    out = tmp_path / "picked.bin"
    reads = counted_reads(monkeypatch)
    shards = [str(shard_path(out_dir, j)) for j in range(1, 8)]
    assert main(["reconstruct", *shards, "--nodes", "2,5,7", "-o", str(out)]) == 0
    assert out.read_bytes() == data
    assert reads and set(reads) == {2, 5, 7}


def test_reconstruct_node_selection_errors(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    shards = [str(shard_path(out_dir, j)) for j in (1, 2, 4)]
    out = str(tmp_path / "o")

    rc = main(["reconstruct", *shards, "-o", out, "--nodes", "1,2"])
    assert rc == 1
    assert "need exactly k = 3 node payloads, got 2" in capsys.readouterr().err

    rc = main(["reconstruct", *shards, "-o", out, "--nodes", "1,2,5"])
    assert rc == 1
    assert "requested nodes [5] are not among the given shards [1, 2, 4]" in (
        capsys.readouterr().err
    )

    rc = main(["reconstruct", shards[0], shards[1], "-o", out])
    assert rc == 1
    assert "need exactly k = 3 node payloads, got 2" in capsys.readouterr().err

    # a repeated node is refused, not dropped
    rc = main(["reconstruct", *shards, "-o", out, "--nodes", "1,1,2,4"])
    assert rc == 1
    assert "need exactly k = 3 node payloads, got 4" in capsys.readouterr().err
    rc = main(["reconstruct", *shards, "-o", out, "--nodes", "4,1,1"])
    assert rc == 1
    assert "node indices must be distinct, got [1, 1, 4]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("nodes", ["1,x", "1,2,3,", ""])
def test_reconstruct_names_a_malformed_node_list(nodes, encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    shards = [str(shard_path(out_dir, j)) for j in (1, 2, 3)]
    rc = main(["reconstruct", *shards, "-o", str(tmp_path / "o"), "--nodes", nodes])
    assert rc == 1
    assert f"--nodes takes comma-separated node indices, got {nodes!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reconstruct_deduplicates_repeated_files(encoded, tmp_path):
    data, _, out_dir = encoded
    out = tmp_path / "dedup.bin"
    shards = [str(shard_path(out_dir, j)) for j in (1, 1, 2, 3)]
    rc = main(["reconstruct", *shards, "-o", str(out)])
    assert rc == 0
    assert out.read_bytes() == data


def test_conflicting_duplicates_are_a_data_error(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    imposter = tmp_path / "data.bin.shard01"
    header, symbols = read_shard(shard_path(out_dir, 1))
    forged = symbols.copy()
    forged[0, 0] = (forged[0, 0] + 1) % header.q
    write_shard(imposter, header, forged)
    rc = main(
        ["reconstruct", str(shard_path(out_dir, 1)), str(imposter),
         str(shard_path(out_dir, 2)), str(shard_path(out_dir, 3)),
         "-o", str(tmp_path / "o")]
    )
    assert rc == 2
    assert f"{imposter} and {shard_path(out_dir, 1)} both claim node 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mixed_encodings_are_refused(encoded, tmp_path, capsys):
    data, src, out_dir = encoded
    other_dir = tmp_path / "other"
    rc = main(
        ["encode", str(src), "-o", str(other_dir), "--k", "3", "--delta", "1", "--n", "7"]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        ["reconstruct", str(shard_path(out_dir, 1)), str(shard_path(out_dir, 2)),
         str(other_dir / "data.bin.shard03"), "-o", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "not from the same encoding" in capsys.readouterr().err


def test_reconstruct_names_a_colliding_subset(tmp_path, capsys):
    # q = 11 squares nodes 4 and 7 alike, so nodes 4, 5 and 7 hold too
    # little to decode: a usage error naming the pair, not a data error
    params = derive_params(3, 2, 7, q=11)
    source = np.random.default_rng(59).integers(0, 11, size=(2, params.file_symbols))
    coded = striping.encode_stripes(source, params)
    paths = []
    for j in (4, 5, 7):
        paths.append(str(tmp_path / f"x.shard{j:02d}"))
        write_shard(paths[-1], header_for(params, j, 2 * params.file_symbols), coded[j - 1])
    rc = main(["reconstruct", *paths, "-o", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "q = 11 gives nodes {4,7} the same (k-1)-th power" in err
    assert not (tmp_path / "o").exists()


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("command", ["reconstruct", "repair"])
def test_an_output_that_is_an_input_shard_is_refused(command, encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    work = tmp_path / "s"
    shutil.copytree(out_dir, work)
    before = snapshot(work)
    if command == "reconstruct":
        inputs, target = (1, 2, 3), shard_path(work, 1)
        extra = []
    else:
        inputs, target = (1, 2, 3, 4), shard_path(work, 2)
        extra = ["-f", "7"]
    rc = main([command, *(str(shard_path(work, j)) for j in inputs), *extra, "--out", str(target)])
    assert rc == 1
    assert f"{target} is the input shard {target}" in capsys.readouterr().err
    assert snapshot(work) == before  # nothing changed, and no temp file left


@pytest.mark.parametrize("command", ["reconstruct", "repair"])
def test_an_output_that_is_the_manifest_is_refused(command, encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    work = tmp_path / "s"
    shutil.copytree(out_dir, work)
    before = snapshot(work)
    manifest = work / "data.bin.manifest"
    inputs, extra = ((1, 2, 3), []) if command == "reconstruct" else ((1, 2, 3, 4), ["-f", "7"])
    argv = [command, *(str(shard_path(work, j)) for j in inputs), *extra]
    rc = main([*argv, "--out", str(manifest), "--manifest", str(manifest)])
    assert rc == 1
    assert f"{manifest} is the input manifest {manifest}" in capsys.readouterr().err
    assert snapshot(work) == before  # the manifest byte-identical, and no temp file left


@pytest.mark.parametrize("command", ["reconstruct", "repair"])
def test_an_output_that_is_a_directory_is_refused_before_decoding(
    command, encoded, tmp_path, monkeypatch, capsys
):
    _, _, out_dir = encoded
    target = tmp_path / "t"
    target.mkdir()
    reads = []
    monkeypatch.setattr(ShardReader, "read", lambda self, stripes: reads.append(stripes))
    inputs, extra = ((1, 2, 3), []) if command == "reconstruct" else ((1, 2, 3, 4), ["-f", "7"])
    rc = main([command, *(str(shard_path(out_dir, j)) for j in inputs), *extra, "--out", str(target)])
    assert rc == 1
    assert f"error: {target}: not a regular file" in capsys.readouterr().err
    assert reads == []  # refused before any payload was read
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


@pytest.mark.parametrize("command", ["encode", "reconstruct", "repair", "simulate"])
def test_an_output_goes_into_a_new_nested_directory_synced_into_its_parent(
    command, encoded, tmp_path, monkeypatch, capsys
):
    data, src, out_dir = encoded
    synced = []
    monkeypatch.setattr(shardio, "_fsync_dir", synced.append)
    new = tmp_path / "new" / "deeper"
    if command == "encode":
        argv, out, want = ["encode", str(src), "-o", str(new), *CODE_FLAGS], new, None
    elif command == "reconstruct":
        out, want = new / "out.bin", data
        argv = ["reconstruct", *(str(shard_path(out_dir, j)) for j in (1, 2, 3)), "-o", str(out)]
    elif command == "repair":
        out, want = new / "x.shard05", shard_path(out_dir, 5).read_bytes()
        argv = ["repair", *(str(shard_path(out_dir, j)) for j in (1, 2, 3, 4)), "-f", "5",
                "--out", str(out)]
    else:
        out, want = new / "drill.csv", None
        argv = ["simulate", *CODE_FLAGS, "--q", "11", "--csv", str(out)]
    assert main(argv) == 0
    assert out.exists() and (want is None or out.read_bytes() == want)
    # the new directory, then each new directory's parent, down to one that existed
    assert synced == [new, tmp_path / "new", tmp_path]


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_rebuilds_a_byte_identical_shard(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    original = shard_path(out_dir, 7).read_bytes()

    four = [str(shard_path(out_dir, j)) for j in (1, 2, 3, 4)]
    out_a = tmp_path / "from_four.shard07"
    rc = main(["repair", *four, "--failed", "7", "--out", str(out_a)])
    assert rc == 0
    assert out_a.read_bytes() == original
    assert "repaired node 7 from 4 helpers" in capsys.readouterr().out

    six = [str(shard_path(out_dir, j)) for j in (1, 2, 3, 4, 5, 6)]
    out_b = tmp_path / "from_six.shard07"
    rc = main(["repair", *six, "-f", "7", "--out", str(out_b)])
    assert rc == 0
    assert out_b.read_bytes() == original


def test_repair_derives_the_output_name(encoded, tmp_path):
    _, _, out_dir = encoded
    four = [str(shard_path(out_dir, j)) for j in (2, 3, 5, 6)]
    rc = main(["repair", *four, "-f", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    derived = tmp_path / "data.bin.shard04"
    assert derived.read_bytes() == shard_path(out_dir, 4).read_bytes()


def test_repair_takes_out_or_out_dir_not_both(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    four = [str(shard_path(out_dir, j)) for j in (1, 2, 3, 4)]
    out, other = tmp_path / "x.shard05", tmp_path / "d"
    rc = main(["repair", *four, "-f", "5", "--out", str(out), "--out-dir", str(other)])
    assert rc == 1
    assert "argument --out-dir: not allowed with argument --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_repair_needs_out_when_names_give_no_pattern(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    helpers = []
    for letter, j in zip("abcd", (1, 2, 3, 4)):
        p = tmp_path / f"helper_{letter}"
        shutil.copyfile(shard_path(out_dir, j), p)
        helpers.append(str(p))
    rc = main(["repair", *helpers, "-f", "7"])
    assert rc == 1
    assert "pass --out explicitly" in capsys.readouterr().err


def test_repair_helper_count_must_be_supported(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    five = [str(shard_path(out_dir, j)) for j in (1, 2, 3, 4, 5)]
    rc = main(["repair", *five, "-f", "7", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "valid D = {4, 6}" in capsys.readouterr().err


def test_repair_argument_errors(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    four = [str(shard_path(out_dir, j)) for j in (1, 2, 3, 4)]

    rc = main(["repair", *four, "-f", "9", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "failed index must be in 1..7" in capsys.readouterr().err

    rc = main(["repair", *four, "-f", "2", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "cannot appear among its own helpers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_ok_with_manifest(encoded, capsys):
    _, _, out_dir = encoded
    shards = [str(shard_path(out_dir, j)) for j in range(1, 8)]
    manifest = str(out_dir / "data.bin.manifest")
    rc = main(["verify", *shards, "--manifest", manifest])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verify: OK (7 shards)" in out
    assert f"manifest {manifest}: consistent" in out
    assert out.count("ok") >= 7


def test_verify_catches_a_corrupted_payload(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    work = tmp_path / "copy"
    work.mkdir()
    for j in (1, 2, 3):
        shutil.copyfile(shard_path(out_dir, j), work / shard_path(out_dir, j).name)
    shutil.copyfile(out_dir / "data.bin.manifest", work / "data.bin.manifest")

    victim = work / "data.bin.shard02"
    header, symbols = read_shard(victim)
    symbols = symbols.copy()
    symbols[3, 1] = (symbols[3, 1] + 1) % header.q
    write_shard(victim, header, symbols)

    rc = main(
        ["verify", *(str(work / f"data.bin.shard{j:02d}") for j in (1, 2, 3)),
         "--manifest", str(work / "data.bin.manifest")]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "does not match manifest" in captured.err
    assert not [line for line in captured.out.splitlines() if "shard02" in line and "ok" in line]


def test_verify_refuses_a_shard_the_manifest_does_not_list(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    manifest = tmp_path / "data.bin.manifest"
    lines = (out_dir / "data.bin.manifest").read_text().splitlines()
    manifest.write_text("\n".join(line for line in lines if not line.startswith("shard02.crc32")) + "\n")
    rc = main(
        ["verify", *(str(shard_path(out_dir, j)) for j in (1, 2, 3)),
         "--manifest", str(manifest)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "data.bin.shard02" in err and "shard02.crc32" in err


def test_verify_rejects_a_foreign_manifest(encoded, tmp_path, capsys):
    _, src, out_dir = encoded
    other = tmp_path / "other"
    assert main(["encode", str(src), "-o", str(other), "--k", "2", "--delta", "2", "--n", "5"]) == 0
    capsys.readouterr()
    rc = main(
        ["verify", str(shard_path(out_dir, 1)),
         "--manifest", str(other / "data.bin.manifest")]
    )
    assert rc == 2
    assert "does not match shard headers" in capsys.readouterr().err


def forged_manifest(out_dir, tmp_path, key, value):
    manifest = tmp_path / "data.bin.manifest"
    lines = (out_dir / "data.bin.manifest").read_text().splitlines()
    manifest.write_text("".join(
        f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n" for line in lines
    ))
    return manifest


def test_verify_names_a_manifest_that_is_not_utf8(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    manifest = tmp_path / "binary.manifest"
    manifest.write_bytes(b"\xff" * 16)
    rc = main(["verify", str(shard_path(out_dir, 1)), "--manifest", str(manifest)])
    assert rc == 2
    assert f"error: {manifest}: manifest is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_verify_refuses_an_unreadable_manifest_before_reading_a_payload(
    kind, encoded, tmp_path, capsys, monkeypatch
):
    _, _, out_dir = encoded
    manifest = tmp_path / "data.bin.manifest"
    if kind == "directory":
        manifest.mkdir()
    elif kind == "not utf-8":
        manifest.write_bytes(b"\xff" * 16)
    reads = []
    real = ShardReader.read
    monkeypatch.setattr(ShardReader, "read", lambda self, n: (reads.append(n), real(self, n))[1])
    rc = main(["verify", *(str(shard_path(out_dir, j)) for j in range(1, 8)), "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert (rc, reads, captured.out) == ((2 if kind == "not utf-8" else 1), [], "")
    assert str(manifest) in captured.err


def test_verify_refuses_a_manifest_of_another_code_before_reading_a_payload(
    encoded, tmp_path, capsys, monkeypatch
):
    _, src, out_dir = encoded
    other = tmp_path / "other"
    assert main(["encode", str(src), "-o", str(other), "--k", "2", "--delta", "2", "--n", "5"]) == 0
    capsys.readouterr()
    reads = counted_reads(monkeypatch)
    shards = [str(shard_path(out_dir, j)) for j in range(1, 8)]
    rc = main(["verify", *shards, "--manifest", str(other / "data.bin.manifest")])
    captured = capsys.readouterr()
    assert (rc, reads, captured.out) == (2, [], "")
    assert "manifest n=5 does not match shard headers (7)" in captured.err


def test_verify_refuses_a_manifest_that_repeats_a_key(encoded, tmp_path, capsys, monkeypatch):
    _, _, out_dir = encoded
    manifest = tmp_path / "data.bin.manifest"
    text = (out_dir / "data.bin.manifest").read_text()
    manifest.write_text(text.replace("shard02.crc32=", "shard02.crc32=00000000\nshard02.crc32=", 1))
    line = manifest.read_text().splitlines().index("shard02.crc32=00000000") + 2
    reads = counted_reads(monkeypatch)
    shards = [str(shard_path(out_dir, j)) for j in range(1, 8)]
    rc = main(["verify", *shards, "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert (rc, reads, captured.out) == (2, [], "")
    assert f"{manifest}:{line}: repeated key 'shard02.crc32'" in captured.err


def test_verify_names_a_manifest_whose_length_is_not_a_number(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    manifest = forged_manifest(out_dir, tmp_path, "length_bytes", "abc")
    rc = main(["verify", str(shard_path(out_dir, 1)), "--manifest", str(manifest)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{manifest}: manifest length_bytes=abc does not match shard headers (1000)" in err


def test_verify_rejects_a_manifest_whose_length_alone_differs(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    manifest = forged_manifest(out_dir, tmp_path, "length_bytes", "999")
    rc = main(["verify", *(str(shard_path(out_dir, j)) for j in range(1, 8)), "--manifest", str(manifest)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "manifest length_bytes=999 does not match shard headers (1000)" in captured.err
    assert " ok" not in captured.out


def test_verify_flags_truncated_shards(encoded, tmp_path, capsys):
    _, _, out_dir = encoded
    crippled = tmp_path / "data.bin.shard01"
    crippled.write_bytes(shard_path(out_dir, 1).read_bytes()[:-3])
    rc = main(["verify", str(crippled)])
    assert rc == 2
    assert "payload holds" in capsys.readouterr().err


@pytest.mark.parametrize("length", [10**6, 10])
def test_a_forged_length_is_refused_by_verify_and_reconstruct(length, tmp_path, capsys):
    src = tmp_path / "data.bin"
    src.write_bytes(bytes(np.random.default_rng(5).integers(0, 256, 5000, dtype=np.uint8)))
    assert main(["encode", str(src), "-o", str(tmp_path), *CODE_FLAGS]) == 0
    shards = [shard_path(tmp_path, j) for j in (1, 2, 3)]
    for path in shards:
        header, _ = read_shard(path)
        blob = path.read_bytes()
        forged = pack_header(dataclasses.replace(header, original_length=length))
        path.write_bytes(forged + blob[len(forged):])
    capsys.readouterr()
    assert main(["verify", *map(str, shards)]) == 2
    assert f"{shards[0]}: header records 417 stripes" in capsys.readouterr().err
    out = tmp_path / "out.bin"
    assert main(["reconstruct", *map(str, shards), "-o", str(out)]) == 2
    assert f"{shards[0]}: header records 417 stripes" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the self-check of each batched map
# ---------------------------------------------------------------------------


def skew_map(monkeypatch, name, row, col, module=striping):
    """Make module.<name> return its linear map with entry (row, col) one larger."""
    real = getattr(module, name)

    def skewed(*args):
        out = real(*args)
        data = np.array(out.data if isinstance(out, Matrix) else out)
        data[row, col] += 1
        return Matrix(out.field, data) if isinstance(out, Matrix) else data

    monkeypatch.setattr(module, name, skewed)


def assert_refused_at_stripe_0(rc, capsys, out_path):
    assert rc == 2
    assert "disagree on stripe 0" in capsys.readouterr().err
    assert not out_path.exists()
    assert not list(out_path.parent.glob(f".{out_path.name}.*"))


def test_encode_refuses_a_map_that_disagrees_on_stripe_0(tmp_path, monkeypatch, capsys):
    src = tmp_path / "data.bin"
    src.write_bytes(bytes(range(1, 101)))  # stripe 0 reads symbol 0 as 1
    skew_map(monkeypatch, "encode_matrix", 0, 0)
    out_dir = tmp_path / "shards"
    rc = main(["encode", str(src), "-o", str(out_dir), *CODE_FLAGS])
    assert_refused_at_stripe_0(rc, capsys, out_dir / "data.bin.shard01")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "data",
    [bytes(12) + bytes(np.random.default_rng(12).integers(0, 256, 6000, dtype=np.uint8)), b""],
    ids=["zero-stripe-0", "empty"],
)
def test_encode_refuses_a_skewed_map_whatever_the_file_holds(data, tmp_path, monkeypatch, capsys):
    src = tmp_path / "data.bin"
    src.write_bytes(data)
    skew_map(monkeypatch, "encode_matrix", 0, 0)
    out_dir = tmp_path / "shards"
    rc = main(["encode", str(src), "-o", str(out_dir), *CODE_FLAGS])
    assert_refused_at_stripe_0(rc, capsys, out_dir / "data.bin.shard01")
    assert not out_dir.exists()


def test_reconstruct_refuses_a_map_that_disagrees_on_stripe_0(encoded, tmp_path, monkeypatch, capsys):
    _, _, out_dir = encoded
    observed = np.concatenate([read_shard(shard_path(out_dir, j))[1][0] for j in (1, 2, 3)])
    # the decoder's one inverse, of A_0, runs in reconstructor.peel_maps
    skew_map(monkeypatch, "invert", 0, int(np.flatnonzero(observed)[0]), reconstructor)
    out = tmp_path / "out.bin"
    rc = main(["reconstruct", *(str(shard_path(out_dir, j)) for j in (1, 2, 3)), "-o", str(out)])
    assert_refused_at_stripe_0(rc, capsys, out)


def test_repair_refuses_a_map_that_disagrees_on_stripe_0(encoded, tmp_path, monkeypatch, capsys):
    data, _, out_dir = encoded
    params = derive_params(3, 2, 7)
    helpers = (2, 3, 4, 5)
    shards = encode_all(build_message_matrix(list(data[: params.file_symbols]), params), params)
    bundles = [make_repair_bundle(shards[h - 1], 1, len(helpers), params) for h in helpers]
    flat = [v.value for bundle in bundles for v in bundle.symbols]
    skew_map(monkeypatch, "repair_matrix", 0, next(i for i, v in enumerate(flat) if v))
    out = tmp_path / "data.bin.shard01"
    rc = main(["repair", *(str(shard_path(out_dir, h)) for h in helpers), "-f", "1", "--out", str(out)])
    assert_refused_at_stripe_0(rc, capsys, out)


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_show_prints_every_derived_quantity(capsys):
    rc = main(["params", "show", "--k", "3", "--delta", "2", "--n", "7", "--q", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "symbols per node (alpha)" in out
    assert "{4, 6}" in out
    assert "{4->2, 6->1}" in out
    assert "{4->8, 6->6}" in out


def test_params_show_names_the_colliding_nodes(capsys):
    rc = main(["params", "show", "--k", "5", "--delta", "3", "--n", "17", "--q", "257"])
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("colliding nodes")]
    assert rc == 0
    assert line and line[0].split()[-2:] == ["{1,16},", "{15,17}"]

    rc = main(["params", "show", *CODE_FLAGS])
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("colliding nodes")]
    assert rc == 0
    assert line and line[0].split()[-1] == "none"


def test_params_compare_table(capsys):
    rc = main(
        ["params", "show", "--k", "3", "--delta", "2", "--n", "14", "--q", "17",
         "--compare"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "subpacketization comparison" in out
    assert "this construction (alpha = (k-1) lcm(1..delta))  4" in out
    assert "flat construction (lcm(1..delta) ** n)           16384" in out
    assert "reduction factor                                 4096x" in out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_runs_a_seeded_drill_with_csv_on_stdout(capsys):
    rc = main(
        ["simulate", "--k", "3", "--delta", "2", "--n", "7", "--q", "11",
         "--stripes", "2", "--rounds", "3", "--seed", "5", "--csv", "-"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "stored 2 stripes on 7 nodes" in out
    assert "data intact after 3 repairs" in out
    lines = out.splitlines()
    rows = lines[lines.index(CSV_HEADER) + 1 :]
    assert len(rows) == 3
    for row in rows:
        stripe_count, f, d, helpers, moved = row.split(",")
        assert stripe_count == "2"
        assert int(d) in (4, 6)
        assert len(helpers.split(";")) == int(d)
        assert int(moved) == {4: 8, 6: 6}[int(d)]


def test_simulate_is_reproducible(capsys):
    argv = ["simulate", "--k", "3", "--delta", "2", "--n", "7", "--q", "11",
            "--seed", "9", "--csv", "-"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_writes_csv_files(tmp_path, capsys):
    csv_path = tmp_path / "ledger.csv"
    rc = main(
        ["simulate", "--k", "3", "--delta", "2", "--n", "7", "--q", "11",
         "--rounds", "2", "--csv", str(csv_path)]
    )
    assert rc == 0
    text = csv_path.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.strip().splitlines()) == 3


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--policy", "fixed:5"], "d = 5 is not a supported helper count; valid D = {4, 6}"),
        (["--csv", "."], ".: not a regular file"),
    ],
    ids=["policy", "csv"],
)
def test_simulate_refuses_bad_input_before_the_drill(
    extra, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Cluster, "store", lambda *a: pytest.fail("drill started"))
    rc = main(["simulate", *CODE_FLAGS, "--q", "11", *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""  # no stored line
    assert list(tmp_path.iterdir()) == []


def test_simulate_discards_the_ledger_when_the_data_mismatches(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(Cluster, "read_all", lambda self: [])
    rc = main(["simulate", *CODE_FLAGS, "--q", "11", "--csv", str(tmp_path / "ledger.csv")])
    assert rc == 2
    assert "error: data mismatch after repairs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no ledger and no temp file


@pytest.mark.parametrize("flag", ["--stripes", "--rounds"])
def test_simulate_refuses_negative_counts(flag, capsys):
    rc = main(["simulate", "--k", "3", "--delta", "2", "--n", "7", "--q", "11", flag, "-2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: {flag} must not be negative, got -2" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["defragment"]) == 1
    assert main([]) == 1
    assert main(["encode"]) == 1  # missing input and flags
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "encode" in capsys.readouterr().out
