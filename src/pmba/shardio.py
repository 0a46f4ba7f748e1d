"""Binary shard files and the plain-text manifest sidecar.

A shard file is a fixed header (magic, version, code parameters, node
identity, stripe count, original byte length, evaluation points) followed
by stripe_count * alpha symbols of two little-endian bytes each. Any k
shard files whose headers match except for the node index are mutually
decodable.

`ShardReader` checks a file's header and payload length on open and then
reads the payload in batches of whole stripes; `ShardWriter` writes the
header and then appended batches. Both keep a running CRC-32 of the
payload bytes, so a file is never held in memory whole. Every write goes
to a temp file in the target directory that is synced to disk and renamed
into place, so a crash never leaves a truncated file behind.
"""

from __future__ import annotations

import os
import stat
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import CodeParams, derive_params

MAGIC = b"PMBA"
FORMAT_VERSION = 1
_FIXED = struct.Struct("<4sBHHHHIQQ")
MAX_HEADER_Q = 65535  # q occupies two bytes, as does every payload symbol


class ShardFormatError(ValueError):
    """A shard or manifest file is malformed or inconsistent."""


@dataclass(frozen=True)
class ShardHeader:
    q: int
    n: int
    k: int
    delta: int
    node_index: int
    stripe_count: int
    original_length: int
    eval_points: tuple

    def code_key(self) -> tuple:
        """Everything that must match across mutually decodable shards."""
        return (
            self.q,
            self.n,
            self.k,
            self.delta,
            self.stripe_count,
            self.original_length,
            self.eval_points,
        )


def header_for(
    params: CodeParams, node_index: int, stripe_count: int, original_length: int
) -> ShardHeader:
    if params.q > MAX_HEADER_Q:
        raise ValueError(
            f"q = {params.q} does not fit the two-byte shard header field "
            f"(max {MAX_HEADER_Q})"
        )
    return ShardHeader(
        q=params.q,
        n=params.n,
        k=params.k,
        delta=params.delta,
        node_index=node_index,
        stripe_count=stripe_count,
        original_length=original_length,
        eval_points=params.eval_points,
    )


def shard_params(header: ShardHeader) -> CodeParams:
    try:
        return derive_params(
            header.k,
            header.delta,
            header.n,
            q=header.q,
            eval_points=header.eval_points,
        )
    except ValueError as exc:
        raise ShardFormatError(f"shard header is invalid: {exc}") from None


def pack_header(header: ShardHeader) -> bytes:
    fixed = _FIXED.pack(
        MAGIC,
        FORMAT_VERSION,
        header.q,
        header.n,
        header.k,
        header.delta,
        header.node_index,
        header.stripe_count,
        header.original_length,
    )
    points = struct.pack(f"<{header.n}H", *header.eval_points)
    return fixed + points


def _fsync_dir(directory) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class AtomicFile:
    """A binary file that replaces `path` only once it is complete.

    Data go to a temp file in the target directory. `commit` gives it the
    mode open() would give a new file under the current umask, syncs it to
    disk, renames it into place and syncs the directory; `discard` removes
    it. As a context manager it commits on a clean exit and discards on an
    exception.
    """

    def __init__(self, path):
        self.path = Path(path)
        fd, self._tmp = tempfile.mkstemp(dir=self.path.parent, prefix=f".{self.path.name}.")
        self._fh = os.fdopen(fd, "wb")

    def write(self, data) -> None:
        self._fh.write(data)

    def commit(self) -> None:
        try:
            self._fh.flush()
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(self._fh.fileno(), 0o666 & ~umask)
            os.fsync(self._fh.fileno())
            self._fh.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.discard()
            raise
        _fsync_dir(self.path.parent)

    def discard(self) -> None:
        self._fh.close()
        if os.path.exists(self._tmp):
            os.unlink(self._tmp)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def atomic_write_bytes(path, data: bytes) -> None:
    with AtomicFile(path) as fh:
        fh.write(data)


def symbols_from_payload(payload, alpha: int) -> np.ndarray:
    """(stripes, alpha) int64 symbols from payload bytes of whole stripes."""
    return np.frombuffer(payload, dtype="<u2").astype(np.int64).reshape(-1, alpha)


class ShardWriter(AtomicFile):
    """A shard file written as its header, then appended (stripes, alpha)
    payload batches, each checked for shape and range.

    `crc` is the running CRC-32 of the payload written so far. The file is
    committed on a clean exit only once the batches add up to the header's
    stripe count.
    """

    def __init__(self, path, header: ShardHeader):
        self.header = header
        self.alpha = shard_params(header).alpha
        self.stripes = self.crc = 0
        super().__init__(path)
        super().write(pack_header(header))

    def write(self, symbols: np.ndarray) -> None:
        expected = (self.header.stripe_count - self.stripes, self.alpha)
        if symbols.ndim != 2 or symbols.shape[0] > expected[0] or symbols.shape[1] != expected[1]:
            raise ValueError(f"payload shape {symbols.shape} does not match {expected}")
        if symbols.size and int(symbols.max()) >= self.header.q:
            raise ValueError(f"payload symbol >= q = {self.header.q}")
        payload = np.ascontiguousarray(symbols, dtype="<u2")
        self.crc = zlib.crc32(payload, self.crc)
        super().write(payload)
        self.stripes += symbols.shape[0]

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.stripes != self.header.stripe_count:
            self.discard()
            raise ValueError(
                f"payload shape {(self.stripes, self.alpha)} does not match "
                f"{(self.header.stripe_count, self.alpha)}"
            )
        super().__exit__(exc_type, exc, tb)


def write_shard(path, header: ShardHeader, symbols: np.ndarray) -> None:
    """symbols: (stripe_count, alpha) array of values < q."""
    with ShardWriter(path, header) as writer:
        writer.write(symbols)


class ShardReader:
    """An open shard file whose header and payload length have been checked.

    The payload is read in batches of whole stripes; each batch is checked
    symbol by symbol against q, and `crc` is the running CRC-32 of the
    payload read so far.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self.header = self._read_header()
        except BaseException:
            self._fh.close()
            raise
        self.alpha = shard_params(self.header).alpha
        self.crc = 0

    def _read_header(self) -> ShardHeader:
        path = self.path
        fixed = self._fh.read(_FIXED.size)
        if len(fixed) < _FIXED.size:
            raise ShardFormatError(f"{path}: too short to be a shard file")
        magic, version, q, n, k, delta, node_index, stripe_count, original_length = (
            _FIXED.unpack(fixed)
        )
        if magic != MAGIC:
            raise ShardFormatError(f"{path}: not a shard file (bad magic)")
        if version != FORMAT_VERSION:
            raise ShardFormatError(f"{path}: unsupported format version {version}")
        points = self._fh.read(2 * n)
        if len(points) < 2 * n:
            raise ShardFormatError(f"{path}: truncated evaluation-point table")
        header = ShardHeader(
            q=q,
            n=n,
            k=k,
            delta=delta,
            node_index=node_index,
            stripe_count=stripe_count,
            original_length=original_length,
            eval_points=struct.unpack(f"<{n}H", points),
        )
        params = shard_params(header)
        if not 1 <= node_index <= n:
            raise ShardFormatError(f"{path}: node index {node_index} outside 1..{n}")
        st = os.fstat(self._fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ShardFormatError(f"{path}: not a regular file, so its length is unknown")
        payload = st.st_size - _FIXED.size - 2 * n
        expected = stripe_count * params.alpha * 2
        if payload != expected:
            raise ShardFormatError(
                f"{path}: payload holds {payload} bytes, header promises {expected}"
            )
        return header

    def read(self, stripes: int) -> bytes:
        """The next `stripes` stripes of payload, as little-endian bytes."""
        want = stripes * self.alpha * 2
        payload = self._fh.read(want)
        if len(payload) != want:
            raise ShardFormatError(f"{self.path}: payload shrank while being read")
        if payload and int(np.frombuffer(payload, dtype="<u2").max()) >= self.header.q:
            raise ShardFormatError(f"{self.path}: payload symbol >= q = {self.header.q}")
        self.crc = zlib.crc32(payload, self.crc)
        return payload

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_shard(path):
    """Returns (header, symbols) after validating the whole file."""
    with ShardReader(path) as reader:
        payload = reader.read(reader.header.stripe_count)
        return reader.header, symbols_from_payload(payload, reader.alpha)


def payload_crc(symbols: np.ndarray) -> int:
    return zlib.crc32(symbols.astype("<u2").tobytes()) & 0xFFFFFFFF


def write_manifest(path, original_name: str, params: CodeParams, header0: ShardHeader, shard_entries) -> None:
    """shard_entries: iterable of (node_index, file_name, crc32)."""
    lines = [
        f"file={original_name}",
        f"length_bytes={header0.original_length}",
        f"q={params.q}",
        f"n={params.n}",
        f"k={params.k}",
        f"delta={params.delta}",
    ]
    for node_index, file_name, crc in shard_entries:
        lines.append(f"shard{node_index:02d}.file={file_name}")
        lines.append(f"shard{node_index:02d}.crc32={crc:08x}")
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_manifest(path) -> dict:
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ShardFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries
