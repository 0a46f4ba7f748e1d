"""Binary shard files and the plain-text manifest sidecar.

A shard file is a fixed header (magic, version, code parameters, node
identity, stripe count, original byte length, evaluation points) followed
by stripe_count * alpha symbols of two little-endian bytes each. Any k
shard files whose headers match except for the node index are mutually
decodable.

One rule, `_check_regular`, judges every file a command reads or writes.
Every file it reads (a shard, a manifest, `encode`'s input) opens
through `open_regular`, which refuses anything but a regular file, a FIFO
with no writer too, before a byte is read. Every file it writes must be
absent or a regular file, symlinks followed: `AtomicFile` refuses any
other target before it makes a temp file or directory, and `atomic_set`
again just before it moves the target aside.
`ShardReader` checks a file's header and payload length on open and then
reads the payload in batches of whole stripes, each into the one buffer
it holds; `ShardWriter` writes the
header and then appended batches, so a file is never held in memory whole,
and keeps a CRC-32 of its payload only when constructed with `crc=True`.
Every write goes to a temp file in the
target directory that is synced to disk and renamed into place, so a crash
never leaves a truncated file behind; a missing target directory is
created, and synced into its parent with the file, or removed again, if
left empty, when the write fails. Each write also asks the kernel to start
writing its bytes back to disk at once, without waiting (Linux
`sync_file_range`; elsewhere, or where the file refuses it, nothing
happens), so disk I/O overlaps encoding and dirty page cache does not grow
to a whole shard set before the commit. The `fsync` at commit is still
what makes a file durable.
`atomic_set` renames several such files as one set. `ShardSet` opens the
shards of one encoding, reads only the nodes a command asks for, in the
one batch size of every command that streams a file (`batch_stripes`:
BATCH_SYMBOLS source symbols in whole stripes), and checks a manifest's
code fields at open and its CRC-32s after the last batch. It keeps the
CRC-32s of its reads only where something reads them: when the set has a
manifest to compare with, or when the caller asks for them to print (`verify`).
Every CRC-32 is `crc32`, bound once at import: libdeflate's where the
host has libdeflate.so.0, else `zlib.crc32`. Both give the same values, so
no option selects one.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import itertools
import os
import stat
import struct
import tempfile
import zlib
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .params import CodeParams, derive_params

MAGIC = b"PMBA"
FORMAT_VERSION = 1
_FIXED = struct.Struct("<4sBHHHHIQQ")
BATCH_SYMBOLS = 2**18  # source symbols per batch when a command streams a file


class ShardFormatError(ValueError):
    """A shard or manifest file is malformed or inconsistent."""


@dataclass(frozen=True)
class ShardHeader:
    """A shard file's header fields, in the order the file stores them."""

    q: int
    n: int
    k: int
    delta: int
    node_index: int
    stripe_count: int
    original_length: int
    eval_points: tuple

    def code_key(self) -> tuple:
        """Everything that must match across mutually decodable shards: every
        field but `node_index`."""
        return (
            self.q, self.n, self.k, self.delta,
            self.stripe_count, self.original_length, self.eval_points,
        )


def header_for(params: CodeParams, node_index: int, original_length: int) -> ShardHeader:
    return ShardHeader(
        q=params.q,
        n=params.n,
        k=params.k,
        delta=params.delta,
        node_index=node_index,
        stripe_count=params.file_stripes(original_length),
        original_length=original_length,
        eval_points=params.eval_points,
    )


def shard_params(header: ShardHeader, path) -> CodeParams:
    """The code of a v1 header; refuses, naming `path`, an invalid code, a
    node index outside 1..n or a stripe count other than file_stripes."""
    try:
        params = derive_params(
            header.k,
            header.delta,
            header.n,
            q=header.q,
            eval_points=header.eval_points,
        )
        params.check_nodes([header.node_index])
    except ValueError as exc:
        raise ShardFormatError(f"{path}: shard header is invalid: {exc}") from None
    stripes = params.file_stripes(header.original_length)
    if header.stripe_count != stripes:
        raise ShardFormatError(
            f"{path}: header records {header.stripe_count} stripes, but "
            f"its length of {header.original_length} bytes takes {stripes}"
        )
    return params


def pack_header(header: ShardHeader) -> bytes:
    *fixed, points = astuple(header)
    return _FIXED.pack(MAGIC, FORMAT_VERSION, *fixed) + struct.pack(f"<{header.n}H", *points)


def _resolve_sync_file_range():
    """libc's sync_file_range, or None where it has none (not Linux)."""
    try:
        call = ctypes.CDLL(None, use_errno=True).sync_file_range
    except (AttributeError, OSError, TypeError):
        return None
    call.argtypes = (ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint)
    call.restype = ctypes.c_int
    return call


_sync_file_range = _resolve_sync_file_range()
_SYNC_FILE_RANGE_WRITE = 2


def _resolve_crc32():
    """libdeflate's CRC-32, or `zlib.crc32` itself where libdeflate.so.0 does
    not load, lacks the function or gives a wrong check value. Both compute
    the same CRC-32, zlib's; libdeflate folds with carry-less multiplies
    (PCLMULQDQ) where the CPU has them, several times faster than zlib."""
    try:
        call = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (AttributeError, OSError):
        return zlib.crc32
    call.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    call.restype = ctypes.c_uint32

    def crc32(data, crc=0):
        """The CRC-32 of the bytes of `data` continued from `crc`, as
        `zlib.crc32(data, crc)` gives it. A buffer that is not C-contiguous
        is refused (ValueError or BufferError), not copied."""
        view = np.frombuffer(data, dtype=np.uint8)
        return call(crc, view.ctypes.data, view.size)

    return crc32 if crc32(b"123456789") == 0xCBF43926 else zlib.crc32


crc32 = _resolve_crc32()


def _start_write_back(fd: int, offset: int, nbytes: int) -> None:
    """Start writing bytes [offset, offset + nbytes) of `fd` back to disk,
    without waiting. A length of 0 would mean "to the end of the file", so
    an empty range starts nothing; a refusal (-1: ESPIPE, EINVAL, ENOSYS) is
    ignored, since the fsync at commit writes back whatever is left."""
    if nbytes and _sync_file_range is not None:
        _sync_file_range(fd, offset, nbytes, _SYNC_FILE_RANGE_WRITE)


def _check_regular(path, mode: int, refuse=ValueError) -> None:
    """Refuse, as `refuse` naming `path`, a file whose `st_mode` is not a
    regular file's: the one rule for every file a command reads or writes."""
    if not stat.S_ISREG(mode):
        raise refuse(f"{path}: not a regular file")


def _check_output(path) -> None:
    """Refuse an output target that exists, symlinks followed, and is not a
    regular file; an absent target, or a dangling symlink, is fine."""
    with contextlib.suppress(FileNotFoundError):
        _check_regular(path, os.stat(path).st_mode)


def open_regular(path, refuse=ValueError):
    """`path` opened for binary reading; anything but a regular file is
    refused as `refuse`, naming it, before a byte is read. The open does
    not block (O_NONBLOCK), so a FIFO with no writer is refused, not waited on."""

    def opener(name, flags):
        fd = os.open(name, flags | getattr(os, "O_NONBLOCK", 0))
        try:
            _check_regular(path, os.fstat(fd).st_mode, refuse)
        except refuse:
            os.close(fd)
            raise
        return fd

    return open(path, "rb", opener=opener)


_NAME_MAX = 255  # bytes in one file name, on every common Linux file system
_TEMP_EXTRA = len("..XXXXXXXX.old")  # what a temp file and its set-aside add


def _temp_prefix(path: Path) -> str:
    """mkstemp's prefix for the temp file of `path`: `.<name>.`, the name cut
    back to a UTF-8 character boundary where needed so that the temp file
    (8 random characters more) and its `.old` stay within _NAME_MAX bytes.
    A name longer than _NAME_MAX bytes itself is refused, naming `path`."""
    name = os.fsencode(path.name)
    if len(name) > _NAME_MAX:
        raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(path))
    cut = _NAME_MAX - _TEMP_EXTRA
    if len(name) > cut:
        while cut and name[cut] & 0xC0 == 0x80:  # a UTF-8 continuation byte
            cut -= 1
        name = name[:cut]
    return f".{os.fsdecode(name)}."


def _fsync_dir(directory) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class AtomicFile(contextlib.AbstractContextManager):
    """A binary file that replaces `path` only once it is complete.

    A `path` that exists and is not a regular file, symlinks followed, or
    whose name exceeds _NAME_MAX bytes, is refused before anything is made.
    Data go to a temp file, named after `path` cut short, in the target
    directory, which is created, with any missing parents, if it does not
    exist. `sync` gives the temp file
    the mode open() would give a new file under the current umask, syncs it
    to disk and closes it; `commit` renames it into place through
    `atomic_set`; `discard` removes it and then each directory it created
    that is left empty. As a context manager it commits on a clean exit and
    discards on an exception. Each `write` is flushed and its bytes' write-back
    started at once, so that `sync` finds them mostly on disk already.
    """

    def __init__(self, path):
        self.path = Path(path)
        _check_output(self.path)
        prefix = _temp_prefix(self.path)
        # the directories this file creates, deepest first
        self._created = list(itertools.takewhile(lambda d: not d.exists(), self.path.parents))
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, self._tmp = tempfile.mkstemp(dir=self.path.parent, prefix=prefix)
        except OSError:
            _remove_empty_dirs([self])
            raise
        self._fh = os.fdopen(fd, "wb")
        self._size = 0  # bytes written so far

    def write(self, data) -> None:
        nbytes = self._fh.write(data)
        self._fh.flush()
        _start_write_back(self._fh.fileno(), self._size, nbytes)
        self._size += nbytes

    def sync(self) -> None:
        self._fh.flush()
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(self._fh.fileno(), 0o666 & ~umask)
        os.fsync(self._fh.fileno())
        self._fh.close()

    def commit(self) -> None:
        with atomic_set() as files:
            files.append(self)

    def discard(self) -> None:
        self._fh.close()
        if os.path.exists(self._tmp):
            os.unlink(self._tmp)
        _remove_empty_dirs([self])

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def _remove_empty_dirs(files) -> None:
    """Remove the directories the AtomicFiles created, deepest first, each
    only if it is empty; directories that existed before are never touched."""
    created = {d for f in files for d in f._created}
    for directory in sorted(created, key=lambda d: len(d.parts), reverse=True):
        with contextlib.suppress(OSError):  # not empty: it holds something else
            os.rmdir(directory)


@contextlib.contextmanager
def atomic_set():
    """Yield a list to fill with AtomicFiles that replace their paths as one set.

    On a clean exit every file is synced, then in list order each target
    is judged again by `_check_output`, moved aside if it exists and the
    file renamed into place; each target directory, and the parent of each
    directory a file created, is synced once, and only then are the
    set-aside files removed. On any failure, a target that is no longer
    absent or a regular file too, every temp file is discarded, every file
    already renamed is removed and every set-aside file is put back, so the
    older set is left as it was; then each directory a file created is
    removed, deepest first, if empty.
    """
    files, renamed, asides = [], [], []
    try:
        yield files
        for f in files:
            f.sync()
        for f in files:
            _check_output(f.path)
            if os.path.lexists(f.path):
                aside = f"{f._tmp}.old"
                os.replace(f.path, aside)
                asides.append((aside, f.path))
            os.replace(f._tmp, f.path)
            renamed.append(f.path)
        dirs = [d for f in files for d in (f.path.parent, *(c.parent for c in f._created))]
        for directory in dict.fromkeys(dirs):
            _fsync_dir(directory)
    except BaseException:
        for f in files:
            f.discard()
        for path in renamed:
            os.unlink(path)
        for aside, path in asides:
            os.replace(aside, path)
        _remove_empty_dirs(files)  # now that no file of the set is left in them
        raise
    for aside, _ in asides:
        os.unlink(aside)


class ShardWriter(AtomicFile):
    """A shard file written as its header, then appended (stripes, alpha)
    payload batches, each checked for shape, integer dtype and range before
    a byte of it is written, so a file `read_shard` would refuse is never
    committed.

    The header passes `shard_params` before a temp file exists. With
    `crc=True`, `crc` is the running CRC-32 of the payload written so far;
    otherwise it is None and none is computed. Each batch's CRC-32 is one
    `crc32` call, libdeflate's or zlib's, which agree. The file syncs, and so
    commits, only once the batches add up to the header's stripe count.
    """

    def __init__(self, path, header: ShardHeader, crc=False):
        self.header = header
        self.params = shard_params(header, path)
        self.stripes = 0
        self.crc = 0 if crc else None
        super().__init__(path)
        super().write(pack_header(header))

    def write(self, symbols: np.ndarray) -> None:
        expected = (self.header.stripe_count - self.stripes, self.params.alpha)
        if symbols.ndim != 2 or symbols.shape[0] > expected[0] or symbols.shape[1] != expected[1]:
            raise ValueError(f"payload shape {symbols.shape} does not match {expected}")
        if symbols.dtype.kind not in "iu":
            raise ValueError(f"payload dtype {symbols.dtype} is not an integer dtype")
        if symbols.size and int(symbols.max()) >= self.header.q:
            raise ValueError(f"payload symbol >= q = {self.header.q}")
        if symbols.size and symbols.dtype.kind == "i" and int(symbols.min()) < 0:
            raise ValueError("payload symbol < 0")
        payload = np.ascontiguousarray(symbols, dtype="<u2")
        if self.crc is not None:
            self.crc = crc32(payload, self.crc)
        super().write(payload)
        self.stripes += symbols.shape[0]

    def sync(self) -> None:
        if self.stripes != self.header.stripe_count:
            raise ValueError(
                f"payload shape {(self.stripes, self.params.alpha)} does not match "
                f"{(self.header.stripe_count, self.params.alpha)}"
            )
        super().sync()


def write_shard(path, header: ShardHeader, symbols: np.ndarray) -> None:
    """symbols: (stripe_count, alpha) integer array of values 0..q-1."""
    with ShardWriter(path, header) as writer:
        writer.write(symbols)


class ShardReader(contextlib.AbstractContextManager):
    """An open shard file whose header and payload length have been checked.

    The payload is read in batches of whole stripes, each into the same
    buffer, so a batch is valid only until the next `read`; each batch is
    checked symbol by symbol against q, and `stripes` is the number of
    stripes read.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open_regular(path, ShardFormatError)
        try:
            self.header = self._read_header()
        except BaseException:
            self._fh.close()
            raise
        self.stripes = 0
        self._buffer = np.empty(0, dtype=np.uint8)  # the payload bytes of the last batch

    def _read_header(self) -> ShardHeader:
        path = self.path
        fixed = self._fh.read(_FIXED.size)
        if len(fixed) < _FIXED.size:
            raise ShardFormatError(f"{path}: too short to be a shard file")
        magic, version, *fields = _FIXED.unpack(fixed)
        if magic != MAGIC:
            raise ShardFormatError(f"{path}: not a shard file (bad magic)")
        if version != FORMAT_VERSION:
            raise ShardFormatError(f"{path}: unsupported format version {version}")
        n = fields[1]  # fields are ShardHeader's, in order
        points = self._fh.read(2 * n)
        if len(points) < 2 * n:
            raise ShardFormatError(f"{path}: truncated evaluation-point table")
        header = ShardHeader(*fields, eval_points=struct.unpack(f"<{n}H", points))
        self.params = shard_params(header, path)
        payload = os.fstat(self._fh.fileno()).st_size - _FIXED.size - 2 * n
        expected = header.stripe_count * self.params.alpha * 2
        if payload != expected:
            raise ShardFormatError(
                f"{path}: payload holds {payload} bytes, header promises {expected}"
            )
        return header

    def read(self, stripes: int) -> np.ndarray:
        """The next `stripes` stripes of payload, as a read-only
        (stripes, alpha) array of `<u2` symbols that stays valid until the
        next `read`: every batch is read into one buffer the reader holds,
        grown only when a batch needs more."""
        remaining = self.header.stripe_count - self.stripes
        if not 0 <= stripes <= remaining:
            raise ValueError(f"{self.path}: cannot read {stripes} stripes, {remaining} remain")
        want = stripes * self.params.alpha * 2
        if self._buffer.size < want:
            self._buffer = np.empty(want, dtype=np.uint8)
        payload = self._buffer[:want]
        if self._fh.readinto(payload) != want:
            raise ShardFormatError(f"{self.path}: payload shrank while being read")
        symbols = payload.view("<u2").reshape(stripes, self.params.alpha)
        symbols.flags.writeable = False
        if symbols.size and int(symbols.max()) >= self.header.q:
            raise ShardFormatError(f"{self.path}: payload symbol >= q = {self.header.q}")
        self.stripes += stripes
        return symbols

    def close(self) -> None:
        self._fh.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_shard(path):
    """Returns (header, symbols) after validating the whole file; symbols is
    a writable (stripe_count, alpha) `<u2` array, the dtype the striping
    kernels return and take."""
    with ShardReader(path) as reader:
        return reader.header, reader.read(reader.header.stripe_count).copy()


def payload_crc(symbols: np.ndarray) -> int:
    return crc32(np.ascontiguousarray(symbols, dtype="<u2"))


def _manifest_code(h: ShardHeader) -> dict:
    """The code fields a manifest records, in the order it writes them."""
    return dict(length_bytes=h.original_length, q=h.q, n=h.n, k=h.k, delta=h.delta)


def manifest_file(path, original_name: str, header0: ShardHeader, shard_entries) -> AtomicFile:
    """The manifest, written into an AtomicFile left for the caller to commit.

    shard_entries: iterable of (node_index, file_name, crc32). A file name
    that holds a line break, anything `str.splitlines` splits at, or that is
    not UTF-8 (a file system name carrying undecodable bytes as surrogates),
    is refused before the file is made, since `read_manifest` could not read it back.
    """
    lines = [f"file={original_name}"]
    lines += [f"{key}={value}" for key, value in _manifest_code(header0).items()]
    names = [original_name]
    for node_index, file_name, crc in shard_entries:
        lines.append(f"shard{node_index:02d}.file={file_name}")
        lines.append(f"shard{node_index:02d}.crc32={crc:08x}")
        names.append(file_name)
    for name in names:
        if name.splitlines() != [name]:
            raise ValueError(f"file name {name!r} holds a line break, which a manifest cannot hold")
        try:
            name.encode()
        except UnicodeEncodeError:
            raise ValueError(f"file name {name!r} is not UTF-8, which a manifest cannot hold") from None
    text = ("\n".join(lines) + "\n").encode()
    fh = AtomicFile(path)
    fh.write(text)
    return fh


def read_manifest(path) -> dict:
    try:
        with open_regular(path) as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ShardFormatError(f"{path}: manifest is not UTF-8 text ({exc})") from None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ShardFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ShardFormatError(f"{path}:{lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


def batch_stripes(params: CodeParams) -> int:
    """Stripes per streamed batch: BATCH_SYMBOLS source symbols, at least one."""
    return max(1, BATCH_SYMBOLS // params.file_symbols)


class ShardSet(contextlib.AbstractContextManager):
    """Shard files of one encoding, one per node, opened in order through
    `ShardReader`; a header whose code disagrees with the first file's, or a
    second file for a node already held, is refused naming both files, and
    the same file given twice is read once. `header` and `params` are the
    first file's, `readers` maps each node to its reader. Every file is
    closed on exit, and at once on a refusal while opening.

    A `manifest` is read before any shard is opened and its code fields are
    compared with the first header; `batches` compares each node it read
    with the manifest's CRC-32 after the last batch, and `check_crc` any
    other node's. Values are compared as the text `manifest_file` writes.
    `crcs` maps each node to the CRC-32 of its payload read so far, one
    `crc32` call (libdeflate's or zlib's, which agree) per node and batch;
    without a manifest or `crc` it is None, and none is computed.
    """

    def __init__(self, paths, manifest=None, crc=False):
        self.manifest = manifest
        self._entries = entries = None if manifest is None else read_manifest(manifest)
        self.readers, first = {}, None
        with contextlib.ExitStack() as stack:
            for p in paths:
                reader = stack.enter_context(ShardReader(p))
                if first is None:  # the manifest and every later header must match it
                    first, code = reader, reader.header.code_key()
                    for key, want in _manifest_code(first.header).items():
                        if entries is not None and entries.get(key) != str(want):
                            raise ShardFormatError(
                                f"{manifest}: manifest {key}={entries.get(key)} does not "
                                f"match shard headers ({want})"
                            )
                elif reader.header.code_key() != code:
                    raise ShardFormatError(
                        f"{p}: header disagrees with {first.path}; shards are not from "
                        f"the same encoding"
                    )
                j = reader.header.node_index
                held = self.readers.setdefault(j, reader)
                if held is not reader:
                    reader.close()
                    if not os.path.samefile(p, held.path):
                        raise ShardFormatError(
                            f"{p} and {held.path} both claim node {j}; give one file per node"
                        )
            if not self.readers:
                raise ValueError("no shard files given")
            self.close = stack.pop_all().close
        self.header, self.params = first.header, first.params
        self.crcs = None if entries is None and not crc else dict.fromkeys(self.readers, 0)

    def batches(self, nodes=None):
        """Yield {node: (stripes, alpha) payload} for `batch_stripes` stripes
        at a time, each valid until the next, the last holding the rest,
        reading the files of `nodes` (default: every node held) in step and
        no other. A node the set does not hold is refused here, before
        anything is read."""
        nodes = self.readers if nodes is None else nodes
        missing = sorted(set(nodes) - self.readers.keys())
        if missing:
            raise ValueError(
                f"requested nodes {missing} are not among the given shards {sorted(self.readers)}"
            )
        return self._read({j: self.readers[j] for j in nodes})

    def _read(self, readers: dict):
        total, count, crcs = self.header.stripe_count, batch_stripes(self.params), self.crcs
        for start in range(0, total, count):
            batch = {j: reader.read(min(count, total - start)) for j, reader in readers.items()}
            if crcs is not None:
                crcs.update((j, crc32(symbols, crcs[j])) for j, symbols in batch.items())
            yield batch
        if self.manifest is not None:
            for j, reader in sorted(readers.items()):
                self.check_crc(j, crcs[j], reader.path)

    def check_crc(self, j: int, crc: int, path) -> None:
        """Refuse, naming `path`, a CRC-32 other than the manifest's for node j,
        or a manifest with no line for it."""
        key = f"shard{j:02d}.crc32"
        if key not in self._entries:
            raise ShardFormatError(f"{path}: manifest {self.manifest} has no {key} line")
        if self._entries[key] != f"{crc:08x}":
            raise ShardFormatError(
                f"{path}: crc32 {crc:08x} does not match manifest {self._entries[key]}"
            )

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
