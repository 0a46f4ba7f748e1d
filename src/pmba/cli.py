"""Command-line front end: split files into shards, rebuild them, repair
missing shards, verify integrity, inspect parameters, run cluster drills.

Exit codes: 0 success, 1 usage error, 2 data or verification error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import shardio, striping
from .cluster import CSV_HEADER, Cluster, HelperPolicy
from .matrix import InconsistencyError
from .params import comparison_subpacketization, derive_params
from .shardio import ShardFormatError

_SHARD_NAME = re.compile(r"^(?P<stem>.*\.shard)(?P<index>\d+)$")


def _shard_file_name(original_name: str, node_index: int) -> str:
    return f"{original_name}.shard{node_index:02d}"


def _manifest_file_name(original_name: str) -> str:
    return f"{original_name}.manifest"


def _refuse_overwriting_an_input(out_path, shards, manifest) -> None:
    """Refuse an output path that already names an input: a shard file or the manifest."""
    for kind, p in [*(("shard", p) for p in shards), ("manifest", manifest)]:
        if p is not None and os.path.exists(out_path) and os.path.samefile(out_path, p):
            raise ValueError(f"{out_path} is the input {kind} {p}; choose another output")


def _source_batches(src, length: int, params):
    """Yield the source batches of an open file of `length` bytes, read into
    one reused buffer; an empty file gives one empty batch."""
    per_batch = shardio.batch_stripes(params) * params.file_symbols
    view = memoryview(bytearray(min(per_batch, length)))
    done = 0
    while True:
        want = min(per_batch, length - done)
        got = src.readinto(view[:want])
        if got != want:
            raise OSError(f"{src.name}: shrank to {done + got} bytes while being read")
        done += got
        yield striping.bytes_to_source(view[:got], params)
        if done == length:
            return


def cmd_encode(args) -> int:
    params = derive_params(args.k, args.delta, args.n, q=args.q)
    input_path = Path(args.input)
    out_dir = Path(args.out_dir)
    names = [_shard_file_name(input_path.name, j) for j in range(1, params.n + 1)]
    with open(input_path, "rb") as src:
        st = os.fstat(src.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ValueError(f"{input_path}: not a regular file, so its length is unknown")
        length = st.st_size
        batches = _source_batches(src, length, params)
        first = next(batches)  # refuses a q that cannot carry bytes
        params.check_decodable()
        headers = [shardio.header_for(params, j, length) for j in range(1, params.n + 1)]
        stripes = headers[0].stripe_count
        encode = striping.stripe_encoder(params)
        with shardio.atomic_set() as files:  # the n shards, then the manifest
            for name, header in zip(names, headers):
                files.append(shardio.ShardWriter(out_dir / name, header))
            for source in itertools.chain([first], batches):
                for writer, payload in zip(files, encode(source)):
                    writer.write(payload)
            entries = [(j, name, w.crc) for j, (name, w) in enumerate(zip(names, files), start=1)]
            manifest = out_dir / _manifest_file_name(input_path.name)
            files.append(shardio.manifest_file(manifest, input_path.name, headers[0], entries))
    for name in names:
        print(f"wrote {out_dir / name} ({stripes * params.alpha} symbols)")
    print(f"wrote {manifest}")
    print(
        f"encoded {length} bytes into {params.n} shards "
        f"({stripes} stripes, alpha = {params.alpha})"
    )
    return 0


def cmd_reconstruct(args) -> int:
    with shardio.ShardSet(args.shards, args.manifest) as shards:
        header = shards.header
        chosen = sorted(shards.readers)[: header.k]
        if args.nodes is not None:
            try:
                chosen = sorted(int(t) for t in args.nodes.split(","))
            except ValueError:
                raise ValueError(
                    f"--nodes takes comma-separated node indices, got {args.nodes!r}"
                ) from None
        batches = shards.batches(chosen)
        _refuse_overwriting_an_input(args.out, args.shards, args.manifest)
        decode = striping.stripe_decoder(shards.params, chosen)
        sources = (decode(batch) for batch in batches)
        with shardio.AtomicFile(args.out) as out:
            for data in striping.batches_to_bytes(sources, header.original_length):
                out.write(data)
    print(f"reconstructed {header.original_length} bytes from nodes {chosen} into {args.out}")
    return 0


def cmd_repair(args) -> int:
    with shardio.ShardSet(args.shards, args.manifest) as shards:
        helpers, f = sorted(shards.readers), args.failed
        if args.out:
            out_path = Path(args.out)
        else:
            m = _SHARD_NAME.match(Path(args.shards[0]).name)
            if not m:
                raise ValueError(
                    "cannot derive an output name from the helper file names; "
                    "pass --out explicitly"
                )
            out_dir = Path(args.out_dir) if args.out_dir else Path(args.shards[0]).parent
            out_path = out_dir / f"{m.group('stem')}{f:02d}"
        _refuse_overwriting_an_input(out_path, args.shards, args.manifest)
        rebuild = striping.stripe_repairer(shards.params, f, helpers)
        out_header = dataclasses.replace(shards.header, node_index=f)
        with shardio.ShardWriter(out_path, out_header) as writer:
            if shards.manifest is None:
                writer.crc = None  # nothing compares it
            for batch in shards.batches():
                writer.write(rebuild(batch))
            if writer.crc is not None:
                shards.check_crc(f, writer.crc, out_path)  # before the commit
    print(f"repaired node {f} from {len(helpers)} helpers ({helpers}) into {out_path}")
    return 0


def cmd_verify(args) -> int:
    with shardio.ShardSet(args.shards, args.manifest, crc=True) as shards:
        for _ in shards.batches():
            pass  # reads every payload, checking its symbols and any manifest CRC
    params, header, readers = shards.params, shards.header, shards.readers
    print(
        f"code: q={params.q} n={params.n} k={params.k} delta={params.delta} "
        f"stripes={header.stripe_count} length={header.original_length}"
    )
    for j in sorted(readers):
        print(f"node {j:2d}  {readers[j].path}  crc32={readers[j].crc:08x}  ok")
    if args.manifest:
        print(f"manifest {args.manifest}: consistent")
    print(f"verify: OK ({len(readers)} shards)")
    return 0


def cmd_params(args) -> int:
    params = derive_params(args.k, args.delta, args.n, q=args.q)
    print(params.describe())
    if args.compare:
        alt = comparison_subpacketization(params.n, params.delta)
        print()
        print("subpacketization comparison")
        print(f"this construction (alpha = (k-1) lcm(1..delta))  {params.alpha}")
        print(f"flat construction (lcm(1..delta) ** n)           {alt}")
        print(f"reduction factor                                 {alt // params.alpha}x")
    return 0


def cmd_simulate(args) -> int:
    for flag, count in (("--stripes", args.stripes), ("--rounds", args.rounds)):
        if count < 0:
            raise ValueError(f"{flag} must not be negative, got {count}")
    params = derive_params(args.k, args.delta, args.n, q=args.q)
    policy = HelperPolicy.parse(args.policy)
    policy.choose_d(params.helper_counts, params.n - 1)  # refuses a fixed d outside D
    to_file = args.csv not in (None, "-")
    with shardio.AtomicFile(args.csv) if to_file else contextlib.nullcontext() as ledger:
        rng = np.random.default_rng(args.seed)
        source = rng.integers(0, params.q, size=args.stripes * params.file_symbols)
        cluster = Cluster(params)
        cluster.store(source)
        print(
            f"stored {args.stripes} stripes on {params.n} nodes "
            f"({params.alpha} symbols per node per stripe)"
        )
        for _ in range(args.rounds):
            f = int(rng.choice(cluster.alive_nodes()))
            cluster.fail_node(f)
            entry = cluster.run_repair(f, policy, int(rng.integers(2**32)))
            print(
                f"failed node {entry.failed}, repaired with d={entry.d} helpers "
                f"{list(entry.helpers)}, moved {entry.symbols_moved} symbols/stripe"
            )
        if cluster.read_all() != (source % params.q).tolist():
            raise InconsistencyError("data mismatch after repairs")
        print(f"data intact after {args.rounds} repairs")
        if to_file:
            ledger.write(cluster.ledger_csv().encode())
        elif args.csv == "-":
            sys.stdout.write(cluster.ledger_csv())
    if to_file:
        print(f"wrote traffic ledger to {args.csv}")
    return 0


def _add_code_flags(sub):
    sub.add_argument("--k", type=int, required=True, help="reconstruction threshold")
    sub.add_argument("--delta", type=int, required=True, help="flexibility degree")
    sub.add_argument("--n", type=int, required=True, help="node count")
    sub.add_argument("--q", type=int, default=None, help="field modulus (prime)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmba",
        description=(
            "Erasure-code files across n nodes so any k reconstruct and any "
            "failed node repairs exactly from d helpers, for every supported d."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="split a file into n shard files")
    p.add_argument("input", help="file to encode")
    p.add_argument("--out-dir", "-o", required=True, help="directory for shards")
    _add_code_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="rebuild the original file from k shards")
    p.add_argument("shards", nargs="+", help="shard files (k or more)")
    p.add_argument("--out", "-o", required=True, help="output file")
    p.add_argument(
        "--nodes",
        default=None,
        help="comma-separated node indices to decode from (default: lowest k)",
    )
    p.add_argument("--manifest", default=None, help="manifest to check the nodes read against")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("repair", help="rebuild one lost shard from helper shards")
    p.add_argument("shards", nargs="+", help="helper shard files (count must be in D)")
    p.add_argument("--failed", "-f", type=int, required=True, help="failed node index")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--out", default=None, help="output shard file")
    out.add_argument("--out-dir", default=None, help="directory for the derived output name")
    p.add_argument("--manifest", default=None, help="manifest to check helpers and output against")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("verify", help="check shard headers and payload checksums")
    p.add_argument("shards", nargs="+", help="shard files")
    p.add_argument("--manifest", default=None, help="manifest to check against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("params", help="derive and print code parameters")
    actions = p.add_subparsers(dest="action", required=True)
    show = actions.add_parser("show", help="print all derived quantities")
    _add_code_flags(show)
    show.add_argument(
        "--compare",
        action="store_true",
        help="also compare subpacketization against a flat construction",
    )
    show.set_defaults(func=cmd_params)

    p = sub.add_parser("simulate", help="run a seeded failure/repair drill")
    _add_code_flags(p)
    p.add_argument("--stripes", type=int, default=4, help="stripes to store")
    p.add_argument("--rounds", type=int, default=3, help="failure/repair rounds")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument(
        "--policy",
        default="max-d",
        help="helper count policy: max-d, min-d or fixed:<d>",
    )
    p.add_argument("--csv", default=None, help="write the traffic ledger here ('-' for stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ShardFormatError, InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
