"""Batch codec between raw bytes and per-node symbol arrays.

File payloads are striped: every F consecutive symbols form one stripe that
is encoded independently. Each path derives its linear map in closed form
from the construction: encoding places each node's Vandermonde row into
the banded message-matrix layout and reads, per block column, only the
band of source blocks it needs; decoding applies the reconstructor's
`peel_maps`, one block column and one carried block per step; repair takes
the paper's two steps, `bundle_map` from each helper's payload to the beta
symbols it sends (`_bundle_stage`, which `stripe_bundler` runs alone), then
`repair_matrix` from the d*beta of them to node f's payload, chained by
`stripe_repairer` in one tile loop. Each builder (`stripe_encoder`,
`stripe_decoder`, `stripe_bundler`, `stripe_repairer`) builds its maps once,
calling no other builder, and returns a function that applies them to one
batch in BLAS products, a tile of about TILE_VALUES float values at a time
so that each product and its reduction mod q run in cache. The function
holds its tile buffers from call to call, growing them only for a larger
batch, so it is not reentrant; its output is a fresh array. Within a tile
each stage's reduced floats feed the next stage, and only the last writes
`<u2` symbols, the dtype shard files hold. A bundle stage of beta = 1 holds
each helper's products in a row of the tile, a wider one in a column block:
BLAS writes a matrix-vector product 3x faster into a row than a column.
Each stage picks its float dtype from the largest integer sum its inner
dimension allows: float32 below 2**22, float64 below 2**51, the bounds
below which the products and the reduction mod q are exact; past 2**51 it
refuses. At the default q = 257 only the (3,5,20) combine stage, 144 to
240 terms, runs float64. Each builder runs its function once on a
self-check batch made once per code, against the stepwise codec alone, so
no caller's data can blind the check. The CLI streams files through these
functions in the batches `shardio` sizes, and `Cluster` runs the encoder
and the bundler. No command calls `encode_stripes`, `reconstruct_stripes`
or `repair_stripes`, which apply them to one batch of every stripe; only
tests and `perfbench/tracing.py` do.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .encoder import NodeShard, build_message_matrix, encode_all, node_maps
from .matrix import InconsistencyError
from .params import BYTE_SAFE_MIN_Q, CodeParams
from .reconstructor import peel_maps
from .repairer import (
    bundle_map,
    check_repair_nodes,
    make_repair_bundle,
    repair_matrix,
    session_shape,
)


TILE_VALUES = 2**18  # float values a kernel's arrays hold per stripe tile, so they stay in cache


def bytes_to_source(data, params: CodeParams) -> np.ndarray:
    """Map bytes one-to-one onto `<u2` symbols, the dtype shard files hold,
    zero-padded to whole stripes."""
    if params.q < BYTE_SAFE_MIN_Q:
        raise ValueError(
            f"q = {params.q} cannot carry byte payloads; need q >= {BYTE_SAFE_MIN_Q}"
        )
    arr = np.frombuffer(data, dtype=np.uint8)
    padded = np.zeros((params.file_stripes(len(arr)), params.file_symbols), dtype="<u2")
    padded.reshape(-1)[: len(arr)] = arr
    return padded


def batches_to_bytes(batches, original_length: int):
    """Yield the bytes of decoded source batches in order, each batch's as
    one uint8 array, trimmed to original_length symbols; raises once the
    batches end short of it."""
    remaining, held = original_length, 0
    for source in batches:
        flat = source.reshape(-1)
        head = flat[:remaining]
        if head.size and int(head.max()) > 255:
            raise InconsistencyError("decoded symbol exceeds byte range; data is corrupt")
        remaining -= head.size
        held += flat.size
        yield head.astype(np.uint8)
    if remaining:
        raise ValueError(
            f"decoded stripes hold {held} symbols, fewer than the "
            f"recorded length {original_length}"
        )


def source_to_bytes(source: np.ndarray, original_length: int) -> bytes:
    return b"".join(batches_to_bytes([source], original_length))


@lru_cache(maxsize=32)
def _self_check_batch(params: CodeParams):
    """Two source stripes and the stepwise encoder's `<u2` payloads for them,
    indexed [node-1, stripe, symbol], both read-only and made once per code.
    Stripe 0 is all q-1, so no source symbol is zero; stripe 1 is 1, 2, ..
    (mod q-1), so a kernel that mixes the stripes of a batch fails too."""
    f_sym, q = params.file_symbols, params.q
    source = np.stack([np.full(f_sym, q - 1), 1 + np.arange(f_sym) % (q - 1)])
    coded = [encode_all(build_message_matrix(row.tolist(), params), params) for row in source]
    symbols = [[shard.symbol_values() for shard in shards] for shards in coded]
    payloads = np.array(symbols, dtype="<u2").swapaxes(0, 1)
    for a in (source, payloads):
        a.flags.writeable = False
    return source, payloads


def _self_check(kernel: str, got: np.ndarray, want: np.ndarray, oracle="encoder") -> None:
    """Raise unless `got` equals `want`; both index stripes on axis -2."""
    for s in range(want.shape[-2]):
        if not np.array_equal(got[..., s, :], want[..., s, :]):
            raise InconsistencyError(
                f"batched {kernel} and the stepwise {oracle} disagree on stripe {s} "
                f"of the self-check"
            )


# float64 holds every integer below 2**53 and float32 every one below 2**24,
# so a BLAS product of residues is exact while its largest possible sum
# stays below that; `_reduce` needs sums below 2**51 in float64 and below
# 2**22 in float32, so those are the bounds every kernel keeps.
_EXACT_BELOW = 2**51
_SINGLE_BELOW = 2**22


def _check_exact(q: int, terms: int, kernel: str):
    """The float dtype whose BLAS sums of `terms` products of two residues
    mod q stay exact: float32 below 2**22, else float64 below 2**51; a
    kernel whose sums could reach 2**51 is refused."""
    worst = terms * (q - 1) ** 2
    if worst < _SINGLE_BELOW:
        return np.float32
    if worst >= _EXACT_BELOW:
        raise ValueError(
            f"the {kernel} sums {terms} products of residues mod q = {q}, up to "
            f"{worst}; float64 products stay exact only below 2**51"
        )
    return np.float64


def _reduce(x: np.ndarray, q: int, out=None, temp=None) -> np.ndarray:
    """x mod q, for a float64 array of integers 0 <= x < 2**51 or a float32
    one of integers 0 <= x < 2**22, in place or into `out`, which may be of
    any dtype holding 0..q-1. `temp`, an array of x's shape and dtype that
    overlaps neither, takes the multiples of q that are subtracted, so a
    kernel that holds one allocates no array here; without it one is
    allocated.

    Write x = m*q + r with 0 <= r < q. Then (x + 0.5)/q = m + (r + 0.5)/q
    lies at least 0.5/q from every integer. Let u be the unit roundoff:
    2**-53 in float64, 2**-24 in float32. x + 0.5 is exact below 2**52 in
    float64 and below 2**23 in float32, and t = fl(fl(x + 0.5) * fl(1/q))
    takes two roundings of relative error at most u each, so
    |t - (x + 0.5)/q| <= (x + 0.5)(2u + u**2)/q.
    In float64, for x < 2**51, (x + 0.5) * 2u <= 0.5 - 2**-53 and
    (x + 0.5) * u**2 < 2**-55. In float32, for x < 2**22, (x + 0.5) * 2u <=
    0.5 - 2**-24 and (x + 0.5) * u**2 < 2**-26. Either way that error is
    below 0.5/q and floor(t) = m exactly. q*m and x - q*m are integers no
    larger than x, so they are exact too, and no fix-up pass is needed.
    fl(1/q) is the dtype's own correctly rounded quotient: q <= 65535 is
    exact in float32, and 1 and q are divided in x's dtype.

    The float32 sums a kernel hands in are exact as well, in whatever order
    BLAS adds them: every term is an integer product of two residues, and
    every partial sum is a non-negative integer no larger than the whole
    sum, so below 2**22 < 2**24, where float32 holds every integer.
    """
    t = np.add(x, 0.5, out=temp)
    t *= x.dtype.type(1) / x.dtype.type(q)
    np.floor(t, out=t)
    t *= q
    return np.subtract(x, t, out=x if out is None else out, casting="unsafe")


def _held_buffers():
    """A function `held(key, shape, dtype)` returning a C-contiguous array
    that views the first bytes of a buffer kept under `key` from call to
    call, made on the first call and regrown only for a larger one. Arrays
    of one key share memory, so a key may serve several temporaries, of
    any dtypes, only while each is done with before the next is taken. A
    kernel that takes its tile arrays from it allocates no scratch once its
    batches stop growing, and is not reentrant: a second call while one
    runs would share its buffers."""
    buffers = {}

    def held(key, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buffer = buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = buffers[key] = np.empty(size, np.uint8)
        return buffer[:size].view(dtype).reshape(shape)

    return held


def _tile_rows(width: int) -> int:
    """Stripes per tile of a kernel whose tile arrays hold `width` float
    values per stripe: TILE_VALUES values in all, but at least 64 stripes,
    so that a wide code's products keep a useful inner dimension."""
    return max(64, TILE_VALUES // width)


def encode_matrix(params: CodeParams) -> np.ndarray:
    """The (n*alpha) x F linear map from one stripe to all node shards."""
    return node_maps(params, range(1, params.n + 1)).reshape(-1, params.file_symbols)


def stripe_encoder(params: CodeParams):
    """Build the encoding map once; returns a function that encodes one batch.

    The function maps a (stripes, F) batch of residues to a fresh
    C-contiguous `<u2` array indexed [node-1, stripe, symbol]. It holds its
    tile buffers from call to call, so it is not reentrant. The builder
    refuses a function that does not reproduce the stepwise encoder's
    payloads of the self-check batch.
    """
    n, alpha, q, w = params.n, params.alpha, params.q, params.k - 1
    f_sym = params.file_symbols
    enc = encode_matrix(params).reshape(n, alpha, f_sym)
    bands = []
    for c in range(0, alpha, w):
        # The k-1 stored columns of one block column read the same band of
        # source blocks: one product per band, zero where a column skips a symbol.
        reads = np.flatnonzero(enc[:, c : c + w].any(axis=(0, 1)))
        band = slice(reads[0], reads[-1] + 1)
        bands.append((band, enc[:, c : c + w, band].reshape(n * w, -1)))
    dtype = _check_exact(q, max(coefficients.shape[1] for _, coefficients in bands), "encoder")
    bands = [(band, coefficients.astype(dtype)) for band, coefficients in bands]
    rows = _tile_rows(f_sym + n * alpha)  # a source tile and its coded tile
    held = _held_buffers()

    def encode(source: np.ndarray) -> np.ndarray:
        source = np.asarray(source)
        stripes = source.shape[0]
        out = np.empty((n, stripes, alpha), dtype="<u2")
        for s in range(0, stripes, rows):
            m = min(rows, stripes - s)
            # A tile is symbol-major: row i holds symbol i of the tile's stripes.
            tile = held("source", (f_sym, m), dtype)
            tile[...] = source[s : s + m].T
            block_columns = held("coded", (len(bands), n * w, m), dtype)
            for (band, coefficients), column in zip(bands, block_columns):
                np.matmul(coefficients, tile[band], out=column)
            # The reduction writes each block column's symbols straight into
            # their places in `out`, running along the tile's contiguous rows.
            written = out[:, s : s + m].reshape(n, m, len(bands), w).transpose(2, 0, 3, 1)
            temp = held("temp", written.shape, dtype)
            _reduce(block_columns.reshape(written.shape), q, out=written, temp=temp)
        return out

    source, payloads = _self_check_batch(params)
    _self_check("encoder", encode(source), payloads)
    return encode


def encode_stripes(source: np.ndarray, params: CodeParams) -> np.ndarray:
    """Encode every stripe; result a `<u2` array indexed [node-1, stripe, symbol]."""
    return stripe_encoder(params)(source)


def stripe_decoder(params: CodeParams, nodes):
    """Build the block peel for the k given nodes once; returns a function
    that decodes one batch.

    The peel is derived in `reconstructor`, whose `peel_maps` builds its
    step and carry maps from A_0, here the nodes' slice of `encode_matrix`.

    The function maps a dict of (stripes, alpha) payloads of residues, of
    any integer dtype and holding at least those nodes, to a fresh
    (stripes, F) `<u2` source. It holds its tile buffers from call to call,
    so it is not reentrant. The builder refuses a function that does not
    return the self-check source from the nodes' self-check payloads.
    """
    k, z, q, f_sym = params.k, params.z_delta, params.q, params.file_symbols
    nodes = sorted(nodes)
    params.check_decodable(nodes)
    w = k - 1
    pair = k * w  # symbols per block column of the k nodes, and per block pair
    half = pair // 2
    # a peeled block sums one step's products and the carried block's
    dtype = _check_exact(q, pair + half, "decoder")
    enc = encode_matrix(params).reshape(params.n, params.alpha, f_sym)
    a0 = enc[np.array(nodes) - 1, :w, :pair].reshape(pair, pair)
    steps, carry = (m.astype(dtype) for m in peel_maps(params, nodes, a0))
    rows = _tile_rows(2 * f_sym)  # the observed and the peeled tile, k*alpha = F each
    held = _held_buffers()

    def decode(payloads: dict) -> np.ndarray:
        stripes = payloads[nodes[0]].shape[0]
        out = np.empty((stripes, f_sym), dtype="<u2")
        for s in range(0, stripes, rows):
            m = min(rows, stripes - s)
            # Rows are symbols and columns are stripes, so every step reads
            # and writes whole rows.
            tile = held("observed", (z, k, w, m), dtype)
            for i, j in enumerate(nodes):
                tile[:, i] = payloads[j][s : s + m].T.reshape(z, w, m)
            blocks = held("peeled", (z, pair, m), dtype)
            # one step's carried products, then the temporary of its reduction
            carried = held("carried", (pair, m), dtype)
            np.matmul(steps, tile.reshape(z, pair, m), out=blocks)
            _reduce(blocks[0], q, temp=carried)
            for i in range(1, z):
                blocks[i] += np.matmul(carry, blocks[i - 1, half:], out=carried)
                _reduce(blocks[i], q, temp=carried)
            out[s : s + m] = blocks.reshape(f_sym, m).T
        return out

    source, payloads = _self_check_batch(params)
    _self_check("decoder", decode({j: payloads[j - 1] for j in nodes}), source)
    return decode


def reconstruct_stripes(payloads: dict, params: CodeParams) -> np.ndarray:
    """Decode all stripes from exactly k node payloads of shape (stripes, alpha);
    the result is the (stripes, F) `<u2` source."""
    return stripe_decoder(params, payloads)(payloads)


def _tiled_product(stages, q: int):
    """The product mod q by a chain of (map, terms, kernel) stages, each in
    `_check_exact`'s dtype for sums of `terms` products: a function from a
    list of (stripes, a) arrays of residues to one fresh C-contiguous `<u2`
    array. The first stage maps array i through its (a, b) map into column
    block i of its products, each later stage the whole reduced product
    before it, one tile of stripes at a time; only the last stage writes
    `<u2`. A one-column first stage (b = 1) holds its products row by row
    instead, row i array i's matrix-vector product, reduced in that layout
    and read transposed by the next stage or written transposed into `out`.
    BLAS writes that product about 3x faster into a row than into a column,
    but for b >= 2 writes a column block faster than it computes the
    transposed product. The function holds its tile buffers from call to
    call, so it is not reentrant."""
    maps = [matrix.astype(_check_exact(q, terms, kernel)) for matrix, terms, kernel in stages]
    (a, b), later = maps[0].shape, [m.shape[1] for m in maps[1:]]
    by_row = [b == 1, *(False for _ in later)]  # whether a stage's products are held transposed
    held = _held_buffers()

    def product(arrays) -> np.ndarray:
        stripes, widths = arrays[0].shape[0], [len(arrays) * b, *later]
        # as many stripes as given, at most as many as keep the widest stage's input
        # tile and products (counted twice for `_reduce`'s temporary) in cache
        rows = max(1, min(stripes, _tile_rows(max(x + 2 * y for x, y in zip([a, *widths], widths)))))
        out = np.empty((stripes, widths[-1]), dtype="<u2")
        for s in range(0, stripes, rows):
            m = min(rows, stripes - s)
            tile = held("tile", (m, a), maps[0].dtype)
            products = [held(i, (m, w), stage.dtype) for i, (w, stage) in enumerate(zip(widths, maps))]
            if b == 1:  # row i holds array i's matrix-vector product
                products[0] = products[0].reshape(len(arrays), m)
                blocks, column = products[0], maps[0][:, 0]
            else:
                blocks, column = (products[0][:, i * b : (i + 1) * b] for i in range(len(arrays))), maps[0]
            for x, block in zip(arrays, blocks):
                tile[...] = x[s : s + m]
                np.matmul(tile, column, out=block)
            # one "temp" serves, in turn, each reduction's temporary and each cast
            # to the next stage's dtype, so the tile's arrays stay few enough for cache
            for matrix, before, after, transposed in zip(maps[1:], products, products[1:], by_row):
                reduced = _reduce(before, q, temp=held("temp", before.shape, before.dtype))
                if reduced.dtype != matrix.dtype:
                    reduced = held("temp", before.shape, matrix.dtype)
                    reduced[...] = before
                np.matmul(reduced.T if transposed else reduced, matrix, out=after)
            last, written = products[-1], out[s : s + m]
            _reduce(last, q, out=written.T if by_row[-1] else written, temp=held("temp", last.shape, last.dtype))
        return out

    return product


def _bundle_stage(params: CodeParams, f: int, d: int):
    """The bundle stage for node f; refuses a d outside D, then an f outside 1..n."""
    seg, _ = session_shape(params, d)
    check_repair_nodes(params, f, ())
    return bundle_map(params, f, d), seg, "bundler"


def stripe_bundler(params: CodeParams, f: int, d: int):
    """Build the helpers' side of the repair of node f from d helpers once;
    returns a function that bundles one batch.

    The function maps a dict of helpers' (stripes, alpha) payloads of
    residues, of any integer dtype, to one (stripes, len(dict)*beta) `<u2`
    array: each helper's beta bundle symbols for node f, by one map for any
    helper, grouped in ascending node order as `repair_matrix`'s columns
    are. The builder refuses a function that does not give the bundles
    `make_repair_bundle` makes of a helper's self-check payload.
    """
    product = _tiled_product([_bundle_stage(params, f, d)], params.q)

    def bundle(payloads: dict) -> np.ndarray:
        return product([payloads[h] for h in sorted(payloads)])

    _, payloads = _self_check_batch(params)
    h = 2 if f == 1 else 1  # any helper but f
    shards = [NodeShard(h, params.eval_point(h), params.field.elements(row)) for row in payloads[h - 1]]
    want = np.array([[s.value for s in make_repair_bundle(x, f, d, params).symbols] for x in shards])
    _self_check("bundler", bundle({h: payloads[h - 1]}), want, oracle="make_repair_bundle")
    return bundle


def stripe_repairer(params: CodeParams, f: int, helpers):
    """Build the repair map for node f from the given helpers once; returns
    a function that rebuilds one batch: the bundle stage for d helpers, then
    `repair_matrix` on their d*beta bundle symbols, in one tile loop.

    The function maps a dict of the helpers' (stripes, alpha) payloads of
    residues, of any integer dtype, to node f's (stripes, alpha) `<u2`
    payload. The builder refuses a function that does not return node f's
    self-check payload from the helpers', which checks both stages.
    """
    helpers = sorted(helpers)
    decoding = repair_matrix(params, f, helpers)  # refuses f and the helpers
    # a rebuilt symbol sums all d*beta bundle symbols' products: refused first, the larger sum
    combine = (decoding.T, decoding.shape[1], "repairer")
    _check_exact(params.q, *combine[1:])
    chain = _tiled_product([_bundle_stage(params, f, len(helpers)), combine], params.q)

    def rebuild(payloads: dict) -> np.ndarray:
        return chain([payloads[h] for h in helpers])  # reads no other node

    _, payloads = _self_check_batch(params)
    _self_check("repairer", rebuild({h: payloads[h - 1] for h in helpers}), payloads[f - 1])
    return rebuild


def repair_stripes(payloads: dict, f: int, params: CodeParams) -> np.ndarray:
    """Rebuild node f's (stripes, alpha) `<u2` payload for all stripes from d
    helper payloads."""
    return stripe_repairer(params, f, payloads)(payloads)
