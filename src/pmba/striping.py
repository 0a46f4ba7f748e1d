"""Batch codec between raw bytes and per-node symbol arrays.

File payloads are striped: every F consecutive symbols form one stripe that
is encoded independently. Encoding, reconstruction and repair are all
linear over the field, and each path derives its linear map in closed form
from the construction: the encoding map places each node's Vandermonde
row into the banded message-matrix layout, decoding peels the source one
block pair per block column with a single k(k-1)-square inverse shared by
every step, and the repair map runs the segment peel of the repairer on
all unit bundles at once. Each of `stripe_encoder`, `stripe_decoder` and
`stripe_repairer` builds its map once and returns a function that applies
it to one batch of stripes in integer matrix products; encoding reads, for
each stored column, only the at most 3(k-1) source symbols of its band,
and each decode step only one block column and the block carried over
from the step before. Stripe zero of the first batch is also pushed
through the stepwise codec and compared, so the fast path can never drift
from the reference one unnoticed. `encode_stripes`, `reconstruct_stripes`
and `repair_stripes` are the same functions applied to one batch holding
every stripe; the CLI streams files through them in batches of
BATCH_SYMBOLS source symbols.
"""

from __future__ import annotations

import numpy as np

from .encoder import (
    NodeShard,
    build_message_matrix,
    coefficient_matrix,
    encode_all,
    message_layout,
)
from .matrix import InconsistencyError, Matrix, build_gvm, invert
from .params import BYTE_SAFE_MIN_Q, CodeParams
from .reconstructor import reconstruct
from .repairer import make_repair_bundle, repair, session_shape


BATCH_SYMBOLS = 2**18  # source symbols per batch when the CLI streams a file


def batch_stripes(params: CodeParams) -> int:
    """Stripes per streamed batch: BATCH_SYMBOLS source symbols, at least one."""
    return max(1, BATCH_SYMBOLS // params.file_symbols)


def bytes_to_source(data, params: CodeParams) -> np.ndarray:
    """Map bytes one-to-one onto symbols, zero-padded to whole stripes."""
    if params.q < BYTE_SAFE_MIN_Q:
        raise ValueError(
            f"q = {params.q} cannot carry byte payloads; need q >= {BYTE_SAFE_MIN_Q}"
        )
    arr = np.frombuffer(data, dtype=np.uint8)
    f_sym = params.file_symbols
    stripes = (len(arr) + f_sym - 1) // f_sym
    padded = np.zeros(stripes * f_sym, dtype=np.int64)
    padded[: len(arr)] = arr
    return padded.reshape(stripes, f_sym)


def batches_to_bytes(batches, original_length: int):
    """Yield the bytes of decoded source batches in order, trimmed to
    original_length symbols; raises once the batches end short of it."""
    remaining, held = original_length, 0
    for source in batches:
        flat = source.reshape(-1)
        head = flat[:remaining]
        if head.size and int(head.max()) > 255:
            raise InconsistencyError("decoded symbol exceeds byte range; data is corrupt")
        remaining -= head.size
        held += flat.size
        yield head.astype(np.uint8).tobytes()
    if remaining:
        raise ValueError(
            f"decoded stripes hold {held} symbols, fewer than the "
            f"recorded length {original_length}"
        )


def source_to_bytes(source: np.ndarray, original_length: int) -> bytes:
    return b"".join(batches_to_bytes([source], original_length))


def _node_shards_from_rows(rows, nodes, params: CodeParams):
    return [
        NodeShard(
            node_index=j,
            eval_point=params.eval_point(j),
            symbols=params.field.elements(int(v) for v in row),
        )
        for j, row in zip(nodes, rows)
    ]


def encode_matrix(params: CodeParams) -> np.ndarray:
    """The (n*alpha) x F linear map from one stripe to all node shards."""
    layout = message_layout(params)
    rows, cols = np.nonzero(layout >= 0)
    psi = coefficient_matrix(params).data
    out = np.zeros((params.n, params.alpha, params.file_symbols), dtype=np.int64)
    # Each source symbol appears at most once per column of the layout, so
    # every map entry is one coefficient and needs no reduction.
    out[:, cols, layout[rows, cols]] = psi[:, rows]
    return out.reshape(params.n * params.alpha, params.file_symbols)


def stripe_encoder(params: CodeParams):
    """Build the encoding map once; returns a function that encodes one batch.

    The function maps a (stripes, F) source batch to an array indexed
    [node-1, stripe, symbol]. Stripe 0 of the first batch that holds a
    stripe is checked against the stepwise encoder.
    """
    enc = encode_matrix(params).reshape(params.n, params.alpha, params.file_symbols)
    bands = []
    for c in range(params.alpha):
        # Stored column c reads only the source symbols of its block band.
        support = np.flatnonzero(enc[:, c].any(axis=0))
        bands.append((support, enc[:, c, support].T))
    checked = False

    def encode(source: np.ndarray) -> np.ndarray:
        nonlocal checked
        out = np.empty((params.n, source.shape[0], params.alpha), dtype=np.int64)
        for c, (support, coefficients) in enumerate(bands):
            coded = source[:, support] @ coefficients  # (stripes, n)
            coded %= params.q
            out[:, :, c] = coded.T
        if not checked and source.shape[0]:
            m = build_message_matrix([int(v) for v in source[0]], params)
            for shard in encode_all(m, params):
                if tuple(int(v) for v in out[shard.node_index - 1, 0]) != shard.symbol_values():
                    raise InconsistencyError(
                        "batched and stepwise encoders disagree on stripe 0"
                    )
            checked = True
        return out

    return encode


def encode_stripes(source: np.ndarray, params: CodeParams) -> np.ndarray:
    """Encode every stripe; result indexed [node-1, stripe, symbol]."""
    return stripe_encoder(params)(source)


def stripe_decoder(params: CodeParams, nodes):
    """Build the block peel for the k given nodes once; returns a function
    that decodes one batch.

    Write u_i for source blocks 2i and 2i+1 (contiguous in source order),
    x_i for block column i of the nodes' payloads, P = k(k-1)/2 for the
    block size, Lambda for the nodes' (k-1)-th powers and A_0 for the
    k(k-1)-square map from u_0 to x_0. Then x_i = Lambda^i A_0 u_i +
    Lambda^(i-1) A_0[:, :P] u_(i-1)[P:], so one inverse of A_0 peels every
    step; this is `ReconstructionSession.run` in array form. A_0 is
    singular exactly when two of the nodes share a (k-1)-th power.

    The function maps a dict of (stripes, alpha) payloads, holding at least
    those nodes, to the (stripes, F) source; payloads of any integer dtype
    are widened to int64 on entry. Stripe 0 of the first batch that holds a
    stripe is checked against the stepwise decoder.
    """
    k, z, q = params.k, params.z_delta, params.q
    nodes = sorted(nodes)
    if len(nodes) != k:
        raise ValueError(f"need exactly k = {k} node payloads, got {len(nodes)}")
    if len(set(nodes)) != k:
        raise ValueError(f"node indices must be distinct, got {nodes}")
    for j in nodes:
        if not 1 <= j <= params.n:
            raise ValueError(f"node index {j} outside 1..{params.n}")
    w = k - 1
    pair = k * w  # symbols per block column of the k nodes, and per block pair
    half = pair // 2
    enc = encode_matrix(params).reshape(params.n, params.alpha, params.file_symbols)
    a0 = enc[np.array(nodes) - 1, :w, :pair].reshape(pair, pair)
    a0_inv = invert(Matrix(params.field, a0)).data
    lam_inv = np.repeat([pow(params.eval_points[j - 1], -w, q) for j in nodes], w)
    steps = np.empty((z, pair, pair), dtype=np.int64)  # A_0^-1 * Lambda^-i
    scale = np.ones(pair, dtype=np.int64)
    for i in range(z):
        steps[i] = a0_inv * scale % q
        scale = scale * lam_inv % q
    carry = -(a0_inv @ (lam_inv[:, None] * a0[:, :half] % q)) % q
    checked = False

    def decode(payloads: dict) -> np.ndarray:
        nonlocal checked
        stripes = payloads[nodes[0]].shape[0]
        # Rows are symbols and columns are stripes, so every step reads and
        # writes whole contiguous rows.
        observed = np.empty((z, k, w, stripes), dtype=np.int64)
        for m, j in enumerate(nodes):
            observed[:, m] = payloads[j].T.reshape(z, w, stripes)
        peeled = np.einsum("iab,ibs->ias", steps, observed.reshape(z, pair, stripes))
        peeled[0] %= q
        for i in range(1, z):
            peeled[i] += np.einsum("ab,bs->as", carry, peeled[i - 1, half:])
            peeled[i] %= q
        source = peeled.reshape(params.file_symbols, stripes).T
        if not checked and stripes:
            shards = _node_shards_from_rows((payloads[j][0] for j in nodes), nodes, params)
            reference = tuple(s.value for s in reconstruct(shards, params))
            if tuple(int(v) for v in source[0]) != reference:
                raise InconsistencyError("batched and stepwise decoders disagree on stripe 0")
            checked = True
        return source

    return decode


def reconstruct_stripes(payloads: dict, params: CodeParams) -> np.ndarray:
    """Decode all stripes from exactly k node payloads of shape (stripes, alpha)."""
    return stripe_decoder(params, payloads)(payloads)


def repair_matrix(params: CodeParams, f: int, helpers) -> np.ndarray:
    """The alpha x (d*beta) linear map from stacked repair bundles to node f.

    Column h*beta + i stands for symbol i of the bundle from the h-th
    helper in ascending order. This is the repairer's segment peel run on
    the d*beta unit bundles at once: each of the beta steps inverts one
    d x d generalized Vandermonde and cancels the (k-1)-block carried over
    from the step before.
    """
    helpers = sorted(helpers)
    d = len(helpers)
    seg, beta = session_shape(params, d)
    q, w = params.q, params.k - 1
    points = [params.eval_point(h) for h in helpers]
    ef_w = (params.eval_point(f) ** w).value
    units = np.eye(d * beta, dtype=np.int64)
    decode = np.empty((params.alpha, d * beta), dtype=np.int64)
    carry = None  # (k-1) x (d*beta): the shared block recovered at the previous step
    for i in range(beta):
        upsilon = units[i::beta]  # symbol i of every helper's bundle
        if carry is not None:
            cancel = build_gvm(points, i * seg - w, w).data @ carry % q
            upsilon = (upsilon - cancel * ef_w) % q
        solved = invert(build_gvm(points, i * seg, d)).data @ upsilon % q
        piece = solved[:seg]
        piece[seg - w :] += solved[seg:] * ef_w
        if carry is not None:
            piece[:w] += carry
        decode[i * seg : (i + 1) * seg] = piece % q
        carry = solved[seg:]
    return decode


def stripe_repairer(params: CodeParams, f: int, helpers):
    """Build the repair map for node f from the given helpers once; returns
    a function that rebuilds one batch.

    The function maps a dict of the helpers' (stripes, alpha) payloads, of
    any integer dtype, to node f's (stripes, alpha) int64 payload. Stripe 0
    of the first batch that holds a stripe is checked against the stepwise
    repairer.
    """
    if f in helpers:
        raise ValueError(f"node {f} cannot appear among its own helpers")
    helpers = sorted(helpers)
    d = len(helpers)
    seg, beta = session_shape(params, d)
    e_f = params.eval_point(f)
    psi_f = np.array([(e_f**t).value for t in range(params.alpha)], dtype=np.int64)
    psi_seg = psi_f.reshape(beta, seg)
    decode_t = repair_matrix(params, f, helpers).T
    checked = False

    def rebuild(payloads: dict) -> np.ndarray:
        nonlocal checked
        stripes = payloads[helpers[0]].shape[0]
        bundles = np.empty((stripes, d, beta), dtype=np.int64)
        for i, h in enumerate(helpers):
            segments = np.asarray(payloads[h], dtype=np.int64).reshape(stripes, beta, seg)
            np.einsum("sbt,bt->sb", segments, psi_seg, out=bundles[:, i])
        bundles %= params.q
        rebuilt = (bundles.reshape(stripes, d * beta) @ decode_t) % params.q
        if not checked and stripes:
            shards = _node_shards_from_rows(
                (payloads[h][0] for h in helpers), helpers, params
            )
            reference_bundles = [make_repair_bundle(s, f, d, params) for s in shards]
            reference = repair(f, reference_bundles, params).symbol_values()
            if tuple(int(v) for v in rebuilt[0]) != reference:
                raise InconsistencyError("batched and stepwise repair disagree on stripe 0")
            checked = True
        return rebuilt

    return rebuild


def repair_stripes(payloads: dict, f: int, params: CodeParams) -> np.ndarray:
    """Rebuild node f's payload for all stripes from d helper payloads."""
    return stripe_repairer(params, f, payloads)(payloads)
