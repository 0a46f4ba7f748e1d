"""Batch codec between raw bytes and per-node symbol arrays.

File payloads are striped: every F consecutive symbols form one stripe that
is encoded independently. Encoding, reconstruction and repair are all
linear over the field, and each path derives its linear map in closed form
from the construction: the encoding map places each node's Vandermonde
row into the banded message-matrix layout, the decoding map inverts the
accessed nodes' rows of it, and the repair map runs the segment peel of
the repairer on all unit bundles at once. Every map is applied to all
stripes in integer matrix products; encoding reads, for each stored
column, only the at most 3(k-1) source symbols of its band. Stripe zero of
every batch is additionally pushed through the stepwise codec and
compared, so the fast path can never drift from the reference one
unnoticed.
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


def bytes_to_source(data: bytes, params: CodeParams) -> np.ndarray:
    """Map bytes one-to-one onto symbols, zero-padded to whole stripes."""
    if params.q < BYTE_SAFE_MIN_Q:
        raise ValueError(
            f"q = {params.q} cannot carry byte payloads; need q >= {BYTE_SAFE_MIN_Q}"
        )
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    f_sym = params.file_symbols
    stripes = (len(arr) + f_sym - 1) // f_sym
    padded = np.zeros(stripes * f_sym, dtype=np.int64)
    padded[: len(arr)] = arr
    return padded.reshape(stripes, f_sym)


def source_to_bytes(source: np.ndarray, original_length: int) -> bytes:
    flat = source.reshape(-1)
    if original_length > flat.size:
        raise ValueError(
            f"decoded stripes hold {flat.size} symbols, fewer than the "
            f"recorded length {original_length}"
        )
    head = flat[:original_length]
    if head.size and int(head.max()) > 255:
        raise InconsistencyError("decoded symbol exceeds byte range; data is corrupt")
    return head.astype(np.uint8).tobytes()


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


def encode_stripes(source: np.ndarray, params: CodeParams) -> np.ndarray:
    """Encode every stripe; result indexed [node-1, stripe, symbol]."""
    enc = encode_matrix(params).reshape(params.n, params.alpha, params.file_symbols)
    out = np.empty((params.n, source.shape[0], params.alpha), dtype=np.int64)
    for c in range(params.alpha):
        # Stored column c reads only the source symbols of its block band.
        support = np.flatnonzero(enc[:, c].any(axis=0))
        coded = source[:, support] @ enc[:, c, support].T  # (stripes, n)
        coded %= params.q
        out[:, :, c] = coded.T
    if source.shape[0]:
        m = build_message_matrix([int(v) for v in source[0]], params)
        for shard in encode_all(m, params):
            if tuple(int(v) for v in out[shard.node_index - 1, 0]) != shard.symbol_values():
                raise InconsistencyError(
                    "batched and stepwise encoders disagree on stripe 0"
                )
    return out


def reconstruct_stripes(payloads: dict, params: CodeParams) -> np.ndarray:
    """Decode all stripes from exactly k node payloads of shape (stripes, alpha)."""
    nodes = sorted(payloads)
    if len(nodes) != params.k:
        raise ValueError(f"need exactly k = {params.k} node payloads, got {len(nodes)}")
    enc = encode_matrix(params)
    rows = []
    for j in nodes:
        rows.append(enc[(j - 1) * params.alpha : j * params.alpha])
    subset = np.concatenate(rows, axis=0)  # (k*alpha, F), square since alpha = F/k
    decode = invert(Matrix(params.field, subset)).data
    observed = np.concatenate([payloads[j] for j in nodes], axis=1)
    source = (observed @ decode.T) % params.q
    if source.shape[0]:
        shards = _node_shards_from_rows((payloads[j][0] for j in nodes), nodes, params)
        reference = tuple(s.value for s in reconstruct(shards, params))
        if tuple(int(v) for v in source[0]) != reference:
            raise InconsistencyError("batched and stepwise decoders disagree on stripe 0")
    return source


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


def repair_stripes(payloads: dict, f: int, params: CodeParams) -> np.ndarray:
    """Rebuild node f's payload for all stripes from d helper payloads."""
    if f in payloads:
        raise ValueError(f"node {f} cannot appear among its own helpers")
    helpers = sorted(payloads)
    d = len(helpers)
    seg, beta = session_shape(params, d)
    stripes = next(iter(payloads.values())).shape[0]

    e_f = params.eval_point(f)
    psi_f = np.array([(e_f**t).value for t in range(params.alpha)], dtype=np.int64)
    psi_seg = psi_f.reshape(beta, seg)
    stacked_helpers = np.stack([payloads[h] for h in helpers])  # (d, stripes, alpha)
    bundles = (
        np.einsum("hsbt,bt->hsb", stacked_helpers.reshape(d, stripes, beta, seg), psi_seg)
        % params.q
    )

    decode = repair_matrix(params, f, helpers)
    flat = bundles.transpose(1, 0, 2).reshape(stripes, d * beta)
    rebuilt = (flat @ decode.T) % params.q
    if stripes:
        shards = _node_shards_from_rows(
            (payloads[h][0] for h in helpers), helpers, params
        )
        reference_bundles = [make_repair_bundle(s, f, d, params) for s in shards]
        reference = repair(f, reference_bundles, params).symbol_values()
        if tuple(int(v) for v in rebuilt[0]) != reference:
            raise InconsistencyError("batched and stepwise repair disagree on stripe 0")
    return rebuilt
