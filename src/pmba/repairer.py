"""Exact repair of one failed node from any supported helper count.

Each helper splits its shard into beta(d) segments and sends one inner
product per segment, projected onto the failed node's Vandermonde row. The
decoder inverts one d x d generalized Vandermonde per segment. Consecutive
segments of the message matrix share one symmetric block, so from step two
onward the decoder first cancels the shared block's contribution (the
carry) and afterwards adds it back into the rebuilt segment. Per helper
exactly beta(d) = alpha / (d-k+1) symbols move, which is the minimum any
MDS code can achieve, for every d in D simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoder import NodeShard
from .matrix import Matrix, build_gvm, invert
from .params import CodeParams


@dataclass(frozen=True)
class RepairBundle:
    helper_index: int
    failed_index: int
    d: int
    symbols: tuple  # beta(d) FieldElement values


def session_shape(params: CodeParams, d: int):
    """Segment length and per-helper symbol count for helper count d."""
    if d not in params.helper_counts:
        valid = "{" + ", ".join(map(str, params.helper_counts)) + "}"
        raise ValueError(f"d = {d} is not a supported helper count; valid D = {valid}")
    seg = d - params.k + 1  # segment length, = m(k-1)
    return seg, params.per_node_bandwidth[d]


def check_repair_nodes(params: CodeParams, f: int, helpers) -> None:
    """Refuse a failed index not in 1..n, a helper list that
    `CodeParams.check_nodes` refuses, or the failed node among its helpers."""
    if not 1 <= f <= params.n:
        raise ValueError(f"failed index must be in 1..{params.n}, got {f}")
    params.check_nodes(helpers)
    if f in helpers:
        raise ValueError(f"node {f} cannot appear among its own helpers")


def make_repair_bundle(
    helper_shard: NodeShard, f: int, d: int, params: CodeParams
) -> RepairBundle:
    seg, beta = session_shape(params, d)
    h = helper_shard.node_index
    check_repair_nodes(params, f, [h])
    if len(helper_shard.symbols) != params.alpha:
        raise ValueError(
            f"helper shard holds {len(helper_shard.symbols)} symbols, "
            f"expected alpha = {params.alpha}"
        )
    e_f = params.eval_point(f)
    # The first alpha entries of the failed node's coefficient row.
    psi_f = [e_f**t for t in range(params.alpha)]
    symbols = []
    for i in range(beta):
        acc = params.field.zero()
        for t in range(i * seg, (i + 1) * seg):
            acc = acc + helper_shard.symbols[t] * psi_f[t]
        symbols.append(acc)
    return RepairBundle(helper_index=h, failed_index=f, d=d, symbols=tuple(symbols))


def repair(f: int, bundles, params: CodeParams) -> NodeShard:
    """Rebuild node f's exact shard from d consistent repair bundles."""
    bundles = sorted(bundles, key=lambda b: b.helper_index)
    if not bundles:
        raise ValueError("no repair bundles supplied")
    d = bundles[0].d
    seg, beta = session_shape(params, d)
    if len(bundles) != d:
        raise ValueError(f"need exactly d = {d} bundles, got {len(bundles)}")
    helpers = [b.helper_index for b in bundles]
    check_repair_nodes(params, f, helpers)
    for b in bundles:
        if b.failed_index != f:
            raise ValueError(
                f"bundle from node {b.helper_index} targets node {b.failed_index}, "
                f"not {f}"
            )
        if b.d != d:
            raise ValueError(f"bundles mix helper counts {d} and {b.d}")
        if len(b.symbols) != beta:
            raise ValueError(
                f"bundle from node {b.helper_index} holds {len(b.symbols)} symbols, "
                f"expected beta = {beta}"
            )

    field = params.field
    k = params.k
    w = k - 1
    e_points = [params.eval_point(h) for h in helpers]
    e_f = params.eval_point(f)
    ef_w = (e_f**w).value

    segments = []
    w_prev = None  # the projected shared block from the previous step
    for i in range(1, beta + 1):
        upsilon = Matrix.column_vector(field, [b.symbols[i - 1] for b in bundles])
        if i >= 2:
            cancel_rows = build_gvm(e_points, (i - 1) * seg - w, w)
            carry = w_prev.transpose().scaled(ef_w)
            upsilon = upsilon - cancel_rows @ carry
        omega_inv = invert(build_gvm(e_points, (i - 1) * seg, d))
        theta = omega_inv.submatrix(row_indices=range(seg))
        xi = omega_inv.submatrix(row_indices=range(seg, d))
        piece = (theta @ upsilon).transpose()  # 1 x seg
        w_i = (xi @ upsilon).transpose()  # 1 x (k-1)
        vals = list(piece.data[0])
        tail = w_i.data[0] * ef_w % params.q
        for t in range(w):
            vals[seg - w + t] = (vals[seg - w + t] + tail[t]) % params.q
        if i >= 2:
            head = w_prev.data[0]
            for t in range(w):
                vals[t] = (vals[t] + head[t]) % params.q
        segments.extend(int(v) for v in vals)
        w_prev = w_i

    symbols = tuple(field.element(v) for v in segments)
    return NodeShard(node_index=f, eval_point=e_f, symbols=symbols)
