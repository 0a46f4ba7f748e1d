"""Exact repair of one failed node from any supported helper count.

Every map here slices rows of `encoder.coefficient_matrix`, where row j
holds x_j^0 .. x_j^((z+1)(k-1)-1). Each helper splits its shard into
beta(d) segments and sends one inner product per segment, against the first
alpha entries of node f's row; `bundle_map` is that (alpha, beta) map.
Step i of the rebuild solves with the helpers' d x d slice from column
i(d-k+1), which is diag(x_h^(i(d-k+1))) times the first slice, so one
inverse serves every step.
Consecutive segments of the message matrix share one symmetric block, so
from step two onward it first cancels that block (the carry), through the
k-1 columns before the slice and Lambda_f = x_f^(k-1), column k-1 of row f,
and afterwards adds it back into the rebuilt segment; `repair_matrix` runs
this peel once on all d*beta unit bundles, giving the map from stacked
bundles to node f. Neither map depends on the stripe: each is built once
per code, f and d or helper set and held, read-only, in a bounded cache.
`make_repair_bundle` and `repair` apply them to one stripe. On a batch,
`striping.stripe_bundler` applies `bundle_map` to any helpers' payloads,
and `striping.stripe_repairer` is that bundler followed by `repair_matrix`.
Per helper exactly beta(d) = alpha / (d-k+1) symbols move, the MDS
minimum, for every d in D at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoder import NodeShard, check_shard, coefficient_matrix
from .field import residues
from .matrix import Matrix, invert
from .params import CodeParams, set_text


@dataclass(frozen=True)
class RepairBundle:
    helper_index: int
    failed_index: int
    d: int
    symbols: tuple  # beta(d) FieldElement values


def check_helper_count(helper_counts, d: int) -> None:
    """Refuse a helper count d outside D = helper_counts, listing D."""
    if d not in helper_counts:
        raise ValueError(f"d = {d} is not a supported helper count; valid D = {set_text(helper_counts)}")


def session_shape(params: CodeParams, d: int):
    """Segment length and per-helper symbol count for helper count d."""
    check_helper_count(params.helper_counts, d)
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


@lru_cache(maxsize=32)
def bundle_map(params: CodeParams, f: int, d: int) -> np.ndarray:
    """The read-only alpha x beta map from one helper's payload to its
    bundle for node f, refusing a d outside D, then an f outside 1..n:
    bundle symbol b is segment b against the same entries of the first
    alpha of node f's row of `coefficient_matrix`."""
    seg, beta = session_shape(params, d)
    check_repair_nodes(params, f, ())
    alpha = params.alpha
    out = np.zeros((alpha, beta), dtype=np.int64)
    out[np.arange(alpha), np.arange(alpha) // seg] = coefficient_matrix(params).data[f - 1, :alpha]
    out.flags.writeable = False
    return out


def repair_matrix(params: CodeParams, f: int, helpers) -> np.ndarray:
    """The read-only alpha x (d*beta) linear map from stacked repair bundles
    to node f, for helpers given in any order.

    Column h*beta + i stands for symbol i of the bundle from the h-th
    helper in ascending order. This is the segment peel run on the d*beta
    unit bundles at once: each of the beta steps solves with one d x d
    generalized Vandermonde, the first one's inverse rescaled per helper,
    and cancels the (k-1)-block carried over from the step before. The map
    is built once per code, f and helper set, with one inverse.
    """
    helpers = sorted(helpers)
    check_repair_nodes(params, f, helpers)
    return _repair_matrix(params, f, tuple(helpers))


@lru_cache(maxsize=32)  # the largest entry, at (3,5,20) with d = 12, is 135 KiB
def _repair_matrix(params: CodeParams, f: int, helpers: tuple) -> np.ndarray:
    d = len(helpers)
    seg, beta = session_shape(params, d)
    q, w = params.q, params.k - 1
    psi = coefficient_matrix(params).data
    rows, ef_w = psi[np.array(helpers) - 1], psi[f - 1, w]  # Lambda_f = x_f^(k-1)
    # step i's slice is diag(x_h^(i*seg)) times step 0's, so its inverse is
    # step 0's with column h scaled by x_h^(-i*seg); `coefficient_matrix`
    # has refused a zero point, so every x_h^seg is invertible
    inverse = invert(Matrix(params.field, rows[:, :d])).data
    unscale = np.array([pow(int(v), -1, q) for v in rows[:, seg]], dtype=np.int64)
    units = np.eye(d * beta, dtype=np.int64)
    decode = np.empty((params.alpha, d * beta), dtype=np.int64)
    carry = None  # (k-1) x (d*beta): the shared block recovered at the previous step
    for i in range(beta):
        upsilon = units[i::beta]  # symbol i of every helper's bundle
        if carry is not None:
            upsilon = (upsilon - rows[:, i * seg - w : i * seg] @ carry % q * ef_w) % q
            inverse = inverse * unscale % q  # step i's, from step i-1's
        solved = inverse @ upsilon % q
        piece = solved[:seg]
        piece[seg - w :] += solved[seg:] * ef_w
        if carry is not None:
            piece[:w] += carry
        decode[i * seg : (i + 1) * seg] = piece % q
        carry = solved[seg:]
    decode.flags.writeable = False
    return decode


def make_repair_bundle(
    helper_shard: NodeShard, f: int, d: int, params: CodeParams
) -> RepairBundle:
    bundle = bundle_map(params, f, d)  # refuses a d outside D, then f, before the helper's checks
    h = helper_shard.node_index
    check_repair_nodes(params, f, [h])
    check_shard(helper_shard, params)  # after its node check above
    payload = residues(helper_shard.symbols, params.q)
    symbols = params.field.elements(payload @ bundle % params.q)
    return RepairBundle(helper_index=h, failed_index=f, d=d, symbols=symbols)


def repair(f: int, bundles, params: CodeParams) -> NodeShard:
    """Rebuild node f's exact shard from d consistent repair bundles."""
    bundles = sorted(bundles, key=lambda b: b.helper_index)
    if not bundles:
        raise ValueError("no repair bundles supplied")
    d = bundles[0].d
    _, beta = session_shape(params, d)
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

    # each of the d*beta products is below q**2 <= 2**32, so int64 sums stay exact
    stacked = residues([s for b in bundles for s in b.symbols], params.q)
    # f and the helpers are checked above, and the bundles sorted by helper
    decoding = _repair_matrix(params, f, tuple(helpers))
    symbols = params.field.elements(decoding @ stacked % params.q)
    point = params.field.element(params.eval_points[f - 1])
    return NodeShard(node_index=f, eval_point=point, symbols=symbols)
