"""Arrange source symbols into the banded message matrix and encode nodes.

A stripe of F = k * alpha source symbols fills 2z symmetric (k-1) x (k-1)
blocks S_1 .. S_{2z}. Block column j of the assembled matrix M carries
S_{2j-2} above the diagonal block S_{2j-1} with S_{2j} below, and node j
stores the alpha-symbol product of its Vandermonde row with M. The band
shape is what lets the decoder peel one block pair per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import FieldElement
from .matrix import Matrix, build_gvm
from .params import CodeParams


@dataclass(frozen=True)
class MessageMatrix:
    blocks: tuple  # S_1 .. S_{2z}, each a symmetric (k-1) x (k-1) Matrix
    assembled: Matrix  # (z+1)(k-1) x z(k-1)


@dataclass(frozen=True)
class NodeShard:
    node_index: int
    eval_point: FieldElement
    symbols: tuple  # alpha FieldElement values

    def symbol_values(self) -> tuple:
        return tuple(s.value for s in self.symbols)


def check_shard(shard: NodeShard, params: CodeParams) -> None:
    """Refuse a shard whose node index `check_nodes` refuses, whose
    evaluation point is not its node's, or that holds other than alpha symbols."""
    j = shard.node_index
    if shard.eval_point != params.eval_point(j):
        raise ValueError(
            f"shard {j} carries evaluation point {shard.eval_point.value}, "
            f"parameters say {params.eval_points[j - 1]}"
        )
    if len(shard.symbols) != params.alpha:
        raise ValueError(
            f"shard {j} holds {len(shard.symbols)} symbols, expected alpha = {params.alpha}"
        )


@lru_cache(maxsize=16)
def coefficient_matrix(params: CodeParams) -> Matrix:
    """The n x (z+1)(k-1) encoding matrix; row j encodes node j, cached per code."""
    points = [params.field.element(e) for e in params.eval_points]
    return build_gvm(points, 0, (params.z_delta + 1) * (params.k - 1))


def block_fill_order(k: int):
    """Within-block positions in fill order: upper triangle, row-major."""
    return [(r, c) for r in range(k - 1) for c in range(r, k - 1)]


@lru_cache(maxsize=16)
def message_layout(params: CodeParams):
    """Source index held by each entry of the assembled message matrix.

    Returns a read-only (z+1)(k-1) x z(k-1) int64 array, cached per code;
    entries off the block band are -1. S_{2j} sits both below S_{2j-1} in
    block column j and above S_{2j+1} in block column j+1, but within one
    column no source index repeats, so the map from a stripe to one stored
    column has exactly one coefficient per source symbol it reads.
    """
    k, z = params.k, params.z_delta
    w = k - 1
    positions = block_fill_order(k)
    tri = np.empty((w, w), dtype=np.int64)
    for i, (r, c) in enumerate(positions):
        tri[r, c] = tri[c, r] = i
    layout = np.full(((z + 1) * w, z * w), -1, dtype=np.int64)
    for j in range(z):  # 0-based block column: S_{2j}, S_{2j+1}, S_{2j+2}
        for b in range(max(2 * j - 1, 0), 2 * j + 2):
            row = b - j
            layout[row * w : (row + 1) * w, j * w : (j + 1) * w] = b * len(positions) + tri
    layout.flags.writeable = False
    return layout


def node_maps(params: CodeParams, nodes) -> np.ndarray:
    """The (len(nodes), alpha, F) int64 map from one stripe to the payloads
    of the given 1-based nodes."""
    layout = message_layout(params)
    rows, cols = np.nonzero(layout >= 0)
    psi = coefficient_matrix(params).data[np.asarray(nodes) - 1]
    out = np.zeros((len(psi), params.alpha, params.file_symbols), dtype=np.int64)
    # Each source symbol appears at most once per column of the layout, so
    # every map entry is one coefficient and needs no reduction.
    out[:, cols, layout[rows, cols]] = psi[:, rows]
    return out


def build_message_matrix(source, params: CodeParams) -> MessageMatrix:
    vals = [int(s) % params.q for s in source]
    if len(vals) != params.file_symbols:
        raise ValueError(
            f"source must hold exactly F = {params.file_symbols} symbols, got {len(vals)}"
        )
    layout = message_layout(params)
    assembled = np.where(layout >= 0, np.array(vals, dtype=np.int64)[layout], 0)
    w = params.k - 1
    blocks = []
    for b in range(2 * params.z_delta):  # S_{b+1}, read where block column b//2 holds it
        row, col = b - b // 2, b // 2
        block = assembled[row * w : (row + 1) * w, col * w : (col + 1) * w]
        blocks.append(Matrix(params.field, block))
    return MessageMatrix(
        blocks=tuple(blocks), assembled=Matrix(params.field, assembled)
    )


def encode_node(m: MessageMatrix, params: CodeParams, node_index: int) -> NodeShard:
    params.check_nodes([node_index])
    return encode_all(m, params)[node_index - 1]


def encode_all(m: MessageMatrix, params: CodeParams) -> tuple:
    psi = coefficient_matrix(params)
    product = psi @ m.assembled
    # a list, not a generator: tuple() regrows a generator's result as it
    # goes, and over repeated `Cluster.store` calls that raised peak RSS
    return tuple([
        NodeShard(node_index=j, eval_point=params.eval_point(j), symbols=params.field.elements(row))
        for j, row in enumerate(product.data.tolist(), start=1)
    ])
