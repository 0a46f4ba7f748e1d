"""Recover all F source symbols from any k shards.

Write u_i for the block pair (S_{2i+1}, S_{2i+2}) of the message matrix,
contiguous in source order, x_i for block column i (0-based) of the k
nodes' payloads, P = k(k-1)/2 for the block size, Lambda for the diagonal
of their x_j^(k-1), column k-1 of `coefficient_matrix`, and A_0 for the
k(k-1)-square map from u_0 to x_0. The band shape gives
x_i = Lambda^i A_0 u_i + Lambda^(i-1) A_0[:, :P] u_(i-1)[P:], so one
inverse of A_0 peels every step. `peel_maps` builds the step and carry
maps once per node set; `decode_maps` caches them per code and node set,
`ReconstructionSession` applies them to one stripe in int64 and
`striping.stripe_decoder` to a batch in float32 or float64 BLAS. A_0 is
singular exactly when two of the nodes share a (k-1)-th power; both
refuse such nodes first, by name, through `CodeParams.check_decodable`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .encoder import check_shard, coefficient_matrix, node_maps
from .matrix import Matrix, invert
from .params import CodeParams


def peel_maps(params: CodeParams, nodes, a0: np.ndarray):
    """The block peel's int64 maps for the k ascending `nodes`, whose
    k(k-1)-square block A_0 is `a0`.

    Returns `steps`, of shape (z, k(k-1), k(k-1)) with steps[i] =
    A_0^-1 Lambda^-i, and `carry` = -A_0^-1 Lambda^-1 A_0[:, :P], of shape
    (k(k-1), P), all residues mod q.
    """
    q, w = params.q, params.k - 1
    a0_inv = invert(Matrix(params.field, a0)).data
    lam = coefficient_matrix(params).data[np.asarray(nodes) - 1, w]
    lam_inv = np.repeat([pow(int(v), -1, q) for v in lam], w)
    steps = np.empty((params.z_delta, *a0.shape), dtype=np.int64)
    scale = np.ones(len(lam_inv), dtype=np.int64)
    for i in range(params.z_delta):
        steps[i] = a0_inv * scale % q
        scale = scale * lam_inv % q
    carry = -(a0_inv @ (lam_inv[:, None] * a0[:, : len(a0) // 2] % q)) % q
    return steps, carry


@lru_cache(maxsize=32)
def decode_maps(params: CodeParams, nodes: tuple):
    """`peel_maps` for the ascending tuple `nodes`, with A_0 sliced from
    their `node_maps`; read-only and built once per code and node set."""
    w, pair = params.k - 1, params.k * (params.k - 1)
    a0 = node_maps(params, nodes)[:, :w, :pair].reshape(pair, pair)
    steps, carry = peel_maps(params, nodes, a0)
    steps.flags.writeable = carry.flags.writeable = False
    return steps, carry


class ReconstructionSession:
    """The peel's maps for one choice of k accessed nodes, and their payloads."""

    def __init__(self, shards, params: CodeParams):
        k, z, w = params.k, params.z_delta, params.k - 1
        shards = tuple(shards)
        indices = [s.node_index for s in shards]
        params.check_decodable(indices)
        for s in shards:
            check_shard(s, params)

        self.params = params
        self.accessed_nodes = tuple(indices)
        self.steps, self.carry = decode_maps(params, tuple(sorted(indices)))
        ordered = sorted(shards, key=lambda s: s.node_index)
        payloads = np.array([s.symbol_values() for s in ordered], dtype=np.int64)
        # row i is block column i of the ascending nodes' payloads
        self.x_dc = payloads.reshape(k, z, w).swapaxes(0, 1).reshape(z, k * w)

    @cached_property
    def lambda_dc(self) -> Matrix:
        """diag(x_j^(k-1)) of the accessed nodes, in the order given. Built
        when first read: the peel uses only `steps` and `carry`."""
        w = self.params.k - 1
        lam = coefficient_matrix(self.params).data[np.array(self.accessed_nodes) - 1, w]
        return Matrix.diagonal(self.params.field, lam)

    def run(self) -> tuple:
        """Peel the block pairs in order and return the flat source."""
        q, half = self.params.q, self.carry.shape[1]
        # each product is below q**2 <= 2**32 and each sum has at most
        # k(k-1) terms, so int64 stays exact
        peeled = np.einsum("ist,it->is", self.steps, self.x_dc) % q
        for i in range(1, len(peeled)):
            peeled[i] = (peeled[i] + self.carry @ peeled[i - 1, half:]) % q
        return self.params.field.elements(peeled.reshape(-1))


def reconstruct(shards, params: CodeParams) -> tuple:
    """Source symbols of one stripe, in the encoder's fill order."""
    return ReconstructionSession(shards, params).run()
