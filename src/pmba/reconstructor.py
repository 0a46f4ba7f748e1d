"""Recover all F source symbols from any k shards.

Stacking the k accessed shards gives X = Psi_DC * M. Because consecutive
column blocks of Psi_DC differ by the diagonal factor Lambda_DC of the
points' (k-1)-th powers, column block i of X reads

    X(i) = Psi_DC(i-1) * S_{2i-2} + Psi_DC(i) * S_{2i-1} + Lambda_DC * Psi_DC(i) * S_{2i}

so after subtracting the block pair recovered in the previous step, each
step is one two-symmetric-unknowns solve. The whole procedure only works
when the (k-1)-th powers of the accessed evaluation points are pairwise
distinct; the session refuses to start otherwise, through
`CodeParams.check_decodable`, naming the colliding nodes.
"""

from __future__ import annotations

from .encoder import coefficient_matrix, flatten_blocks
from .matrix import Matrix, solve_symmetric_pair
from .params import CodeParams


class ReconstructionSession:
    """Precomputed matrices for one choice of k accessed nodes."""

    def __init__(self, shards, params: CodeParams):
        k, z, alpha = params.k, params.z_delta, params.alpha
        shards = tuple(shards)
        indices = [s.node_index for s in shards]
        params.check_decodable(indices)
        for s in shards:
            if len(s.symbols) != alpha:
                raise ValueError(
                    f"shard {s.node_index} holds {len(s.symbols)} symbols, "
                    f"expected alpha = {alpha}"
                )
            if s.eval_point != params.eval_point(s.node_index):
                raise ValueError(
                    f"shard {s.node_index} carries evaluation point "
                    f"{s.eval_point.value}, parameters say "
                    f"{params.eval_points[s.node_index - 1]}"
                )

        self.params = params
        self.accessed_nodes = tuple(indices)

        powers = [(s.eval_point ** (k - 1)).value for s in shards]
        self.lambda_dc = Matrix.diagonal(params.field, powers)

        psi = coefficient_matrix(params)
        psi_dc = psi.submatrix(row_indices=[i - 1 for i in indices])
        w = k - 1
        self.psi_dc_blocks = [
            psi_dc.submatrix(col_indices=range(i * w, (i + 1) * w)) for i in range(z + 1)
        ]
        for i in range(z):
            assert self.lambda_dc @ self.psi_dc_blocks[i] == self.psi_dc_blocks[i + 1]

        x_dc = Matrix.from_rows(params.field, (s.symbol_values() for s in shards))
        self.x_dc_blocks = [
            x_dc.submatrix(col_indices=range(i * w, (i + 1) * w)) for i in range(z)
        ]

    def run(self) -> tuple:
        """Peel the block pairs in order and return the flat source."""
        blocks = []
        prev_even = None
        for i in range(self.params.z_delta):
            x_i = self.x_dc_blocks[i]
            if prev_even is not None:
                x_i = x_i - self.psi_dc_blocks[i - 1] @ prev_even
            odd, even = solve_symmetric_pair(
                x_i, self.psi_dc_blocks[i], self.lambda_dc
            )
            blocks.append(odd)
            blocks.append(even)
            prev_even = even
        return flatten_blocks(blocks, self.params.k)


def reconstruct(shards, params: CodeParams) -> tuple:
    """Source symbols of one stripe, in the encoder's fill order."""
    return ReconstructionSession(shards, params).run()
