# tests/test_matrix.py
import itertools

import numpy as np
import pytest

from pmba.field import PrimeField
from pmba.matrix import (
    InconsistencyError,
    Matrix,
    SingularMatrixError,
    build_gvm,
    invert,
    mat_mul,
    solve_symmetric_pair,
    transpose,
)

F11 = PrimeField(11)


def points(field, values):
    return [field.element(v) for v in values]


# Known-good tables over F_11, checked by hand against the worked
# (n=7, k=3, delta=2) instance used throughout the suite.

COEFF_TABLE_7x6 = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 4, 8, 5, 10],
    [1, 3, 9, 5, 4, 1],
    [1, 4, 5, 9, 3, 1],
    [1, 5, 3, 4, 9, 1],
    [1, 6, 3, 7, 9, 10],
    [1, 7, 5, 2, 3, 10],
]

# inverse of the 6x6 table on points 1..6, powers 0..5
INV_6x6_POINTS_1_TO_6 = [
    [6, 7, 9, 7, 6, 10],
    [10, 10, 9, 0, 3, 1],
    [3, 6, 9, 1, 9, 5],
    [1, 8, 0, 8, 2, 3],
    [2, 7, 7, 5, 8, 4],
    [1, 6, 10, 1, 5, 10],
]

# inverse of the 4x4 table on points 1..4, powers 0..3
INV_4x4_POWERS_0 = [
    [4, 5, 4, 10],
    [3, 4, 4, 0],
    [7, 7, 9, 10],
    [9, 6, 5, 2],
]

# inverse of the 4x4 table on points 1..4, powers 2..5
INV_4x4_POWERS_2 = [
    [4, 4, 9, 2],
    [3, 1, 9, 0],
    [7, 10, 1, 2],
    [9, 7, 3, 7],
]


# ---------------------------------------------------------------------------
# construction and access
# ---------------------------------------------------------------------------


def test_from_rows_reduces_and_rejects_ragged_input():
    m = Matrix.from_rows(F11, [[12, -1], [0, 3]])
    assert m.to_lists() == [[1, 10], [0, 3]]
    with pytest.raises(ValueError):
        Matrix.from_rows(F11, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.from_rows(F11, [])


def test_constructors_and_shape():
    assert Matrix.zeros(F11, 2, 3).is_zero()
    assert Matrix.identity(F11, 3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert Matrix.diagonal(F11, [1, 4, 5]).to_lists() == [
        [1, 0, 0],
        [0, 4, 0],
        [0, 0, 5],
    ]
    rv = Matrix.row_vector(F11, [1, 7, 5, 2])
    cv = Matrix.column_vector(F11, [1, 7])
    assert (rv.rows, rv.cols) == (1, 4)
    assert (cv.rows, cv.cols) == (2, 1)


def test_entry_row_values_submatrix():
    m = Matrix.from_rows(F11, COEFF_TABLE_7x6)
    assert m.entry(1, 3).value == 8
    assert m.row_values(6) == (1, 7, 5, 2, 3, 10)
    sub = m.submatrix(row_indices=[0, 1, 3], col_indices=range(2))
    assert sub.to_lists() == [[1, 1], [1, 2], [1, 4]]


def test_matrix_is_immutable():
    m = Matrix.identity(F11, 2)
    with pytest.raises(AttributeError):
        m.data = None
    with pytest.raises(ValueError):
        m.data[0, 0] = 5  # numpy write flag cleared


def test_equality_and_hash():
    a = Matrix.from_rows(F11, [[1, 2], [3, 4]])
    b = Matrix(F11, np.array([[12, 13], [14, 15]]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Matrix.from_rows(PrimeField(13), [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# products, sums, transposes
# ---------------------------------------------------------------------------


def test_product_with_identity():
    a = Matrix.from_rows(F11, [[1, 2, 3], [4, 5, 6]])
    assert a @ Matrix.identity(F11, 3) == a
    assert Matrix.identity(F11, 2) @ a == a


def test_transpose_of_product_is_reversed_product_of_transposes():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = Matrix(F11, rng.integers(0, 11, size=(3, 4)))
        b = Matrix(F11, rng.integers(0, 11, size=(4, 2)))
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert transpose(a) == a.T


def test_known_row_times_message_matrix():
    # the node-7 coefficient row against the worked 6x4 message layout
    # filled with symbols 1..12 mod 11
    s = list(range(1, 13))
    m = Matrix.from_rows(
        F11,
        [
            [s[0], s[1], s[3], s[4]],
            [s[1], s[2], s[4], s[5]],
            [s[3], s[4], s[6], s[7]],
            [s[4], s[5], s[7], s[8]],
            [0, 0, s[9], s[10]],
            [0, 0, s[10], s[11]],
        ],
    )
    row = Matrix.row_vector(F11, [1, 7, 5, 2, 3, 10])
    got = (row @ m).row_values(0)
    by_hand = (
        (s[0] + 7 * s[1] + 5 * s[3] + 2 * s[4]) % 11,
        (s[1] + 7 * s[2] + 5 * s[4] + 2 * s[5]) % 11,
        (s[3] + 7 * s[4] + 5 * s[6] + 2 * s[7] + 3 * s[9] + 10 * s[10]) % 11,
        (s[4] + 7 * s[5] + 5 * s[7] + 2 * s[8] + 3 * s[10] + 10 * s[11]) % 11,
    )
    assert got == by_hand == (1, 5, 10, 5)


def test_shape_and_modulus_mismatches_are_rejected():
    a = Matrix.zeros(F11, 2, 3)
    b = Matrix.zeros(F11, 2, 2)
    with pytest.raises(ValueError):
        mat_mul(a, a)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a @ Matrix.zeros(PrimeField(13), 3, 2)


def test_add_sub_scaled():
    a = Matrix.from_rows(F11, [[1, 2], [3, 4]])
    b = Matrix.from_rows(F11, [[10, 10], [10, 10]])
    assert (a + b).to_lists() == [[0, 1], [2, 3]]
    assert (a - b).to_lists() == [[2, 3], [4, 5]]
    assert a.scaled(5).to_lists() == [[5, 10], [4, 9]]
    assert a.scaled(F11.element(0)).is_zero()


def test_products_stay_exact_when_int64_would_overflow():
    # A modulus whose squared residues could overflow an int64 inner product
    # is refused; at the largest allowed prime, a long inner product of the
    # largest residues still matches Python's arbitrary-precision integers.
    with pytest.raises(ValueError, match="65535"):
        PrimeField(2**31 - 1)
    field = PrimeField(65521)
    q, inner = field.modulus, 100_000
    a = Matrix(field, np.full((2, inner), q - 1, dtype=np.int64))
    b = Matrix(field, np.full((inner, 3), q - 1, dtype=np.int64))
    want = inner * (q - 1) * (q - 1) % q
    assert (a @ b).to_lists() == [[want] * 3] * 2


def test_is_symmetric():
    assert Matrix.from_rows(F11, [[1, 2], [2, 3]]).is_symmetric()
    assert not Matrix.from_rows(F11, [[1, 2], [3, 4]]).is_symmetric()
    assert not Matrix.zeros(F11, 2, 3).is_symmetric()


# ---------------------------------------------------------------------------
# generalized Vandermonde construction
# ---------------------------------------------------------------------------


def test_gvm_reproduces_the_coefficient_table():
    m = build_gvm(points(F11, range(1, 8)), 0, 6)
    assert m.to_lists() == COEFF_TABLE_7x6
    assert m.row_values(1) == (1, 2, 4, 8, 5, 10)


def test_gvm_with_shifted_power_start():
    m = build_gvm(points(F11, range(1, 5)), 2, 4)
    assert m.to_lists() == [
        [1, 1, 1, 1],
        [4, 8, 5, 10],
        [9, 5, 4, 1],
        [5, 9, 3, 1],
    ]


def test_gvm_single_point_single_column():
    assert build_gvm(points(F11, [5]), 0, 1).to_lists() == [[1]]


def test_gvm_rejects_bad_points():
    with pytest.raises(ValueError):
        build_gvm(points(F11, [1, 0, 2]), 0, 3)
    with pytest.raises(ValueError):
        build_gvm(points(F11, [1, 2, 2]), 0, 3)
    with pytest.raises(ValueError):
        build_gvm([], 0, 3)
    with pytest.raises(ValueError):
        build_gvm([1, 2, 3], 0, 3)  # plain ints carry no field
    with pytest.raises(ValueError):
        build_gvm(points(F11, [1, 2]), -1, 2)
    with pytest.raises(ValueError):
        build_gvm(points(F11, [1, 2]), 0, 0)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_invert_known_tables():
    a = build_gvm(points(F11, range(1, 7)), 0, 6)
    assert invert(a).to_lists() == INV_6x6_POINTS_1_TO_6
    b = build_gvm(points(F11, range(1, 5)), 0, 4)
    assert invert(b).to_lists() == INV_4x4_POWERS_0
    c = build_gvm(points(F11, range(1, 5)), 2, 4)
    assert invert(c).to_lists() == INV_4x4_POWERS_2


def test_invert_identity_and_round_trip():
    eye = Matrix.identity(F11, 4)
    assert invert(eye) == eye
    rng = np.random.default_rng(3)
    for size in (1, 2, 3, 5):
        pts = points(F11, rng.choice(range(1, 11), size=size, replace=False))
        a = build_gvm(pts, int(rng.integers(0, 4)), size)
        assert invert(a) @ a == Matrix.identity(F11, size)
        assert a @ invert(a) == Matrix.identity(F11, size)


def test_invert_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        invert(Matrix.from_rows(F11, [[1, 1], [1, 1]]))
    with pytest.raises(SingularMatrixError):
        invert(Matrix.zeros(F11, 3, 3))
    with pytest.raises(ValueError) as err:
        invert(Matrix.zeros(F11, 2, 3))
    assert not isinstance(err.value, SingularMatrixError)


def test_every_square_gvm_over_f11_is_invertible():
    # all distinct nonzero point subsets up to size 6, all power starts 0..8
    nonzero = list(range(1, 11))
    eye_cache = {s: Matrix.identity(F11, s) for s in range(1, 7)}
    for size in range(1, 7):
        for subset in itertools.combinations(nonzero, size):
            for c in range(9):
                a = build_gvm(points(F11, subset), c, size)
                assert invert(a) @ a == eye_cache[size]


# ---------------------------------------------------------------------------
# the two-symmetric-unknowns solver
# ---------------------------------------------------------------------------


def worked_phi_and_delta():
    phi = build_gvm(points(F11, [1, 2, 4]), 0, 2)
    delta = Matrix.diagonal(F11, [1, 4, 5])
    return phi, delta


def test_solver_zero_input_gives_zero_unknowns():
    phi, delta = worked_phi_and_delta()
    a, b = solve_symmetric_pair(Matrix.zeros(F11, 3, 2), phi, delta)
    assert a.is_zero() and b.is_zero()


def test_solver_recovers_the_first_two_blocks_of_the_worked_stripe():
    # blocks built from symbols 1..6: the first decoding step of the
    # worked example reduces to exactly this solve
    phi, delta = worked_phi_and_delta()
    s1 = Matrix.from_rows(F11, [[1, 2], [2, 3]])
    s2 = Matrix.from_rows(F11, [[4, 5], [5, 6]])
    x = phi @ s1 + delta @ phi @ s2
    a, b = solve_symmetric_pair(x, phi, delta)
    assert a == s1
    assert b == s2


def test_solver_round_trips_random_symmetric_pairs():
    rng = np.random.default_rng(11)
    for q in (11, 13):
        field = PrimeField(q)
        for k in (2, 3, 4, 5):
            for _ in range(25):
                pts = points(
                    field, rng.choice(range(1, q), size=k, replace=False)
                )
                phi = build_gvm(pts, int(rng.integers(0, 3)), k - 1)
                diag = rng.choice(range(1, q), size=k, replace=False)
                delta = Matrix.diagonal(field, [int(v) for v in diag])
                raw_a = rng.integers(0, q, size=(k - 1, k - 1))
                raw_b = rng.integers(0, q, size=(k - 1, k - 1))
                a = Matrix(field, (raw_a + raw_a.T) % q)
                b = Matrix(field, (raw_b + raw_b.T) % q)
                x = phi @ a + delta @ phi @ b
                got_a, got_b = solve_symmetric_pair(x, phi, delta)
                assert got_a == a
                assert got_b == b


def test_solver_is_a_bijection_so_any_well_formed_x_solves():
    # x has k(k-1) entries and the two symmetric unknowns have k(k-1)
    # degrees of freedom combined, so the system is square: every input
    # has a (unique) preimage and the consistency check never fires on
    # arbitrary data. Corrupt symbols therefore decode to wrong values
    # silently; integrity must come from checksums, not the algebra.
    phi, delta = worked_phi_and_delta()
    rng = np.random.default_rng(99)
    for _ in range(50):
        x = Matrix(F11, rng.integers(0, 11, size=(3, 2)))
        a, b = solve_symmetric_pair(x, phi, delta)
        assert phi @ a + delta @ phi @ b == x
        assert a.is_symmetric() and b.is_symmetric()


def test_solver_rejects_bad_delta():
    phi, _ = worked_phi_and_delta()
    x = Matrix.zeros(F11, 3, 2)
    with pytest.raises(ValueError, match="distinct"):
        solve_symmetric_pair(x, phi, Matrix.diagonal(F11, [1, 4, 4]))
    with pytest.raises(ValueError, match="nonzero"):
        solve_symmetric_pair(x, phi, Matrix.diagonal(F11, [1, 0, 5]))
    with pytest.raises(ValueError, match="diagonal"):
        solve_symmetric_pair(x, phi, Matrix.from_rows(F11, [[1, 2, 0], [0, 4, 0], [0, 0, 5]]))


def test_solver_rejects_bad_phi_and_shapes():
    phi, delta = worked_phi_and_delta()
    x = Matrix.zeros(F11, 3, 2)
    not_geometric = Matrix.from_rows(F11, [[1, 1], [1, 2], [1, 1]])
    with pytest.raises(ValueError):
        solve_symmetric_pair(x, not_geometric, delta)
    with pytest.raises(ValueError):
        solve_symmetric_pair(Matrix.zeros(F11, 2, 2), phi, delta)
    with pytest.raises(ValueError):
        solve_symmetric_pair(x, Matrix.zeros(F11, 3, 2), delta)  # zero points
    with pytest.raises(ValueError):
        solve_symmetric_pair(x, phi, Matrix.diagonal(F11, [1, 4]))


def test_inconsistency_error_is_a_value_error():
    # callers that catch ValueError keep working
    assert issubclass(InconsistencyError, ValueError)
    assert issubclass(SingularMatrixError, ValueError)
