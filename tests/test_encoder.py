# tests/test_encoder.py
import numpy as np
import pytest

from pmba.encoder import (
    block_fill_order,
    build_message_matrix,
    coefficient_matrix,
    encode_all,
    encode_node,
)
from pmba.matrix import Matrix
from pmba.params import derive_params

WORKED = derive_params(3, 2, 7, q=11)


def worked_message(source=None):
    if source is None:
        source = range(1, 13)
    return build_message_matrix(list(source), WORKED)


# ---------------------------------------------------------------------------
# block layout
# ---------------------------------------------------------------------------


def test_fill_order_is_upper_triangle_row_major():
    assert block_fill_order(3) == [(0, 0), (0, 1), (1, 1)]
    assert block_fill_order(4) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert block_fill_order(2) == [(0, 0)]


def test_blocks_of_the_worked_stripe():
    m = worked_message()
    want = [
        [[1, 2], [2, 3]],
        [[4, 5], [5, 6]],
        [[7, 8], [8, 9]],
        [[10, 0], [0, 1]],  # symbols 11 and 12 reduce mod 11
    ]
    assert [blk.to_lists() for blk in m.blocks] == want
    assert all(blk.is_symmetric() for blk in m.blocks)


def test_assembled_matrix_of_the_worked_stripe():
    m = worked_message()
    assert m.assembled.to_lists() == [
        [1, 2, 4, 5],
        [2, 3, 5, 6],
        [4, 5, 7, 8],
        [5, 6, 8, 9],
        [0, 0, 10, 0],
        [0, 0, 0, 1],
    ]


def test_zero_source_gives_zero_matrix():
    m = build_message_matrix([0] * 12, WORKED)
    assert m.assembled.is_zero()
    assert all(blk.is_zero() for blk in m.blocks)


def test_positions_off_the_block_band_are_always_zero():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4, 5):
        for delta in (1, 2, 3):
            n = (delta + 1) * (k - 1) + 1
            p = derive_params(k, delta, n)
            src = rng.integers(0, p.q, size=p.file_symbols)
            m = build_message_matrix(src, p).assembled
            w = k - 1
            for br in range(p.z_delta + 1):
                for bc in range(p.z_delta):
                    if abs(br - bc) <= 1:
                        continue
                    block = m.submatrix(
                        row_indices=range(br * w, (br + 1) * w),
                        col_indices=range(bc * w, (bc + 1) * w),
                    )
                    assert block.is_zero(), (k, delta, br, bc)


def test_wrong_source_length_is_rejected():
    with pytest.raises(ValueError, match="F = 12"):
        build_message_matrix([1] * 11, WORKED)
    with pytest.raises(ValueError):
        build_message_matrix([1] * 13, WORKED)


# ---------------------------------------------------------------------------
# node encoding
# ---------------------------------------------------------------------------


def test_coefficient_matrix_shape_and_content():
    psi = coefficient_matrix(WORKED)
    assert (psi.rows, psi.cols) == (7, 6)
    assert psi.row_values(0) == (1, 1, 1, 1, 1, 1)
    assert psi.row_values(6) == (1, 7, 5, 2, 3, 10)


def test_encode_known_nodes_of_the_worked_stripe():
    m = worked_message()
    assert encode_node(m, WORKED, 1).symbol_values() == (1, 5, 1, 7)
    assert encode_node(m, WORKED, 7).symbol_values() == (1, 5, 10, 5)


def test_node_one_matches_the_hand_expanded_sums():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = [int(v) for v in rng.integers(0, 11, size=12)]
        got = encode_node(worked_message(s), WORKED, 1).symbol_values()
        s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12 = s
        want = (
            (s1 + s2 + s4 + s5) % 11,
            (s2 + s3 + s5 + s6) % 11,
            (s4 + s5 + s7 + s8 + s10 + s11) % 11,
            (s5 + s6 + s8 + s9 + s11 + s12) % 11,
        )
        assert got == want


def test_shard_carries_its_node_index_and_point():
    shard = encode_node(worked_message(), WORKED, 3)
    assert shard.node_index == 3
    assert shard.eval_point.value == 3
    assert len(shard.symbols) == WORKED.alpha


def test_encode_node_index_bounds():
    m = worked_message()
    for bad in (0, 8, -2):
        with pytest.raises(ValueError):
            encode_node(m, WORKED, bad)


def test_encode_all_matches_per_node_encoding():
    m = worked_message()
    shards = encode_all(m, WORKED)
    assert len(shards) == 7
    for shard in shards:
        assert len(shard.symbols) == 4
        one = encode_node(m, WORKED, shard.node_index)
        assert shard.symbol_values() == one.symbol_values()
        assert shard.eval_point == one.eval_point


def test_encode_all_zero_source():
    shards = encode_all(build_message_matrix([0] * 12, WORKED), WORKED)
    assert all(set(s.symbol_values()) == {0} for s in shards)


def test_encoding_is_linear_in_the_source():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.integers(0, 11, size=12)
        b = rng.integers(0, 11, size=12)
        sum_of_codes = [
            (np.array(x.symbol_values()) + np.array(y.symbol_values())) % 11
            for x, y in zip(
                encode_all(build_message_matrix(a, WORKED), WORKED),
                encode_all(build_message_matrix(b, WORKED), WORKED),
            )
        ]
        code_of_sum = encode_all(build_message_matrix((a + b) % 11, WORKED), WORKED)
        for got, shard in zip(sum_of_codes, code_of_sum):
            assert tuple(int(v) for v in got) == shard.symbol_values()


def test_larger_instance_shapes():
    p = derive_params(4, 3, 13, q=17)
    src = list(range(p.file_symbols))
    m = build_message_matrix(src, p)
    assert len(m.blocks) == 2 * p.z_delta == 12
    assert (m.assembled.rows, m.assembled.cols) == (21, 18)
    shards = encode_all(m, p)
    assert len(shards) == 13
    assert all(len(s.symbols) == 18 for s in shards)


def test_source_entries_may_be_field_elements_or_ints():
    as_ints = worked_message(range(1, 13))
    as_elements = worked_message(WORKED.field.elements(range(1, 13)))
    assert as_ints.assembled == as_elements.assembled
