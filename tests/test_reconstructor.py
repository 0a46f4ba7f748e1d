# tests/test_reconstructor.py
import itertools

import numpy as np
import pytest

import pmba.reconstructor as reconstructor_module
from pmba.encoder import NodeShard, build_message_matrix, encode_all
from pmba.matrix import Matrix, SingularMatrixError, invert, transpose
from pmba.params import derive_params
from pmba.reconstructor import ReconstructionSession, decode_maps, peel_maps, reconstruct
from pmba.striping import encode_matrix, encode_stripes, stripe_decoder

WORKED = derive_params(3, 2, 7, q=11)


def encoded(source, params=WORKED):
    return encode_all(build_message_matrix(source, params), params)


def pick(shards, nodes):
    return [shards[j - 1] for j in nodes]


def encoding_map(params):
    """The (n * alpha) x F matrix taking a stripe to every stored symbol.

    Column i is the encoding of the i-th unit stripe, so the map is read off
    the encoder itself rather than rebuilt from the construction. Node j
    owns rows (j-1)*alpha .. j*alpha - 1.
    """
    f = params.file_symbols
    columns = []
    for i in range(f):
        unit = [int(c == i) for c in range(f)]
        columns.append([v for s in encoded(unit, params) for v in s.symbol_values()])
    return transpose(Matrix(params.field, columns))


@pytest.mark.parametrize(
    "params",
    [
        WORKED,
        derive_params(3, 2, 7),
        derive_params(4, 3, 13, q=17),
        derive_params(3, 5, 20),
    ],
    ids=["3-2-7-q11", "3-2-7", "4-3-13-q17", "3-5-20"],
)
def test_closed_form_encoding_map_matches_the_encoder(params):
    assert np.array_equal(encode_matrix(params), encoding_map(params).data)


# ---------------------------------------------------------------------------
# the worked three-node session
# ---------------------------------------------------------------------------


def test_session_for_nodes_1_2_4():
    shards = pick(encoded(range(1, 13)), (1, 2, 4))
    session = ReconstructionSession(shards, WORKED)
    assert session.accessed_nodes == (1, 2, 4)
    # squares of the points 1, 2, 4
    assert session.lambda_dc.to_lists() == [[1, 0, 0], [0, 4, 0], [0, 0, 5]]
    got = [int(s) for s in session.run()]
    assert got == [v % 11 for v in range(1, 13)]


def test_zero_shards_give_zero_source():
    shards = pick(encoded([0] * 12), (2, 3, 7))
    assert all(int(s) == 0 for s in reconstruct(shards, WORKED))


def test_output_is_independent_of_shard_order():
    shards = pick(encoded(range(1, 13)), (1, 2, 4))
    base = reconstruct(shards, WORKED)
    for perm in itertools.permutations(shards):
        assert reconstruct(list(perm), WORKED) == base


# ---------------------------------------------------------------------------
# which node subsets can decode
# ---------------------------------------------------------------------------


def test_subsets_with_distinct_point_powers_decode_and_the_rest_refuse():
    # Over F_11 squaring folds x and 11-x together, so with points 1..7
    # the pairs {4,7} and {5,6} share a square. Any access set holding
    # such a pair has lost information and must be refused up front.
    collisions = WORKED.power_collisions()
    assert sorted(collisions) == [(4, 7), (5, 6)]
    rng = np.random.default_rng(31)
    source = [int(v) for v in rng.integers(0, 11, size=12)]
    shards = encoded(source)
    full_map = encoding_map(WORKED)
    stored = full_map @ Matrix(WORKED.field, [[v] for v in source])
    assert stored.data[:, 0].tolist() == [v for s in shards for v in s.symbol_values()]
    alpha = WORKED.alpha
    decodable, refused = [], []
    for subset in itertools.combinations(range(1, 8), 3):
        has_collision = any(
            set(pair) <= set(subset) for pair in collisions
        )
        # The refusals are forced by the code, not by the decoder: a refused
        # subset's 12 stored symbols do not determine the 12 source symbols.
        stacked = full_map.submatrix(
            row_indices=[(j - 1) * alpha + c for j in subset for c in range(alpha)]
        )
        if has_collision:
            with pytest.raises(ValueError, match=r"\(k-1\)-th power"):
                reconstruct(pick(shards, subset), WORKED)
            with pytest.raises(SingularMatrixError):
                invert(stacked)
            refused.append(subset)
        else:
            got = [int(s) for s in reconstruct(pick(shards, subset), WORKED)]
            assert got == source, subset
            invert(stacked)
            decodable.append(subset)
    assert len(decodable) == 25
    assert len(refused) == 10


def test_the_batched_decoder_refuses_exactly_the_colliding_subsets():
    # The peel's one inverse, of the k(k-1)-square block A_0, is singular
    # for the same 10 subsets the stepwise session refuses, and the
    # decoder refuses them by name before it tries to invert.
    collisions = WORKED.power_collisions()
    source = np.random.default_rng(37).integers(0, 11, size=(4, WORKED.file_symbols))
    coded = encode_stripes(source, WORKED)
    decodable, refused = [], []
    for subset in itertools.combinations(range(1, 8), 3):
        if any(set(pair) <= set(subset) for pair in collisions):
            with pytest.raises(ValueError, match=r"the same \(k-1\)-th power") as err:
                stripe_decoder(WORKED, subset)
            assert not isinstance(err.value, SingularMatrixError)
            refused.append(subset)
        else:
            decode = stripe_decoder(WORKED, subset)
            assert np.array_equal(decode({j: coded[j - 1] for j in subset}), source), subset
            decodable.append(subset)
    assert (len(decodable), len(refused)) == (25, 10)


def test_both_decoders_refuse_a_colliding_subset_with_one_message():
    shards = encoded(list(range(WORKED.file_symbols)))
    with pytest.raises(ValueError) as stepwise:
        reconstruct(pick(shards, (7, 4, 5)), WORKED)
    with pytest.raises(ValueError) as batched:
        stripe_decoder(WORKED, (4, 5, 7))
    assert str(stepwise.value) == str(batched.value) == (
        "q = 11 gives nodes {4,7} the same (k-1)-th power, so k nodes holding "
        "two of them cannot reconstruct"
    )
    with pytest.raises(ValueError) as stepwise:
        reconstruct(pick(shards, (7, 4)), WORKED)
    with pytest.raises(ValueError) as batched:
        stripe_decoder(WORKED, (4, 7))
    assert str(stepwise.value) == str(batched.value) == "need exactly k = 3 node payloads, got 2"


def test_all_35_subsets_decode_once_the_powers_are_distinct():
    # same seven points over F_23: squares 1,4,9,16,2,13,3 are pairwise
    # distinct, so every 3-subset decodes
    params = derive_params(3, 2, 7, q=23)
    assert params.power_collisions() == []
    rng = np.random.default_rng(33)
    source = [int(v) for v in rng.integers(0, 23, size=12)]
    shards = encoded(source, params)
    for subset in itertools.combinations(range(1, 8), 3):
        got = [int(s) for s in reconstruct(pick(shards, subset), params)]
        assert got == source, subset


def test_thirteen_node_instance_decodes_from_sampled_subsets():
    params = derive_params(4, 3, 13, q=17)
    assert params.power_collisions() == []  # cubing is a bijection mod 17
    rng = np.random.default_rng(37)
    source = [int(v) for v in rng.integers(0, 17, size=params.file_symbols)]
    shards = encoded(source, params)
    for _ in range(20):
        subset = sorted(rng.choice(range(1, 14), size=4, replace=False))
        got = [int(s) for s in reconstruct(pick(shards, subset), params)]
        assert got == source, subset


def inverse_sizes(params, nodes, monkeypatch):
    """Sizes of the matrices one stepwise reconstruct from `nodes` inverts
    when it builds its maps afresh, after checking that it returns the source."""
    reconstructor_module.decode_maps.cache_clear()
    rng = np.random.default_rng(41)
    source = [int(v) for v in rng.integers(0, params.q, size=params.file_symbols)]
    shards = encoded(source, params)
    sizes = []
    real = reconstructor_module.invert

    def recorded(a):
        sizes.append(a.rows)
        return real(a)

    monkeypatch.setattr(reconstructor_module, "invert", recorded)
    assert [int(s) for s in reconstruct(pick(shards, nodes), params)] == source
    return sizes


def test_single_step_decoding_when_only_one_helper_count_exists(monkeypatch):
    # delta=1 means one block pair and one inverse, of the 6 x 6 A_0
    params = derive_params(3, 1, 5, q=11)
    assert params.z_delta == 1
    assert inverse_sizes(params, (1, 3, 5), monkeypatch) == [6]


def test_sixty_steps_share_the_one_inverse(monkeypatch):
    params = derive_params(3, 5, 20, q=65521)
    assert params.z_delta == 60
    assert inverse_sizes(params, (4, 9, 17), monkeypatch) == [6]


THIRTEEN = derive_params(4, 3, 13)


def test_two_reconstructs_on_one_node_set_run_one_inverse(monkeypatch):
    decode_maps.cache_clear()
    calls = []
    real = reconstructor_module.invert
    monkeypatch.setattr(reconstructor_module, "invert", lambda a: (calls.append(a.rows), real(a))[1])
    rng = np.random.default_rng(43)
    nodes = (2, 5, 11, 13)
    for _ in range(2):
        source = [int(v) for v in rng.integers(0, THIRTEEN.q, size=THIRTEEN.file_symbols)]
        shards = encoded(source, THIRTEEN)
        assert [int(s) for s in reconstruct(pick(shards, nodes), THIRTEEN)] == source
    assert calls == [12]


def test_a_decode_map_cannot_be_changed_through_what_it_returns():
    nodes = (1, 4, 6, 9)
    steps, carry = decode_maps(THIRTEEN, nodes)
    want = steps.copy(), carry.copy()
    with pytest.raises(ValueError, match="read-only"):
        steps[0, 0, 0] += 1
    with pytest.raises(ValueError, match="read-only"):
        carry[0, 0] += 1
    again = decode_maps(THIRTEEN, nodes)
    assert all(np.array_equal(a, b) for a, b in zip(again, want))


def test_the_decode_map_cache_stays_within_its_bound():
    size = decode_maps.cache_info().maxsize
    for nodes in itertools.islice(itertools.combinations(range(1, 14), 4), size + 1):
        decode_maps(THIRTEEN, nodes)
    assert decode_maps.cache_info().currsize <= size


@pytest.mark.parametrize(
    "params, nodes",
    [
        (WORKED, (1, 2, 4)),
        (derive_params(4, 3, 13, q=17), (2, 5, 11, 13)),
        (derive_params(3, 5, 20, q=65521), (4, 9, 17)),
    ],
    ids=["3-2-7-q11", "4-3-13-q17", "3-5-20-q65521"],
)
def test_peel_maps_invert_each_step_and_cancel_the_carried_block(params, nodes):
    # steps[i] undoes Lambda^i A_0, and carry cancels what the second half
    # of u_(i-1) adds to block column i: Lambda^(i-1) A_0[:, :P] for every i
    q, w, pair = params.q, params.k - 1, params.k * (params.k - 1)
    a0 = encode_matrix(params).reshape(params.n, params.alpha, -1)[np.array(nodes) - 1, :w, :pair]
    a0 = a0.reshape(pair, pair)
    steps, carry = peel_maps(params, nodes, a0)
    assert steps.shape == (params.z_delta, pair, pair) and carry.shape == (pair, pair // 2)
    lam = np.repeat([pow(params.eval_points[j - 1], w, q) for j in nodes], w)
    lam_i = np.ones(pair, dtype=np.int64)  # the diagonal of Lambda^i
    for i in range(params.z_delta):
        product = steps[i] @ (lam_i[:, None] * a0 % q) % q
        assert np.array_equal(product, np.eye(pair, dtype=np.int64)), i
        lam_i = lam_i * lam % q
    # carry = -A_0^-1 Lambda^-1 A_0[:, :P], so Lambda A_0 carry + A_0[:, :P] = 0
    assert not (((lam[:, None] * a0 % q) @ carry + a0[:, : pair // 2]) % q).any()


# ---------------------------------------------------------------------------
# data model: erasures only
# ---------------------------------------------------------------------------


def test_a_corrupted_shard_decodes_to_wrong_symbols_without_raising():
    # with exactly k shards there is no redundancy left to detect errors;
    # a flipped symbol yields a wrong stripe, not an exception. End-to-end
    # integrity comes from the file-level checksums.
    source = list(range(1, 13))
    shards = pick(encoded(source), (1, 2, 4))
    bad = shards[0]
    tampered = list(bad.symbols)
    tampered[2] = tampered[2] + 1
    shards[0] = NodeShard(
        node_index=bad.node_index,
        eval_point=bad.eval_point,
        symbols=tuple(tampered),
    )
    got = [int(s) for s in reconstruct(shards, WORKED)]
    assert got != [v % 11 for v in source]


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_wrong_shard_count_is_rejected():
    shards = encoded(range(1, 13))
    with pytest.raises(ValueError, match="k = 3"):
        reconstruct(pick(shards, (1, 2)), WORKED)
    with pytest.raises(ValueError, match="k = 3"):
        reconstruct(pick(shards, (1, 2, 3, 4)), WORKED)


def test_duplicate_nodes_are_rejected():
    shards = encoded(range(1, 13))
    with pytest.raises(ValueError, match="distinct"):
        reconstruct(pick(shards, (1, 2, 2)), WORKED)


def test_wrong_symbol_count_is_rejected():
    shards = pick(encoded(range(1, 13)), (1, 2, 4))
    short = NodeShard(
        node_index=1, eval_point=WORKED.eval_point(1), symbols=shards[0].symbols[:3]
    )
    with pytest.raises(ValueError, match="alpha = 4"):
        reconstruct([short, shards[1], shards[2]], WORKED)


def test_shard_with_a_forged_evaluation_point_is_rejected():
    shards = pick(encoded(range(1, 13)), (1, 2, 4))
    forged = NodeShard(
        node_index=1, eval_point=WORKED.eval_point(2), symbols=shards[0].symbols
    )
    with pytest.raises(ValueError, match="evaluation point"):
        reconstruct([forged, shards[1], shards[2]], WORKED)


def test_node_index_outside_the_code_is_rejected():
    shards = pick(encoded(range(1, 13)), (1, 2, 4))
    alien = NodeShard(
        node_index=9, eval_point=WORKED.field.element(9), symbols=shards[0].symbols
    )
    with pytest.raises(ValueError, match="outside"):
        reconstruct([alien, shards[1], shards[2]], WORKED)
