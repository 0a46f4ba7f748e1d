# tests/test_repairer.py
import itertools

import numpy as np
import pytest

import pmba.repairer as repairer_module
from pmba.encoder import (
    NodeShard,
    build_message_matrix,
    coefficient_matrix,
    encode_all,
    encode_node,
)
from pmba.field import PrimeField
from pmba.matrix import Matrix, invert
from pmba.params import CodeParams, derive_params
from pmba.reconstructor import reconstruct
from pmba.repairer import (
    RepairBundle,
    bundle_map,
    make_repair_bundle,
    repair,
    repair_matrix,
    session_shape,
)
from pmba.striping import repair_stripes

WORKED = derive_params(3, 2, 7, q=11)


def encoded(source, params=WORKED):
    m = build_message_matrix(source, params)
    return encode_all(m, params), m


def bundles_for(shards, helpers, f, d, params=WORKED):
    return [make_repair_bundle(shards[h - 1], f, d, params) for h in helpers]


# ---------------------------------------------------------------------------
# session shape
# ---------------------------------------------------------------------------


def test_session_shape_on_the_worked_instance():
    assert session_shape(WORKED, 4) == (2, 2)
    assert session_shape(WORKED, 6) == (4, 1)


def test_session_shape_on_the_thirteen_node_instance():
    p = derive_params(4, 3, 13, q=17)
    assert session_shape(p, 6) == (3, 6)
    assert session_shape(p, 9) == (6, 3)
    assert session_shape(p, 12) == (9, 2)


def test_unsupported_helper_count_lists_the_valid_ones():
    with pytest.raises(ValueError, match=r"valid D = \{4, 6\}"):
        session_shape(WORKED, 5)
    with pytest.raises(ValueError, match=r"valid D = \{4, 6\}"):
        session_shape(WORKED, 7)


# ---------------------------------------------------------------------------
# helper-side bundles
# ---------------------------------------------------------------------------


def test_six_helper_bundle_is_one_projected_symbol():
    shards, _ = encoded(list(range(1, 13)))
    b = make_repair_bundle(shards[0], 7, 6, WORKED)
    assert b.helper_index == 1 and b.failed_index == 7 and b.d == 6
    # single symbol: the shard against the failed node's first four powers
    x = shards[0].symbol_values()
    want = (x[0] * 1 + x[1] * 7 + x[2] * 5 + x[3] * 2) % 11
    assert [int(s) for s in b.symbols] == [want]


def test_four_helper_bundle_is_two_segment_projections():
    shards, _ = encoded(list(range(1, 13)))
    for h in range(1, 7):
        b = make_repair_bundle(shards[h - 1], 7, 4, WORKED)
        x = shards[h - 1].symbol_values()
        want = [(x[0] + 7 * x[1]) % 11, (5 * x[2] + 2 * x[3]) % 11]
        assert [int(s) for s in b.symbols] == want


def test_zero_shard_gives_zero_bundle():
    shards, _ = encoded([0] * 12)
    b = make_repair_bundle(shards[2], 7, 4, WORKED)
    assert all(int(s) == 0 for s in b.symbols)


def test_bundle_validation():
    shards, _ = encoded(list(range(1, 13)))
    with pytest.raises(ValueError, match="valid D"):
        make_repair_bundle(shards[0], 7, 5, WORKED)
    with pytest.raises(ValueError, match="own helpers"):
        make_repair_bundle(shards[6], 7, 4, WORKED)
    with pytest.raises(ValueError, match="failed index"):
        make_repair_bundle(shards[0], 9, 4, WORKED)
    short = NodeShard(1, WORKED.eval_point(1), shards[0].symbols[:2])
    with pytest.raises(ValueError, match="alpha"):
        make_repair_bundle(short, 7, 4, WORKED)


@pytest.mark.parametrize("f", [0, WORKED.n + 1])
def test_bundle_map_refuses_a_failed_index_outside_1_to_n_after_the_helper_count(f):
    # f = 0 once read node 7's row (row f-1 = -1), and f = n+1 fell off the table
    with pytest.raises(ValueError, match=f"^failed index must be in 1..7, got {f}$"):
        bundle_map(WORKED, f, 4)
    with pytest.raises(ValueError, match="valid D"):  # the helper count is judged first
        bundle_map(WORKED, f, 5)


def test_a_forged_evaluation_point_is_refused_by_bundle_and_read_alike():
    shards, _ = encoded(list(range(1, 13)))
    forged = NodeShard(2, WORKED.eval_point(5), shards[1].symbols)
    message = "shard 2 carries evaluation point 5, parameters say 2"
    with pytest.raises(ValueError, match=message):
        make_repair_bundle(forged, 7, 4, WORKED)
    with pytest.raises(ValueError, match=message):
        reconstruct([shards[0], forged, shards[3]], WORKED)


# ---------------------------------------------------------------------------
# repair exactness
# ---------------------------------------------------------------------------


def test_repair_node_7_with_six_helpers():
    shards, m = encoded(list(range(1, 13)))
    got = repair(7, bundles_for(shards, range(1, 7), 7, 6), WORKED)
    assert got.node_index == 7
    assert got.eval_point.value == 7
    assert got.symbol_values() == (1, 5, 10, 5)
    assert got.symbol_values() == encode_node(m, WORKED, 7).symbol_values()


def test_repair_node_7_with_four_helpers():
    shards, m = encoded(list(range(1, 13)))
    got = repair(7, bundles_for(shards, (1, 2, 3, 4), 7, 4), WORKED)
    assert got.symbol_values() == (1, 5, 10, 5)


def test_every_failure_every_helper_set_repairs_exactly():
    rng = np.random.default_rng(47)
    source = [int(v) for v in rng.integers(0, 11, size=12)]
    shards, m = encoded(source)
    originals = {j: encode_node(m, WORKED, j).symbol_values() for j in range(1, 8)}
    cases = 0
    for f in range(1, 8):
        survivors = [j for j in range(1, 8) if j != f]
        for d in WORKED.helper_counts:
            beta = WORKED.per_node_bandwidth[d]
            for helpers in itertools.combinations(survivors, d):
                bundle_list = bundles_for(shards, helpers, f, d)
                assert all(len(b.symbols) == beta for b in bundle_list)
                got = repair(f, bundle_list, WORKED)
                assert got.symbol_values() == originals[f], (f, d, helpers)
                cases += 1
    assert cases == 7 * (15 + 1)


def test_repaired_shard_is_identical_across_helper_sets():
    rng = np.random.default_rng(53)
    source = [int(v) for v in rng.integers(0, 11, size=12)]
    shards, _ = encoded(source)
    f = 3
    survivors = [j for j in range(1, 8) if j != f]
    outcomes = {
        helpers: repair(f, bundles_for(shards, helpers, f, 4), WORKED).symbol_values()
        for helpers in itertools.combinations(survivors, 4)
    }
    assert len(set(outcomes.values())) == 1


def test_zero_data_repairs_to_zero():
    shards, _ = encoded([0] * 12)
    got = repair(7, bundles_for(shards, (1, 2, 3, 4), 7, 4), WORKED)
    assert set(got.symbol_values()) == {0}


def test_thirteen_node_repairs_at_every_supported_helper_count():
    p = derive_params(4, 3, 13, q=17)
    rng = np.random.default_rng(59)
    source = [int(v) for v in rng.integers(0, 17, size=p.file_symbols)]
    shards, m = encoded(source, p)
    for f in (1, 7, 13):
        want = encode_node(m, p, f).symbol_values()
        survivors = [j for j in range(1, 14) if j != f]
        for d in p.helper_counts:
            helpers = survivors[:d]
            bundle_list = bundles_for(shards, helpers, f, d, p)
            moved = sum(len(b.symbols) for b in bundle_list)
            assert moved == p.total_bandwidth[d]
            got = repair(f, bundle_list, p)
            assert got.symbol_values() == want, (f, d)


def test_bundle_order_does_not_matter():
    shards, _ = encoded(list(range(1, 13)))
    bundle_list = bundles_for(shards, (1, 2, 3, 4), 7, 4)
    want = repair(7, bundle_list, WORKED).symbol_values()
    for perm in itertools.permutations(bundle_list):
        assert repair(7, list(perm), WORKED).symbol_values() == want


# ---------------------------------------------------------------------------
# repair session validation
# ---------------------------------------------------------------------------


def test_repair_rejects_inconsistent_bundle_sets():
    shards, _ = encoded(list(range(1, 13)))
    good = bundles_for(shards, (1, 2, 3, 4), 7, 4)

    with pytest.raises(ValueError, match="no repair bundles"):
        repair(7, [], WORKED)
    with pytest.raises(ValueError, match="d = 4"):
        repair(7, good[:3], WORKED)

    mixed = good[:3] + bundles_for(shards, (5,), 7, 6)
    with pytest.raises(ValueError, match="mix helper counts"):
        repair(7, mixed, WORKED)

    duplicated = good[:3] + [good[2]]
    with pytest.raises(ValueError, match="distinct"):
        repair(7, duplicated, WORKED)

    wrong_target = bundles_for(shards, (1, 2, 3), 7, 4) + bundles_for(
        shards, (4,), 6, 4
    )
    with pytest.raises(ValueError, match="targets node"):
        repair(7, wrong_target, WORKED)

    with pytest.raises(ValueError, match="own helpers"):
        own = [
            RepairBundle(helper_index=7, failed_index=7, d=4, symbols=good[0].symbols)
        ] + good[:3]
        repair(7, own, WORKED)

    with pytest.raises(ValueError, match="beta = 2"):
        short = RepairBundle(
            helper_index=5, failed_index=7, d=4, symbols=good[0].symbols[:1]
        )
        repair(7, good[:3] + [short], WORKED)

    with pytest.raises(ValueError, match="outside"):
        alien = RepairBundle(
            helper_index=9, failed_index=7, d=4, symbols=good[0].symbols
        )
        repair(7, good[:3] + [alien], WORKED)


def test_repair_matrix_refuses_what_the_repairs_refuse():
    p = derive_params(3, 2, 7)
    with pytest.raises(ValueError, match="node 1 cannot appear among its own helpers"):
        repair_matrix(p, 1, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="distinct"):
        repair_matrix(p, 7, [1, 2, 2, 4])
    with pytest.raises(ValueError, match="outside 1..7"):
        repair_matrix(p, 7, [1, 2, 3, 9])
    with pytest.raises(ValueError, match="failed index must be in 1..7"):
        repair_matrix(p, 8, [1, 2, 3, 4])
    with pytest.raises(ValueError, match=r"valid D = \{4, 6\}"):
        repair_matrix(p, 7, [1, 2, 3, 4, 5])


def per_step_inverse_map(params, f, helpers):
    """The segment peel of `repair_matrix`, inverting each step's own d x d
    slice of the helpers' rows rather than rescaling the first one's."""
    d = len(helpers)
    seg, beta = session_shape(params, d)
    q, w = params.q, params.k - 1
    psi = coefficient_matrix(params).data
    rows, lam = psi[np.array(helpers) - 1], psi[f - 1, w]
    units = np.eye(d * beta, dtype=np.int64)
    out = np.empty((params.alpha, d * beta), dtype=np.int64)
    carry = None
    for i in range(beta):
        upsilon = units[i::beta]
        if carry is not None:
            upsilon = (upsilon - rows[:, i * seg - w : i * seg] @ carry % q * lam) % q
        step = invert(Matrix(params.field, rows[:, i * seg : i * seg + d])).data
        solved = step @ upsilon % q
        piece = solved[:seg]
        piece[seg - w :] += solved[seg:] * lam
        if carry is not None:
            piece[:w] += carry
        out[i * seg : (i + 1) * seg] = piece % q
        carry = solved[seg:]
    return out


def test_one_inverse_gives_the_per_step_inverse_map_at_every_repair_of_2_3_6():
    p = derive_params(2, 3, 6)
    count = 0
    for f in range(1, p.n + 1):
        others = [j for j in range(1, p.n + 1) if j != f]
        for d in p.helper_counts:
            for helpers in itertools.combinations(others, d):
                got = repair_matrix(p, f, helpers)
                assert np.array_equal(got, per_step_inverse_map(p, f, helpers)), (f, helpers)
                count += 1
    assert count == 6 * (10 + 10 + 5)


def test_one_inverse_gives_the_per_step_inverse_map_on_a_sample_of_3_5_20():
    p = derive_params(3, 5, 20)
    rng = np.random.default_rng(53)
    for d in p.helper_counts:
        for _ in range(3):
            f = int(rng.integers(1, p.n + 1))
            others = [j for j in range(1, p.n + 1) if j != f]
            helpers = tuple(sorted(int(h) for h in rng.choice(others, size=d, replace=False)))
            got = repair_matrix(p, f, helpers)
            assert np.array_equal(got, per_step_inverse_map(p, f, helpers)), (f, helpers)


@pytest.mark.parametrize(
    "points, reason",
    [((0, 1, 2, 3, 4, 5, 6), "nonzero"), ((1, 1, 2, 3, 4, 5, 6), "pairwise distinct")],
    ids=["zero", "repeated"],
)
def test_a_zero_or_repeated_helper_point_is_refused_by_name_before_any_inverse(
    monkeypatch, points, reason
):
    # a CodeParams built directly skips derive_params' point checks, so the
    # repair map meets these points; no step's inverse is reached
    p = CodeParams(n=7, k=3, delta=2, q=257, eval_points=points)
    calls = count_inverses(monkeypatch)
    for helpers in ([1, 2, 3, 4], [1, 2, 3, 4, 5, 6]):  # beta = 2 and beta = 1
        with pytest.raises(ValueError, match=f"points must be {reason}"):
            repair_matrix(p, 7, helpers)
    assert calls == []


# ---------------------------------------------------------------------------
# the maps are built once per code and node set
# ---------------------------------------------------------------------------

THIRTEEN = derive_params(4, 3, 13)


def count_inverses(monkeypatch):
    repairer_module._repair_matrix.cache_clear()
    calls = []
    real = repairer_module.invert
    monkeypatch.setattr(repairer_module, "invert", lambda a: (calls.append(a.rows), real(a))[1])
    return calls


def test_two_repairs_from_one_helper_set_run_one_inverse(monkeypatch):
    calls = count_inverses(monkeypatch)
    rng = np.random.default_rng(47)
    f, helpers = 3, (1, 4, 6, 8, 10, 12)
    for _ in range(2):
        source = [int(v) for v in rng.integers(0, THIRTEEN.q, size=THIRTEEN.file_symbols)]
        shards, _ = encoded(source, THIRTEEN)
        got = repair(f, bundles_for(shards, helpers, f, 6, THIRTEEN), THIRTEEN)
        assert got == shards[f - 1]
    assert calls == [6]  # one d x d inverse builds the map, which both repairs share


def test_helpers_in_any_order_share_one_repair_map():
    unsorted = repair_matrix(THIRTEEN, 2, [12, 3, 7, 1, 9, 5])
    assert repair_matrix(THIRTEEN, 2, (1, 3, 5, 7, 9, 12)) is unsorted
    assert np.array_equal(unsorted, repair_matrix(THIRTEEN, 2, iter([9, 7, 5, 3, 1, 12])))


@pytest.mark.parametrize(
    "build",
    [lambda: repair_matrix(THIRTEEN, 2, [1, 3, 5, 7, 9, 12]), lambda: bundle_map(THIRTEEN, 2, 9)],
    ids=["repair_matrix", "bundle_map"],
)
def test_a_repair_map_cannot_be_changed_through_what_it_returns(build):
    got = build()
    want = got.copy()
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] += 1
    assert np.array_equal(build(), want)


def test_the_repair_map_cache_stays_within_its_bound():
    size = repairer_module._repair_matrix.cache_info().maxsize
    helper_sets = itertools.combinations(range(2, 14), 6)
    for helpers in itertools.islice(helper_sets, size + 1):
        repair_matrix(THIRTEEN, 1, helpers)
    assert repairer_module._repair_matrix.cache_info().currsize <= size


# ---------------------------------------------------------------------------
# the stepwise and batched repairs against the encoder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params", [WORKED, derive_params(4, 3, 13, q=17)], ids=["3-2-7-q11", "4-3-13-q17"]
)
def test_stepwise_and_batched_repairs_give_the_encoded_payload(params):
    rng = np.random.default_rng(59)
    sources = rng.integers(0, params.q, size=(3, params.file_symbols))
    coded = [encoded(source.tolist(), params)[0] for source in sources]
    payloads = np.array([[shard.symbol_values() for shard in shards] for shards in coded])
    for d in params.helper_counts:
        for _ in range(3):
            f = int(rng.integers(1, params.n + 1))
            others = [h for h in range(1, params.n + 1) if h != f]
            helpers = sorted(int(h) for h in rng.choice(others, size=d, replace=False))
            for shards in coded:
                got = repair(f, bundles_for(shards, helpers, f, d, params), params)
                assert got.symbol_values() == shards[f - 1].symbol_values(), (d, f, helpers)
            batched = repair_stripes({h: payloads[:, h - 1] for h in helpers}, f, params)
            assert np.array_equal(batched, payloads[:, f - 1]), (d, f, helpers)


@pytest.mark.parametrize("fill", ["all-q-1", "random"])
def test_stepwise_repair_is_exact_at_the_largest_modulus(fill):
    # the stepwise repair sums d*beta products of residues in int64
    params = derive_params(3, 5, 20, q=65521)
    if fill == "all-q-1":
        source = [params.q - 1] * params.file_symbols
    else:
        source = np.random.default_rng(61).integers(0, params.q, params.file_symbols).tolist()
    shards, _ = encoded(source, params)
    for d in (4, 12):
        helpers = [h for h in range(1, params.n + 1) if h != 9][-d:]
        got = repair(9, bundles_for(shards, helpers, 9, d, params), params)
        assert got.symbol_values() == shards[8].symbol_values(), d


# ---------------------------------------------------------------------------
# mixed symbols, and one node check per call
# ---------------------------------------------------------------------------

def as_mixed(values, q):
    """The same residues mod q as big and negative ints, numpy scalars and
    elements of another field, in turn."""
    kinds = [lambda v: v + q * 2**70, lambda v: v - q, np.int64, PrimeField(65521).element]
    return tuple(kinds[i % 4](v) for i, v in enumerate(values))


def test_bundles_and_repairs_of_mixed_symbols_equal_those_of_their_residues():
    p = derive_params(3, 2, 7, q=257)
    rng = np.random.default_rng(53)
    shards, _ = encoded([int(v) for v in rng.integers(0, p.q, p.file_symbols)], p)
    for f, helpers in ((7, (1, 2, 3, 4)), (1, (2, 3, 4, 5, 6, 7))):
        d = len(helpers)
        want = [make_repair_bundle(shards[h - 1], f, d, p) for h in helpers]
        got = [
            make_repair_bundle(
                NodeShard(h, p.eval_point(h), as_mixed(shards[h - 1].symbol_values(), p.q)), f, d, p
            )
            for h in helpers
        ]
        assert got == want
        mixed = [
            RepairBundle(b.helper_index, f, d, as_mixed([s.value for s in b.symbols], p.q))
            for b in want
        ]
        assert repair(f, mixed, p) == repair(f, want, p) == shards[f - 1]


def count_node_checks(monkeypatch):
    calls = []
    real = CodeParams.check_nodes
    monkeypatch.setattr(
        CodeParams, "check_nodes", lambda self, nodes: (calls.append(list(nodes)), real(self, nodes))[1]
    )
    return calls


def test_a_stepwise_bundle_and_repair_each_check_their_node_list_once(monkeypatch):
    shards, _ = encoded(list(range(1, 13)))
    helpers = (1, 2, 3, 4)
    bundles = bundles_for(shards, helpers, 7, 4)
    calls = count_node_checks(monkeypatch)
    make_repair_bundle(shards[2], 7, 4, WORKED)
    assert calls == [[3]]
    calls.clear()
    assert repair(7, bundles, WORKED) == shards[6]
    assert calls == [list(helpers)]
