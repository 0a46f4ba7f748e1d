# tests/test_cluster.py
import numpy as np
import pytest

import pmba.cluster
import pmba.repairer
import pmba.striping
from pmba.cluster import CSV_HEADER, Cluster, HelperPolicy, LedgerEntry
from pmba.field import PrimeField
from pmba.params import derive_params

WORKED = derive_params(3, 2, 7, q=11)


def loaded_cluster(stripes=2, seed=61, params=WORKED):
    rng = np.random.default_rng(seed)
    source = [int(v) for v in rng.integers(0, params.q, size=stripes * params.file_symbols)]
    c = Cluster(params)
    c.store(source)
    return c, source


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def test_policy_parsing():
    assert HelperPolicy.parse("max-d").strategy == "max-d"
    assert HelperPolicy.parse("min-d").strategy == "min-d"
    fixed = HelperPolicy.parse("fixed:6")
    assert (fixed.strategy, fixed.fixed_d) == ("fixed", 6)
    with pytest.raises(ValueError, match="unknown policy"):
        HelperPolicy.parse("most")
    with pytest.raises(ValueError, match="bad fixed helper count"):
        HelperPolicy.parse("fixed:lots")


def test_a_policy_refuses_a_strategy_it_would_not_follow():
    # "bogus" once acted as min-d, and max-d ignored a fixed count
    with pytest.raises(ValueError, match=r"unknown policy 'bogus'; use max-d, min-d or fixed:<d>"):
        HelperPolicy("bogus")
    with pytest.raises(ValueError, match=r"unknown policy 'max-d:4'; use max-d"):
        HelperPolicy("max-d", fixed_d=4)
    with pytest.raises(ValueError, match=r"bad fixed helper count in policy 'fixed'"):
        HelperPolicy("fixed")
    with pytest.raises(ValueError, match=r"bad fixed helper count in policy 'fixed:6'"):
        HelperPolicy("fixed", "6")
    assert HelperPolicy("fixed", 6) == HelperPolicy.parse("fixed:6")


def test_policy_choice_follows_the_alive_count():
    counts = WORKED.helper_counts  # (4, 6)
    assert HelperPolicy.parse("max-d").choose_d(counts, 6) == 6
    assert HelperPolicy.parse("max-d").choose_d(counts, 5) == 4
    assert HelperPolicy.parse("min-d").choose_d(counts, 6) == 4
    assert HelperPolicy.parse("fixed:6").choose_d(counts, 6) == 6
    with pytest.raises(ValueError, match="alive"):
        HelperPolicy.parse("fixed:6").choose_d(counts, 5)
    with pytest.raises(ValueError, match=r"valid D = \{4, 6\}"):
        HelperPolicy.parse("fixed:5").choose_d(counts, 6)
    with pytest.raises(ValueError, match="no supported helper count"):
        HelperPolicy.parse("max-d").choose_d(counts, 3)


# ---------------------------------------------------------------------------
# store / read
# ---------------------------------------------------------------------------


def test_store_distributes_alpha_symbols_per_stripe():
    c, _ = loaded_cluster(stripes=1)
    assert c.stripes == 1
    assert c.alive_nodes() == tuple(range(1, 8))
    for j in range(1, 8):
        assert len(c.node_shard(j, 0).symbols) == 4


def test_store_three_stripes():
    c, _ = loaded_cluster(stripes=3)
    assert c.stripes == 3
    for s in range(3):
        assert len(c.node_shard(5, s).symbols) == 4


def test_empty_store_is_valid():
    c = Cluster(WORKED)
    c.store([])
    assert c.stripes == 0
    assert c.read_all() == []


def test_read_all_round_trips_the_source():
    c, source = loaded_cluster(stripes=4)
    assert c.read_all() == source


def test_store_length_must_be_whole_stripes():
    c = Cluster(WORKED)
    with pytest.raises(ValueError, match="multiple of F"):
        c.store([1] * 13)


def test_read_refused_with_fewer_than_k_alive():
    c, _ = loaded_cluster()
    for f in (1, 2, 3, 4, 5):
        c.fail_node(f)
    with pytest.raises(ValueError, match="need k = 3"):
        c.read_all()


# ---------------------------------------------------------------------------
# failure and repair
# ---------------------------------------------------------------------------


def test_max_d_uses_all_six_survivors():
    c, source = loaded_cluster(stripes=3)
    c.fail_node(7)
    entry = c.run_repair(7, HelperPolicy.parse("max-d"), rng_seed=1)
    assert entry.d == 6
    assert entry.symbols_moved == 6  # one symbol per helper per stripe
    assert entry.helpers == (1, 2, 3, 4, 5, 6)
    assert entry.stripe_count == 3
    assert c.failed_nodes() == ()
    assert c.read_all() == source


def test_max_d_falls_back_when_fewer_survive():
    c, source = loaded_cluster(stripes=2)
    c.fail_node(7)
    c.fail_node(3)
    entry = c.run_repair(7, HelperPolicy.parse("max-d"), rng_seed=2)
    assert entry.d == 4
    assert entry.symbols_moved == 8
    assert 3 not in entry.helpers and 7 not in entry.helpers
    c.run_repair(3, HelperPolicy.parse("max-d"), rng_seed=3)
    assert c.read_all() == source


def test_min_d_prefers_the_cheapest_per_helper_load():
    c, _ = loaded_cluster()
    c.fail_node(1)
    entry = c.run_repair(1, HelperPolicy.parse("min-d"), rng_seed=4)
    assert entry.d == 4
    assert len(entry.helpers) == 4


def test_a_min_d_repair_of_400_stripes_runs_beta_inverses(monkeypatch):
    params = derive_params(4, 3, 13)
    c, _ = loaded_cluster(stripes=400, params=params)
    c.fail_node(7)
    pmba.repairer._repair_matrix.cache_clear()
    calls = []
    real = pmba.repairer.invert
    monkeypatch.setattr(pmba.repairer, "invert", lambda a: (calls.append(a.rows), real(a))[1])
    entry = c.run_repair(7, HelperPolicy.parse("min-d"), rng_seed=8)
    assert entry.d == 6 and len(calls) == params.per_node_bandwidth[6]


def test_repaired_node_holds_exactly_the_lost_shards():
    c, _ = loaded_cluster(stripes=3)
    before = [c.node_shard(5, s).symbol_values() for s in range(3)]
    c.fail_node(5)
    with pytest.raises(ValueError, match="failed"):
        c.node_shard(5, 0)
    c.run_repair(5, HelperPolicy.parse("max-d"), rng_seed=5)
    after = [c.node_shard(5, s).symbol_values() for s in range(3)]
    assert after == before


def test_measured_traffic_decreases_across_the_helper_grid():
    p = derive_params(4, 3, 13, q=17)
    rng = np.random.default_rng(67)
    source = [int(v) for v in rng.integers(0, 17, size=2 * p.file_symbols)]
    moved = []
    for d in p.helper_counts:  # 6, 9, 12
        c = Cluster(p)
        c.store(source)
        c.fail_node(1)
        entry = c.run_repair(1, HelperPolicy.parse(f"fixed:{d}"), rng_seed=d)
        moved.append(entry.symbols_moved)
        assert c.read_all() == source
    assert moved == [36, 27, 24]
    assert all(a > b for a, b in zip(moved, moved[1:]))


def test_identical_seeds_replay_identical_histories():
    stories = []
    for _ in range(2):
        c, _ = loaded_cluster(stripes=2, seed=71)
        c.fail_node(2)
        c.run_repair(2, HelperPolicy.parse("max-d"), rng_seed=9)
        c.fail_node(6)
        c.run_repair(6, HelperPolicy.parse("min-d"), rng_seed=10)
        stories.append(
            (
                c.traffic_ledger,
                [c.node_shard(j, 0).symbol_values() for j in c.alive_nodes()],
            )
        )
    assert stories[0] == stories[1]


def test_random_fail_repair_sequences_preserve_the_data():
    c, source = loaded_cluster(stripes=2, seed=73)
    rng = np.random.default_rng(73)
    policy = HelperPolicy.parse("max-d")
    for round_no in range(25):
        kill = 1 if rng.integers(0, 2) else 2
        for _ in range(kill):
            alive = c.alive_nodes()
            if len(alive) - 1 < min(WORKED.helper_counts):
                break
            c.fail_node(int(rng.choice(alive)))
        for f in c.failed_nodes():
            c.run_repair(f, policy, rng_seed=int(rng.integers(2**32)))
        assert c.failed_nodes() == ()
        assert c.read_all() == source, round_no


def test_repair_on_an_empty_cluster_books_nominal_traffic():
    c = Cluster(WORKED)
    c.store([])
    c.fail_node(4)
    entry = c.run_repair(4, HelperPolicy.parse("max-d"), rng_seed=11)
    assert entry.stripe_count == 0
    assert entry.symbols_moved == 6


def short_bundler(*args):
    """A `stripe_bundler` whose bundles come back one column short per helper."""
    bundle = pmba.striping.stripe_bundler(*args)

    def short(payloads):
        sent = bundle(payloads)
        beta = sent.shape[1] // len(payloads)
        return np.delete(sent, np.s_[beta - 1 :: beta], axis=1)  # each helper's last column

    return short


def test_repair_traffic_must_equal_gamma(monkeypatch):
    c, _ = loaded_cluster()
    c.fail_node(5)
    monkeypatch.setattr(pmba.cluster, "stripe_bundler", short_bundler)
    with pytest.raises(AssertionError, match=r"stripe 0: .* gamma\(6\) = 6"):
        c.run_repair(5, HelperPolicy.parse("max-d"), rng_seed=3)
    assert c.failed_nodes() == (5,)
    assert c.traffic_ledger == []


def test_a_short_bundle_column_is_refused_before_any_stripe_is_rebuilt(monkeypatch):
    params = derive_params(4, 3, 13)  # d = 6 sends beta = 6 symbols per helper
    c, _ = loaded_cluster(stripes=5, params=params)
    c.fail_node(5)
    rebuilt = []
    real_repair = pmba.cluster.repair
    monkeypatch.setattr(pmba.cluster, "repair", lambda *a: (rebuilt.append(a), real_repair(*a))[1])
    monkeypatch.setattr(pmba.cluster, "stripe_bundler", short_bundler)
    with pytest.raises(AssertionError, match=r"^stripe 0: helpers sent 30 symbols, gamma\(6\) = 36$"):
        c.run_repair(5, HelperPolicy.parse("min-d"), rng_seed=3)
    assert rebuilt == []
    assert c.failed_nodes() == (5,)
    assert c.traffic_ledger == []


# ---------------------------------------------------------------------------
# state validation
# ---------------------------------------------------------------------------


def test_state_transitions_are_guarded():
    c, _ = loaded_cluster()
    with pytest.raises(ValueError, match="alive; nothing to repair"):
        c.run_repair(3, HelperPolicy.parse("max-d"), rng_seed=0)
    c.fail_node(3)
    with pytest.raises(ValueError, match="already failed"):
        c.fail_node(3)
    with pytest.raises(ValueError, match="cannot store"):
        c.store([0] * 12)
    with pytest.raises(ValueError):
        c.fail_node(0)
    with pytest.raises(ValueError):
        c.fail_node(8)
    for f in (0, 8, -1):
        with pytest.raises(ValueError, match=f"node index {f} outside 1..7"):
            c.run_repair(f, HelperPolicy.parse("max-d"), rng_seed=0)


@pytest.mark.parametrize(
    "node, stripe, message",
    [
        (9, 0, "node index 9 outside 1..7"),
        (0, 0, "node index 0 outside 1..7"),
        (1, 2, "stripe 2 outside 0..1"),
        (1, 5, "stripe 5 outside 0..1"),
        (1, -1, "stripe -1 outside 0..1"),
    ],
)
def test_node_shard_refuses_bad_indices_by_name(node, stripe, message):
    c, _ = loaded_cluster(stripes=2)
    with pytest.raises(ValueError, match=message):
        c.node_shard(node, stripe)


# ---------------------------------------------------------------------------
# the traffic ledger
# ---------------------------------------------------------------------------


def test_ledger_csv_format():
    c, _ = loaded_cluster(stripes=3)
    c.fail_node(7)
    c.run_repair(7, HelperPolicy.parse("max-d"), rng_seed=12)
    c.fail_node(2)
    c.run_repair(2, HelperPolicy.parse("min-d"), rng_seed=13)
    text = c.ledger_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "stripe_count,f,d,helpers,symbols_moved"
    assert lines[1] == "3,7,6,1;2;3;4;5;6,6"
    first = c.traffic_ledger[0]
    assert isinstance(first, LedgerEntry)
    second = c.traffic_ledger[1]
    assert lines[2] == "3,2,4,{},8".format(";".join(map(str, second.helpers)))
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# element work per read
# ---------------------------------------------------------------------------


def test_read_all_makes_one_element_tuple_per_node(monkeypatch):
    params = derive_params(4, 3, 13)
    stripes = 7  # not k, so a node payload and a stripe's source differ in length
    c, source = loaded_cluster(stripes=stripes, seed=101, params=params)
    c.fail_node(2)
    readers = c.alive_nodes()[: params.k]
    stepwise = [  # each stripe decoded from its own node_shard calls
        sym.value
        for s in range(stripes)
        for sym in pmba.cluster.reconstruct([c.node_shard(j, s) for j in readers], params)
    ]
    lengths = []
    real = PrimeField.elements
    monkeypatch.setattr(PrimeField, "elements", lambda f, v: (lengths.append(len(v)), real(f, v))[1])
    out = c.read_all()
    assert out == stepwise == source
    assert lengths.count(stripes * params.alpha) == params.k
    assert lengths.count(params.file_symbols) == stripes  # one per reconstructed stripe
    assert len(lengths) == params.k + stripes


# ---------------------------------------------------------------------------
# the helpers' side of a repair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", [(4, 3, 13), (3, 5, 20)], ids=["4-3-13", "3-5-20"])
def test_run_repair_rebuilds_the_stored_payload_at_every_d(code):
    params = derive_params(*code)
    c, source = loaded_cluster(stripes=9, seed=sum(code), params=params)
    stored = [c.node_shard(4, s).symbol_values() for s in range(c.stripes)]
    for d in params.helper_counts:
        c.fail_node(4)
        entry = c.run_repair(4, HelperPolicy.parse(f"fixed:{d}"), rng_seed=d)
        assert (entry.d, entry.symbols_moved) == (d, params.total_bandwidth[d])
        assert [c.node_shard(4, s).symbol_values() for s in range(c.stripes)] == stored, d
    assert c.read_all() == source


def test_each_run_repair_builds_one_bundler_and_bundles_no_stripe_stepwise(monkeypatch):
    params = derive_params(4, 3, 13)
    stripes = 40
    c, source = loaded_cluster(stripes=stripes, seed=103, params=params)
    builds, sends, stepwise = [], [], []
    real_build = pmba.cluster.stripe_bundler

    def build(*args):
        builds.append(args)
        bundle = real_build(*args)
        return lambda payloads: (sends.append((args[2], sorted(payloads))), bundle(payloads))[1]

    monkeypatch.setattr(pmba.cluster, "stripe_bundler", build)
    lengths = []
    real_elements = PrimeField.elements
    monkeypatch.setattr(PrimeField, "elements", lambda f, v: (lengths.append(len(v)), real_elements(f, v))[1])
    for module in (pmba.repairer, pmba.striping):
        real = module.make_repair_bundle
        monkeypatch.setattr(
            module, "make_repair_bundle", lambda *a, real=real: (stepwise.append(a), real(*a))[1]
        )
    for policy, seed in (("min-d", 1), ("max-d", 2)):
        c.fail_node(7)
        c.run_repair(7, HelperPolicy.parse(policy), rng_seed=seed)
    assert builds == [(params, 7, 6), (params, 7, 12)]
    # one bundler call per repair sends every helper's bundles, and the new
    # node reads them as one element tuple
    assert [d for d, _ in sends] == [6, 12]
    assert [h for _, h in sends] == [list(e.helpers) for e in c.traffic_ledger]
    gammas = [stripes * params.total_bandwidth[d] for d in (6, 12)]
    assert [n for n in lengths if n in gammas] == gammas
    assert not hasattr(pmba.cluster, "make_repair_bundle")
    # only the bundlers' self-checks run the stepwise bundle: one call per
    # self-check stripe, not one per helper per stored stripe
    check_stripes = len(pmba.striping._self_check_batch(params)[0])
    assert len(stepwise) == 2 * check_stripes < stripes
    assert c.read_all() == source
