# tests/test_params.py
import dataclasses
import math
from functools import reduce

import pytest

from pmba.params import (
    CodeParams,
    comparison_subpacketization,
    derive_params,
    lcm_upto,
)


def lcm_by_pairwise_gcd(values):
    return reduce(lambda a, b: a * b // math.gcd(a, b), values, 1)


# ---------------------------------------------------------------------------
# lcm helper
# ---------------------------------------------------------------------------


def test_lcm_upto_known_values():
    assert lcm_upto(1) == 1
    assert lcm_upto(2) == 2
    assert lcm_upto(6) == 60


def test_lcm_upto_matches_pairwise_gcd_reduction():
    for delta in range(1, 15):
        assert lcm_upto(delta) == lcm_by_pairwise_gcd(range(1, delta + 1))


def test_lcm_upto_rejects_nonpositive():
    with pytest.raises(ValueError):
        lcm_upto(0)


# ---------------------------------------------------------------------------
# full derivations on known instances
# ---------------------------------------------------------------------------


def test_derive_the_worked_seven_node_instance():
    p = derive_params(3, 2, 7, q=11)
    assert (p.n, p.k, p.delta, p.q) == (7, 3, 2, 11)
    assert p.z_delta == 2
    assert p.alpha == 4
    assert p.file_symbols == 12
    assert p.helper_counts == (4, 6)
    assert p.per_node_bandwidth == {4: 2, 6: 1}
    assert p.total_bandwidth == {4: 8, 6: 6}
    assert p.eval_points == (1, 2, 3, 4, 5, 6, 7)


def test_derive_the_smallest_possible_code():
    p = derive_params(2, 1, 4)
    assert p.z_delta == 1
    assert p.alpha == 1
    assert p.file_symbols == 2
    assert p.helper_counts == (2,)
    assert p.per_node_bandwidth == {2: 1}
    # default modulus: smallest prime covering both n+1 points and bytes
    assert p.q == 257


def test_derive_a_thirteen_node_three_choice_instance():
    p = derive_params(4, 3, 13, q=17)
    assert p.z_delta == 6
    assert p.alpha == 18
    assert p.file_symbols == 72
    assert p.helper_counts == (6, 9, 12)
    assert p.per_node_bandwidth == {6: 6, 9: 3, 12: 2}
    assert p.total_bandwidth == {6: 36, 9: 27, 12: 24}


def test_default_modulus_is_byte_safe():
    assert derive_params(3, 2, 7).q == 257
    # n+1 = 261 pushes past 257, and 263 = 3 + 260 gives 3 and 260 one square
    assert derive_params(3, 2, 260).q == 521


def test_no_default_code_of_the_grid_collides():
    stepped = []
    for k in range(2, 12):
        for delta in range(1, 6):
            d_max = (delta + 1) * (k - 1)
            for n in range(d_max + 1, d_max + 25):
                p = derive_params(k, delta, n)
                assert p.power_collisions() == [], (k, delta, n)
                if p.q != 257:
                    stepped.append(p.q)
    # 16^4 = 1 mod 257: (5, 1, 16) is one of 230 codes that 257 would not make MDS
    assert derive_params(5, 1, 16).q == 263
    assert derive_params(5, 1, 16, q=257).power_collisions() == [(1, 16)]
    assert stepped == [263] * 230


def test_the_default_modulus_keeps_the_given_points_and_names_a_dead_end():
    # given points keep the smallest byte-safe prime, colliding or not
    assert derive_params(5, 1, 16, eval_points=range(1, 17)).q == 257
    # squares of x and q - x collide, so 40000 points need q > 80000
    with pytest.raises(ValueError, match=r"no prime q <= 65535 gives the points 1\.\.40000 distinct"):
        derive_params(3, 2, 40000)
    assert derive_params(3, 2, 30000).q == 60013


# ---------------------------------------------------------------------------
# the parameter laws across a grid
# ---------------------------------------------------------------------------


def test_alpha_and_file_symbols_follow_the_design_law():
    for k in range(2, 12):
        for delta in range(1, 6):
            n = (delta + 1) * (k - 1) + 1
            p = derive_params(k, delta, n)
            z = lcm_by_pairwise_gcd(range(1, delta + 1))
            assert p.alpha == (k - 1) * z
            assert p.file_symbols == k * p.alpha
            assert p.helper_counts == tuple(
                (i + 1) * (k - 1) for i in range(1, delta + 1)
            )
            assert p.field.modulus == p.q
            for i, d in enumerate(p.helper_counts, start=1):
                # per-helper load divides evenly: d-k+1 = i(k-1), so
                # alpha = (d-k+1) * beta with beta = lcm(1..delta) / i
                assert p.per_node_bandwidth[d] * (d - k + 1) == p.alpha
                assert p.per_node_bandwidth[d] == z // i
                assert p.total_bandwidth[d] == d * p.per_node_bandwidth[d]


def test_total_repair_traffic_strictly_decreases_with_helper_count():
    for k in range(2, 7):
        for delta in range(1, 6):
            n = (delta + 1) * (k - 1) + 1
            p = derive_params(k, delta, n)
            gammas = [p.total_bandwidth[d] for d in p.helper_counts]
            assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_subpacketization_growth_stays_within_the_lcm_bounds():
    for k in (2, 3):
        for delta in range(7, 13):
            n = (delta + 1) * (k - 1) + 1
            p = derive_params(k, delta, n)
            assert (k - 1) * 2**delta <= p.alpha <= (k - 1) * 4**delta


# ---------------------------------------------------------------------------
# validation diagnostics
# ---------------------------------------------------------------------------


def test_each_precondition_failure_names_its_inequality():
    with pytest.raises(ValueError, match=r"k >= 2"):
        derive_params(1, 2, 7)
    with pytest.raises(ValueError, match=r"delta >= 1"):
        derive_params(3, 0, 7)
    with pytest.raises(ValueError, match=r"\(delta\+1\)\(k-1\)\+1 = 7"):
        derive_params(3, 2, 6)
    with pytest.raises(ValueError, match=r"q must be prime"):
        derive_params(3, 2, 7, q=12)
    with pytest.raises(ValueError, match=r"q >= n\+1"):
        derive_params(3, 2, 7, q=7)


def test_no_code_has_a_modulus_wider_than_two_bytes():
    from pmba.field import PrimeField

    with pytest.raises(ValueError, match="65535"):
        derive_params(3, 2, 7, q=2**31 - 1)
    for q in (65537, 2**61 - 1):
        with pytest.raises(ValueError, match="65535"):
            PrimeField(q)
    assert derive_params(3, 2, 7, q=65521).field == PrimeField(65521)


def test_custom_evaluation_points():
    pts = (2, 4, 6, 8, 10, 1, 3)
    p = derive_params(3, 2, 7, q=11, eval_points=pts)
    assert p.eval_points == pts
    assert p.eval_point(1).value == 2
    assert p.eval_point(7).value == 3


def test_bad_evaluation_points_are_rejected():
    with pytest.raises(ValueError, match="exactly n"):
        derive_params(3, 2, 7, q=11, eval_points=(1, 2, 3))
    with pytest.raises(ValueError, match="nonzero"):
        derive_params(3, 2, 7, q=11, eval_points=(0, 1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError, match="distinct"):
        derive_params(3, 2, 7, q=11, eval_points=(1, 1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError, match="distinct"):
        # 12 folds onto 1 mod 11
        derive_params(3, 2, 7, q=11, eval_points=(1, 12, 2, 3, 4, 5, 6))


def test_eval_point_accessor_is_one_based():
    p = derive_params(3, 2, 7, q=11)
    assert p.eval_point(1).value == 1
    assert p.eval_point(7).value == 7
    for bad in (0, 8, -1):
        with pytest.raises(ValueError):
            p.eval_point(bad)


def test_params_hold_only_the_five_inputs():
    names = [f.name for f in dataclasses.fields(CodeParams)]
    assert names == ["n", "k", "delta", "q", "eval_points"]


def test_equal_inputs_give_equal_hashable_params():
    a = derive_params(4, 3, 13, q=17)
    assert a.total_bandwidth  # cached on a only; must not enter == or hash
    b = derive_params(4, 3, 13, q=17)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, derive_params(4, 3, 13)}) == 2


def test_params_are_immutable():
    p = derive_params(3, 2, 7, q=11)
    with pytest.raises(AttributeError):
        p.alpha = 8
    assert isinstance(p, CodeParams)


def test_describe_lists_every_derived_quantity():
    text = derive_params(3, 2, 7, q=11).describe()
    assert "symbols per node (alpha)" in text
    assert "{4, 6}" in text
    assert "{4->2, 6->1}" in text
    assert "{4->8, 6->6}" in text
    assert "1, 2, 3, 4, 5, 6, 7" in text
    assert "colliding nodes" in text and "{4,7}, {5,6}" in text  # squares mod 11


def test_the_decodability_judge_names_the_colliding_groups_among_its_nodes():
    p = derive_params(3, 2, 7, q=11)
    assert p.power_collisions([7, 5, 4]) == [(4, 7)]
    assert p.power_collisions([1, 2, 4]) == []
    p.check_decodable([1, 2, 4])
    derive_params(3, 2, 7, q=23).check_decodable()
    with pytest.raises(ValueError, match=r"^q = 11 gives nodes \{4,7\}, \{5,6\} the same"):
        p.check_decodable()
    with pytest.raises(ValueError, match=r"^q = 11 gives nodes \{5,6\} the same"):
        p.check_decodable([1, 5, 6])


@pytest.mark.parametrize(
    "nodes, message",
    [
        ([1, 2], r"^need exactly k = 3 node payloads, got 2$"),
        ([1, 1], r"^need exactly k = 3 node payloads, got 2$"),
        ([1, 1, 2], r"^node indices must be distinct, got \[1, 1, 2\]$"),
        ([1, 2, 9], r"^node index 9 outside 1..7$"),
    ],
)
def test_the_decodability_judge_refuses_a_read_that_is_not_k_nodes_of_the_code(nodes, message):
    # the count comes first, then the node list, then the power rule
    with pytest.raises(ValueError, match=message):
        derive_params(3, 2, 7, q=11).check_decodable(nodes)


# ---------------------------------------------------------------------------
# the flat-construction comparison figure
# ---------------------------------------------------------------------------


def test_comparison_subpacketization_known_values():
    assert comparison_subpacketization(14, 2) == 16384  # 2 ** 14
    assert comparison_subpacketization(1, 1) == 1
    assert comparison_subpacketization(5, 3) == 6**5


def test_comparison_subpacketization_rejects_bad_n():
    with pytest.raises(ValueError):
        comparison_subpacketization(0, 2)
