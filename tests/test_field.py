# tests/test_field.py
import re

import numpy as np
import pytest

from pmba.field import FieldElement, PrimeField, is_prime, smallest_prime_geq


def trial_division_is_prime(x):
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# primality and prime search
# ---------------------------------------------------------------------------


def test_is_prime_matches_trial_division_up_to_2000():
    for x in range(2000):
        assert is_prime(x) == trial_division_is_prime(x), x


def test_is_prime_rejects_carmichael_numbers():
    # composites that fool plain Fermat tests
    for x in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(x)


def test_is_prime_large_values():
    assert is_prime(65521)  # largest prime below 2**16
    assert not is_prime(65521 * 65537)
    assert is_prime(2**31 - 1)


def test_smallest_prime_geq_known_values():
    assert smallest_prime_geq(8) == 11
    assert smallest_prime_geq(11) == 11
    assert smallest_prime_geq(258) == 263


def test_smallest_prime_geq_agrees_with_trial_division():
    for x in range(2, 400):
        p = smallest_prime_geq(x)
        assert p >= x
        assert trial_division_is_prime(p)
        for y in range(x, p):
            assert not trial_division_is_prime(y)


def test_smallest_prime_geq_rejects_tiny_input():
    with pytest.raises(ValueError):
        smallest_prime_geq(1)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_field_requires_prime_modulus():
    with pytest.raises(ValueError, match="q must be prime, got 10"):
        PrimeField(10)
    with pytest.raises(ValueError, match="q must be prime, got 1"):
        PrimeField(1)
    with pytest.raises(ValueError, match=re.escape(
        "q = 65537 does not fit the two-byte shard header field (max 65535)"
    )):
        PrimeField(65537)


def test_element_is_reduced_to_canonical_residue():
    f = PrimeField(11)
    assert f.element(13).value == 2
    assert f.element(-1).value == 10
    assert f.element(0).value == 0
    assert all(0 <= f.element(v).value < 11 for v in range(-30, 30))


def test_zero_one_and_elements_helpers():
    f = PrimeField(13)
    assert f.zero().value == 0
    assert f.one().value == 1
    assert [e.value for e in f.elements([1, 14, 27])] == [1, 1, 1]


def test_field_and_element_are_immutable():
    f = PrimeField(11)
    with pytest.raises(AttributeError):
        f.modulus = 13
    a = f.element(3)
    with pytest.raises(AttributeError):
        a.value = 4


# ---------------------------------------------------------------------------
# arithmetic on known values
# ---------------------------------------------------------------------------


def test_add_known_values_mod_11():
    f = PrimeField(11)
    assert (f.element(7) + f.element(5)).value == 1
    assert (f.element(0) + f.element(9)).value == 9
    assert (f.element(10) + f.element(1)).value == 0


def test_mul_known_values_mod_11():
    f = PrimeField(11)
    assert (f.element(7) * f.element(7)).value == 5
    chained = f.element(7) * 7 * 7 * 7
    assert chained.value == 3
    assert (f.element(1) * f.element(8)).value == 8


def test_pow_known_values_mod_11():
    f = PrimeField(11)
    assert (f.element(2) ** 4).value == 5
    assert (f.element(7) ** 4).value == 3
    assert (f.element(0) ** 0).value == 1
    assert (f.element(6) ** 0).value == 1


def test_pow_rejects_negative_or_fractional_exponent():
    a = PrimeField(11).element(3)
    with pytest.raises(ValueError):
        a ** (-1)
    with pytest.raises(ValueError):
        a**0.5


def test_inverse_known_values():
    f = PrimeField(11)
    assert f.element(1).inverse().value == 1
    assert f.element(2).inverse().value == 6  # 2 * 6 = 12 = 1 mod 11
    with pytest.raises(ZeroDivisionError):
        f.element(0).inverse()


def test_every_nonzero_element_has_a_working_inverse():
    for q in (11, 13, 263):
        f = PrimeField(q)
        for v in range(1, q):
            a = f.element(v)
            assert (a * a.inverse()).value == 1


def test_division_is_multiplication_by_inverse():
    f = PrimeField(13)
    a, b = f.element(7), f.element(5)
    assert a / b == a * b.inverse()
    assert (1 / b) == b.inverse()
    with pytest.raises(ZeroDivisionError):
        a / f.element(0)


def test_fermat_little_theorem():
    for q in (11, 13, 263):
        f = PrimeField(q)
        for v in range(1, q):
            assert (f.element(v) ** (q - 1)).value == 1


# ---------------------------------------------------------------------------
# axioms on random triples
# ---------------------------------------------------------------------------


def test_field_axioms_on_random_triples():
    for q in (11, 13, 263):
        f = PrimeField(q)
        rng = np.random.default_rng(q)
        triples = rng.integers(0, q, size=(10_000, 3))
        for av, bv, cv in triples:
            a, b, c = f.element(int(av)), f.element(int(bv)), f.element(int(cv))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + 0 == a and a * 1 == a
            assert (a + (-a)).value == 0


def test_subtraction_and_negation():
    f = PrimeField(11)
    assert (f.element(3) - f.element(7)).value == 7
    assert (3 - f.element(7)).value == 7
    assert (-f.element(4)).value == 7
    assert (-f.element(0)).value == 0


# ---------------------------------------------------------------------------
# coercion and comparisons
# ---------------------------------------------------------------------------


def test_plain_ints_lift_into_the_field_on_either_side():
    f = PrimeField(11)
    a = f.element(9)
    assert (a + 4).value == 2
    assert (4 + a).value == 2
    assert (a * 5).value == 1
    assert (5 * a).value == 1
    assert (20 / f.element(2)).value == (f.element(20) / f.element(2)).value


def test_equality_against_ints_respects_the_modulus():
    f = PrimeField(11)
    assert f.element(3) == 3
    assert f.element(3) == 14
    assert f.element(3) != 4
    assert int(f.element(7)) == 7


def test_mixing_moduli_is_rejected():
    a = PrimeField(11).element(3)
    b = PrimeField(13).element(3)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()
    assert a != b


def test_elements_are_hashable_and_usable_as_dict_keys():
    f = PrimeField(11)
    seen = {f.element(v): v for v in range(11)}
    assert seen[f.element(14)] == 3
    assert PrimeField(11) == PrimeField(11)
    assert hash(f.element(5)) == hash(PrimeField(11).element(16))
