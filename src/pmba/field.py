"""Exact arithmetic in a prime field F_q.

Every symbol stored on a node or sent over the wire during a repair is an
element of one of these fields, so all operations reduce to canonical
residues immediately; there is no lazy reduction anywhere.
"""

from __future__ import annotations

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# The largest modulus any code may use. A symbol is stored in two bytes on
# disk. Below this bound a product of two residues is under 2**32, so an
# int64 inner product of fewer than 2**31 such terms is exact, and so is a
# float64 BLAS product while its terms sum below 2**51: over 524 000 terms
# at q = 65521, against at most 1200 in the default parameter grid. A
# float32 BLAS product is exact while its terms sum below 2**22: 63 terms
# at q = 257, none at q = 65521. The striping kernels check their own
# inner dimensions and run float32 where that bound allows, else float64.
MAX_MODULUS = 65535


def is_prime(x: int) -> bool:
    """Deterministic primality test (trial division, then Miller-Rabin)."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x == p:
            return True
        if x % p == 0:
            return False
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def smallest_prime_geq(x: int) -> int:
    """Least prime p >= x. Requires x >= 2."""
    if x < 2:
        raise ValueError(f"smallest_prime_geq needs x >= 2, got {x}")
    p = x
    while not is_prime(p):
        p += 1
    return p


class PrimeField:
    """The field of residues modulo a prime q."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if not is_prime(modulus):
            raise ValueError(f"q must be prime, got {modulus}")
        if modulus > MAX_MODULUS:
            raise ValueError(
                f"q = {modulus} does not fit the two-byte shard header field (max {MAX_MODULUS})"
            )
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))

    def __repr__(self):
        return f"PrimeField({self.modulus})"

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self, values) -> tuple:
        return tuple(self.element(v) for v in values)


class FieldElement:
    """A canonical residue in [0, q) tied to its PrimeField.

    Arithmetic accepts a plain int on either side (it is lifted into the
    field); elements of two different moduli never mix.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        q = field.modulus
        value = int(value)  # accept numpy integer scalars
        if not 0 <= value < q:
            value %= q
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.modulus != self.field.modulus:
                raise ValueError(
                    f"cannot mix moduli {self.field.modulus} and {other.field.modulus}"
                )
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement((self.value + o.value) % self.field.modulus, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement((self.value - o.value) % self.field.modulus, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value * o.value % self.field.modulus, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.modulus, self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return FieldElement(pow(self.value, exponent, self.field.modulus), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        # Fermat: a^(q-2) = a^(-1) for prime q.
        return FieldElement(
            pow(self.value, self.field.modulus - 2, self.field.modulus), self.field
        )

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                other.field.modulus == self.field.modulus and other.value == self.value
            )
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value}%{self.field.modulus}"
