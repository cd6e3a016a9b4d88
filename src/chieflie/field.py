"""Exact arithmetic in the prime fields GF(p) for small p.

Everything downstream works with plain ints in [0, p) as field elements;
:class:`PrimeField` bundles the modulus with an inverse table so the hot
linear-algebra loops never call pow(), and with the lane constants of
linalg's packed vectors.  :class:`Fp` is a thin wrapper type for code that
wants operator syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class FieldMismatchError(ValueError):
    """Combining elements that live in different prime fields."""


@lru_cache(maxsize=None)
def prime_field(p: int) -> "PrimeField":
    """Shared PrimeField instance for p (one table per modulus)."""
    return PrimeField(p)


class PrimeField:
    """GF(p) with elements represented canonically as residues in [0, p)."""

    __slots__ = ("p", "inv_table", "w", "steps", "kernels")

    def __init__(self, p: int):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")
        self.p = p
        # inv_table[0] is a dummy; inv(0) raises instead.
        self.inv_table = (0,) + tuple(pow(a, p - 2, p) for a in range(1, p))
        # Packed vectors (linalg) give each coordinate a w-bit lane.  A lane
        # x + c*y of residues is at most p(p-1); subtracting q = p*2^t, ...,
        # 2p, p where x >= q reduces it, and x + 2^(w-1) - q has its top bit
        # set exactly then, without a carry.  GF(2) lanes are one bit.
        qs = [p << t for t in range((p - 1).bit_length() - 1, -1, -1)] if p > 2 else []
        self.w = qs[0].bit_length() + 1 if qs else 1
        self.steps = tuple((q, (1 << self.w - 1) - q) for q in qs)
        # linalg's elimination pair and fold per lane count, built on use.
        self.kernels = {}

    def lanes(self, count: int) -> tuple:
        """(H, ((q, K), ...)) over count lanes: H holds every lane's top bit
        and K each step's 2^(w-1) - q in every lane."""
        ones = ((1 << self.w * count) - 1) // ((1 << self.w) - 1)
        return ones << self.w - 1, tuple((q, k * ones) for q, k in self.steps)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return self.inv_table[a]

    def element(self, value: int) -> "Fp":
        return Fp(value % self.p, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class Fp:
    """A single GF(p) element with operator syntax.

    Arithmetic between elements of different fields raises
    FieldMismatchError rather than silently coercing.
    """

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "Fp") -> None:
        if self.p != other.p:
            raise FieldMismatchError(f"GF({self.p}) vs GF({other.p})")

    def __add__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value + other.value, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value - other.value, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value * other.value, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        return Fp(prime_field(self.p).inv(self.value), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"
