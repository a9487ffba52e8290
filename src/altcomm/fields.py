"""Exact scalar fields: the rationals and prime residue fields.

Scalars are plain Python values: a rational is an int when it is integral
and a `fractions.Fraction` otherwise, and a prime field's scalars are
canonical residues (ints in [0, p)).  So every scalar is exact, hashable and
comparable with ==; an int and a Fraction of the same value are equal, hash
alike and print alike.  A field object supplies the arithmetic, and its
``monic`` keeps new echelon rows canonical (over Q, integral entries are
ints, never Fraction(1)); generic code keeps a field reference and never
inspects the representation.  No floating point appears anywhere.

Characteristics 2 and 3 are rejected at construction: the algebraic
machinery built on top divides by 2 in its linearization arguments and by
2 and 3 when splitting elements into components, so small characteristic
would silently corrupt results.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm


# Miller-Rabin on the first twelve primes is exact below their smallest common
# strong pseudoprime (Sorenson and Webster, Math. Comp. 2017); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_LIMIT = 318665857834031151167461

# Scalar text may spell at most this many digits, a rational's exponent included.
SCALAR_DIGIT_LIMIT = 1000

# Plain ASCII integer text, the form of nearly every structure constant.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < MODULUS_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integral(r: Fraction) -> int | Fraction:
    """r as an int when it is integral, else r itself."""
    return r.numerator if r.denominator == 1 else r


class RationalField:
    """The rational numbers; scalars are ints where integral, else `Fraction`.

    Every builtin over Q has integral structure constants, so most scalars
    stay ints and their arithmetic is native.  The builtin operators mix the
    two types exactly: a sum or product may be an integral Fraction, which
    equals, hashes and prints like the int.  Fractions normalize themselves
    to lowest terms with positive denominator, which keeps equality and
    string round-trips canonical.
    """

    kind = "rational"
    zero = 0
    one = 1

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a: int | Fraction) -> int | Fraction:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _integral(Fraction(1) / a)

    @staticmethod
    def from_int(n: int) -> int:
        return n

    @staticmethod
    def monic(row: dict, a: int | Fraction) -> dict:
        """row / a entrywise, {column: entry}, with every integral entry an int.

        Dividing by a lead entry, and by one to tidy a row that
        back-substitution changed, is where 2 * Fraction(1, 2) or
        Fraction(1, 2) + Fraction(1, 2) would leave an integral Fraction in
        an echelon row (see linalg.echelon_of_blocks).  One and minus one
        are their own inverses, so dividing ints by them stays in ints.
        """
        inv = a if a in (1, -1) else Fraction(1) / a
        return {j: _integral(x * inv) for j, x in row.items()}

    @staticmethod
    def integral_multiple(coords) -> tuple:
        """(d, d * coords) for d the lcm of the coordinates' denominators.

        The scaled entries are exact and integral, so they come back as ints
        and products of them stay native; a kernel or span read off them is
        the one read off coords.  With d = 1, coords come back unchanged.
        """
        d = lcm(*(c.denominator for c in coords))
        return (1, coords) if d == 1 else (d, [_integral(c * d) for c in coords])

    @staticmethod
    def parse(text: str) -> int | Fraction:
        """A rational from text such as "-3", "2/7", "1.5" or "1e-3".

        Refuses text whose value written out in plain digits would need
        more than SCALAR_DIGIT_LIMIT digits (digits written plus the size
        of any exponent), so "1e200000" raises ValueError instead of
        building a 664,386-bit integer, and "1/0" raises ValueError too.
        Plain integer text within the limit is read by int() directly;
        everything else ("1_000", non-ASCII digits, fractions, decimals,
        exponents, text over the limit) goes through Fraction, so values
        and messages do not depend on the path.
        """
        text = text.strip()
        if _INTEGER.fullmatch(text) and len(text.lstrip("+-")) <= SCALAR_DIGIT_LIMIT:
            return int(text)
        mantissa, _, exponent = text.lower().partition("e")
        try:
            size = sum(ch.isdigit() for ch in mantissa) + abs(int(exponent or 0))
        except ValueError:
            size = 0        # malformed: Fraction reports it below
        if size > SCALAR_DIGIT_LIMIT:
            raise ValueError(f"scalar {text[:40]!r} has more than {SCALAR_DIGIT_LIMIT} digits")
        try:
            return _integral(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"scalar {text[:40]!r} has a zero denominator") from None

    @staticmethod
    def fmt(a: int | Fraction) -> str:
        return str(a)

    @property
    def label(self) -> str:
        return "Q"

    def to_dict(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("rational")

    def __repr__(self) -> str:
        return "RationalField()"


class PrimeField:
    """The residue field F_p for a prime p >= 5; scalars are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int) -> None:
        if isinstance(p, int) and p >= MODULUS_LIMIT:
            raise ValueError(f"modulus {p} is too large: it must be below {MODULUS_LIMIT}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p in (2, 3):
            raise ValueError(f"characteristic {p} is not supported; it must differ from 2 and 3")
        self.p = p
        self.zero = 0
        self.one = 1
        # Bound closures once; arithmetic runs in tight loops.
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.mul = lambda a, b: (a * b) % p
        self.neg = lambda a: (-a) % p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    def monic(self, row: dict, a: int) -> dict:
        """row / a entrywise, {column: entry}."""
        inv, mul = self.inv(a), self.mul
        return {j: mul(inv, x) for j, x in row.items()}

    @staticmethod
    def integral_multiple(coords) -> tuple:
        """(1, coords): residues need no scaling (see RationalField.integral_multiple)."""
        return 1, coords

    def parse(self, text: str) -> int:
        """A residue from scalar text such as "-3" or "1/2", read by RationalField.parse.

        Both fields thus share one grammar and one SCALAR_DIGIT_LIMIT.  The
        rational a/b, in lowest terms, is a b^-1 mod p; one whose denominator
        p divides is refused as having a zero denominator, as "1/0" is over Q.
        """
        value = RationalField.parse(text)
        if type(value) is int:          # integral text: nearly every structure constant
            return value % self.p
        if value.denominator % self.p == 0:
            raise ValueError(f"scalar {text.strip()[:40]!r} has a zero denominator")
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def fmt(self, a: int) -> str:
        return str(a)

    @property
    def label(self) -> str:
        return f"F{self.p}"

    def to_dict(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("prime", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def field_from_dict(d: dict):
    """Build a field from its serialized form, {"kind": "rational"} or {"kind": "prime", "p": p}."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"malformed field descriptor: {d!r}")
    kind = d["kind"]
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        if "p" not in d:
            raise ValueError("prime field descriptor is missing the modulus 'p'")
        return PrimeField(d["p"])
    raise ValueError(f"unknown field kind {kind!r}")
