import time
from fractions import Fraction

import pytest

from altcomm import PrimeField, RationalField, field_from_dict
from altcomm.fields import MODULUS_LIMIT, _is_prime


def test_rational_basics():
    f = RationalField()
    assert f.one == Fraction(1) and f.zero == Fraction(0)
    assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert f.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert f.inv(Fraction(-7, 3)) == Fraction(-3, 7)


def test_rational_parse_and_fmt_round_trip():
    f = RationalField()
    for text in ["0", "5", "-3", "2/7", "-11/4"]:
        v = f.parse(text)
        assert f.parse(f.fmt(v)) == v


def test_rational_zero_division():
    f = RationalField()
    with pytest.raises(ZeroDivisionError):
        f.inv(Fraction(0))


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.neg(3) == 4
    # inverses: a * inv(a) = 1 for every nonzero a
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


def test_prime_field_parse_reduces_mod_p():
    f = PrimeField(5)
    assert f.parse("7") == 2
    assert f.parse("-1") == 4
    assert f.from_int(-3) == 2
    assert f.fmt(3) == "3"


def test_prime_field_rejects_nonprime_and_small_characteristic():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(3)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_zero_division():
    f = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.inv(10)  # 10 = 0 mod 5


def test_field_serialization_round_trip():
    for f in (RationalField(), PrimeField(11)):
        assert field_from_dict(f.to_dict()) == f
    with pytest.raises(ValueError):
        field_from_dict({"kind": "real"})
    with pytest.raises(ValueError):
        field_from_dict({})


def test_field_equality_and_labels():
    assert RationalField() == RationalField()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert RationalField().label == "Q"
    assert PrimeField(5).label == "F5"


def test_prime_field_accepts_a_61_bit_mersenne_prime_quickly():
    start = time.perf_counter()
    f = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.5
    assert f.mul(f.inv(12345), 12345) == 1


def test_primality_matches_trial_division_and_rejects_pseudoprimes():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    for composite in (561, 3215031751):   # Carmichael; strong pseudoprime to 2, 3, 5, 7
        assert not _is_prime(composite)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(composite)


def test_prime_field_rejects_moduli_beyond_the_exact_range():
    # MODULUS_LIMIT itself is a strong pseudoprime to all twelve bases.
    assert _is_prime(MODULUS_LIMIT)
    for p in (MODULUS_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)


def test_rational_parse_refuses_unbounded_scalar_text():
    from altcomm.fields import SCALAR_DIGIT_LIMIT

    f = RationalField()
    assert f.parse("1e3") == 1000 and f.parse("-2.5E-1") == Fraction(-1, 4)
    assert f.parse("1" * SCALAR_DIGIT_LIMIT) == int("1" * SCALAR_DIGIT_LIMIT)
    assert f.parse(f"1e{SCALAR_DIGIT_LIMIT - 1}") == 10 ** (SCALAR_DIGIT_LIMIT - 1)
    start = time.perf_counter()
    for text in ("1e200000", "1e-200000", "1" * (SCALAR_DIGIT_LIMIT + 1),
                 f"1e{SCALAR_DIGIT_LIMIT}", "3/" + "7" * SCALAR_DIGIT_LIMIT,
                 "1e99999999999999999999"):
        with pytest.raises(ValueError, match="digits"):
            f.parse(text)
    assert time.perf_counter() - start < 0.5
    for text in ("", "abc", "1e", "1/0.5"):
        with pytest.raises(ValueError):
            f.parse(text)
