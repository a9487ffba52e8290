import json
import re
import sys
import time
from fractions import Fraction

import pytest

from altcomm import (Algebra, LinearMap, Matrix, PrimeField, RationalField,
                     cayley_dickson_algebra, center, check_peirce_relations, decompose,
                     field_from_dict, matrix_algebra, nucleus, peirce_decompose,
                     random_commuting_map, run_all, zorn)
from altcomm.algebra import Element
from altcomm.fields import MODULUS_LIMIT, SCALAR_DIGIT_LIMIT, _is_prime
from altcomm.linalg import echelon_of_blocks

Q = RationalField()


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


def test_prime_field_reads_the_rational_grammar():
    """F_p text is read as a rational a/b, then a b^-1 mod p; p | b is a zero denominator."""
    f = PrimeField(5)
    assert f.parse("1/2") == 3 and f.parse("-3/4") == 3 and f.parse("2.5") == 0
    assert f.parse("10/5") == 2         # lowest terms: the rational 2
    for text in ("1/5", "1/0", "3/10", "1e-1"):
        with pytest.raises(ValueError, match="has a zero denominator"):
            f.parse(text)
    for text in ("", "abc", "1/", "0x10"):
        with pytest.raises(ValueError):
            f.parse(text)


def test_prime_field_integer_texts_keep_their_residue():
    """Every integral text keeps its residue, and every refusal its message, over F_p."""
    f = PrimeField(101)
    for text in PARSE_TEXTS:
        kind, value = _parse_outcome(text)
        if kind == "error":
            with pytest.raises(ValueError, match=re.escape(value)):
                f.parse(text)
        else:
            assert kind is int and f.parse(text) == value % 101, text


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
    assert f.parse(f"1e{SCALAR_DIGIT_LIMIT - 1}") == 10 ** (SCALAR_DIGIT_LIMIT - 1)
    over = ["1" * (SCALAR_DIGIT_LIMIT + 1), "-" + "7" * 400_000, "1_" * SCALAR_DIGIT_LIMIT + "1"]
    over += ["1e200000", "1e-200000", f"1e{SCALAR_DIGIT_LIMIT}",
             "3/" + "7" * SCALAR_DIGIT_LIMIT, "1e99999999999999999999"]
    refused = {f: over, PrimeField(101): over}      # one grammar, one limit

    def check():
        for field, texts in refused.items():
            assert field.parse("1" * SCALAR_DIGIT_LIMIT) == field.from_int(
                int("1" * SCALAR_DIGIT_LIMIT))
            start = time.perf_counter()
            for text in texts:
                with pytest.raises(ValueError, match="more than"):
                    field.parse(text)
            assert time.perf_counter() - start < 0.5, field

    check()
    # The limit must not lean on the interpreter's int_max_str_digits, which
    # Python 3.10.0-3.10.6 lack: check again with it switched off (0).
    if hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            check()
        finally:
            sys.set_int_max_str_digits(saved)
    for text in ("", "abc", "1e", "1/0.5"):
        with pytest.raises(ValueError):
            f.parse(text)


PARSE_TEXTS = ["+5", " -7 ", "0010", "-0", "\t42\n", "1_000", "\u0663", "1e3", "3/1", "1.0",
               "5" * SCALAR_DIGIT_LIMIT, "-" + "5" * SCALAR_DIGIT_LIMIT,
               "5" * (SCALAR_DIGIT_LIMIT + 1), "+" + "5" * (SCALAR_DIGIT_LIMIT + 1),
               "", "+", "--5", "5 5"]


def _parse_outcome(text):
    try:
        value = RationalField.parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), value


def test_integer_fast_path_agrees_with_the_fraction_path(monkeypatch):
    from altcomm import fields

    fast = [_parse_outcome(text) for text in PARSE_TEXTS]
    monkeypatch.setattr(fields, "_INTEGER", re.compile(r"(?!)"))     # Fraction path only
    assert fast == [_parse_outcome(text) for text in PARSE_TEXTS]
    assert fast[:3] == [(int, 5), (int, -7), (int, 10)]
    assert fast[12][0] == "error" and "digits" in fast[12][1]


# ----------------------------------------------------------------------
# integral rationals are ints, the rest Fractions


def test_integral_rationals_are_ints():
    f = RationalField()
    for value in (f.zero, f.one, f.from_int(3), f.parse("4/2"), f.parse("1e3"),
                  f.inv(Fraction(-1))):
        assert type(value) is int
    assert f.parse("4/2") == 2 and f.inv(Fraction(-1)) == -1
    assert f.inv(2) == Fraction(1, 2) and type(f.inv(2)) is Fraction
    assert type(f.parse("-3/6")) is Fraction


def test_monic_divides_a_row_by_its_lead():
    row = {1: Fraction(1, 2), 3: 6}
    assert RationalField.monic(row, Fraction(1, 2)) == {1: 1, 3: 12}
    assert all(type(x) is int for x in RationalField.monic(row, Fraction(1, 2)).values())
    assert PrimeField(7).monic({1: 3, 3: 6}, 3) == {1: 1, 3: 2}


def test_parse_refusals_survive_the_int_representation():
    from altcomm.fields import SCALAR_DIGIT_LIMIT

    f = RationalField()
    for text in ("1e200000", "1" * (SCALAR_DIGIT_LIMIT + 1), "1/0", "-4/0"):
        with pytest.raises(ValueError):
            f.parse(text)


def _scalars(value):
    """Every leaf scalar of nested lists, tuples and dicts of scalars."""
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _scalars(v)]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _scalars(v)]
    return [value]


def test_no_rational_result_is_a_float():
    x = Matrix(Q, [[2, 1], [1, 3]], cols=2).solve([1, 2])
    assert x == [Fraction(1, 5), Fraction(3, 5)]
    echelon = echelon_of_blocks(Q, 3, [[[2, 4, 1], [3, 1, 0]]])
    algebra, e = cayley_dickson_algebra(Q, [Q.one] * 4)
    dec = decompose(peirce_decompose(algebra, e), random_commuting_map(algebra, 4))
    half = LinearMap(algebra, Matrix(Q, [[Fraction(1, 2) if i == j else 0 for j in range(16)]
                                         for i in range(16)], cols=16))
    dec_half = decompose(peirce_decompose(algebra, e), half)
    scalars = _scalars([x, echelon])
    for d in (dec, dec_half):
        scalars += _scalars([d.z.coords, d.z1.coords, d.z2.coords, d.xi.matrix.data])
    assert any(type(c) is Fraction for c in scalars)
    assert all(isinstance(c, (int, Fraction)) for c in scalars)


def _fraction_built(algebra, e):
    """The same algebra and idempotent with every scalar a Fraction."""
    built = Algebra(algebra.name, Q, algebra.dim, algebra.basis_labels,
                    [(i, j, k, Fraction(c)) for i, j, k, c in algebra.structure_entries()],
                    unit=[Fraction(c) for c in algebra.unit.coords])
    assert all(type(c) is Fraction for *_, c in built.structure_entries())
    return built, Element(built, [Fraction(c) for c in e.coords])


def _report(algebra, e):
    """The formatted structure, Peirce split, decomposition and lemmas at e."""
    pd = peirce_decompose(algebra, e)
    phi = random_commuting_map(algebra, 4)
    return {
        "center": [el.to_strings() for el in center(algebra).basis],
        "nucleus": [el.to_strings() for el in nucleus(algebra).basis],
        "dims": pd.dims(),
        "relations": check_peirce_relations(pd),
        "decompose": decompose(pd, phi).to_dict(),
        "lemmas": [report.to_dict() for report in run_all(pd, phi)],
    }


@pytest.mark.parametrize("build", [lambda: matrix_algebra(Q, 3), lambda: zorn(Q),
                                   lambda: cayley_dickson_algebra(Q, [Q.one] * 4)],
                         ids=["M3Q", "ZornQ", "CD4Q"])
def test_results_do_not_depend_on_the_scalar_type(build):
    algebra, e = build()
    assert json.dumps(_report(*_fraction_built(algebra, e))) == json.dumps(_report(algebra, e))
