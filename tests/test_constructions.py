"""Builtin algebra constructions: matrices, Zorn vector matrices, doubling."""

import itertools
from fractions import Fraction

import pytest

from altcomm import (PrimeField, RationalField, associator, cayley_dickson_algebra,
                     commutator, find_unit, is_alternative, is_associative, matrix_algebra,
                     scalar_algebra, verify_idempotent, zorn)

Q = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)


def conjugate(field, coords):
    """The Cayley-Dickson conjugation diag(1, -1, ..., -1)."""
    return [coords[0]] + [field.neg(c) for c in coords[1:]]


def test_matrix_algebra_sizes_and_idempotent():
    for n in (2, 3):
        algebra, e11 = matrix_algebra(Q, n)
        assert algebra.dim == n * n
        assert verify_idempotent(algebra, e11)
        assert algebra.basis_labels[0] == "E11"
    with pytest.raises(ValueError):
        matrix_algebra(Q, 1)


def test_zorn_unit_and_idempotent(zornq):
    algebra, e11 = zornq
    unit = find_unit(algebra)
    assert unit is not None
    assert verify_idempotent(algebra, e11)
    assert e11 + algebra.element(
        [Q.zero, Q.one] + [Q.zero] * 6) == unit


def test_zorn_alternative_but_not_associative(zornq):
    algebra, _ = zornq
    ok, witness = is_alternative(algebra)
    assert ok and witness is None
    ok, triple = is_associative(algebra)
    assert not ok
    assert not associator(*triple).is_zero()


def test_zorn_vector_products():
    """Cross products and dot products in the off-diagonal blocks."""
    algebra, _ = zorn(Q)
    u = [algebra.basis_element(2 + i) for i in range(3)]
    v = [algebra.basis_element(5 + i) for i in range(3)]
    e11 = algebra.basis_element(0)
    e22 = algebra.basis_element(1)
    # u_i v_j = delta_ij e11 and v_i u_j = delta_ij e22
    for i in range(3):
        for j in range(3):
            assert (u[i] * v[j]) == (e11 if i == j else e11.scale(0))
            assert (v[i] * u[j]) == (e22 if i == j else e22.scale(0))
    # u1 u2 = v3 (cross product), antisymmetric
    assert u[0] * u[1] == v[2]
    assert u[1] * u[0] == -v[2]
    assert (u[0] * u[0]).is_zero()
    # v1 v2 = -u3
    assert v[0] * v[1] == -u[2]


def test_cayley_dickson_step1_and_2_are_associative():
    for gammas in ([Q.one], [Q.from_int(-1)],
                   [Q.one, Q.one], [Q.from_int(-1), Q.from_int(-1)]):
        algebra, _ = cayley_dickson_algebra(Q, gammas)
        assert is_associative(algebra)[0], algebra.name
        assert is_alternative(algebra)[0]


def test_cayley_dickson_step3_alternative_not_associative():
    for gammas in itertools.product([Q.one, Q.from_int(-1)], repeat=3):
        algebra, _ = cayley_dickson_algebra(Q, list(gammas))
        assert algebra.dim == 8
        assert is_alternative(algebra)[0], algebra.name
        assert not is_associative(algebra)[0], algebra.name


def test_cayley_dickson_step4_fails_alternativity():
    algebra, _ = cayley_dickson_algebra(Q, [Q.one] * 4)
    assert algebra.dim == 16
    ok, witness = is_alternative(algebra)
    assert not ok
    x, y, z = witness
    assert not associator(x, y, z).is_zero()
    assert x == y or y == z


def test_cayley_dickson_step4_frozen_witness():
    """The scanner's witness is deterministic; this is the triple it finds."""
    algebra, _ = cayley_dickson_algebra(Q, [Q.one] * 4)
    ok, (x, y, z) = is_alternative(algebra)
    assert not ok
    mixed = [Fraction(0)] * 16
    mixed[1] = Fraction(1)
    mixed[10] = Fraction(1)
    expected_x = algebra.element(mixed)
    third = [Fraction(0)] * 16
    third[4] = Fraction(1)
    assert x == expected_x and y == expected_x
    assert z == algebra.element(third)


def test_cayley_dickson_imaginary_units_square_to_gamma():
    gammas = [Q.one, Q.from_int(-1), Q.one]
    algebra, _ = cayley_dickson_algebra(Q, gammas)
    unit = find_unit(algebra)
    for s, g in enumerate(gammas):
        i_s = algebra.basis_element(1 << s)
        assert i_s * i_s == unit.scale(g), f"step {s}"


def test_cayley_dickson_idempotent():
    algebra, idem = cayley_dickson_algebra(Q, [Q.from_int(-1), Q.one])
    assert idem is not None
    assert verify_idempotent(algebra, idem)
    # no split unit when every gamma is -1
    algebra2, idem2 = cayley_dickson_algebra(Q, [Q.from_int(-1)])
    assert idem2 is None


def test_cayley_dickson_over_f5():
    algebra, idem = cayley_dickson_algebra(F5, [F5.one] * 3)
    assert is_alternative(algebra)[0]
    assert verify_idempotent(algebra, idem)


def test_doubling_step_conjugation_is_an_involution():
    algebra, _ = cayley_dickson_algebra(Q, [Q.one] * 3)

    def conj(el):
        return algebra.element(conjugate(Q, list(el.coords)))

    # conj(conj(x)) = x and conj(xy) = conj(y) conj(x) on a sample
    x = algebra.element([Fraction(k % 3 - 1) for k in range(8)])
    y = algebra.element([Fraction((2 * k) % 5 - 2) for k in range(8)])
    cx = conj(x)
    assert conj(cx) == x
    assert conj(x * y) == conj(y) * cx
    # norm form: x conj(x) is a multiple of the unit
    unit = find_unit(algebra)
    prod = x * cx
    scale = prod.coords[0]
    assert prod == unit.scale(scale)


def test_gamma_zero_rejected():
    with pytest.raises(ValueError):
        cayley_dickson_algebra(Q, [Q.zero])


def test_zorn_over_f5_matches_rational_structure(zornf5, zornq):
    a5, _ = zornf5
    aq, _ = zornq
    for i in range(8):
        for j in range(8):
            pq = tuple(aq.mul_coords(aq.basis_coords(i), aq.basis_coords(j)))
            p5 = tuple(a5.mul_coords(a5.basis_coords(i), a5.basis_coords(j)))
            assert [F5.from_int(int(c)) for c in pq] == list(p5), (i, j)


def doubled_product(base, gamma, x, y):
    """b_x b_y in the double of base, straight from the pair rule.

    (a, b)(c, d) = (ac + gamma d conj(b), conj(a) d + c b); index x < h is
    (b_x, 0) and index h + x is (0, b_x), with h = base.dim.
    """
    f, h = base.field, base.dim
    mul = base.mul_coords
    zero = [f.zero] * h

    def pair(i):
        e = list(base.basis_coords(i % h))
        return (e, zero) if i < h else (zero, e)

    def add(u, v):
        return [f.add(s, t) for s, t in zip(u, v)]

    (a, b), (c, d) = pair(x), pair(y)
    first = add(mul(a, c), [f.mul(gamma, t) for t in mul(d, conjugate(f, b))])
    second = add(mul(conjugate(f, a), d), mul(c, b))
    return first + second


@pytest.mark.parametrize("field", [Q, F5, F7], ids=str)
def test_each_doubling_follows_the_pair_rule(field):
    """Every basis product of CD(g1..gm) is the doubled product of CD(g1..g(m-1))."""
    lists = [list(gs) for m in (1, 2, 3) for gs in itertools.product([1, -1, 2], repeat=m)]
    lists += [[2, -1, 1, -1], [-1, 2, 1, 1, -1]]
    for ints in lists:
        gammas = [field.from_int(g) for g in ints]
        algebra, _ = cayley_dickson_algebra(field, gammas)
        base = (cayley_dickson_algebra(field, gammas[:-1])[0] if len(gammas) > 1
                else scalar_algebra(field))
        for x in range(algebra.dim):
            for y in range(algebra.dim):
                got = algebra.mul_coords(algebra.basis_coords(x), algebra.basis_coords(y))
                assert got == doubled_product(base, gammas[-1], x, y), (ints, x, y)


@pytest.mark.parametrize("build", [lambda: matrix_algebra(Q, 3), lambda: matrix_algebra(F5, 11),
                                   lambda: zorn(Q), lambda: zorn(F5)],
                         ids=["M3(Q)", "M11(F5)", "Zorn(Q)", "Zorn(F5)"])
def test_the_idempotent_is_built_without_the_basis_memo(build):
    """The returned idempotent is b0, E11 or e11, built alone: no basis memo is filled."""
    algebra, e = build()
    assert "basis" not in algebra._memo
    b0 = algebra.basis_element(0)
    assert e == b0 and [type(c) for c in e.coords] == [type(c) for c in b0.coords]
    assert algebra.basis_labels[0] in ("E11", "E1,1", "e11")
