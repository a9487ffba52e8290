"""Core algebra behavior, checked against independent oracles where possible."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from functools import cache, partial

import pytest

from altcomm import (Algebra, PrimeField, RationalField, Subspace, associator,
                     cayley_dickson_algebra, commutator, direct_sum, find_unit, is_alternative,
                     is_associative, load_algebra, matrix_algebra, save_algebra,
                     scalar_algebra, zorn)

Q = RationalField()
F5 = PrimeField(5)


def as_2x2(el):
    """Coordinates (E11, E12, E21, E22) as a plain nested list."""
    a, b, c, d = el.coords
    return [[a, b], [c, d]]


def mult_2x2(x, y):
    """Independent oracle: schoolbook 2x2 matrix multiplication."""
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def test_m2_products_match_matrix_multiplication(m2q):
    algebra, _ = m2q
    coords = [Fraction(v) for v in (2, -1, 3, 5)]
    other = [Fraction(v) for v in (1, 4, 0, -2)]
    x = algebra.element(coords)
    y = algebra.element(other)
    assert as_2x2(x * y) == mult_2x2(as_2x2(x), as_2x2(y))
    assert as_2x2(y * x) == mult_2x2(as_2x2(y), as_2x2(x))


def test_m2_all_basis_products_match_oracle(m2q):
    algebra, _ = m2q
    for i in range(4):
        for j in range(4):
            x = algebra.basis_element(i)
            y = algebra.basis_element(j)
            assert as_2x2(x * y) == mult_2x2(as_2x2(x), as_2x2(y)), (i, j)


def test_unit_laws(m2q, m3q, zornq):
    for algebra, _ in (m2q, m3q, zornq):
        unit = find_unit(algebra)
        assert unit is not None
        for k in range(algebra.dim):
            b = algebra.basis_element(k)
            assert unit * b == b and b * unit == b


def test_scalar_algebra_unit():
    s = scalar_algebra(Q)
    assert s.dim == 1 and find_unit(s) is not None
    assert is_associative(s)[0]


def test_matrix_algebra_is_associative_and_alternative(m2q, m3q):
    for algebra, _ in (m2q, m3q):
        assert is_associative(algebra)[0]
        ok, witness = is_alternative(algebra)
        assert ok and witness is None


def test_element_arithmetic(m2q):
    algebra, _ = m2q
    x = algebra.element([Fraction(v) for v in (1, 2, 3, 4)])
    y = algebra.element([Fraction(v) for v in (0, -1, 1, 2)])
    assert (x + y) - y == x
    assert -x + x == algebra.element([Fraction(0)] * 4)
    assert x.scale(3) == x + x + x
    assert 2 * x == x.scale(2)


def test_commutator_and_associator_defs(m2q):
    algebra, _ = m2q
    x = algebra.element([Fraction(v) for v in (1, 2, 0, -1)])
    y = algebra.element([Fraction(v) for v in (3, 0, 1, 1)])
    z = algebra.element([Fraction(v) for v in (0, 1, 1, 0)])
    assert commutator(x, y) == x * y - y * x
    assert associator(x, y, z) == (x * y) * z - x * (y * z)


def test_direct_sum_multiplies_componentwise():
    s = scalar_algebra(Q)
    d = direct_sum(s, s)
    assert d.dim == 2
    x = d.element([Fraction(2), Fraction(3)])
    y = d.element([Fraction(5), Fraction(7)])
    assert (x * y).coords == (Fraction(10), Fraction(21))
    unit = find_unit(d)
    assert unit is not None and unit.coords == (Fraction(1), Fraction(1))


def test_direct_sum_of_matrix_algebras(m2q):
    algebra, _ = m2q
    d = direct_sum(algebra, algebra)
    assert d.dim == 8
    assert is_associative(d)[0]
    # cross terms vanish
    left = d.element([Fraction(1)] * 4 + [Fraction(0)] * 4)
    right = d.element([Fraction(0)] * 4 + [Fraction(1)] * 4)
    assert (left * right).is_zero()


def test_structure_constant_validation():
    with pytest.raises(ValueError):
        Algebra("bad", Q, 2, ["a", "a"], [])           # duplicate labels
    with pytest.raises(ValueError):
        Algebra("bad", Q, 2, ["a", "b"], [(0, 0, 2, Q.one)])  # index out of range
    with pytest.raises(ValueError):
        Algebra("bad", Q, 0, [], [])                   # empty algebra


def test_duplicate_structure_entries_are_merged():
    a = Algebra("m", Q, 1, ["e"], [(0, 0, 0, Fraction(1)), (0, 0, 0, Fraction(2))])
    x = a.element([Fraction(1)])
    assert (x * x).coords == (Fraction(3),)
    # A shuffled list with split entries, entries that cancel and explicit
    # zeros gives the table of its merged, sorted form.
    rng = random.Random(7)
    for base, _ in (cayley_dickson_algebra(Q, [-1, -1, -1]), zorn(F5)):
        f, n = base.field, base.dim
        merged = base.structure_entries()
        assert merged == sorted(merged) and all(c for *_, c in merged)
        noisy = []
        for i, j, k, c in merged:                     # c = (c - 2) + 2, and an explicit zero
            noisy += [(i, j, k, f.sub(c, f.from_int(2))), (i, j, k, f.from_int(2)),
                      (i, j, k, f.zero)]
        for _ in range(3 * n):                        # v - v at any key, present or not
            i, j, k = (rng.randrange(n) for _ in range(3))
            v = f.from_int(rng.randrange(1, 5))
            noisy += [(i, j, k, v), (i, j, k, f.neg(v)), (i, j, k, f.zero)]
        rng.shuffle(noisy)
        a = Algebra(base.name, f, n, base.basis_labels, noisy)
        b = Algebra(base.name, f, n, base.basis_labels, merged)
        assert a.structure_entries() == b.structure_entries() == merged
        for i, j in itertools.product(range(n), repeat=2):
            assert a.mul_coords(a.basis_coords(i), a.basis_coords(j)) == \
                b.mul_coords(b.basis_coords(i), b.basis_coords(j))
        assert a.associator_tensor() == b.associator_tensor()
        assert a.commutator_rows() == b.commutator_rows()


def test_json_round_trip(tmp_path, m2q, zornf5):
    for algebra, _ in (m2q, zornf5):
        path = tmp_path / "alg.json"
        save_algebra(algebra, path)
        loaded = load_algebra(path)
        assert loaded.name == algebra.name
        assert loaded.field == algebra.field
        assert loaded.dim == algebra.dim
        assert loaded.basis_labels == algebra.basis_labels
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                assert (tuple(loaded.mul_coords(loaded.basis_coords(i), loaded.basis_coords(j)))
                        == tuple(algebra.mul_coords(algebra.basis_coords(i),
                                                    algebra.basis_coords(j))))
        unit = find_unit(algebra)
        assert find_unit(loaded) == loaded.element(list(unit.coords))


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "field": {"kind": "rational"}}))
    with pytest.raises(ValueError):
        load_algebra(path)
    path.write_text(json.dumps({
        "name": "x", "field": {"kind": "rational"}, "dim": 1,
        "basis": ["e"], "structure": [[0, 0, 5, "1"]],
    }))
    with pytest.raises(ValueError):
        load_algebra(path)


def test_each_distinct_scalar_text_is_parsed_once(monkeypatch):
    from test_lemmas import _counting

    d = matrix_algebra(PrimeField(101), 8)[0].to_dict()
    texts = [str(c) for *_, c in d["structure"]] + [str(c) for c in d["unit"]]
    parsed = _counting(monkeypatch, PrimeField, "parse")
    loaded = Algebra.from_dict(d)
    assert sorted(text for _, text in parsed) == sorted(set(texts)) and len(set(texts)) == 2
    assert loaded.structure_entries() == matrix_algebra(PrimeField(101), 8)[0].structure_entries()


@pytest.mark.parametrize("structure, unit, message", [
    ([[0, 0, 0, "1"], [0, 1, 1, "2/0"], [1, 0, 1, "x"], [1, 1, 1, "2/0"]], None,
     "scalar '2/0' has a zero denominator"),
    ([[0, 0, 0, "1"], [0, 1, 1, "x"], [1, 0, 1, "2/0"]], None,
     "Invalid literal for Fraction: 'x'"),
    ([[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]], ["1", "1e2000"],
     "scalar '1e2000' has more than 1000 digits"),
], ids=["zero denominator", "malformed", "in the unit"])
def test_the_first_bad_scalar_text_is_the_one_refused(structure, unit, message):
    d = {"name": "x", "field": {"kind": "rational"}, "dim": 2, "basis": ["e", "x"],
         "structure": structure, "unit": unit}
    with pytest.raises(ValueError) as err:
        Algebra.from_dict(d)
    assert str(err.value) == message


@pytest.mark.parametrize("unit", ["1001", {"0": "1"}, 1], ids=["string", "object", "number"])
def test_a_unit_that_is_not_a_list_is_refused(unit):
    """The string "1001" would otherwise be read as the unit 1, 0, 0, 1 of M2(Q)."""
    d = matrix_algebra(Q, 2)[0].to_dict()
    d["unit"] = unit
    with pytest.raises(ValueError, match="unit must be a list of scalars"):
        Algebra.from_dict(d)


def first_unit_failure(algebra, coords):
    """The label of the first b with u b != b or b u != b, from 2 dim element products."""
    u = algebra.element(coords)
    for i in range(algebra.dim):
        b = algebra.basis_element(i)
        if u * b != b or b * u != b:
            return algebra.basis_labels[i]
    return None


def _one_sided(side):
    """Basis e, x with e e = e and e x = x ("left") or x e = x ("right"), the other zero."""
    j, k = (0, 1) if side == "left" else (1, 0)
    return Algebra(f"{side}-unit", Q, 2, ["e", "x"], [(0, 0, 0, 1), (j, k, 1, 1)])


@pytest.mark.parametrize("algebra, coords, label", [
    (_one_sided("right"), [1, 0], "x"),             # x e = x, but e x = 0: fails on the left
    (_one_sided("left"), [1, 0], "x"),              # e x = x, but x e = 0: fails on the right
    (matrix_algebra(Q, 3)[0], [1, 0, 0, 0, 1, 0, 0, 0, 0], "E13"),
], ids=["left only", "right only", "later vector"])
def test_a_failing_claimed_unit_is_refused_at_its_first_basis_vector(algebra, coords, label):
    assert first_unit_failure(algebra, coords) == label
    with pytest.raises(ValueError, match=f"^claimed unit fails on basis vector {label}$"):
        Algebra(algebra.name, algebra.field, algebra.dim, algebra.basis_labels,
                algebra.structure_entries(), unit=coords)


@pytest.mark.parametrize("build", [partial(matrix_algebra, Q, 3), partial(zorn, F5),
                                   partial(cayley_dickson_algebra, Q, [Q.one] * 3)],
                         ids=["M3(Q)", "Zorn(F5)", "CD3(Q)"])
def test_unit_checks_name_the_vector_the_element_products_name(build):
    algebra = build()[0]
    f, unit = algebra.field, algebra.unit.coords
    for k in range(algebra.dim):
        coords = list(unit)
        coords[k] = f.add(coords[k], f.from_int(k % 3 + 1))
        label = first_unit_failure(algebra, coords)
        with pytest.raises(ValueError, match=f"^claimed unit fails on basis vector {label}$"):
            Algebra(algebra.name, f, algebra.dim, algebra.basis_labels,
                    algebra.structure_entries(), unit=coords)


def test_elements_reject_foreign_algebras(m2q, m3q):
    a, _ = m2q
    b, _ = m3q
    x = a.element([Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    y = b.basis_element(0)
    with pytest.raises(ValueError):
        x * y  # noqa: B018
    with pytest.raises(ValueError):
        x + y  # noqa: B018


def test_subspace_membership_and_equality(m2q):
    algebra, _ = m2q
    e11 = algebra.basis_element(0)
    e22 = algebra.basis_element(3)
    diag = Subspace.from_spanning(algebra, [e11, e22, e11 + e22])
    assert diag.dim == 2
    assert diag.contains(e11 - e22)
    assert not diag.contains(algebra.basis_element(1))
    other = Subspace(algebra, [e11 + e22, e11 - e22])
    assert diag == other


def test_subspace_rejects_dependent_basis(m2q):
    algebra, _ = m2q
    e11 = algebra.basis_element(0)
    with pytest.raises(ValueError):
        Subspace(algebra, [e11, e11.scale(2)])


def test_unit_absent_when_none_exists():
    # multiplication x * y = 0 identically has no unit
    a = Algebra("null2", Q, 2, ["a", "b"], [])
    assert find_unit(a) is None


# ----------------------------------------------------------------------
# the memo: each derived object is built once


@pytest.mark.parametrize("builder, read", [
    ("_solve_unit", lambda a: a.unit),
    ("_associator_tensor", Algebra.associator_tensor),
    ("_bracket_rows", Algebra.commutator_rows),
], ids=["unit", "associator_tensor", "commutator_rows"])
def test_each_derived_object_is_built_once(monkeypatch, builder, read):
    from test_lemmas import _counting

    algebra = unitless(matrix_algebra(Q, 2)[0])
    built = _counting(monkeypatch, Algebra, builder)
    first = read(algebra)
    assert read(algebra) is first and len(built) == 1
    assert algebra.basis_element(1) is algebra.basis_element(1)


def test_a_supplied_unit_is_never_solved_for(monkeypatch):
    from altcomm import peirce_decompose, run_all
    from altcomm.commuting import random_commuting_map
    from test_lemmas import _counting

    solved = _counting(monkeypatch, Algebra, "_solve_unit")
    algebra, e = matrix_algebra(Q, 2)
    assert find_unit(algebra) is algebra.unit
    assert all(r.passed for r in run_all(peirce_decompose(algebra, e),
                                         random_commuting_map(algebra, 1)))
    assert solved == []


def test_to_dict_writes_the_unit_exactly_when_it_is_known():
    supplied = matrix_algebra(Q, 2)[0]
    copy = unitless(supplied)
    assert "unit" not in copy.to_dict()
    copy.unit
    assert copy.to_dict()["unit"] == supplied.to_dict()["unit"] == ["1", "0", "0", "1"]
    null = Algebra("null2", Q, 2, ["a", "b"], [])
    assert find_unit(null) is None and "unit" not in null.to_dict()


UNITAL_BUILTINS = {f"M{n}(Q)": partial(matrix_algebra, Q, n) for n in range(2, 9)}
UNITAL_BUILTINS.update({f"CD{k}(Q)": partial(cayley_dickson_algebra, Q, [Q.one] * k)
                        for k in range(3, 8)})


@cache
def unital_builtin(name):
    return UNITAL_BUILTINS[name]()[0]


def unitless(algebra):
    """A copy of the algebra's table without its unit, which is then solved for."""
    return Algebra(algebra.name, algebra.field, algebra.dim, algebra.basis_labels,
                   algebra.structure_entries())


@pytest.mark.parametrize("name", list(UNITAL_BUILTINS))
def test_unitless_copies_solve_back_the_builtin_unit(name):
    algebra = unital_builtin(name)
    assert find_unit(unitless(algebra)).coords == algebra.unit.coords


def test_solving_for_the_unit_at_dim_128_stays_small():
    """CD7(Q): the unit solve peaks near 5 MB of Python allocations; stacking
    the 2 dim^3 entries of the dense system took about 180 MB."""
    algebra = unital_builtin("CD7(Q)")
    copy = unitless(algebra)
    tracemalloc.start()
    try:
        unit = copy.unit
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert copy.dim == 128 and unit.coords == algebra.unit.coords
    assert peak < 16_000_000


def test_alternativity_witness_on_a_non_alternative_algebra():
    # a * a = b, a * b = a fails (a, a, b): (aa)b = b*... build and let the
    # scanner find it; the witness triple must have a nonzero associator
    a = Algebra("na", Q, 2, ["a", "b"],
                [(0, 0, 1, Fraction(1)), (0, 1, 0, Fraction(1))])
    ok, witness = is_alternative(a)
    assert not ok
    x, y, z = witness
    assert not associator(x, y, z).is_zero()
    assert x == y or y == z, "witness must exhibit an alternative-law shape"


def brute_alternative_f5(algebra):
    """Oracle: evaluate (x,x,y) and (y,x,x) on every element pair over F5."""
    import numpy as np

    from altcomm._modscan import structure_tensor

    n = algebra.dim
    C = structure_tensor(algebra)
    X = np.array(list(itertools.product(range(5), repeat=n)), dtype=np.int64)
    XX = np.einsum("mi,mj,ijk->mk", X, X, C) % 5          # all squares
    XY = np.einsum("mi,tj,ijk->mtk", X, X, C) % 5         # all pairwise products
    left = (np.einsum("mk,tj,kjl->mtl", XX, X, C)
            - np.einsum("mi,mtk,ikl->mtl", X, XY, C)) % 5     # (x,x,y)
    right = (np.einsum("mtk,mj,kjl->mtl", XY.transpose(1, 0, 2), X, C)
             - np.einsum("ti,mk,ikl->mtl", X, XX, C)) % 5     # (y,x,x)
    return not left.any() and not right.any()


def test_exhaustive_alternativity_oracle_small_f5():
    """All element pairs of small F5 algebras, compared with the basis scanner."""
    algebras = [
        matrix_algebra(F5, 2)[0],
        scalar_algebra(F5),
        direct_sum(scalar_algebra(F5), scalar_algebra(F5)),
        Algebra("na5", F5, 2, ["a", "b"], [(0, 0, 1, 1), (0, 1, 0, 1)]),
    ]
    for algebra in algebras:
        assert is_alternative(algebra)[0] == brute_alternative_f5(algebra), algebra.name
