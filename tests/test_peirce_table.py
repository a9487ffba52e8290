"""Peirce-layer products read off the structure table, against per-Element references.

``check_peirce_relations`` indexes each right-hand component by coordinate,
forms only the basis products whose factors' supports meet a nonzero table
entry and sums each from the table; ``hypothesis_check`` builds its blocks
from the table and the columns of R_e read off it; ``Subspace`` reduces
against the nonzero entries of its echelon rows; and ``Matrix.__matmul__``
sums each column of the product from the sparse columns of both factors.
The references below are the direct forms: products of basis Elements
over every pair, blocks of ``mul_coords`` columns, the dense reduction
loop and the dense triple loop.  Reports, verdicts,
witnesses and remainders must agree exactly, and ``product_sum`` must run
once per product whose factors meet the table, no more.  The split and the
regularity system read an integral multiple d e1 of the idempotent; their
projectors, echelons and witnesses must equal those read off e1 itself.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altcomm import (Algebra, Matrix, PreconditionError, Subspace, cayley_dickson_algebra,
                     check_peirce_relations, direct_sum, find_unit, hypothesis_check,
                     matrix_algebra, peirce_decompose, zorn)
from altcomm.algebra import Element
from altcomm.linalg import common_kernel
from altcomm.peirce import _regularity_block

from test_associator import F5, F7, Q, SMALL, columns_matrix, mult_matrix, projector_blocks
from test_commutator import assert_peirce_centers_agree, scalar


# ----------------------------------------------------------------------
# references


def reference_check_peirce_relations(pd):
    """The relation report with every basis product formed as an Element."""
    comp = pd.components
    zero = Subspace(pd.algebra, [])

    def products(name, a, b, target):
        for x in comp[a].basis:
            for y in comp[b].basis:
                xy = x * y
                if not target.contains(xy):
                    return {"check": name, "pass": False, "witness": {
                        "x": x.to_strings(), "y": y.to_strings(), "product": xy.to_strings()}}
        return {"check": name, "pass": True}

    report = [products(f"(i) r{i}{j}.r{j}{l} in r{i}{l}", (i, j), (j, l), comp[(i, l)])
              for i, j, l in product((1, 2), repeat=3)]
    report += [products(f"(ii) r{i}{j}.r{i}{j} in r{j}{i}", (i, j), (i, j), comp[(j, i)])
               for i, j in product((1, 2), repeat=2)]
    report += [products(f"(iii) r{i}{j}.r{k}{l} = 0", (i, j), (k, l), zero)
               for i, j, k, l in product((1, 2), repeat=4) if j != k and (i, j) != (k, l)]

    def fail(entry, **kw):
        entry["pass"] = False
        if "witness" not in entry:
            entry["witness"] = kw

    for (i, j) in ((1, 2), (2, 1)):
        entry = {"check": f"(iv) squares vanish in r{i}{j}", "pass": True}
        basis = comp[(i, j)].basis
        for x in basis:
            if not (x * x).is_zero():
                fail(entry, x=x.to_strings(), square=(x * x).to_strings())
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                s = basis[a] * basis[b] + basis[b] * basis[a]
                if not s.is_zero():
                    fail(entry, x=basis[a].to_strings(), y=basis[b].to_strings(),
                         anticommutator=s.to_strings())
        report.append(entry)
    return report


def reference_hypothesis_check(algebra, e1):
    """The regularity check with block k built column by column from mul_coords."""
    f = algebra.field
    n = algebra.dim
    results = []
    for e in (e1, algebra.unit - e1):
        blocks = (columns_matrix(
            f, [algebra.mul_coords(tuple(algebra.mul_coords(algebra.basis_coords(u),
                                                            algebra.basis_coords(k))),
                                   e.coords) for u in range(n)]).data
            for k in range(n))
        kernel = common_kernel(f, n, blocks)
        results.append((False, Element(algebra, kernel[0])) if kernel else (True, None))
    return tuple(results)


def reference_reduce(space, coords):
    """Reduction against every echelon row in turn, over every column.

    The basis of a Subspace.from_spanning is its echelon rows, in pivot order,
    and each row's pivot is its first nonzero coordinate.
    """
    f = space.algebra.field
    v = list(coords)
    for row in (el.coords for el in space.basis):
        factor = v[next(j for j, c in enumerate(row) if c)]
        if factor:
            for j in range(len(v)):
                if row[j]:
                    v[j] = f.sub(v[j], f.mul(factor, row[j]))
    return v


def reference_mul(algebra, a, b):
    """sum a_i b_j (b_i b_j) over every index pair, from the basis products."""
    f = algebra.field
    out = [f.zero] * algebra.dim
    for i, j in product(range(algebra.dim), repeat=2):
        s = f.mul(a[i], b[j])
        for k, c in enumerate(tuple(algebra.mul_coords(algebra.basis_coords(i),
                                                       algebra.basis_coords(j)))):
            out[k] = f.add(out[k], f.mul(s, c))
    return out


def reference_matmul(a, b):
    f = a.field
    return [[_dot(f, row, b.column(j)) for j in range(b.cols)] for row in a.data]


def _dot(f, u, v):
    acc = f.zero
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def assert_agrees(algebra, e1):
    """Regularity always; the relation report and the Peirce-side centers whenever
    the algebra splits along e1 (center_via_peirce only where it is regular)."""
    regularity = hypothesis_check(algebra, e1)
    assert regularity == reference_hypothesis_check(algebra, e1), algebra.name
    try:
        pd = peirce_decompose(algebra, e1)
    except PreconditionError:
        return
    assert check_peirce_relations(pd) == reference_check_peirce_relations(pd), algebra.name
    assert_peirce_centers_agree(pd, via_peirce=all(ok for ok, _ in regularity))


# ----------------------------------------------------------------------
# builtins, the failing controls and the session fixtures


def _sum_idempotent(a, b, ea, eb):
    """The direct sum a (+) b with the idempotent ea (+) eb, coordinates joined."""
    d = direct_sum(a, b)
    return d, d.element(list(ea.coords) + list(eb.coords))


def _m2_plus_m2():
    m2, e11 = matrix_algebra(Q, 2)
    return _sum_idempotent(m2, m2, e11, e11.scale(0))


def _m2q_plus_zornq():
    (m2, e11), (zq, _) = matrix_algebra(Q, 2), zorn(Q)
    return _sum_idempotent(m2, zq, e11, zq.unit.scale(0))


def _cd3f5_plus_m2f5():
    (cd, idem), (m2, _) = cayley_dickson_algebra(F5, [F5.one] * 3), matrix_algebra(F5, 2)
    return _sum_idempotent(cd, m2, idem, m2.unit)


# The twelve builtins of test_associator, each with a nontrivial idempotent, and M2(Q)+M2(Q).
CASES = {
    "M2(Q)": lambda: matrix_algebra(Q, 2),
    "M3(Q)": lambda: matrix_algebra(Q, 3),
    "M4(Q)": lambda: matrix_algebra(Q, 4),
    "M2(F5)": lambda: matrix_algebra(F5, 2),
    "M3(F5)": lambda: matrix_algebra(F5, 3),
    "M4(F5)": lambda: matrix_algebra(F5, 4),
    "Zorn(Q)": lambda: zorn(Q),
    "Zorn(F5)": lambda: zorn(F5),
    "CD3(Q)": lambda: cayley_dickson_algebra(Q, [Q.one, Q.from_int(-1), Q.one]),
    "CD4(Q)": lambda: cayley_dickson_algebra(Q, [Q.one] * 4),
    "M2(Q)+Zorn(Q)": _m2q_plus_zornq,
    "CD3(F5)+M2(F5)": _cd3f5_plus_m2f5,
    "M2(Q)+M2(Q)": _m2_plus_m2,
}


@pytest.mark.parametrize("name", list(CASES))
def test_builtins_agree_with_the_reference(name):
    assert_agrees(*CASES[name]())


def test_m2_plus_m2_fails_regularity_with_the_reference_witness():
    algebra, e1 = _m2_plus_m2()
    (ok1, w1), (ok2, w2) = hypothesis_check(algebra, e1)
    assert not ok1 and w1 is not None
    assert ((ok1, w1), (ok2, w2)) == reference_hypothesis_check(algebra, e1)


def test_sedenion_relations_fail_like_the_reference():
    algebra, e1 = CASES["CD4(Q)"]()
    pd = peirce_decompose(algebra, e1)
    report = check_peirce_relations(pd)
    assert [r["check"] for r in report if not r["pass"]] == [
        "(i) r12.r21 in r11", "(i) r21.r12 in r22", "(ii) r12.r12 in r21", "(ii) r21.r21 in r12"]
    assert report == reference_check_peirce_relations(pd)


@pytest.mark.parametrize("fixture", ["m2q_pd", "m3q_pd", "zornq_pd", "m2f5_pd", "zornf5_pd"])
def test_peirce_fixtures_agree_with_the_reference(fixture, request):
    pd = request.getfixturevalue(fixture)
    assert check_peirce_relations(pd) == reference_check_peirce_relations(pd)
    assert hypothesis_check(pd.algebra, pd.e1) == reference_hypothesis_check(pd.algebra, pd.e1)


def _m3q_plus_cd4q():
    (m3, e11), (cd4, half) = matrix_algebra(Q, 3), CASES["CD4(Q)"]()
    return _sum_idempotent(m3, cd4, e11, half)


def meets_table(algebra, x, y):
    """Whether some b_u b_v with x_u, y_v nonzero is nonzero, by mul_coords."""
    return any(any(algebra.mul_coords(algebra.basis_coords(u), algebra.basis_coords(v)))
               for u, a in enumerate(x.coords) if a for v, b in enumerate(y.coords) if b)


def reference_products(pd):
    """(product, whether its factors' supports meet the table) for every product the
    full loop forms, each entry stopped at its first failure as the check stops.

    The entries run in report order; (ii) at i = j is (i) at i = j = l and forms
    nothing.  Entry (iv) forms the squares, then the anticommutators xy + yx.
    """
    algebra, comp = pd.algebra, pd.components
    zero = Subspace(algebra, [])

    def walk(a, b, target):
        for x in comp[a].basis:
            for y in comp[b].basis:
                yield x * y, meets_table(algebra, x, y)
                if not target.contains(x * y):
                    return

    def squares(key):
        basis = comp[key].basis
        for x in basis:
            yield x * x, meets_table(algebra, x, x)
            if not (x * x).is_zero():
                return
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                x, y = basis[a], basis[b]
                yield x * y + y * x, meets_table(algebra, x, y) or meets_table(algebra, y, x)
                if not (x * y + y * x).is_zero():
                    return

    out = []
    for i, j, l in product((1, 2), repeat=3):
        out += walk((i, j), (j, l), comp[(i, l)])
    for i, j in ((1, 2), (2, 1)):
        out += walk((i, j), (i, j), comp[(j, i)])
    for i, j, k, l in product((1, 2), repeat=4):
        if j != k and (i, j) != (k, l):
            out += walk((i, j), (k, l), zero)
    for key in ((1, 2), (2, 1)):
        out += squares(key)
    return out


def test_first_failure_after_skipped_zero_products_matches_the_reference():
    """M3(Q) (+) CD4(Q) at e11 (+) (1 + i)/2: the first failure of (i) r12.r21 in r11
    has x in the CD4 summand, after the zero products of the M3 summand's r12
    with r21 and of its cross terms, which the check never forms."""
    algebra, e1 = _m3q_plus_cd4q()
    pd = peirce_decompose(algebra, e1)
    report = check_peirce_relations(pd)
    assert report == reference_check_peirce_relations(pd)
    failing = [entry for entry in report if not entry["pass"]]
    assert failing[0]["check"] == "(i) r12.r21 in r11"
    x = failing[0]["witness"]["x"]
    assert set(x[:9]) == {"0"} and set(x[9:]) != {"0"}, "x lies in the CD4 summand"
    r12, r21 = pd.components[(1, 2)].basis, pd.components[(2, 1)].basis
    s = [el.to_strings() for el in r12].index(x)
    assert any((a * b).is_zero() for a in r12[:s] for b in r21)


@pytest.mark.parametrize("case", ["M4(Q)", "M3(Q)+CD4(Q)"])
def test_the_check_forms_only_products_that_meet_the_table(case, monkeypatch):
    """One product_sum per product whose factors' supports meet a nonzero table entry.

    On M4(Q) every component is spanned by matrix units, so those are exactly the
    nonzero products.  In the CD4 summand every basis product is nonzero, so
    its zero products there (squares and anticommutators of r12 and r21 among
    them) are formed too."""
    algebra, e1 = matrix_algebra(Q, 4) if case == "M4(Q)" else _m3q_plus_cd4q()
    pd = peirce_decompose(algebra, e1)
    calls = []
    original = Algebra.product_sum

    def counted(self, terms):
        calls.append(1)
        return original(self, terms)

    monkeypatch.setattr(Algebra, "product_sum", counted)
    check_peirce_relations(pd)
    monkeypatch.undo()
    full = reference_products(pd)
    nonzero = sum(not p.is_zero() for p, _ in full)
    assert len(calls) == sum(meets for _, meets in full)
    if case == "M4(Q)":
        assert len(calls) == nonzero
    else:
        assert nonzero < len(calls) < len(full)


# ----------------------------------------------------------------------
# random split algebras


def _target(a, b):
    """The component a product of components a and b lies in when the rules hold, or None."""
    (i, j), (k, l) = a, b
    if j == k:
        return (i, l)
    if a == b:
        return (j, i)
    return None


def split_algebra(field, grades, products):
    """A unital algebra b0 = 1 with idempotent b1 and graded vectors b2, b3, ...

    b_{k+2} sits in the Peirce component grades[k] of b1: b1 b = b exactly
    when its row index is 1, and b b1 = b exactly when its column index is
    1.  The products among the graded vectors are the entries (k, l, r, c).
    """
    one = field.one
    dim = len(grades) + 2
    entries = [(0, k, k, one) for k in range(dim)] + [(k, 0, k, one) for k in range(1, dim)]
    entries.append((1, 1, 1, one))
    for k, (i, j) in enumerate(grades, start=2):
        if i == 1:
            entries.append((1, k, k, one))
        if j == 1:
            entries.append((k, 1, k, one))
    return Algebra("split", field, dim, [f"b{i}" for i in range(dim)], entries + list(products))


def rebased(algebra, e1, T):
    """The algebra in the basis c_i = sum_j T[i][j] b_j, T upper unitriangular, and e1 in it."""
    f, n = algebra.field, algebra.dim
    back = [None] * n               # back[j]: coordinates of b_j over the c basis
    for i in reversed(range(n)):
        v = [f.one if k == i else f.zero for k in range(n)]
        for j in range(i + 1, n):
            if T[i][j]:
                v = [f.sub(a, f.mul(T[i][j], b)) for a, b in zip(v, back[j])]
        back[i] = v

    def over_c(coords):
        out = [f.zero] * n
        for w, row in zip(coords, back):
            if w:
                out = [f.add(a, f.mul(w, b)) for a, b in zip(out, row)]
        return out

    entries = [(i, j, k, c) for i in range(n) for j in range(n)
               for k, c in enumerate(over_c(algebra.mul_coords(T[i], T[j]))) if c]
    out = Algebra(algebra.name + "'", f, n, [f"c{i}" for i in range(n)], entries)
    return out, out.element(over_c(e1.coords))


@st.composite
def split_algebras(draw):
    """A split_algebra with drawn grades and products, and an idempotent.

    The products are optionally kept only where the multiplication rules
    allow them.  Half the draws start from an M2 core (see below).  The
    idempotent is b1, or b1 + b_k for an r12 vector b_k that squares to
    zero; and half the draws are rewritten in a drawn unitriangular basis,
    so that neither the idempotent nor the component bases are basis vectors.
    """
    field = draw(st.sampled_from([F5, F7, Q]))
    core = draw(st.booleans())
    m = draw(st.integers(2 if core else 1, 4))
    grades = draw(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
                           min_size=m, max_size=m))
    if core:
        grades[:2] = [(1, 2), (2, 1)]
    grade = dict(enumerate(grades, start=2))
    if field is Q:
        scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2]))
    else:
        scalars = st.integers(1, field.p - 1)
    index = st.integers(2, m + 1)
    drawn = draw(st.lists(st.tuples(index, index, index, scalars), max_size=3 * m))
    if draw(st.booleans()):
        drawn = [(k, l, r, c) for k, l, r, c in drawn
                 if _target(grade[k], grade[l]) == grade[r]]
    if core:
        # b1, b2, b3 and 1 - b1 multiply like the matrix units of M2, which makes
        # regular draws possible; the drawn products leave b2 b3 and b3 b2 alone.
        one = field.one
        drawn = [(2, 3, 1, one), (3, 2, 0, one), (3, 2, 1, field.neg(one))] + [
            e for e in drawn if e[:2] not in ((2, 3), (3, 2))]
    algebra = split_algebra(field, grades, drawn)
    e1 = algebra.basis_element(1)
    shifts = [k for k, g in grade.items() if g == (1, 2)]
    if shifts and draw(st.booleans()):
        shifted = e1 + algebra.basis_element(draw(st.sampled_from(shifts)))
        if shifted * shifted == shifted:
            e1 = shifted
    if draw(st.booleans()):
        n = algebra.dim
        T = [[field.one if i == j else field.from_int(draw(st.integers(-1, 2))) if j > i
              else field.zero for j in range(n)] for i in range(n)]
        algebra, e1 = rebased(algebra, e1, T)
    return algebra, e1


@SMALL
@given(split_algebras())
def test_random_split_algebras_agree_with_the_reference(case):
    assert_agrees(*case)


def test_anticommutator_witness_matches_the_reference():
    """b2, b3 in r12 square to zero, but b2 b3 = b4 in r21 and b3 b2 = 0."""
    algebra = split_algebra(F7, [(1, 2), (1, 2), (2, 1)], [(2, 3, 4, F7.one)])
    pd = peirce_decompose(algebra, algebra.basis_element(1))
    report = check_peirce_relations(pd)
    entry = report[-2]
    assert entry["check"] == "(iv) squares vanish in r12" and not entry["pass"]
    assert set(entry["witness"]) == {"x", "y", "anticommutator"}
    assert report == reference_check_peirce_relations(pd)


# ----------------------------------------------------------------------
# the table product, sparse membership and the matrix product


@pytest.mark.parametrize("name", ["M3(Q)", "Zorn(F5)", "CD4(Q)", "CD3(F5)+M2(F5)"])
def test_product_sum_and_mul_coords_match_the_dense_sum(name):
    algebra, _ = CASES[name]()
    f = algebra.field
    rng = random.Random(len(name))
    for _ in range(12):
        a = [scalar(rng, f) for _ in range(algebra.dim)]
        b = [scalar(rng, f) for _ in range(algebra.dim)]
        want = reference_mul(algebra, a, b)
        assert algebra.mul_coords(a, b) == want
        acc = algebra.product_sum((f.mul(x, y), (s, t)) for s, x in enumerate(a) if x
                                  for t, y in enumerate(b) if y)
        assert [acc.get(k, f.zero) for k in range(algebra.dim)] == want


@pytest.mark.parametrize("field", [Q, F5, F7], ids=str)
def test_sparse_membership_matches_the_reduction(field):
    rng = random.Random(7)
    algebra = CASES["CD4(Q)"]()[0] if field is Q else cayley_dickson_algebra(
        field, [field.one] * 3)[0]
    n = algebra.dim
    for _ in range(15):
        spanning = [Element(algebra, [scalar(rng, field) for _ in range(n)])
                    for _ in range(rng.randint(0, n))]
        space = Subspace.from_spanning(algebra, spanning)
        members = [space.combine([scalar(rng, field) for _ in space.basis]) for _ in range(3)]
        others = [Element(algebra, [scalar(rng, field) for _ in range(n)]) for _ in range(3)]
        for el in members + others:
            want = {k: c for k, c in enumerate(reference_reduce(space, el.coords)) if c}
            sparse = {k: c for k, c in enumerate(el.coords) if c}
            assert space.reduce(el.coords) == space.reduce(sparse) == want
            assert space.contains(el) == (not want)
        for el in members:
            assert not space.reduce({k: c for k, c in enumerate(el.coords) if c})


def test_matmul_matches_the_dense_triple_loop():
    rng = random.Random(13)
    for _ in range(60):
        field = rng.choice([Q, F5, F7])
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = Matrix(field, [[scalar(rng, field) for _ in range(k)] for _ in range(r)], cols=k)
        b = Matrix(field, [[scalar(rng, field) for _ in range(c)] for _ in range(k)], cols=c)
        ab = a @ b
        assert (ab.rows, ab.cols) == (r, c)
        assert ab.data == reference_matmul(a, b)


# ----------------------------------------------------------------------
# no Element products on the passing path


def test_passing_checks_multiply_no_elements(monkeypatch):
    algebra, e1 = matrix_algebra(Q, 4)
    pd = peirce_decompose(algebra, e1)
    calls = []
    original = Element.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert all(entry["pass"] for entry in check_peirce_relations(pd))
    assert hypothesis_check(algebra, e1) == ((True, None), (True, None))
    assert not calls


# ----------------------------------------------------------------------
# the split and the regularity system at an integral multiple of e1


def fraction_split(algebra, e1):
    """Projectors and components read off L_e1, R_e1 and L_e2 themselves, unscaled,
    as dense rows composed by the dense triple loop, not by the Matrix operations."""
    f, n = algebra.field, algebra.dim
    e2 = find_unit(algebra) - e1
    L1, R1 = mult_matrix(algebra, e1.coords, "left"), mult_matrix(algebra, e1.coords, "right")
    P11 = reference_matmul(L1, R1)
    assert P11 == reference_matmul(R1, L1)
    assert reference_matmul(L1, L1) == L1.data and reference_matmul(R1, R1) == R1.data
    P21 = _dense_minus(f, R1.data, P11)
    rows = {(1, 1): P11, (1, 2): _dense_minus(f, L1.data, P11), (2, 1): P21,
            (2, 2): _dense_minus(f, mult_matrix(algebra, e2.coords, "left").data, P21)}
    return ({key: Matrix(f, r, cols=n) for key, r in rows.items()},
            {key: Subspace.from_spanning(algebra, [list(col) for col in zip(*r)])
             for key, r in rows.items()})


def _dense_minus(f, a, b):
    return [[f.sub(x, y) for x, y in zip(u, v)] for u, v in zip(a, b)]


def fraction_regularity(algebra, e1):
    """The regularity verdicts read off the columns of R_e1 and R_e2 themselves."""
    f, n = algebra.field, algebra.dim
    results = []
    for e in (e1, find_unit(algebra) - e1):
        images = algebra.mult_columns(e.coords, "right").columns
        kernel = common_kernel(f, n, (_regularity_block(algebra, images, k) for k in range(n)))
        results.append((False, Element(algebra, kernel[0])) if kernel else (True, None))
    return tuple(results)


def _m2q_at_2e11(label):
    """M2(Q) in the basis 2E11, E12, E21, E22 (c'_ijk = s_i s_j c_ijk / s_k), at E11 or E22.

    The unit is 1/2 b0 + b3, and E12 E21 = 1/2 b0 puts a denominator in the
    table.  At e1 = E11 = 1/2 b0 the idempotent has it; at e1 = E22 = b3
    only e2 = 1/2 b0 does, so e2 needs the same factor as e1."""
    m2, _ = matrix_algebra(Q, 2)
    s = (2, 1, 1, 1)
    entries = [(i, j, k, Fraction(s[i] * s[j] * c, s[k])) for i, j, k, c in m2.structure_entries()]
    half = Fraction(1, 2)
    algebra = Algebra("M2(Q) at 2E11", Q, 4, ["2E11", "E12", "E21", "E22"], entries,
                      unit=[half, 0, 0, 1])
    return algebra, algebra.element([half, 0, 0, 0] if label == "E11" else [0, 0, 0, 1])


INTEGRAL_CASES = {
    "CD3(Q)": lambda: cayley_dickson_algebra(Q, [Q.one] * 3),
    "CD4(Q)": lambda: cayley_dickson_algebra(Q, [Q.one] * 4),
    "CD5(Q)": lambda: cayley_dickson_algebra(Q, [Q.one] * 5),
    "M3(Q)+CD4(Q)": _m3q_plus_cd4q,
    "M2(Q) at 2E11, E11": partial(_m2q_at_2e11, "E11"),
    "M2(Q) at 2E11, E22": partial(_m2q_at_2e11, "E22"),
}


@pytest.mark.parametrize("name", list(INTEGRAL_CASES))
def test_the_integral_multiple_splits_and_solves_like_the_fractions(name, monkeypatch):
    """Projectors, component echelons and regularity witnesses equal those read off
    e1 itself; on the Cayley-Dickson rungs, at (1 + i)/2, the split's 4 products
    (Matrix @) read only ints."""
    from test_lemmas import _counting

    algebra, e1 = INTEGRAL_CASES[name]()
    d, _ = Q.integral_multiple(e1.coords + (find_unit(algebra) - e1).coords)
    assert d == 2
    projectors, components = fraction_split(algebra, e1)
    composed = _counting(monkeypatch, Matrix, "__matmul__")
    pd = peirce_decompose(algebra, e1)
    assert projector_blocks(pd) == projectors
    for key, sub in components.items():
        assert pd.components[key]._echelon == sub._echelon
        assert pd.components[key].basis == sub.basis
    assert hypothesis_check(algebra, e1) == fraction_regularity(algebra, e1)
    if name.startswith("CD"):
        assert len(composed) == 4
        assert all(type(x) is int for factors in composed for M in factors
                   for col in M.columns for x in col.values())


def test_the_integral_multiple_of_integral_or_prime_field_coordinates_is_themselves():
    coords = (1, 0, -3, 0)
    assert Q.integral_multiple(coords) == (1, coords)
    assert F5.integral_multiple(coords) == (1, coords)
    d, scaled = Q.integral_multiple((Fraction(1, 2), Fraction(-2, 3), 1, Fraction(4, 2)))
    assert (d, scaled) == (6, [3, -4, 6, 12]) and all(type(x) is int for x in scaled)
