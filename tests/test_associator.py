"""The associator tensor and the block-wise kernel against per-element references.

``is_alternative``, ``is_associative`` and ``nucleus`` read the cached
associator tensor, and every kernel goes through ``echelon_of_blocks``.
The references below are the direct forms: associators of basis Elements
scanned in order, the stacked nucleus system, and dense Gauss-Jordan
elimination with its kernel read off the dense rows.  Verdicts, witness
triples and nucleus subspaces must agree exactly, since scan order and
reduced echelon forms are both canonical.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcomm import (Algebra, LinearMap, PrimeField, RationalField, Subspace, associator,
                     cayley_dickson_algebra, direct_sum, is_alternative, is_associative,
                     matrix_algebra, nucleus, scalar_algebra, zorn)
from altcomm.algebra import Element
from altcomm.linalg import Matrix, common_kernel, echelon_of_blocks
from altcomm.peirce import KEYS

Q = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)

SMALL = settings(max_examples=40, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# references


def reference_is_alternative(algebra):
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    for i in range(n):
        bi = basis[i]
        for j in range(n):
            bj = basis[j]
            if not associator(bi, bi, bj).is_zero():
                return False, (bi, bi, bj)
            if not associator(bj, bi, bi).is_zero():
                return False, (bj, bi, bi)
    for i in range(n):
        for j in range(i + 1, n):
            x = basis[i] + basis[j]
            for k in range(n):
                bk = basis[k]
                if not associator(x, x, bk).is_zero():
                    return False, (x, x, bk)
                if not associator(bk, x, x).is_zero():
                    return False, (bk, x, x)
    return True, None


def reference_is_associative(algebra):
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not associator(basis[i], basis[j], basis[k]).is_zero():
                    return False, (basis[i], basis[j], basis[k])
    return True, None


def reference_nucleus(algebra):
    """All 3 n^3 associator rows stacked and reduced at once."""
    f = algebra.field
    n = algebra.dim
    bc = algebra.basis_coords
    mul = algebra.mul_coords

    def bp(s, t):
        return tuple(mul(bc(s), bc(t)))

    def assoc(s, t, u):
        left = mul(bp(s, t), bc(u))
        right = mul(bc(s), bp(t, u))
        return [f.sub(a, b) for a, b in zip(left, right)]

    rows = []
    for s in range(n):
        for t in range(n):
            b1 = [[f.zero] * n for _ in range(n)]
            b2 = [[f.zero] * n for _ in range(n)]
            b3 = [[f.zero] * n for _ in range(n)]
            for u in range(n):
                for k, val in enumerate(assoc(s, t, u)):
                    b1[k][u] = val           # (b_s, b_t, r)
                for k, val in enumerate(assoc(s, u, t)):
                    b2[k][u] = val           # (b_s, r, b_t)
                for k, val in enumerate(assoc(u, s, t)):
                    b3[k][u] = val           # (r, b_s, b_t)
            rows.extend(b1 + b2 + b3)
    reduced, pivots = dense_rref(f, rows, n)
    kernel = dense_kernel(f, reduced, pivots, n)
    return Subspace(algebra, [Element(algebra, v) for v in kernel])


def dense_rref(f, data, n_cols):
    """Gauss-Jordan with leftmost-column, topmost-row pivots on the whole stack."""
    m = [list(row) for row in data]
    n_rows = len(m)
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(n_rows):
            factor = m[i][c]
            if i != r and factor:
                m[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def sparse_matrix(field, rows, columns):
    """The Matrix whose column j holds the nonzero entries of the {row: entry} map columns[j]."""
    return Matrix._of(field, rows, [{r: a for r, a in col.items() if a} for col in columns])


def projector_blocks(pd):
    """{KEYS[p]: P}: pd.stacked cut into its four n x n blocks, the projectors."""
    f, n = pd.algebra.field, pd.algebra.dim
    return {key: Matrix._of(f, n, [{r - p * n: a for r, a in col.items() if p * n <= r < p * n + n}
                                   for col in pd.stacked.columns])
            for p, key in enumerate(KEYS)}


def columns_matrix(field, columns, rows=None):
    """The Matrix whose column j is the dense list columns[j]; rows, read off the
    first column, is needed only when there is none."""
    columns = list(columns)
    rows = len(columns[0]) if columns else rows
    return sparse_matrix(field, rows, [dict(enumerate(col)) for col in columns])


def scalar_map(algebra, c=1):
    """x -> c x on the algebra: the identity map, and the zero map at c = 0."""
    f, n = algebra.field, algebra.dim
    columns = [{j: f.from_int(c)} for j in range(n)]
    return LinearMap(algebra, sparse_matrix(f, n, columns))


def mult_matrix(algebra, a, side):
    """L_a or R_a with column j formed by mul_coords, not read off the table's columns."""
    basis = [algebra.basis_coords(j) for j in range(algebra.dim)]
    return columns_matrix(algebra.field, [
        algebra.mul_coords(a, b) if side == "left" else algebra.mul_coords(b, a) for b in basis])


def dense_solve(f, data, n_cols, rhs):
    """One solution x of data @ x = rhs read off the dense rref of [data | rhs].

    Free variables are zero; None when rhs's column holds a pivot.
    """
    reduced, pivots = dense_rref(f, [list(row) + [b] for row, b in zip(data, rhs)], n_cols + 1)
    if n_cols in pivots:
        return None
    x = [f.zero] * n_cols
    for row, c in zip(reduced, pivots):
        x[c] = row[n_cols]
    return x


def dense_kernel(f, reduced, pivots, n_cols):
    """Kernel basis read off dense reduced rows: per free column, ascending, a one there."""
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        v = [f.zero] * n_cols
        v[fc] = f.one
        for row, pc in zip(reduced, pivots):
            if row[fc]:
                v[pc] = f.neg(row[fc])
        basis.append(v)
    return basis


def spelled_out(f, n_cols, echelon):
    """An echelon map as (dense rows, pivots), after checking its shape.

    Pivots ascend, and each row stores only nonzero entries off its pivot.
    """
    assert list(echelon) == sorted(echelon)
    rows = []
    for pc, terms in echelon.items():
        assert pc not in terms and all(terms.values())
        row = [f.zero] * n_cols
        row[pc] = f.one
        for j, x in terms.items():
            row[j] = x
        rows.append(row)
    return rows, list(echelon)


def assert_agrees(algebra):
    assert is_alternative(algebra) == reference_is_alternative(algebra), algebra.name
    assert is_associative(algebra) == reference_is_associative(algebra), algebra.name
    got, want = nucleus(algebra), reference_nucleus(algebra)
    assert got == want and got.basis == want.basis, algebra.name


# ----------------------------------------------------------------------
# builtins up to dimension 16


BUILTINS = {
    "M2(Q)": lambda: matrix_algebra(Q, 2)[0],
    "M3(Q)": lambda: matrix_algebra(Q, 3)[0],
    "M4(Q)": lambda: matrix_algebra(Q, 4)[0],
    "M2(F5)": lambda: matrix_algebra(F5, 2)[0],
    "M3(F5)": lambda: matrix_algebra(F5, 3)[0],
    "M4(F5)": lambda: matrix_algebra(F5, 4)[0],
    "Zorn(Q)": lambda: zorn(Q)[0],
    "Zorn(F5)": lambda: zorn(F5)[0],
    "CD3(Q)": lambda: cayley_dickson_algebra(Q, [Q.one, Q.from_int(-1), Q.one])[0],
    "CD4(Q)": lambda: cayley_dickson_algebra(Q, [Q.one] * 4)[0],
    "M2(Q)+Zorn(Q)": lambda: direct_sum(matrix_algebra(Q, 2)[0], zorn(Q)[0]),
    "CD3(F5)+M2(F5)": lambda: direct_sum(cayley_dickson_algebra(F5, [F5.one] * 3)[0],
                                         matrix_algebra(F5, 2)[0]),
}


def builtin_over(name, field):
    """The builtin family name over field, as (algebra, a nontrivial idempotent).

    The same constructions as BUILTINS, with any field: the idempotent is
    E11 on M_n, the split one on Zorn, (1 + i1)/2 on CD3 and CD4, and the
    first summand's idempotent on a direct sum.
    """
    one, minus = field.one, field.from_int(-1)
    if name in ("M2", "M3", "M4"):
        return matrix_algebra(field, int(name[1]))
    if name == "Zorn":
        return zorn(field)
    if name in ("CD3", "CD4"):
        return cayley_dickson_algebra(field, [one, minus, one] if name == "CD3" else [one] * 4)
    first, e = builtin_over(name.split("+")[0], field)
    second = builtin_over(name.split("+")[1], field)[0]
    algebra = direct_sum(first, second)
    return algebra, algebra.element(list(e.coords) + [field.zero] * second.dim)


FAMILIES = ["M2", "M3", "M4", "Zorn", "CD3", "CD4", "M2+Zorn", "CD3+M2"]


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtins_agree_with_the_reference(name):
    assert_agrees(BUILTINS[name]())


def assert_tensor_is_the_associators(algebra):
    """associator_tensor is cached, its keys sorted, and each entry the nonzero
    coordinates of its basis associator; zero associators are absent."""
    tensor = algebra.associator_tensor()
    assert tensor is algebra.associator_tensor(), "built once and cached"
    assert list(tensor) == sorted(tensor)
    assert all(vec and all(vec.values()) for vec in tensor.values())
    b = algebra.basis_element
    n = algebra.dim
    for s in range(n):
        for t in range(n):
            for u in range(n):
                coords = associator(b(s), b(t), b(u)).coords
                assert tensor.get((s, t, u), {}) == {k: c for k, c in enumerate(coords) if c}


TENSOR_CASES = {
    "CD4(Q)": lambda: cayley_dickson_algebra(Q, [Q.one] * 4)[0],
    "Zorn(F5)": lambda: zorn(F5)[0],
    "M3(F101)": lambda: matrix_algebra(PrimeField(101), 3)[0],
    "CD3(Q)": lambda: cayley_dickson_algebra(Q, [Q.one, Q.from_int(-1), Q.one])[0],
    "M2(Q)+Zorn(Q)": lambda: direct_sum(matrix_algebra(Q, 2)[0], zorn(Q)[0]),
    "CD3(Q;1/2,-2/3,3)": lambda: cayley_dickson_algebra(
        Q, [Fraction(1, 2), Fraction(-2, 3), Q.from_int(3)])[0],
}


@pytest.mark.parametrize("name", list(TENSOR_CASES))
def test_tensor_entries_are_the_basis_associators(name):
    assert_tensor_is_the_associators(TENSOR_CASES[name]())


@pytest.mark.parametrize("field", [Q, F5], ids=lambda f: f.label)
def test_tensor_drops_a_triple_whose_two_halves_cancel(field):
    """b0 b0 = b1 and b0 b1 = b1 b0 = b2: (b0 b0) b0 = b2 = b0 (b0 b0), so
    (b0, b0, b0) is absent though both halves reach it; b1 b1 = b2 makes
    (b0, b0, b1) = b2 and (b1, b0, b0) = -b2 present.  The entry (0, 0, 1) is
    given three times and summed, and b2 b2 is given as c and -c, which cancel."""
    one, two = field.one, field.from_int(2)
    entries = [(0, 0, 1, one), (0, 1, 2, one), (1, 0, 2, one), (1, 1, 2, one),
               (0, 0, 1, two), (0, 0, 1, field.neg(two)), (2, 2, 0, two), (2, 2, 0, field.neg(two))]
    algebra = Algebra("cancel", field, 3, ["b0", "b1", "b2"], entries)
    assert algebra.structure_entries()[0] == (0, 0, 1, one)
    tensor = algebra.associator_tensor()
    assert (0, 0, 0) not in tensor
    assert tensor[0, 0, 1] == {2: one} and tensor[1, 0, 0] == {2: field.neg(one)}
    assert_tensor_is_the_associators(algebra)


def test_the_first_key_is_the_first_triple_though_only_the_second_half_reaches_it():
    """b0 b2 = b2, b1 b1 = b2, b2 b0 = b1.  (b0, b2, b0) = b1 comes from the
    (b_s b_t) b_u half and is reached first in table order; (b0, b0, b2) = -b2
    and (b0, b1, b1) = -b2 come only from b_s (b_t b_u).  The tensor's keys
    are sorted, so is_associative names (b0, b0, b2), and the nucleus, whose
    blocks group the keys by their first index, agrees with the reference."""
    one = Q.one
    algebra = Algebra("late", Q, 3, ["b0", "b1", "b2"],
                      [(0, 2, 2, one), (1, 1, 2, one), (2, 0, 1, one)])
    tensor = algebra.associator_tensor()
    assert tensor[0, 2, 0] == {1: one}
    assert tensor[0, 0, 2] == tensor[0, 1, 1] == {2: -one}
    b = algebra.basis_element
    assert is_associative(algebra) == reference_is_associative(algebra) == (
        False, (b(0), b(0), b(2)))
    assert_tensor_is_the_associators(algebra)
    assert_agrees(algebra)


@pytest.mark.parametrize("field", [Q, F5, F7], ids=lambda f: f.label)
def test_the_pair_scan_sums_the_two_keys_that_can_be_present(field):
    """Chains b_s b_t = b_m, b_m b_u = v give one associator each, (b_s, b_t, b_u) = v.

    b2 b0 = b3, b3 b1 = b4 alone fails only at (b2, x, x), x = b0 + b1, with one key
    present, and its mirror b0 b2 = b3, b1 b3 = b4 only at (x, x, b2).  With (b0, b1, b2) = b5 and
    (b1, b0, b2) = b5, or -b5 + b6, both keys are present: the sum 2 b5 has their
    support, and b6 lies outside the first's.  Either way (x, x, b2) fails first."""
    one, minus = field.one, field.neg(field.one)
    right = [(2, 0, 3, one), (3, 1, 4, one)]
    left = [(0, 2, 3, one), (1, 3, 4, one)]
    pair = [(0, 1, 3, one), (3, 2, 5, one), (1, 0, 4, one)]
    cases = [(right, "y,x,x"), (left, "x,x,y"), (pair + [(4, 2, 5, one)], "x,x,y"),
             (pair + [(4, 2, 5, minus), (4, 2, 6, one)], "x,x,y")]
    for entries, shape in cases:
        dim = 1 + max(k for _, _, k, _ in entries)
        algebra = Algebra("chains", field, dim, [f"b{i}" for i in range(dim)], entries)
        b = algebra.basis_element
        x = b(0) + b(1)
        assert len(algebra.associator_tensor()) == (1 if len(entries) == 2 else 2)
        want = (False, (b(2), x, x) if shape == "y,x,x" else (x, x, b(2)))
        assert is_alternative(algebra) == reference_is_alternative(algebra) == want


# ----------------------------------------------------------------------
# random structure constants


@st.composite
def small_algebras(draw):
    field = draw(st.sampled_from([F5, F7, Q]))
    dim = draw(st.integers(1, 4))
    if field is Q:
        scalars = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    else:
        scalars = st.integers(0, field.p - 1)
    index = st.integers(0, dim - 1)
    entries = draw(st.lists(st.tuples(index, index, index, scalars), max_size=2 * dim * dim))
    if draw(st.booleans()) and dim >= 2:
        # Start from a unital associative block so that some draws stay
        # alternative or associative and the scans run to the end.
        base = scalar_algebra(field) if dim < 4 else matrix_algebra(field, 2)[0]
        entries = list(base.structure_entries()) + entries[: draw(st.integers(0, 2))]
    return Algebra("random", field, dim, [f"b{i}" for i in range(dim)], entries)


@SMALL
@given(small_algebras())
def test_random_algebras_agree_with_the_reference(algebra):
    assert_agrees(algebra)
    assert_tensor_is_the_associators(algebra)


# ----------------------------------------------------------------------
# common_kernel


def random_blocks(rng, field, n, count):
    def scalar():
        v = rng.choice([0, 0, 0, 1, 2, -1, 3])
        return Fraction(v, rng.choice([1, 2])) if field is Q else v % field.p
    return [[[scalar() for _ in range(n)] for _ in range(rng.randint(0, 3))]
            for _ in range(count)]


def test_common_kernel_matches_the_stacked_kernel():
    rng = random.Random(5)
    zeros = random.Random(6)        # explicit zeros in the sparse form
    for _ in range(150):
        field = rng.choice([Q, F5, F7])
        n = rng.randint(1, 6)
        blocks = random_blocks(rng, field, n, rng.randint(0, 4))
        sparse = [[{j: x for j, x in enumerate(row) if x or zeros.random() < 0.3}
                   for row in block] for block in blocks]
        stacked = [row for block in blocks for row in block]
        reduced, pivots = dense_rref(field, stacked, n)
        rows = reduced[: len(pivots)]
        expected = dense_kernel(field, rows, pivots, n)
        for form in (blocks, sparse):
            assert spelled_out(field, n, echelon_of_blocks(field, n, form)) == (rows, pivots)
            assert common_kernel(field, n, form) == expected
        assert common_kernel(field, n, blocks) == common_kernel(field, n, [stacked])
        full, full_pivots = Matrix(field, stacked, cols=n).rref()
        assert full_pivots == pivots and full.data[: len(pivots)] == rows


def test_common_kernel_of_no_blocks_or_zero_blocks_is_everything():
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert common_kernel(F5, 3, []) == identity
    assert common_kernel(F5, 3, [[], [[0, 0, 0]] * 4]) == identity
    assert common_kernel(F5, 3, []) == common_kernel(F5, 3, [[]])


def test_common_kernel_stops_reading_at_full_rank():
    read = []

    def blocks():
        for k in range(5):
            read.append(k)
            yield [[1 if j == k else 0 for j in range(3)]]
        raise AssertionError("unreachable: rank is full after three blocks")

    assert common_kernel(F7, 3, blocks()) == []
    assert read == [0, 1, 2]
