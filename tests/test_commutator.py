"""The commutator tensor against per-element references.

``commutator``, ``is_commuting``, ``is_anti_commuting``, ``center`` and
``PeirceData.diagonal_center`` read the cached commutator tensor, and
``Subspace.combine`` forms every combination over a subspace basis.  The
references below are the direct forms: ``a * b - b * a`` on Elements, the
pair scans built from it, the center stacked from multiplication matrices,
and hand-written combination loops.  Values, verdicts, witness pairs and
subspaces must agree exactly, since scan order and reduced echelon forms
are both canonical.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altcomm import (Algebra, LinearMap, Matrix, PrimeField, Subspace, center,
                     center_via_peirce, commutator, is_anti_commuting, is_central,
                     is_commuting, random_commuting_map)
from altcomm.algebra import Element
from altcomm.linalg import reduce_against

from test_associator import (BUILTINS, F5, FAMILIES, Q, SMALL, builtin_over, dense_kernel,
                             dense_rref, mult_matrix, small_algebras)

F101 = PrimeField(101)


# ----------------------------------------------------------------------
# references


def reference_commutator(a, b):
    return a * b - b * a


def reference_is_commuting(algebra, phi):
    n = algebra.dim
    b = algebra.basis_element
    images = [phi(b(i)) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = reference_commutator(images[i], b(j)) + reference_commutator(images[j], b(i))
            if not s.is_zero():
                return False, (b(i), b(j))
    return True, None


def reference_is_anti_commuting(algebra, phi):
    n = algebra.dim
    b = algebra.basis_element
    images = [phi(b(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            s = reference_commutator(images[i], b(j)) + reference_commutator(b(i), images[j])
            if not s.is_zero():
                return False, (b(i), b(j))
    return True, None


def reference_center(algebra):
    """Basis of the center, stacked from 2n multiplication matrices."""
    f = algebra.field
    n = algebra.dim
    stack = [row for t in range(n)
             for row in (mult_matrix(algebra, algebra.basis_coords(t), "right")
                         - mult_matrix(algebra, algebra.basis_coords(t), "left")).data]
    reduced, pivots = dense_rref(f, stack, n)
    return [Element(algebra, v) for v in dense_kernel(f, reduced, pivots, n)]


def reference_combine(algebra, alpha, basis):
    f = algebra.field
    coords = [f.zero] * algebra.dim
    for a, el in zip(alpha, basis):
        for k, c in enumerate(el.coords):
            coords[k] = f.add(coords[k], f.mul(a, c))
    return Element(algebra, coords)


# ----------------------------------------------------------------------
# maps and elements to compare on


def scalar(rng, field):
    v = rng.choice([0, 0, 0, 1, 2, -1, -3])
    return Fraction(v, rng.choice([1, 2])) if field is Q else field.from_int(v)


def random_map(algebra, rng):
    f = algebra.field
    n = algebra.dim
    data = [[scalar(rng, f) for _ in range(n)] for _ in range(n)]
    return LinearMap(algebra, Matrix(f, data, cols=n))


def perturbed(algebra, phi, rng):
    """phi plus a unit in one seeded matrix entry: usually no longer commuting."""
    f = algebra.field
    n = algebra.dim
    data = [[f.zero] * n for _ in range(n)]
    data[rng.randrange(n)][rng.randrange(n)] = f.one
    return phi + LinearMap(algebra, Matrix(f, data, cols=n))


def maps_for(algebra, seed):
    rng = random.Random(seed)
    standard = random_commuting_map(algebra, seed)
    return [standard, perturbed(algebra, standard, rng), random_map(algebra, rng)]


def assert_agrees(algebra, seed, pairs=6):
    rng = random.Random(seed)
    n = algebra.dim
    b = algebra.basis_element
    elems = [b(rng.randrange(n)) for _ in range(pairs)]
    elems += [Element(algebra, [scalar(rng, algebra.field) for _ in range(n)])
              for _ in range(pairs)]
    for x, y in zip(elems, reversed(elems)):
        assert commutator(x, y) == reference_commutator(x, y), algebra.name
    for phi in maps_for(algebra, seed):
        assert is_commuting(algebra, phi) == reference_is_commuting(algebra, phi), algebra.name
        assert is_anti_commuting(algebra, phi) == reference_is_anti_commuting(algebra, phi), \
            algebra.name
    assert center(algebra).basis == tuple(reference_center(algebra)), algebra.name


# ----------------------------------------------------------------------
# builtins up to dimension 16


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtins_agree_with_the_reference(name):
    assert_agrees(BUILTINS[name](), seed=len(name))


def test_tensor_entries_are_the_basis_commutators():
    """Row s of the bracket table lists every nonzero [b_s, b_t], t ascending."""
    algebra = BUILTINS["CD4(Q)"]()
    rows = algebra.commutator_rows()
    assert rows is algebra.commutator_rows(), "built once and cached"
    assert len(rows) == algebra.dim
    b = algebra.basis_element
    n = algebra.dim
    for s in range(n):
        ts = [t for t, _ in rows[s]]
        assert ts == sorted(set(ts))
        got = {t: dict(vec) for t, vec in rows[s]}
        assert all(len(dict(vec)) == len(vec) and all(c for _, c in vec) for _, vec in rows[s])
        for t in range(n):
            coords = reference_commutator(b(s), b(t)).coords
            assert got.get(t, {}) == {k: c for k, c in enumerate(coords) if c}


def test_witness_pairs_are_the_first_failing_pairs(m2q):
    algebra, _ = m2q
    f = algebra.field
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            data = [[f.zero] * algebra.dim for _ in range(algebra.dim)]
            data[i][j] = f.one
            phi = LinearMap(algebra, Matrix(f, data, cols=algebra.dim))
            assert is_commuting(algebra, phi) == reference_is_commuting(algebra, phi)
            assert is_anti_commuting(algebra, phi) == reference_is_anti_commuting(algebra, phi)


# ----------------------------------------------------------------------
# one pass over all pairs: the witness is still the first failing pair


def reference_failing_pairs(algebra, phi, anti):
    """Every basis pair i <= j whose reference bracket sum is nonzero, row-major."""
    b = algebra.basis_element
    images = [phi(b(i)) for i in range(algebra.dim)]
    pairs = []
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            second = (reference_commutator(b(i), images[j]) if anti
                      else reference_commutator(images[j], b(i)))
            if not (reference_commutator(images[i], b(j)) + second).is_zero():
                pairs.append((i, j))
    return pairs


def condition_rows(algebra, brackets, i, j, anti):
    """The rows {column: entry} of pair (i, j)'s condition on phi, unknown phi[s][c] at s n + c.

    Coordinate k of [phi(b_i), b_j] plus [phi(b_j), b_i] (or [b_i, phi(b_j)]),
    from the reference brackets[s][t] = [b_s, b_t].
    """
    f, n = algebra.field, algebra.dim
    second = f.neg if anti else (lambda c: c)
    rows = [{} for _ in range(n)]
    for s in range(n):
        for column, vec in ((s * n + i, brackets[s][j]), (s * n + j, map(second, brackets[s][i]))):
            for k, c in enumerate(vec):
                if c:
                    rows[k][column] = f.add(rows[k].get(column, f.zero), c)
    return [{col: c for col, c in row.items() if c} for row in rows]


def first_failing_maps(algebra, anti):
    """{pair: map} with one map for each pair that can be a first failing pair, row-major.

    The pair conditions are eliminated in row-major order.  A pair whose
    rows raise the rank is not implied by the pairs before it, so a kernel
    vector of the echelon before it fails there: the one at the lead of a
    row's remainder, which is a free column.  That map satisfies every
    earlier pair and fails at this one.
    """
    f, n = algebra.field, algebra.dim
    b = algebra.basis_element
    brackets = [[reference_commutator(b(s), b(t)).coords for t in range(n)] for s in range(n)]
    echelon, maps = {}, {}
    for i in range(n):
        for j in range(i, n):
            before, free = dict(echelon), None
            for row in condition_rows(algebra, brackets, i, j, anti):
                v = reduce_against(f, echelon, row)
                if not v:
                    continue
                lead = min(v)
                free = lead if free is None else free
                a = v.pop(lead)
                new = f.monic(v, a)
                for pc, terms in echelon.items():
                    if lead in terms:
                        echelon[pc] = reduce_against(f, {lead: new}, terms)
                echelon[lead] = new
            if free is None:
                continue
            data = [[f.zero] * n for _ in range(n)]
            data[free // n][free % n] = f.one
            for pc, terms in before.items():
                if free in terms:
                    data[pc // n][pc % n] = f.neg(terms[free])
            maps[(i, j)] = LinearMap(algebra, Matrix(f, data, cols=n))
    return maps


def assert_same_verdicts(algebra, phi):
    assert is_commuting(algebra, phi) == reference_is_commuting(algebra, phi), algebra.name
    assert is_anti_commuting(algebra, phi) == reference_is_anti_commuting(algebra, phi), \
        algebra.name


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
@pytest.mark.parametrize("name", FAMILIES)
def test_late_diagonal_and_many_failures_give_the_reference_witness(name, field):
    algebra = builtin_over(name, field)[0]
    b = algebra.basis_element
    n = algebra.dim
    for anti in (False, True):
        maps = first_failing_maps(algebra, anti)
        pairs = list(maps)
        # the last three pairs that can fail first; every later pair's condition
        # follows from the earlier ones, so these maps fail only late
        late = pairs[-3:]
        # diagonal pairs (anti-commuting sums vanish there, so only the commuting check)
        diagonal = [p for p in pairs if p[0] == p[1]]
        assert (not diagonal) == anti, (name, anti)
        for pair in late + diagonal[:1] + diagonal[-1:]:
            phi = maps[pair]
            assert reference_failing_pairs(algebra, phi, anti)[0] == pair
            check = is_anti_commuting if anti else is_commuting
            assert check(algebra, phi) == (False, (b(pair[0]), b(pair[1])))
            assert_same_verdicts(algebra, phi)
    # dense seeded maps fail at many pairs
    rng = random.Random(len(name) * 7 + n)
    for _ in range(2):
        phi = random_map(algebra, rng)
        assert len(reference_failing_pairs(algebra, phi, anti=False)) >= n
        assert len(reference_failing_pairs(algebra, phi, anti=True)) >= n
        assert_same_verdicts(algebra, phi)


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_a_map_failing_only_at_a_diagonal_pair(field):
    """b0 b1 = b1 and phi(b1) = b0: only [phi(b1), b1] = b1 is nonzero.

    No builtin has such a map (each diagonal condition there follows from
    the other pairs), so this two-dimensional algebra carries the case.
    """
    algebra = Algebra("step", field, 2, ["b0", "b1"], [(0, 1, 1, field.one)])
    phi = LinearMap(algebra, Matrix(field, [[field.zero, field.one], [field.zero] * 2]))
    b = algebra.basis_element
    assert reference_failing_pairs(algebra, phi, anti=False) == [(1, 1)]
    assert is_commuting(algebra, phi) == (False, (b(1), b(1)))
    assert_same_verdicts(algebra, phi)


def test_commutator_keeps_its_argument_checks(m2q, m3q):
    a, b = m2q[0].basis_element(1), m3q[0].basis_element(1)
    with pytest.raises(ValueError):
        commutator(a, b)
    with pytest.raises(TypeError):
        commutator(a, 3)
    with pytest.raises(TypeError):
        commutator(3, a)


# ----------------------------------------------------------------------
# random structure constants


@SMALL
@given(small_algebras(), st.integers(0, 2 ** 16))
def test_random_algebras_agree_with_the_reference(algebra, seed):
    assert_agrees(algebra, seed)


# ----------------------------------------------------------------------
# centrality as membership in the center


def reference_is_central(x):
    algebra = x.algebra
    return all(reference_commutator(x, algebra.basis_element(t)).is_zero()
               for t in range(algebra.dim))


def assert_is_central_agrees(algebra, seed):
    """is_central against the commutator scan, on basis, central, random and mixed elements."""
    rng = random.Random(seed)
    f = algebra.field
    n = algebra.dim
    Z = center(algebra)
    elems = [algebra.basis_element(k) for k in range(n)]
    for _ in range(6):
        z = Z.combine([scalar(rng, f) for _ in Z.basis])
        x = Element(algebra, [scalar(rng, f) for _ in range(n)])
        elems += [z, x, z + x, z + algebra.basis_element(rng.randrange(n))]
    for x in elems:
        assert is_central(algebra, x) == reference_is_central(x), (algebra.name, x)


@pytest.mark.parametrize("name", list(BUILTINS))
def test_is_central_is_the_commutator_scan_on_builtins(name):
    assert_is_central_agrees(BUILTINS[name](), seed=len(name))


@SMALL
@given(small_algebras(), st.integers(0, 2 ** 16))
def test_is_central_is_the_commutator_scan_on_random_algebras(algebra, seed):
    assert_is_central_agrees(algebra, seed)


# ----------------------------------------------------------------------
# matvec, combinations and the Peirce-side centers


def test_matvec_matches_the_dense_sum():
    rng = random.Random(11)
    for _ in range(100):
        field = rng.choice([Q, F5])
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = Matrix(field, [[scalar(rng, field) for _ in range(cols)] for _ in range(rows)],
                   cols=cols)
        v = [scalar(rng, field) for _ in range(cols)]
        want = []
        for row in m.data:
            acc = field.zero
            for a, x in zip(row, v):
                acc = field.add(acc, field.mul(a, x))
            want.append(acc)
        assert m.matvec(v) == want


def test_combine_matches_the_loop(zornq):
    algebra, _ = zornq
    rng = random.Random(3)
    space = Subspace.from_spanning(algebra, [Element(algebra, [scalar(rng, Q) for _ in
                                                               range(algebra.dim)])
                                             for _ in range(4)])
    for _ in range(20):
        alpha = [scalar(rng, Q) for _ in space.basis]
        assert space.combine(alpha) == reference_combine(algebra, alpha, space.basis)
    assert Subspace(algebra, []).combine([]) == Element(algebra, [Q.zero] * algebra.dim)


@pytest.mark.parametrize("fixture", ["m2q_pd", "m3q_pd", "zornq_pd", "m2f5_pd", "zornf5_pd"])
def test_peirce_centers_match_the_reference(fixture, request):
    assert_peirce_centers_agree(request.getfixturevalue(fixture))


def assert_peirce_centers_agree(pd, via_peirce=True):
    """diagonal_center (and center_via_peirce) against multiplication-matrix references."""
    algebra = pd.algebra
    f = algebra.field
    for i in (1, 2):
        comp = pd.components[(i, i)]
        B = Matrix.from_columns(f, [el.coords for el in comp.basis], rows=algebra.dim)
        stack = [row for t in comp.basis for row in
                 ((mult_matrix(algebra, t.coords, "right") - mult_matrix(algebra, t.coords, "left"))
                  @ B).data]
        reduced, pivots = dense_rref(f, stack, comp.dim)
        kernel = dense_kernel(f, reduced, pivots, comp.dim)
        want = Subspace.from_spanning(algebra, [Element(algebra, B.matvec(g)) for g in kernel])
        got = pd.diagonal_center(i)
        assert got == want and got.basis == want.basis
    if not via_peirce:
        return
    diag = list(pd.components[(1, 1)].basis) + list(pd.components[(2, 2)].basis)
    off = list(pd.components[(1, 2)].basis) + list(pd.components[(2, 1)].basis)
    stack = [row for u in off for row in
             Matrix.from_columns(f, [reference_commutator(t, u).coords for t in diag]).data]
    reduced, pivots = dense_rref(f, stack, len(diag))
    kernel = dense_kernel(f, reduced, pivots, len(diag))
    want = Subspace.from_spanning(algebra, [reference_combine(algebra, g, diag) for g in kernel])
    got = center_via_peirce(pd)
    assert got == want and got.basis == want.basis


@pytest.mark.parametrize("anti", [False, True], ids=["C", "AC"])
@pytest.mark.parametrize("name", ["M4", "CD4"])
def test_the_indexed_elimination_of_the_map_systems_matches_the_row_scan(name, anti):
    """The commuting (C) and anti-commuting (AC) systems on End(A), rows in pair order:
    the same echelon with the column index as with the scan over every row."""
    from altcomm.linalg import echelon_of_blocks

    from test_linalg import scan_echelon

    algebra = builtin_over(name, Q)[0]
    n = algebra.dim
    b = algebra.basis_element
    brackets = [[reference_commutator(b(s), b(t)).coords for t in range(n)] for s in range(n)]
    blocks = [condition_rows(algebra, brackets, i, j, anti) for i in range(n) for j in range(i, n)]
    echelon = echelon_of_blocks(Q, n * n, blocks)
    assert echelon == scan_echelon(Q, n * n, blocks)
    assert n * n - len(echelon) == (n + 1 if not anti else n)      # dim C = dim S, dim Z = 1
