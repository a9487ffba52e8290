"""The Peirce split and central lifts against their direct forms.

``peirce_decompose`` checks the split through three identities of the
sparse columns of L_e1 and R_e1, read off the structure table, and forms
the projectors' columns and the components' echelons from them; and
``lift_central`` expresses x over one tagged echelon per idempotent e_i,
cached on the algebra (``express_central``).  The references below are
the direct forms they replace: the four projectors L_i R_j formed as dense
``Matrix`` products from both idempotents, with L and R built column by
column from ``mul_coords`` (``mult_matrix``), with every bracketing, the
identity sum, all sixteen orthogonality products and the dimension sum
checked; and one dense solve per lift on the columns z_c . e_i, read off
the Gauss-Jordan form of the augmented matrix (test_associator.dense_solve).
Verdicts, the class of each refusal (the split's exact messages and their
order are checked apart), projectors, components and lifts (None included)
must agree exactly.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcomm import (Algebra, PreconditionError, PrimeField, RationalField, Subspace,
                     cayley_dickson_algebra, center, direct_sum, find_unit, lift_central,
                     matrix_algebra, peirce_decompose, zorn)
from altcomm.algebra import Element
from altcomm.linalg import Matrix

from test_associator import FAMILIES, builtin_over, dense_solve, mult_matrix
from test_peirce import lift_gap_algebra, mixed_identity_violator, with_unit_row

Q = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)
ONE = Fraction(1)
ZERO = Fraction(0)

SMALL = settings(max_examples=60, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# references


def reference_peirce_decompose(algebra, e1):
    """Projectors and components from all four L_i R_j, every consequence checked."""
    unit = find_unit(algebra)
    e2 = unit - e1
    f, n = algebra.field, algebra.dim
    L = {i: mult_matrix(algebra, e.coords, "left") for i, e in ((1, e1), (2, e2))}
    R = {i: mult_matrix(algebra, e.coords, "right") for i, e in ((1, e1), (2, e2))}
    projectors = {}
    for i in (1, 2):
        for j in (1, 2):
            P = L[i] @ R[j]
            if P != R[j] @ L[i]:
                raise PreconditionError("e_i (x e_j) and (e_i x) e_j disagree")
            projectors[(i, j)] = P
    total = projectors[(1, 1)] + projectors[(1, 2)] + projectors[(2, 1)] + projectors[(2, 2)]
    if total != Matrix.identity(f, n):
        raise PreconditionError("Peirce projectors do not sum to the identity")
    for a in projectors:
        for b in projectors:
            expected = projectors[a] if a == b else Matrix.zeros(f, n, n)
            if projectors[a] @ projectors[b] != expected:
                raise PreconditionError(f"Peirce projectors {a} and {b} are not orthogonal")
    components = {key: Subspace.from_spanning(
        algebra, [Element(algebra, col) for col in zip(*P.data)])
        for key, P in projectors.items()}
    if sum(c.dim for c in components.values()) != n:
        raise PreconditionError("Peirce component dimensions do not sum to the dimension")
    return projectors, components


def reference_lift(pd, x, i):
    """One dense solve on the columns z_c . e_i, free variables zero."""
    algebra = pd.algebra
    Z = center(algebra)
    if not Z.basis:
        return None
    cols = [list((z * pd.idempotent(i)).coords) for z in Z.basis]
    alpha = dense_solve(algebra.field, Matrix.from_columns(algebra.field, cols).data,
                        len(cols), x.coords)
    return None if alpha is None else Z.combine(alpha)


def refusal_class(message):
    for key in ("disagree", "identity", "orthogonal", "dimension"):
        if key in message:
            return key
    raise AssertionError(f"unclassified refusal: {message}")


def split_outcome(split, algebra, e1):
    """("ok", projectors, components) or ("refused", class of the message)."""
    try:
        out = split(algebra, e1)
    except PreconditionError as exc:
        return "refused", refusal_class(str(exc))
    if isinstance(out, tuple):
        return ("ok",) + out
    return "ok", out.projectors, out.components


def assert_split_agrees(algebra, e1):
    got = split_outcome(peirce_decompose, algebra, e1)
    assert got == split_outcome(reference_peirce_decompose, algebra, e1), algebra.name
    return got


# ----------------------------------------------------------------------
# the split on random unital algebras with an idempotent basis vector


@st.composite
def unital_with_idempotent(draw):
    """Basis b0 = 1 and b1 = e with e e = e; every other product of b1..b_{n-1} is drawn."""
    field = draw(st.sampled_from([F5, F7, Q]))
    dim = draw(st.integers(2, 4))
    if field is Q:
        scalars = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
    else:
        scalars = st.integers(0, field.p - 1)
    pairs = [(i, j) for i in range(1, dim) for j in range(1, dim) if (i, j) != (1, 1)]
    drawn = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, dim - 1), scalars),
                          max_size=2 * dim)) if pairs else []
    one = field.one
    entries = [(0, k, k, one) for k in range(dim)] + [(k, 0, k, one) for k in range(1, dim)]
    entries += [(1, 1, 1, one)] + [(i, j, k, c) for (i, j), k, c in drawn]
    algebra = Algebra("drawn", field, dim, [f"b{k}" for k in range(dim)], entries)
    return algebra, algebra.basis_element(1)


@SMALL
@given(unital_with_idempotent())
def test_random_splits_agree_with_the_reference(case):
    assert_split_agrees(*case)


def orthogonality_violator():
    """Unital 3-dim algebra with L_e R_e = R_e L_e but e (e x) != e x.

    Basis u, e, x; besides the unit, e e = e, e x = x + e and x e = x.
    Then (e y) e = e (y e) for every basis y, R_e is idempotent, and
    e (e x) = x + 2e.
    """
    entries = with_unit_row([(1, 1, 1, ONE), (1, 2, 2, ONE), (1, 2, 1, ONE), (2, 1, 2, ONE)], 3)
    return Algebra("orthviol", Q, 3, ["u", "e", "x"], entries, unit=[ONE, ZERO, ZERO])


def test_orthogonality_refusal():
    algebra = orthogonality_violator()
    e = algebra.basis_element(1)
    L, R = mult_matrix(algebra, e.coords, "left"), mult_matrix(algebra, e.coords, "right")
    assert L @ R == R @ L and R @ R == R and L @ L != L
    with pytest.raises(PreconditionError, match="not orthogonal"):
        peirce_decompose(algebra, e)
    assert assert_split_agrees(algebra, e) == ("refused", "orthogonal")


def opposite(algebra):
    """The opposite algebra, x . y read as y x, with the same unit."""
    entries = [(j, i, k, c) for i, j, k, c in algebra.structure_entries()]
    return Algebra(algebra.name + "op", algebra.field, algebra.dim, algebra.basis_labels,
                   entries, unit=algebra.unit.coords)


def at_b1(algebra):
    return algebra, algebra.basis_element(1)


def joined(left, right):
    """left (+) right, split at the sum of their second basis vectors."""
    algebra = direct_sum(left, right)
    return algebra, algebra.basis_element(1) + algebra.basis_element(left.dim + 1)


DISAGREE = ("e_i (x e_j) and (e_i x) e_j disagree; "
            "the algebra is not alternative enough to split")
LEFT = "Peirce projectors are not orthogonal: e1 (e1 x) = e1 x fails"
RIGHT = "Peirce projectors are not orthogonal: (x e1) e1 = x e1 fails"
REFUSALS = {
    "disagree": (lambda: at_b1(mixed_identity_violator()), DISAGREE),
    "left": (lambda: at_b1(orthogonality_violator()), LEFT),
    "right": (lambda: at_b1(opposite(orthogonality_violator())), RIGHT),
    "disagree before left": (lambda: joined(mixed_identity_violator(), orthogonality_violator()),
                             DISAGREE),
    "left before right": (lambda: joined(orthogonality_violator(),
                                         opposite(orthogonality_violator())), LEFT),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_the_three_refusals_keep_their_messages_and_order(case):
    """P11 = L1 R1 = R1 L1 is checked first, then L1^2 = L1, then R1^2 = R1."""
    build, message = REFUSALS[case]
    algebra, e1 = build()
    with pytest.raises(PreconditionError) as info:
        peirce_decompose(algebra, e1)
    assert str(info.value) == message
    want = "disagree" if message == DISAGREE else "orthogonal"
    assert assert_split_agrees(algebra, e1) == ("refused", want)


# ----------------------------------------------------------------------
# builtins, direct sums, triangular algebras and the lift gap


def triangular(field, n):
    """Upper triangular n x n matrices, basis E_ij (i <= j), with the idempotent E_11."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    index = {u: k for k, u in enumerate(units)}
    entries = [(index[(i, j)], index[(j, l)], index[(i, l)], field.one)
               for i, j in units for l in range(j, n)]
    algebra = Algebra(f"T{n}", field, len(units), [f"E{i + 1}{j + 1}" for i, j in units],
                      entries)
    return algebra, algebra.basis_element(0)


def _sum(left, right, second_unit):
    """left (+) right with the idempotent e (+) 0, or e (+) 1 when second_unit."""
    (a, ea), (b, _) = left, right
    tail = b.unit.coords if second_unit else [b.field.zero] * b.dim
    d = direct_sum(a, b)
    return d, d.element(list(ea.coords) + list(tail))


def _lift_gap():
    algebra = lift_gap_algebra()
    return algebra, algebra.basis_element(1)


CORES = {"M2": lambda f: matrix_algebra(f, 2), "M3": lambda f: matrix_algebra(f, 3),
         "Zorn": zorn, "CD3": lambda f: cayley_dickson_algebra(f, [f.one] * 3)}
LIFT_CASES = {f"{name}({field.label})": partial(build, field)
              for field in (Q, F5, F7) for name, build in CORES.items()}
LIFT_CASES.update({
    "M2(Q)+M2(Q)": lambda: _sum(matrix_algebra(Q, 2), matrix_algebra(Q, 2), False),
    "M2(F5)+M2(F5)": lambda: _sum(matrix_algebra(F5, 2), matrix_algebra(F5, 2), True),
    "M2(Q)+Zorn(Q)": lambda: _sum(matrix_algebra(Q, 2), zorn(Q), False),
    "Zorn(F7)+M3(F7)": lambda: _sum(zorn(F7), matrix_algebra(F7, 3), True),
    "T2(Q)": lambda: triangular(Q, 2),
    "T3(Q)": lambda: triangular(Q, 3),
    "T3(F5)": lambda: triangular(F5, 3),
    "lift-gap": _lift_gap,
})


@pytest.mark.parametrize("name", ["M3(F7)", "Zorn(Q)", "CD3(F5)", "M2(Q)+Zorn(Q)", "T3(Q)"])
def test_builtin_splits_agree_with_the_reference(name):
    algebra, e1 = LIFT_CASES[name]()
    assert assert_split_agrees(algebra, e1)[0] == "ok"


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
@pytest.mark.parametrize("name", FAMILIES)
def test_builtin_splits_over_three_fields_agree_with_the_reference(name, field):
    """Projectors equal as matrices and components with the same echelon, over Q,
    F5 and F101; CD3 and CD4 split at (1 + i)/2, whose projectors have dense columns."""
    algebra, e1 = builtin_over(name, field)
    assert assert_split_agrees(algebra, e1)[0] == "ok"


# ----------------------------------------------------------------------
# lifts


def lift_candidates(pd, i, rng):
    """Elements of the center of r_ii: zero, each basis vector, and seeded combinations."""
    f = pd.algebra.field
    zc = pd.diagonal_center(i)
    out = [pd.idempotent(i).scale(0)] + list(zc.basis)
    for _ in range(4):
        out.append(zc.combine([f.from_int(rng.randint(-3, 3)) for _ in zc.basis]))
    return out


@pytest.mark.parametrize("name", list(LIFT_CASES))
def test_lifts_agree_with_the_per_call_solve(name):
    algebra, e1 = LIFT_CASES[name]()
    pd = peirce_decompose(algebra, e1)
    rng = random.Random(name)
    for i in (1, 2):
        for x in lift_candidates(pd, i, rng):
            assert lift_central(pd, x, i) == reference_lift(pd, x, i), (name, i, x)


def test_lifts_without_regularity_include_none():
    """Where z -> z e_i is not onto the center of r_ii, both sides return None alike."""
    results = []
    for name in ("T2(Q)", "T3(Q)", "lift-gap", "M2(Q)+M2(Q)"):
        algebra, e1 = LIFT_CASES[name]()
        pd = peirce_decompose(algebra, e1)
        for i in (1, 2):
            for x in pd.diagonal_center(i).basis:
                got = lift_central(pd, x, i)
                assert got == reference_lift(pd, x, i)
                results.append(got)
    assert any(r is None for r in results) and any(r is not None for r in results)
