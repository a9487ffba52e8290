"""Built-in algebra families.

Three generators cover the interesting ground:

* full matrix algebras, the associative baseline;
* Zorn vector matrices, the split octonions, which are alternative but
  not associative;
* the Cayley-Dickson doubling tower, which walks out of associativity at
  step 3 and out of alternativity at step 4.

Each generator returns the algebra together with a canonical nontrivial
idempotent when the construction has one, so callers need not hunt for
one by hand.  Multiplication conventions are spelled out in the
docstrings and recorded in the `comment` field of generated algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Element
from .linalg import Matrix


def matrix_algebra(field, n: int) -> tuple[Algebra, Element]:
    """The n x n matrix algebra with matrix-unit basis, plus the idempotent E11.

    Basis vector E_ij (labelled 1-based) is the matrix with a single one in
    row i, column j; the product rule is E_ij E_kl = delta_jk E_il.
    """
    if n < 2:
        raise ValueError("matrix algebra needs n >= 2 to have a nontrivial idempotent")
    one = field.one

    def idx(i, j):
        return i * n + j

    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                entries.append((idx(i, j), idx(j, l), idx(i, l), one))
    unit = [field.zero] * (n * n)
    for i in range(n):
        unit[idx(i, i)] = one
    alg = Algebra(f"M{n}({field.label})", field, n * n, labels, entries, unit=unit,
                  comment=f"full {n}x{n} matrix algebra; E_ij E_kl = delta_jk E_il")
    e11 = alg.basis_element(idx(0, 0))
    return alg, e11


_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def zorn(field) -> tuple[Algebra, Element]:
    """Zorn vector matrices over the field, plus the idempotent e11.

    Elements are 2x2 arrays [[a, u], [v, b]] with scalar diagonal and
    3-vectors off the diagonal, multiplied by

        [[a, u], [v, b]] [[a', u'], [v', b']] =
            [[a a' + u.v',  a u' + b' u - v x v'],
             [a' v + b v' + u x u',  b b' + v.u']]

    with . the dot product and x the cross product.  The result is the
    8-dimensional split octonion algebra: alternative, with zero divisors,
    unit e11 + e22.
    """
    one = field.one
    minus = field.neg(one)
    labels = ["e11", "e22", "u1", "u2", "u3", "v1", "v2", "v3"]
    U, V = 2, 5
    entries = [
        (0, 0, 0, one),   # e11 e11 = e11
        (1, 1, 1, one),   # e22 e22 = e22
    ]
    for t in range(3):
        entries.append((0, U + t, U + t, one))   # e11 u = u
        entries.append((U + t, 1, U + t, one))   # u e22 = u
        entries.append((1, V + t, V + t, one))   # e22 v = v
        entries.append((V + t, 0, V + t, one))   # v e11 = v
        entries.append((U + t, V + t, 0, one))   # u_i v_i = e11
        entries.append((V + t, U + t, 1, one))   # v_i u_i = e22
    for (i, j, k), s in _EPS.items():
        sign = one if s == 1 else minus
        entries.append((U + i, U + j, V + k, sign))           # u_i u_j = eps v_k
        entries.append((V + i, V + j, U + k, field.neg(sign)))  # v_i v_j = -eps u_k
    unit = [one, one] + [field.zero] * 6
    alg = Algebra(f"Zorn({field.label})", field, 8, labels, entries, unit=unit,
                  comment="Zorn vector matrices [[a,u],[v,b]]; "
                          "product uses dot and cross products as documented")
    return alg, alg.basis_element(0)


def scalar_algebra(field) -> Algebra:
    """The field itself as a one-dimensional algebra."""
    return Algebra(field.label, field, 1, ["1"], [(0, 0, 0, field.one)],
                   unit=[field.one])


@dataclass(frozen=True)
class InvolutiveAlgebra:
    """An algebra packaged with a conjugation (the data doubling consumes)."""

    algebra: Algebra
    conjugation: Matrix


def ground_involutive(field) -> InvolutiveAlgebra:
    """The base of the doubling tower: the field with trivial conjugation."""
    return InvolutiveAlgebra(scalar_algebra(field), Matrix.identity(field, 1))


def cayley_dickson(base: InvolutiveAlgebra, gamma) -> InvolutiveAlgebra:
    """One doubling step applied to an involutive algebra.

    On pairs, the product is (a, b)(c, d) = (ac + gamma d conj(b),
    conj(a) d + c b) and the new conjugation is (a, b) -> (conj(a), -b).
    The base must be unital, and gamma must be a nonzero scalar.
    """
    alg, conj = base.algebra, base.conjugation
    field = alg.field
    if not gamma:
        raise ValueError("doubling parameter gamma must be nonzero")
    if alg.unit is None:
        raise ValueError("doubling needs a unital base algebra")
    unit_coords = list(alg.unit.coords)
    if conj.matvec(unit_coords) != unit_coords:
        raise ValueError("conjugation must fix the unit")
    n = alg.dim
    conj_cols = [conj.column(i) for i in range(n)]

    entries = []

    def emit(i, j, coords, offset_k, scale=None):
        for k, c in enumerate(coords):
            if not c:
                continue
            if scale is not None:
                c = field.mul(scale, c)
            entries.append((i, j, offset_k + k, c))

    for i in range(n):
        bi = alg.basis_coords(i)
        ci = conj_cols[i]
        for j in range(n):
            bj = alg.basis_coords(j)
            emit(i, j, alg.basis_product(i, j), 0)                  # (bi,0)(bj,0)
            emit(i, n + j, alg.mul_coords(ci, bj), n)               # (bi,0)(0,bj)
            emit(n + i, j, alg.basis_product(j, i), n)              # (0,bi)(bj,0)
            emit(n + i, n + j, alg.mul_coords(bj, ci), 0, gamma)    # (0,bi)(0,bj)

    # the new half needs labels distinct from every base label; tagging with
    # the base dimension keeps repeated doublings collision-free
    labels = list(alg.basis_labels)
    labels += [f"{lab}~{n}" for lab in alg.basis_labels]
    unit = unit_coords + [field.zero] * n
    doubled = Algebra(f"{alg.name}[dbl]", field, 2 * n, labels, entries, unit=unit)

    z = field.zero
    rows = []
    for r in range(n):
        rows.append([conj.data[r][c] for c in range(n)] + [z] * n)
    for r in range(n):
        rows.append([z] * n + [field.neg(field.one) if r == c else z for c in range(n)])
    return InvolutiveAlgebra(doubled, Matrix(field, rows, cols=2 * n))


def cayley_dickson_algebra(field, gammas) -> tuple[Algebra, Element | None]:
    """The doubling tower over the ground field, one step per gamma.

    Basis labels encode which doubling units enter each product: index m
    (as a bitmask over steps) is labelled "1", "i1", "i12", and so on.
    Returns the algebra and, when some gamma equals one, the split
    idempotent (1 + i_s) / 2 for the first such step s; otherwise None.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("at least one doubling step is required")
    for g in gammas:
        if not g:
            raise ValueError("doubling parameter gamma must be nonzero")
    tower = ground_involutive(field)
    for g in gammas:
        tower = cayley_dickson(tower, g)
    steps = len(gammas)
    dim = 1 << steps

    def label(m):
        if m == 0:
            return "1"
        return "i" + "".join(str(s + 1) for s in range(steps) if m & (1 << s))

    labels = [label(m) for m in range(dim)]
    gam_str = ",".join(field.fmt(g) for g in gammas)
    alg = Algebra(
        f"CD{steps}({field.label};{gam_str})", field, dim, labels,
        tower.algebra.structure_entries(), unit=list(tower.algebra.unit.coords),
        comment=f"Cayley-Dickson tower, gammas=({gam_str}); "
                "(a,b)(c,d) = (ac + g d conj(b), conj(a) d + c b), "
                "conj(a,b) = (conj(a), -b)")

    idem = None
    for s, g in enumerate(gammas):
        if g == field.one:
            half = field.inv(field.from_int(2))
            coords = [field.zero] * dim
            coords[0] = half
            coords[1 << s] = half
            idem = alg.element(coords)
            break
    return alg, idem
