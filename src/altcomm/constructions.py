"""Built-in algebra families.

Three generators cover the interesting ground:

* full matrix algebras, the associative baseline;
* Zorn vector matrices, the split octonions, which are alternative but
  not associative;
* the Cayley-Dickson algebras, which walk out of associativity at step 3
  and out of alternativity at step 4.

Each generator lists its structure constants from a closed-form rule and
builds one Algebra, returning it together with a canonical nontrivial
idempotent when the construction has one, so callers need not hunt for
one by hand.  Multiplication conventions are spelled out in the
docstrings and recorded in the `comment` field of generated algebras.
"""

from __future__ import annotations

from .algebra import DIM_LIMIT, Algebra, Element


def matrix_algebra(field, n: int) -> tuple[Algebra, Element]:
    """The n x n matrix algebra with matrix-unit basis, plus the idempotent E11.

    Basis vector E_ij (labelled 1-based, "E12"; "E1,11" from n = 11, where
    plain digits would collide) is the matrix with a single one in row i,
    column j; the product rule is E_ij E_kl = delta_jk E_il.
    """
    if n < 2:
        raise ValueError("matrix algebra needs n >= 2 to have a nontrivial idempotent")
    if n * n > DIM_LIMIT:
        raise ValueError(f"M{n} has dimension {n * n}, above the limit {DIM_LIMIT}")
    one = field.one

    def idx(i, j):
        return i * n + j

    sep = "," if n > 10 else ""
    labels = [f"E{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n)]
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
    return alg, Element(alg, [one] + [field.zero] * (n * n - 1))     # E11; no basis memo filled


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
    return alg, Element(alg, [one] + [field.zero] * 7)      # e11; no basis memo filled


def scalar_algebra(field) -> Algebra:
    """The field itself as a one-dimensional algebra."""
    return Algebra(field.label, field, 1, ["1"], [(0, 0, 0, field.one)],
                   unit=[field.one])


def cd_dimension(steps: int) -> int:
    """2^steps, the dimension of CD with that many steps; above DIM_LIMIT refused unformed."""
    if steps >= DIM_LIMIT.bit_length():
        raise ValueError(f"CD{steps} has dimension 2^{steps}, above the limit {DIM_LIMIT}")
    return 1 << steps


def cayley_dickson_algebra(field, gammas) -> tuple[Algebra, Element | None]:
    """The Cayley-Dickson algebra over the field, one doubling per gamma.

    A step doubles A to pairs with (a, b)(c, d) = (ac + gamma d conj(b),
    conj(a) d + c b) and conj(a, b) = (conj(a), -b), from the field with the
    trivial conjugation.  Basis index x is a bitmask over the steps (bit s
    is the second half of step s + 1), labelled "1", "i1", "i12", and so on.
    So conj(b_x) = sigma(x) b_x, with sigma(0) = 1 and sigma(x) = -1
    otherwise, and b_x b_y = c_m(x, y) b_(x xor y) with c_0 = 1.  Writing
    x = x' + h s and y = y' + h t with h = 2^(m-1), the pair rule gives

        (a,0)(c,0) = (ac, 0)               c_m = c_(m-1)(x', y')
        (a,0)(0,d) = (0, conj(a) d)        c_m = sigma(x') c_(m-1)(x', y')
        (0,b)(c,0) = (0, c b)              c_m = c_(m-1)(y', x')
        (0,b)(0,d) = (gamma d conj(b), 0)  c_m = gamma_m sigma(x') c_(m-1)(y', x')

    Returns the algebra and, when some gamma equals one, the split
    idempotent (1 + i_s) / 2 for the first such step s; otherwise None.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("at least one doubling step is required")
    if not all(gammas):
        raise ValueError("doubling parameter gamma must be nonzero")
    steps = len(gammas)
    dim = cd_dimension(steps)

    def sigma(x, row):
        return row if x == 0 else [field.neg(c) for c in row]

    table = [[field.one]]   # table[x][y] = c_m(x, y), one doubling at a time
    for g in gammas:
        swapped = [list(col) for col in zip(*table)]
        table = ([row + sigma(x, row) for x, row in enumerate(table)]
                 + [col + sigma(x, [field.mul(g, c) for c in col])
                    for x, col in enumerate(swapped)])
    entries = [(x, y, x ^ y, c) for x, row in enumerate(table) for y, c in enumerate(row)]
    labels = ["i" + "".join(str(s + 1) for s in range(steps) if x >> s & 1) if x else "1"
              for x in range(dim)]
    gam_str = ",".join(field.fmt(g) for g in gammas)
    alg = Algebra(
        f"CD{steps}({field.label};{gam_str})", field, dim, labels,
        entries, unit=[field.one] + [field.zero] * (dim - 1),
        comment=f"Cayley-Dickson tower, gammas=({gam_str}); "
                "(a,b)(c,d) = (ac + g d conj(b), conj(a) d + c b), "
                "conj(a,b) = (conj(a), -b)")

    idem = None
    for s, g in enumerate(gammas):
        if g == field.one:
            coords = [field.zero] * dim
            coords[0] = coords[1 << s] = field.inv(field.from_int(2))
            idem = alg.element(coords)
            break
    return alg, idem
