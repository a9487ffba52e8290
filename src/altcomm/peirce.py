"""Idempotent geometry: Peirce decompositions, centers, nuclei and the
regularity conditions that make central lifting work.

A nontrivial idempotent e1 in a unital algebra splits the space into the
four components e_i (x e_j).  Everything this module claims about those
components is computed, not assumed.  The unit is verified, so
L_e2 = I - L_e1, R_e2 = I - R_e1 and the projectors P_ij = L_i R_j sum
to I.  All four e_i (x e_j) = (e_i x) e_j iff L_e1 R_e1 = R_e1 L_e1, and
then the P_ij are orthogonal iff L_e1 and R_e1 are idempotent
(L_e1 = P11 + P12, R_e1 = P11 + P21).  The component multiplication
rules are verified relation by relation, with witnesses on failure.

Both cost what the structure table holds, not n^2.  The split reads
L_e1, R_e1 and L_e2 off the table as sparse-column Matrix objects
(Algebra.mult_columns), at an integral multiple of the idempotents so that
integral input stays in ints, checks and composes them there with the
Matrix operations and builds each component's echelon from its
projector's columns.  The four projectors are kept stacked, in KEYS
order, as one Matrix, the linear map x -> (P11 x, P12 x, P21 x, P22 x):
it splits a vector with matvec and a map's columns with @.  The relation
check indexes each right-hand component by coordinate and forms only the
basis products whose factors' supports meet a nonzero table entry.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, groupby, product

from .algebra import Algebra, Element, Memo, Subspace, commutator, find_unit
from .errors import BudgetExceededError, PreconditionError
from .linalg import Matrix, common_kernel, express, tagged_echelon

DEFAULT_BUDGET = 10 ** 6

# The Peirce components (i, j), in the order their projectors are stacked.
KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))


def verify_idempotent(algebra: Algebra, e: Element) -> bool:
    """True iff e * e = e and e is neither 0 nor the unit (algebra must be unital)."""
    unit = find_unit(algebra)
    if unit is None:
        raise PreconditionError("idempotent checks need a unital algebra")
    if e.algebra is not algebra:
        raise ValueError("idempotent from a different algebra")
    return (tuple(algebra.mul_coords(e.coords, e.coords)) == e.coords
            and not e.is_zero() and e != unit)


class PeirceData(Memo):
    """The four projectors and components attached to an idempotent pair.

    Memoises (Memo.cached) the derived data that gets reused heavily: the
    centers of the diagonal components, the center recomputed from the
    split, the results of lemmas L1 and L2, which do not involve the map,
    and the lemma suite's lift verdicts, one per direction lifted (see
    lemmas._lift_failure).  Each is built on first use, so
    peirce_decompose pays for none of them.  The regularity check
    (hypothesis) is memoised on the algebra, keyed by e1, so
    hypothesis_check and every split at e1 share one solve.

    The projectors are one 4n x n sparse-column Matrix, stacked: block p
    of n rows is the projector onto the component KEYS[p], so stacked is
    the map x -> (P11 x, P12 x, P21 x, P22 x).  split(x) is its matvec
    on x's coordinates, cut into the four parts by parts, and project
    reads one part of it.  The lemma suite splits a map's columns with
    the same matrix (stacked @ phi) and cuts its matvecs with parts, so
    the 4n layout is known here only.

    The memo is sound because nothing here is mutated after construction:
    not the idempotents, the projectors, the components nor the algebra.
    The spans that answer central lifts are memoised on the algebra
    (express_central), keyed by the idempotent they read.
    """

    def __init__(self, algebra, e1, e2, stacked, components):
        self.algebra = algebra
        self.e1 = e1
        self.e2 = e2
        self.stacked = stacked          # 4n x n Matrix, blocks in KEYS order
        self.components = components    # {(i, j): Subspace}, in KEYS order
        self._memo = {}

    def idempotent(self, i: int) -> Element:
        return self.e1 if i == 1 else self.e2

    def project(self, i: int, j: int, x: Element) -> Element:
        """P_ij x, read off split(x)."""
        return self.split(x)[(i, j)]

    def split(self, x: Element) -> dict:
        """{(i, j): P_ij x}: the stacked projectors applied to x's coordinates (Matrix.matvec)."""
        return self.parts(self.stacked.matvec(x.coords))

    def parts(self, coords) -> dict:
        """{KEYS[p]: block p of a length-4n vector}."""
        n = self.algebra.dim
        return {key: Element(self.algebra, coords[p * n:p * n + n]) for p, key in enumerate(KEYS)}

    def dims(self) -> tuple[int, int, int, int]:
        c = self.components
        return (c[(1, 1)].dim, c[(1, 2)].dim, c[(2, 1)].dim, c[(2, 2)].dim)

    def hypothesis(self):
        """hypothesis_check's result for this idempotent pair, from the algebra's memo.

        e1 was verified by the split, so it is not verified again here.
        """
        return _regularity(self.algebra, self.e1)

    def diagonal_center(self, i: int) -> Subspace:
        """The center of the (i, i) component as a subalgebra.

        The commutant of the component within itself, summed from the
        structure table (_commutant).  Capped by e_i, the component's unit;
        see linalg.echelon_of_blocks.
        """
        return self.cached(("diagonal_center", i), self._component_center, i)

    def _component_center(self, i: int) -> Subspace:
        comp = self.components[(i, i)]
        kernel = _commutant(self.algebra, comp.basis, comp.basis,
                            known=[_over(comp, self.idempotent(i))])
        return Subspace.from_spanning(self.algebra, [comp.combine(gamma) for gamma in kernel])


def peirce_decompose(algebra: Algebra, e1: Element) -> PeirceData:
    """Split the algebra along a verified nontrivial idempotent.

    The split is read off d e1 and d e2, with d the field's
    integral_multiple of both idempotents' coordinates (one d, since the
    unit may have denominators), so over Q with integral structure
    constants every entry composed is an int; d = 1 on F_p and for
    integral idempotents, and then nothing is scaled.  L = L_{d e1} and
    R = R_{d e1} are read off the structure table as sparse columns, and
    the three checks run on them in this order: L R = R L (d^2 P11), then
    L^2 = d L, then R^2 = d R (Matrix @).  The projectors follow at scale
    d^2: d^2 P12 = d L - d^2 P11, d^2 P21 = d R - d^2 P11 and
    d^2 P22 = d L_{d e2} - d^2 P21, with L_{d e2} read off the table too
    (the unit is verified, so L_e2 = I - L_e1).  Each component's echelon
    is built from its scaled projector's columns, which span the same
    space: no Element is made per column, and no dense column reaches the
    elimination.  The scaled projectors are then stacked in KEYS order
    into one 4n x n Matrix, divided by d^2 once (scale).

    Raises PreconditionError if the algebra is not unital, e1 is not a
    nontrivial idempotent, the two bracketings e_i (x e_j) and
    (e_i x) e_j disagree (which flags a non-alternative input), or
    L_e1 or R_e1 is not idempotent (the projectors are not orthogonal).
    """
    unit = find_unit(algebra)
    if unit is None:
        raise PreconditionError("Peirce decomposition needs a unital algebra")
    if not verify_idempotent(algebra, e1):
        raise PreconditionError("e1 is not a nontrivial idempotent", witness=e1)
    e2 = unit - e1
    f, n = algebra.field, algebra.dim
    d, scaled = f.integral_multiple(e1.coords + e2.coords)
    L1, R1 = algebra.mult_columns(scaled[:n], "left"), algebra.mult_columns(scaled[:n], "right")
    P11 = L1 @ R1
    if P11 != R1 @ L1:
        raise PreconditionError(
            "e_i (x e_j) and (e_i x) e_j disagree; "
            "the algebra is not alternative enough to split")
    dL1, dR1 = L1.scale(d), R1.scale(d)
    for M, dM, rule in ((L1, dL1, "e1 (e1 x) = e1 x"), (R1, dR1, "(x e1) e1 = x e1")):
        if M @ M != dM:
            raise PreconditionError(f"Peirce projectors are not orthogonal: {rule} fails")
    P21 = dR1 - P11
    blocks = [P11.columns, (dL1 - P11).columns, P21.columns,
              (algebra.mult_columns(scaled[n:], "left").scale(d) - P21).columns]
    components = {key: Subspace.from_spanning(algebra, cols) for key, cols in zip(KEYS, blocks)}
    stacked = Matrix._of(f, 4 * n, [
        {p * n + r: a for p, cols in enumerate(blocks) for r, a in cols[u].items()}
        for u in range(n)])
    return PeirceData(algebra, e1, e2, stacked.scale(f.inv(f.mul(d, d))), components)


def _by_coordinate(vectors) -> dict:
    """u -> [(s, x)] for each nonzero coordinate (u, x) of each vector s, s ascending."""
    at = defaultdict(list)
    for s, xs in enumerate(vectors):
        for u, x in xs:
            at[u].append((s, x))
    return at


def check_peirce_relations(pd: PeirceData) -> list[dict]:
    """Verify the multiplication rules between components, with witnesses.

    Checks, for all index choices: (i) r_ij r_jl inside r_il, (ii)
    r_ij r_ij inside r_ji, (iii) r_ij r_kl = 0 when j != k and
    (i, j) != (k, l), and (iv) squares vanish in the off-diagonal
    components, via x^2 = 0 on basis vectors plus the linearized form
    xy + yx = 0 on basis pairs.

    Each component is indexed by coordinate.  A left basis vector x
    reaches, through the coordinates v where its table rows b_u b_. and a
    right-hand component's support meet, only the basis vectors y whose
    supports meet a nonzero table entry with its own; each such x y
    is summed from the table (Algebra.product_sum), y ascending, and
    reduced against the target's echelon.  Every other product is zero and
    lies in every target, so the first failing (x, y) of an entry, and its
    witness, are those of the loop over all pairs; (iv) forms each square
    and anticommutator whose factors meet the table.  Elements are
    multiplied only to report the first failure of an entry.
    """
    algebra = pd.algebra
    f = algebra.field
    comp = pd.components
    zero = Subspace(algebra, [])
    nonzero = {key: [[(u, x) for u, x in enumerate(el.coords) if x] for el in sub.basis]
               for key, sub in comp.items()}
    at = {key: _by_coordinate(rows) for key, rows in nonzero.items()}

    def reach(xs, b):
        """{t: the terms (x_u y_v, (u, v)) of x y_t} for the basis vectors y_t of b
        that x meets in the table."""
        terms, mul = defaultdict(list), f.mul
        for u, x in xs:
            for v in algebra._rows[u].keys() & at[b].keys():
                for t, y in at[b][v]:
                    terms[t].append((mul(x, y), (u, v)))
        return terms

    def products(name, a, b, target):
        """The entry for name, failing at the first basis product x y of a, b outside target."""
        for x, xs in zip(comp[a].basis, nonzero[a]):
            terms = reach(xs, b)
            for t in sorted(terms):
                if target.reduce(algebra.product_sum(terms[t])):
                    y = comp[b].basis[t]
                    return {"check": name, "pass": False, "witness": {
                        "x": x.to_strings(), "y": y.to_strings(), "product": (x * y).to_strings()}}
        return {"check": name, "pass": True}

    first = {(i, j, l): products(f"(i) r{i}{j}.r{j}{l} in r{i}{l}", (i, j), (j, l), comp[(i, l)])
             for i, j, l in product((1, 2), repeat=3)}
    report = list(first.values())
    # (ii) at i = j is (i) at i = j = l: the same products against the same target.
    report += [{**first[(i, i, i)], "check": f"(ii) r{i}{i}.r{i}{i} in r{i}{i}"} if i == j else
               products(f"(ii) r{i}{j}.r{i}{j} in r{j}{i}", (i, j), (i, j), comp[(j, i)])
               for i, j in product((1, 2), repeat=2)]
    report += [products(f"(iii) r{i}{j}.r{k}{l} = 0", (i, j), (k, l), zero)
               for i, j, k, l in product((1, 2), repeat=4) if j != k and (i, j) != (k, l)]

    def squares(i, j):
        """The entry (iv) for r_ij, failing at the first nonzero square x^2, then
        anticommutator xy + yx, of its basis vectors."""
        name, basis = f"(iv) squares vanish in r{i}{j}", comp[(i, j)].basis
        terms = [reach(xs, (i, j)) for xs in nonzero[(i, j)]]
        for s, x in enumerate(basis):
            if s in terms[s] and any(algebra.product_sum(terms[s][s]).values()):
                return {"check": name, "pass": False,
                        "witness": {"x": x.to_strings(), "square": (x * x).to_strings()}}
        for s, t in combinations(range(len(basis)), 2):
            both = terms[s].get(t, []) + terms[t].get(s, [])
            if both and any(algebra.product_sum(both).values()):
                x, y = basis[s], basis[t]
                return {"check": name, "pass": False, "witness": {
                    "x": x.to_strings(), "y": y.to_strings(),
                    "anticommutator": (x * y + y * x).to_strings()}}
        return {"check": name, "pass": True}

    report += [squares(1, 2), squares(2, 1)]
    return report


# ----------------------------------------------------------------------
# center and nucleus


def center(algebra: Algebra) -> Subspace:
    """The commutant {x : [x, A] = 0}, the elements commuting with the whole algebra; cached.

    On an alternative algebra over Q or F_p (p >= 5) this is the paper's
    center Z(R), the nuclear elements that commute with everything: there
    [xy, z] - x[y, z] - [x, z]y = 3(x, y, z), so a commuting z is nuclear
    once 3 is invertible.  On a non-alternative input it can be larger:
    comm3 (basis 1, x, y with x x = y, x y = y x = x, y y = 0) has a
    commutant of dimension 3 and a nucleus of dimension 1.

    Every centrality question reads this one subspace: is_central asks its
    contains, and spans built from its basis (express_central) answer every
    existence question: central lifts, the oracle and the lemma suite.
    Its rows are summed from the structure table (_commutant), so no
    bracket table is built.  Capped by the verified unit, if there is one;
    see linalg.echelon_of_blocks.
    """
    return algebra.cached("center", _whole_commutant, algebra)


def _whole_commutant(algebra: Algebra) -> Subspace:
    basis = [algebra.basis_element(k) for k in range(algebra.dim)]
    unit = find_unit(algebra)
    known = () if unit is None else [unit.coords]
    return Subspace(
        algebra, [Element(algebra, v) for v in _commutant(algebra, basis, basis, known)])


def express_central(algebra: Algebra, key: tuple, words, x, n: int | None = None) -> list | None:
    """x's coefficients over the generators w(z_c), or None when x is not in their span.

    The generators run over the words w, and within each word over the
    central basis z_c; a word maps a central basis element to a dense or
    sparse vector of length n (default dim).  The coefficients are
    linalg.express's free-variables-zero solution, so a generator that
    depends on earlier ones gets coefficient zero.  The tagged echelon of
    the generators is built on the first call with a key and memoised on
    the algebra under that key, a tuple, so the key names the words and
    the coordinates of every element they read.
    """
    Z, n = center(algebra), n or algebra.dim
    echelon = algebra.cached(key, _words_echelon, algebra.field, n, words, Z.basis)
    return express(algebra.field, n, len(words) * Z.dim, echelon, x)


def _words_echelon(field, n: int, words, basis) -> dict:
    """The tagged echelon of the generators w(z), over the words w and then the basis z."""
    return tagged_echelon(field, n, [w(z) for w in words for z in basis])


def _over(sub: Subspace, x: Element) -> list:
    """The coefficients of x over sub's basis, read at its pivots.

    A canonical (from_spanning) basis vector is one at its own pivot and
    zero at the others, so the coefficient of basis vector c is x's
    coordinate at pivot c.  The combination is checked against x, so a
    basis of another form, or an x outside sub, raises ValueError.
    """
    alpha = [x.coords[pc] for pc in sub._echelon]
    if sub.combine(alpha) != x:
        raise ValueError("the element is not read off the subspace's pivots")
    return alpha


def _commutant(algebra: Algebra, span, against, known=()):
    """Kernel of gamma -> [sum_s gamma_s span_s, t] for t in against, as coefficients over span.

    Row (t, k), entry s is coordinate k of [span_s, t]: the sum, over the
    nonzero coordinates y_v of t and the coordinates x_{s,u} of span_s, of
    x_{s,u} y_v ((b_u b_v)_k - (b_v b_u)_k), read off the structure table
    (Algebra._cols[v] lists the products b_u b_v, Algebra._rows[v] the
    products b_v b_u).  The span is indexed by coordinate once, so a table
    product whose u lies outside every span_s's support is skipped.  Only
    rows that some product reaches are formed, as {s: entry} maps; no
    Element and no bracket table is built, and the kernel vectors are
    coefficients over span.  Blocks are formed one t at a time, so none
    past the cap that known sets (linalg.echelon_of_blocks) is built.
    """
    f, m = algebra.field, len(span)
    # coordinate u -> [(s, coordinate u of span_s)]
    at = _by_coordinate([(u, x) for u, x in enumerate(el.coords) if x] for el in span)

    def blocks():
        for t in against:
            rows = defaultdict(dict)
            for v, y in enumerate(t.coords):
                if not y:
                    continue
                # b_u b_v with weight y, then b_v b_u with weight -y
                for products, w in ((algebra._cols[v], y), (algebra._rows[v], f.neg(y))):
                    for u, terms in products.items():
                        for s, x in at.get(u, ()):
                            xw = f.mul(x, w)
                            for k, c in terms:
                                c = f.mul(xw, c)
                                row = rows[k]
                                row[s] = f.add(row[s], c) if s in row else c
            yield rows.values()

    return common_kernel(f, m, blocks(), known)


def is_central(algebra: Algebra, x: Element) -> bool:
    """Whether x lies in center(algebra), the commutant {x : [x, A] = 0}."""
    return center(algebra).contains(x)


def nucleus(algebra: Algebra) -> Subspace:
    """Elements r with (r, x, y) = (x, r, y) = (x, y, r) = 0 for all x, y; cached.

    By trilinearity this is the common kernel of r -> A(s, t, r),
    A(s, r, t) and A(r, s, t) over all basis pairs (s, t), with A the
    cached associator tensor.  Only rows that hold a nonzero associator
    coordinate are formed, as {column: entry} maps, so an associative
    algebra costs one empty scan.  Capped by the verified unit, if there
    is one (linalg.echelon_of_blocks); the rows are formed as the
    elimination asks for them (_nucleus_blocks), so where the first family
    alone reaches the cap, as on CD4(Q) and CD5(Q), the other two are
    never built.
    """
    return algebra.cached("nucleus", _associator_kernel, algebra)


def _associator_kernel(algebra: Algebra) -> Subspace:
    unit = find_unit(algebra)
    kernel = common_kernel(algebra.field, algebra.dim,
                           _nucleus_blocks(algebra.associator_tensor()),
                           known=() if unit is None else [unit.coords])
    return Subspace(algebra, [Element(algebra, v) for v in kernel])


def _nucleus_blocks(A: dict):
    """The nucleus system's rows, family 0 first, one basis pair (s, t) at a time.

    Row (s, t, k) of each family is coordinate k as r runs over the basis.
    The tensor's keys are sorted, so family 0's rows (b_s, b_t, r) are
    complete once the keys (s, t, .) have passed and are yielded there;
    families 1 and 2 index by other slots and are built whole, only if the
    elimination reads past family 0.
    """
    for _, group in groupby(A.items(), key=lambda item: item[0][:2]):
        rows = defaultdict(dict)
        for (_, _, c), vec in group:
            for k, val in vec.items():
                rows[k][c] = val
        yield rows.values()
    families = ({}, {})
    for (a, b, c), vec in A.items():
        for k, val in vec.items():
            families[0].setdefault((a, c, k), {})[b] = val   # (b_s, r, b_t)
            families[1].setdefault((b, c, k), {})[a] = val   # (r, b_s, b_t)
    yield from (rows.values() for rows in families)


def center_via_peirce(pd: PeirceData) -> Subspace:
    """The center recomputed from the idempotent splitting.

    Takes the diagonal part r11 + r22 and keeps what commutes with both
    off-diagonal components.  Requires the regularity condition; without
    it the characterization is not valid, so this raises.  The result is
    the only Subspace built (see _diagonal_commutant).
    """
    (ok1, _), (ok2, _) = pd.hypothesis()
    if not (ok1 and ok2):
        raise PreconditionError(
            "the Peirce characterization of the center needs the regularity "
            "condition for both idempotents")
    return pd.cached("center_via_peirce", _diagonal_commutant, pd)


def _diagonal_commutant(pd: PeirceData) -> Subspace:
    """The x in r11 + r22 that commute with r12 and r21, as a canonical span.

    The kernel is solved as coefficients over the r11 basis followed by the
    r22 basis (the sum is direct), with each block summed from the
    structure table (_commutant), and each kernel vector is combined over
    the two components apart, so no span of r11 + r22 is eliminated.
    """
    comp = pd.components
    r11, r22, d = comp[(1, 1)], comp[(2, 2)], comp[(1, 1)].dim
    unit = _over(r11, pd.e1) + _over(r22, pd.e2)  # 1 = e1 + e2, central
    kernel = _commutant(pd.algebra, r11.basis + r22.basis, comp[(1, 2)].basis + comp[(2, 1)].basis,
                        known=[unit])
    return Subspace.from_spanning(pd.algebra,
                                  [r11.combine(g[:d]) + r22.combine(g[d:]) for g in kernel])


# ----------------------------------------------------------------------
# regularity and lifting


def hypothesis_check(algebra: Algebra, e1: Element):
    """The regularity condition: only 0 multiplies the algebra into each annihilator.

    For each of e1 and e2 = 1 - e1, computes the kernel
    {x : (x . b_k) . e_i = 0 for every basis vector b_k} and reports
    ((ok1, witness1), (ok2, witness2)), where the witness is a nonzero
    kernel element when the check fails: the first vector of the kernel's
    canonical basis.  The two refusals (a non-unital algebra, e1 not a
    nontrivial idempotent) are raised on every call; the kernels are then
    solved once per algebra and idempotent and memoised on the algebra
    under ("hypothesis", e1.coords), which PeirceData.hypothesis reads too.
    """
    unit = find_unit(algebra)
    if unit is None:
        raise PreconditionError("the regularity check needs a unital algebra")
    if not verify_idempotent(algebra, e1):
        raise PreconditionError("e1 is not a nontrivial idempotent", witness=e1)
    return _regularity(algebra, e1)


def _regularity(algebra: Algebra, e1: Element):
    """The memoised regularity verdicts at a verified nontrivial idempotent e1."""
    return algebra.cached(("hypothesis", e1.coords), _solve_regularity, algebra, e1)


def _solve_regularity(algebra: Algebra, e1: Element):
    """hypothesis_check's two kernels, one block per b_k (see _regularity_block).

    The system is read off the structure table and the columns of R_{d e},
    themselves read off the table as {row: entry} maps
    (Algebra.mult_columns), with d the field's integral_multiple of e1 and
    e2.  Each row is d times that of R_e, so the echelon, the kernel and
    its first vector are the same, and over Q they are reached in ints
    when the structure constants are integral.
    """
    f, n = algebra.field, algebra.dim
    _, scaled = f.integral_multiple(e1.coords + (find_unit(algebra) - e1).coords)
    results = []
    for e in (scaled[:n], scaled[n:]):
        images = algebra.mult_columns(e, "right").columns
        # Blocks are built only until the rank is full.
        kernel = common_kernel(f, n, (_regularity_block(algebra, images, k) for k in range(n)))
        results.append((False, Element(algebra, kernel[0])) if kernel else (True, None))
    return tuple(results)


def _regularity_block(algebra: Algebra, images, k: int):
    """Block k of the regularity system: row l, column u is coordinate l of (b_u b_k) e.

    images[m] holds the nonzero coordinates {l: entry} of b_m e, and (b_u b_k) e =
    sum_m C[u, k, m] (b_m e) is summed over the table's products b_u b_k;
    only rows that some product reaches are formed, as {u: entry} maps.
    """
    f = algebra.field
    rows = defaultdict(dict)
    for u, terms in algebra._cols[k].items():
        for m, c in terms:
            for l, r in images[m].items():
                row = rows[l]
                row[u] = f.add(row[u], f.mul(c, r)) if u in row else f.mul(c, r)
    return rows.values()


def lift_central(pd: PeirceData, x: Element, i: int) -> Element | None:
    """A central z with z . e_i = x, or None when no such lift exists.

    x must lie in the (i, i) component and commute with it.  Both
    preconditions are verified by one membership test, in the component's
    center, which is built inside the component; only on a failure is the
    component asked which of the two errors to raise.  x is expressed once
    over the z_c . e_i (express_central, one word z -> z . e_i keyed by
    e_i), giving the free-variables-zero combination of the central basis
    z_c, linear in x.
    """
    if i not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    if not pd.diagonal_center(i).contains(x):
        comp = pd.components[(i, i)]
        if not comp.contains(x):
            raise PreconditionError("element to lift is not in the diagonal component",
                                    witness=x)
        t = next(t for t in comp.basis if not commutator(x, t).is_zero())
        raise PreconditionError(
            "element to lift is not central in its component", witness=(x, t))
    e = pd.idempotent(i)
    alpha = express_central(pd.algebra, ("lift", e.coords), [lambda z: (z * e).coords], x.coords)
    return None if alpha is None else center(pd.algebra).combine(alpha)


# ----------------------------------------------------------------------
# exhaustive primeness scan


def scan_guard(algebra: Algebra, budget: int, scan: str) -> tuple[int, int]:
    """(p, dim) of an algebra that an exhaustive scan may enumerate.

    Both scans call it before _modscan, and so numpy, is imported: it
    raises ValueError unless the field is finite, and BudgetExceededError
    when p^dim exceeds the budget.  Each scan's int64 bound follows in
    _modscan.
    """
    field = algebra.field
    if field.kind != "prime":
        raise ValueError(f"the exhaustive {scan} needs a finite field")
    p, n = field.p, algebra.dim
    if p ** n > budget:
        raise BudgetExceededError(f"p^dim = {p ** n} exceeds the enumeration budget {budget}")
    return p, n


def prime_check_exhaustive(algebra: Algebra, budget: int = DEFAULT_BUDGET):
    """Search for a pair of nonzero a, b with (a x) b = 0 for every x.

    Finite fields only.  The outer scan runs over projective
    representatives of a (the condition is homogeneous in a); for each,
    the inner condition is linear in b, so it is a kernel computation,
    not an enumeration.  Returns (True, None) when no pair exists, or
    (False, (a, b)) with the first pair in enumeration order, re-checked
    in exact arithmetic.  Raises BudgetExceededError when p^dim exceeds the
    budget, and ValueError when dim p^2 reaches 2^63 or p reaches the
    inverse-table cap 2^20.

    Two cheap rank tests discard candidates before the (dim^2, dim) stack
    T(a) is formed, and keep the order of the rest.  For unital algebras a
    candidate with invertible left multiplication cannot work (taking
    x = 1 forces a b = 0).  Then a fixed (2 dim, dim^2) compression
    S(a) = R T(a) is ranked; the compression only gives a lower bound on
    rank, so a with rank S(a) = dim are skipped and the others are ranked
    on T(a) itself.  L_a is ranked a chunk of candidates at a time; S(a)
    and T(a) rank the survivors in order, in batches of 2048.  Each entry
    of L_a, S(a) and T(a) is a sum of dim products of residues, below
    dim p^2; elimination runs in the narrowest signed word holding
    [-(dim - 1)(p - 1)^2, p - 1], int8 while (dim - 1)(p - 1)^2 <= 128.
    """
    p, n = scan_guard(algebra, budget, "primeness scan")
    from . import _modscan

    _modscan.check_prime_scan_bound(p, n)
    coords = _modscan.primeness_scan(_modscan.structure_tensor(algebra), p,
                                     find_unit(algebra) is not None)
    if coords is None:
        return True, None
    a = algebra.element([int(v) for v in coords])
    blocks = (algebra.mult_columns(algebra.mul_coords(a.coords, algebra.basis_coords(k)),
                                   "left").data for k in range(n))
    b = Element(algebra, common_kernel(algebra.field, n, blocks)[0])
    for k in range(n):
        prod = algebra.mul_coords(a.coords, algebra.basis_coords(k))
        if any(algebra.mul_coords(prod, b.coords)):
            raise AssertionError("inconsistent primeness witness")
    return False, (a, b)
