"""Additive maps that commute with their argument, and their normal form.

The main result this module makes executable: when the algebra splits
along a nontrivial idempotent satisfying the regularity condition, every
commuting additive map phi decomposes as phi(x) = z x + xi(x) with z
central and xi taking values in the center.  decompose() builds the pair
constructively from the Peirce projections of phi at the idempotents;
decompose_oracle() finds z by solving a linear system instead, so the two
routes check each other's z.  Both end in the same check of the pair
(phi, z), memoised on phi, so a map taken by both routes to one z is
checked once.  The commuting checks bracket phi modulo the center: a
central summand brackets to zero, so only phi's part outside it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Element, Memo, commutator, read_json, write_json
from .errors import DecompositionError, HypothesisError, NotCommutingError
from .linalg import Matrix
from .peirce import (DEFAULT_BUDGET, PeirceData, center, express_central, is_central,
                     lift_central, scan_guard)


class LinearMap(Memo):
    """A linear self-map stored as a Matrix: column j holds the nonzero
    coordinates {r: entry} of the image of b_j.

    The theorem needs three kinds: L_z (left_multiplication), a map read
    from a file (map_from_dict) and a seeded random one (random_map_parts);
    sums and differences of maps give the rest.

    Like its Matrix, a map is never mutated: + and - build new maps.  That
    is what lets it memoise (Memo.cached) its commuting and anti-commuting
    verdicts under ("verdict", anti) (_failing_pair), so a map checked by
    decompose is not checked again by the lemma gate, and, under
    ("standard", z.coords), the pair (xi, failure) for xi = phi - L_z
    (_standard_part), which decompose, the oracle and check_decomposition
    read.
    """

    __slots__ = ("algebra", "matrix", "_memo")

    def __init__(self, algebra: Algebra, matrix: Matrix):
        if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
            raise ValueError("map matrix must be square of the algebra dimension")
        if matrix.field != algebra.field:
            raise ValueError("map matrix over the wrong field")
        self.algebra = algebra
        self.matrix = matrix
        self._memo = {}

    @classmethod
    def left_multiplication(cls, algebra: Algebra, z: Element) -> "LinearMap":
        """L_z, its columns read off the table (Algebra.mult_columns)."""
        if z.algebra is not algebra:
            raise ValueError("element from a different algebra")
        return cls(algebra, algebra.mult_columns(z.coords, "left"))

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise ValueError("element from a different algebra")
        return Element(self.algebra, self.matrix.matvec(x.coords))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if other.algebra is not self.algebra:
            raise ValueError("maps on different algebras")
        return LinearMap(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if other.algebra is not self.algebra:
            raise ValueError("maps on different algebras")
        return LinearMap(self.algebra, self.matrix - other.matrix)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearMap) and other.algebra is self.algebra
                and other.matrix == self.matrix)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LinearMap(dim={self.algebra.dim})"


@dataclass
class Decomposition:
    """Certified output of decompose(): phi = L_z + xi, with the lifts that built z."""

    z: Element
    xi: LinearMap
    verified: bool
    z1: Element | None = None
    z2: Element | None = None

    def to_dict(self) -> dict:
        def ser(el):
            return None if el is None else el.to_strings()
        return {
            "z": ser(self.z),
            "z1": ser(self.z1),
            "z2": ser(self.z2),
            "xi": map_to_dict(self.xi),
            "verified": self.verified,
        }


def is_commuting(algebra: Algebra, phi: LinearMap):
    """Whether [phi(x), x] = 0 identically, via the polarized basis conditions.

    Returns (True, None) or (False, (b_i, b_j)) naming the first basis pair
    (i <= j, row-major) whose pair sum is nonzero: [phi(b_i), b_j] +
    [phi(b_j), b_i] for i < j and [phi(b_i), b_i] on the diagonal.  These
    sums are exactly the coefficients of x -> [phi(x), x] at x_i x_j and
    x_i^2, so the test is exact in every characteristic.  All pairs are
    summed in one pass (see _failing_pair), so there is no early exit; the
    witness is still the first failing pair in row-major order.  The pass
    brackets only phi's part outside the center, which it builds if the
    algebra does not hold it yet (solving for the unit too when the file
    gave none): a central summand of phi(b_i) brackets to zero, so on a
    map L_z + xi with z central the center-valued xi costs nothing.  The
    verdict is memoised on phi, so decompose and the lemma gate share one
    pass.
    """
    return _failing_pair(algebra, phi, anti=False)


def is_anti_commuting(algebra: Algebra, phi: LinearMap):
    """Whether [phi(x), y] = -[x, phi(y)] for all x, y, checked on basis pairs.

    The failing pair, if any, is the first (b_i, b_j) in row-major order
    with [phi(b_i), b_j] + [b_i, phi(b_j)] != 0.  That sum changes sign when
    i and j swap and vanishes at i = j, so the first failing pair has
    i < j; like is_commuting, every pair is summed in one pass, over phi's
    columns reduced modulo the center.
    """
    return _failing_pair(algebra, phi, anti=True)


def _failing_pair(algebra: Algebra, phi: LinearMap, anti: bool):
    """The first basis pair i <= j whose polarized bracket sum is nonzero, in one pass.

    Column i of phi's matrix is first reduced against center(algebra)'s
    echelon.  The center is the commutant, so [z, b_t] = 0 for every
    central z: the remainder has the same bracket with every b_t as
    phi(b_i), and every pair sum, the verdict and the witness are those of
    phi itself, in every characteristic.  Each nonzero entry v at row s of
    the reduced column i meets each nonzero commutator
    [b_s, b_t] once, and v [b_s, b_t] is added to the sum of the unordered
    pair (min(i, t), max(i, t)).  For the commuting check that sum is
    [phi(b_i), b_j] + [phi(b_j), b_i], with the diagonal i = j counted
    once: exactly the coefficient of x_i x_j (or x_i^2) in x -> [phi(x), x],
    so the check is exact in every characteristic.  For the anti-commuting
    check it is [phi(b_i), b_j] - [phi(b_j), b_i] for i < j: the term is
    negated when i > t and skipped when i = t.  The sums are kept in one
    flat map at key (i n + j) n + k, so the smallest key with a nonzero sum
    is the first failing pair in row-major order.
    Returns (True, None) or (False, (b_i, b_j)), computed once per map and
    anti, and raises ValueError for a map on another algebra.
    """
    if phi.algebra is not algebra:
        raise ValueError("map on a different algebra")
    return phi.cached(("verdict", anti), _pair_sums, algebra, phi, anti)


def _pair_sums(algebra: Algebra, phi: LinearMap, anti: bool):
    f, n = algebra.field, algebra.dim
    add, mul, neg, zero = f.add, f.mul, f.neg, f.zero
    brackets = algebra.commutator_rows()
    Z = center(algebra)
    acc = {}
    for i, column in enumerate(phi.matrix.columns):
        for s, v in Z.reduce(column).items():
            w = neg(v) if anti else v
            for t, vec in brackets[s]:
                if t > i:
                    base, x = (i * n + t) * n, v
                elif t < i:
                    base, x = (t * n + i) * n, w
                elif anti:
                    continue
                else:
                    base, x = (i * n + i) * n, v
                for k, c in vec:
                    key = base + k
                    acc[key] = add(acc.get(key, zero), mul(x, c))
    failing = [key for key, x in acc.items() if x]
    if not failing:
        return True, None
    i, j = divmod(min(failing) // n, n)
    return False, (algebra.basis_element(i), algebra.basis_element(j))


def check_decomposition(algebra: Algebra, phi: LinearMap, z: Element,
                        xi: LinearMap) -> bool:
    """Verification that phi(x) = z x + xi(x) with z central and xi center-valued.

    The one verification path: xi must equal phi - L_z, and that
    difference must pass the range check, both read from phi's memoised
    standard-form check (_standard_part), which decompose and the oracle
    read too.  A map, z or xi on another algebra is refused with
    ValueError before the memo is read.
    """
    if any(x.algebra is not algebra for x in (phi, z, xi)):
        raise ValueError("map or element from a different algebra")
    standard, failure = _standard_part(algebra, phi, z)
    return failure is None and xi.matrix == standard.matrix


def _standard_part(algebra: Algebra, phi: LinearMap, z: Element):
    """The pair (xi, failure) for xi = phi - L_z, memoised on phi per z.

    failure is _range_failure(algebra, z, xi): None when z is central and
    xi center-valued, so that phi = L_z + xi is the standard form.  The
    check is a pure function of the immutable map and z, so decompose,
    decompose_oracle and check_decomposition share one check of each
    (phi, z), under the key ("standard", z.coords).  A map on another
    algebra is refused with ValueError by the subtraction, and nothing is
    memoised.
    """
    return phi.cached(("standard", z.coords), _standard_check, algebra, phi, z)


def _standard_check(algebra: Algebra, phi: LinearMap, z: Element):
    xi = phi - LinearMap.left_multiplication(algebra, z)
    return xi, _range_failure(algebra, z, xi)


def _range_failure(algebra: Algebra, z: Element, xi: LinearMap):
    """The first failed range check of z and xi as (message, witness), or None.

    In order: the first non-central residual xi(b_k), column k of xi's
    matrix, then a non-central z.  Each residual is reduced as the sparse
    column xi stores against center(algebra)'s echelon; only the witness
    column is spelled out as a dense Element.
    """
    Z = center(algebra)
    for k, column in enumerate(xi.matrix.columns):
        if Z.reduce(column):
            return "the residual map is not center-valued", Element(algebra, xi.matrix.column(k))
    if not is_central(algebra, z):
        return "the combined multiplier is not central", z
    return None


def decompose(pd: PeirceData, phi: LinearMap) -> Decomposition:
    """Split a commuting map as phi = L_z + xi with z central, xi center-valued.

    The construction: project phi(e1) and phi(e2) onto the opposite
    diagonal components, lift those projections to central elements z1 and
    z2, and combine with the same-side projections.  Raises when phi is
    not commuting, when the regularity condition fails, or when a lift
    that the theory promises does not exist (each error carries the
    offending element).

    The commuting check brackets phi's columns reduced modulo the center,
    which the lifts read too.  The final check of (phi, z) is phi's
    memoised standard-form check (_standard_part), which the oracle reads
    as well when it finds the same z.
    """
    algebra = pd.algebra
    ok, witness = is_commuting(algebra, phi)
    if not ok:
        raise NotCommutingError(
            "the map does not commute with its argument", witness=witness)
    (ok1, w1), (ok2, w2) = pd.hypothesis()
    if not ok1:
        raise HypothesisError("the regularity condition fails at e1", witness=w1)
    if not ok2:
        raise HypothesisError("the regularity condition fails at e2", witness=w2)

    f1, f2 = pd.split(phi(pd.e1)), pd.split(phi(pd.e2))
    z1 = _lift_or_fail(pd, f1[(2, 2)], 2, "the (2,2) projection of phi(e1)")
    z2 = _lift_or_fail(pd, f2[(1, 1)], 1, "the (1,1) projection of phi(e2)")
    z = f1[(1, 1)] + f2[(2, 2)] - (z1 * pd.e1 + z2 * pd.e2)
    xi, failure = _standard_part(algebra, phi, z)     # phi = L_z + xi by construction
    if failure is not None:
        raise DecompositionError(failure[0], witness=failure[1])
    return Decomposition(z=z, xi=xi, verified=True, z1=z1, z2=z2)


def _lift_or_fail(pd: PeirceData, x: Element, i: int, what: str) -> Element:
    z = lift_central(pd, x, i)
    if z is None:
        raise DecompositionError(f"no central lift exists for {what}", witness=x)
    return z


def decompose_oracle(algebra: Algebra, phi: LinearMap) -> Decomposition | None:
    """Find phi = L_z + xi by linear feasibility, independent of the construction.

    The maps L_z + xi with z central and xi center-valued form the standard
    space S, spanned by the center-valued maps b_k -> z_c (all other basis
    vectors to 0), for each k, then the L_{z_c}, over the central basis z_c.
    phi, its columns laid end to end so that entry (r, k) sits at End(A)
    coordinate k n + r, is expressed over S (express_central, cached under
    ("standard",)), and the last dim Z coefficients give z.  The
    center-valued words come first, so a z_c whose L_{z_c} is center-valued
    modulo the others gets coefficient zero.  z is then checked by phi's
    memoised standard-form check (_standard_part): when decompose has
    already found the same z, its check and its xi are reused, and the z
    itself is still solved for here.  Returns a verified Decomposition or
    None when phi is not in S (z1, z2 are left unset: this route never
    builds lifts).
    """
    if phi.algebra is not algebra:
        raise ValueError("map on a different algebra")
    Z = center(algebra)
    if not Z.basis:
        return None
    n = algebra.dim

    def flat(columns):
        return {k * n + r: x for k, col in enumerate(columns) for r, x in col.items()}

    words = [lambda z, k=k: {k * n + r: x for r, x in enumerate(z.coords) if x} for k in range(n)]
    words.append(lambda z: flat(algebra.mult_columns(z.coords, "left").columns))
    alpha = express_central(algebra, ("standard",), words, flat(phi.matrix.columns), n * n)
    if alpha is None:
        return None
    z = Z.combine(alpha[-Z.dim:])
    xi, failure = _standard_part(algebra, phi, z)
    if failure is not None:
        return None
    return Decomposition(z=z, xi=xi, verified=True)


def random_map_parts(algebra: Algebra, seed: int):
    """A random map phi = L_z + xi in certified form, plus the z and xi used.

    z is an integer combination of the central basis and xi sends each
    basis vector to an integer combination of the central basis, with
    coefficients drawn uniformly from -3..3 by a local random.Random(seed).
    Same seed, same map.
    """
    import random

    rng = random.Random(seed)
    f = algebra.field
    add, mul, n = f.add, f.mul, algebra.dim
    supports = [[(k, c) for k, c in enumerate(el.coords) if c] for el in center(algebra).basis]

    def combo() -> dict:
        """The nonzero coordinates {k: c} of one draw, summed over the central basis supports."""
        acc = {}
        for terms in supports:
            a = f.from_int(rng.randint(-3, 3))
            if a:
                for k, c in terms:
                    acc[k] = add(acc[k], mul(a, c)) if k in acc else mul(a, c)
        return {k: c for k, c in acc.items() if c}

    z_terms = combo()
    z = Element(algebra, [z_terms.get(k, f.zero) for k in range(n)])
    xi = LinearMap(algebra, Matrix._of(f, n, [combo() for _ in range(n)]))
    phi = LinearMap.left_multiplication(algebra, z) + xi
    return phi, z, xi


def random_commuting_map(algebra: Algebra, seed: int) -> LinearMap:
    """A seeded random commuting map (see random_map_parts for the recipe)."""
    return random_map_parts(algebra, seed)[0]


def exhaustive_commuting_check(algebra: Algebra, phi: LinearMap,
                               budget: int = DEFAULT_BUDGET):
    """Check [phi(x), x] = 0 on every element of a finite-field algebra.

    Complements is_commuting, which trusts the polarization argument; this
    one enumerates every x.  Each [phi(x), x] is evaluated exactly, as the
    value at x of one quadratic form read off phi and the structure
    constants, split into low and high coordinates (see _modscan); no
    polarization is used.  Returns (True, None) or (False, x) with the
    first violating element in enumeration order, re-checked in exact
    arithmetic.  Raises BudgetExceededError when p^dim exceeds the budget,
    and ValueError when dim^2 p^3 reaches 2^63: the scan's int64 tables
    (Q(u), Q(v) and the cross term's V H) stay below dim^2 p^3.  They are
    reduced mod p first, so every chunk value stays below (r + 2) p^2 for
    r low coordinates and is held in the narrowest integer type that fits.
    """
    if phi.algebra is not algebra:
        raise ValueError("map on a different algebra")
    p, n = scan_guard(algebra, budget, "commutation check")
    from . import _modscan

    _modscan.check_commutator_bound(p, n)
    coords = _modscan.commutation_scan(_modscan.structure_tensor(algebra), phi.matrix.data, p)
    if coords is None:
        return True, None
    x = algebra.element([int(v) for v in coords])
    if commutator(phi(x), x).is_zero():
        raise AssertionError("inconsistent commutation witness")
    return False, x


def map_to_dict(phi: LinearMap) -> dict:
    return {
        "dim": phi.algebra.dim,
        "matrix": [[phi.algebra.field.fmt(v) for v in row] for row in phi.matrix.data],
    }


def map_from_dict(algebra: Algebra, d: dict) -> LinearMap:
    if not isinstance(d, dict):
        raise ValueError("a map must be a JSON object with dim and matrix")
    if type(dim := d.get("dim")) is not int or dim != algebra.dim:     # no bool, no 4.0
        raise ValueError(f"bad dimension {dim!r}: the algebra has dimension {algebra.dim}")
    raw = d.get("matrix")
    if not isinstance(raw, list) or len(raw) != algebra.dim:
        raise ValueError("map matrix must have one row per dimension")
    f = algebra.field
    data = []
    for row in raw:
        if not isinstance(row, list) or len(row) != algebra.dim:
            raise ValueError("map matrix rows must have one entry per dimension")
        data.append([f.parse(str(v)) for v in row])
    return LinearMap(algebra, Matrix(f, data, cols=algebra.dim))


def save_map(phi: LinearMap, path) -> None:
    write_json(path, map_to_dict(phi))


def load_map(algebra: Algebra, path) -> LinearMap:
    return map_from_dict(algebra, read_json(path))
