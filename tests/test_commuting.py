"""Commuting maps: detection, decomposition, the solver oracle, serialization."""

import json
import random
import re
from fractions import Fraction

import pytest

from altcomm import (Algebra, Decomposition, DecompositionError, HypothesisError, LinearMap,
                     Matrix, NotCommutingError, PrimeField, RationalField, cayley_dickson_algebra,
                     center, check_decomposition, commutator,
                     decompose, decompose_oracle, direct_sum, exhaustive_commuting_check,
                     find_unit, is_anti_commuting, is_central, is_commuting, load_map,
                     map_from_dict, map_to_dict, peirce_decompose, random_commuting_map,
                     matrix_algebra, random_map_parts, save_map, scalar_algebra, zorn)
from altcomm import commuting, peirce
from altcomm.commuting import _range_failure

from test_associator import BUILTINS, columns_matrix, dense_solve, scalar_map, sparse_matrix
from test_commutator import maps_for
from test_peirce import comm3, upper_triangular_algebra
from test_peirce_table import rebased

Q = RationalField()
F5 = PrimeField(5)
ZERO = Fraction(0)
ONE = Fraction(1)


def trace_map(algebra):
    """x -> tr(x) 1 on a matrix algebra given in the E_ij basis order."""
    import math
    n = math.isqrt(algebra.dim)
    assert n * n == algebra.dim
    unit = find_unit(algebra)
    cols = []
    for i in range(n):
        for j in range(n):
            cols.append(list(unit.coords) if i == j
                        else [ZERO] * algebra.dim)
    return LinearMap(algebra, columns_matrix(Q, cols))


def transpose_map(algebra):
    import math
    n = math.isqrt(algebra.dim)
    cols = []
    for i in range(n):
        for j in range(n):
            c = [ZERO] * algebra.dim
            c[j * n + i] = ONE
            cols.append(c)
    return LinearMap(algebra, columns_matrix(algebra.field, cols))


# ----------------------------------------------------------------------
# LinearMap basics


def test_linear_map_arithmetic(m2q):
    algebra, e11 = m2q
    ident = scalar_map(algebra)
    zero = scalar_map(algebra, 0)
    assert ident + zero == ident
    assert ident - ident == zero
    assert ident(e11) == e11
    left = LinearMap.left_multiplication(algebra, e11)
    e12 = algebra.basis_element(1)
    assert left(e12) == e11 * e12


def test_linear_map_validation(m2q, zornq):
    algebra, e11 = m2q
    other, _ = zornq
    with pytest.raises(ValueError):
        LinearMap(algebra, Matrix(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        LinearMap(algebra, Matrix(F5, [[int(r == c) for c in range(4)] for r in range(4)]))
    with pytest.raises(ValueError):
        scalar_map(algebra) + scalar_map(other)
    with pytest.raises(ValueError):
        scalar_map(algebra)(find_unit(other))


# ----------------------------------------------------------------------
# detection


def test_identity_and_trace_commute(m2q):
    algebra, _ = m2q
    for phi in (scalar_map(algebra), trace_map(algebra),
                scalar_map(algebra, 0)):
        ok, witness = is_commuting(algebra, phi)
        assert ok and witness is None


def test_transpose_does_not_commute(m2q):
    algebra, _ = m2q
    ok, (x, y) = is_commuting(algebra, transpose_map(algebra))
    assert not ok
    assert x.to_strings() == ["1", "0", "0", "0"]
    assert y.to_strings() == ["0", "1", "0", "0"]
    # the witness is genuine: phi([x, y]) differs from [phi(x), y]
    phi = transpose_map(algebra)
    assert phi(x) * y - y * phi(x) != phi(x * y - y * x)


def test_anti_commuting_detection(m2q):
    algebra, _ = m2q
    zero = scalar_map(algebra, 0)
    ok, witness = is_anti_commuting(algebra, zero)
    assert ok and witness is None
    ok, witness = is_anti_commuting(algebra, scalar_map(algebra))
    assert not ok and witness is not None


def test_a_map_on_another_algebra_is_refused():
    """Two separately built M2(Q): equal tables, but a map carries its own algebra's brackets."""
    from altcomm import matrix_algebra, peirce_decompose, run_all

    a, e1 = matrix_algebra(Q, 2)
    b, _ = matrix_algebra(Q, 2)
    phi = transpose_map(a)
    for check in (is_commuting, is_anti_commuting):
        with pytest.raises(ValueError, match="map on a different algebra"):
            check(b, phi)
    with pytest.raises(ValueError, match="map on a different algebra"):
        decompose(peirce_decompose(b, b.element(e1.coords)), scalar_map(a))
    with pytest.raises(ValueError, match="map on a different algebra"):
        run_all(peirce_decompose(b, b.element(e1.coords)), scalar_map(a))
    assert phi._memo == {}, "a refused check memoises nothing"
    assert is_commuting(a, phi)[0] is False and is_anti_commuting(a, phi)[0] is False


def test_each_verdict_is_computed_once_per_map(m3q, monkeypatch):
    """is_commuting and is_anti_commuting memoise on the map, keyed by anti; a sum is a new map."""
    import altcomm.commuting as commuting

    algebra, _ = m3q
    calls = []
    pair_sums = commuting._pair_sums

    def counted(alg, phi, anti):
        calls.append(anti)
        return pair_sums(alg, phi, anti)

    monkeypatch.setattr(commuting, "_pair_sums", counted)
    phi = transpose_map(algebra)
    first = is_commuting(algebra, phi)
    assert is_commuting(algebra, phi) is first and calls == [False]
    anti = is_anti_commuting(algebra, phi)
    assert is_anti_commuting(algebra, phi) is anti and calls == [False, True]
    assert first == pair_sums(algebra, phi, False) and anti == pair_sums(algebra, phi, True)
    psi = phi + scalar_map(algebra, 0)
    assert is_commuting(algebra, psi) == first and calls == [False, True, False]


def test_left_multiplication_by_central_commutes(zornq):
    algebra, _ = zornq
    z = find_unit(algebra).scale(Fraction(7, 2))
    ok, _ = is_commuting(algebra, LinearMap.left_multiplication(algebra, z))
    assert ok


# ----------------------------------------------------------------------
# frozen decompositions on the 2x2 matrix algebra


def test_decompose_identity(m2q_pd):
    pd = m2q_pd
    algebra = pd.algebra
    dec = decompose(pd, scalar_map(algebra))
    assert dec.verified
    assert dec.z == find_unit(algebra)
    assert dec.z.to_strings() == ["1", "0", "0", "1"]
    assert dec.z1.is_zero() and dec.z2.is_zero()
    assert dec.xi == scalar_map(algebra, 0)


def test_decompose_trace(m2q_pd):
    pd = m2q_pd
    algebra = pd.algebra
    tr = trace_map(algebra)
    dec = decompose(pd, tr)
    assert dec.verified
    assert dec.z.is_zero()
    assert dec.z1 == find_unit(algebra)
    assert dec.z2 == find_unit(algebra)
    assert dec.xi == tr


def test_decompose_identity_plus_trace(m2q_pd):
    pd = m2q_pd
    algebra = pd.algebra
    tr = trace_map(algebra)
    phi = scalar_map(algebra) + scalar_map(algebra) + tr
    dec = decompose(pd, phi)
    assert dec.verified
    assert dec.z.to_strings() == ["2", "0", "0", "2"]
    assert dec.xi == tr
    # reconstruction by hand
    for k in range(algebra.dim):
        b = algebra.basis_element(k)
        assert phi(b) == dec.z * b + dec.xi(b)


def test_decompose_rejects_non_commuting(m2q_pd):
    with pytest.raises(NotCommutingError) as exc:
        decompose(m2q_pd, transpose_map(m2q_pd.algebra))
    x, y = exc.value.witness
    assert x.to_strings() == ["1", "0", "0", "0"]
    assert y.to_strings() == ["0", "1", "0", "0"]


def test_decompose_refuses_regularity_failing_only_at_e2():
    algebra = upper_triangular_algebra()
    pd = peirce_decompose(algebra, algebra.basis_element(2))
    with pytest.raises(HypothesisError, match="fails at e2") as exc:
        decompose(pd, scalar_map(algebra))
    assert exc.value.witness == algebra.basis_element(1)


def test_decompose_reports_the_first_residual_that_is_not_central(m3q_pd, monkeypatch):
    """A wrong lift surfaces as the first basis vector whose residual xi(b_k) is not central."""
    import altcomm.peirce

    pd = m3q_pd
    algebra = pd.algebra
    phi = random_commuting_map(algebra, 1)
    monkeypatch.setattr(altcomm.peirce, "lift_central", lambda pd, x, i: x)
    with pytest.raises(DecompositionError, match="the residual map is not center-valued") as exc:
        decompose(pd, phi)

    z1, z2 = pd.project(2, 2, phi(pd.e1)), pd.project(1, 1, phi(pd.e2))
    z = pd.project(1, 1, phi(pd.e1)) + pd.project(2, 2, phi(pd.e2)) - (z1 * pd.e1 + z2 * pd.e2)
    assert not is_central(algebra, z)       # the residual is reported before z
    xi = phi - LinearMap.left_multiplication(algebra, z)
    residuals = [xi(algebra.basis_element(k)) for k in range(algebra.dim)]
    failing = [r for r in residuals if not is_central(algebra, r)]
    assert len(set(failing)) > 1
    assert exc.value.witness == failing[0]
    assert exc.value.witness.to_strings() == ["0", "0", "0", "0", "1", "0", "0", "0", "1"]


def test_oracle_rejects_non_commuting(m2q):
    algebra, _ = m2q
    assert decompose_oracle(algebra, transpose_map(algebra)) is None


def test_check_decomposition(m2q):
    algebra, e11 = m2q
    unit = find_unit(algebra)
    tr = trace_map(algebra)
    phi = LinearMap.left_multiplication(algebra, unit.scale(2)) + tr
    assert check_decomposition(algebra, phi, unit.scale(2), tr)
    assert not check_decomposition(algebra, phi, unit, tr)  # wrong z
    assert not check_decomposition(algebra, phi, e11.scale(2), tr)  # non-central z
    assert not check_decomposition(
        algebra, phi, unit.scale(2), scalar_map(algebra))  # non-central range


# ----------------------------------------------------------------------
# random generators and oracle agreement


def test_random_map_is_deterministic(zornq):
    algebra, _ = zornq
    a = random_commuting_map(algebra, seed=11)
    b = random_commuting_map(algebra, seed=11)
    c = random_commuting_map(algebra, seed=12)
    assert a == b
    assert a != c


def test_random_parts_are_central(m3q):
    algebra, _ = m3q
    for seed in range(6):
        phi, z, xi = random_map_parts(algebra, seed)
        assert is_central(algebra, z)
        for k in range(algebra.dim):
            assert is_central(algebra, xi(algebra.basis_element(k)))
        assert phi == LinearMap.left_multiplication(algebra, z) + xi
        ok, _ = is_commuting(algebra, phi)
        assert ok


def test_construction_agrees_with_oracle(m2q_pd, m3q_pd, zornq_pd, m2f5_pd, zornf5_pd):
    """Two independent routes to z and xi must describe the same map."""
    for pd in (m2q_pd, m3q_pd, zornq_pd, m2f5_pd, zornf5_pd):
        algebra = pd.algebra
        for seed in range(8):
            phi = random_commuting_map(algebra, seed)
            built = decompose(pd, phi)
            solved = decompose_oracle(algebra, phi)
            assert built.verified
            assert solved is not None and solved.verified
            # z may differ by a central summand only when xi absorbs it;
            # both must reconstruct phi exactly
            for k in range(algebra.dim):
                b = algebra.basis_element(k)
                assert built.z * b + built.xi(b) == phi(b)
                assert solved.z * b + solved.xi(b) == phi(b)
            assert is_central(algebra, built.z - solved.z)


def test_decomposition_to_dict(m2q_pd):
    dec = decompose(m2q_pd, scalar_map(m2q_pd.algebra))
    d = dec.to_dict()
    assert d["verified"] is True
    assert d["z"] == ["1", "0", "0", "1"]
    assert d["z1"] == ["0", "0", "0", "0"]
    assert len(d["xi"]["matrix"]) == 4


# ----------------------------------------------------------------------
# exhaustive check over a finite field


def test_exhaustive_agrees_with_bilinear_check(m2f5):
    algebra, e11 = m2f5
    maps = [random_commuting_map(algebra, s) for s in range(4)]
    maps += [scalar_map(algebra), transpose_map(algebra),
             LinearMap.left_multiplication(algebra, e11)]
    for phi in maps:
        fast, _ = is_commuting(algebra, phi)
        full, full_w = exhaustive_commuting_check(algebra, phi)
        assert fast == full
        if not full:
            assert not (phi(full_w) * full_w - full_w * phi(full_w)).is_zero()


def test_exhaustive_budget_and_field_guards(zornf5, zornq):
    algebra, _ = zornf5
    from altcomm import BudgetExceededError
    with pytest.raises(BudgetExceededError):
        exhaustive_commuting_check(algebra, scalar_map(algebra), budget=100)
    rational, _ = zornq
    with pytest.raises(ValueError):
        exhaustive_commuting_check(rational, scalar_map(rational))


# ----------------------------------------------------------------------
# serialization


def test_map_round_trip(tmp_path, zornq):
    algebra, _ = zornq
    phi = random_commuting_map(algebra, seed=3)
    path = tmp_path / "phi.json"
    save_map(phi, path)
    assert load_map(algebra, path) == phi
    d = json.loads(path.read_text())
    assert d["dim"] == 8
    assert all(isinstance(v, str) for row in d["matrix"] for v in row)


def test_map_dict_round_trip(m2f5):
    algebra, _ = m2f5
    phi = random_commuting_map(algebra, seed=9)
    assert map_from_dict(algebra, map_to_dict(phi)) == phi


def test_map_from_dict_validation(m2q):
    algebra, _ = m2q
    with pytest.raises(ValueError):
        map_from_dict(algebra, {"dim": 3, "matrix": [["1"] * 3] * 3})
    with pytest.raises(ValueError):
        map_from_dict(algebra, {"dim": 4, "matrix": [["1"] * 4] * 3})
    with pytest.raises(ValueError):
        map_from_dict(algebra, {"dim": 4})
    # True == 1 and 4.0 == 4, yet neither is a dimension, as in Algebra.from_dict
    for target, dim in ((scalar_algebra(Q), True), (algebra, 4.0)):
        n = target.dim
        with pytest.raises(ValueError, match=re.escape(f"bad dimension {dim!r}")):
            map_from_dict(target, {"dim": dim, "matrix": [["1"] * n] * n})


def test_exhaustive_check_refuses_int64_overflow_at_the_boundary(monkeypatch):
    from altcomm import _modscan, scalar_algebra

    limit = 2 ** 63
    _modscan.check_commutator_bound(2 ** 21 - 1, 1)          # n^2 p^3 just below 2^63
    _modscan.check_commutator_bound(2 ** 20, 2)              # 2^62
    for p, n in ((2 ** 21, 1), (2 ** 20, 3)):                # exactly 2^63; 9 * 2^60
        assert n * n * p ** 3 >= limit
        with pytest.raises(ValueError, match="2\\^63"):
            _modscan.check_commutator_bound(p, n)

    def no_enumeration(p, n, chunk=65536):
        return iter(())
    monkeypatch.setattr(_modscan, "element_chunks", no_enumeration)
    below, above = 2097143, 2097169                          # the primes around 2^21
    algebra = scalar_algebra(PrimeField(below))
    phi = scalar_map(algebra)
    assert exhaustive_commuting_check(algebra, phi, budget=below) == (True, None)
    algebra = scalar_algebra(PrimeField(above))
    with pytest.raises(ValueError, match="overflow"):
        exhaustive_commuting_check(algebra, scalar_map(algebra), budget=above)
    _modscan.check_commutator_bound(5, 8)                    # Zorn(F5), the scan workload


# ----------------------------------------------------------------------
# the oracle system: one cached span S against the dense remainder system


def reference_decompose_oracle(algebra, phi):
    """decompose_oracle with every remainder row kept, the zero rows at pivots included."""
    Z = center(algebra)
    if not Z.basis:
        return None

    def dense(rem):
        return [rem.get(r, algebra.field.zero) for r in range(algebra.dim)]

    rows, rhs = [], []
    for k in range(algebra.dim):
        cols = [dense(Z.reduce(algebra.mul_coords(z.coords, algebra.basis_coords(k))))
                for z in Z.basis]
        rows.extend(zip(*cols))
        rhs.extend(dense(Z.reduce(phi.matrix.column(k))))
    alpha = dense_solve(algebra.field, rows, len(Z.basis), rhs)
    if alpha is None:
        return None
    z = Z.combine(alpha)
    xi = phi - LinearMap.left_multiplication(algebra, z)
    return Decomposition(z=z, xi=xi, verified=True) if check_decomposition(
        algebra, phi, z, xi) else None


ORACLE_CASES = {name: BUILTINS[name] for name in
                ("M2(Q)", "Zorn(F5)", "CD3(Q)", "M2(Q)+Zorn(Q)", "CD3(F5)+M2(F5)")}
ORACLE_CASES["Q+Q"] = lambda: direct_sum(scalar_algebra(Q), scalar_algebra(Q))   # all central


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_oracle_drops_the_pivot_rows_and_agrees_with_the_full_system(name, monkeypatch):
    """S is built once per algebra, from d (n + 1) sparse generators with no zero entry."""
    algebra = ORACLE_CASES[name]()
    n, dim_z = algebra.dim, center(algebra).dim
    handed, solves = [], []
    tagged_echelon = peirce.tagged_echelon

    def recorded(field, size, vectors):
        handed.append((size, vectors))
        return tagged_echelon(field, size, vectors)

    monkeypatch.setattr(peirce, "tagged_echelon", recorded)
    monkeypatch.setattr(Matrix, "solve", lambda self, rhs: solves.append(self))
    maps = [phi for seed in range(3) for phi in maps_for(algebra, seed)]
    for phi in maps:
        want = reference_decompose_oracle(algebra, phi)
        got = decompose_oracle(algebra, phi)
        assert (got and got.to_dict()) == (want and want.to_dict())
    assert len(maps) == 9 and solves == [] and len(handed) == 1
    size, generators = handed[0]
    assert size == n * n and len(generators) == dim_z * (n + 1)
    assert all(isinstance(v, dict) and v and all(v.values()) for v in generators)


def dense_random_map_parts(algebra, seed):
    """The reference recipe: each combination formed densely through
    Subspace.combine, then filtered to its nonzero coordinates."""
    import random

    rng = random.Random(seed)
    f, n, Z = algebra.field, algebra.dim, center(algebra)

    def combo():
        return Z.combine([f.from_int(rng.randint(-3, 3)) for _ in Z.basis])

    z = combo()
    xi_cols = [{r: a for r, a in enumerate(combo().coords) if a} for _ in range(n)]
    xi = LinearMap(algebra, sparse_matrix(f, n, xi_cols))
    return LinearMap.left_multiplication(algebra, z) + xi, z, xi


def _m2q_twice():
    m2q = matrix_algebra(Q, 2)[0]
    return direct_sum(m2q, m2q)


def _m2q_twice_rebased():
    """M2(Q)+M2(Q) in the basis c0 = b0 + b4, c_k = b_k: the center's two basis
    vectors share coordinates 0 and 3, so a draw can cancel there."""
    algebra = _m2q_twice()
    T = [[Q.one if i == j else Q.zero for j in range(8)] for i in range(8)]
    T[0][4] = Q.one
    return rebased(algebra, find_unit(algebra), T)[0]


@pytest.mark.parametrize("build, dim_z", [(lambda: matrix_algebra(Q, 4)[0], 1),
                                          (lambda: zorn(F5)[0], 1), (_m2q_twice, 2),
                                          (_m2q_twice_rebased, 2)],
                         ids=["M4(Q)", "Zorn(F5)", "M2(Q)+M2(Q)", "M2(Q)+M2(Q) rebased"])
def test_random_map_parts_draws_the_dense_recipe_map(build, dim_z):
    """Same seed, same map, entry types and serialized text included; on M2(Q)+M2(Q)
    each draw sums two central supports, and rebased those supports overlap."""
    algebra = build()
    assert center(algebra).dim == dim_z
    for seed in range(20):
        got, want = random_map_parts(algebra, seed), dense_random_map_parts(algebra, seed)
        assert got == want
        assert [type(c) for c in got[1].coords] == [type(c) for c in want[1].coords]
        assert all(a for col in got[2].matrix.columns for a in col.values())
        assert json.dumps(map_to_dict(got[0])) == json.dumps(map_to_dict(want[0]))


def dense_range_failure(algebra, z, xi):
    """_range_failure as a loop over dense residual Elements, each asked is_central."""
    for k in range(algebra.dim):
        xk = algebra.element(xi.matrix.column(k))
        if not is_central(algebra, xk):
            return "the residual map is not center-valued", xk
    if not is_central(algebra, z):
        return "the combined multiplier is not central", z
    return None


@pytest.mark.parametrize("build", [lambda: matrix_algebra(Q, 3)[0], lambda: zorn(F5)[0],
                                   _m2q_twice], ids=["M3(Q)", "Zorn(F5)", "M2(Q)+M2(Q)"])
def test_the_sparse_range_check_names_the_dense_loop_witness(build):
    """Column k of a center-valued xi made non-central, then a later column too, and
    a non-central z: the message and witness are the dense loop's."""
    algebra = build()
    f, n = algebra.field, algebra.dim
    _, z, xi = random_map_parts(algebra, 7)
    assert _range_failure(algebra, z, xi) is None is dense_range_failure(algebra, z, xi)
    b1 = algebra.basis_element(1)
    assert not is_central(algebra, b1)
    for k in (0, n // 2, n - 1):
        for later in sorted({k, n - 1}):
            cols = [dict(col) for col in xi.matrix.columns]
            for j in {k, later}:
                cols[j][1] = f.add(cols[j].get(1, f.zero), f.one)
            bad = LinearMap(algebra, sparse_matrix(f, n, cols))
            got = _range_failure(algebra, z, bad)
            assert got == dense_range_failure(algebra, z, bad)
            assert got[0] == "the residual map is not center-valued"
            assert got[1].coords == tuple(bad.matrix.column(k))
    got = _range_failure(algebra, b1, xi)
    assert got == dense_range_failure(algebra, b1, xi)
    assert got == ("the combined multiplier is not central", b1)


# ----------------------------------------------------------------------
# the commuting pass brackets phi modulo the center


def strictly_upper_triangular(n):
    """N_n(Q), strictly upper triangular n x n matrices: not unital, center spanned by E_1n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    entries = [(index[i, j], index[j, l], index[i, l], ONE)
               for i, j in pairs for l in range(j + 1, n)]
    return Algebra(f"N{n}(Q)", Q, len(pairs), [f"E{i + 1}{j + 1}" for i, j in pairs], entries)


def pairwise_verdict(algebra, phi, anti):
    """The first pair i <= j, row-major, whose bracket sum is nonzero, summed pair by
    pair with commutator: [phi(b_i), b_j] + [phi(b_j), b_i] ([phi(b_i), b_i] once on
    the diagonal), or [phi(b_i), b_j] + [b_i, phi(b_j)] when anti."""
    b, n = algebra.basis_element, algebra.dim
    images = [phi(b(i)) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = commutator(images[i], b(j))
            if anti:
                s = s + commutator(b(i), images[j])
            elif j != i:
                s = s + commutator(images[j], b(i))
            if not s.is_zero():
                return False, (b(i), b(j))
    return True, None


def sparse_map(algebra, rng, entries=3):
    """A map with a few seeded nonzero entries."""
    f, n = algebra.field, algebra.dim
    columns = [{} for _ in range(n)]
    for _ in range(entries):
        columns[rng.randrange(n)][rng.randrange(n)] = f.from_int(rng.choice([-2, -1, 1, 3]))
    return LinearMap(algebra, sparse_matrix(f, n, columns))


VERDICT_ALGEBRAS = {
    "M3(Q)": lambda: matrix_algebra(Q, 3)[0],
    "Zorn(F5)": lambda: zorn(F5)[0],
    "CD3(Q)": lambda: cayley_dickson_algebra(Q, [Q.one, Q.from_int(-1), Q.one])[0],
    "M2(Q)+M2(Q)": _m2q_twice,
    "comm3": comm3,
    "N4(Q)": lambda: strictly_upper_triangular(4),
}


def _by_coords(verdict):
    ok, pair = verdict
    return ok, None if pair is None else tuple(x.coords for x in pair)


@pytest.mark.parametrize("name", list(VERDICT_ALGEBRAS))
def test_verdicts_modulo_the_center_are_the_pairwise_verdicts(name, monkeypatch):
    """Seeded commuting maps, sparse maps and their sums: both checks give the pairwise
    reference's verdict and witness.  Once the algebra holds its center they read phi's
    columns reduced modulo it, reduced once per map; before, the stored columns."""
    algebra, fresh = VERDICT_ALGEBRAS[name](), VERDICT_ALGEBRAS[name]()
    Z = center(algebra)
    assert Z.dim == {"M2(Q)+M2(Q)": 2, "comm3": 3}.get(name, 1)
    reduced = []
    original = commuting._noncentral_columns

    def recorded(algebra, phi):
        reduced.append(phi)
        return original(algebra, phi)

    monkeypatch.setattr(commuting, "_noncentral_columns", recorded)
    failing = 0
    for seed in range(3):
        rng = random.Random(seed)
        standard = random_commuting_map(algebra, seed)
        for phi in (standard, sparse_map(algebra, rng), standard + sparse_map(algebra, rng)):
            cold = LinearMap(fresh, phi.matrix)
            for anti, check in ((False, is_commuting), (True, is_anti_commuting)):
                got = check(algebra, phi)
                assert got == pairwise_verdict(algebra, phi, anti), (name, seed, anti)
                assert _by_coords(check(fresh, cold)) == _by_coords(got), (name, seed, anti)
                failing += not got[0]
            assert len(reduced) == 2 and reduced[0] is phi and reduced[1] is cold
            reduced.clear()
            # Each column read is phi's column minus a central part, and reduced: it
            # holds no entry at a pivot of the center's echelon.
            rest = phi._memo["noncentral_columns"]
            central = phi.matrix - sparse_matrix(algebra.field, algebra.dim, rest)
            assert not any(Z.reduce(col) for col in central.columns)
            assert all(all(col.values()) and Z.reduce(col) == col for col in rest)
            assert cold._memo["noncentral_columns"] is cold.matrix.columns
    assert fresh.held("center") is None, "the checks never make the center"
    if name == "comm3":
        assert failing == 0, "every map on a commutative algebra commutes"
    else:
        assert failing > 0
