"""Peirce splitting, centers, regularity, lifting, and the primeness scan."""

import itertools
import random
from fractions import Fraction

import pytest

from altcomm import (Algebra, BudgetExceededError, PreconditionError, PrimeField,
                     RationalField, associator, center, center_via_peirce,
                     check_peirce_relations, commutator, direct_sum, find_unit,
                     hypothesis_check, is_alternative, is_central, lift_central,
                     matrix_algebra, nucleus, peirce_decompose, prime_check_exhaustive,
                     Subspace, scalar_algebra, verify_idempotent, zorn)
from altcomm.constructions import cayley_dickson_algebra
from altcomm.linalg import common_kernel
from altcomm.peirce import _commutant, _nucleus_blocks, _over, express_central

from test_associator import FAMILIES, builtin_over
from test_linalg import dense_matvec

Q = RationalField()
F5 = PrimeField(5)
ZERO = Fraction(0)
ONE = Fraction(1)


def with_unit_row(entries, dim):
    """Append unit products b0 x = x b0 = x to a structure list."""
    out = list(entries)
    for k in range(dim):
        out.append((0, k, k, ONE))
        if k:
            out.append((k, 0, k, ONE))
    return out


def lift_gap_algebra():
    """Unital 5-dim algebra where a component-central element has no central lift.

    Basis u, e, s, t, w with e idempotent, s in the (1,2) component, w in
    (2,1), t in (2,2).  Products besides the unit: ee = e, es = s, st = s,
    we = w, tw = -w.  The center is just the span of u, but t commutes
    with its whole component, so lifting t must fail.
    """
    entries = with_unit_row(
        [(1, 1, 1, ONE), (1, 2, 2, ONE), (2, 3, 2, ONE),
         (4, 1, 4, ONE), (3, 4, 4, Fraction(-1))], 5)
    return Algebra("lift-gap", Q, 5, ["u", "e", "s", "t", "w"], entries,
                   unit=[ONE] + [ZERO] * 4)


def upper_triangular_algebra():
    """T2(Q), basis E11, E12, E22: at e1 = E22 regularity holds at e1 and fails at e2.

    (x b_k) e2 = 0 for every b_k exactly when x lies in the span of E12
    and E22, whose first canonical vector, E12, is the witness; (x b_k) e1
    = 0 for every b_k forces x = 0.
    """
    entries = [(0, 0, 0, ONE), (0, 1, 1, ONE), (1, 2, 1, ONE), (2, 2, 2, ONE)]
    return Algebra("T2", Q, 3, ["E11", "E12", "E22"], entries)


def mixed_identity_violator():
    """Unital 3-dim algebra where e(x e') and (e x)e' disagree."""
    entries = with_unit_row([(1, 1, 1, ONE), (1, 2, 2, ONE), (2, 1, 0, ONE)], 3)
    return Algebra("mixedviol", Q, 3, ["u", "e", "x"], entries,
                   unit=[ONE, ZERO, ZERO])


def comm3():
    """Unital commutative 3-dim algebra 1, x, y with xx = y, xy = yx = x, yy = 0.

    It is not alternative ((x, x, x) = yx - xy = 0 but (x, x, y) = yy - xx
    = -y), so nothing makes its commutant nuclear: every element commutes,
    and only the multiples of 1 associate with everything.
    """
    entries = with_unit_row([(1, 1, 2, ONE), (1, 2, 1, ONE), (2, 1, 1, ONE)], 3)
    return Algebra("comm3", Q, 3, ["1", "x", "y"], entries, unit=[ONE, ZERO, ZERO])


# ----------------------------------------------------------------------
# idempotents and the splitting


def test_verify_idempotent(m2q):
    algebra, e11 = m2q
    assert verify_idempotent(algebra, e11)
    unit = find_unit(algebra)
    assert not verify_idempotent(algebra, unit), "the unit is trivial"
    assert not verify_idempotent(algebra, e11.scale(0))
    assert not verify_idempotent(algebra, e11.scale(2))


def test_verify_idempotent_needs_a_unit():
    a = Algebra("null2", Q, 2, ["a", "b"], [])
    with pytest.raises(PreconditionError):
        verify_idempotent(a, a.element([ONE, ZERO]))


def test_component_dimensions(m2q_pd, m3q_pd, zornq_pd, zornf5_pd):
    assert m2q_pd.dims() == (1, 1, 1, 1)
    assert m3q_pd.dims() == (1, 2, 2, 4)
    assert zornq_pd.dims() == (1, 3, 3, 1)
    assert zornf5_pd.dims() == (1, 3, 3, 1)


def test_projectors_split_every_element(zornq_pd):
    pd = zornq_pd
    algebra = pd.algebra
    x = algebra.element([Fraction(k * k - 3) for k in range(8)])
    parts = [pd.project(i, j, x) for i in (1, 2) for j in (1, 2)]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total == x
    for (i, j) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert pd.components[(i, j)].contains(pd.project(i, j, x))


@pytest.mark.parametrize("field", [Q, F5, PrimeField(101)], ids=lambda f: f.label)
@pytest.mark.parametrize("name", FAMILIES)
def test_sparse_projection_is_the_projector_matvec(name, field):
    """project applies each projector through its sparse columns; it must
    equal the row-by-row product of the projector's entries.

    CD3 and CD4 split at (1 + i)/2, whose components are not spanned by
    basis vectors, so the projectors there have dense columns.
    """
    algebra, e = builtin_over(name, field)
    pd = peirce_decompose(algebra, e)
    rng = random.Random(len(name) + algebra.dim)
    n = algebra.dim
    elements = [algebra.basis_element(k) for k in range(n)] + [pd.e1, pd.e2]
    for density in (0.2, 0.6, 1.0):
        elements += [algebra.element([field.from_int(rng.randint(-4, 4))
                                      if rng.random() < density else field.zero
                                      for _ in range(n)]) for _ in range(4)]
    if field is Q:
        elements.append(algebra.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                         for _ in range(n)]))
    for x in elements:
        for key, P in pd.projectors.items():
            assert list(pd.project(*key, x).coords) == dense_matvec(field, P.data, x.coords), \
                (key, x)
    if name.startswith("CD"):
        assert any(sum(1 for c in el.coords if c) > 1
                   for sub in pd.components.values() for el in sub.basis)


def test_projection_of_idempotents(m3q_pd):
    pd = m3q_pd
    assert pd.project(1, 1, pd.e1) == pd.e1
    assert pd.project(2, 2, pd.e2) == pd.e2
    assert pd.project(1, 2, pd.e1).is_zero()


def test_peirce_relations_pass_on_builtins(m2q_pd, m3q_pd, zornq_pd, zornf5_pd):
    for pd in (m2q_pd, m3q_pd, zornq_pd, zornf5_pd):
        report = check_peirce_relations(pd)
        assert len(report) == 20
        failures = [r for r in report if not r["pass"]]
        assert not failures, failures


def test_peirce_rejects_non_idempotents(m2q):
    algebra, e11 = m2q
    with pytest.raises(PreconditionError):
        peirce_decompose(algebra, e11 + e11)
    with pytest.raises(PreconditionError):
        peirce_decompose(algebra, find_unit(algebra))


def test_peirce_rejects_bracketing_disagreement():
    algebra = mixed_identity_violator()
    e = algebra.basis_element(1)
    assert verify_idempotent(algebra, e)
    with pytest.raises(PreconditionError, match="disagree"):
        peirce_decompose(algebra, e)


def test_sedenion_relations_fail_with_witnesses():
    """The 16-dim doubling splits, but the component product rules break."""
    algebra, idem = cayley_dickson_algebra(Q, [Q.one] * 4)
    pd = peirce_decompose(algebra, idem)
    assert pd.dims() == (1, 7, 7, 1)
    report = check_peirce_relations(pd)
    failed = [r["check"] for r in report if not r["pass"]]
    assert failed == ["(i) r12.r21 in r11", "(i) r21.r12 in r22",
                      "(ii) r12.r12 in r21", "(ii) r21.r21 in r12"]
    for r in report:
        if not r["pass"]:
            assert "witness" in r and r["witness"]


def test_sedenion_relation_witnesses_are_frozen():
    """Each failing entry reports its first failing basis product, row-major."""
    algebra, idem = cayley_dickson_algebra(Q, [Q.one] * 4)
    report = check_peirce_relations(peirce_decompose(algebra, idem))

    def vec(nonzero):
        out = ["0"] * 16
        for k, c in nonzero.items():
            out[k] = c
        return out

    witnesses = {r["check"]: r["witness"] for r in report if not r["pass"]}
    assert witnesses == {
        "(i) r12.r21 in r11": {"x": vec({2: "1", 3: "-1"}), "y": vec({12: "1", 13: "-1"}),
                               "product": vec({14: "2", 15: "-2"})},
        "(i) r21.r12 in r22": {"x": vec({2: "1", 3: "1"}), "y": vec({12: "1", 13: "1"}),
                               "product": vec({14: "2", 15: "2"})},
        "(ii) r12.r12 in r21": {"x": vec({10: "1", 11: "1"}), "y": vec({12: "1", 13: "1"}),
                                "product": vec({6: "-2", 7: "-2"})},
        "(ii) r21.r21 in r12": {"x": vec({10: "1", 11: "-1"}), "y": vec({12: "1", 13: "-1"}),
                                "product": vec({6: "-2", 7: "2"})},
    }


def test_the_diagonal_square_entry_is_the_first_familys_entry():
    """(ii) r_ii.r_ii in r_ii is (i) at i = j = l: the same result under its own name."""
    for algebra, idem in (matrix_algebra(Q, 3), cayley_dickson_algebra(Q, [Q.one] * 4)):
        report = check_peirce_relations(peirce_decompose(algebra, idem))
        assert [r["check"] for r in report[8:12]] == [
            "(ii) r11.r11 in r11", "(ii) r12.r12 in r21", "(ii) r21.r21 in r12",
            "(ii) r22.r22 in r22"]
        by_name = {r["check"]: r for r in report}
        for i in (1, 2):
            first = by_name[f"(i) r{i}{i}.r{i}{i} in r{i}{i}"]
            assert by_name[f"(ii) r{i}{i}.r{i}{i} in r{i}{i}"] == {
                **first, "check": f"(ii) r{i}{i}.r{i}{i} in r{i}{i}"}


def test_sedenion_peirce_bases_hold_ints_where_integral():
    """At (1 + i)/2 the pivot rows are divided by non-unit leads; no Fraction(1) is left."""
    algebra, idem = cayley_dickson_algebra(Q, [Q.one] * 4)
    assert idem.to_strings()[:3] == ["1/2", "1/2", "0"]
    pd = peirce_decompose(algebra, idem)
    spaces = [*pd.components.values(), pd.diagonal_center(1), pd.diagonal_center(2),
              center_via_peirce(pd)]
    scalars = [c for sub in spaces for el in sub.basis for c in el.coords]
    assert scalars and all(type(c) is int for c in scalars if c.denominator == 1)


# ----------------------------------------------------------------------
# center and nucleus


def test_center_of_builtins(m2q, m3q, zornq):
    for algebra, _ in (m2q, m3q, zornq):
        z = center(algebra)
        assert z.dim == 1
        unit = find_unit(algebra)
        assert z.contains(unit)


def test_center_of_commutative_sum():
    d = direct_sum(scalar_algebra(Q), scalar_algebra(Q))
    assert center(d).dim == 2


def test_is_central(m2q):
    algebra, e11 = m2q
    assert is_central(algebra, find_unit(algebra))
    assert is_central(algebra, find_unit(algebra).scale(-3))
    assert not is_central(algebra, e11)


def test_nucleus_of_builtins(m2q, m3q, zornq):
    a2, _ = m2q
    assert nucleus(a2).dim == 4, "associative algebras associate entirely"
    a3, _ = m3q
    assert nucleus(a3).dim == 9
    az, _ = zornq
    nz = nucleus(az)
    assert nz.dim == 1
    assert nz.contains(find_unit(az))


@pytest.mark.parametrize("name, field",
                         [(name, field) for field in (Q, F5, PrimeField(101))
                          for name in ("M2", "M3", "Zorn", "CD3")] + [("M2+Zorn", Q)],
                         ids=lambda v: getattr(v, "label", v))
def test_the_center_is_nuclear_on_alternative_algebras(name, field):
    """center is the commutant; on an alternative algebra it lies in the nucleus.

    There [xy, z] - x[y, z] - [x, z]y = 3(x, y, z) for all x, y, z, so a z
    that commutes with everything has 3(x, y, z) = 0, and 3 is invertible
    over Q, F5 and F101: the commutant is the paper's center Z(R).
    """
    algebra = builtin_over(name, field)[0]
    assert is_alternative(algebra)[0]
    basis = [algebra.basis_element(k) for k in range(algebra.dim)]
    for x, y, z in itertools.product(basis, repeat=3):
        assert commutator(x * y, z) - x * commutator(y, z) - commutator(x, z) * y == \
            3 * associator(x, y, z)
    kept = nucleus(algebra)
    assert all(kept.contains(z) for z in center(algebra).basis)


def test_the_center_of_a_non_alternative_algebra_can_be_larger():
    """On comm3 the commutant is the whole algebra, but the nucleus is only F 1."""
    algebra = comm3()
    assert not is_alternative(algebra)[0]
    z, kept = center(algebra), nucleus(algebra)
    assert z.dim == 3 and kept.dim == 1 and kept.contains(find_unit(algebra))
    assert not all(kept.contains(v) for v in z.basis)


def test_coefficients_read_at_the_pivots_are_checked(m3q):
    """_over reads a canonical basis at its pivots; any other basis, or an x outside, raises."""
    algebra, _ = m3q
    b0, b1, b2 = (algebra.basis_element(k) for k in range(3))
    canonical = Subspace.from_spanning(algebra, [b0 + b1, b1])
    assert _over(canonical, b0 + b1 + b1) == [1, 2]
    with pytest.raises(ValueError, match="pivots"):
        _over(Subspace(algebra, [b0 + b1, b1]), b0)
    with pytest.raises(ValueError, match="pivots"):
        _over(canonical, b2)


def test_a_wrong_known_central_vector_is_refused(m3q):
    algebra, _ = m3q
    basis = [algebra.basis_element(k) for k in range(algebra.dim)]
    with pytest.raises(ValueError, match="not in the kernel"):
        _commutant(algebra, basis, basis, known=[algebra.basis_coords(1)])
    assert (_commutant(algebra, basis, basis, known=[find_unit(algebra).coords])
            == _commutant(algebra, basis, basis) == [list(find_unit(algebra).coords)])


def test_the_capped_nucleus_stops_inside_the_first_family():
    algebra, _ = cayley_dickson_algebra(Q, [Q.one] * 4)
    A, unit = algebra.associator_tensor(), find_unit(algebra)
    blocks = _nucleus_blocks(A)
    assert common_kernel(Q, 16, blocks, known=[unit.coords]) == [list(unit.coords)]
    assert len(list(blocks)) >= 2, "families 1 and 2 were formed"
    assert common_kernel(Q, 16, _nucleus_blocks(A)) == [list(unit.coords)]
    assert nucleus(algebra).basis == (unit,)


def test_center_via_peirce_matches(m2q_pd, m3q_pd, zornq_pd, m2f5_pd, zornf5_pd):
    for pd in (m2q_pd, m3q_pd, zornq_pd, m2f5_pd, zornf5_pd):
        assert center_via_peirce(pd) == center(pd.algebra), pd.algebra.name


def test_center_via_peirce_needs_regularity():
    d = direct_sum(scalar_algebra(Q), scalar_algebra(Q))
    pd = peirce_decompose(d, d.element([ONE, ZERO]))
    with pytest.raises(PreconditionError):
        center_via_peirce(pd)


def _span(pd):
    """The tagged echelon of one central-lift span, read back through the memo."""
    key = ("lift", pd.e1.coords)
    assert express_central(pd.algebra, key, [lambda z: (z * pd.e1).coords], pd.e1.coords)
    return pd.algebra.cached(key, lambda: pytest.fail("the span was not memoised"))


@pytest.mark.parametrize("builder, read", [
    ("_commutant", lambda pd: center(pd.algebra)),
    ("_nucleus_blocks", lambda pd: nucleus(pd.algebra)),
    ("tagged_echelon", _span),
    ("_solve_regularity", lambda pd: pd.hypothesis()),
    ("_commutant", center_via_peirce),
], ids=["center", "nucleus", "express_central", "hypothesis", "center_via_peirce"])
def test_each_memoised_value_is_built_once(monkeypatch, builder, read):
    from altcomm import peirce
    from test_lemmas import _counting

    pd = peirce_decompose(*matrix_algebra(Q, 3))
    built = _counting(monkeypatch, peirce, builder)
    first = read(pd)
    assert read(pd) is first and len(built) == 1


def test_each_diagonal_center_is_built_once(monkeypatch):
    from altcomm import peirce
    from test_lemmas import _counting

    pd = peirce_decompose(*zorn(Q))
    built = _counting(monkeypatch, peirce, "_commutant")
    centers = [pd.diagonal_center(i) for i in (1, 2, 1, 2)]
    assert centers[0] is centers[2] and centers[1] is centers[3] and len(built) == 2
    assert centers[0] != centers[1]


def test_one_regularity_solve_per_algebra_and_idempotent(monkeypatch):
    """hypothesis_check, every split at e1 and every reader of PeirceData.hypothesis
    share one solve, memoised on the algebra; another idempotent gets its own."""
    from altcomm import decompose, peirce, random_commuting_map, run_all
    from test_lemmas import _counting

    algebra, e1 = matrix_algebra(Q, 3)
    built = _counting(monkeypatch, peirce, "_solve_regularity")
    first = hypothesis_check(algebra, e1)
    pd = peirce_decompose(algebra, e1)
    phi = random_commuting_map(algebra, 1)
    assert pd.hypothesis() is first and center_via_peirce(pd) == center(algebra)
    assert decompose(pd, phi).verified and all(r.passed for r in run_all(pd, phi))
    assert hypothesis_check(algebra, e1) is first and len(built) == 1
    assert peirce_decompose(algebra, e1).hypothesis() is first and len(built) == 1
    e22 = algebra.basis_element(algebra.label_index("E22"))
    assert peirce_decompose(algebra, e22).hypothesis() == first and len(built) == 2
    assert hypothesis_check(algebra, e22) is not first and len(built) == 2


def test_regularity_refusals_are_raised_on_every_call(monkeypatch):
    from altcomm import peirce
    from test_lemmas import _counting

    algebra, e1 = matrix_algebra(Q, 2)
    null = Algebra("null2", Q, 2, ["a", "b"], [])
    hypothesis_check(algebra, e1)
    built = _counting(monkeypatch, peirce, "_solve_regularity")
    for _ in range(2):
        for x in (find_unit(algebra), e1.scale(2), e1.scale(0)):
            with pytest.raises(PreconditionError, match="not a nontrivial idempotent"):
                hypothesis_check(algebra, x)
        with pytest.raises(PreconditionError, match="needs a unital algebra"):
            hypothesis_check(null, null.basis_element(0))
    assert built == []


# ----------------------------------------------------------------------
# the regularity condition


def test_hypothesis_holds_on_builtins(m2q, m3q, zornq, m2f5, zornf5):
    for algebra, e in (m2q, m3q, zornq, m2f5, zornf5):
        (ok1, w1), (ok2, w2) = hypothesis_check(algebra, e)
        assert ok1 and ok2, algebra.name
        assert w1 is None and w2 is None


def test_hypothesis_fails_on_scalar_sum():
    d = direct_sum(scalar_algebra(Q), scalar_algebra(Q))
    (ok1, w1), (ok2, w2) = hypothesis_check(d, d.element([ONE, ZERO]))
    assert not ok1 and not ok2
    assert w1.to_strings() == ["0", "1"]
    assert w2.to_strings() == ["1", "0"]


def test_hypothesis_fails_on_scalar_plus_matrix(m2q):
    m2, _ = m2q
    d = direct_sum(scalar_algebra(Q), m2)
    e1 = d.element([ONE] + [ZERO] * 4)
    (ok1, w1), (ok2, w2) = hypothesis_check(d, e1)
    assert not ok1 and not ok2
    assert w1.to_strings() == ["0", "1", "0", "0", "0"]
    assert w2.to_strings() == ["1", "0", "0", "0", "0"]
    # the witnesses really annihilate: (w . b_k) . e = 0 for every k
    for w, e in ((w1, e1), (w2, find_unit(d) - e1)):
        for k in range(d.dim):
            assert ((w * d.basis_element(k)) * e).is_zero()


def test_hypothesis_rejects_bad_idempotent(m2q):
    algebra, _ = m2q
    with pytest.raises(PreconditionError):
        hypothesis_check(algebra, find_unit(algebra))


# ----------------------------------------------------------------------
# central lifting


def test_lift_central_on_m2(m2q_pd):
    pd = m2q_pd
    algebra = pd.algebra
    z = lift_central(pd, pd.e1, 1)
    assert z == find_unit(algebra)
    doubled = lift_central(pd, pd.e1.scale(2), 1)
    assert doubled == find_unit(algebra).scale(2)
    assert lift_central(pd, pd.e1.scale(0), 1).is_zero()


def test_lift_central_on_m3(m3q_pd):
    pd = m3q_pd
    algebra = pd.algebra
    # the central elements of r22 are the multiples of e2; they lift to scalars
    zc = pd.diagonal_center(2)
    assert zc.dim == 1
    z = lift_central(pd, zc.basis[0], 2)
    assert z is not None and is_central(algebra, z)
    assert z * pd.e2 == zc.basis[0]


def test_lift_determinism(zornq_pd):
    a = lift_central(zornq_pd, zornq_pd.e1, 1)
    b = lift_central(zornq_pd, zornq_pd.e1, 1)
    assert a == b


def test_lift_preconditions(m3q_pd):
    pd = m3q_pd
    algebra = pd.algebra
    with pytest.raises(PreconditionError):
        lift_central(pd, pd.e1, 2)  # wrong component
    # E22 lies in r22 but is not central there
    e22 = algebra.basis_element(4)
    with pytest.raises(PreconditionError):
        lift_central(pd, e22, 2)
    with pytest.raises(ValueError):
        lift_central(pd, pd.e1, 3)


def test_a_lift_makes_one_membership_test(m3q_pd, monkeypatch):
    """A lift that passes tests membership once, in the component's center; a refusal
    then asks the component which of the two errors to raise, witnesses included."""
    pd = m3q_pd
    algebra = pd.algebra
    contains = Subspace.contains
    asked = []

    def counted(self, el):
        asked.append(self)
        return contains(self, el)

    monkeypatch.setattr(Subspace, "contains", counted)
    for i in (1, 2):
        for x in pd.diagonal_center(i).basis:
            asked.clear()
            assert lift_central(pd, x, i) is not None
            assert len(asked) == 1 and asked[0] is pd.diagonal_center(i)
    with pytest.raises(PreconditionError, match="not in the diagonal component") as exc:
        lift_central(pd, pd.e1, 2)
    assert exc.value.witness == pd.e1
    e22 = algebra.basis_element(4)
    with pytest.raises(PreconditionError, match="not central in its component") as exc:
        lift_central(pd, e22, 2)
    x, t = exc.value.witness
    assert x == e22 and t in pd.components[(2, 2)].basis and x * t != t * x


def test_lift_gap_returns_none():
    algebra = lift_gap_algebra()
    pd = peirce_decompose(algebra, algebra.basis_element(1))
    assert pd.dims() == (1, 1, 1, 2)
    assert center(algebra).dim == 1
    t = algebra.basis_element(3)
    assert pd.diagonal_center(2).contains(t)
    assert lift_central(pd, t, 2) is None
    # consistent with the theory: the regularity condition fails here
    (ok1, _), (ok2, _) = hypothesis_check(algebra, pd.e1)
    assert not ok1 and not ok2
    # while the reachable part still lifts
    lifted = lift_central(pd, pd.e2, 2)
    assert lifted == find_unit(algebra)


# ----------------------------------------------------------------------
# exhaustive primeness


def brute_prime_f5(algebra):
    """Oracle: enumerate all nonzero pairs and test (a b_k) b = 0 directly."""
    n = algebra.dim
    elems = [algebra.element(list(c)) for c in itertools.product(range(5), repeat=n)]
    nonzero = [x for x in elems if not x.is_zero()]
    basis = [algebra.basis_element(k) for k in range(n)]
    for a in nonzero:
        rows = [a * bk for bk in basis]
        for b in nonzero:
            if all((r * b).is_zero() for r in rows):
                return False, (a, b)
    return True, None


def pair_annihilates(algebra, a, b):
    return all(((a * algebra.basis_element(k)) * b).is_zero()
               for k in range(algebra.dim))


def test_prime_on_matrix_and_zorn(m2f5, zornf5):
    for algebra, _ in (m2f5, zornf5):
        ok, pair = prime_check_exhaustive(algebra)
        assert ok and pair is None, algebra.name


def test_prime_fails_on_scalar_sum_with_frozen_witness():
    d = direct_sum(scalar_algebra(F5), scalar_algebra(F5))
    ok, (a, b) = prime_check_exhaustive(d)
    assert not ok
    assert a.to_strings() == ["1", "0"]
    assert b.to_strings() == ["0", "1"]
    assert pair_annihilates(d, a, b)


def test_prime_agrees_with_brute_force():
    s = scalar_algebra(F5)
    cases = [
        s,
        direct_sum(s, s),
        direct_sum(direct_sum(s, s), s),
        Algebra("null2f5", F5, 2, ["a", "b"], []),  # non-unital, everything annihilates
    ]
    for algebra in cases:
        got_ok, got_pair = prime_check_exhaustive(algebra)
        want_ok, _ = brute_prime_f5(algebra)
        assert got_ok == want_ok, algebra.name
        if not got_ok:
            a, b = got_pair
            assert not a.is_zero() and not b.is_zero()
            assert pair_annihilates(algebra, a, b), algebra.name


def test_prime_budget_and_field_guards(zornf5, m2q):
    algebra, _ = zornf5
    with pytest.raises(BudgetExceededError):
        prime_check_exhaustive(algebra, budget=1000)
    rational, _ = m2q
    with pytest.raises(ValueError):
        prime_check_exhaustive(rational)


def test_prime_scan_refuses_int64_overflow_and_huge_tables(monkeypatch):
    from altcomm import _modscan

    _modscan.check_prime_scan_bound(2 ** 19, 2 ** 25 - 1)     # dim p^2 just below 2^63
    with pytest.raises(ValueError, match="2\\^63"):
        _modscan.check_prime_scan_bound(2 ** 19, 2 ** 25)      # exactly 2^63
    _modscan.check_prime_scan_bound(2 ** 20 - 1, 1)
    with pytest.raises(ValueError, match="2\\^20"):
        _modscan.check_prime_scan_bound(2 ** 20, 1)

    tables = []
    monkeypatch.setattr(_modscan, "inverse_table", lambda p: tables.append(p))
    monkeypatch.setattr(_modscan, "projective_chunks", lambda p, n, chunk=16384: iter(()))
    below, above = 1048573, 1048583                          # the primes around 2^20
    algebra = scalar_algebra(PrimeField(below))
    assert prime_check_exhaustive(algebra, budget=below) == (True, None)
    assert tables == [below]
    algebra = scalar_algebra(PrimeField(above))
    with pytest.raises(ValueError, match="inverse table"):
        prime_check_exhaustive(algebra, budget=above)
    assert tables == [below]
