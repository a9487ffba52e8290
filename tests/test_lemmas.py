"""The nine-step check suite: gating, passing runs, and forced failures."""

import json
import os
import random
from fractions import Fraction

import pytest

from altcomm import (LEMMA_IDS, Algebra, LinearMap, Matrix, PreconditionError, PrimeField,
                     RationalField, Subspace, cayley_dickson_algebra, center, commutator,
                     decompose, decompose_oracle, direct_sum, find_unit, is_central,
                     lift_central, matrix_algebra, peirce, peirce_decompose,
                     random_commuting_map, run_all, run_lemma, scalar_algebra, zorn)
from altcomm import lemmas
from altcomm.algebra import Element
from altcomm.lemmas import _EVALS, Images
from altcomm.peirce import PeirceData

from test_associator import columns_matrix, mult_matrix, projector_blocks, scalar_map
from test_peirce import lift_gap_algebra, upper_triangular_algebra
from test_peirce_reference import reference_lift

Q = RationalField()


def transpose_map(algebra):
    n = 2
    cols = []
    for i in range(n):
        for j in range(n):
            c = [Fraction(0)] * algebra.dim
            c[j * n + i] = Fraction(1)
            cols.append(c)
    return LinearMap(algebra, columns_matrix(Q, cols))


def test_lemma_ids_are_ordered():
    assert LEMMA_IDS == tuple(f"L{k}" for k in range(1, 10))


def test_all_pass_on_builtins(m2q_pd, m3q_pd, zornq_pd, m2f5_pd, zornf5_pd):
    for pd in (m2q_pd, m3q_pd, zornq_pd, m2f5_pd, zornf5_pd):
        for seed in (0, 7, 31):
            phi = random_commuting_map(pd.algebra, seed)
            reports = run_all(pd, phi)
            assert [r.lemma_id for r in reports] == list(LEMMA_IDS)
            for r in reports:
                assert r.passed, (pd.algebra.name, seed, r.lemma_id, r.notes)
                assert r.witness is None
                assert r.notes


def test_identity_map_passes(zornq_pd):
    reports = run_all(zornq_pd, scalar_map(zornq_pd.algebra))
    assert all(r.passed for r in reports)


def test_single_lemma_matches_run_all(m3q_pd):
    phi = random_commuting_map(m3q_pd.algebra, 5)
    full = {r.lemma_id: r for r in run_all(m3q_pd, phi)}
    for lid in LEMMA_IDS:
        single = run_lemma(lid, m3q_pd, phi)
        assert single.status == full[lid].status
        assert single.notes == full[lid].notes


def test_single_lemma_is_gated_like_run_all(m2q_pd):
    """run_lemma reports not-applicable with run_all's reason and witness, for either gate."""
    d = direct_sum(scalar_algebra(Q), scalar_algebra(Q))
    cases = [(m2q_pd, transpose_map(m2q_pd.algebra)),
             (peirce_decompose(d, d.element([Fraction(1), Fraction(0)])), scalar_map(d))]
    for pd, phi in cases:
        full = run_all(pd, phi)
        assert [run_lemma(lid, pd, phi).to_dict() for lid in LEMMA_IDS] == \
            [r.to_dict() for r in full]
        assert {r.status for r in full} == {"not-applicable"}


def test_unknown_lemma_id(m2q_pd):
    with pytest.raises(ValueError):
        run_lemma("L10", m2q_pd, scalar_map(m2q_pd.algebra))
    with pytest.raises(ValueError):
        run_lemma("l1", m2q_pd, scalar_map(m2q_pd.algebra))


def test_non_commuting_map_blocks_everything(m2q_pd):
    reports = run_all(m2q_pd, transpose_map(m2q_pd.algebra))
    assert len(reports) == 9
    for r in reports:
        assert r.status == "not-applicable"
        assert not r.passed
        assert "not commuting" in r.notes
        assert r.witness["x"] == ["1", "0", "0", "0"]
        assert r.witness["y"] == ["0", "1", "0", "0"]


def test_failed_regularity_blocks_everything():
    from altcomm import direct_sum, peirce_decompose, scalar_algebra
    d = direct_sum(scalar_algebra(Q), scalar_algebra(Q))
    pd = peirce_decompose(d, d.element([Fraction(1), Fraction(0)]))
    reports = run_all(pd, scalar_map(d))
    for r in reports:
        assert r.status == "not-applicable"
        assert "regularity" in r.notes
        assert r.witness["kernel_element"] == ["0", "1"]
    algebra = upper_triangular_algebra()        # regularity holds at e1 = E22, fails at e2
    pd = peirce_decompose(algebra, algebra.basis_element(2))
    for r in run_all(pd, scalar_map(algebra)):
        assert r.status == "not-applicable"
        assert r.notes == "not applicable: the regularity condition fails at e2"
        assert r.witness == {"kernel_element": ["0", "1", "0"]}


def test_ungated_l2_and_l4_report_lift_failures():
    """On lift_gap_algebra at e1 = e, t is central in r22 but has no central lift."""
    algebra = lift_gap_algebra()
    pd = peirce_decompose(algebra, algebra.basis_element(1))
    t = ["0", "0", "0", "1", "0"]
    ok, witness, notes = _EVALS["L2"](pd, Images(pd, scalar_map(algebra)))
    assert not ok and notes == "lift failed in component (2,2)"
    assert witness == {"equation": "z . e2 = x for central z", "x": t,
                       "problem": "no central lift exists"}
    cols = [[Fraction(int(r == c)) for r in range(5)] for c in range(5)]
    cols[1][3] = Fraction(1)                          # phi(e) = e + t, identity elsewhere
    phi = LinearMap(algebra, columns_matrix(Q, cols))
    assert phi(algebra.basis_element(1)).to_strings() == ["0", "1", "0", "1", "0"]
    ok, witness, notes = _EVALS["L4"](pd, Images(pd, phi))
    assert not ok and notes == "the (2,2) part of phi(x), x in r11, does not lift"
    assert witness == {"equation": "z . e2 = x for central z", "x": t,
                       "problem": "no central lift exists",
                       "basis_vector": ["0", "1", "0", "0", "0"]}


def test_ungated_l5_names_the_part_that_does_not_lift():
    """On M3(Q) at e1 = E11 with phi = R_E13, P22(phi(E21)) = E23 has no central lift.

    The witness's x is that part, which z . e2 = x names; the r21 basis
    vector it came from is reported apart, as in L4.
    """
    pd = peirce_decompose(*matrix_algebra(Q, 3))
    a3 = pd.algebra
    phi = LinearMap(a3, mult_matrix(a3, a3.basis_coords(a3.label_index("E13")), "right"))
    images = Images(pd, phi)
    ok, witness, notes = _EVALS["L5"](pd, images)
    e21 = a3.basis_element(a3.label_index("E21"))
    assert not ok and notes == "(iv) fails"
    assert witness == {"equation": "z . e2 = x for central z",
                       "x": ["0", "0", "0", "0", "0", "1", "0", "0", "0"],
                       "problem": "element to lift is not central in its component",
                       "basis_vector": ["0", "0", "0", "1", "0", "0", "0", "0", "0"]}
    assert witness["x"] == a3.basis_element(a3.label_index("E23")).to_strings()
    assert witness["basis_vector"] == e21.to_strings()
    shared = lemmas._lift_failure(pd, images.part(2, 2, e21), 2)
    assert "basis_vector" not in shared, "L5 added to its own witness only"


def test_ungated_evaluation_exposes_failures(m2q_pd):
    """Bypassing the gate shows which equations a bad map actually breaks."""
    algebra = m2q_pd.algebra
    cases = {
        "transpose": (transpose_map(algebra), {"L5"}),
        "left mult by e11": (
            LinearMap.left_multiplication(algebra, m2q_pd.e1), {"L5", "L6"}),
    }
    for label, (phi, expected_failures) in cases.items():
        failed = set()
        for lid in LEMMA_IDS:
            ok, witness, notes = _EVALS[lid](m2q_pd, Images(m2q_pd, phi))
            if not ok:
                failed.add(lid)
                assert witness, (label, lid)
                assert notes
        assert failed == expected_failures, label


def test_report_to_dict(m2f5_pd):
    phi = random_commuting_map(m2f5_pd.algebra, 2)
    r = run_lemma("L7", m2f5_pd, phi)
    d = r.to_dict()
    assert d == {"lemma_id": "L7", "status": "pass",
                 "witness": None, "notes": r.notes}
    assert list(d) == ["lemma_id", "status", "witness", "notes"]


def test_notes_mention_what_was_checked(zornq_pd):
    phi = random_commuting_map(zornq_pd.algebra, 7)
    notes = {r.lemma_id: r.notes for r in run_all(zornq_pd, phi)}
    # the off-diagonal components of the octonion-like algebra are 3-dim
    assert "3" in notes["L5"] or "basis" in notes["L5"]
    assert notes["L1"] != notes["L2"]


# ----------------------------------------------------------------------
# frozen results of every check outside its hypotheses

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lemma_witnesses.json")


def _perturbed(algebra, seed):
    """The seeded commuting map plus a unit in one seeded matrix entry."""
    rng = random.Random(seed)
    f = algebra.field
    n = algebra.dim
    data = [[f.zero] * n for _ in range(n)]
    data[rng.randrange(n)][rng.randrange(n)] = f.one
    return random_commuting_map(algebra, seed) + LinearMap(algebra, Matrix(f, data, cols=n))


def _frozen_cases():
    """(label, PeirceData, map) for maps that break the lemmas in many different places."""
    m2 = peirce_decompose(*matrix_algebra(Q, 2))
    m3 = peirce_decompose(*matrix_algebra(Q, 3))
    zf5 = peirce_decompose(*zorn(PrimeField(5)))
    cases = [("M2(Q) transpose", m2, transpose_map(m2.algebra)),
             ("M2(Q) left e11", m2, LinearMap.left_multiplication(m2.algebra, m2.e1))]
    a3 = m3.algebra
    for k, label in enumerate(a3.basis_labels):
        cases.append((f"M3(Q) right {label}", m3,
                      LinearMap(a3, mult_matrix(a3, a3.basis_coords(k), "right"))))
    for label in ("E22", "E23"):
        cases.append((f"M3(Q) left {label}", m3, LinearMap.left_multiplication(
            a3, a3.basis_element(a3.label_index(label)))))
    for seed in (1, 6):
        cases.append((f"Zorn(F5) perturbed {seed}", zf5, _perturbed(zf5.algebra, seed)))
    return cases


def _ungated_results():
    results = {}
    for label, pd, phi in _frozen_cases():
        results[label] = {lid: list(_EVALS[lid](pd, Images(pd, phi))) for lid in LEMMA_IDS}
    return results


def _lift_refusal():
    """Message and witness pair of lift_central on P22(phi(E13)), phi = left mult by E31."""
    pd = peirce_decompose(*matrix_algebra(Q, 3))
    a3 = pd.algebra
    phi = LinearMap.left_multiplication(a3, a3.basis_element(a3.label_index("E31")))
    x = pd.project(2, 2, phi(a3.basis_element(a3.label_index("E13"))))
    with pytest.raises(PreconditionError) as exc:
        lift_central(pd, x, 2)
    return {"message": str(exc.value),
            "witness": [w.to_strings() for w in exc.value.witness]}


def test_ungated_lemma_results_are_frozen():
    """(ok, witness, notes) of every check on maps outside the hypotheses, as first recorded."""
    with open(FROZEN) as fh:
        frozen = json.load(fh)
    assert _ungated_results() == frozen["ungated"]
    assert _lift_refusal() == frozen["lift_refusal"]


def _freeze():
    with open(FROZEN, "w") as fh:
        json.dump({"ungated": _ungated_results(), "lift_refusal": _lift_refusal()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")



# ----------------------------------------------------------------------
# spans over the central basis, at dim Z = 2 and two idempotents per algebra


def _two_split_cases():
    """(label, algebra, e1, e1') with a two-dimensional center, regular at both.

    On M2(Q)+M2(Q), E11+E11 and E11+E22 split the same summands; on
    M2(Q)+Zorn(Q), E11+e11 and (E11+E12)+e11 have different spans Z e1.
    """
    m2 = matrix_algebra(Q, 2)[0]
    cases = [("M2(Q)+M2(Q)", direct_sum(m2, m2), [1, 0, 0, 0, 1, 0, 0, 0],
              [1, 0, 0, 0, 0, 0, 0, 1])]
    mz = direct_sum(m2, zorn(Q)[0])
    cases.append(("M2(Q)+Zorn(Q)", mz, [1, 0, 0, 0, 1] + [0] * 7, [1, 1, 0, 0, 1] + [0] * 7))
    return cases


def _reference_lift(pd, x, i):
    """reference_lift behind lift_central's two refusals, with the same messages."""
    if not pd.components[(i, i)].contains(x):
        raise PreconditionError("element to lift is not in the diagonal component")
    if not pd.diagonal_center(i).contains(x):
        raise PreconditionError("element to lift is not central in its component")
    return reference_lift(pd, x, i)


def _reference_span(algebra, key, words, x, n=None):
    """Membership of x in the Subspace.from_spanning of the w(z_c): [] or None."""
    generators = [Element(algebra, w(z)) for w in words for z in center(algebra).basis]
    return [] if Subspace.from_spanning(algebra, generators).contains(Element(algebra, x)) \
        else None


SPAN_LEMMAS = ("L2", "L3", "L4", "L5", "L7", "L9")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("case", range(2))
def test_central_spans_agree_with_a_reference_at_two_idempotents(case, order, monkeypatch):
    """Two PeirceData on one algebra share its span cache; every key must name its e_i.

    The reference runs on a fresh split at the same idempotent, since lift
    verdicts are memoised on the split, and it must lift at least once.
    """
    label, algebra, *idempotents = _two_split_cases()[case]
    assert center(algebra).dim == 2
    pds = [peirce_decompose(algebra, algebra.element(idempotents[k])) for k in order]
    for pd in pds:
        for seed in range(3):
            assert all(r.passed for r in run_all(pd, random_commuting_map(algebra, seed))), label
            phi = _perturbed(algebra, seed)
            got = {lid: _EVALS[lid](pd, Images(pd, phi)) for lid in SPAN_LEMMAS}
            ref = peirce_decompose(algebra, pd.e1)
            lifted = []

            def reference(pd, x, i):
                lifted.append((x, i))
                return _reference_lift(pd, x, i)

            with monkeypatch.context() as patch:
                patch.setattr(lemmas, "lift_central", reference)
                patch.setattr(lemmas, "express_central", _reference_span)
                want = {lid: _EVALS[lid](ref, Images(ref, phi)) for lid in SPAN_LEMMAS}
            assert lifted, "the reference lift is consulted"
            assert got == want, (label, pd.e1.to_strings(), seed)


def test_warm_spans_build_no_echelon(monkeypatch):
    """After one warm call each, the oracle, lifts and lemmas read only cached spans."""
    label, algebra, e1, _ = _two_split_cases()[1]
    pd = peirce_decompose(algebra, algebra.element(e1))
    warm = random_commuting_map(algebra, 0)
    decompose_oracle(algebra, warm)
    decompose(pd, warm)
    run_all(pd, warm)
    builds = []
    tagged_echelon = peirce.tagged_echelon

    def counted(*args):
        builds.append(args)
        return tagged_echelon(*args)

    monkeypatch.setattr(peirce, "tagged_echelon", counted)
    for seed in range(1, 4):
        phi = random_commuting_map(algebra, seed)
        assert decompose_oracle(algebra, phi) is not None
        for i in (1, 2):
            for x in pd.diagonal_center(i).basis:
                assert lift_central(pd, x, i) is not None
        assert all(r.passed for r in run_all(pd, phi))
        run_all(pd, _perturbed(algebra, seed))
    assert builds == [], label


# ----------------------------------------------------------------------
# one suite run evaluates each thing once


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records its arguments; returns the record."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_run_applies_phi_once_per_input(monkeypatch):
    """phi meets each of 1, e1, e2 and the Peirce basis vectors at most once, phi's
    columns are split into their Peirce parts exactly once per run, as the split's
    stacked projectors @ phi and by no other product, no image goes through
    PeirceData.split, each input's parts are formed at most once, and each lift is
    formed at most once per split, across all its runs.  The splits are fresh, so no
    earlier test has formed their lifts."""
    applied = _counting(monkeypatch, LinearMap, "__call__")
    split = _counting(monkeypatch, PeirceData, "split")
    products = _counting(monkeypatch, Matrix, "__matmul__")
    parted = _counting(monkeypatch, Images, "_split")
    lifted = _counting(monkeypatch, lemmas, "lift_central")
    for algebra, e1 in (matrix_algebra(Q, 3), zorn(Q), matrix_algebra(PrimeField(5), 2)):
        pd = peirce_decompose(algebra, e1)
        inputs = {x.coords for comp in pd.components.values() for x in comp.basis}
        inputs |= {pd.e1.coords, pd.e2.coords, find_unit(pd.algebra).coords}
        lifted.clear()
        for phi in (random_commuting_map(pd.algebra, 4), scalar_map(pd.algebra)):
            for record in (applied, split, products, parted):
                record.clear()
            assert all(r.passed for r in run_all(pd, phi))
            seen = [x.coords for _, x in applied]
            assert seen and len(seen) == len(set(seen)) and set(seen) <= inputs
            assert split == []
            assert len(products) == 1
            assert products[0][0] is pd.stacked and products[0][1] is phi.matrix
            parts = [x.coords for _, x in parted]
            assert parts and len(parts) == len(set(parts)) and set(parts) <= inputs
        lifts = [(x.coords, i) for _, x, i in lifted]
        assert lifts and len(lifts) == len(set(lifts))
    pd = peirce_decompose(*matrix_algebra(Q, 3))
    psi = _perturbed(pd.algebra, 2)
    applied.clear()
    products.clear()
    assert {r.status for r in run_all(pd, psi)} == {"not-applicable"}
    assert applied == [] and products == []


SPLIT_CASES = ["M3(Q)", "Zorn(F5)", "M2(Q)+M2(Q)", "CD3(Q)"]


def _split_cases():
    """(label, PeirceData) for SPLIT_CASES: CD3(Q) at (1 + i)/2 has Fraction entries
    in its projectors."""
    m2 = matrix_algebra(Q, 2)[0]
    mm = direct_sum(m2, m2)
    e11 = [Q.one] + [Q.zero] * 3
    cd3, half = cayley_dickson_algebra(Q, [Q.one, Q.from_int(-1), Q.one])
    return [("M3(Q)", peirce_decompose(*matrix_algebra(Q, 3))),
            ("Zorn(F5)", peirce_decompose(*zorn(PrimeField(5)))),
            ("M2(Q)+M2(Q)", peirce_decompose(mm, mm.element(e11 + e11))),
            ("CD3(Q)", peirce_decompose(cd3, half))]


@pytest.mark.parametrize("label", SPLIT_CASES)
def test_image_parts_are_the_split_of_each_image(label):
    """For each input the suite reads, every part Images forms from the split columns is
    pd.split(phi(x)), text included; central(x) is is_central of the diagonal part, and
    bracket(x, y) is commutator(diag(x), y) for every basis vector y."""
    pd = dict(_split_cases())[label]
    algebra = pd.algebra
    inputs = [x for comp in pd.components.values() for x in comp.basis]
    inputs += [pd.e1, pd.e2, find_unit(algebra)]
    if label == "CD3(Q)":
        assert any(isinstance(a, Fraction) for P in projector_blocks(pd).values()
                   for col in P.columns for a in col.values())
    basis = [algebra.basis_element(k) for k in range(algebra.dim)]
    central_seen = set()
    for phi in (random_commuting_map(algebra, 3), _perturbed(algebra, 5),
                LinearMap(algebra, mult_matrix(algebra, algebra.basis_coords(1), "right"))):
        images = Images(pd, phi)
        for x in inputs:
            want = pd.split(phi(x))
            for (i, j), part in want.items():
                got = images.part(i, j, x)
                assert got == part and got.to_strings() == part.to_strings(), (label, x, i, j)
            diag = want[(1, 1)] + want[(2, 2)]
            assert images.diag(x) == diag
            assert images.central(x) is is_central(algebra, diag)
            central_seen.add(images.central(x))
            for y in basis:
                got = images.bracket(x, y)
                want_bracket = commutator(diag, y)
                assert got == want_bracket and got.to_strings() == want_bracket.to_strings()
    assert central_seen == {True, False}


class DenseImages(Images):
    """Images read the way the suite read them before: each image applied and split
    by pd.split, centrality asked afresh and every bracket formed."""

    def part(self, i, j, x):
        return self.pd.split(self.phi(x))[(i, j)]

    def central(self, x):
        return is_central(self.pd.algebra, self.diag(x))

    def bracket(self, y, x):
        return commutator(self.diag(y), x)


def _checked_cases():
    """(PeirceData, map): the frozen maps, then a seeded and a perturbed map per split case."""
    cases = [(pd, phi) for _, pd, phi in _frozen_cases()]
    for _, pd in _split_cases():
        cases += [(pd, random_commuting_map(pd.algebra, 2)), (pd, _perturbed(pd.algebra, 3))]
    return cases


@pytest.mark.parametrize("lid", LEMMA_IDS[2:])
def test_the_checks_read_what_dense_images_read(lid):
    """L3-L9 give the same (ok, witness, notes) from the split columns, with central
    brackets skipped, as from DenseImages, on the frozen maps and on seeded and
    perturbed maps over the split cases."""
    cases = _checked_cases()
    got = [_EVALS[lid](pd, Images(pd, phi)) for pd, phi in cases]
    assert got == [_EVALS[lid](pd, DenseImages(pd, phi)) for pd, phi in cases]
    assert {ok for ok, _, _ in got} == {True, False}


def reference_l8(pd, phi):
    """L8's verdict and first failing (x, y, [diag(x), y]), every pair bracketed densely."""
    for (i, j) in ((1, 2), (2, 1)):
        for x in pd.components[(i, j)].basis:
            parts = pd.split(phi(x))
            diag = parts[(1, 1)] + parts[(2, 2)]
            for y in pd.components[(j, i)].basis:
                c = commutator(diag, y)
                if not c.is_zero():
                    return False, [x.to_strings(), y.to_strings(), c.to_strings()]
    return True, None


def test_l8_brackets_every_pair_whose_diagonal_part_is_not_central():
    """L8, which skips each x whose diagonal part is central, fails exactly where the
    dense pair-by-pair reference does, at the same pair."""
    verdicts = []
    for pd, phi in _checked_cases():
        ok, witness, _ = _EVALS["L8"](pd, Images(pd, phi))
        got = (ok, None if ok else [witness["x"], witness["y"], witness["commutator"]])
        assert got == reference_l8(pd, phi)
        verdicts.append(ok)
    assert set(verdicts) == {True, False}


def test_the_commuting_check_runs_once_per_map(m3q_pd, monkeypatch):
    """decompose then run_all check phi once; phi + extra is a new map and is checked again."""
    from altcomm import commuting

    checked = _counting(monkeypatch, commuting, "_pair_sums")
    phi = random_commuting_map(m3q_pd.algebra, 2)
    decompose(m3q_pd, phi)
    assert all(r.passed for r in run_all(m3q_pd, phi))
    assert [args[1] for args in checked] == [phi]
    psi = _perturbed(m3q_pd.algebra, 2)
    for _ in range(2):
        assert {r.status for r in run_all(m3q_pd, psi)} == {"not-applicable"}
    assert [args[1] for args in checked] == [phi, psi]


def test_a_second_run_on_the_same_split_builds_no_l1_or_l2_lift(monkeypatch):
    """L1 and L2 are evaluated on the first run past the gate, then read from the split,
    and no lift is formed twice on one split: a later run forms only lifts no earlier
    run formed, and L3-L5 on a map already run form none."""
    pd = peirce_decompose(*matrix_algebra(Q, 3))
    run_all(pd, _perturbed(pd.algebra, 1))
    assert "L1" not in pd._memo and "L2" not in pd._memo, "a gated run caches no lemma"
    assert not any(key[0] == "lift_failure" for key in pd._memo if isinstance(key, tuple))
    lifts = _counting(monkeypatch, lemmas, "lift_central")
    phi = random_commuting_map(pd.algebra, 3)
    first = [r.to_dict() for r in run_all(pd, phi)]
    assert all(r["status"] == "pass" for r in first) and lifts

    def refuse(pd, images):
        raise AssertionError("L1 and L2 are read from the split's cache")

    monkeypatch.setitem(lemmas._EVALS, "L1", refuse)
    monkeypatch.setitem(lemmas._EVALS, "L2", refuse)
    for seed in (3, 4, 5):
        again = [r.to_dict() for r in run_all(pd, random_commuting_map(pd.algebra, seed))]
        assert again[:2] == first[:2] and all(r["status"] == "pass" for r in again)
        made = len(lifts)
        images = Images(pd, random_commuting_map(pd.algebra, seed))
        for lid in ("L3", "L4", "L5"):
            assert _EVALS[lid](pd, images)[0]
        assert len(lifts) == made, "L3-L5 read the lifts of a run on this split"
    formed = [(x.coords, i) for _, x, i in lifts]
    assert len(formed) == len(set(formed)), "no lift is formed twice on one split"


def test_a_cached_report_gets_its_own_witness(monkeypatch):
    """A failing L1 is cached with its witness; each run's report holds its own copy."""
    pd = peirce_decompose(*matrix_algebra(Q, 2))
    witness = {"equation": "forced", "direct_basis": [["1", "0", "0", "1"]]}
    monkeypatch.setitem(lemmas._EVALS, "L1", lambda pd, images: (False, witness, "forced"))
    phi = scalar_map(pd.algebra)
    first, second = run_all(pd, phi)[0], run_all(pd, phi)[0]
    assert first.status == second.status == "fail" and first.witness == second.witness == witness
    assert witness is not first.witness is not second.witness is not witness
    first.witness["direct_basis"][0].append("mutated")
    assert second.witness == witness == {"equation": "forced",
                                         "direct_basis": [["1", "0", "0", "1"]]}
    assert run_all(pd, phi)[0].witness == witness



# ----------------------------------------------------------------------
# lift verdicts are memoised on the split and shared by its runs


def tri_control():
    """Tri(Q[eps], Q[eps], Q) split at 1_A, and its commuting map of nonstandard form.

    The triangular algebra [[Q[eps], M], [0, Q]], M = Q[eps], eps^2 = 0, on
    the basis 1_A, eps, m, eps m, 1_B; the map sends 1_A to eps, 1_B to -eps,
    m to eps m and the rest to 0 (Cheung's failure mode).  Regularity fails
    at e1, so run_all is gated; ungated, L2 and L4 name parts with no lift.
    """
    one = Q.one
    entries = [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (0, 2, 2, one),
               (1, 2, 3, one), (0, 3, 3, one), (2, 4, 2, one), (3, 4, 3, one),
               (4, 4, 4, one)]
    algebra = Algebra("Tri(Q[eps],Q[eps],Q)", Q, 5, ["1A", "eps", "m", "epsm", "1B"],
                      entries, unit=[one, 0, 0, 0, one])
    cols = [[Q.zero] * 5 for _ in range(5)]
    cols[0][1], cols[2][3], cols[4][1] = one, one, -one
    return peirce_decompose(algebra, algebra.basis_element(0)), \
        LinearMap(algebra, columns_matrix(Q, cols))


def _lift_memo_cases():
    """(label, PeirceData, maps): seeded and perturbed maps and every right
    multiplication on the split cases, and the Tri control with seeded maps."""
    cases = []
    for label, pd in _split_cases():
        algebra = pd.algebra
        maps = [random_commuting_map(algebra, seed) for seed in (0, 1)]
        maps += [_perturbed(algebra, seed) for seed in (2, 3)]
        maps += [LinearMap(algebra, mult_matrix(algebra, algebra.basis_coords(k), "right"))
                 for k in range(algebra.dim)]
        cases.append((label, pd, maps))
    pd, control = tri_control()
    cases.append(("Tri control", pd, [control, random_commuting_map(pd.algebra, 0),
                                      scalar_map(pd.algebra)]))
    return cases


def _mutate(witness):
    """Change a witness in place at every level: each list grows, the dict gains a key."""
    if witness is not None:
        for value in witness.values():
            if isinstance(value, list):
                value.append("mutated")
        witness["mutated"] = True


@pytest.mark.parametrize("label", SPLIT_CASES + ["Tri control"])
def test_a_reused_split_answers_lifts_as_a_fresh_one(label):
    """L2-L5 give the same (ok, witness, notes) on a split whose earlier runs filled
    its lift memo as on a fresh split of the same algebra, map by map, and again after
    every witness those runs returned, and every run_all report's witness, was mutated.
    Some lifts fail on M3(Q), under right multiplications, and on the Tri control."""
    _, pd, maps = next(case for case in _lift_memo_cases() if case[0] == label)
    lids = ("L2", "L3", "L4", "L5")
    wants, reports = [], []
    for phi in maps:
        fresh = peirce_decompose(pd.algebra, pd.e1)
        want = [_EVALS[lid](fresh, Images(fresh, phi)) for lid in lids]
        got = [_EVALS[lid](pd, Images(pd, phi)) for lid in lids]
        assert got == want, (label, phi)
        wants.append(want)
        for _, witness, _ in got:
            _mutate(witness)
        runs = run_all(pd, phi)
        reports.append([r.to_dict() for r in runs])
        for r in runs:
            _mutate(r.witness)
    assert [[_EVALS[lid](pd, Images(pd, phi)) for lid in lids] for phi in maps] == wants
    assert [[r.to_dict() for r in run_all(pd, phi)] for phi in maps] == reports
    lift_fails = any(witness["equation"].startswith("z . e") for want in wants
                     for _, witness, _ in want if witness)
    assert lift_fails == (label in ("M3(Q)", "Tri control"))
    assert any(key[0] == "lift_failure" for key in pd._memo if isinstance(key, tuple))


def test_one_lift_verdict_serves_every_multiple(monkeypatch):
    """A lift verdict is memoised per direction: c x asks lift_central nothing new for
    any nonzero c, and its witness names c x itself.  Covers a part with no central lift
    (lift_gap_algebra's t), one refused as not central (2 E22 + E23 in M3(Q), whose
    entries differ), one that lifts (e2) and zero, which lifts on a split whose lift
    memo is empty.  A vector with e2's support but another direction is asked anew."""
    lifts = _counting(monkeypatch, lemmas, "lift_central")
    gap = lift_gap_algebra()
    m3 = matrix_algebra(Q, 3)[0]
    x = m3.basis_element(m3.label_index("E22")).scale(2) + \
        m3.basis_element(m3.label_index("E23"))
    cases = [(peirce_decompose(gap, gap.basis_element(1)), gap.basis_element(3),
              "no central lift exists"),
             (peirce_decompose(m3, m3.basis_element(0)), x,
              "element to lift is not central in its component")]
    for pd, x, problem in cases:
        zero = x.scale(Q.zero)
        assert lemmas._lift_failure(pd, zero, 2) is None and len(lifts) == 1
        for c in (1, 2, Fraction(-1, 3)):
            witness = lemmas._lift_failure(pd, x.scale(c), 2)
            assert witness == {"equation": "z . e2 = x for central z",
                               "x": x.scale(c).to_strings(), "problem": problem}
            assert lemmas._lift_failure(pd, pd.e2.scale(c), 2) is None
        assert len(lifts) == 3, "one lift per direction"
        keys = [key for key in pd._memo if isinstance(key, tuple) and key[0] == "lift_failure"]
        assert len(keys) == 3
        lifts.clear()
    pd, e33 = cases[1][0], m3.basis_element(m3.label_index("E33"))
    y = pd.e2 + e33                                   # e2's support, another direction
    assert lemmas._lift_failure(pd, y, 2)["problem"] == cases[1][2] and len(lifts) == 1


if __name__ == "__main__":
    _freeze()
