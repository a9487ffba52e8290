"""The nine-step check suite: gating, passing runs, and forced failures."""

import json
import os
import random
from fractions import Fraction

import pytest

from altcomm import (LEMMA_IDS, LinearMap, Matrix, PreconditionError, PrimeField,
                     RationalField, Subspace, cayley_dickson_algebra, center, commutator,
                     decompose, decompose_oracle, direct_sum, find_unit, is_central,
                     lift_central, matrix_algebra, peirce, peirce_decompose,
                     random_commuting_map, run_all, run_lemma, scalar_algebra, zorn)
from altcomm import lemmas
from altcomm.algebra import Element
from altcomm.lemmas import _EVALS, Images

from test_associator import columns_matrix, mult_matrix, scalar_map
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
    shared = images.lift_failure(images.part(2, 2, e21), 2)
    assert "basis_vector" not in shared, "the memoised witness is not mutated"


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
    """Two PeirceData on one algebra share its span cache; every key must name its e_i."""
    label, algebra, *idempotents = _two_split_cases()[case]
    assert center(algebra).dim == 2
    pds = [peirce_decompose(algebra, algebra.element(idempotents[k])) for k in order]
    for pd in pds:
        for seed in range(3):
            assert all(r.passed for r in run_all(pd, random_commuting_map(algebra, seed))), label
            phi = _perturbed(algebra, seed)
            got = {lid: _EVALS[lid](pd, Images(pd, phi)) for lid in SPAN_LEMMAS}
            with monkeypatch.context() as patch:
                patch.setattr(lemmas, "lift_central", _reference_lift)
                patch.setattr(lemmas, "express_central", _reference_span)
                want = {lid: _EVALS[lid](pd, Images(pd, phi)) for lid in SPAN_LEMMAS}
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


def test_one_run_applies_phi_once_per_input(m3q_pd, zornq_pd, m2f5_pd, monkeypatch):
    """phi meets each of 1, e1, e2 and the Peirce basis vectors at most once, phi's
    columns are split into their Peirce parts exactly once per run, no image goes
    through PeirceData.split, each input's parts are formed at most once, and each
    lift is formed at most once."""
    applied = _counting(monkeypatch, LinearMap, "__call__")
    split = _counting(monkeypatch, type(m3q_pd), "split")
    columns = _counting(monkeypatch, lemmas, "_column_parts")
    parted = _counting(monkeypatch, Images, "_split")
    lifted = _counting(monkeypatch, lemmas, "lift_central")
    for pd in (m3q_pd, zornq_pd, m2f5_pd):
        inputs = {x.coords for comp in pd.components.values() for x in comp.basis}
        inputs |= {pd.e1.coords, pd.e2.coords, find_unit(pd.algebra).coords}
        for phi in (random_commuting_map(pd.algebra, 4), scalar_map(pd.algebra)):
            for record in (applied, split, columns, parted, lifted):
                record.clear()
            assert all(r.passed for r in run_all(pd, phi))
            seen = [x.coords for _, x in applied]
            assert seen and len(seen) == len(set(seen)) and set(seen) <= inputs
            assert split == []
            assert len(columns) == 1 and columns[0][0] is pd and columns[0][1] is phi
            parts = [x.coords for _, x in parted]
            assert parts and len(parts) == len(set(parts)) and set(parts) <= inputs
            lifts = [(x.coords, i) for _, x, i in lifted]
            assert lifts and len(lifts) == len(set(lifts))
    applied.clear()
    columns.clear()
    assert {r.status for r in run_all(m3q_pd, _perturbed(m3q_pd.algebra, 2))} == \
        {"not-applicable"} and applied == [] and columns == []


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
        assert any(isinstance(a, Fraction) for P in pd.projectors.values()
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
    """L1 and L2 are evaluated on the first run past the gate, then read from the split."""
    pd = peirce_decompose(*matrix_algebra(Q, 3))
    run_all(pd, _perturbed(pd.algebra, 1))
    assert "L1" not in pd._memo and "L2" not in pd._memo, "a gated run caches no lemma"
    phi = random_commuting_map(pd.algebra, 3)
    first = [r.to_dict() for r in run_all(pd, phi)]
    assert all(r["status"] == "pass" for r in first)

    def refuse(pd, images):
        raise AssertionError("L1 and L2 are read from the split's cache")

    monkeypatch.setitem(lemmas._EVALS, "L1", refuse)
    monkeypatch.setitem(lemmas._EVALS, "L2", refuse)
    lifts = _counting(monkeypatch, lemmas, "lift_central")
    for seed in (3, 4):
        lifts.clear()
        again = [r.to_dict() for r in run_all(pd, random_commuting_map(pd.algebra, seed))]
        assert again[:2] == first[:2] and all(r["status"] == "pass" for r in again)
        made = list(lifts)
        lifts.clear()
        images = Images(pd, random_commuting_map(pd.algebra, seed))
        for lid in ("L3", "L4", "L5"):
            assert _EVALS[lid](pd, images)[0]
        assert made == lifts, "every lift of the second run is one of L3-L5's"


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


if __name__ == "__main__":
    _freeze()
