"""Ten release criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines
as they happen; without -s they appear in captured output on failure.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from altcomm import (LEMMA_IDS, LinearMap, Matrix, PrimeField, RationalField,
                     associator, center, center_via_peirce, commutator, decompose,
                     decompose_oracle, direct_sum, exhaustive_commuting_check,
                     find_unit, hypothesis_check, is_alternative,
                     is_anti_commuting, is_commuting, matrix_algebra,
                     peirce_decompose, prime_check_exhaustive,
                     random_commuting_map, random_map_parts, run_all,
                     save_algebra, save_map, scalar_algebra, zorn)
from altcomm.cli import main
from altcomm.constructions import cayley_dickson_algebra

from test_associator import columns_matrix

Q = RationalField()
F5 = PrimeField(5)

SWEEP_SEEDS = 100


def record(criterion: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def builtins():
    return [matrix_algebra(Q, 2), matrix_algebra(Q, 3), zorn(Q),
            matrix_algebra(F5, 2), zorn(F5)]


@pytest.fixture(scope="module")
def builtin_pds(builtins):
    return [(alg, peirce_decompose(alg, e)) for alg, e in builtins]


@pytest.fixture(scope="module")
def sweep(builtin_pds):
    """One pass over all builtins x seeds, shared by criteria 4 and 5."""
    results = []
    for alg, pd in builtin_pds:
        for seed in range(SWEEP_SEEDS):
            phi = random_commuting_map(alg, seed)
            built = decompose(pd, phi)
            solved = decompose_oracle(alg, phi)
            functional = solved is not None and all(
                built.z * b + built.xi(b) == solved.z * b + solved.xi(b) == phi(b)
                for b in (alg.basis_element(k) for k in range(alg.dim)))
            reports = run_all(pd, phi)
            results.append({
                "algebra": alg.name, "seed": seed,
                "verified": built.verified,
                "oracle_agrees": functional,
                "lemmas_passed": sum(r.passed for r in reports),
                "failures": [(r.lemma_id, r.witness, r.notes)
                             for r in reports if not r.passed],
            })
    return results


def test_criterion_1_alternativity_classification():
    checked = 0
    ok = True
    for n in (2, 3):
        alg, _ = matrix_algebra(Q, n)
        alt, w = is_alternative(alg)
        ok = ok and alt and w is None
        checked += 1
    for steps in (1, 2, 3):
        for gammas in itertools.product((Q.one, Q.parse("-1")), repeat=steps):
            alg, _ = cayley_dickson_algebra(Q, list(gammas))
            alt, w = is_alternative(alg)
            ok = ok and alt and w is None
            checked += 1
    sed, _ = cayley_dickson_algebra(Q, [Q.one] * 4)
    alt, w = is_alternative(sed)
    witness_real = (not alt and w is not None
                    and not associator(*w).is_zero())
    ok = ok and witness_real
    z, _ = zorn(Q)
    alt, w = is_alternative(z)
    ok = ok and alt and w is None
    from altcomm import is_associative
    assoc, triple = is_associative(z)
    ok = ok and not assoc and not associator(*triple).is_zero()
    record(1, ok, f"{checked} algebras alternative, dim-16 doubling refuted")


def test_criterion_2_peirce_relations(builtin_pds):
    expected = {"M2(Q)": (1, 1, 1, 1), "M3(Q)": (1, 2, 2, 4),
                "Zorn(Q)": (1, 3, 3, 1), "Zorn(F5)": (1, 3, 3, 1)}
    ok = True
    for alg, pd in builtin_pds:
        if alg.name not in expected:
            continue
        ok = ok and pd.dims() == expected[alg.name]
        from altcomm import check_peirce_relations
        ok = ok and all(r["pass"] for r in check_peirce_relations(pd))
    record(2, ok, "4 algebras, dims and 20 relations each")


def test_criterion_3_center_two_ways(builtin_pds):
    ok = True
    count = 0
    for alg, pd in builtin_pds:
        (h1, _), (h2, _) = pd.hypothesis()
        if h1 and h2:
            ok = ok and center_via_peirce(pd) == center(alg)
            count += 1
    ok = ok and count == 5
    record(3, ok, f"subspace equality on {count} algebras")


def test_criterion_4_round_trip(sweep):
    bad = [r for r in sweep if not (r["verified"] and r["oracle_agrees"])]
    record(4, not bad,
           f"{len(sweep)} decompositions verified, construction == solver")
    assert not bad, bad[:3]


def test_criterion_5_lemma_sweep(sweep):
    bad = [r for r in sweep if r["lemmas_passed"] != len(LEMMA_IDS)]
    for r in bad[:3]:
        print(f"  lemma failures on {r['algebra']} seed {r['seed']}:")
        for lid, witness, notes in r["failures"]:
            print(f"    {lid}: {notes} witness={witness}")
    record(5, not bad, f"9/9 checks on {len(sweep)} runs")


def test_criterion_6_polarization_oracle():
    alg, e11 = matrix_algebra(F5, 2)
    rng = random.Random(2024)
    disagreements = 0
    for trial in range(100):
        if trial % 2 == 0:
            phi = random_commuting_map(alg, trial)
        else:
            data = [[F5.from_int(rng.randrange(5)) for _ in range(4)]
                    for _ in range(4)]
            phi = LinearMap(alg, Matrix(F5, data))
        fast, _ = is_commuting(alg, phi)
        full, _ = exhaustive_commuting_check(alg, phi)
        if fast != full:
            disagreements += 1
    record(6, disagreements == 0,
           "100 maps, bilinear shortcut == 625-element enumeration")


def test_criterion_7_hypothesis_and_primeness(builtins):
    ok = True
    for alg, e in builtins:
        if alg.field is not Q and alg.field.label != "Q":
            continue
        (h1, _), (h2, _) = hypothesis_check(alg, e)
        ok = ok and h1 and h2
    ff = direct_sum(scalar_algebra(F5), scalar_algebra(F5))
    (h1, w1), (h2, w2) = hypothesis_check(ff, ff.element([F5.one, F5.zero]))
    ok = ok and not h1 and not h2 and w1 is not None and w2 is not None
    m2, _ = matrix_algebra(Q, 2)
    qm = direct_sum(scalar_algebra(Q), m2)
    (h1, w1), (h2, w2) = hypothesis_check(
        qm, qm.element([Q.one] + [Q.zero] * 4))
    ok = ok and not h1 and not h2 and w1 is not None and w2 is not None

    for alg, _ in (matrix_algebra(F5, 2), zorn(F5)):
        prime, w = prime_check_exhaustive(alg)
        ok = ok and prime and w is None
    prime, pair = prime_check_exhaustive(ff)
    ok = ok and not prime and pair is not None
    if pair:
        a, b = pair
        annihilates = all(((a * ff.basis_element(k)) * b).is_zero()
                          for k in range(ff.dim))
        ok = ok and annihilates and not a.is_zero() and not b.is_zero()
    record(7, ok, "regularity on 5 builtins + 2 refusals; primeness 2 + 1")


def test_criterion_8_negative_controls(tmp_path, monkeypatch):
    alg, e11 = matrix_algebra(Q, 2)
    cols = []
    for i in range(2):
        for j in range(2):
            c = [Fraction(0)] * 4
            c[j * 2 + i] = Fraction(1)
            cols.append(c)
    transpose = LinearMap(alg, columns_matrix(Q, cols))
    ok_flag, witness = is_commuting(alg, transpose)
    ok = not ok_flag and witness is not None
    ok = ok and decompose_oracle(alg, transpose) is None

    monkeypatch.chdir(tmp_path)
    save_algebra(alg, "m2q.json")
    with open("m2q.idem.json", "w") as fh:
        json.dump({"coords": e11.to_strings()}, fh)
    save_map(transpose, "tr.json")
    r = CliRunner().invoke(main, ["decompose", "m2q.json", "-e",
                                  "m2q.idem.json", "--map", "tr.json"])
    ok = ok and r.exit_code == 1 and "witness" in r.output
    record(8, ok, "transpose refused everywhere, exit code 1")


def test_criterion_9_anti_commuting_probe(builtins):
    instances = 0
    equivalence_held = 0
    forward_ok = True
    for alg, _ in builtins:
        pairs = [(alg.basis_element(i), alg.basis_element(j))
                 for i in range(alg.dim) for j in range(alg.dim)]
        for seed in range(50):
            phi, z, _xi = random_map_parts(alg, seed)
            anti, _ = is_anti_commuting(alg, phi)
            kills = all((z * commutator(x, y)).is_zero() for x, y in pairs)
            instances += 1
            if anti and not kills:
                forward_ok = False
            if anti == kills:
                equivalence_held += 1
    record(9, forward_ok,
           f"anti-commuting implies z kills commutators; equivalence "
           f"observed on {equivalence_held}/{instances} instances")


CLI_RUNS = [
    (["gen", "matrix", "--n", "2"], 0),
    (["gen", "matrix", "--n", "2", "--field", "p5"], 0),
    (["gen", "zorn", "--field", "p5"], 0),
    (["gen", "cayley-dickson", "--steps", "2"], 0),
    (["gen", "direct-sum", "--left", "m2q.json", "--right", "m2q.json",
      "--out", "mm.json"], 0),
    (["verify", "m2q.json"], 0),
    (["center", "zornf5.json"], 0),
    (["nucleus", "m2q.json"], 0),
    (["peirce", "zornf5.json", "-e", "zornf5.idem.json"], 0),
    (["hypothesis", "m2f5.json", "-e", "m2f5.idem.json"], 0),
    (["hypothesis", "qq.json", "-e", "1,0"], 1),
    (["prime", "m2f5.json"], 0),
    (["prime", "f5f5.json"], 1),
    (["prime", "m2q.json"], 2),
    (["check-map", "m2f5.json", "--map", "random", "--seed", "2"], 0),
    (["decompose", "m2q.json", "-e", "m2q.idem.json", "--map", "random",
      "--seed", "2"], 0),
    (["decompose", "m2q.json", "-e", "m2q.idem.json", "--map", "tr.json"], 1),
    (["lemmas", "zornf5.json", "-e", "zornf5.idem.json", "--map", "random",
      "--seed", "7"], 0),
    (["oracle", "m2f5.json", "--map", "random", "--seed", "3"], 0),
    (["oracle", "m2q.json", "--map", "random"], 2),
    (["peirce", "m2q.json", "-e", "0,1,0,0"], 2),
    (["verify", "no-such-file.json"], 2),
]


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    alg, e11 = matrix_algebra(Q, 2)
    save_algebra(direct_sum(scalar_algebra(Q), scalar_algebra(Q)), "qq.json")
    save_algebra(direct_sum(scalar_algebra(F5), scalar_algebra(F5)),
                 "f5f5.json")
    cols = []
    for i in range(2):
        for j in range(2):
            c = [Fraction(0)] * 4
            c[j * 2 + i] = Fraction(1)
            cols.append(c)
    save_map(LinearMap(alg, columns_matrix(Q, cols)), "tr.json")

    ok = True
    for args, want_code in CLI_RUNS:
        plain = runner.invoke(main, args)
        if plain.exit_code != want_code:
            print(f"  exit code for {args}: got {plain.exit_code}, "
                  f"want {want_code}")
            ok = False
        full = args + ["--format", "json", "--deterministic"]
        a = runner.invoke(main, full)
        b = runner.invoke(main, full)
        if a.output != b.output:
            print(f"  non-deterministic output for {args}")
            ok = False
        if a.exit_code != want_code:
            print(f"  json exit code for {args}: got {a.exit_code}")
            ok = False
        if want_code != 2:
            doc = json.loads(a.output)
            if "generated_at" in doc or "report" not in doc:
                print(f"  bad envelope for {args}")
                ok = False
    record(10, ok, f"{len(CLI_RUNS)} invocations, twice each, byte-identical")
