"""End-to-end CLI coverage: every subcommand, both formats, all exit codes."""

import errno
import json
import os
import time

import pytest
from click.testing import CliRunner

from altcomm import (Algebra, RationalField, direct_sum, save_algebra, save_map,
                     scalar_algebra)
from altcomm import cli
from altcomm.cli import main

from test_associator import scalar_map
from test_commuting import transpose_map
from test_peirce_reference import orthogonality_violator

Q = RationalField()


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(runner, tmp_path, monkeypatch):
    """CliRunner working inside a temp dir preloaded with algebra files."""
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(main, ["gen", "matrix", "--n", "2"])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["gen", "matrix", "--n", "2", "--field", "p5"])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["gen", "zorn", "--field", "p5"])
    assert r.exit_code == 0, r.output
    d = direct_sum(scalar_algebra(Q), scalar_algebra(Q))
    save_algebra(d, tmp_path / "qq.json")
    return tmp_path


def invoke(runner, args):
    return runner.invoke(main, args)


# ----------------------------------------------------------------------
# generation


def test_gen_matrix_files(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = invoke(runner, ["gen", "matrix", "--n", "3"])
    assert r.exit_code == 0
    assert os.path.exists("m3q.json")
    assert os.path.exists("m3q.idem.json")
    idem = json.load(open("m3q.idem.json"))
    assert idem["coords"] == ["1"] + ["0"] * 8


def test_gen_zorn_and_cd(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert invoke(runner, ["gen", "zorn"]).exit_code == 0
    assert os.path.exists("zornq.json")
    r = invoke(runner, ["gen", "cayley-dickson", "--steps", "3"])
    assert r.exit_code == 0, r.output
    assert os.path.exists("cd3q111.json")
    assert os.path.exists("cd3q111.idem.json")
    # all-negative gammas leave no split idempotent to write
    r = invoke(runner, ["gen", "cayley-dickson", "--steps", "2",
                        "--gammas", "-1,-1"])
    assert r.exit_code == 0, r.output
    assert os.path.exists("cd2qm1m1.json")
    assert not os.path.exists("cd2qm1m1.idem.json")


def test_gen_direct_sum(runner, workdir):
    r = invoke(runner, ["gen", "direct-sum", "--left", "m2q.json",
                        "--right", "m2q.json", "--out", "m2m2.json"])
    assert r.exit_code == 0, r.output
    assert os.path.exists("m2m2.json")
    assert os.path.exists("m2m2.idem.json")
    r = invoke(runner, ["verify", "m2m2.json"])
    assert r.exit_code == 0, r.output
    # M2(Q) (+) the 2-dimensional algebra with zero product has no unit, so no -e accepts 1 (+) 0
    save_algebra(Algebra("zero2", Q, 2, ["a", "b"], []), "zero2.json")
    r = invoke(runner, ["gen", "direct-sum", "--left", "m2q.json", "--right", "zero2.json",
                        "--out", "sum.json", "--format", "json", "--deterministic"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["report"]["idempotent"] is None
    assert os.path.exists("sum.json") and not os.path.exists("sum.idem.json")


def test_gen_usage_errors(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert invoke(runner, ["gen", "matrix", "--n", "0"]).exit_code == 2
    assert invoke(runner, ["gen", "matrix", "--field", "p4"]).exit_code == 2
    assert invoke(runner, ["gen", "matrix", "--field", "p2"]).exit_code == 2
    r = invoke(runner, ["gen", "matrix", "--field", "zz"])
    assert_usage_error(r)
    assert "unknown field 'zz'" in r.output
    assert invoke(runner, ["gen", "cayley-dickson", "--steps", "2",
                           "--gammas", "1"]).exit_code == 2
    assert invoke(runner, ["gen", "cayley-dickson", "--steps", "2",
                           "--gammas", "0,1"]).exit_code == 2


@pytest.mark.parametrize("gen_args", [["matrix", "--n", "2"],
                                      ["direct-sum", "--left", "m2q.json", "--right", "m2q.json"]])
def test_unwritable_out_is_a_usage_error(runner, workdir, gen_args):
    os.mkdir("taken")
    for out in ("missing/out.json", "taken"):
        r = invoke(runner, ["gen", *gen_args, "--out", out])
        assert_usage_error(r)
        assert "cannot write output file" in r.output, out


def test_a_refused_out_leaves_no_file_it_created(runner, workdir, monkeypatch):
    """A refused --out creates no file, not even a temporary one, and changes none."""
    # (--out, directories and then files ("{}") there before the call, the path refused)
    cases = [("x.json", ["x.idem.json"], [], "x.idem.json"),
             ("y.json", ["y.idem.json"], ["y.json"], "y.idem.json"),
             ("z.json", ["z.json"], ["z.idem.json"], "z.json")]
    for out, dirs, files, refused in cases:
        for name in dirs:
            os.mkdir(name)
        for name in files:
            with open(name, "w") as fh:
                fh.write("{}")
        before = sorted(os.listdir())
        r = invoke(runner, ["gen", "matrix", "--n", "2", "--out", out])
        assert_usage_error(r)
        assert f"cannot write output file {refused}: Is a directory" in r.output, out
        assert sorted(os.listdir()) == before, out
        for name in files:
            with open(name) as fh:
                assert fh.read() == "{}", (out, name)
    # The idempotent's write fails after the algebra's has succeeded.
    write_json = cli.write_json

    def failing(path, doc):
        if ".idem.json" in path:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_json(path, doc)

    monkeypatch.setattr(cli, "write_json", failing)
    with open("w.json", "w") as fh:
        fh.write("{}")
    before = sorted(os.listdir())
    r = invoke(runner, ["gen", "matrix", "--n", "2", "--out", "w.json"])
    assert_usage_error(r)
    assert "cannot write output file w.idem.json: No space left on device" in r.output
    assert sorted(os.listdir()) == before
    with open("w.json") as fh:
        assert fh.read() == "{}"


def test_fractions_over_a_prime_field(runner, workdir):
    """F_p scalar text is rational text: a/b is a b^-1 mod p, and p | b is refused."""
    for name, entry in (("half.json", "1/2"), ("fifth.json", "1/5")):
        with open(name, "w") as fh:
            json.dump({"dim": 4, "matrix": [[entry if i == j else "0" for j in range(4)]
                                            for i in range(4)]}, fh)
    r = invoke(runner, ["check-map", "m2f5.json", "--map", "half.json"])
    assert r.exit_code == 0 and "commuting: yes" in r.output
    r = invoke(runner, ["check-map", "m2f5.json", "--map", "fifth.json"])
    assert_usage_error(r)
    assert "scalar '1/5' has a zero denominator" in r.output
    r = invoke(runner, ["peirce", "m2f5.json", "-e", "1/1,0,0,0"])
    assert r.exit_code == 0, r.output
    assert invoke(runner, ["peirce", "m2f5.json", "-e", "1,0,0,0"]).output == r.output


# ----------------------------------------------------------------------
# verification and structure reports


def test_verify_pass_and_fail(runner, workdir):
    r = invoke(runner, ["verify", "m2q.json"])
    assert r.exit_code == 0
    assert "alternative" in r.output
    # hand-broken structure: a*a = b, a*b = a is not alternative
    bad = {"name": "na", "field": {"kind": "rational"}, "dim": 2,
           "basis": ["a", "b"],
           "structure": [[0, 0, 1, "1"], [0, 1, 0, "1"]]}
    with open("bad.json", "w") as fh:
        json.dump(bad, fh)
    r = invoke(runner, ["verify", "bad.json"])
    assert r.exit_code == 1
    assert "alternative: NO" in r.output
    assert "witness triple" in r.output


def test_center_nucleus_reports(runner, workdir):
    r = invoke(runner, ["center", "zornf5.json"])
    assert r.exit_code == 0
    assert "dimension 1" in r.output
    r = invoke(runner, ["nucleus", "zornf5.json"])
    assert r.exit_code == 0
    assert "dimension 1" in r.output
    r = invoke(runner, ["nucleus", "m2q.json"])
    assert "dimension 4" in r.output


def test_peirce_report(runner, workdir):
    r = invoke(runner, ["peirce", "zornf5.json", "-e", "zornf5.idem.json"])
    assert r.exit_code == 0, r.output
    assert "(1, 3, 3, 1)" in r.output
    assert "relations: 20/20 ok" in r.output


def test_peirce_usage_and_failure_exits(runner, workdir):
    # not an idempotent: usage error
    r = invoke(runner, ["peirce", "m2q.json", "-e", "0,1,0,0"])
    assert r.exit_code == 2
    # the unit is excluded
    r = invoke(runner, ["peirce", "m2q.json", "-e", "1,0,0,1"])
    assert r.exit_code == 2


def test_refused_split_is_emitted_in_the_requested_format(runner, workdir):
    save_algebra(orthogonality_violator(), "orth.json")
    for args in (["peirce"], ["decompose", "--map", "random"], ["lemmas", "--map", "random"]):
        command = [args[0], "orth.json", "-e", "e", *args[1:]]
        text = invoke(runner, command)
        assert text.exit_code == 1
        assert text.output.startswith("FAIL: Peirce projectors are not orthogonal")
        r = invoke(runner, command + ["--format", "json", "--deterministic"])
        assert r.exit_code == 1
        assert json.loads(r.output) == {"command": args[0],
                                        "report": {"error": text.output[6:].strip()}}


def test_hypothesis_pass(runner, workdir):
    r = invoke(runner, ["hypothesis", "m2f5.json", "-e", "m2f5.idem.json"])
    assert r.exit_code == 0, r.output
    assert "holds" in r.output


def test_hypothesis_failure_witness(runner, workdir):
    r = invoke(runner, ["hypothesis", "qq.json", "-e", "1,0"])
    assert r.exit_code == 1
    assert "0,1" in r.output


def test_prime_reports(runner, workdir):
    r = invoke(runner, ["prime", "m2f5.json"])
    assert r.exit_code == 0, r.output
    assert "prime" in r.output
    r = invoke(runner, ["prime", "m2q.json"])
    assert r.exit_code == 2  # needs a finite field
    save_algebra(direct_sum(scalar_algebra(Q), scalar_algebra(Q)), "unused.json")
    from altcomm import PrimeField
    F5 = PrimeField(5)
    save_algebra(direct_sum(scalar_algebra(F5), scalar_algebra(F5)), "f5f5.json")
    r = invoke(runner, ["prime", "f5f5.json"])
    assert r.exit_code == 1
    assert "1,0" in r.output and "0,1" in r.output
    r = invoke(runner, ["prime", "zornf5.json", "--budget", "1000"])
    assert r.exit_code == 2


# ----------------------------------------------------------------------
# maps: check, decompose, lemmas, oracle


def make_map_file(path, phi):
    save_map(phi, path)
    return str(path)


def test_check_map(runner, workdir):
    r = invoke(runner, ["check-map", "m2q.json", "--map", "random", "--seed", "4"])
    assert r.exit_code == 0, r.output
    assert "commuting" in r.output
    from altcomm import load_algebra
    algebra = load_algebra("m2q.json")
    make_map_file("tr.json", transpose_map(algebra))
    r = invoke(runner, ["check-map", "m2q.json", "--map", "tr.json"])
    assert r.exit_code == 1
    assert "witness" in r.output


def test_decompose_identity(runner, workdir):
    from altcomm import load_algebra
    algebra = load_algebra("m2q.json")
    make_map_file("id.json", scalar_map(algebra))
    r = invoke(runner, ["decompose", "m2q.json", "-e", "m2q.idem.json",
                        "--map", "id.json"])
    assert r.exit_code == 0, r.output
    assert "z  = 1,0,0,1" in r.output
    assert "verified" in r.output


def test_decompose_random_seeded(runner, workdir):
    r = invoke(runner, ["decompose", "zornf5.json", "-e", "zornf5.idem.json",
                        "--map", "random", "--seed", "7"])
    assert r.exit_code == 0, r.output
    assert "verified" in r.output


def test_decompose_non_commuting_witness(runner, workdir):
    from altcomm import load_algebra
    algebra = load_algebra("m2q.json")
    make_map_file("tr.json", transpose_map(algebra))
    r = invoke(runner, ["decompose", "m2q.json", "-e", "m2q.idem.json",
                        "--map", "tr.json"])
    assert r.exit_code == 1
    assert "FAIL" in r.output
    assert "x = 1,0,0,0" in r.output
    assert "y = 0,1,0,0" in r.output


def test_decompose_blocked_by_regularity(runner, workdir):
    from altcomm import load_algebra
    algebra = load_algebra("qq.json")
    make_map_file("qqid.json", scalar_map(algebra))
    r = invoke(runner, ["decompose", "qq.json", "-e", "1,0", "--map", "qqid.json"])
    assert r.exit_code == 1
    assert "FAIL" in r.output


def test_lemmas_all_pass(runner, workdir):
    r = invoke(runner, ["lemmas", "zornf5.json", "-e", "zornf5.idem.json",
                        "--map", "random", "--seed", "7"])
    assert r.exit_code == 0, r.output
    assert "9/9" in r.output
    for k in range(1, 10):
        assert f"L{k}" in r.output


def test_lemmas_blocked(runner, workdir):
    from altcomm import load_algebra
    algebra = load_algebra("m2q.json")
    make_map_file("tr.json", transpose_map(algebra))
    r = invoke(runner, ["lemmas", "m2q.json", "-e", "m2q.idem.json",
                        "--map", "tr.json"])
    assert r.exit_code == 1
    assert "0/9" in r.output
    assert "not applicable" in r.output or "n/a" in r.output


def test_oracle_command(runner, workdir):
    r = invoke(runner, ["oracle", "m2f5.json", "--map", "random", "--seed", "3"])
    assert r.exit_code == 0, r.output
    swap = [0, 2, 1, 3]                               # transpose: E12 <-> E21
    transpose = [["1" if swap[c] == r else "0" for c in range(4)] for r in range(4)]
    with open("tr5.json", "w") as fh:
        json.dump({"dim": 4, "matrix": transpose}, fh)
    r = invoke(runner, ["oracle", "m2f5.json", "--map", "tr5.json",
                        "--format", "json", "--deterministic"])
    assert r.exit_code == 1, r.output
    report = json.loads(r.output)["report"]
    assert report["commuting_everywhere"] is False
    assert report["witness"] == ["0", "1", "0", "0"]
    r = invoke(runner, ["oracle", "m2q.json", "--map", "random"])
    assert r.exit_code == 2  # rational fields cannot be enumerated


def test_seed_and_budget_only_where_they_are_read(runner, workdir):
    r = invoke(runner, ["verify", "m2q.json", "--seed", "3"])
    assert r.exit_code == 2
    assert "--seed" in r.output
    r = invoke(runner, ["center", "m2q.json", "--budget", "10"])
    assert r.exit_code == 2
    r = invoke(runner, ["prime", "m2f5.json", "--budget", "1000"])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["oracle", "m2f5.json", "--map", "random", "--seed", "3",
                        "--budget", "1000"])
    assert r.exit_code == 0, r.output


def test_prime_refuses_a_modulus_past_the_inverse_table_cap(runner, workdir):
    from altcomm import PrimeField
    save_algebra(scalar_algebra(PrimeField(1048583)), "big.json")
    start = time.perf_counter()
    r = invoke(runner, ["prime", "big.json", "--budget", "2000000"])
    assert r.exit_code == 2
    assert "inverse table" in r.output
    assert time.perf_counter() - start < 2


def test_map_element_parsing_forms(runner, workdir):
    # element given inline, as a basis label, and as a file must agree
    inline = invoke(runner, ["peirce", "m2q.json", "-e", "1,0,0,0"])
    by_label = invoke(runner, ["peirce", "m2q.json", "-e", "E11"])
    by_file = invoke(runner, ["peirce", "m2q.json", "-e", "m2q.idem.json"])
    assert inline.exit_code == by_label.exit_code == by_file.exit_code == 0
    assert inline.output == by_label.output == by_file.output


def test_bad_element_tokens(runner, workdir):
    assert invoke(runner, ["peirce", "m2q.json", "-e", "1,0,0"]).exit_code == 2
    assert invoke(runner, ["peirce", "m2q.json", "-e", "nosuch"]).exit_code == 2
    assert invoke(runner, ["hypothesis", "m2q.json", "-e", "1,0,oops,0"]).exit_code == 2


# Commands taking -e, with the --map they need; the reader refuses their inputs.
IDEMPOTENT_COMMANDS = {"peirce": [], "hypothesis": [], "decompose": ["--map", "random"],
                       "lemmas": ["--map", "random"]}


@pytest.mark.parametrize("command", sorted(IDEMPOTENT_COMMANDS))
def test_reader_refuses_unusable_inputs_before_the_body_runs(runner, workdir, monkeypatch,
                                                             command):
    from altcomm import cli

    def unreachable(*args):
        raise AssertionError("the command body ran")

    monkeypatch.setattr(cli, "guarded_peirce", unreachable)
    monkeypatch.setattr(cli, "hypothesis_check", unreachable)
    save_algebra(Algebra("null", Q, 2, ["a", "b"], []), "null.json")
    os.mkdir("mapdir")
    with open("cut.json", "w") as fh:
        fh.write('{"dim": 4, "matrix": [')
    map_args = IDEMPOTENT_COMMANDS[command]
    cases = [(["m2q.json", "-e", "0,1,0,0", *map_args],
              "Error: 0,1,0,0 is not a nontrivial idempotent of this algebra"),
             (["null.json", "-e", "a", *map_args],
              "Error: idempotent checks need a unital algebra")]
    if map_args:
        cases += [(["m2q.json", "-e", "E11", "--map", name], f"Error: bad map file {name}:")
                  for name in ("cut.json", "mapdir")]
    for args, message in cases:
        r = invoke(runner, [command, *args])
        assert_usage_error(r)
        assert message in r.output, args


# ----------------------------------------------------------------------
# JSON envelope discipline


JSON_INVOCATIONS = [
    ["verify", "m2q.json"],
    ["center", "zornf5.json"],
    ["nucleus", "m2q.json"],
    ["peirce", "m2f5.json", "-e", "m2f5.idem.json"],
    ["hypothesis", "m2f5.json", "-e", "m2f5.idem.json"],
    ["prime", "m2f5.json"],
    ["check-map", "m2q.json", "--map", "random", "--seed", "1"],
    ["decompose", "m2q.json", "-e", "m2q.idem.json", "--map", "random",
     "--seed", "1"],
    ["lemmas", "m2f5.json", "-e", "m2f5.idem.json", "--map", "random",
     "--seed", "1"],
    ["oracle", "m2f5.json", "--map", "random", "--seed", "1"],
]


def test_deterministic_json_is_byte_identical(runner, workdir):
    for args in JSON_INVOCATIONS:
        full = args + ["--format", "json", "--deterministic"]
        a = invoke(runner, full)
        b = invoke(runner, full)
        assert a.exit_code == 0, (args, a.output)
        assert a.output == b.output, args
        doc = json.loads(a.output)
        assert doc["command"] == args[0]
        assert "generated_at" not in doc
        assert "report" in doc


def test_json_envelope_has_timestamp_by_default(runner, workdir):
    r = invoke(runner, ["center", "m2q.json", "--format", "json"])
    doc = json.loads(r.output)
    assert "generated_at" in doc


def test_gen_json_format(runner, workdir):
    r = invoke(runner, ["gen", "matrix", "--n", "2", "--out", "dup.json",
                        "--format", "json", "--deterministic"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["report"]["algebra"] == "dup.json"
    assert doc["report"]["idempotent"] == "dup.idem.json"


def test_missing_file_is_usage_error(runner, workdir):
    assert invoke(runner, ["verify", "missing.json"]).exit_code == 2
    assert invoke(runner, ["peirce", "missing.json", "-e", "1,0"]).exit_code == 2


def test_verify_with_a_huge_modulus_is_prompt(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for p, code in ((2 ** 61 - 1, 0), (2 ** 89 - 1, 2)):
        with open("big.json", "w") as fh:
            json.dump({"name": "big", "field": {"kind": "prime", "p": p}, "dim": 1,
                       "basis": ["1"], "structure": [[0, 0, 0, "1"]]}, fh)
        start = time.perf_counter()
        r = invoke(runner, ["verify", "big.json"])
        assert r.exit_code == code, r.output
        assert time.perf_counter() - start < 2


def test_verify_with_unbounded_scalar_text_is_prompt(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for scalar, code in (("1e3", 0), ("1e200000", 2), ("1e99999999999", 2)):
        with open("huge.json", "w") as fh:
            json.dump({"name": "huge", "field": {"kind": "rational"}, "dim": 1,
                       "basis": ["1"], "structure": [[0, 0, 0, scalar]]}, fh)
        start = time.perf_counter()
        r = invoke(runner, ["verify", "huge.json"])
        assert r.exit_code == code, r.output
        assert time.perf_counter() - start < 2
    assert "digits" in r.output


def assert_usage_error(r):
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Error:" in r.output and "Traceback" not in r.output


def test_zero_denominators_and_non_object_maps_are_usage_errors(runner, workdir):
    zero_row = ["1/0", "0", "0", "0"]
    for name, doc in (("zero.json", {"dim": 4, "matrix": [zero_row] + [["0"] * 4] * 3}),
                      ("list.json", [1])):
        with open(name, "w") as fh:
            json.dump(doc, fh)
        assert_usage_error(invoke(runner, ["check-map", "m2q.json", "--map", name]))
    base = {"name": "one", "field": {"kind": "rational"}, "dim": 1, "basis": ["1"],
            "structure": [[0, 0, 0, "1"]]}
    for key, value in (("structure", [[0, 0, 0, "1/0"]]), ("unit", ["1/0"])):
        with open("bad.json", "w") as fh:
            json.dump({**base, key: value}, fh)
        assert_usage_error(invoke(runner, ["verify", "bad.json"]))
    assert_usage_error(invoke(runner, ["peirce", "m2q.json", "-e", "1/0,0,0,0"]))
    assert_usage_error(invoke(runner, ["gen", "cayley-dickson", "--steps", "1",
                                       "--gammas", "1/0"]))
    # nested past the parser's recursion limit: refused by all three file readers
    with open("nested.json", "w") as fh:
        fh.write("[" * 200000 + "]" * 200000)
    for args in (["verify", "nested.json"], ["check-map", "m2q.json", "--map", "nested.json"],
                 ["peirce", "m2q.json", "-e", "nested.json"]):
        assert_usage_error(invoke(runner, args))


def test_a_string_unit_is_a_usage_error(runner, workdir):
    d = json.load(open("m2q.json"))
    assert d["unit"] == ["1", "0", "0", "1"]
    d["unit"] = "1001"
    with open("m2q-string-unit.json", "w") as fh:
        json.dump(d, fh)
    for command in ("verify", "center"):
        r = invoke(runner, [command, "m2q-string-unit.json"])
        assert_usage_error(r)
        assert "unit must be a list of scalars" in r.output


def test_booleans_are_not_dimensions_or_structure_indices(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = {"name": "two", "field": {"kind": "rational"}, "dim": 2, "basis": ["a", "b"],
            "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}
    indices = ([True, True, True], [1, 1, False], [1.0, 1, 1], [1, 0.5, 1], [1, 1, "x"])
    for doc in [{**base, "dim": True, "basis": ["a"], "structure": [[0, 0, 0, "1"]]}] + [
            {**base, "structure": [[0, 0, 0, "1"], [*idx, "1"]]} for idx in indices]:
        with open("bool.json", "w") as fh:
            json.dump(doc, fh)
        r = invoke(runner, ["verify", "bool.json"])
        assert_usage_error(r)
        assert "dimension" in r.output or "must be an integer" in r.output
    with pytest.raises(ValueError, match="dimension"):
        Algebra.from_dict({**base, "dim": True, "basis": ["a"]})
    save_algebra(scalar_algebra(Q), "q.json")
    for dim in (True, 1.0):                     # a map file's dimension is refused the same way
        with open("map.json", "w") as fh:
            json.dump({"dim": dim, "matrix": [["1"]]}, fh)
        r = invoke(runner, ["check-map", "q.json", "--map", "map.json"])
        assert_usage_error(r)
        assert f"bad dimension {dim!r}" in r.output
    with pytest.raises(ValueError, match="structure index"):
        Algebra("two", Q, 2, ["a", "b"], [(0, True, 1, Q.one)])


def test_names_and_basis_labels_must_be_strings(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = {"name": "two", "field": {"kind": "rational"}, "dim": 2, "basis": ["a", "b"],
            "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}
    nested = "a"
    for _ in range(900):
        nested = [nested]
    for key, value, message in (("basis", "ab", "basis labels must be a list of strings"),
                                ("name", [1, 2], "name must be a string"),
                                ("basis", ["a", nested], "basis labels must be a list of strings"),
                                ("basis", ["a", 2], "basis labels must be a list of strings")):
        with open("labels.json", "w") as fh:
            json.dump({**base, key: value}, fh)
        r = invoke(runner, ["verify", "labels.json"])
        assert_usage_error(r)
        assert message in r.output, (key, value)
    with pytest.raises(ValueError, match="basis labels must be a list of strings"):
        Algebra("two", Q, 2, ["a", 1], [])
    with pytest.raises(ValueError, match="name must be a string"):
        Algebra(None, Q, 1, ["a"], [])


def test_hostile_sizes_are_refused_promptly(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    n = 100000
    with open("huge_dim.json", "w") as fh:
        json.dump({"name": "huge", "field": {"kind": "rational"}, "dim": n,
                   "basis": [f"b{i}" for i in range(n)], "structure": []}, fh)
    for args in (["verify", "huge_dim.json"],
                 ["gen", "matrix", "--n", str(n)],
                 ["gen", "cayley-dickson", "--steps", "40"],
                 ["gen", "cayley-dickson", "--steps", "10000000"]):
        start = time.perf_counter()
        assert_usage_error(invoke(runner, args))
        assert time.perf_counter() - start < 2, args


def test_dimension_limit_is_inclusive(runner, tmp_path, monkeypatch):
    from altcomm.algebra import DIM_LIMIT, Algebra

    labels = [f"b{i}" for i in range(DIM_LIMIT + 1)]
    assert Algebra("top", Q, DIM_LIMIT, labels[:-1], []).dim == DIM_LIMIT
    with pytest.raises(ValueError, match="between 1 and"):
        Algebra("over", Q, DIM_LIMIT + 1, labels, [])
    monkeypatch.chdir(tmp_path)
    assert invoke(runner, ["gen", "cayley-dickson", "--steps", "7"]).exit_code == 0
    r = invoke(runner, ["gen", "matrix", "--n", "11", "--out", "m11.json"])
    assert r.exit_code == 0, r.output
    labels = json.loads((tmp_path / "m11.json").read_text())["basis"]
    assert len(labels) == len(set(labels)) == 121 and labels[10] == "E1,11"
    for args in (["gen", "cayley-dickson", "--steps", "8"], ["gen", "matrix", "--n", "12"]):
        r = invoke(runner, args)
        assert_usage_error(r)
        assert f"above the limit {DIM_LIMIT}" in r.output


@pytest.mark.parametrize("command", ["peirce", "hypothesis", "check-map", "decompose",
                                     "lemmas", "oracle"])
def test_help_describes_idempotent_and_map_options(runner, command):
    r = invoke(runner, [command, "--help"])
    assert r.exit_code == 0, r.output
    text = " ".join(r.output.split())
    params = {p.name for p in main.commands[command].params}
    if "idem_token" in params:
        assert "Idempotent: coords file, basis label, or inline scalars." in text
    if "map_token" in params:
        assert "Map file, or 'random' for a seeded commuting map." in text


def test_center_help_says_it_prints_the_commutant(runner):
    r = invoke(runner, ["center", "--help"])
    assert r.exit_code == 0, r.output
    text = " ".join(r.output.split())
    assert "Print a basis of the commutant {x : [x, A] = 0}." in text
    assert "On alternative inputs over Q and F_p (p >= 5) the commutant is the center" in text
    listing = " ".join(invoke(runner, ["--help"]).output.split())
    assert "center Print a basis of the commutant" in listing
