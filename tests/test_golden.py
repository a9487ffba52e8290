"""Frozen ``--deterministic`` JSON for the structural and map commands.

Each case runs one CLI command in-process and compares its stdout byte for
byte, and its exit code, with the files under ``tests/golden/``.  The
algebras are written by the ``gen`` commands into a temporary directory:
M2(Q), M2(F5), Zorn(F5), the sedenions CD4(Q) and M2(Q) + M2(Q), each with
its canonical idempotent, and CD3(Q).  Next to them go ``transpose.json``, the
transpose map of M2(Q), which does not commute with its argument,
``half.json``, one half times the identity of M2(Q), and ``mixed.json``, a
unital algebra whose bracketings e (x e') and (e x) e' disagree at its
idempotent e, so that the split is refused, and ``cd3q_unitless.json``,
CD3(Q) with its ``unit`` key removed, so that the unit is solved for.

``cli_params.json`` pins every command's declared parameters in order: name,
option strings, type, whether required, default and help text.  It reads
click's parameter objects, not the formatted ``--help``, so it does not
depend on the click version's help layout.

A change that alters output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

run from the repository root, and says why in the change log.
"""

import json
import os

import click
import pytest
from click.testing import CliRunner

from altcomm.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PARAMS = os.path.join(GOLDEN, "cli_params.json")
COMMON = ["--format", "json", "--deterministic"]

GEN = [
    ["gen", "matrix", "--n", "2"],
    ["gen", "matrix", "--n", "2", "--field", "p5"],
    ["gen", "zorn", "--field", "p5"],
    ["gen", "cayley-dickson", "--steps", "4", "--out", "cd4q.json"],
    ["gen", "cayley-dickson", "--steps", "3", "--out", "cd3q.json"],
    ["gen", "direct-sum", "--left", "m2q.json", "--right", "m2q.json", "--out", "mm.json"],
]
ALGEBRAS = ["m2q", "zornf5", "cd4q", "mm"]
MAP_ALGEBRAS = ["m2q", "zornf5", "cd4q", "mm"]
TRANSPOSE = {"dim": 4, "matrix": [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                                  ["0", "1", "0", "0"], ["0", "0", "0", "1"]]}
HALF = {"dim": 4, "matrix": [["1/2" if i == j else "0" for j in range(4)] for i in range(4)]}
MIXED = {"name": "mixedviol", "field": {"kind": "rational"}, "dim": 3,
         "basis": ["u", "e", "x"], "unit": ["1", "0", "0"],
         "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [1, 0, 1, "1"],
                       [1, 1, 1, "1"], [1, 2, 2, "1"], [2, 0, 2, "1"], [2, 1, 0, "1"]]}


def _cases():
    cases = {}
    for name in ALGEBRAS:
        idem = ["-e", f"{name}.idem.json"]
        cases[f"center_{name}"] = ["center", f"{name}.json"]
        cases[f"nucleus_{name}"] = ["nucleus", f"{name}.json"]
        cases[f"peirce_{name}"] = ["peirce", f"{name}.json", *idem]
        cases[f"hypothesis_{name}"] = ["hypothesis", f"{name}.json", *idem]
    for name in MAP_ALGEBRAS:
        for command in ("decompose", "lemmas"):
            cases[f"{command}_{name}"] = [command, f"{name}.json", "-e", f"{name}.idem.json",
                                          "--map", "random", "--seed", "4"]
    for name in ("m2q", "zornf5", "cd4q"):
        cases[f"verify_{name}"] = ["verify", f"{name}.json"]
    for name in ("m2q", "zornf5"):
        cases[f"check_map_{name}"] = ["check-map", f"{name}.json", "--map", "random",
                                      "--seed", "4"]
    for command in ("verify", "center"):
        cases[f"{command}_cd3q_unitless"] = [command, "cd3q_unitless.json"]
    cases["prime_m2f5"] = ["prime", "m2f5.json"]
    cases["oracle_m2f5"] = ["oracle", "m2f5.json", "--map", "random", "--seed", "3"]
    cases["check_map_m2q_transpose"] = ["check-map", "m2q.json", "--map", "transpose.json"]
    for command in ("decompose", "lemmas"):
        cases[f"{command}_m2q_transpose"] = [command, "m2q.json", "-e", "m2q.idem.json",
                                             "--map", "transpose.json"]
    cases["decompose_m2q_half"] = ["decompose", "m2q.json", "-e", "m2q.idem.json",
                                   "--map", "half.json"]
    cases["peirce_mixed"] = ["peirce", "mixed.json", "-e", "e"]
    for command in ("decompose", "lemmas"):
        cases[f"{command}_mixed"] = [command, "mixed.json", "-e", "e",
                                     "--map", "random", "--seed", "4"]
    return cases


CASES = _cases()


def _generate(runner):
    for args in GEN:
        r = runner.invoke(main, args + COMMON)
        assert r.exit_code == 0, r.output
    for path, doc in (("transpose.json", TRANSPOSE), ("half.json", HALF),
                      ("mixed.json", MIXED)):
        with open(path, "w") as fh:
            json.dump(doc, fh)
    with open("cd3q.json") as fh:
        unitless = json.load(fh)
    del unitless["unit"]
    with open("cd3q_unitless.json", "w") as fh:
        json.dump(unitless, fh)


def _run(runner, args):
    r = runner.invoke(main, args + COMMON)
    return r.exit_code, r.output


@pytest.fixture(scope="module")
def algebra_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        _generate(CliRunner())
    finally:
        os.chdir(cwd)
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, algebra_dir, monkeypatch):
    monkeypatch.chdir(algebra_dir)
    code, output = _run(CliRunner(), CASES[case])
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        assert code == json.load(fh)[case]
    with open(os.path.join(GOLDEN, f"{case}.json")) as fh:
        assert output == fh.read()


def _declared_params(group=main, prefix=""):
    """Each command's parameters in declaration order, keyed by its full name."""
    out = {}
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            out.update(_declared_params(command, f"{prefix}{name} "))
            continue
        # an unset default reads None or click's UNSET sentinel, by version
        out[prefix + name] = [[p.name, p.opts, p.type.name, p.required,
                               p.default if isinstance(p.default, (str, int)) else None,
                               getattr(p, "help", None)] for p in command.params]
    return out


def test_declared_parameters_match_golden():
    with open(PARAMS) as fh:
        assert _declared_params() == json.load(fh)


def _write_params():
    with open(PARAMS, "w") as fh:
        json.dump(_declared_params(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _regenerate():
    import tempfile

    runner = CliRunner()
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            _generate(runner)
            for case, args in sorted(CASES.items()):
                codes[case], output = _run(runner, args)
                with open(os.path.join(GOLDEN, f"{case}.json"), "w") as fh:
                    fh.write(output)
        finally:
            os.chdir(cwd)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_params()


if __name__ == "__main__":
    _regenerate()
