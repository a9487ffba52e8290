"""cli: the README walkthrough, one command per op, each a fresh process.

Each op runs ``python -m altcomm.cli ...`` with ``src`` on PYTHONPATH (the
console script is not installed) in a private directory inside the
checkout, and is timed from spawn to exit.  A round first writes the
algebra files with the five ``gen`` commands, then runs ``--help`` and the
readers in a seeded order with seeded ``--seed`` values for the map
commands.  The traced run starts each command through ``cli_child.py``,
which installs the same hooks before calling ``altcomm.cli.main``.

Set-up makes the directory and runs ``--help`` once, so compiling the
bytecode and filling the file cache, which a user pays once per install,
stay out of the ops.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

TIMEOUT_S = 30  # a README command is well under a second; a hang must not outlast the run
# Seven rounds (119 commands, 22-35 s) in every run.  A clock-bound run
# made fewer rounds in the host's slow phases than in its fast ones, which
# moved op_tail_ms between the 4th and the 10th of the numpy commands
# (prime, oracle): 10-seed spreads of 0.34 in ops_per_s and 0.45 in
# op_tail_ms.
ROUNDS = 7
# The op is a child process; calibration passes in this one would compete
# with it for the CPU, so it is calibrated only before and after.
IN_PROCESS = False
COMMON = ["--format", "json", "--deterministic"]

# name -> (arguments, expected exit code)
GEN = {
    "gen_m2q": (["gen", "matrix", "--n", "2"], 0),
    "gen_m2f5": (["gen", "matrix", "--n", "2", "--field", "p5"], 0),
    "gen_zornf5": (["gen", "zorn", "--field", "p5"], 0),
    "gen_cd3": (["gen", "cayley-dickson", "--steps", "3"], 0),
    "gen_direct_sum": (["gen", "direct-sum", "--left", "m2q.json", "--right", "m2q.json",
                        "--out", "mm.json"], 0),
}
SEEDED = {"check_map", "decompose", "lemmas", "oracle"}
READERS = {
    "help": (["--help"], 0),
    "verify": (["verify", "m2q.json"], 0),
    "center": (["center", "zornf5.json"], 0),
    "nucleus": (["nucleus", "zornf5.json"], 0),
    "peirce": (["peirce", "zornf5.json", "-e", "zornf5.idem.json"], 0),
    "hypothesis": (["hypothesis", "m2f5.json", "-e", "m2f5.idem.json"], 0),
    "prime": (["prime", "m2f5.json"], 0),
    "check_map": (["check-map", "m2q.json", "--map", "random"], 0),
    "decompose": (["decompose", "m2q.json", "-e", "m2q.idem.json", "--map", "random"], 0),
    "lemmas": (["lemmas", "zornf5.json", "-e", "zornf5.idem.json", "--map", "random"], 0),
    "oracle": (["oracle", "m2f5.json", "--map", "random"], 0),
    "hypothesis_fail": (["hypothesis", "mm.json", "-e", "mm.idem.json"], 1),
}
COMMANDS = list(GEN) + list(READERS)


@dataclass
class Output:
    returncode: int
    stdout: str
    stderr: str
    child_trace: dict | None = None


class State:
    def __init__(self, seed, root, workdir, env):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = env
        self.expect_exit = {name: spec[1] for name, spec in {**GEN, **READERS}.items()}


def setup(seed: int, root) -> State:
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    state = State(seed, root, workdir, env)
    warm = _spawn(state, ["--help"], None)
    if warm.returncode != 0:
        raise RuntimeError(f"altcomm --help failed during set-up: {warm.stderr}")
    return state


def teardown(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)


def round_specs(state: State, r: int) -> list:
    rng = random.Random(state.seed * 1_000_003 + r)
    readers = list(READERS)
    rng.shuffle(readers)
    specs = [(name, GEN[name][0] + COMMON) for name in GEN]
    for name in readers:
        args = READERS[name][0]
        if name == "help":
            specs.append((name, list(args)))
            continue
        if name in SEEDED:
            args = args + ["--seed", str(rng.randrange(1000))]
        specs.append((name, args + COMMON))
    return specs


def op_name(spec) -> str:
    return f"cli.cmd.{spec[0]}"


def _spawn(state: State, args, tracer) -> Output:
    if tracer is None:
        cmd = [sys.executable, "-m", "altcomm.cli", *args]
        trace_path = None
    else:
        trace_path = os.path.join(state.workdir, "child-trace.json")
        cmd = [sys.executable, os.path.join(state.root, "perfbench", "cli_child.py"),
               trace_path, *args]
    proc = subprocess.Popen(cmd, cwd=state.workdir, env=state.env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    out = Output(proc.returncode, stdout, stderr)
    if trace_path is not None:
        with open(trace_path, encoding="utf-8") as fh:
            out.child_trace = json.load(fh)
        os.remove(trace_path)
    return out


def run(state: State, spec, tracer) -> Output:
    return _spawn(state, spec[1], tracer)


def _report(out: Output) -> dict:
    return json.loads(out.stdout)["report"]


def _gen_dim(dim):
    return lambda rep: [] if rep["dim"] == dim else [f"dim {rep['dim']}, expected {dim}"]


# name -> check of the JSON report; each returns a list of mismatches.
REPORT_CHECKS = {
    "gen_m2q": _gen_dim(4), "gen_m2f5": _gen_dim(4), "gen_zornf5": _gen_dim(8),
    "gen_cd3": _gen_dim(8), "gen_direct_sum": _gen_dim(8),
    "verify": lambda rep: [] if rep["alternative"] and rep["unital"]
    else ["m2q not reported alternative and unital"],
    "center": lambda rep: [] if rep["dim"] == 1 else [f"center dim {rep['dim']}"],
    "nucleus": lambda rep: [] if rep["dim"] == 1 else [f"nucleus dim {rep['dim']}"],
    "peirce": lambda rep: ([] if rep["dims"] == [1, 3, 3, 1] else [f"dims {rep['dims']}"])
    + ([] if all(e["pass"] for e in rep["relations"]) else ["a relation failed"]),
    "hypothesis": lambda rep: [] if rep["e1"] and rep["e2"] else ["regularity failed"],
    "prime": lambda rep: [] if rep["prime"] else ["m2f5 reported not prime"],
    "check_map": lambda rep: [] if rep["commuting"] else ["map reported not commuting"],
    "decompose": lambda rep: [] if rep["verified"] is True else ["decomposition not verified"],
    "lemmas": lambda rep: [] if [l["status"] for l in rep["lemmas"]] == ["pass"] * 9
    else ["not all nine lemmas passed"],
    "oracle": lambda rep: [] if rep["commuting_everywhere"] else ["oracle found a witness"],
    "hypothesis_fail": lambda rep: [] if rep["e1"] is False and "witness_e1" in rep
    else ["direct sum: regularity at e1 not reported failing with a witness"],
}


def check(state: State, spec, out: Output) -> list[str]:
    name = spec[0]
    want = state.expect_exit[name]
    if out.returncode != want:
        return [f"{name}: exit {out.returncode}, expected {want}: {out.stderr.strip()[-300:]}"]
    if name == "help":
        return [] if "Usage:" in out.stdout else ["--help printed no usage"]
    try:
        report = _report(out)
    except (ValueError, KeyError) as exc:
        return [f"{name}: no JSON report ({exc})"]
    return [f"{name}: {msg}" for msg in REPORT_CHECKS[name](report)]
