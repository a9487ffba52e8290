"""structure: certify one algebra from its JSON text, all caches cold.

One op loads a rung with ``Algebra.from_dict`` (which checks the claimed
unit), runs ``is_alternative`` and ``nucleus`` on the associator rungs, and
then the Peirce split, its relations, the center, the regularity check and
the center rebuilt from the split on every rung.  A round is one pass over
the eleven rungs in an order drawn from the seed.  The seed fixes only the
order: relabelling the basis moved single rungs by up to 30% (M4(Q)
nucleus 709-948 ms), far more than a run-to-run bound allows.

M5(Q) and M5(F101) are one algebra over two fields, so a change to
``fields`` shows as a change in the gap between their rung times.
"""

from __future__ import annotations

import json
import random

import altcomm as ac

# A pass takes 10-16 s of wall time on a 2-core machine, so a clock-bound
# run would make one pass or two with the host's speed and op_tail_ms would
# jump between percentiles with it.  Every run makes two passes: 22 ops, so
# op_p50_ms and op_tail_ms (p54.5) both fall among the four CD5(Q) and
# M8(F101) ops, which take about the same time.  With three passes the tail
# (p69.7) fell on the edge between M4(Q) and the slower M5(F101) and CD4(Q),
# and its 5-seed spread was 0.10 against 0.07 with two.
ROUNDS = 2
# Certifying a rung is interpreted Fraction work over large matrices and
# dicts, so it slows down with the host less than the pure Python kernel
# does and as much as the mean of that and the memory-bound numpy kernel.
CALIBRATION = ("python", "numpy")

# name -> (construction, associator rung?); each construction takes the fields.
RUNGS = {
    "M3Q": (lambda F: ac.matrix_algebra(F["Q"], 3), True),
    "M4Q": (lambda F: ac.matrix_algebra(F["Q"], 4), True),
    "M5Q": (lambda F: ac.matrix_algebra(F["Q"], 5), True),
    "ZornQ": (lambda F: ac.zorn(F["Q"]), True),
    "CD3Q": (lambda F: ac.cayley_dickson_algebra(F["Q"], [F["Q"].one] * 3), True),
    "CD4Q": (lambda F: ac.cayley_dickson_algebra(F["Q"], [F["Q"].one] * 4), True),
    "M5F101": (lambda F: ac.matrix_algebra(F["p101"], 5), True),
    "ZornF5": (lambda F: ac.zorn(F["p5"]), True),
    "M6Q": (lambda F: ac.matrix_algebra(F["Q"], 6), False),
    "CD5Q": (lambda F: ac.cayley_dickson_algebra(F["Q"], [F["Q"].one] * 5), False),
    "M8F101": (lambda F: ac.matrix_algebra(F["p101"], 8), False),
}


def _matrix(n):
    return {"alternative": True, "nucleus_dim": n * n,
            "peirce_dims": (1, n - 1, n - 1, (n - 1) ** 2), "relations_pass": True}


def _octonion_like(half, alternative=True):
    return {"alternative": alternative, "nucleus_dim": 1,
            "peirce_dims": (1, half - 1, half - 1, 1), "relations_pass": alternative}


# Every rung also has a one-dimensional center, regularity at e1 and e2,
# and center_via_peirce equal to center.
EXPECT = {
    "M3Q": _matrix(3), "M4Q": _matrix(4), "M5Q": _matrix(5), "M5F101": _matrix(5),
    "M6Q": _matrix(6), "M8F101": _matrix(8),
    "ZornQ": _octonion_like(4), "ZornF5": _octonion_like(4), "CD3Q": _octonion_like(4),
    "CD4Q": _octonion_like(8, alternative=False),
    "CD5Q": _octonion_like(16, alternative=False),
}


class State:
    def __init__(self, seed, texts):
        self.seed = seed
        self.texts = texts          # rung -> (algebra JSON, idempotent JSON)
        self.expect = EXPECT


def setup(seed: int, root) -> State:
    fields = {"Q": ac.RationalField(), "p5": ac.PrimeField(5), "p101": ac.PrimeField(101)}
    texts = {}
    for name, (build, _) in RUNGS.items():
        alg, e1 = build(fields)
        texts[name] = (json.dumps(alg.to_dict()), json.dumps({"coords": e1.to_strings()}))
    return State(seed, texts)


def round_specs(state: State, r: int) -> list:
    order = list(RUNGS)
    random.Random(state.seed * 1_000_003 + r).shuffle(order)
    return order


def op_name(spec) -> str:
    return f"structure.rung.{spec}"


def run(state: State, rung: str, tracer):
    alg_text, idem_text = state.texts[rung]
    alg = ac.Algebra.from_dict(json.loads(alg_text))
    e1 = alg.element([alg.field.parse(s) for s in json.loads(idem_text)["coords"]])
    out = {}
    if RUNGS[rung][1]:
        out["alternative"] = ac.is_alternative(alg)
        out["nucleus"] = ac.nucleus(alg)
    pd = ac.peirce_decompose(alg, e1)
    out["peirce_dims"] = pd.dims()
    out["relations"] = ac.check_peirce_relations(pd)
    out["center"] = ac.center(alg)
    out["regular"] = ac.hypothesis_check(alg, e1)
    out["center_via_peirce"] = ac.center_via_peirce(pd)
    return out


def check(state: State, rung: str, out) -> list[str]:
    want = state.expect[rung]
    errors = []
    if RUNGS[rung][1]:
        alt, triple = out["alternative"]
        if alt != want["alternative"]:
            errors.append(f"{rung}: alternative {alt}, expected {want['alternative']}")
        elif not alt and ac.associator(*triple).is_zero():
            errors.append(f"{rung}: witness triple has a zero associator")
        if out["nucleus"].dim != want["nucleus_dim"]:
            errors.append(f"{rung}: nucleus dim {out['nucleus'].dim}, "
                          f"expected {want['nucleus_dim']}")
    if tuple(out["peirce_dims"]) != want["peirce_dims"]:
        errors.append(f"{rung}: Peirce dims {out['peirce_dims']}, "
                      f"expected {want['peirce_dims']}")
    relations_pass = all(entry["pass"] for entry in out["relations"])
    if relations_pass != want["relations_pass"]:
        errors.append(f"{rung}: component relations pass={relations_pass}, "
                      f"expected {want['relations_pass']}")
    if out["center"].dim != 1:
        errors.append(f"{rung}: center dim {out['center'].dim}, expected 1")
    (ok1, _), (ok2, _) = out["regular"]
    if not (ok1 and ok2):
        errors.append(f"{rung}: regularity e1={ok1} e2={ok2}, expected both to hold")
    if out["center_via_peirce"] != out["center"]:
        errors.append(f"{rung}: center_via_peirce differs from center")
    return errors
