"""scan: exhaustive F_p scans on Zorn(F5), 5^8 = 390,625 elements.

The only workload where ``_modscan`` and numpy do the work.  A round is
three ops in a seeded order: ``prime_check_exhaustive`` (verdict: prime),
``exhaustive_commuting_check`` on a seeded commuting map (verdict:
commuting), and the same check on that map plus a seeded x -> x_j b_k,
which cannot commute because no basis vector of Zorn is central.  Its
witness is checked again here in exact arithmetic.
"""

from __future__ import annotations

import random

import altcomm as ac
import altcomm._modscan  # noqa: F401  loaded up front so a traced run can hook it

from . import matrix_unit_map

KINDS = ("prime", "commuting", "perturbed")
# The scans are numpy-bound and slow down with the host differently from
# interpreted code, so they are calibrated with a numpy kernel.
CALIBRATION = ("numpy",)


class State:
    def __init__(self, seed, algebra):
        self.seed = seed
        self.algebra = algebra


def setup(seed: int, root) -> State:
    f5 = ac.PrimeField(5)
    # Both scans once on M2(F5), 625 elements, so numpy's first-call costs
    # fall here and not on the first op.
    small, _ = ac.matrix_algebra(f5, 2)
    ac.prime_check_exhaustive(small)
    ac.exhaustive_commuting_check(small, ac.random_commuting_map(small, seed))
    algebra, _ = ac.zorn(f5)
    ac.center(algebra)
    return State(seed, algebra)


def round_specs(state: State, r: int) -> list:
    rng = random.Random(state.seed * 1_000_003 + r)
    alg = state.algebra
    phi = ac.random_commuting_map(alg, rng.randrange(2 ** 31))
    perturbed = phi + matrix_unit_map(alg, rng.randrange(alg.dim), rng.randrange(alg.dim))
    kinds = list(KINDS)
    rng.shuffle(kinds)
    return [(kind, perturbed if kind == "perturbed" else phi) for kind in kinds]


def op_name(spec) -> str:
    return f"scan.{spec[0]}"


def run(state: State, spec, tracer):
    kind, phi = spec
    if kind == "prime":
        return ac.prime_check_exhaustive(state.algebra)
    return ac.exhaustive_commuting_check(state.algebra, phi)


def check(state: State, spec, out) -> list[str]:
    kind, phi = spec
    ok, witness = out
    if kind == "prime":
        return [] if ok and witness is None else ["Zorn(F5) reported not prime"]
    if kind == "commuting":
        return [] if ok else ["commuting map reported as not commuting"]
    if ok:
        return ["perturbed map reported as commuting"]
    if ac.commutator(phi(witness), witness).is_zero():
        return ["perturbed map: witness has [phi(x), x] = 0"]
    return []
