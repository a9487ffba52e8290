"""maps: many seeded maps checked against one prepared algebra, M4(Q).

Set-up builds M4(Q), its Peirce data, center and regularity check, and runs
one warm-up map, so the op pays only for the map.  One op draws a map with
``random_commuting_map``, runs ``decompose`` and ``decompose_oracle`` and
then ``run_all``.  A round is four maps; the fourth gets the seeded
perturbation x -> x_j b_k.  No basis vector of M4 is central, so a
perturbed map never commutes: ``decompose`` must raise NotCommutingError
with a witness that holds, the oracle must return None, and all nine
lemmas must be not-applicable.  Those maps take ``is_commuting``'s early
exit.
"""

from __future__ import annotations

import random

import altcomm as ac

from . import matrix_unit_map

MAPS_PER_ROUND = 4


class State:
    def __init__(self, seed, algebra, pd):
        self.seed = seed
        self.algebra = algebra
        self.pd = pd
        self.lemmas_passing = len(ac.LEMMA_IDS)


def setup(seed: int, root) -> State:
    algebra, e11 = ac.matrix_algebra(ac.RationalField(), 4)
    pd = ac.peirce_decompose(algebra, e11)
    ac.center(algebra)
    pd.hypothesis()
    warm = ac.random_commuting_map(algebra, seed)
    ac.decompose(pd, warm)
    ac.decompose_oracle(algebra, warm)
    ac.run_all(pd, warm)
    return State(seed, algebra, pd)


def round_specs(state: State, r: int) -> list:
    rng = random.Random(state.seed * 1_000_003 + r)
    n = state.algebra.dim
    specs = []
    for m in range(MAPS_PER_ROUND):
        map_seed = rng.randrange(2 ** 31)
        extra = None
        if m == MAPS_PER_ROUND - 1:
            extra = matrix_unit_map(state.algebra, rng.randrange(n), rng.randrange(n))
        specs.append((map_seed, extra))
    return specs


def op_name(spec) -> str:
    return "maps.perturbed" if spec[1] is not None else "maps.commuting"


def run(state: State, spec, tracer):
    map_seed, extra = spec
    phi = ac.random_commuting_map(state.algebra, map_seed)
    if extra is not None:
        phi = phi + extra
    try:
        dec = ac.decompose(state.pd, phi)
    except ac.NotCommutingError as exc:
        dec = exc
    oracle = ac.decompose_oracle(state.algebra, phi)
    reports = ac.run_all(state.pd, phi)
    return phi, dec, oracle, reports


def _holds(phi, pair) -> bool:
    x, y = pair
    return not (ac.commutator(phi(x), y) + ac.commutator(phi(y), x)).is_zero()


def check(state: State, spec, out) -> list[str]:
    phi, dec, oracle, reports = out
    alg = state.algebra
    if spec[1] is not None:
        errors = []
        if not isinstance(dec, ac.NotCommutingError):
            errors.append("perturbed map: decompose did not raise NotCommutingError")
        elif not _holds(phi, dec.witness):
            errors.append("perturbed map: NotCommutingError witness does not hold")
        if oracle is not None:
            errors.append("perturbed map: oracle returned a decomposition")
        if [r.status for r in reports] != ["not-applicable"] * len(ac.LEMMA_IDS):
            errors.append("perturbed map: lemmas not all not-applicable")
        return errors
    if isinstance(dec, ac.NotCommutingError):
        return ["commuting map: decompose raised NotCommutingError"]
    errors = []
    if not dec.verified:
        errors.append("commuting map: decomposition not verified")
    if oracle is None:
        errors.append("commuting map: oracle found no decomposition")
    else:
        for k in range(alg.dim):
            b = alg.basis_element(k)
            target = phi(b)
            if dec.z * b + dec.xi(b) != target or oracle.z * b + oracle.xi(b) != target:
                errors.append(f"commuting map: routes disagree on basis vector {k}")
                break
    passed = sum(r.passed for r in reports)
    if passed != state.lemmas_passing:
        errors.append(f"commuting map: {passed}/{len(reports)} lemmas passed, "
                      f"expected {state.lemmas_passing}")
    return errors
