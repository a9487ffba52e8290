"""The step-by-step facts behind the decomposition, each run as a check.

Every lemma function evaluates its equations exactly on the relevant
basis vectors of the Peirce components and reports pass/fail with a
witness on failure.  Existence statements ("there are central z, z' with
...") become membership in a span built from the center, so a vector
outside that span is a failure, not an exception.

All nine checks assume a commuting map and the regularity condition;
run_lemma and run_all verify both and report not-applicable when either
fails, so a lemma is never asserted outside its hypotheses.

A run evaluates each thing once: the gate reuses the map's memoised
commuting verdict, and the checks read the Peirce projections of phi's
images from one table (Images), which splits phi's columns into their
four parts once, with the PeirceData's stacked projectors, and reads
each image's parts off them.  What does not involve the map is
memoised on the PeirceData and shared by every run on it: L1 and L2, once
the gate has passed, and each central lift's verdict.  A bracket
[P11(phi(x)) + P22(phi(x)), y] whose first argument is central is the
zero vector, by the definition of the center, so L5 and L8 form it only
when that argument is not central.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import asdict, dataclass
from operator import matmul

from .algebra import Element, Memo, commutator, find_unit
from .commuting import LinearMap, is_commuting
from .errors import PreconditionError
from .peirce import (PeirceData, center, center_via_peirce, express_central, is_central,
                     lift_central)

LEMMA_IDS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9")


@dataclass
class LemmaReport:
    lemma_id: str
    status: str                 # "pass" | "fail" | "not-applicable"
    witness: dict | None
    notes: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


def _gate(pd: PeirceData, phi: LinearMap):
    """Reason the suite does not apply, or None when it does.

    The commuting check brackets phi's columns reduced modulo the center,
    which the checks past the gate read too.
    """
    ok, pair = is_commuting(pd.algebra, phi)
    if not ok:
        return ("the map is not commuting",
                {"x": pair[0].to_strings(), "y": pair[1].to_strings(),
                 "equation": "[phi(x), y] + [phi(y), x] = 0"})
    (ok1, w1), (ok2, w2) = pd.hypothesis()
    if not ok1:
        return ("the regularity condition fails at e1",
                {"kernel_element": w1.to_strings()})
    if not ok2:
        return ("the regularity condition fails at e2",
                {"kernel_element": w2.to_strings()})
    return None


def run_lemma(lemma_id: str, pd: PeirceData, phi: LinearMap) -> LemmaReport:
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    return _run(pd, phi, (lemma_id,))[0]


def run_all(pd: PeirceData, phi: LinearMap) -> list[LemmaReport]:
    """All nine reports in order; every lemma is evaluated even after failures."""
    return _run(pd, phi, LEMMA_IDS)


def _run(pd: PeirceData, phi: LinearMap, lemma_ids) -> list[LemmaReport]:
    """Reports for lemma_ids in order, behind one gate check shared by all of them.

    The checks share one Images table; L1 and L2 and the lift verdicts
    are memoised on the PeirceData.  Each report gets its own copy of the
    witness, so a cached one is never handed out.
    """
    blocked = _gate(pd, phi)
    if blocked is not None:
        reason, witness = blocked
        return [LemmaReport(lid, "not-applicable", witness, f"not applicable: {reason}")
                for lid in lemma_ids]
    images = Images(pd, phi)
    reports = []
    for lid in lemma_ids:
        if lid in ("L1", "L2"):
            ok, witness, notes = pd.cached(lid, _EVALS[lid], pd, images)
        else:
            ok, witness, notes = _EVALS[lid](pd, images)
        reports.append(LemmaReport(lid, "pass" if ok else "fail", deepcopy(witness), notes))
    return reports


class Images(Memo):
    """The Peirce projections of phi's images for one suite run, each formed once.

    images.part(i, j, x) is P_ij(phi(x)) and images.diag(x) is
    P11(phi(x)) + P22(phi(x)), each keyed by x's coordinates; images.phi
    is the map itself.  phi's columns are split into their four Peirce
    parts once per run, as the product pd.stacked @ phi, so the four parts of
    phi(x) are that product's matvec on x's coordinates, cut by pd.parts,
    formed together and kept under one key: no input is applied and split
    on its own.  images.central(x) says whether diag(x) is central, and
    images.bracket(y, x) is [diag(y), x], the zero vector with no product
    formed when diag(y) is central.
    """

    def __init__(self, pd: PeirceData, phi: LinearMap):
        self.pd, self.phi, self._memo = pd, phi, {}

    def part(self, i: int, j: int, x: Element) -> Element:
        return self.cached(("split", x.coords), self._split, x)[(i, j)]

    def diag(self, x: Element) -> Element:
        return self.cached(("diag", x.coords), self._diagonal, x)

    def central(self, x: Element) -> bool:
        return self.cached(("central", x.coords), self._central, x)

    def bracket(self, y: Element, x: Element) -> Element:
        if self.central(y):
            return Element(x.algebra, (x.algebra.field.zero,) * x.algebra.dim)
        return commutator(self.diag(y), x)

    def _split(self, x: Element) -> dict:
        """{(i, j): P_ij(phi(x))}: phi's split columns applied to x's coordinates."""
        columns = self.cached("columns", matmul, self.pd.stacked, self.phi.matrix)
        return self.pd.parts(columns.matvec(x.coords))

    def _diagonal(self, x: Element) -> Element:
        return self.part(1, 1, x) + self.part(2, 2, x)

    def _central(self, x: Element) -> bool:
        return is_central(self.pd.algebra, self.diag(x))


# ----------------------------------------------------------------------
# helpers


def _n(count: int, noun: str) -> str:
    return f"{count} {noun}" + ("" if count == 1 else "s")


def _lift_failure(pd: PeirceData, x: Element, i: int) -> dict | None:
    """The witness that x has no central lift z . e_i = x, or None when lift_central finds one.

    The verdict depends on the split and on x's direction only: z lifts x
    iff c z lifts c x, for a nonzero scalar c, and lift_central's two
    preconditions are memberships in subspaces.  So the verdict, None or
    the problem, is memoised on the PeirceData under ("lift_failure", i,
    d), d the nonzero coordinates of x scaled so the first is one (empty
    for x = 0), and shared by every run on the split: the parts the
    checks lift are mostly multiples of a few vectors, so the memo holds
    an entry per direction, not per part.  The witness is built from x
    itself on every call.
    """
    f = pd.algebra.field
    nonzero = [(u, a) for u, a in enumerate(x.coords) if a]
    lead = nonzero[0][1] if nonzero else f.one
    # An entry equal to the lead needs no division; most parts are a multiple of one vector.
    d = tuple((u, f.one if a == lead else f.mul(a, f.inv(lead))) for u, a in nonzero)
    problem = pd.cached(("lift_failure", i, d), _lift_problem, pd, x, i)
    return None if problem is None else {"equation": f"z . e{i} = x for central z",
                                         "x": x.to_strings(), "problem": problem}


def _lift_problem(pd: PeirceData, x: Element, i: int) -> str | None:
    """Why x has no central lift, or None when lift_central finds one.

    A refused precondition of lift_central is the problem, not raised.
    """
    try:
        return None if lift_central(pd, x, i) is not None else "no central lift exists"
    except PreconditionError as exc:
        return str(exc)


def _off_diagonal_zero(phi: Images, y: Element):
    """The off-diagonal projections of phi(y), when nonzero."""
    for (i, j) in ((1, 2), (2, 1)):
        part = phi.part(i, j, y)
        if not part.is_zero():
            return (i, j), part
    return None, None


# ----------------------------------------------------------------------
# the nine checks


def _eval_l1(pd: PeirceData, phi: Images):
    """The center equals its description through the idempotent splitting."""
    direct = center(pd.algebra)
    via = center_via_peirce(pd)
    if via == direct:
        return True, None, (f"center dimension {direct.dim} agrees between the "
                            "direct computation and the Peirce description")
    witness = {
        "equation": "center == diagonal elements commuting with r12 + r21",
        "direct_basis": [z.to_strings() for z in direct.basis],
        "peirce_basis": [z.to_strings() for z in via.basis],
    }
    return False, witness, "the two center computations disagree"


def _eval_l2(pd: PeirceData, phi: Images):
    """Every central element of a diagonal component lifts to a central element."""
    counts = []
    for i in (1, 2):
        zc = pd.diagonal_center(i)
        counts.append(_n(zc.dim, "central vector") + f" of r{i}{i}")
        for x in zc.basis:
            witness = _lift_failure(pd, x, i)
            if witness is not None:
                return False, witness, f"lift failed in component ({i},{i})"
    return True, None, "lifted " + " and ".join(counts)


def _eval_l3(pd: PeirceData, phi: Images):
    """phi fixes the diagonal at the unit and idempotents, and phi(1) lifts there."""
    unit = find_unit(pd.algebra)
    for name, y in (("1", unit), ("e1", pd.e1), ("e2", pd.e2)):
        key, part = _off_diagonal_zero(phi, y)
        if key is not None:
            witness = {"equation": f"P{key[0]}{key[1]}(phi({name})) = 0",
                       "projection": part.to_strings()}
            return False, witness, f"phi({name}) has an off-diagonal part"
    for i in (1, 2):
        witness = _lift_failure(pd, phi.part(i, i, unit), i)
        if witness is not None:
            return False, witness, f"the ({i},{i}) part of phi(1) does not lift"
    return True, None, "evaluated phi at 1, e1, e2; lifted both diagonal parts of phi(1)"


def _eval_l4(pd: PeirceData, phi: Images):
    """On diagonal components phi stays diagonal and the opposite part lifts."""
    evaluated = []
    for i in (1, 2):
        j = 3 - i
        basis = pd.components[(i, i)].basis
        evaluated.append(_n(len(basis), "basis vector") + f" of r{i}{i}")
        for x in basis:
            key, part = _off_diagonal_zero(phi, x)
            if key is not None:
                witness = {"equation": f"P{key[0]}{key[1]}(phi(x)) = 0 for x in r{i}{i}",
                           "x": x.to_strings(), "projection": part.to_strings()}
                return False, witness, f"phi of a vector in r{i}{i} leaves the diagonal"
            witness = _lift_failure(pd, phi.part(j, j, x), j)
            if witness is not None:
                return False, {**witness, "basis_vector": x.to_strings()}, \
                    f"the ({j},{j}) part of phi(x), x in r{i}{i}, does not lift"
    return True, None, "evaluated " + " and ".join(evaluated)


def _eval_l5(pd: PeirceData, phi: Images):
    """The four off-diagonal facts: where phi(x) lives and how it is controlled."""
    evaluated = []
    for (i, j) in ((1, 2), (2, 1)):
        basis = pd.components[(i, j)].basis
        evaluated.append(_n(len(basis), "basis vector") + f" of r{i}{j}")
        ei, ej = pd.idempotent(i), pd.idempotent(j)
        for x in basis:
            part = phi.part(j, i, x)
            if not part.is_zero():
                witness = {"equation": f"P{j}{i}(phi(x)) = 0 for x in r{i}{j}",
                           "x": x.to_strings(), "projection": part.to_strings()}
                return False, witness, "(i) fails"
            got = phi.part(i, j, x)
            for sign, k, l, right in (("", i, j, phi.bracket(ei, x)),
                                      ("-", j, i, -phi.bracket(ej, x))):
                if got != right:
                    witness = {"equation": f"P{i}{j}(phi(x)) = {sign}[P{k}{k}(phi(e{k})) + "
                                           f"P{l}{l}(phi(e{k})), x]",
                               "x": x.to_strings(), "left": got.to_strings(),
                               "right": right.to_strings()}
                    return False, witness, "(ii) fails"
            c = phi.bracket(x, x)
            if not c.is_zero():
                witness = {"equation": f"[P{i}{i}(phi(x)) + P{j}{j}(phi(x)), x] = 0",
                           "x": x.to_strings(), "commutator": c.to_strings()}
                return False, witness, "(iii) fails"
            for k in (i, j):
                witness = _lift_failure(pd, phi.part(k, k, x), k)
                if witness is not None:
                    return False, {**witness, "basis_vector": x.to_strings()}, "(iv) fails"
    return True, None, "evaluated (i)-(iv) on " + " and ".join(evaluated)


def _eval_l6(pd: PeirceData, phi: Images):
    """The unit's image is central."""
    unit = find_unit(pd.algebra)
    f1 = phi.phi(unit)
    if is_central(pd.algebra, f1):
        return True, None, "phi(1) lies in the center"
    return False, {"equation": "phi(1) in Z", "phi(1)": f1.to_strings()}, \
        "phi(1) is not central"


def _eval_l7(pd: PeirceData, phi: Images):
    """Central z, z' exist making P11(phi(e1)) + P22(phi(e2)) - (z e1 + z' e2) central.

    That is, P11(phi(e1)) + P22(phi(e2)) lies in the span of Z, Z e1 and Z e2.
    """
    d = center(pd.algebra).dim
    v = phi.part(1, 1, pd.e1) + phi.part(2, 2, pd.e2)
    words = [lambda z: z.coords, lambda z: (z * pd.e1).coords, lambda z: (z * pd.e2).coords]
    if express_central(pd.algebra, ("L7", pd.e1.coords, pd.e2.coords), words, v.coords) is None:
        witness = {"equation": "P11(phi(e1)) + P22(phi(e2)) - (z e1 + z' e2) in Z"
                               " for central z, z'",
                   "target": v.to_strings(),
                   "problem": "the target lies outside the span of Z, Z e1 and Z e2"}
        return False, witness, f"no solution over {2 * d} central coefficients"
    return True, None, "solved for z, z' over " + _n(d, "central basis vector") + " each"


def _eval_l8(pd: PeirceData, phi: Images):
    """Diagonal parts of phi on r_ij commute with the opposite component."""
    pairs = 0
    for (i, j) in ((1, 2), (2, 1)):
        opposite = pd.components[(j, i)].basis
        for x in pd.components[(i, j)].basis:
            pairs += len(opposite)
            if phi.central(x):
                continue
            diag = phi.diag(x)
            for y in opposite:
                c = commutator(diag, y)
                if not c.is_zero():
                    witness = {"equation": f"[P11(phi(x)) + P22(phi(x)), y] = 0, "
                                           f"x in r{i}{j}, y in r{j}{i}",
                               "x": x.to_strings(), "y": y.to_strings(),
                               "commutator": c.to_strings()}
                    return False, witness, "a diagonal part fails to commute"
    return True, None, "evaluated " + _n(pairs, "basis pair") + " across both off-diagonal components"


def _eval_l9(pd: PeirceData, phi: Images):
    """Diagonal parts of phi on r_ij are central; on r_ii phi is affine in x.

    The affine form P_ii(phi(x)) = z e_i + (P_ii(phi(e_i)) - z' e_i) x, for
    central z, z', holds iff P_ii(phi(x)) - P_ii(phi(e_i)) x lies in the
    span of Z e_i and (Z e_i) x.
    """
    algebra = pd.algebra
    instances = []
    for (i, j) in ((1, 2), (2, 1)):
        basis = pd.components[(i, j)].basis
        instances.append(_n(len(basis), "vector") + f" of r{i}{j}")
        for x in basis:
            if phi.central(x):
                continue
            diag = phi.diag(x)
            for r in range(algebra.dim):
                br = algebra.basis_element(r)
                c = commutator(diag, br)
                if not c.is_zero():
                    witness = {"equation": f"[P11(phi(x)) + P22(phi(x)), b] = 0, "
                                           f"x in r{i}{j}",
                               "x": x.to_strings(), "b": br.to_strings(),
                               "commutator": c.to_strings()}
                    return False, witness, "a diagonal part is not central"

    for i in (1, 2):
        e_i = pd.idempotent(i)
        pe = phi.part(i, i, e_i)
        basis = pd.components[(i, i)].basis
        instances.append(_n(len(basis), "vector") + f" of r{i}{i}")
        for x in basis:
            words = [lambda z: (z * e_i).coords, lambda z: ((z * e_i) * x).coords]
            target = (phi.part(i, i, x) - pe * x).coords
            if express_central(algebra, ("L9", e_i.coords, x.coords), words, target) is None:
                witness = {"equation": f"P{i}{i}(phi(x)) = z e{i} + "
                                       f"(P{i}{i}(phi(e{i})) - z' e{i}) x "
                                       "for central z, z'",
                           "x": x.to_strings(),
                           "problem": f"P{i}{i}(phi(x)) - P{i}{i}(phi(e{i})) x lies outside "
                                      f"the span of Z e{i} and (Z e{i}) x"}
                return False, witness, f"no affine form in component ({i},{i})"
    return True, None, "evaluated " + ", ".join(instances)


_EVALS = {
    "L1": _eval_l1,
    "L2": _eval_l2,
    "L3": _eval_l3,
    "L4": _eval_l4,
    "L5": _eval_l5,
    "L6": _eval_l6,
    "L7": _eval_l7,
    "L8": _eval_l8,
    "L9": _eval_l9,
}
