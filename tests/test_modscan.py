"""The exhaustive F_p scans: frozen witnesses, batched_rank and the inverse table.

scan_witnesses.json records the verdict and the witness of
exhaustive_commuting_check and prime_check_exhaustive on the cases below, as
the scans gave them when each chunk was scored with two einsums and every
primeness candidate was ranked on its full stack.  A scan returns the first
witness in enumeration order, so any rewrite must reproduce these exactly.
Regenerate on purpose with ``PYTHONPATH=src python tests/test_modscan.py``.
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np
import pytest

from altcomm import (LinearMap, Matrix, PrimeField, cayley_dickson_algebra, commutator,
                     direct_sum, exhaustive_commuting_check, is_central, matrix_algebra,
                     prime_check_exhaustive, random_commuting_map, scalar_algebra, zorn)
from altcomm import _modscan
from altcomm.algebra import Algebra

F5 = PrimeField(5)
F7 = PrimeField(7)
FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scan_witnesses.json")


def _seeded_terms(algebra, seed, deep):
    """Two seeded (j, k, c) with b_k non-central, commuting with b_j where one does.

    Then the basis vectors themselves often pass and the first violating x
    is a sum.  With ``deep`` set, j is one of the last two coordinates.
    """
    rng = random.Random(seed)
    n = algebra.dim
    b = algebra.basis_element
    noncentral = [k for k in range(n) if not is_central(algebra, b(k))]
    terms = []
    for t in range(2):
        j = n - 1 - t if deep else rng.randrange(n)
        quiet = [k for k in noncentral if k != j and commutator(b(k), b(j)).is_zero()]
        terms.append((j, rng.choice(quiet or noncentral), rng.randrange(1, algebra.field.p)))
    return terms


def _perturbed(algebra, seed, terms):
    """The seeded commuting map plus x -> c * x_j b_k for each (j, k, c) in terms."""
    f = algebra.field
    n = algebra.dim
    data = [[f.zero] * n for _ in range(n)]
    for j, k, c in terms:
        data[k][j] = f.add(data[k][j], f.from_int(c))
    return random_commuting_map(algebra, seed) + LinearMap(algebra, Matrix(f, data, cols=n))


def _commuting_cases():
    """(label, algebra, map): 25 perturbed maps and two commuting ones."""
    m2 = matrix_algebra(F5, 2)[0]
    algebras = [("M2(F5)", m2),
                ("M2(F7)", matrix_algebra(F7, 2)[0]),
                ("CD2(F5)", cayley_dickson_algebra(F5, [F5.one, F5.from_int(2)])[0]),
                ("M2(F5)+F5", direct_sum(m2, scalar_algebra(F5))),
                ("M2(F5)+M2(F5)", direct_sum(m2, m2)),
                ("Zorn(F5)", zorn(F5)[0])]
    cases = []
    for name, algebra in algebras:
        for seed in range(4):
            deep = seed % 2 == 1
            label = f"{name} perturbed {seed}{' deep' if deep else ''}"
            terms = _seeded_terms(algebra, seed, deep)
            cases.append((label, algebra, _perturbed(algebra, seed, terms)))
    # x -> x_7 E11' on the second summand: the first violating x is
    # b_5 + b_7, at index 5^5 + 5^7 = 81250, past the first chunk.
    m2m2 = algebras[4][1]
    cases.append(("M2(F5)+M2(F5) x7 E11'", m2m2, _perturbed(m2m2, 0, [(7, 4, 1)])))
    for name, algebra in (algebras[1], algebras[5]):
        cases.append((f"{name} commuting", algebra, random_commuting_map(algebra, 11)))
    return cases


def _prime_cases():
    s = scalar_algebra(F5)
    m2 = matrix_algebra(F5, 2)[0]
    return [("F5+F5+F5", direct_sum(direct_sum(s, s), s)),
            ("M2(F5)+F5", direct_sum(m2, s)),
            ("M2(F5)+M2(F5)", direct_sum(m2, m2)),
            ("null3(F5)", Algebra("null3f5", F5, 3, ["a", "b", "c"], [])),
            ("M2(F7)", matrix_algebra(F7, 2)[0])]


def _scan_results():
    commuting = {}
    for label, algebra, phi in _commuting_cases():
        ok, x = exhaustive_commuting_check(algebra, phi)
        commuting[label] = [ok, None if x is None else x.to_strings()]
    prime = {}
    for label, algebra in _prime_cases():
        ok, pair = prime_check_exhaustive(algebra)
        prime[label] = [ok, None if pair is None else [w.to_strings() for w in pair]]
    return {"commuting": commuting, "prime": prime}


def test_scan_witnesses_are_frozen():
    """Verdict and first witness in enumeration order of both scans, as first recorded."""
    with open(FROZEN) as fh:
        frozen = json.load(fh)
    assert _scan_results() == frozen


# ----------------------------------------------------------------------
# batched_rank against elimination in Python integers


def reference_rank(rows, p):
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _batches(rng, p):
    """Random, zero, rank-1 and low-rank batches in square, tall (n^2, n) and wide shapes."""
    for shape in ((8, 4, 4), (12, 16, 4), (6, 64, 8), (10, 3, 7), (5, 1, 6), (5, 6, 1)):
        m, r, c = shape
        yield rng.integers(0, p, size=shape)
        yield np.zeros(shape, dtype=np.int64)
        yield rng.integers(0, p, size=(m, r, 1)) * rng.integers(0, p, size=(m, 1, c))
        k = max(1, min(r, c) - 1)
        yield np.einsum("mrk,mkc->mrc", rng.integers(0, p, size=(m, r, k)),
                        rng.integers(0, p, size=(m, k, c)))
    yield np.zeros((0, 4, 4), dtype=np.int64)
    yield np.zeros((0, 16, 4), dtype=np.int64)


@pytest.mark.parametrize("p", [5, 7, 101])
def test_batched_rank_matches_python_elimination(p):
    rng = np.random.default_rng(p)
    table = _modscan.inverse_table(p)
    for mats in _batches(rng, p):
        mats = mats.astype(np.int64)
        got = _modscan.batched_rank(mats, p, table)
        assert got.shape == (mats.shape[0],)
        assert [int(v) for v in got] == [reference_rank(m.tolist(), p) for m in mats]


# ----------------------------------------------------------------------
# the inverse table


@pytest.mark.parametrize("p", [5, 101, 999983, 1048573])
def test_inverse_table_matches_pow(p):
    table = _modscan.inverse_table(p)
    assert table.shape == (p,) and table.dtype == np.int64
    assert table[0] == 0
    points = range(1, p) if p < 1000 else random.Random(p).sample(range(1, p), 2000) + [1, p - 1]
    for a in points:
        assert table[a] == pow(a, p - 2, p)


def test_primeness_over_a_large_prime_field_is_fast():
    algebra = scalar_algebra(PrimeField(999983))
    start = time.perf_counter()
    assert prime_check_exhaustive(algebra) == (True, None)
    assert time.perf_counter() - start < 0.5


def _freeze():
    with open(FROZEN, "w") as fh:
        json.dump(_scan_results(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _freeze()
