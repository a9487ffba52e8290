"""The exhaustive F_p scans: frozen witnesses, the old loop, memory, batched_rank, chunks.

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
import tracemalloc

import numpy as np
import pytest

from altcomm import (LinearMap, Matrix, PrimeField, cayley_dickson_algebra, commutator,
                     direct_sum, exhaustive_commuting_check, is_central, matrix_algebra,
                     prime_check_exhaustive, random_commuting_map, scalar_algebra, zorn)
from altcomm import _modscan
from altcomm.algebra import Algebra

from test_associator import scalar_map

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


def _f25_plus_f5():
    """F25 + F5 (F25 = F5[i], i^2 = 2) on the basis u0 = (1, 1), u1 = (i, 0), u2 = (1, 0).

    a = a0 u0 + a1 u1 + a2 u2 has F25 part (a0 + a2) + a1 i and F5 part a0,
    so the first projective a whose component vanishes, the first witness,
    is u0 + 4 u2, at index 20 of the free coordinates.
    """
    std = [(1, 0, 1), (0, 1, 0), (1, 0, 0)]              # (g, h; f) of g + h i in F25, f in F5
    entries = []
    for i, (g, h, f) in enumerate(std):
        for j, (g2, h2, f2) in enumerate(std):
            pg, ph, pf = g * g2 + 2 * h * h2, g * h2 + h * g2, f * f2
            for k, c in enumerate((pf, ph, pg - pf)):  # coordinates on u0, u1, u2
                if c % 5:
                    entries.append((i, j, k, F5.from_int(c)))
    return Algebra("f25f5", F5, 3, ["u0", "u1", "u2"], entries)


@pytest.mark.parametrize("chunk", [1, 7, 625, 4096, 16384])
def test_prime_witness_does_not_depend_on_the_chunk(monkeypatch, chunk):
    """Chunk boundaries change no verdict and no witness, including one past the first chunks."""
    chunks = _modscan.projective_chunks
    monkeypatch.setattr(_modscan, "projective_chunks", lambda p, n: chunks(p, n, chunk))
    with open(FROZEN) as fh:
        frozen = json.load(fh)["prime"]
    for label, algebra in _prime_cases():
        ok, pair = prime_check_exhaustive(algebra)
        assert [ok, None if pair is None else [w.to_strings() for w in pair]] == frozen[label]
    ok, (a, _) = prime_check_exhaustive(_f25_plus_f5())
    assert not ok and a.to_strings() == ["1", "0", "4"]


# ----------------------------------------------------------------------
# the primeness scan against the loop that ranked each chunk's survivors


def per_chunk_primeness_scan(C, p, unital):
    """primeness_scan as it was before S(a) and T(a) ranked batches of BATCH survivors.

    Each chunk's L_a survivors were ranked on S(a) at once, and theirs on T(a).
    """
    n, inv_table = C.shape[0], _modscan.inverse_table(p)
    W = np.einsum("ikq,qjl->jkli", C, C) % p
    RW = np.einsum("rkl,jkli->jrki", _modscan._compression(p, n), W) % p
    dtype, work = _modscan.word_type(p, n), _modscan.Workspace()
    left, RW, W = (np.ascontiguousarray(t, dtype=dtype).reshape(-1, n)
                   for t in (C.transpose(2, 1, 0), RW.sum(axis=2) % p, W))

    def short(AT, table, rows):
        mats = _modscan._combine(AT, table, rows, work)
        return _modscan.batched_rank(mats, p, inv_table, work) < n
    for block in _modscan.projective_chunks(p, n):
        AT = np.ascontiguousarray(block.T, dtype=dtype)
        if unital:
            AT = AT.compress(short(AT, left, n), axis=1)
        AT = AT.compress(short(AT, RW, 2 * n), axis=1)
        if AT.shape[1]:
            bad = np.flatnonzero(short(AT, W, n * n))
            if bad.size:
                return AT[:, bad[0]]
    return None


def _skewed_sum(left, right):
    """left + right on the basis u_i = (l_i, r_{n-1-i}) for i < dim left, then u_j = b_j.

    A projective a whose first coordinate is 1 has a nonzero left part, so
    the first witness, the first a with zero right part, needs x_{n-1} = 4:
    index 4 * 5**(n - 2) among those a.
    """
    s, k = direct_sum(left, right), left.dim
    n, f = s.dim, s.field
    u = [[int(a == i or (i < k and a == n - 1 - i)) for a in range(n)] for i in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            y = s.mul_coords(u[i], u[j])
            # b_t = u_t - u_{n-1-t} for t < k, and b_t = u_t from k on.
            z = [y[t] - (y[n - 1 - t] if n - 1 - t < k else 0) for t in range(n)]
            entries += [(i, j, t, f.from_int(c)) for t, c in enumerate(z) if c % f.p]
    return Algebra("skewed", f, n, [f"u{i}" for i in range(n)], entries)


def _batching_cases():
    """(label, algebra): early and late witnesses, the prime Zorn(F5), and a non-unital sum.

    ea(F5) has a left unit only, so the last sum is not unital.
    """
    s, m2 = scalar_algebra(F5), matrix_algebra(F5, 2)[0]
    return [("M2(F5)+M2(F5)", direct_sum(m2, m2)),
            ("M2(F5)+M2(F5) skewed", _skewed_sum(m2, m2)),
            ("F5+M2(F5) skewed", _skewed_sum(s, m2)),
            ("Zorn(F5)", zorn(F5)[0]),
            ("ea(F5)+M2(F5) skewed", _skewed_sum(_left_unit_algebra(F5), m2))]


@pytest.mark.parametrize("chunk", [7, 64])
def test_primeness_scan_ranks_full_batches_and_matches_the_per_chunk_loop(monkeypatch, chunk):
    """Witnesses as the per-chunk loop finds them; every S(a) batch but the last holds BATCH.

    With 7 or 64 candidates per chunk a batch merges the survivors of many
    chunks, and the late witnesses come after whole batches.  Zorn(F5) and
    the skewed M2(F5)+M2(F5) run at 64 only: at 7 they took 20.7 of 20.9 s.
    """
    chunks, rank = _modscan.projective_chunks, _modscan.batched_rank
    monkeypatch.setattr(_modscan, "projective_chunks", lambda p, n: chunks(p, n, chunk))
    late = unital_cases = 0
    for label, algebra in _batching_cases():
        if chunk == 7 and label in ("Zorn(F5)", "M2(F5)+M2(F5) skewed"):
            continue
        C, unital = _modscan.structure_tensor(algebra), algebra.unit is not None
        want = per_chunk_primeness_scan(C, 5, unital)
        sizes = []

        def spy(mats, *args):
            if mats.shape[1:] == (2 * C.shape[0], C.shape[0]):
                sizes.append(mats.shape[0])
            return rank(mats, *args)
        monkeypatch.setattr(_modscan, "batched_rank", spy)
        got = _modscan.primeness_scan(C, 5, unital)
        monkeypatch.setattr(_modscan, "batched_rank", rank)
        assert (got is None and want is None) or got.tolist() == want.tolist(), label
        assert sizes and set(sizes[:-1]) <= {_modscan.BATCH} and 0 < sizes[-1] <= _modscan.BATCH
        late += len(sizes) > 1 and want is not None
        unital_cases += unital
    # Past whole batches: the non-unital case at both sizes, M2(F5)+M2(F5) skewed at 64.
    assert late == (1 if chunk == 7 else 2) and unital_cases == (2 if chunk == 7 else 4)


# ----------------------------------------------------------------------
# the commutation scan's word type against exact arithmetic


def _left_unit_algebra(field):
    """e e = e, e a = a, a e = a a = 0: [y, x] = (y_0 x_1 - x_0 y_1) a, so [e, a] = a."""
    return Algebra("ea", field, 2, ["e", "a"], [(0, 0, 0, field.one), (0, 1, 1, field.one)])


def _maps(algebra, seed):
    """Seeded matrices, some with phi(e) in F e so that the row x_1 = 0 commutes, and -id."""
    f, n, rng = algebra.field, algebra.dim, random.Random(seed)
    for t in range(6):
        data = [[f.from_int(rng.randrange(f.p)) for _ in range(n)] for _ in range(n)]
        if t % 2 and n == 2:
            data[1][0] = f.zero
        yield LinearMap(algebra, Matrix(f, data, cols=n))
    yield scalar_map(algebra, 0) - scalar_map(algebra)


def _exact_first_witness(algebra, phi):
    p, n = algebra.field.p, algebra.dim
    for m in range(p ** n):
        x = algebra.element([(m // p ** i) % p for i in range(n)])
        if not commutator(phi(x), x).is_zero():
            return x
    return None


@pytest.mark.parametrize("p, dim, word", [(103, 2, np.int16), (107, 2, np.int32),
                                          (32749, 1, np.int32), (32771, 1, np.int64)])
def test_commutation_scan_on_each_side_of_the_word_type_switches(monkeypatch, p, dim, word):
    """The scan scores chunks in word_type(p, r + 2) and agrees with exact arithmetic.

    (r + 2) p^2 is 31827 < 2^15 at p = 103 and 34347 at 107, with r = 1 low
    coordinate (p <= U_TABLE < p^2); with r = 0 (p > U_TABLE) it crosses 2^31
    between 32749 and 32771.
    """
    r = dim - 1
    assert _modscan.word_type(p, r + 2) is word
    field = PrimeField(p)
    algebra = _left_unit_algebra(field) if dim == 2 else scalar_algebra(field)
    einsum, used = np.einsum, set()

    def spy(subscripts, *operands, **kwargs):
        used.update(op.dtype.type for op in operands)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    for phi in _maps(algebra, p):
        # Every map on a one-dimensional algebra commutes.
        witness = _exact_first_witness(algebra, phi) if dim == 2 else None
        assert exhaustive_commuting_check(algebra, phi) == (witness is None, witness)
    assert used == {word}


# ----------------------------------------------------------------------
# the commutation scan against the loop that enumerated every coordinate


def full_chunk_commutation_scan(C, F, p):
    """commutation_scan as it was before it enumerated only the high digits.

    Every chunk held all n coordinates of p**r * k elements; the first p**r
    rows gave the low-digit table U and Q(u), every p**r-th row the high
    digits V, and the witness was the chunk's row at the first nonzero score.
    """
    n = C.shape[0]
    F = np.asarray(F, dtype=np.int64).reshape(n, n)
    G = np.tensordot(F, C - C.transpose(1, 0, 2), axes=(0, 0)) % p
    H = (G + G.transpose(1, 0, 2)) % p
    r = 0
    while r < n and p ** (r + 1) <= _modscan.U_TABLE:
        r += 1
    s, dtype = p ** r, _modscan.word_type(p, r + 2)
    Guu, Gvv, Hvu = G[:r, :r], G[r:, r:], H[r:, :r].reshape(n - r, r * n)
    U = None
    for _, X in closed_form_element_chunks(p, n, chunk=s * max(1, 65536 // s)):
        if U is None:
            Qu = (_modscan._quadratic(X[:s, :r], Guu) % p).astype(dtype)[:, None, :]
            U = X[:s, :r].astype(dtype)
        V = X[::s, r:]
        k = V.shape[0]
        VH = (V @ Hvu % p).astype(dtype).reshape(k, r, n).transpose(1, 0, 2).reshape(r, k * n)
        Q = np.einsum("ui,ij->uj", U, VH).reshape(s, k, n)
        Q += Qu
        Q += (_modscan._quadratic(V, Gvv) % p).astype(dtype)[None, :, :]
        Q %= p
        if Q.any():
            return X[np.flatnonzero(Q.any(axis=2).T)[0]]
    return None


def _scan_pairs():
    """(label, structure tensor, map matrix, p) for the frozen commuting cases and r = 0.

    The frozen cases hold M2(F5) and CD2(F5), where all n = 4 coordinates
    are low (n - r = 0), and the M2(F5)+M2(F5) map whose first violating x
    has index 81250, high-digit row 130.  Over F1031 > U_TABLE no coordinate
    is low (r = 0).
    """
    for label, algebra, phi in _commuting_cases():
        yield label, _modscan.structure_tensor(algebra), phi.matrix.data, algebra.field.p
    algebra = _left_unit_algebra(PrimeField(1031))
    for t, phi in enumerate(_maps(algebra, 1031)):
        yield f"ea(F1031) {t}", _modscan.structure_tensor(algebra), phi.matrix.data, 1031


def _same_witness(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and got.dtype == np.int64
        and [int(v) for v in got] == [int(v) for v in want])


def test_commutation_scan_matches_the_full_chunk_loop():
    verdicts = set()
    for label, C, F, p in _scan_pairs():
        want = full_chunk_commutation_scan(C, F, p)
        assert _same_witness(_modscan.commutation_scan(C, F, p), want), label
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_commutation_witness_past_the_first_high_digit_chunk(monkeypatch):
    """With 7 high-digit rows per chunk, witnesses many chunks in come back the same."""
    chunks, starts = _modscan.element_chunks, []

    def small(p, n, chunk=65536):
        for start, V in chunks(p, n, 7):
            starts.append(start)
            yield start, V
    monkeypatch.setattr(_modscan, "element_chunks", small)
    late = 0
    for label, C, F, p in _scan_pairs():
        if p == 1031:
            continue                     # r = 0: 7 elements per chunk, 1031**2 elements
        want = full_chunk_commutation_scan(C, F, p)
        starts.clear()
        assert _same_witness(_modscan.commutation_scan(C, F, p), want), label
        late += want is not None and starts[-1] > 0
    assert late >= 5


# ----------------------------------------------------------------------
# memory: the scans reuse one workspace


def test_scans_on_zorn_f5_hold_little_memory():
    """tracemalloc peak of one scan of each kind on Zorn(F5), after a first scan.

    The commutation scan once wrote all 390,625 x 8 int64 coordinates (9.0
    MiB at peak); scoring the high digits into one workspace stays under 1
    MiB.  The primeness scan stays within the 2.26 MiB it reached when every
    batch was allocated anew.
    """
    algebra = zorn(F5)[0]
    phi = random_commuting_map(algebra, 11)
    for scan, bound in ((lambda: exhaustive_commuting_check(algebra, phi), 2 ** 20),
                        (lambda: prime_check_exhaustive(algebra), 2.26 * 2 ** 20)):
        scan()
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_workspace_grows_only_when_a_view_needs_more_room():
    work = _modscan.Workspace()
    a = work.take(0, (2, 3), np.int16)
    a[...] = 7
    flat = work.flat
    assert np.shares_memory(work.take(0, (3,), np.int16), a) and work.flat is flat
    b = work.take(13, (4,), np.int64)        # from byte 16, past a's 12 bytes
    assert work.flat is not flat and work.flat.size == 48
    assert (a == 7).all()                    # a keeps the array it views
    flat = work.flat
    assert np.shares_memory(work.take(16, (4,), np.int64), b) and work.flat is flat


def test_compression_matrix_is_drawn_once_and_read_only():
    R = _modscan._compression(5, 8)
    assert R is _modscan._compression(5, 8) and R.shape == (16, 8, 8)
    assert not R.flags.writeable
    draw = random.Random(0).choices(range(5), k=2 * 8 ** 3)
    assert R.reshape(-1).tolist() == draw


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


@pytest.mark.parametrize("p", [5, 101])
def test_batched_rank_reduces_wide_int64_entries(p):
    """Entries far outside the word, congruent to residues, rank as their residues."""
    rng = np.random.default_rng(p)
    table = _modscan.inverse_table(p)
    for mats in _batches(rng, p):
        wide = mats.astype(np.int64) + p * rng.integers(-2 ** 40, 2 ** 40, size=mats.shape)
        want = [reference_rank(m.tolist(), p) for m in mats]
        assert [int(v) for v in _modscan.batched_rank(wide, p, table)] == want


def _worst_growth(p, cols):
    """A (cols, cols) matrix whose last row is lowered by (p - 1)**2 in every later column at each step.

    Rows 0 .. cols-2 are unit upper triangular with p - 1 above the
    diagonal.  The last row is c - 1 mod p in column c < cols - 1, so its
    reduced entry in each pivot column is p - 1, and cols - 1 mod p in the
    last column, which thus ends at 0 mod p and below -(cols - 2)(p - 1)**2:
    rank cols - 1.
    """
    m = np.triu(np.full((cols, cols), p - 1, dtype=np.int64), 1) + np.eye(cols, dtype=np.int64)
    m[-1] = [(c - 1) % p for c in range(cols - 1)] + [(cols - 1) % p]
    return m


@pytest.mark.parametrize("p", [5, 7, 101])
def test_batched_rank_leaves_its_input_and_ignores_its_layout(p):
    """The update is in place on a copy: the input is unchanged, and a strided view ranks the same."""
    rng = np.random.default_rng(p)
    table = _modscan.inverse_table(p)
    for mats in [*_batches(rng, p), np.stack([_worst_growth(p, 8)] * 3)]:
        mats = mats.astype(np.int64)
        before = mats.copy()
        want = [reference_rank(m.tolist(), p) for m in mats]
        assert [int(v) for v in _modscan.batched_rank(mats, p, table)] == want
        assert np.array_equal(mats, before)
        strided = np.ascontiguousarray(mats.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert [int(v) for v in _modscan.batched_rank(strided, p, table)] == want
        assert np.array_equal(strided, before)


@pytest.mark.parametrize("p, word", [(61, np.int16), (67, np.int32),
                                     (16381, np.int32), (16411, np.int64)])
def test_batched_rank_on_each_side_of_the_word_type_switches(p, word):
    """8 p^2 is 29768 < 2^15 at p = 61, 35912 at 67; it crosses 2^31 between 16381 and 16411."""
    cols = 8
    assert _modscan.word_type(p, cols) is word
    rng = np.random.default_rng(p)
    table = _modscan.inverse_table(p)
    batches = [rng.integers(0, p, size=(12, cols, cols)),
               rng.integers(0, p, size=(6, cols * cols, cols)),
               np.einsum("mrk,mkc->mrc", rng.integers(0, p, size=(8, cols, 3)),
                         rng.integers(0, p, size=(8, 3, cols))),
               np.full((3, cols, cols), p - 1, dtype=np.int64),
               np.stack([_worst_growth(p, cols)] * 2)]
    for mats in batches:
        got = _modscan.batched_rank(mats, p, table)
        assert [int(v) for v in got] == [reference_rank(m.tolist(), p) for m in mats]
    assert [int(v) for v in _modscan.batched_rank(batches[-1], p, table)] == [cols - 1] * 2


class _Recording(_modscan.Workspace):
    """A workspace that records the word of every view taken from it."""

    def __init__(self):
        self.words = []

    def take(self, at, shape, dtype):
        self.words.append(np.dtype(dtype))
        return super().take(at, shape, dtype)


@pytest.mark.parametrize("p, cols, word", [(5, 8, np.int8), (5, 9, np.int8),
                                           (5, 10, np.int16), (7, 8, np.int16)])
def test_batched_rank_on_each_side_of_the_int8_switch(p, cols, word):
    """The copy is int8 while its lazy range [-(cols - 1)(p - 1)^2, p - 1] fits.

    (cols - 1)(p - 1)^2 is 112 and 128 at p = 5 with 8 and 9 columns, 144
    with 10, and 252 at p = 7; _worst_growth reaches -110, -125, -140 and
    -252.  The late-pivot batch has 144 rows, past int8 row numbers.
    """
    assert _modscan.word_type(p, cols) is np.int16
    rng = np.random.default_rng(cols * p)
    table = _modscan.inverse_table(p)
    batches = [rng.integers(0, p, size=(12, cols, cols)),
               rng.integers(0, p, size=(6, cols * cols, cols)),
               np.full((3, cols, cols), p - 1, dtype=np.int64),
               np.stack([_worst_growth(p, cols)] * 2),
               _late_pivot_members(rng, p, 144, cols)]
    for mats in batches:
        work = _Recording()
        got = _modscan.batched_rank(mats, p, table, work)
        assert work.words == [np.dtype(word)]
        assert [int(v) for v in got] == [reference_rank(m.tolist(), p) for m in mats]
    assert [int(v) for v in _modscan.batched_rank(batches[3], p, table)] == [cols - 1] * 2


def test_batched_rank_refuses_overflow_and_short_inverse_tables():
    p, table = 2 ** 19, np.zeros(2 ** 19, dtype=np.int64)
    below = np.zeros((0, 1, 2 ** 25 - 1), dtype=np.int64)      # cols p^2 just below 2^63
    assert _modscan.word_type(p, 2 ** 25 - 1) is np.int64
    assert _modscan.batched_rank(below, p, table).shape == (0,)
    with pytest.raises(ValueError, match="2\\^63"):          # exactly 2^63
        _modscan.batched_rank(np.zeros((0, 1, 2 ** 25), dtype=np.int64), p, table)
    mats = np.ones((1, 2, 2), dtype=np.int64)
    assert list(_modscan.batched_rank(mats, 5, _modscan.inverse_table(5))) == [1]
    with pytest.raises(ValueError, match="inverse table"):
        _modscan.batched_rank(mats, 5, _modscan.inverse_table(5)[:4])


def _late_pivot_members(rng, p, rows, cols):
    """Distinct (rows, cols) matrices: full rank, rank deficient, and zero but in the last rows."""
    full = rng.integers(0, p, size=(3, rows, cols))
    low = np.einsum("mrk,mkc->mrc", rng.integers(0, p, size=(3, rows, 3)),
                    rng.integers(0, p, size=(3, 3, cols)))
    late = np.zeros((4, rows, cols), dtype=np.int64)
    late[:, -2:] = rng.integers(1, p, size=(4, 2, cols))   # every pivot in row rows - 2 or later
    late[1, -1] = late[1, -2]                              # rank 1
    late[2, -2] = 0                                        # rank 1, its pivots in the last row
    late[3, :, 0] = 0                                      # no pivot in column 0
    return np.concatenate([full, low, late])


@pytest.mark.parametrize("m, rows", [(4100, 8), (600, 64)])
def test_batched_rank_positions_do_not_wrap_in_int16(m, rows):
    """R * m >= 2^15 in an int16 batch: pivot positions piv * m + batch must not wrap there.

    Every distinct member recurs up to the last batch index, so members whose
    pivots sit in the last rows are ranked where piv * m + batch passes 2^15.
    """
    p, cols = 5, 8
    assert _modscan.word_type(p, cols) is np.int16 and rows * m >= 2 ** 15
    distinct = _late_pivot_members(np.random.default_rng(rows), p, rows, cols)
    want = [reference_rank(d.tolist(), p) for d in distinct]
    assert min(want) < min(rows, cols) and 0 < min(want)
    pick = np.arange(m) % len(distinct)
    got = _modscan.batched_rank(distinct[pick].astype(np.int16), p, _modscan.inverse_table(p))
    assert [int(v) for v in got] == [want[k] for k in pick]


@pytest.mark.parametrize("m", [0, 1, 37])
def test_combine_writes_the_batch_in_batched_rank_layout(m):
    """_combine(AT, table, rows)[b] is sum_i AT[i, b] table[:, i] as a (rows, C) matrix.

    Residues up to p - 1 = 60 give sums up to 8 * 60**2 = 28800, just below
    2^15, in the int16 word; the memory under the result is (C, rows, m).
    """
    p, n, rows, cols = 61, 8, 16, 8
    dtype = _modscan.word_type(p, n)
    assert dtype is np.int16
    rng = np.random.default_rng(m)
    table = rng.integers(0, p, size=(cols * rows, n))
    table[:rows] = p - 1
    AT = rng.integers(0, p, size=(n, m))
    AT[:, :1] = p - 1
    want = np.zeros((m, rows, cols), dtype=np.int64)
    for b in range(m):
        for i in range(n):
            want[b] += int(AT[i, b]) * table[:, i].reshape(cols, rows).T
    assert m == 0 or want.max() == n * (p - 1) ** 2
    got = _modscan._combine(AT.astype(dtype), table.astype(dtype), rows)
    assert got.shape == (m, rows, cols) and got.dtype == dtype
    assert np.array_equal(got, want)
    assert got.transpose(2, 1, 0).flags.c_contiguous


# ----------------------------------------------------------------------
# chunk enumeration against the closed form


def closed_form_element_chunks(p, n, chunk=65536):
    """element_chunks as first written: every coordinate by division and mod."""
    total = p ** n
    powers = p ** np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield start, (idx[:, None] // powers[None, :]) % p


def closed_form_projective_chunks(p, n, chunk=16384):
    """projective_chunks as first written."""
    for lead in range(n):
        free = n - lead - 1
        total = p ** free
        powers = p ** np.arange(free, dtype=np.int64)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            block = np.zeros((len(idx), n), dtype=np.int64)
            block[:, lead] = 1
            if free:
                block[:, lead + 1:] = (idx[:, None] // powers[None, :]) % p
            yield block


@pytest.mark.parametrize("p, n, chunk", [
    (7, 4, 1000),                # 7^3 = 343 does not divide the chunk
    (3, 3, 100), (5, 4, 65536),  # p^n below the chunk
    (5, 1, 3), (101, 1, 7),      # n = 1
    (5, 8, 625 * 104),           # the commutation scan's own s k on Zorn(F5)
    (5, 8, 4096),                # the primeness scan's chunk on Zorn(F5)
    (5, 8, 16384),               # the primeness scan's earlier chunk on Zorn(F5)
    (2, 11, 1000), (1031, 2, 5000), (5, 0, 7)])
def test_chunks_match_the_closed_form(p, n, chunk):
    got = list(_modscan.element_chunks(p, n, chunk))
    want = list(closed_form_element_chunks(p, n, chunk))
    assert [start for start, _ in got] == [start for start, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == np.int64 and np.array_equal(a, b)
    got = list(_modscan.projective_chunks(p, n, chunk))
    want = list(closed_form_projective_chunks(p, n, chunk))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.int64 and np.array_equal(a, b)


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
