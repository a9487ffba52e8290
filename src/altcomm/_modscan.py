"""Vectorized exhaustive scans over finite-field algebras.

numpy integer arithmetic here is exact, not floating point.  Coordinates,
structure constants and the precomputed tables below are residues in
[0, p), so a product of two stays below p**2 and of three below p**3.

The commutation scan evaluates [phi(x), x] at every x, exactly, as the
value Q(x) of one vector-valued quadratic form Q(x) = sum x_i x_j G[i, j].
It splits x into its r low coordinates u (p**r <= U_TABLE) and the rest v,
so that Q(u + v) = Q(u) + Q(v) + B(u, v) with B(u, v) = sum_i u_i (V H)_i
bilinear.  G and H are reduced mod p after summing dim products below p**2.
The tables are built in int64: Q(u) stays below r**2 p**3, Q(v) below
(dim - r)**2 p**3 and V H below dim p**2, all below dim**2 p**3, which
check_commutator_bound keeps below 2**63.  They are reduced mod p before
they meet, so a chunk of p**r * k elements is scored in word_type(p, r + 2)
by one (p**r x r) (r x k*dim) integer einsum for B plus the two tables:
every value is below r p**2 + 2p < (r + 2) p**2, which is 150 on Zorn(F5),
int16.  The chunk is reduced once and tested once.

The primeness scan ranks stacks T(a) = sum a_i W_i of shape (dim**2, dim)
and their compressions S(a) = sum a_i R W_i of shape (2 dim, dim); each is
a sum of dim products of residues, below dim * p**2, and so are the rows
L_a = sum a_i C[i] and the tables W_i.  R W_i is summed in dim blocks of
dim products each, every block reduced mod p before the blocks are added,
so it too stays below dim * p**2.  check_prime_scan_bound refuses
dim * p**2 >= 2**63, the int64 range, and p >= TABLE_LIMIT = 2**20, which
the default budget never admits, before the table of p inverses is built.

batched_rank reduces lazily: after reducing its input once, each step
reduces only the pivot column and the pivot row's entries and subtracts
(pivot row) x (column) from the later columns unreduced.  In a batch with
C columns an entry is lowered at most C - 1 times by a product of two
residues, so it stays in (-(C - 1)(p - 1)**2, p), below C * p**2 in
absolute value.  The batch, and the primeness stacks, are held in
word_type(p, C), the narrowest of int16, int32 and int64 holding C * p**2.
batched_rank refuses C * p**2 >= 2**63 and an inverse table shorter than p.
A step makes no temporary the size of the later columns: their update
goes into the tail of one buffer allocated per call, and the pivot entries
and the pivot row are taken at one flat index.  The primeness scan writes
each batch straight into batched_rank's column-by-column memory, and the
pivot is found by a weighted maximum over rows.  These choose only where
values are written and read, not which sums are formed, so the entry
range above holds.
"""

from __future__ import annotations

import random

import numpy as np


INT64_LIMIT = 2 ** 63
TABLE_LIMIT = 2 ** 20
# Largest table of low-coordinate values: Q(u) in the commutation scan, and
# the low digits from which every chunk of coordinate vectors is filled.
U_TABLE = 1024


def check_commutator_bound(p: int, n: int) -> None:
    """Raise ValueError unless n**2 * p**3 < 2**63, so the commutation scan cannot overflow."""
    if n * n * p ** 3 >= INT64_LIMIT:
        raise ValueError(
            f"dim^2 p^3 = {n * n * p ** 3} reaches 2^63: the commutation scan's "
            "int64 sums could overflow")


def check_prime_scan_bound(p: int, n: int) -> None:
    """Raise ValueError unless n * p**2 < 2**63 and p < TABLE_LIMIT, before any table is built."""
    if n * p * p >= INT64_LIMIT:
        raise ValueError(f"dim p^2 = {n * p * p} reaches 2^63: the primeness scan could overflow")
    if p >= TABLE_LIMIT:
        raise ValueError(f"p = {p} reaches 2^20: the primeness scan's inverse table is too large")


def structure_tensor(algebra) -> np.ndarray:
    """Dense (n, n, n) int64 tensor C with C[i, j, k] the coefficient of b_k in b_i b_j."""
    n = algebra.dim
    C = np.zeros((n, n, n), dtype=np.int64)
    for i, j, k, c in algebra.structure_entries():
        C[i, j, k] = int(c)
    return C


def inverse_table(p: int) -> np.ndarray:
    """Lookup table of multiplicative inverses mod p (index 0 unused).

    Entry a is a**(p - 2) mod p, by square-and-multiply over the whole
    table at once; p < TABLE_LIMIT keeps every product below 2**40.
    """
    base = np.arange(p, dtype=np.int64)
    table = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            table *= base
            table %= p
        base *= base
        base %= p
        e >>= 1
    table[0] = 0
    return table


def word_type(p: int, cols: int):
    """The narrowest of int16, int32 and int64 that holds cols * p**2, or ValueError."""
    bound = cols * p * p
    if bound >= INT64_LIMIT:
        raise ValueError(f"cols p^2 = {bound} reaches 2^63: batched_rank could overflow")
    return np.int16 if bound < 2 ** 15 else np.int32 if bound < 2 ** 31 else np.int64


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p), as x - x // p * p: numpy vectorizes // by a scalar but not %."""
    return x - x // p * p


def _digits(idx: np.ndarray, p: int, width: int) -> np.ndarray:
    """Rows of the width base-p digits of idx, least significant first."""
    return _mod(idx[:, None] // p ** np.arange(width, dtype=np.int64), p)


def _chunks(p: int, width: int, chunk: int, head: list):
    """Yield (start, rows) over 0, ..., p**width - 1: row t is head, then the digits of start + t.

    The low r digits (p**r <= chunk, U_TABLE) repeat with period s = p**r, so
    a chunk is whole blocks of s rows from their table, cut to the chunk;
    only the high digits of its blocks are computed.
    """
    r = 0
    while r < width and p ** (r + 1) <= min(chunk, U_TABLE):
        r += 1
    s, h, total = p ** r, len(head), p ** width
    low = np.indices((p,) * r).reshape(r, s)[::-1].T   # the digits of 0, ..., s - 1
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        first, last = start // s, -(-stop // s)
        rows = np.empty((last - first, s, h + width), dtype=np.int64)
        rows[:, :, :h] = head
        rows[:, :, h:h + r] = low
        if width > r:
            rows[:, :, h + r:] = _digits(np.arange(first, last, dtype=np.int64), p, width - r)[:, None]
        yield start, rows.reshape((last - first) * s, h + width)[start - first * s:stop - first * s]


def element_chunks(p: int, n: int, chunk: int = 65536):
    """Yield (start_index, coords) batches covering all p**n coordinate vectors.

    Index m maps to coords[i] = (m // p**i) % p: coordinate 0 is the least
    significant digit, so the enumeration order is canonical.
    """
    yield from _chunks(p, n, chunk, [])


def projective_chunks(p: int, n: int, chunk: int = 4096):
    """Yield batches of projective representatives (first nonzero coordinate = 1).

    Representatives with leading position 0 come first; within one leading
    position the free coordinates enumerate as in element_chunks.  The
    default chunk keeps the primeness scan's rank batches near the cache:
    an (8, 8, 4096) int16 stack, Zorn(F5)'s L_a, is 512 KB.  With the
    batches written in batched_rank's layout, a Zorn(F5) primeness scan on
    a 2-core host took 97-132 ms of CPU at 1024, 63-82 ms at 4096, 58-80
    ms at 8192 (the faster in two of three sweeps) and 102-113 ms at 16384
    (the median of 12 scans in one process per size).  In the benchmark's
    scan workload 8192 made 2.6% more ops/s than 4096 (four pairs), but
    its larger batches raised the process's peak RSS from about 53 to 56
    MB, so the chunk stays at 4096.
    """
    for lead in range(n):
        for _, block in _chunks(p, n - lead - 1, chunk, [0] * lead + [1]):
            yield block


def batched_rank(mats: np.ndarray, p: int, inv_table: np.ndarray) -> np.ndarray:
    """Ranks over F_p of a batch of matrices, shape (m, R, C).

    Rows are never swapped.  At column c the first row with a nonzero entry
    there is the pivot, and every row, the pivot row included, has its
    entry eliminated from the columns after c.  That leaves the pivot row
    zero mod p in those columns, so it is never picked again, and each step
    touches only the columns after c.  The batch is eliminated column by
    column, each column as (R, m), so that step is one contiguous slab;
    an input whose memory is already (C, R, m), as _combine writes it, is
    reduced without a transposed copy.  The pivot search runs row against
    row with m contiguous: weight[r] = (R - 1 - r) m is largest at the
    first nonzero row, so last - max_r (col[r] != 0) weight[r], with
    last = (R - 1) m + batch, is the flat position piv * m + batch of the
    pivot in the (C, R * m) view.  A column with no nonzero entry pivots
    at row R - 1, whose zero entry subtracts nothing.  The weights are
    int32 while R * m < 2**31 (half the traffic of intp) and last is intp,
    so no position is held in the batch's own word: int16 would wrap once
    R * m reaches 2**15.  The step takes the pivot entries and the pivot
    row at those positions, writes the product (pivot row) x (column) into
    the tail of one buffer allocated per call, and subtracts it in place;
    the last column only needs a nonzero entry.
    Reduction is lazy, in word_type(p, C): see the module docstring for
    the entry range.  inv_table[0] must be 0: a matrix with no pivot in
    column c then subtracts nothing.  The input is never written: the
    batch is a reduced copy.
    """
    m, R, C = mats.shape
    dtype = word_type(p, C)
    if len(inv_table) < p:
        raise ValueError(f"the inverse table has {len(inv_table)} < p = {p} entries")
    M = np.ascontiguousarray(_mod(mats, p).transpose(2, 1, 0), dtype=dtype)
    inv = inv_table[:p].astype(dtype, copy=False)
    if M.size == 0:
        return np.zeros(m, dtype=np.int64)
    pos = np.int32 if R * m < 2 ** 31 else np.intp
    weight = np.arange((R - 1) * m, -1, -m, dtype=pos)[:, None]   # (R - 1 - r) m at row r
    last = np.arange((R - 1) * m, R * m, dtype=np.intp)
    flat, buf = M.reshape(C, R * m), np.empty((C - 1, R, m), dtype=dtype)
    leads, col = [], M[0]
    for c in range(C - 1):
        # Flat positions piv * m + batch of the pivots in the (R, m) column, shape (1, m).
        idx = last - ((col != 0) * weight).max(axis=0, keepdims=True)
        leads.append(col.take(idx))
        factor = _mod(_mod(flat[c + 1:].take(idx, axis=1), p) * inv.take(leads[-1]), p)
        rest = M[c + 1:]
        rest -= np.multiply(factor, col, out=buf[c:])
        col = _mod(rest[0], p)
    leads.append(col.any(axis=0, keepdims=True))   # the last column has a pivot or not
    return np.count_nonzero(leads, axis=(0, 1))


def _quadratic(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Rows sum_ij x_i x_j G[i, j] for the rows x of X; below d**2 p**3 for d = X.shape[1]."""
    (m, d), n = X.shape, G.shape[2]
    XG = (X @ G.reshape(d, d * n)).reshape(m, d, n)
    return (XG * X[:, :, None]).sum(axis=1)


def commutation_scan(C: np.ndarray, F, p: int):
    """Coordinates of the first x in enumeration order with [phi(x), x] != 0, or None.

    C is the structure tensor and F the matrix of phi (column i = phi(b_i)).
    G[i, j] = sum_l F[l, i] [b_l, b_j], so [phi(x), x] = sum x_i x_j G[i, j].
    Only the tables are int64, below dim**2 p**3; reduced mod p, they score
    each chunk in word_type(p, r + 2), below (r + 2) p**2 (module docstring).
    """
    n = C.shape[0]
    F = np.asarray(F, dtype=np.int64).reshape(n, n)
    G = np.tensordot(F, C - C.transpose(1, 0, 2), axes=(0, 0)) % p
    H = (G + G.transpose(1, 0, 2)) % p           # B(u, v) = sum u_i v_j H[i, j]
    r = 0
    while r < n and p ** (r + 1) <= U_TABLE:
        r += 1
    s, dtype = p ** r, word_type(p, r + 2)
    Guu, Gvv, Hvu = G[:r, :r], G[r:, r:], H[r:, :r].reshape(n - r, r * n)
    U = None
    for _, X in element_chunks(p, n, chunk=s * max(1, 65536 // s)):
        if U is None:                            # U and Q(u) are the same in every chunk
            Qu = _mod(_quadratic(X[:s, :r], Guu), p).astype(dtype)[:, None, :]
            U = X[:s, :r].astype(dtype)
        V = X[::s, r:]
        k = V.shape[0]
        VH = _mod(V @ Hvu, p).astype(dtype).reshape(k, r, n).transpose(1, 0, 2).reshape(r, k * n)
        Q = np.einsum("ui,ij->uj", U, VH).reshape(s, k, n)   # B(u, v), below r p**2
        Q += Qu
        Q += _mod(_quadratic(V, Gvv), p).astype(dtype)[None, :, :]
        Q = _mod(Q, p)
        if Q.any():
            return X[np.flatnonzero(Q.any(axis=2).T)[0]]
    return None


def _combine(AT: np.ndarray, table: np.ndarray, rows: int) -> np.ndarray:
    """Stacks sum_i a_i table[:, i] for the columns a of AT, as an (m, rows, C) view.

    table is (C * rows, n), row c * rows + r holding the coefficients of
    entry (r, c), and AT is the (n, m) candidates, C-contiguous.  One
    einsum (integer matmul is slower) writes the batch column by column, in
    the (C, rows, m) memory that batched_rank eliminates in, so the
    transposed view it returns reaches batched_rank without a copy.
    """
    shape = (table.shape[0] // rows, rows, AT.shape[1])
    return np.einsum("ci,ia->ca", table, AT).reshape(shape).transpose(2, 1, 0)


def primeness_scan(C: np.ndarray, p: int, unital: bool):
    """Coordinates of the first projective a with (a x) b = 0 for all x and some b != 0, or None.

    For each a, b must lie in the kernel of the (n**2, n) stack T(a) whose
    block k is the matrix of b -> (a b_k) b.  Its compression S(a) = R T(a),
    for a fixed (2n, n**2) matrix R, has rank S(a) <= rank T(a): the
    compression only gives a lower bound on rank, so a with rank S(a) = n
    are skipped without forming T(a) and the rest are ranked on T(a).  For
    unital algebras a also needs a singular left multiplication (x = 1
    forces a b = 0), which is tested first.  Each filter keeps the order,
    and R affects only how many a reach T(a).  Each chunk is held
    transposed, as the C-contiguous (n, m) array AT, so that _combine
    writes every batch in batched_rank's layout; a filter compacts AT's
    surviving columns with compress, which keeps it C-contiguous.
    """
    n = C.shape[0]
    inv_table = inverse_table(p)
    # Each table is built as (cols, rows, n), entry (r, c) of a stack being
    # sum_i a_i table[c, r, i], and read by _combine as (cols * rows, n).
    W = np.einsum("ikq,qjl->jkli", C, C) % p     # T(a): column j, rows (k, l)
    # A seeded random R: with structured ones, such as R T(a) = the maps
    # b -> (a y) b for two or three fixed y, every Zorn(F5) candidate still
    # had rank S(a) < n.  The standard library draws it: numpy.random
    # would add about 6 MB to the process.
    R = np.array(random.Random(0).choices(range(p), k=2 * n ** 3), dtype=np.int64)
    R = R.reshape(2 * n, n, n)
    RW = np.einsum("rkl,jkli->jrki", R, W) % p   # R W_i, reduced after each block k
    # Every stack has n columns and entries below n p**2, so batched_rank's type holds it.
    dtype = word_type(p, n)
    # C.transpose(2, 1, 0) has entry (j, k) = the b_k coefficient of a b_j:
    # the transpose of L_a, which has the same rank.
    left, RW, W = (np.ascontiguousarray(t, dtype=dtype).reshape(-1, n)
                   for t in (C.transpose(2, 1, 0), RW.sum(axis=2) % p, W))
    for block in projective_chunks(p, n):
        AT = np.ascontiguousarray(block.T, dtype=dtype)
        if unital:
            AT = AT.compress(batched_rank(_combine(AT, left, n), p, inv_table) < n, axis=1)
        AT = AT.compress(batched_rank(_combine(AT, RW, 2 * n), p, inv_table) < n, axis=1)
        if AT.shape[1]:
            bad = np.flatnonzero(batched_rank(_combine(AT, W, n * n), p, inv_table) < n)
            if bad.size:
                return AT[:, bad[0]]
    return None
