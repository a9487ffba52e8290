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
int16.  The chunk is reduced once, in place, and tested once.  Only the
high digits v are enumerated, k rows per chunk; the p**r low digits are one
table built once, so no coordinates of all p**dim elements are ever formed.

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
(pivot row) x (column) from the later columns unreduced.  In a batch
with C columns an entry is lowered at most C - 1 times by a product of
two residues, so it stays in the lazy range [-(C - 1)(p - 1)**2, p - 1].
The input stacks are held in word_type(p, C), the narrowest of int16,
int32 and int64 holding C * p**2; batched_rank refuses C * p**2 >= 2**63
and an inverse table shorter than p.  Its reduced copy and update buffer
are held in the narrowest signed word holding the lazy range: int8 while
(C - 1)(p - 1)**2 <= 128, which is 112 on Zorn(F5) and exactly 128 on
M3(F5).  On Zorn(F5)'s L_a slabs an update pass took 37 against 66 us in
int16, a floor division 6.3 against 7.1 us, and the weighted pivot
search below 16 against 38 us with int32 weights.  A step makes no
temporary the size of the later columns: their update goes into the tail
of one update buffer, and the pivot entries and the pivot row are taken
at one flat index.  The primeness scan writes each batch straight into
batched_rank's column-by-column memory, and the pivot is found by a
maximum over rows weighted by row numbers, in int8 up to 128 rows (int16
beyond), with positions formed in intp.  These choose only where values
are written and read, not which sums are formed, so the lazy range
holds.

The primeness scan ranks L_a chunk by chunk, as projective_chunks yields
them, and appends the survivors in enumeration order to one pending
buffer.  S(a) and T(a) rank exact batches of BATCH = 2048 survivors, and
the remainder at the end; an algebra without a unit sends every
candidate there.  Ranked chunk by chunk, a Zorn(F5) scan's 19,656 L_a
survivors took 30 S(a) calls and 21 ms of an 82 ms scan (a loaded 2-core
host); in batches of 2048 they take 10 calls and 11 ms of 64.  A batch
of 2048 S(a) stacks, 2 dim rows each, holds the bytes of one
4096-candidate L_a batch.  The order is kept and every earlier batch
held no witness, so the first witness is the same; a witness among the
first candidates waits for a full batch, at most 2048 survivors of L_a.

Each scan holds one Workspace, a flat byte array grown only when a batch
needs more room: the commutation scan scores every chunk in it, and the
primeness scan's batch, reduced copy and update buffer all live in it.
The primeness scan's pending buffer, dim x 2048 words, is allocated once
beside it.  What a scan still allocates as it goes is smaller: the
primeness scan's int64 candidate block from projective_chunks (256 KB on
Zorn(F5)) and each elimination step's column-sized temporaries.  A
scan's speed then does not depend on what ran before it in the process.
When every batch was allocated anew, glibc served those of 0.5 MB from
fresh mmap pages until some larger free had raised its mmap threshold: a
Zorn(F5) primeness scan made 9,200-9,900 minor page faults in a fresh
process and about 6 after a commutation scan, and took about 30% longer
in the first state (60 against 46 ms on a 2-core host).
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np


INT64_LIMIT = 2 ** 63
TABLE_LIMIT = 2 ** 20
# Largest table of low-coordinate values: Q(u) in the commutation scan, and
# the low digits from which every chunk of coordinate vectors is filled.
U_TABLE = 1024
# Candidates per S(a) and T(a) batch of the primeness scan.
BATCH = 2048


def check_commutator_bound(p: int, n: int) -> None:
    """Raise ValueError unless n**2 * p**3 < 2**63, so the commutation scan cannot overflow."""
    if n * n * p ** 3 >= INT64_LIMIT:
        raise ValueError(f"dim^2 p^3 = {n * n * p ** 3} reaches 2^63: "
                         "the commutation scan's int64 sums could overflow")


def check_prime_scan_bound(p: int, n: int) -> None:
    """Raise ValueError unless n * p**2 < 2**63 and p < TABLE_LIMIT, before any table is built."""
    if n * p * p >= INT64_LIMIT:
        raise ValueError(f"dim p^2 = {n * p * p} reaches 2^63: the primeness scan could overflow")
    if p >= TABLE_LIMIT:
        raise ValueError(f"p = {p} reaches 2^20: the primeness scan's inverse table is too large")


def structure_tensor(algebra) -> np.ndarray:
    """Dense (n, n, n) int64 tensor C with C[i, j, k] the coefficient of b_k in b_i b_j."""
    C = np.zeros((algebra.dim,) * 3, dtype=np.int64)
    for i, j, k, c in algebra.structure_entries():
        C[i, j, k] = int(c)
    return C


def inverse_table(p: int) -> np.ndarray:
    """Lookup table of multiplicative inverses mod p (index 0 unused).

    Entry a is a**(p - 2) mod p, by square-and-multiply over the whole
    table at once; p < TABLE_LIMIT keeps every product below 2**40.
    """
    base, table, e = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64), p - 2
    while e:
        if e & 1:
            np.remainder(np.multiply(table, base, out=table), p, out=table)
        np.remainder(np.multiply(base, base, out=base), p, out=base)
        e >>= 1
    table[0] = 0
    return table


def word_type(p: int, cols: int):
    """The narrowest of int16, int32 and int64 that holds cols * p**2, or ValueError."""
    bound = cols * p * p
    if bound >= INT64_LIMIT:
        raise ValueError(f"cols p^2 = {bound} reaches 2^63: batched_rank could overflow")
    return np.int16 if bound < 2 ** 15 else np.int32 if bound < 2 ** 31 else np.int64


def _mod(x: np.ndarray, p: int, out=None, tmp=None) -> np.ndarray:
    """x mod p in [0, p), as x - x // p * p: numpy vectorizes // by a scalar but not %.

    Given out (which may be x) and tmp (which may be out unless out is x),
    it is written into out through tmp and allocates nothing.
    """
    tmp = x // p if tmp is None else np.floor_divide(x, p, out=tmp)
    tmp *= p
    return x - tmp if out is None else np.subtract(x, tmp, out=out)


def _low_digits(p: int, width: int, limit: int) -> np.ndarray:
    """The (p**r, r) int64 table of the digits of 0, ..., p**r - 1, least significant first.

    r is the largest number of digits up to width with p**r <= limit.
    """
    r = next(r for r in range(width, -1, -1) if p ** r <= limit)
    return np.indices((p,) * r).reshape(r, p ** r)[::-1].T


def _chunks(p: int, width: int, chunk: int, head: list):
    """Yield (start, rows) over 0, ..., p**width - 1: row t is head, then the digits of start + t.

    The low r digits (p**r <= chunk, U_TABLE) repeat with period s = p**r, so
    a chunk is whole blocks of s rows from their table, cut to the chunk;
    only the high digits of its blocks are computed.  The chunk is filled
    coordinate by coordinate, each one contiguous run, and rows is its
    transposed view: the primeness scan's transposed copy of it is then a
    contiguous cast (2.2 against 4.6 ms per Zorn(F5) scan, rows written
    row by row).
    """
    low = _low_digits(p, width, min(chunk, U_TABLE))
    (s, r), h, total = low.shape, len(head), p ** width
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        first, last = start // s, -(-stop // s)
        cols = np.empty((h + width, last - first, s), dtype=np.int64)
        cols[:h] = np.reshape(head, (h, 1, 1))
        cols[h:h + r] = low.T[:, None]
        if width > r:                                   # the digits of the block numbers
            high = np.arange(first, last, dtype=np.int64)[:, None] // p ** np.arange(width - r)
            cols[h + r:] = _mod(high, p).T[:, :, None]
        cols = cols.reshape(h + width, (last - first) * s)
        yield start, cols[:, start - first * s:stop - first * s].T


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
    MB, so the chunk stays at 4096.  That sweep was taken while every
    batch was allocated anew, in whatever malloc state the process was in,
    so its sizes compare page-fault costs as much as compute.  With one
    workspace per scan, the medians of 45 interleaved scans in one process
    were 56 ms at 2048, 47 ms at 4096 and 45 ms at 8192 (2-core host).
    This sweep predates S(a) and T(a) ranking batches of 2048 survivors
    (BATCH): the chunk now sizes only the L_a batches.
    """
    for lead in range(n):
        yield from (block for _, block in _chunks(p, n - lead - 1, chunk, [0] * lead + [1]))


class Workspace:
    """One flat byte array that a scan reuses from batch to batch, replaced only by a larger one.

    take(at, shape, dtype) views it as an array from byte at, rounded up to
    a multiple of 8.  A view taken before a growth keeps the array it views.
    """

    flat = np.empty(0, dtype=np.uint8)

    def take(self, at: int, shape: tuple, dtype) -> np.ndarray:
        at = -(-at // 8) * 8
        stop = at + math.prod(shape) * np.dtype(dtype).itemsize
        if self.flat.size < stop:
            self.flat = np.empty(stop, dtype=np.uint8)
        return np.ndarray(shape, dtype, self.flat, at)


def batched_rank(mats: np.ndarray, p: int, inv_table: np.ndarray, work=None) -> np.ndarray:
    """Ranks over F_p of a batch of matrices, shape (m, R, C).

    Rows are never swapped.  At column c the first row with a nonzero entry
    there is the pivot, and every row, the pivot row included, has its
    entry eliminated from the columns after c.  That leaves the pivot row
    zero mod p in those columns, so it is never picked again, and each step
    touches only the columns after c.  The batch is eliminated column by
    column, each column as (R, m), so that step is one contiguous slab;
    an input whose memory is already (C, R, m), as _combine writes it, is
    reduced without a transposed copy.  The pivot search runs row against
    row with m contiguous: weight[r] = R - 1 - r is largest at the first
    nonzero row, so last - m max_r (col[r] != 0) weight[r], with
    last = (R - 1) m + batch, is the flat position piv * m + batch of the
    pivot in the (C, R * m) view.  A column with no nonzero entry pivots
    at row R - 1, whose zero entry subtracts nothing.  The weights are row
    numbers in the narrowest signed word holding R, int8 up to 128 rows,
    and the positions are formed in intp, so no position is held in the
    batch's own word: int8 would wrap once R * m reaches 2**7.  The step
    takes the pivot entries and the pivot row at those positions, writes
    the product (pivot row) x (column) into the tail of the update buffer,
    and subtracts it in place; the buffer's first slot, free once
    subtracted, is the scratch that reduces the next column in place.  The
    last column only needs a nonzero entry.  Reduction is lazy: the copy
    and the update buffer are held in the narrowest signed word holding
    the lazy range [-(C - 1)(p - 1)**2, p - 1], never wider than
    word_type(p, C) and int8 while (C - 1)(p - 1)**2 <= 128 (see the module
    docstring).  inv_table[0] must be 0: a matrix with no pivot in column c
    then subtracts nothing.  The input is never written: the batch is a
    reduced copy.  The copy and the update buffer are taken from
    work (a new Workspace if None) past the input's own byte size, so they
    never overlap a batch that _combine wrote at the start of the same
    workspace.  The copy is formed as x - (x // p) p in the word, through
    floor_divide into it; each step is exact mod 2**bits and the result
    lies in [0, p), so an int64 input of any size is reduced exactly.
    """
    m, R, C = mats.shape
    word_type(p, C)                              # refuses C p**2 >= 2**63
    if len(inv_table) < p:
        raise ValueError(f"the inverse table has {len(inv_table)} < p = {p} entries")
    if mats.size == 0:
        return np.zeros(m, dtype=np.int64)
    # The narrowest signed words holding the lazy range and the row numbers.
    dtype = np.min_scalar_type(-max((C - 1) * (p - 1) ** 2, p))
    work, rows = work or Workspace(), np.min_scalar_type(-R)
    # Past the input, which may be the batch _combine wrote at the start of work.
    copy = work.take(mats.nbytes, (2 * C - 1, R, m), dtype)
    M, buf = copy[:C], copy[C:]
    _mod(mats.transpose(2, 1, 0), p, out=M, tmp=M)
    inv = inv_table[:p].astype(dtype, copy=False)
    weight = np.arange(R - 1, -1, -1, dtype=rows)[:, None]          # R - 1 - r at row r
    last = np.arange((R - 1) * m, R * m, dtype=np.intp)
    flat, leads, col = M.reshape(C, R * m), [], M[0]
    for c in range(C - 1):
        # Flat positions piv * m + batch of the pivots in the (R, m) column, shape (1, m).
        top = ((col != 0) * weight).max(axis=0, keepdims=True)
        idx = last - np.multiply(top, m, dtype=np.intp)
        leads.append(col.take(idx))
        factor = _mod(_mod(flat[c + 1:].take(idx, axis=1), p) * inv.take(leads[-1]), p)
        M[c + 1:] -= np.multiply(factor, col, out=buf[c:])
        col = _mod(M[c + 1], p, out=M[c + 1], tmp=buf[c])   # buf[c] is free once subtracted
    # The last column has a pivot or not.
    return np.count_nonzero(leads + [col.any(axis=0, keepdims=True)], axis=(0, 1))


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
    The low-digit table U and Q(u), repeated along k high rows, are built
    once; element_chunks enumerates only the dim - r high digits V, k rows a
    chunk.  Each chunk is scored (s, k, dim) into the workspace and reduced
    there through its scratch half with floor_divide, *= and subtract, so
    it allocates nothing of chunk size.  Score (u, v) is element v s + u,
    so the witness at flat position t of the (k, s) transposed hits is
    U[t % s] joined with V[t // s].
    """
    n, F = C.shape[0], np.asarray(F, dtype=np.int64).reshape(C.shape[0], -1)
    G = np.tensordot(F, C - C.transpose(1, 0, 2), axes=(0, 0)) % p
    H = (G + G.transpose(1, 0, 2)) % p           # B(u, v) = sum u_i v_j H[i, j]
    low = _low_digits(p, n, U_TABLE)
    (s, r), dtype = low.shape, word_type(p, low.shape[1] + 2)
    # k high-digit rows per chunk of about 16384 elements.
    U, Hvu, k = low.astype(dtype), H[r:, :r].transpose(1, 0, 2), min(16384 // s, p ** (n - r))
    # Q(u) repeated along the high digits, so adding it is one contiguous pass.
    Qu = np.repeat(_mod(_quadratic(low, G[:r, :r]), p).astype(dtype), k, axis=0).reshape(s, k, n)
    work = Workspace()
    for _, V in element_chunks(p, n - r, chunk=k):
        Q, T = work.take(0, (2, s, len(V), n), dtype)         # the score and its scratch
        # B(u, v) = sum_i u_i (V H)_i, below r p**2; V @ Hvu is (r, len(V), n).
        np.einsum("ui,ivj->uvj", U, _mod(V @ Hvu, p).astype(dtype), out=Q)
        Q += Qu[:, :len(V)]
        Q += _mod(_quadratic(V, G[r:, r:]), p).astype(dtype)
        if _mod(Q, p, out=Q, tmp=T).any():
            t = np.flatnonzero(Q.any(axis=2).T)[0]
            return np.concatenate([low[t % s], V[t // s]])
    return None


def _combine(AT: np.ndarray, table: np.ndarray, rows: int, work=None) -> np.ndarray:
    """Stacks sum_i a_i table[:, i] for the columns a of AT, as an (m, rows, C) view.

    table is (C * rows, n), row c * rows + r holding the coefficients of
    entry (r, c), and AT is the (n, m) candidates, C-contiguous.  One
    einsum (integer matmul is slower) writes the batch column by column, in
    the (C, rows, m) memory that batched_rank eliminates in, so the
    transposed view it returns reaches batched_rank without a copy.  The
    batch is written at the start of work (a new Workspace if None), which
    is sized in one growth for 3C - 1 columns: the batch, then the reduced
    copy and update buffer that batched_rank takes past it.
    """
    C, m = table.shape[0] // rows, AT.shape[1]
    # Room past the batch for batched_rank's copy and update buffer, so that one growth serves both.
    out = (work or Workspace()).take(0, (3 * C - 1, rows, m), AT.dtype)[:C]
    np.einsum("ci,ia->ca", table, AT, out=out.reshape(C * rows, m))
    return out.transpose(2, 1, 0)


@functools.lru_cache(maxsize=16)
def _compression(p: int, n: int) -> np.ndarray:
    """The primeness scan's seeded (2n, n, n) compression R, drawn once per (p, n), read-only.

    A random R: with structured ones, such as R T(a) = the maps b -> (a y) b
    for two or three fixed y, every Zorn(F5) candidate still had rank
    S(a) < n.  The standard library draws it: numpy.random would add about
    6 MB to the process.
    """
    draw = np.array(random.Random(0).choices(range(p), k=2 * n ** 3), dtype=np.int64)
    # A view of immutable bytes, so read-only.
    return np.frombuffer(draw.tobytes(), dtype=np.int64).reshape(2 * n, n, n)


def primeness_scan(C: np.ndarray, p: int, unital: bool):
    """Coordinates of the first projective a with (a x) b = 0 for all x and some b != 0, or None.

    For each a, b must lie in the kernel of the (n**2, n) stack T(a) whose
    block k is the matrix of b -> (a b_k) b.  Its compression S(a) = R T(a),
    for a fixed (2n, n**2) matrix R, has rank S(a) <= rank T(a): the
    compression only gives a lower bound on rank, so a with rank S(a) = n
    are skipped without forming T(a) and the rest are ranked on T(a).  For
    unital algebras a also needs a singular left multiplication (x = 1
    forces a b = 0), which is tested first, on each chunk as it comes.
    Its survivors, or every candidate without a unit, are appended in
    order to the (n, BATCH) pending buffer, and S(a) and then T(a) rank
    each full buffer, and the remainder at the end: batches of exactly
    BATCH candidates but the last (module docstring).  Each filter keeps
    the order, and R affects only how many a reach T(a).  Each chunk is
    held transposed, as the C-contiguous (n, m) array AT, so that _combine
    writes every batch in batched_rank's layout; a filter compacts AT's
    surviving columns with compress, which keeps it C-contiguous.
    """
    n, inv_table = C.shape[0], inverse_table(p)
    # Each table is built as (cols, rows, n), entry (r, c) of a stack being
    # sum_i a_i table[c, r, i], and read by _combine as (cols * rows, n).
    W = np.einsum("ikq,qjl->jkli", C, C) % p     # T(a): column j, rows (k, l)
    # R W_i, reduced after each block k.
    RW = np.einsum("rkl,jkli->jrki", _compression(p, n), W) % p
    # Every stack has n columns and entries below n p**2, which word_type(p, n) holds.
    dtype, work = word_type(p, n), Workspace()
    # C.transpose(2, 1, 0) has entry (j, k) = the b_k coefficient of a b_j:
    # the transpose of L_a, which has the same rank.
    left, RW, W = (np.ascontiguousarray(t, dtype=dtype).reshape(-1, n)
                   for t in (C.transpose(2, 1, 0), RW.sum(axis=2) % p, W))

    def short(AT, table, rows):                  # rank < n, for each column of AT
        return batched_rank(_combine(AT, table, rows, work), p, inv_table, work) < n

    def first(AT):                               # the first column of AT with rank T(a) < n
        AT = AT.compress(short(AT, RW, 2 * n), axis=1)
        bad = np.flatnonzero(short(AT, W, n * n)) if AT.shape[1] else ()
        return AT[:, bad[0]] if len(bad) else None
    pending, filled = np.empty((n, BATCH), dtype=dtype), 0
    for block in projective_chunks(p, n):
        AT = np.ascontiguousarray(block.T, dtype=dtype)
        if unital:
            AT = AT.compress(short(AT, left, n), axis=1)
        while AT.shape[1]:
            take = min(BATCH - filled, AT.shape[1])
            pending[:, filled:filled + take] = AT[:, :take]
            AT, filled = AT[:, take:], filled + take
            if filled == BATCH:
                a, filled = first(pending), 0
                if a is not None:
                    return a
    return first(np.ascontiguousarray(pending[:, :filled])) if filled else None
