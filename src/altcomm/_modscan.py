"""Vectorized exhaustive scans over finite-field algebras.

numpy int64 arithmetic here is exact, not floating point: coordinates stay
below p and each product of two residues below p**2.  The primeness scan
sums dim such products, staying below dim * p**2, and keeps a table of p
inverses; check_prime_scan_bound refuses dim * p**2 >= 2**63, the int64
range, and p >= TABLE_LIMIT = 2**20, which the default budget never admits.
The commutation scan's einsum multiplies three residues and sums dim**2
terms, reaching dim**2 * p**3; check_commutator_bound refuses (p, dim)
where that is not below 2**63.
"""

from __future__ import annotations

import numpy as np


INT64_LIMIT = 2 ** 63
TABLE_LIMIT = 2 ** 20


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
    """Lookup table of multiplicative inverses mod p (index 0 unused)."""
    table = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        table[a] = pow(a, p - 2, p)
    return table


def element_chunks(p: int, n: int, chunk: int = 65536):
    """Yield (start_index, coords) batches covering all p**n coordinate vectors.

    Index m maps to coords[i] = (m // p**i) % p: coordinate 0 is the least
    significant digit, so the enumeration order is canonical.
    """
    total = p ** n
    powers = p ** np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield start, (idx[:, None] // powers[None, :]) % p


def projective_chunks(p: int, n: int, chunk: int = 16384):
    """Yield batches of projective representatives (first nonzero coordinate = 1).

    Representatives with leading position 0 come first; within one leading
    position the free coordinates enumerate as in element_chunks.
    """
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


def batched_rank(mats: np.ndarray, p: int, inv_table: np.ndarray) -> np.ndarray:
    """Ranks over F_p of a batch of matrices, shape (m, R, C)."""
    M = np.ascontiguousarray(mats % p)
    m, R, C = M.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    rank = np.zeros(m, dtype=np.int64)
    row_idx = np.arange(R)
    for c in range(C):
        col = M[:, :, c]
        valid = (col != 0) & (row_idx[None, :] >= rank[:, None])
        has = valid.any(axis=1)
        sel = np.nonzero(has)[0]
        if sel.size == 0:
            continue
        piv = np.argmax(valid[sel], axis=1)
        cur = rank[sel]
        tmp = M[sel, piv, :].copy()
        M[sel, piv, :] = M[sel, cur, :]
        M[sel, cur, :] = tmp
        pivot_rows = M[sel, cur, :]
        inv = inv_table[pivot_rows[:, c]]
        pivot_rows = (pivot_rows * inv[:, None]) % p
        M[sel, cur, :] = pivot_rows
        col_vals = M[sel, :, c]
        below = row_idx[None, :] > cur[:, None]
        factors = np.where(below, col_vals, 0)
        M[sel] = (M[sel] - factors[:, :, None] * pivot_rows[:, None, :]) % p
        rank[sel] += 1
    return rank
