"""Exact matrices stored as sparse columns, and deterministic Gaussian elimination.

A ``Matrix`` stores one thing, ``columns``: one {row: entry} map per
column, holding no zero entry, so equal matrices store equal maps.  It is
built from dense rows (a map file), or without a copy from sparse
columns that hold no zero (each L_a, a random map's residual), and not
mutated afterwards.  Every operation reads the columns: ``+``, ``-`` and
``scale`` combine them key by key, ``@`` accumulates column j of the
product from the columns of self that column j of other names, and
``matvec`` accumulates into a dense list.  These are the linear maps of
the package: a ``LinearMap``, each L_a (``Algebra.mult_columns``) and the
Peirce projectors.  ``data`` and ``column`` spell the matrix out densely,
for readers that print, scan or check it.  ``rref`` and ``solve`` have
no caller in the package; the benchmark's tracer hooks them, ``matvec``
and ``@`` by name, and its ``maps`` workload builds a map from dense rows.

Every elimination goes through ``echelon_of_blocks``, which computes the
reduced row echelon form: it is unique for a row space, whatever order the
rows arrive in, and exact scalars need no magnitude heuristics.  Echelon
forms, ranks, kernels and particular solutions are therefore reproducible
byte for byte across runs and platforms.

An echelon has one form, the map {pivot column: {column: entry}}: each
row lists its nonzero entries off the pivot, whose entry is an implicit
one, and pivots ascend.  ``reduce_against`` is the one reduction against
it, behind the elimination itself and every ``Subspace``; ``Matrix.rref``
spells the map out as dense rows.

Every solve is one reduction too: ``tagged_echelon`` carries an identity
block through the elimination, and ``express`` reads a vector's
coefficients over the generators off its remainder (H. Cohen, GTM 138, Ch. 2).

A caller that has proved some vectors lie in the kernel passes them as
``known``, and the elimination stops at the rank they allow; the rows read
are checked against them, and soundness past the cap rests on the caller's
proof (see ``echelon_of_blocks``).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain


class Matrix:
    """A rows x cols matrix of exact scalars over a shared field, as its sparse columns.

    columns[j] maps each row r where column j is nonzero to its entry.
    The constructor takes dense rows, copies them and drops their zeros;
    _of takes {row: entry} maps that hold no zero, as they are.
    """

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, data, cols: int | None = None):
        data = [list(row) for row in data]
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        self.field, self.rows, self.cols = field, len(data), cols
        self.columns = [{r: row[j] for r, row in enumerate(data) if row[j]} for j in range(cols)]

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _of(cls, field, rows: int, columns: list[dict]) -> "Matrix":
        """The matrix with these columns, which hold no zero, taken without a copy."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.columns = field, rows, len(columns), columns
        return m

    # ------------------------------------------------------------------
    # dense readers

    @property
    def data(self) -> list[list]:
        """The dense rows."""
        z = self.field.zero
        return [[col.get(r, z) for col in self.columns] for r in range(self.rows)]

    def column(self, j: int) -> list:
        """Column j as a dense list."""
        out = [self.field.zero] * self.rows
        for r, a in self.columns[j].items():
            out[r] = a
        return out

    # ------------------------------------------------------------------
    # operations

    def matvec(self, v) -> list:
        """sum_j v_j (column j), accumulated into a dense list; zero v_j are skipped."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matvec")
        f = self.field
        add, mul = f.add, f.mul
        out = [f.zero] * self.rows
        for col, x in zip(self.columns, v):
            if x:
                for r, a in col.items():
                    out[r] = add(out[r], mul(a, x))
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Column j of the product sums x times column r of self over the
        entries (r, x) of column j of other."""
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        f = self.field
        add, mul = f.add, f.mul
        out = []
        for col in other.columns:
            acc = {}
            for r, x in col.items():
                for k, a in self.columns[r].items():
                    acc[k] = add(acc[k], mul(a, x)) if k in acc else mul(a, x)
            out.append({k: a for k, a in acc.items() if a})
        return Matrix._of(f, self.rows, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.field.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.field.sub)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """op(self, other) entry by entry: each column of self, changed at the
        entries of the matching column of other.  op(0, y) is y or -y, never
        zero, so an entry that comes out zero was in the column."""
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape or field mismatch")
        z = self.field.zero
        out = []
        for a, b in zip(self.columns, other.columns):
            col = dict(a)
            for k, y in b.items():
                if c := op(col.get(k, z), y):
                    col[k] = c
                else:
                    del col[k]
            out.append(col)
        return Matrix._of(self.field, self.rows, out)

    def scale(self, c) -> "Matrix":
        """c times the matrix; the matrix itself when c is one.  A nonzero c times
        a nonzero entry is nonzero, so the products need no second filter."""
        f = self.field
        if c == f.one:
            return self
        if not c:
            return Matrix._of(f, self.rows, [{} for _ in self.columns])
        return Matrix._of(f, self.rows, [{k: f.mul(c, a) for k, a in col.items()}
                                         for col in self.columns])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.columns == other.columns)

    __hash__ = None  # compared by value; the columns are dicts

    def __repr__(self) -> str:
        f = self.field
        body = "; ".join(", ".join(f.fmt(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # ------------------------------------------------------------------
    # elimination

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form, zero rows last, and the list of pivot columns."""
        echelon = echelon_of_blocks(self.field, self.cols, [self.data])
        rows = echelon_rows(self.field, self.cols, echelon)
        rows.extend([self.field.zero] * self.cols for _ in range(self.rows - len(rows)))
        return Matrix(self.field, rows, cols=self.cols), list(echelon)

    def solve(self, rhs: list) -> list | None:
        """One exact solution of self @ x = rhs, or None if inconsistent: rhs
        expressed over the columns (see express), free variables zero."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch in solve")
        return express(self.field, self.rows, self.cols,
                       tagged_echelon(self.field, self.rows, self.columns), rhs)


def echelon_of_blocks(field, n: int, blocks, known=()) -> dict[int, dict]:
    """The reduced row echelon form of stacked blocks of rows, as an echelon map.

    A row is a length-n sequence or a {column: entry} map; explicit zeros
    are dropped.  Rows are folded in one at a time, each reduced against
    the rows at the pivots it holds, so the stack is never formed; the
    lead is the smallest nonzero column, and a new row is divided by its
    lead entry through the field's ``monic``.  Back-substitution goes
    through a column index, holders[column] = the pivots whose row holds
    it, kept up to date as rows change, so a new lead touches only the
    older rows that hold it; each row it changes is passed through
    ``monic`` by one, so over Q no entry is left an integral ``Fraction``.
    The reduced echelon form of a row space is unique, so the result does
    not depend on the order of the rows.

    known holds vectors, dense or sparse, that the caller has proved lie in
    the kernel of every row.  The row space then has rank at most
    n - dim span(known), and the remaining blocks are not read once the
    rank reaches that cap (n when known is empty): rows past it can only
    span the same space, so the echelon is the same one, byte for byte.
    The rows read are checked: whether the cap is reached or the rows run
    out, every echelon row must annihilate every known vector, or this
    raises ValueError naming the smallest pivot whose row does not.  Only
    the rows at the vector's columns or holding one of them (the index)
    can fail.  Rows past the cap are never read, so there the result
    rests on the caller's proof.
    """
    f = field
    known = [_sparse(v) for v in known]
    cap = n - len(echelon_of_blocks(f, n, [known])) if known else n
    echelon, holders = {}, defaultdict(set)
    for row in chain.from_iterable(blocks) if cap else ():
        v = reduce_against(f, echelon, row)
        if not v:
            continue
        lead = min(v)
        a = v.pop(lead)
        new = f.monic(v, a)
        for pc in holders.pop(lead, ()):        # clear column lead from the rows holding it
            terms = echelon[pc] = f.monic(reduce_against(f, {lead: new}, echelon[pc]), f.one)
            for j in new:
                (holders[j].add if j in terms else holders[j].discard)(pc)
        echelon[lead] = new
        for j in new:
            holders[j].add(lead)
        if len(echelon) == cap:
            break
    for c, v in enumerate(known):
        for pc in sorted(echelon.keys() & v.keys() | set().union(*(holders[j] for j in v))):
            terms = echelon[pc]
            acc = v.get(pc, f.zero)
            for j, x in v.items():
                if j in terms:
                    acc = f.add(acc, f.mul(terms[j], x))
            if acc:
                raise ValueError(f"known vector {c} is not in the kernel: "
                                 f"the echelon row at pivot {pc} does not annihilate it")
    return dict(sorted(echelon.items()))


def _sparse(vec) -> dict:
    """The nonzero entries {column: entry} of a dense or sparse vector."""
    return {j: x for j, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if x}


def reduce_against(field, echelon: dict, vec) -> dict:
    """The nonzero remainder {column: entry} of a dense or sparse vector modulo an echelon.

    Echelon rows vanish at each other's pivots, so each pivot column the
    vector holds is cleared once, by subtracting its entry there times
    that row's off-pivot entries; the pivot's implicit one is never used.
    """
    f = field
    v = _sparse(vec)
    for pc in echelon.keys() & v.keys():
        a = v.pop(pc)
        for j, x in echelon[pc].items():
            y = f.sub(v[j], f.mul(a, x)) if j in v else f.neg(f.mul(a, x))
            if y:
                v[j] = y
            else:
                del v[j]
    return v


def tagged_echelon(field, n: int, vectors) -> dict[int, dict]:
    """The echelon of m generators in F^n, each tagged to record its combination.

    Generator v_c (a length-n sequence or a {column: entry} map) is
    extended by a one at column n + m - 1 - c, so each echelon row carries
    the combination of generators it is, in the columns from n on.
    """
    m = len(vectors)
    tagged = ({**(v if isinstance(v, dict) else dict(enumerate(v))), n + m - 1 - c: field.one}
              for c, v in enumerate(vectors))
    return echelon_of_blocks(field, n + m, [tagged])


def express(field, n: int, m: int, echelon: dict, vec) -> list | None:
    """alpha with sum_c alpha_c v_c = vec over a tagged_echelon, or None if vec is not in the span.

    vec is reduced once: off the tags it must leave no remainder, and in the
    tags its remainder is -alpha.  Reversed tags put each relation's pivot
    at its largest c, a v_c that depends on earlier ones, so alpha is zero
    there: the free-variables-zero solution.
    """
    rem = reduce_against(field, echelon, vec)
    if any(j < n for j in rem):
        return None
    return [field.neg(rem[t]) if t in rem else field.zero
            for t in range(n + m - 1, n - 1, -1)]


def echelon_rows(field, n: int, echelon: dict) -> list[list]:
    """The echelon's rows as dense length-n lists, pivot entries one, in pivot order."""
    z, o = field.zero, field.one
    return [[o if j == pc else terms.get(j, z) for j in range(n)]
            for pc, terms in echelon.items()]


def common_kernel(field, n: int, blocks, known=()) -> list[list]:
    """Common kernel of stacked blocks of rows, read off echelon_of_blocks.

    One vector per free column c, ascending: a one at c and, at each
    pivot, minus that echelon row's entry in column c.  known caps the
    elimination; see echelon_of_blocks.
    """
    echelon = echelon_of_blocks(field, n, blocks, known)
    basis = []
    for fc in range(n):
        if fc not in echelon:
            v = [field.zero] * n
            v[fc] = field.one
            for pc, terms in echelon.items():
                if fc in terms:
                    v[pc] = field.neg(terms[fc])
            basis.append(v)
    return basis
