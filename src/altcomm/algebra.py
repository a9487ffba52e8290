"""Finite-dimensional algebras given by structure constants.

An algebra is a free module over an exact field with a distinguished basis
and a bilinear product stored sparsely: entry (i, j, k, c) says that the
product of basis vectors i and j contains basis vector k with coefficient
c.  Omitted entries are zero.  Nothing about the product is assumed, not
even associativity; alternativity, units and the like are checked, never
trusted.
"""

from __future__ import annotations

import json

from .fields import field_from_dict
from .linalg import (Matrix, echelon_of_blocks, echelon_rows, express, reduce_against,
                     tagged_echelon)

# Largest dimension accepted (the benchmark's largest algebra, M8, has 64).
# At dim 128 solving for the unit of CD7(Q) peaks near 5 MB (tracemalloc).
DIM_LIMIT = 128


class Memo:
    """An object that builds each derived value once: cached(key, make, *args).

    The values live in the subclass's _memo dict, which its constructor
    sets up.  Memoising is sound only because a subclass is not mutated
    after construction.
    """

    __slots__ = ()

    def cached(self, key, make, *args):
        """The value stored under key, made by make(*args) on the first call.

        Passing the builder's arguments, not a closure over them, spares a
        hit from making a function object: center and express_central are
        asked dozens of times per lemma-suite run.
        """
        if key not in self._memo:
            self._memo[key] = make(*args)
        return self._memo[key]


class Algebra(Memo):
    """A structure-constant algebra over an exact field.

    Immutable after construction, so every derived object is built once and
    memoised (Memo.cached): the unit, the basis elements, the associator
    tensor, the bracket table (commutator_rows), the center, the nucleus,
    and the tagged echelons of peirce.express_central, whose keys are
    tuples.  Products are read off the sparse structure table: mul_coords
    over the nonzero coordinates of both factors, product_sum for a sum
    of basis products given as terms, and mult_columns for the nonzero
    entries of each column of L_a or R_a.
    The table is filled in one pass over the structure entries merged by
    (i, j, k) and sorted: repeated entries are summed, zero sums dropped,
    and each product's terms ascend by k.
    The name and every basis label must be strings.  Supplied unit
    coordinates are verified against every basis vector, and a dimension
    above DIM_LIMIT is refused before anything is built.
    """

    def __init__(self, name, field, dim, basis_labels, structure,
                 unit=None, comment=None):
        if not 1 <= dim <= DIM_LIMIT:
            raise ValueError(f"algebra dimension must be between 1 and {DIM_LIMIT}, got {dim}")
        if not isinstance(name, str):
            raise ValueError(f"algebra name must be a string, got {type(name).__name__}")
        if not (isinstance(basis_labels, (list, tuple))
                and all(isinstance(label, str) for label in basis_labels)):
            raise ValueError("basis labels must be a list of strings")
        if len(basis_labels) != dim:
            raise ValueError(f"expected {dim} basis labels, got {len(basis_labels)}")
        if len(set(basis_labels)) != dim:
            raise ValueError("basis labels must be distinct")
        self.name = name
        self.field = field
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        self.comment = comment

        # _rows[i][j] and _cols[j][i] both map to the terms (k, c) of b_i b_j, k ascending.
        merged = {}                     # (i, j, k) -> the sum of its entries, when nonzero
        for i, j, k, c in structure:
            for idx in (i, j, k):
                if type(idx) is not int or not 0 <= idx < dim:
                    raise ValueError(f"structure index {idx!r} must be an integer "
                                     f"from 0 to {dim - 1}")
            if (i, j, k) in merged:
                c = field.add(merged.pop((i, j, k)), c)
            if c:
                merged[i, j, k] = c
        self._rows, self._cols = [{} for _ in range(dim)], [{} for _ in range(dim)]
        for (i, j, k), c in sorted(merged.items()):
            self._rows[i].setdefault(j, []).append((k, c))
            self._cols[j].setdefault(i, []).append((k, c))

        self._basis_coords = [tuple(field.one if t == i else field.zero for t in range(dim))
                              for i in range(dim)]
        self._memo = {}
        if unit is not None:
            u = Element(self, unit)
            self._check_unit(u)
            self.cached("unit", lambda: u)

    # ------------------------------------------------------------------
    # elements

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        return self.cached("basis", lambda: [Element(self, c) for c in self._basis_coords])[i]

    def basis_coords(self, i: int) -> tuple:
        return self._basis_coords[i]

    @property
    def unit(self) -> "Element | None":
        """The two-sided unit, solved for lazily and cached; None if absent."""
        return self.cached("unit", self._solve_unit)

    def _check_unit(self, u: "Element") -> None:
        for i in range(self.dim):
            b = self.basis_element(i)
            if u * b != b or b * u != b:
                raise ValueError(
                    f"claimed unit fails on basis vector {self.basis_labels[i]}")

    def _solve_unit(self) -> "Element | None":
        """The u = sum u_i b_i with u b_j = b_j = b_j u for every j, or None.

        The generator of u_i holds the b_k parts of b_i b_j and b_j b_i, read
        off the table, at j n + k and n^2 + j n + k; (b_j, b_j)_j is expressed
        over the generators."""
        f, n = self.field, self.dim
        generators = [{(s * n + j) * n + k: c
                       for s, products in enumerate((self._rows[i], self._cols[i]))
                       for j, terms in products.items() for k, c in terms} for i in range(n)]
        rhs = {(s * n + j) * n + j: f.one for s in (0, 1) for j in range(n)}
        sol = express(f, 2 * n * n, n, tagged_echelon(f, 2 * n * n, generators), rhs)
        if sol is None:
            return None
        u = Element(self, sol)
        self._check_unit(u)
        return u

    # ------------------------------------------------------------------
    # the product

    def mul_coords(self, a, b) -> list:
        """Coordinates of the product of two coordinate vectors."""
        f = self.field
        out = [f.zero] * self.dim
        rows = self._rows
        bs = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = rows[i]
            for j, bj in bs:
                terms = row.get(j)
                if not terms:
                    continue
                s = f.mul(ai, bj)
                for k, c in terms:
                    out[k] = f.add(out[k], f.mul(s, c))
        return out

    def mult_columns(self, coords, side: str) -> list[dict]:
        """The nonzero entries {k: c} of each column j of L_a ("left", a b_j) or R_a
        ("right", b_j a), read off the table over the nonzero coordinates of a.

        left_mult_matrix walks the table the same way but fills a dense
        Matrix directly, which costs about half as much as filling one from
        these maps."""
        f = self.field
        columns = [{} for _ in range(self.dim)]
        table = self._rows if side == "left" else self._cols    # b_i b_j, or b_j b_i, at [i][j]
        for i, ai in enumerate(coords):
            if ai:
                for j, terms in table[i].items():
                    col = columns[j]
                    for k, c in terms:
                        col[k] = f.add(col[k], f.mul(ai, c)) if k in col else f.mul(ai, c)
        return [{k: c for k, c in col.items() if c} for col in columns]

    def left_mult_matrix(self, coords) -> Matrix:
        """Matrix of x -> a . x in the chosen basis."""
        f = self.field
        m = [[f.zero] * self.dim for _ in range(self.dim)]
        for i, ai in enumerate(coords):
            if not ai:
                continue
            for j, terms in self._rows[i].items():     # b_i b_j
                for k, c in terms:
                    m[k][j] = f.add(m[k][j], f.mul(ai, c))
        return Matrix(f, m, cols=self.dim)

    def associator_tensor(self) -> dict:
        """Cached sparse associators of basis triples, {(s, t, u): {k: c}}.

        Entry (s, t, u) holds the nonzero coordinates of (b_s b_t) b_u -
        b_s (b_t b_u); zero associators are absent and keys are sorted.
        Built from the structure constants alone, so its cost follows the
        number of nonzero products.
        """
        return self.cached("associator_tensor", self._associator_tensor)

    def _associator_tensor(self) -> dict:
        f = self.field
        rows, cols = self._rows, self._cols
        acc = {}
        for s, row in enumerate(rows):
            for t, st in row.items():
                for k, c in st:                 # (b_s b_t) b_u = sum_k c b_k b_u
                    for u, ku in rows[k].items():
                        vec = acc.setdefault((s, t, u), {})
                        for l, d in ku:
                            vec[l] = f.add(vec.get(l, f.zero), f.mul(c, d))
        for t, row in enumerate(rows):
            for u, tu in row.items():
                for k, c in tu:                 # b_s (b_t b_u) = sum_k c b_s b_k
                    for s, sk in cols[k].items():
                        vec = acc.setdefault((s, t, u), {})
                        for l, d in sk:
                            vec[l] = f.sub(vec.get(l, f.zero), f.mul(c, d))
        return _drop_zeros(acc)

    def commutator_rows(self) -> list:
        """Cached sparse commutators of basis pairs, grouped by their first index.

        Entry s lists (t, [(k, c), ...]) for every nonzero [b_s, b_t] =
        b_s b_t - b_t b_s, t ascending, with its nonzero coordinates: the
        only stored form of the bracket table.  Built once from the
        structure constants, like associator_tensor; a caller that walks one
        vector's nonzero coordinates s reads each s's brackets without a
        dict lookup per t.
        """
        return self.cached("commutator_rows", self._bracket_rows)

    def _bracket_rows(self) -> list:
        f = self.field
        acc = [{} for _ in range(self.dim)]     # acc[s][t] = {k: c} of [b_s, b_t]
        for s, row in enumerate(self._rows):
            for t, terms in row.items():
                st, ts = acc[s].setdefault(t, {}), acc[t].setdefault(s, {})
                for k, c in terms:
                    st[k] = f.add(st.get(k, f.zero), c)
                    ts[k] = f.sub(ts.get(k, f.zero), c)
        return [[(t, list(vec.items())) for t, vec in _drop_zeros(brackets).items()]
                for brackets in acc]

    def product_sum(self, terms) -> dict:
        """Coordinates {k: c} of sum v b_s b_t over the terms (v, (s, t)), from the table.

        Coordinates that no term reaches are absent; the others may be zero.
        """
        add, mul, rows = self.field.add, self.field.mul, self._rows
        acc = {}
        for v, (s, t) in terms:
            for k, c in rows[s].get(t, ()):
                acc[k] = add(acc[k], mul(v, c)) if k in acc else mul(v, c)
        return acc

    # ------------------------------------------------------------------
    # serialization

    def structure_entries(self) -> list[tuple]:
        """The nonzero entries (i, j, k, c), sorted: the table's own order."""
        return [(i, j, k, c) for i, row in enumerate(self._rows)
                for j, terms in row.items() for k, c in terms]

    def to_dict(self) -> dict:
        f = self.field
        d = {
            "name": self.name,
            "field": f.to_dict(),
            "dim": self.dim,
            "basis": list(self.basis_labels),
        }
        if self._memo.get("unit") is not None:      # supplied, or already solved for
            d["unit"] = [f.fmt(c) for c in self._memo["unit"].coords]
        d["structure"] = [[i, j, k, f.fmt(c)] for i, j, k, c in self.structure_entries()]
        if self.comment is not None:
            d["comment"] = self.comment
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Algebra":
        for key in ("name", "field", "dim", "basis", "structure"):
            if key not in d:
                raise ValueError(f"algebra file is missing {key!r}")
        field = field_from_dict(d["field"])
        dim = d["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"bad dimension {dim!r}")
        structure = []
        for entry in d["structure"]:
            if len(entry) != 4:
                raise ValueError(f"bad structure entry {entry!r}")
            i, j, k, c = entry
            structure.append((i, j, k, field.parse(str(c))))
        unit = None
        if "unit" in d and d["unit"] is not None:
            unit = [field.parse(str(s)) for s in d["unit"]]
        return cls(d["name"], field, dim, d["basis"], structure,
                   unit=unit, comment=d.get("comment"))

    def label_index(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise ValueError(f"no basis vector labelled {label!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"Algebra({self.name}, dim={self.dim}, field={self.field.label})"


def _drop_zeros(acc: dict) -> dict:
    """A sparse tensor {key: {k: c}} without zero entries or empty keys, keys sorted."""
    vecs = {key: {k: c for k, c in acc[key].items() if c} for key in sorted(acc)}
    return {key: vec for key, vec in vecs.items() if vec}


class Element:
    """An algebra element as an immutable coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        coords = tuple(coords)
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        self.algebra = algebra
        self.coords = coords

    def _require_same(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {type(other).__name__}")
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        f = self.algebra.field
        return Element(self.algebra, [f.add(a, b) for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        self._require_same(other)
        f = self.algebra.field
        return Element(self.algebra, [f.sub(a, b) for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Element":
        f = self.algebra.field
        return Element(self.algebra, [f.neg(a) for a in self.coords])

    def __mul__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def scale(self, s) -> "Element":
        f = self.algebra.field
        if isinstance(s, int):
            s = f.from_int(s)
        return Element(self.algebra, [f.mul(s, a) for a in self.coords])

    def __rmul__(self, s) -> "Element":
        if isinstance(s, Element):
            return NotImplemented
        return self.scale(s)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_strings(self) -> list[str]:
        f = self.algebra.field
        return [f.fmt(c) for c in self.coords]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.coords))

    def __repr__(self) -> str:
        return f"Element({self.algebra.name}, [{', '.join(self.to_strings())}])"


class Subspace:
    """A subspace given by a linearly independent list of elements.

    The reduced echelon form of the coordinate matrix is cached as the
    sparse map {pivot column: {column: entry}} of echelon_of_blocks, its
    only form: pivots are the map's keys, reduce returns the nonzero
    remainder of a dense or sparse vector, touching only the rows at the
    pivots it holds, and subspace equality compares the maps.
    """

    __slots__ = ("algebra", "basis", "_echelon")

    def __init__(self, algebra: Algebra, basis, _echelon=None):
        self.algebra = algebra
        self.basis = tuple(basis)
        for el in self.basis:
            if el.algebra is not algebra:
                raise ValueError("basis element from a different algebra")
        if _echelon is None:
            _echelon = echelon_of_blocks(algebra.field, algebra.dim,
                                         [[el.coords for el in self.basis]])
            if len(_echelon) != len(self.basis):
                raise ValueError("subspace basis is linearly dependent")
        self._echelon = _echelon

    @classmethod
    def from_spanning(cls, algebra: Algebra, elements) -> "Subspace":
        """The span of arbitrary elements, or of coordinate vectors (dense or
        {k: c}), with a canonical echelon basis."""
        f, n = algebra.field, algebra.dim
        rows = [el.coords if isinstance(el, Element) else el for el in elements]
        echelon = echelon_of_blocks(f, n, [rows])
        return cls(algebra, [Element(algebra, r) for r in echelon_rows(f, n, echelon)],
                   _echelon=echelon)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec) -> dict:
        """The nonzero remainder {k: c} of a dense or sparse ({k: c}) coordinate vector."""
        return reduce_against(self.algebra.field, self._echelon, vec)

    def combine(self, alpha) -> Element:
        """The combination sum_c alpha_c basis_c, for one scalar per basis vector."""
        f = self.algebra.field
        coords = [f.zero] * self.algebra.dim
        for a, el in zip(alpha, self.basis):
            if a:
                for k, c in enumerate(el.coords):
                    if c:
                        coords[k] = f.add(coords[k], f.mul(a, c))
        return Element(self.algebra, coords)

    def contains(self, el: Element) -> bool:
        if el.algebra is not self.algebra:
            raise ValueError("element from a different algebra")
        return not self.reduce(el.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        return self._echelon == other._echelon

    __hash__ = None

    def __repr__(self) -> str:
        return f"Subspace({self.algebra.name}, dim={self.dim})"


# ----------------------------------------------------------------------
# products, brackets and structural checks


def commutator(a: Element, b: Element) -> Element:
    """[a, b] = ab - ba, summed as a_s b_t [b_s, b_t] over the bracket table's rows."""
    if not isinstance(a, Element):
        raise TypeError(f"expected an Element, got {type(a).__name__}")
    a._require_same(b)
    algebra = a.algebra
    f, brackets = algebra.field, algebra.commutator_rows()
    out = [f.zero] * algebra.dim
    for s, x in enumerate(a.coords):
        if not x:
            continue
        for t, vec in brackets[s]:
            if b.coords[t]:
                v = f.mul(x, b.coords[t])
                for k, c in vec:
                    out[k] = f.add(out[k], f.mul(v, c))
    return Element(algebra, out)


def associator(a: Element, b: Element, c: Element) -> Element:
    return (a * b) * c - a * (b * c)


def is_alternative(algebra: Algebra):
    """Whether the product satisfies both alternative laws (x,x,y) = (y,x,x) = 0.

    With A the associator tensor, (x,x,y) = sum_i x_i^2 A(i,i,y) +
    sum_{i<j} x_i x_j (A(i,j,y) + A(j,i,y)), and likewise for (y,x,x).  The
    scan reads these coefficients off A at x = b_i, then at x = b_i + b_j
    (four basis triples summed), against each y = b_k.  Read as "A is skew
    in its first two slots and in its last two", the test would need the
    characteristic to differ from 2 (skewness gives only 2 A(i,i,y) = 0);
    the field types guarantee that, and reading the square terms directly
    keeps each witness in the law's own shape.  Returns (True, None) or
    (False, (x, y, z)), the first triple in scan order with a nonzero
    associator of shape (x, x, y) or (y, x, x).
    """
    A = algebra.associator_tensor()
    if not A:
        return True, None
    n = algebra.dim
    b = algebra.basis_element
    for i in range(n):
        for j in range(n):
            if (i, i, j) in A:
                return False, (b(i), b(i), b(j))
            if (j, i, i) in A:
                return False, (b(j), b(i), b(i))
    f = algebra.field

    def nonzero_sum(keys):
        total = {}
        for key in keys:
            for k, c in A.get(key, {}).items():
                total[k] = f.add(total.get(k, f.zero), c)
        return any(total.values())

    for i in range(n):
        for j in range(i + 1, n):
            x = b(i) + b(j)
            for k in range(n):
                if nonzero_sum(((i, i, k), (i, j, k), (j, i, k), (j, j, k))):
                    return False, (x, x, b(k))
                if nonzero_sum(((k, i, i), (k, i, j), (k, j, i), (k, j, j))):
                    return False, (b(k), x, x)
    return True, None


def is_associative(algebra: Algebra):
    """Associativity read off the associator tensor (basis triples suffice by trilinearity).

    Returns (True, None) or (False, (x, y, z)) with the first basis triple
    in (i, j, k) order whose associator is nonzero.
    """
    A = algebra.associator_tensor()
    if not A:
        return True, None
    b = algebra.basis_element
    i, j, k = next(iter(A))
    return False, (b(i), b(j), b(k))


def find_unit(algebra: Algebra) -> Element | None:
    """The two-sided unit if one exists; the result is cached on the algebra."""
    return algebra.unit


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """The direct sum with componentwise product.

    Useful mainly for building counterexamples: the summand units are
    idempotents that fail the regularity condition the decomposition
    machinery needs.
    """
    if a.field != b.field:
        raise ValueError("direct summands must share a field")
    labels = [f"{l}.1" for l in a.basis_labels] + [f"{l}.2" for l in b.basis_labels]
    shift = a.dim
    entries = list(a.structure_entries())
    entries.extend((i + shift, j + shift, k + shift, c) for i, j, k, c in b.structure_entries())
    unit = None
    ua, ub = a.unit, b.unit
    if ua is not None and ub is not None:
        unit = list(ua.coords) + list(ub.coords)
    return Algebra(f"{a.name}(+){b.name}", a.field, a.dim + b.dim, labels, entries,
                   unit=unit)


# ----------------------------------------------------------------------
# file I/O


def read_json(path):
    """The JSON document in a file; ValueError if it is not JSON or too deeply nested to read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {path} ({exc})") from exc
        except RecursionError:
            raise ValueError(f"not valid JSON: {path} (nested too deeply)") from None


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def save_algebra(algebra: Algebra, path) -> None:
    write_json(path, algebra.to_dict())


def load_algebra(path) -> Algebra:
    return Algebra.from_dict(read_json(path))
