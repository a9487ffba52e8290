"""Exact linear algebra checks, including brute-force oracles over F5."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcomm import Algebra, LinearMap, PrimeField, RationalField
from altcomm import linalg
from altcomm.linalg import Matrix, common_kernel, echelon_of_blocks, reduce_against

from test_associator import (builtin_over, columns_matrix, dense_kernel, dense_rref, dense_solve,
                             mult_matrix)
from test_peirce_table import reference_matmul

Q = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)


def qmat(rows):
    return Matrix(Q, [[Fraction(v) for v in row] for row in rows],
                  cols=len(rows[0]) if rows else 0)


def test_rref_frozen_example():
    reduced, pivots = qmat([[2, 4], [1, 2]]).rref()
    assert pivots == [0]
    assert reduced.data == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_rref_identity_is_fixed():
    m = qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    reduced, pivots = m.rref()
    assert reduced == m and pivots == [0, 1, 2]


def test_kernel_against_exhaustive_enumeration_over_f5():
    # oracle: try all 25 vectors of F5^2 against [[1, 1]]
    m = Matrix(F5, [[1, 1]], cols=2)
    brute = [v for v in itertools.product(range(5), repeat=2)
             if (v[0] + v[1]) % 5 == 0 and any(v)]
    kernel = common_kernel(F5, 2, [m.data])
    assert len(kernel) == 1
    assert tuple(kernel[0]) in brute, "kernel vector must actually annihilate"
    # the basis vector is normalized with a one in the free position
    assert kernel[0][1] == 1


def test_kernel_members_all_annihilate():
    rng = random.Random(0)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = Matrix(F5, [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)],
                   cols=cols)
        for v in common_kernel(F5, cols, [m.data]):
            assert not any(x % 5 for x in m.matvec(v))


def test_rank_nullity():
    rng = random.Random(1)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(Q, [[Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                       for _ in range(rows)], cols=cols)
        rank = len(dense_rref(Q, m.data, cols)[1])
        assert rank == len(echelon_of_blocks(Q, cols, [m.data]))
        assert rank + len(common_kernel(Q, cols, [m.data])) == cols


def test_solve_finds_exact_solution():
    m = qmat([[1, 2], [3, 4]])
    x = m.solve([Fraction(5), Fraction(11)])
    assert m.matvec(x) == [Fraction(5), Fraction(11)]
    assert x == [Fraction(1), Fraction(2)]


def test_solve_inconsistent_returns_none():
    m = qmat([[1, 1], [1, 1]])
    assert m.solve([Fraction(0), Fraction(1)]) is None


def test_solve_is_deterministic_with_free_variables():
    m = Matrix(F5, [[1, 1, 0]], cols=3)
    x1 = m.solve([3])
    x2 = m.solve([3])
    assert x1 == x2
    # free variables pinned to zero
    assert x1 == [3, 0, 0]


def test_solve_with_zero_columns():
    m = Matrix(Q, [[], []], cols=0)
    assert m.solve([Q.zero, Q.zero]) == []
    assert m.solve([Q.one, Q.zero]) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_solve_agrees_with_the_dense_augmented_rref(data):
    """Matrix.solve against dense_solve: 0-7 rows and columns, low-rank products,
    right-hand sides in the column space and arbitrary ones."""
    field = data.draw(st.sampled_from([Q, F5, F7]), label="field")
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    scalars = st.integers(-3, 3).map(field.from_int)

    def matrix(r, c):
        return Matrix(field, data.draw(st.lists(st.lists(scalars, min_size=c, max_size=c),
                                                min_size=r, max_size=r)), cols=c)

    if data.draw(st.booleans(), label="low rank"):
        rank = data.draw(st.integers(0, 3))
        m = matrix(rows, rank) @ matrix(rank, cols)
    else:
        m = matrix(rows, cols)
    if data.draw(st.booleans(), label="consistent"):
        rhs = m.matvec(data.draw(st.lists(scalars, min_size=cols, max_size=cols)))
    else:
        rhs = data.draw(st.lists(scalars, min_size=rows, max_size=rows))
    expected = dense_solve(field, m.data, cols, rhs)
    assert m.solve(rhs) == expected
    assert expected is None or m.matvec(expected) == rhs


def test_matmul_and_matvec_agree():
    rng = random.Random(2)
    a = Matrix(Q, [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(2)],
               cols=3)
    b = Matrix(Q, [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(3)],
               cols=2)
    ab = a @ b
    for j in range(2):
        assert ab.column(j) == a.matvec(b.column(j))


def test_common_kernel_matches_the_dense_kernel_reader():
    m = Matrix(F5, [[1, 2, 3], [2, 4, 1]], cols=3)
    reduced, pivots = dense_rref(F5, m.data, 3)
    assert dense_kernel(F5, reduced, pivots, 3) == common_kernel(F5, 3, [m.data]) \
        == [[3, 1, 0], [2, 0, 1]]


def test_dimension_mismatch_raises():
    m = qmat([[1, 2]])
    with pytest.raises(ValueError):
        m.matvec([Fraction(1)])
    with pytest.raises(ValueError):
        m.solve([Fraction(1), Fraction(2)])


# ----------------------------------------------------------------------
# the sparse columns behind every operation

F101 = PrimeField(101)


def dense_matvec(field, rows, v):
    out = []
    for row in rows:
        acc = field.zero
        for a, x in zip(row, v):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return out


def seeded_entry(rng, field, density):
    if rng.random() >= density:
        return field.zero
    if field is Q:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return field.from_int(rng.randint(-50, 50))


def seeded_matrix(rng, field, rows, cols, density, zero_columns=()):
    return Matrix(field, [[field.zero if j in zero_columns else seeded_entry(rng, field, density)
                           for j in range(cols)] for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_matvec_and_matmul_match_the_dense_reference(field):
    """Shapes 0-5 by 0-5, all-zero columns, sparse and dense operands."""
    rng = random.Random(19)
    for _ in range(150):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = seeded_matrix(rng, field, r, k, rng.choice([0.3, 1.0]),
                          zero_columns=range(0, k, 2))
        b = seeded_matrix(rng, field, k, c, rng.choice([0.0, 0.3, 1.0]))
        for density in (0.0, 0.3, 1.0):
            v = [seeded_entry(rng, field, density) for _ in range(k)]
            assert a.matvec(v) == dense_matvec(field, a.data, v)
            assert a.matvec(tuple(v)) == dense_matvec(field, a.data, v)
        ab = a @ b
        assert (ab.rows, ab.cols) == (r, c)
        assert ab.data == reference_matmul(a, b)


def test_matmul_keeps_empty_shapes():
    def zeros(rows, cols):
        return columns_matrix(F5, [[0] * rows] * cols, rows=rows)

    for r, k, c in ((0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (2, 0, 0)):
        ab = zeros(r, k) @ zeros(k, c)
        assert (ab.rows, ab.cols, ab.data) == (r, c, [[0] * c for _ in range(r)])
    assert zeros(3, 0).matvec([]) == [0, 0, 0]
    assert zeros(0, 3).matvec([1, 2, 3]) == []


def stored_without_zeros(m):
    """One map per column, its rows in range, no zero entry."""
    return len(m.columns) == m.cols and all(
        0 <= r < m.rows and a for col in m.columns for r, a in col.items())


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_no_stored_column_holds_a_zero(field):
    """After every constructor and operation, including sums that cancel."""
    rng = random.Random(29)
    minus_one = field.neg(field.one)
    for _ in range(100):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = (seeded_matrix(rng, field, r, k, rng.choice([0.0, 0.3, 1.0])) for _ in "ab")
        other = seeded_matrix(rng, field, k, c, rng.choice([0.0, 0.3, 1.0]))
        unit = field.from_int(rng.choice([-3, -1, 2, 4]))
        built = [a, a + b, a - b, a - a, a + a.scale(minus_one), a @ other,
                 a.scale(unit), a.scale(field.one), a.scale(field.zero), a.rref()[0]]
        assert all(stored_without_zeros(m) for m in built)


@pytest.mark.parametrize("field", [Q, F5], ids=lambda f: f.label)
def test_scale_stores_the_entrywise_products(field):
    """By 0, by 1 and by non-units (2/3 over Q): no stored zero, every entry c a."""
    rng = random.Random(31)
    scalars = [field.zero, field.one, field.from_int(3), field.from_int(-2)]
    if field is Q:
        scalars.append(Fraction(2, 3))
    for _ in range(40):
        m = seeded_matrix(rng, field, rng.randint(0, 5), rng.randint(0, 5), rng.choice([0.3, 1.0]))
        for c in scalars:
            s = m.scale(c)
            assert stored_without_zeros(s) and (s.rows, s.cols) == (m.rows, m.cols)
            assert s.data == [[field.mul(c, a) for a in row] for row in m.data]
    assert m.scale(field.one) is m


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_l_a_and_r_a_store_no_zero_where_their_terms_cancel(field):
    """b0 b0 = b0 + b1 and b0 b1 = b1 b0 = b1 b1 = b0, at a = b0 - b1: column 0 of L_a
    (a b0) and of R_a (b0 a) is b1, its b0 terms cancelling, and column 1 cancels whole.
    Then seeded elements of builtins against L_a and R_a formed by mul_coords."""
    one = field.one
    algebra = Algebra("cancel", field, 2, ["b0", "b1"],
                      [(0, 0, 0, one), (0, 0, 1, one), (0, 1, 0, one), (1, 0, 0, one),
                       (1, 1, 0, one)])
    a = algebra.element([one, field.neg(one)])
    for side in ("left", "right"):
        m = algebra.mult_columns(a.coords, side)
        assert m.columns == [{1: one}, {}] and stored_without_zeros(m)
    assert LinearMap.left_multiplication(algebra, a).matrix.columns == [{1: one}, {}]
    rng = random.Random(37)
    for name in ("M3", "Zorn", "CD3"):
        built = builtin_over(name, field)[0]
        for _ in range(5):
            coords = [seeded_entry(rng, field, 0.4) for _ in range(built.dim)]
            for side in ("left", "right"):
                m = built.mult_columns(coords, side)
                assert stored_without_zeros(m) and m == mult_matrix(built, coords, side)


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_add_sub_and_scale_obey_the_module_laws(field):
    rng = random.Random(31)
    for _ in range(100):
        r, k = rng.randint(0, 5), rng.randint(0, 5)
        a, b = (seeded_matrix(rng, field, r, k, rng.choice([0.0, 0.3, 1.0])) for _ in "ab")
        zero = columns_matrix(field, [[field.zero] * r] * k, rows=r)
        assert a - a == zero
        assert (a + b) - b == a and (a - b) + b == a
        assert (a + b).data == [[field.add(x, y) for x, y in zip(u, v)]
                                for u, v in zip(a.data, b.data)]
        unit = field.from_int(rng.choice([-3, -1, 2, 4]))
        assert a.scale(unit).data == [[field.mul(unit, x) for x in row] for row in a.data]
        assert a.scale(unit).scale(field.inv(unit)) == a
        assert a.scale(field.one) == a
        assert a.scale(field.zero) == zero


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_the_dense_rows_read_back_as_given(field):
    rng = random.Random(37)
    for _ in range(100):
        r, k = rng.randint(1, 5), rng.randint(0, 5)
        rows = [[seeded_entry(rng, field, rng.choice([0.0, 0.3, 1.0])) for _ in range(k)]
                for _ in range(r)]
        m = Matrix(field, rows)
        assert m.data == rows and (m.rows, m.cols) == (r, k)
        assert [m.column(j) for j in range(k)] == [list(col) for col in zip(*rows)]


def test_the_rows_are_copied_in():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    m = Matrix(Q, rows, cols=2)
    rows[0][1] = Fraction(7)
    rows.append([Fraction(1), Fraction(1)])
    assert m.data == [[1, 0], [0, 2]] and m.rows == 2
    assert m.matvec([Fraction(1), Fraction(1)]) == [1, 2]


def test_matvec_and_matmul_mismatches_raise():
    m = Matrix(F5, [[1, 2, 3]], cols=3)
    for v in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="dimension mismatch in matvec"):
            m.matvec(v)
    with pytest.raises(ValueError, match="dimension mismatch in matrix product"):
        m @ Matrix(F5, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="field mismatch in matrix product"):
        m @ Matrix(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


# ----------------------------------------------------------------------
# a known kernel caps the elimination


def test_a_known_kernel_caps_the_elimination_without_changing_the_echelon():
    """Rows drawn from the annihilator of known vectors, in several orders:
    the capped echelon equals the full one, whether or not the cap is reached."""
    rng = random.Random(16)
    reached = ran_out = 0
    for _ in range(60):
        field = rng.choice([Q, F5, F7])
        n = rng.randint(2, 7)
        scalar = ((lambda: Fraction(rng.randint(-3, 3), rng.choice([1, 2]))) if field is Q
                  else (lambda: rng.randrange(field.p)))
        known = [[scalar() for _ in range(n)] for _ in range(rng.randint(1, 3))]
        known.append([field.mul(field.from_int(2), x) for x in known[0]])   # dependent
        annihilator = common_kernel(field, n, [known])
        if not annihilator:
            continue
        coefficients = [[scalar() for _ in annihilator] for _ in range(rng.randint(0, 2 * n))]
        rows = [[sum(c * x for c, x in zip(cs, col)) for col in zip(*annihilator)]
                for cs in coefficients]
        if field is not Q:
            rows = [[x % field.p for x in row] for row in rows]
        full = echelon_of_blocks(field, n, [rows])
        for _ in range(4):
            rng.shuffle(rows)
            assert echelon_of_blocks(field, n, [rows], known=known) == full
            assert common_kernel(field, n, [rows], known=known) == common_kernel(field, n, [rows])
        if len(full) == len(annihilator):
            reached += 1
        else:
            ran_out += 1
    assert reached >= 10 and ran_out >= 10


def test_a_known_kernel_stops_reading_at_its_cap():
    read = []

    def blocks():
        for k in range(5):
            read.append(k)
            yield [[1 if j == k else 0 for j in range(4)]]
        raise AssertionError("unreachable: the rank reaches 4 - 1 after three blocks")

    assert common_kernel(F7, 4, blocks(), known=[[0, 0, 0, 3], [0, 0, 0, 1]]) == [[0, 0, 0, 1]]
    assert read == [0, 1, 2]


def test_a_wrong_known_vector_is_refused():
    rows = [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match="not in the kernel"):     # the cap is reached
        echelon_of_blocks(F7, 3, [rows], known=[[1, 0, 0]])
    with pytest.raises(ValueError, match="not in the kernel"):     # the rows run out
        common_kernel(Q, 3, [rows[:1]], known=[{0: 1, 1: 1}])


def test_echelon_rows_hold_ints_where_integral():
    echelon = echelon_of_blocks(Q, 3, [[[2, 1, 2]]])       # 2 * Fraction(1, 2) is Fraction(1)
    assert echelon == {0: {1: Fraction(1, 2), 2: 1}} and type(echelon[0][2]) is int


# ----------------------------------------------------------------------
# back-substitution through a column index


def scan_echelon(field, n, blocks, known=(), hits=None):
    """echelon_of_blocks before the column index: a new lead scans every older row for
    its column, and the known check reads every row.  hits, if given, collects the
    (lead, pivot) of every older row the lead clears."""
    f = field
    known = [{j: x for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}
             for v in known]
    cap = n - len(scan_echelon(f, n, [known])) if known else n
    echelon = {}
    for row in itertools.chain.from_iterable(blocks) if cap else ():
        v = reduce_against(f, echelon, row)
        if not v:
            continue
        lead = min(v)
        a = v.pop(lead)
        new = v if a == f.one else f.monic(v, a)
        for pc, terms in echelon.items():
            if lead in terms:
                echelon[pc] = reduce_against(f, {lead: new}, terms)
                if hits is not None:
                    hits.append((lead, pc))
        echelon[lead] = new
        if len(echelon) == cap:
            break
    for c, v in enumerate(known):
        for pc, terms in echelon.items():
            acc = v.get(pc, f.zero)
            for j, x in v.items():
                if j in terms:
                    acc = f.add(acc, f.mul(terms[j], x))
            if acc:
                raise ValueError(f"known vector {c} is not in the kernel")
    return dict(sorted(echelon.items()))


def seeded_system(rng, field):
    """Up to 9 rows of up to 7 columns, dense or sparse, with repeated and zero rows."""
    n = rng.randint(1, 7)
    density = rng.choice([0.2, 0.5, 1.0])
    rows = [[seeded_entry(rng, field, density) for _ in range(n)] for _ in range(rng.randint(0, 9))]
    if rows and rng.random() < 0.3:
        rows.append(list(rows[0]))
    if rng.random() < 0.5:
        rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
    return n, rows


def indexed_hits(monkeypatch):
    """Record the (lead, row) of every older row that a run of echelon_of_blocks clears.

    The new rows are reduced against the growing echelon itself, the first echelon
    reduce_against sees; every other call clears one older row by one new lead.
    """
    original = linalg.reduce_against
    calls = []

    def recorded(f, echelon, vec):
        calls.append((echelon, vec))
        return original(f, echelon, vec)

    monkeypatch.setattr(linalg, "reduce_against", recorded)
    return calls


def cleared(calls):
    main = calls[0][0] if calls else None
    return [(next(iter(ech)), vec) for ech, vec in calls if ech is not main]


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_indexed_back_substitution_matches_the_row_scan(field, monkeypatch):
    """Seeded systems: the same echelon as the scan, and a new lead clears exactly the
    rows the scan would clear, each of which holds it."""
    rng = random.Random(2101)
    calls = indexed_hits(monkeypatch)
    total = 0
    for _ in range(300):
        n, rows = seeded_system(rng, field)
        hits = []
        want = scan_echelon(field, n, [rows], hits=hits)
        calls.clear()
        assert echelon_of_blocks(field, n, [rows]) == want
        got = cleared(calls)
        assert all(lead in vec for lead, vec in got)
        assert sorted(lead for lead, _ in got) == sorted(lead for lead, _ in hits)
        total += len(got)
    assert total > 100


def test_a_row_cleared_to_empty_off_its_pivot_leaves_the_index(monkeypatch):
    calls = indexed_hits(monkeypatch)
    rows = [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 3], [0, 0, 0, 1]]
    assert echelon_of_blocks(F7, 4, [rows]) == {0: {}, 1: {}, 2: {}, 3: {}}
    assert [lead for lead, _ in cleared(calls)] == [1, 3]
    # Lead 2 clears row 0 to empty: its entry at column 3 cancels.  Lead 3 then
    # touches only row 2, the one row still holding column 3.
    calls.clear()
    rows = [[1, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert echelon_of_blocks(F7, 4, [rows]) == {0: {}, 2: {}, 3: {}}
    assert [(lead, dict(vec)) for lead, vec in cleared(calls)] == [(2, {2: 1, 3: 1}), (3, {3: 1})]
    assert echelon_of_blocks(F7, 4, [rows], known=[[0, 1, 0, 0]]) == {0: {}, 2: {}, 3: {}}
    with pytest.raises(ValueError, match="pivot 3 does not annihilate"):
        echelon_of_blocks(F7, 4, [rows], known=[[0, 0, 0, 1]])


@pytest.mark.parametrize("field", [Q, F5, F101], ids=lambda f: f.label)
def test_the_known_cap_and_check_match_the_row_scan(field):
    """Known vectors from the kernel cap the elimination as before; a vector outside it
    is refused by both, whether the failing row meets it at its pivot or off it."""
    rng = random.Random(2102)
    refused = capped = 0
    for _ in range(200):
        n, rows = seeded_system(rng, field)
        kernel = common_kernel(field, n, [rows])
        known = rng.sample(kernel, rng.randint(0, len(kernel)))
        if rng.random() < 0.4:
            known.append([seeded_entry(rng, field, 0.5) for _ in range(n)])
        try:
            want = scan_echelon(field, n, [rows], known)
        except ValueError:
            with pytest.raises(ValueError, match="not in the kernel"):
                echelon_of_blocks(field, n, [rows], known)
            refused += 1
            continue
        assert echelon_of_blocks(field, n, [rows], known) == want
        capped += bool(known)
    assert refused > 20 and capped > 50


def test_the_check_names_the_smallest_failing_pivot():
    with pytest.raises(ValueError, match="pivot 0 does not annihilate"):    # off its pivot
        echelon_of_blocks(F7, 3, [[[1, 1, 0]]], known=[[0, 1, 0]])
    with pytest.raises(ValueError, match="pivot 0 does not annihilate"):    # both rows fail
        echelon_of_blocks(Q, 3, [[[0, 1, 1], [1, 0, 1]]], known=[[0, 0, 1]])


def test_no_echelon_entry_is_an_integral_fraction():
    """2,000 seeded systems over Q, 2-6 columns, entries +-3 over 1-3 with integral ones
    ints: back-substitution used to leave Fraction(1, 2) + Fraction(1, 2) behind."""
    def entry(rng):
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return x.numerator if x.denominator == 1 else x

    found = 0
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        rows = [[entry(rng) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        echelon = echelon_of_blocks(Q, n, [rows])
        assert echelon == scan_echelon(Q, n, [rows])
        entries = [x for terms in echelon.values() for x in terms.values()]
        assert not any(type(x) is Fraction and x.denominator == 1 for x in entries), seed
        found += any(type(scan) is Fraction and scan.denominator == 1
                     for terms in scan_echelon(Q, n, [rows]).values() for scan in terms.values())
    assert found > 50, "the scan leaves integral Fractions that the index canonicalises"
