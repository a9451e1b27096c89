"""The sparse eliminator against the dense Gauss-Jordan it replaced.

The reference below is the dense elimination linalg.py used before: it
scans each column for the first nonzero row, swaps it up, and clears the
column in every other row while carrying the transform T along.  Reduced
row echelon form is unique, so pivots, R, kernel vectors, particular
solutions and `cohomology_at`'s greedy completion of the boundaries to
cocycles must agree exactly.  The reference divides, so it first turns
every entry into a Fraction: an int entry divided by an int would give a
float.
"""

import itertools
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgmodels import linalg
from dgmodels.linalg import Q, RatMatrix
from exact import stores_exact_scalars


def dense_rref(m: RatMatrix):
    work = [[Fraction(x) for x in row] for row in m.data]
    trans = [[Q(1) if i == j else Q(0) for j in range(m.rows)] for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        trans[r], trans[pivot_row] = trans[pivot_row], trans[r]
        inv = Q(1) / work[r][c]
        work[r] = [inv * x for x in work[r]]
        trans[r] = [inv * x for x in trans[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
                trans[i] = [a - f * b for a, b in zip(trans[i], trans[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return (
        RatMatrix(m.rows, m.cols, work),
        tuple(pivots),
        RatMatrix(m.rows, m.rows, trans),
    )


def dense_kernel_basis(m: RatMatrix):
    reduced, pivots, _ = dense_rref(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Q(0)] * m.cols
        v[free] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.data[r][free]
        basis.append(tuple(v))
    return basis


def kernel_columns(m: RatMatrix) -> list[tuple]:
    """The columns of m's kernel matrix, which has a row per column of m and
    stores exact scalars only."""
    kernel = m.kernel_basis()
    assert kernel.rows == m.cols and stores_exact_scalars(kernel)
    return [kernel.col(j) for j in range(kernel.cols)]


def dense_solve(m: RatMatrix, b):
    _, pivots, trans = dense_rref(m)
    tb = trans.apply(b)
    if any(tb[r] != 0 for r in range(len(pivots), m.rows)):
        return None
    x = [Q(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = tb[r]
    return tuple(x)


def dense_independent_subset(vectors):
    chosen = []
    pivot_rows = {}
    for v in vectors:
        w = [Fraction(x) for x in v]
        while True:
            lead = next((j for j, x in enumerate(w) if x != 0), None)
            if lead is None or lead not in pivot_rows:
                break
            row = pivot_rows[lead]
            f = w[lead] / row[lead]
            w = [a - f * b for a, b in zip(w, row)]
        if lead is not None:
            pivot_rows[lead] = w
            chosen.append(tuple(v))
    return chosen


nonzero = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 7))),
)


@st.composite
def matrices(draw):
    """Small dense, tall sparse (under 10 % nonzero) and low-rank products,
    and rows sharing a leading column, some of them repeated: the eliminator
    picks the pivot row among those, the sparsest and then the first."""
    kind = draw(st.sampled_from(("dense", "tall_sparse", "low_rank", "shared_lead")))
    if kind == "shared_lead":
        rows, cols = draw(st.integers(2, 12)), draw(st.integers(1, 6))
        lead = draw(st.integers(0, cols - 1))
        data = []
        for _ in range(rows):
            if data and draw(st.booleans()):
                data.append(list(draw(st.sampled_from(data))))
                continue
            row = [Q(0)] * cols
            for j in draw(st.sets(st.integers(lead, cols - 1), max_size=3)) | {lead}:
                row[j] = draw(nonzero)
            data.append(row)
        return RatMatrix(rows, cols, data)
    if kind == "low_rank":
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left = [[draw(st.integers(-3, 3)) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(nonzero) for _ in range(cols)] for _ in range(inner)]
        return RatMatrix(
            rows,
            cols,
            [[sum((left[i][k] * right[k][j] for k in range(inner)), Q(0))
              for j in range(cols)] for i in range(rows)],
        )
    if kind == "tall_sparse":
        rows, cols = draw(st.integers(12, 40)), draw(st.integers(1, 10))
        data = [[Q(0)] * cols for _ in range(rows)]
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for i, j in draw(st.sets(cells, max_size=(rows * cols - 1) // 10)):
            data[i][j] = draw(nonzero)
    else:
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        density = draw(st.floats(0.0, 1.0))
        data = [
            [draw(nonzero) if draw(st.floats(0.0, 1.0)) < density else Q(0)
             for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows and draw(st.booleans()):
            # repeat a row so the matrix has a dependency among its rows
            data[draw(st.integers(0, rows - 1))] = list(data[0])
    return RatMatrix(rows, cols, data)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(RatMatrix(3, 2, [[1, 2], [0, 3], [4, 0]]))  # nullity 0
@example(RatMatrix(2, 2, [[2, 1], [1, 1]]))  # nullity 0, square
@example(RatMatrix(0, 3, []))  # no row: every column free
@example(RatMatrix(3, 0, [[], [], []]))  # no column: a 0 x 0 kernel
def test_echelon_form_matches_dense_reference(m):
    ref_r, ref_pivots, _ = dense_rref(m)
    reduced, pivots, trans = m.rref()
    assert stores_exact_scalars(reduced) and stores_exact_scalars(trans)
    assert pivots == ref_pivots
    assert reduced == ref_r
    assert trans * m == reduced
    assert len(dense_rref(trans)[1]) == m.rows
    assert m.rank() == len(ref_pivots)
    assert kernel_columns(m) == dense_kernel_basis(m)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_dense_reference(m, data):
    x = [data.draw(st.sampled_from((0, 1, -2, Q(1, 3)))) for _ in range(m.cols)]
    b = m.apply(x)
    sol = m.solve(b)
    assert sol == dense_solve(m, b)
    assert sol is not None and m.apply(sol) == b
    _, pivots, ref_trans = dense_rref(m)
    if len(pivots) < m.rows:
        # y = a row of T beyond the rank has y.A = 0, so y.(b + y) = |y|^2 != 0
        y = ref_trans.row(len(pivots))
        off = tuple(a + c for a, c in zip(b, y))
        assert dense_solve(m, off) is None
        assert m.solve(off) is None


def reduced_route_solve(m: RatMatrix, b):
    """solve as it read the reduced echelon form of [A | b]: None when b's
    column is a pivot, else x[p] the b entry of the reduced row with pivot p."""
    aug = fresh(m).hstack(RatMatrix(m.rows, 1, [(x,) for x in b]))
    rows, pivots = aug._reduced()
    if pivots[-1:] == (m.cols,):
        return None
    x = [0] * m.cols
    for row, p in zip(rows, pivots):
        x[p] = row.get(m.cols, 0)
    return tuple(x)


@st.composite
def rank_deficient(draw):
    """A = L R with fewer inner columns than A has rows or columns, and b
    either A x or drawn freely (then mostly off the column space)."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    left = [[draw(st.integers(-3, 3)) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(st.sampled_from((0, 0, 1, -2, Q(1, 2), Q(-3, 7)))) for _ in range(cols)]
             for _ in range(inner)]
    m = RatMatrix(rows, cols, [[sum((left[i][k] * right[k][j] for k in range(inner)), Q(0))
                                for j in range(cols)] for i in range(rows)])
    entries = st.sampled_from((0, 1, -2, Q(1, 3)))
    if draw(st.booleans()):
        return m, m.apply([draw(entries) for _ in range(cols)])
    return m, tuple(draw(entries) for _ in range(rows))


@settings(max_examples=200, deadline=None)
@given(rank_deficient())
def test_back_substitution_matches_the_reduced_route(system):
    """solve back-substitutes the echelon rows of [A | b] over the pivot
    columns, with no back-reduction, and finds the reduced route's solution."""
    m, b = system
    with counted() as calls:
        sol = fresh(m).solve(b)
    assert calls["_back_reduce"] == 0
    assert sol == reduced_route_solve(m, b)
    assert sol is None or m.apply(sol) == tuple(b)


@st.composite
def complexes(draw):
    """d_prev from `matrices`, and either no d_n or d_n = C N, where the rows
    of N span the left kernel of d_prev (read off the dense reference), so
    that d_n d_prev = 0."""
    d_prev = draw(matrices())
    if draw(st.booleans()):
        return d_prev, None
    left = dense_kernel_basis(d_prev.transpose())
    c = [[draw(st.sampled_from((0, 1, -2, Q(1, 3)))) for _ in left]
         for _ in range(draw(st.integers(0, 4)))]
    return d_prev, RatMatrix(len(c), len(left), c) * RatMatrix(len(left), d_prev.rows, left)


def columns(m: RatMatrix) -> tuple[tuple, ...]:
    return tuple(m.col(j) for j in range(m.cols))


@settings(max_examples=100, deadline=None)
@given(complexes(), st.integers(0, 3), st.lists(st.sampled_from((0, 1, -2, Q(1, 3))), min_size=1))
@example((RatMatrix(2, 1, [[1], [0]]), None), 0, [1])  # no column to read
@example((RatMatrix.identity(2), None), 2, [1, Q(1, 3)])  # betti 0
@example((RatMatrix.zero(2, 0), None), 2, [1, -2, 0])  # no boundaries
def test_cohomology_representatives_match_the_dense_completion(complex_, count, coeffs):
    """cohomology_at's boundaries are the greedy subset of d_prev's columns,
    and its representatives the greedy completion of them by d_n's kernel
    (every unit vector when d_n is absent), each one a column.  coords reads
    any combination of those vectors, count columns of coefficients cycled
    out of coeffs, back as exactly its coefficients on the representatives."""
    d_prev, d_n = complex_
    n = d_prev.rows
    if d_n is None:
        dims, d_mats = {0: d_prev.cols, 1: n}, {0: d_prev}
        kernel = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        dims, d_mats = {0: d_prev.cols, 1: n, 2: d_n.rows}, {0: d_prev, 1: d_n}
        kernel = dense_kernel_basis(d_n)
    bounds = dense_independent_subset([d_prev.col(j) for j in range(d_prev.cols)])
    reps = dense_independent_subset([*bounds, *kernel])[len(bounds):]
    h = linalg.cohomology_at(dims, d_mats, 1)
    assert h.boundaries.rows == h.representatives.rows == n
    assert columns(h.boundaries) == tuple(bounds)
    assert columns(h.representatives) == tuple(reps)
    assert h.betti == len(reps)

    cycle = itertools.cycle(coeffs)
    c = [[next(cycle) for _ in range(count)] for _ in [*bounds, *reps]]
    combos = [
        [sum(row[j] * v[i] for row, v in zip(c, [*bounds, *reps])) for i in range(n)]
        for j in range(count)
    ]
    got = h.coords(RatMatrix.from_cols(combos, n))
    assert got == RatMatrix(len(reps), count, c[len(bounds):]) and stores_exact_scalars(got)


@st.composite
def invertible_matrices(draw):
    """P L U with L unit lower and U upper triangular, U's diagonal drawn
    from ±1 (an integral inverse) or from all nonzero scalars, P a row
    permutation."""
    n = draw(st.integers(0, 6))
    diagonal = st.sampled_from((1, -1)) if draw(st.booleans()) else nonzero
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[draw(diagonal) if i == j else draw(entry) if j > i else 0 for j in range(n)]
             for i in range(n)]
    order = draw(st.permutations(range(n)))
    product = RatMatrix(n, n, lower) * RatMatrix(n, n, upper)
    return RatMatrix(n, n, [product.row(i) for i in order])


@settings(max_examples=50, deadline=None)
@given(st.one_of(matrices(), invertible_matrices()))
@example(RatMatrix(2, 2, [[2, 1], [1, 1]]))
@example(RatMatrix(2, 2, [[1, 2], [2, 4]]))
@example(RatMatrix(2, 3, [[1, 0, 0], [0, 1, 0]]))
def test_inverse_matches_dense_reference(m):
    inv = m.inverse()
    _, pivots, trans = dense_rref(m)
    if m.rows != m.cols or len(pivots) < m.rows:
        assert inv is None
        return
    # the reduced form of an invertible matrix is I, so its transform T is the inverse
    assert inv == trans
    assert inv * m == m * inv == RatMatrix.identity(m.rows)
    assert stores_exact_scalars(inv)
    assert all(x.__class__ is int for row in inv._nz for x in row.values() if x.denominator == 1)


@contextmanager
def counted():
    """Count the calls of `_eliminate` and `_back_reduce` inside the block."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_eliminate", "_back_reduce"):

            def spy(*args, _real=getattr(linalg, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            mp.setattr(linalg, name, spy)
        yield calls


def fresh(m: RatMatrix) -> RatMatrix:
    """The same matrix with nothing cached."""
    return RatMatrix(m.rows, m.cols, m.data)


def rhs(m: RatMatrix, data) -> tuple:
    return m.apply([data.draw(st.sampled_from((0, 1, -2, Q(1, 3)))) for _ in range(m.cols)])


def reduced_rows(reference: RatMatrix, rank: int) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in reference.data[:rank]]


READERS = {
    "rank": lambda m, b: m.rank(),
    "kernel_basis": lambda m, b: kernel_columns(m),
    "solve": lambda m, b: m.solve(b),
    "rref": lambda m, b: m.rref()[:2],
}


@settings(max_examples=100, deadline=None)
@given(matrices(), st.permutations(sorted(READERS)), st.data())
def test_every_reader_order_matches_dense_reference(m, order, data):
    """Whichever reader comes first, and so whether the cached rows are still
    forward echelon rows or already reduced, each one agrees with the
    reference, and again when read a second time."""
    b = rhs(m, data)
    ref_r, ref_pivots, _ = dense_rref(m)
    want = {
        "rank": len(ref_pivots),
        "kernel_basis": dense_kernel_basis(m),
        "solve": dense_solve(m, b),
        "rref": (ref_r, ref_pivots),
    }
    m = fresh(m)
    for name in [*order, *order]:
        assert READERS[name](m, b) == want[name]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_a_zero_row_copy_made_after_rank_shares_one_reduction(m, data):
    """with_zero_rows after rank() shares the unreduced cache; reducing it
    through either matrix serves both, and both match the reference."""
    m = fresh(m)
    rank = m.rank()
    at, count = data.draw(st.integers(0, m.rows)), data.draw(st.integers(1, 3))
    padded = m.with_zero_rows(at, count)
    assert padded._rref is m._rref
    ref_padded = RatMatrix(
        m.rows + count, m.cols, [*m.data[:at], *[(0,) * m.cols] * count, *m.data[at:]]
    )
    assert padded == ref_padded
    first, second = (m, padded) if data.draw(st.booleans()) else (padded, m)
    with counted() as calls:
        for mat in (first, second):
            assert kernel_columns(mat) == dense_kernel_basis(mat)
            assert mat._reduced() == (reduced_rows(dense_rref(mat)[0], rank), dense_rref(mat)[1])
            assert mat.rank() == rank
    assert calls == Counter(_back_reduce=int(not m.is_zero()))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_one_elimination_per_matrix_whatever_the_readers(m, data):
    """A matrix is eliminated once however many readers ask, and at most once
    back-reduced; rref, inverse and each solve eliminate the one matrix they
    build, [A | I] or [A | b]."""
    m, b = fresh(m), rhs(m, data)
    readers = data.draw(st.lists(st.sampled_from(("rank", "kernel_basis")), max_size=6))
    once = int(not m.is_zero())
    with counted() as calls:
        for name in readers:
            getattr(m, name)()
        m.with_zero_rows(0, 1).kernel_basis()
        assert calls == Counter(_eliminate=once, _back_reduce=once)
    # [A | I] is zero only with no row, and [A | b] only when A is (b = A x)
    for reader, builds in (
        (m.rref, m.rows),
        (m.inverse, m.rows == m.cols and m.rows),
        (lambda: m.solve(b), once),
        (lambda: m.solve(b), once),
    ):
        with counted() as calls:
            reader()
        assert calls["_eliminate"] == int(bool(builds)) >= calls["_back_reduce"]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_alone_runs_no_back_reduction(m):
    """rank, the pivot columns and the boundary basis of cohomology_at read
    pivots only, off the one elimination of m."""
    m = fresh(m)
    with counted() as calls:
        assert m.rank() == m.rank() == len(dense_rref(m)[1])
        assert m._echelon()[1] == dense_rref(m)[1]
        linalg.cohomology_at({0: m.cols, 1: m.rows}, {0: m}, 1, betti=0)
    assert calls["_back_reduce"] == 0
    assert calls["_eliminate"] == int(not m.is_zero())
