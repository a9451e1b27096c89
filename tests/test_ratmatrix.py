"""Row-sparse RatMatrix arithmetic against the dense arithmetic it replaced.

The reference below is the dense RatMatrix linalg.py used before: rows are
tuples holding every entry, zeros included, and each operation walks all
of them.  Arithmetic is exact, so every result must agree entry for entry,
including on 0-sized and mostly-zero matrices.  `times_kron(m, x, v)` is
held to the product `m * kron(x, v)` it stands for.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmodels.errors import ValidationError
from dgmodels.linalg import Q, RatMatrix, kron, times_kron
from exact import stores_exact_scalars


class Dense:
    """The old dense storage and its operations, kept as the reference."""

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(Q(x) for x in row) for row in data)

    def __add__(self, other):
        return Dense(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        return Dense(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c):
        return Dense(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if not self.data or not other.data or other.cols == 0:
            return Dense(self.rows, other.cols, [[Q(0)] * other.cols for _ in range(self.rows)])
        out = [
            [sum((a * b for a, b in zip(row, col)), Q(0)) for col in zip(*other.data)]
            for row in self.data
        ]
        return Dense(self.rows, other.cols, out)

    def apply(self, v):
        return tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in self.data)

    def transpose(self):
        return Dense(
            self.cols,
            self.rows,
            [[self.data[j][i] for j in range(self.rows)] for i in range(self.cols)],
        )

    def hstack(self, other):
        return Dense(
            self.rows, self.cols + other.cols, [r1 + r2 for r1, r2 in zip(self.data, other.data)]
        )

    def vstack(self, other):
        return Dense(self.rows + other.rows, self.cols, self.data + other.data)

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)


def dense_kron(a, b):
    out = [[Q(0)] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            c = a.data[i1][j1]
            if not c:
                continue
            for i2 in range(b.rows):
                row = out[i1 * b.rows + i2]
                brow = b.data[i2]
                for j2 in range(b.cols):
                    if brow[j2]:
                        row[j1 * b.cols + j2] = c * brow[j2]
    return Dense(a.rows * b.rows, a.cols * b.cols, out)


def same(m, ref):
    """m holds exactly ref's entries, read through every dense accessor."""
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    assert m.data == ref.data
    assert m.to_lists() == [list(row) for row in ref.data]
    assert [m.row(i) for i in range(m.rows)] == list(ref.data)
    assert [m.col(j) for j in range(m.cols)] == [ref.col(j) for j in range(ref.cols)]
    assert all(
        m[i, j] == ref.data[i][j] and m[i, j - m.cols] == ref.data[i][j]
        for i in range(m.rows)
        for j in range(m.cols)
    )
    assert m.is_zero() == ref.is_zero()
    assert stores_exact_scalars(m)
    return True


values = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7))),
)
# a filled cell: a sign times a nonzero magnitude, so no draw is wasted on 0
nonzero_values = st.builds(
    operator.mul,
    st.sampled_from((1, -1)),
    st.one_of(
        st.integers(1, 9),
        st.builds(Fraction, st.integers(1, 9), st.sampled_from((1, 2, 3, 7))),
    ),
)


@st.composite
def entries(draw, rows, cols):
    """Dense rows of a rows x cols matrix: any density, or under 10 % nonzero."""
    data = [[Q(0)] * cols for _ in range(rows)]
    if rows and cols:
        fill = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        most = int(fill * rows * cols)
        for i, j in draw(st.sets(cells, min_size=most // 2, max_size=most)):
            data[i][j] = draw(nonzero_values)
    return data


dims = st.integers(0, 5)
big_dims = st.integers(0, 14)


@st.composite
def pair(draw, rows, cols):
    data = draw(entries(rows, cols))
    return RatMatrix(rows, cols, data), Dense(rows, cols, data)


@st.composite
def shaped(draw, side=dims):
    return draw(pair(draw(side), draw(side)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((dims, big_dims)))
def test_product_matches_dense_reference(data, side):
    r, k, c = data.draw(side), data.draw(side), data.draw(side)
    a, ra = data.draw(pair(r, k))
    b, rb = data.draw(pair(k, c))
    assert same(a, ra) and same(b, rb)
    assert same(a * b, ra * rb)
    # a product whose sums all cancel stores no zeros: it equals, and hashes
    # like, the zero matrix
    cancel = a.hstack(a) * b.vstack(-b)
    zero = RatMatrix.zero(r, c)
    assert cancel.is_zero() and cancel == zero and hash(cancel) == hash(zero)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from((dims, big_dims)))
def test_sum_difference_and_scale_match_dense_reference(data, side):
    r, c = data.draw(side), data.draw(side)
    a, ra = data.draw(pair(r, c))
    b, rb = data.draw(pair(r, c))
    assert same(a + b, ra + rb)
    assert same(a - b, ra - rb)
    assert same(a - a, ra - ra)
    f = data.draw(values)
    assert same(a.scale(f), ra.scale(f))
    assert same(-a, ra.scale(Q(-1)))


@settings(max_examples=150, deadline=None)
@given(shaped(), shaped())
def test_kron_matches_dense_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert same(kron(a, b), dense_kron(ra, rb))


def about_half_nonzero(rows, cols):
    """A rows x cols matrix with about half of its entries nonzero: dense
    enough that a product of three factors rarely vanishes."""
    cell = st.sampled_from((0, 0, 0, 1, -1, 2, Q(1, 2), Q(-3, 7)))
    cells = st.lists(cell, min_size=rows * cols, max_size=rows * cols)
    return cells.map(
        lambda e: RatMatrix(rows, cols, [e[i * cols:(i + 1) * cols] for i in range(rows)])
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_times_kron_is_the_product_with_kron(data):
    """times_kron(m, x, v) == m * kron(x, v) on random sparse matrices, 0-row
    and 0-column shapes and an identity factor x or v included; a sum that
    cancels is not stored, and a wrong width raises the product's error."""
    xr, xc, vr, vc, mr = (data.draw(st.integers(0, 3)) for _ in range(5))
    x = data.draw(about_half_nonzero(xr, xc))
    v = data.draw(about_half_nonzero(vr, vc))
    m = data.draw(about_half_nonzero(mr, xr * vr))
    for a, b in ((x, v), (RatMatrix.identity(xr), v), (x, RatMatrix.identity(vr))):
        got = times_kron(m, a, b)
        assert got == m * kron(a, b) and stores_exact_scalars(got)
    # [m | m] against [x; -x]: every term meets its negative
    assert times_kron(m.hstack(m), x.vstack(-x), v) == RatMatrix.zero(m.rows, x.cols * v.cols)
    bad = data.draw(about_half_nonzero(mr, xr * vr + data.draw(st.integers(1, 3))))
    with pytest.raises(ValidationError, match="cannot multiply") as want:
        bad * kron(x, v)
    with pytest.raises(ValidationError) as err:
        times_kron(bad, x, v)
    assert str(err.value) == str(want.value)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((dims, big_dims)))
def test_apply_and_transpose_match_dense_reference(data, side):
    a, ra = data.draw(shaped(side))
    v = tuple(data.draw(values) for _ in range(a.cols))
    assert a.apply(v) == ra.apply(v)
    assert same(a.transpose(), ra.transpose())
    assert a.transpose().transpose() == a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacking_and_blocks_match_dense_reference(data):
    r1, r2, c1, c2 = (data.draw(dims) for _ in range(4))
    a, ra = data.draw(pair(r1, c1))
    b, rb = data.draw(pair(r1, c2))
    c, rc = data.draw(pair(r2, c1))
    d, rd = data.draw(pair(r2, c2))
    assert same(a.hstack(b), ra.hstack(rb))
    assert same(a.vstack(c), ra.vstack(rc))
    assert same(a.hstack(b).vstack(c.hstack(d)), ra.hstack(rb).vstack(rc.hstack(rd)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((dims, big_dims)))
def test_equality_and_hash_follow_the_entries(data, side):
    a, ra = data.draw(shaped(side))
    b, rb = data.draw(pair(a.rows, a.cols))
    assert (a == b) == (ra.data == rb.data)
    # the same entries built another way: from columns, or by arithmetic
    rebuilt = RatMatrix.from_cols([ra.col(j) for j in range(ra.cols)], nrows=ra.rows)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert a + RatMatrix.zero(a.rows, a.cols) == a
    assert hash(a - b + b) == hash(a)
    assert RatMatrix.identity(a.rows) * a == a
    assert a.is_zero() == (a == RatMatrix.zero(a.rows, a.cols))


def zero_like(r, c):
    """A zero built from dense zero rows, not the shared instance."""
    return RatMatrix(r, c, [[0] * c for _ in range(r)]), Dense(r, c, [[0] * c for _ in range(r)])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((dims, big_dims)))
def test_zero_operands_match_dense_reference(data, side):
    """A zero factor or summand, 0 x n and n x 0 shapes included, gives the
    dense result in value and shape: a product is the shared zero of its
    shape, and a sum or difference is the other operand, negated for a
    difference from zero."""
    side = st.one_of(st.just(0), side)
    r, k, c = data.draw(side), data.draw(side), data.draw(side)
    a, ra = data.draw(pair(r, k))
    b, rb = data.draw(pair(k, c))
    zero = RatMatrix.zero(r, c)
    for x, rx, y, ry in (
        (*zero_like(r, k), b, rb),
        (a, ra, *zero_like(k, c)),
        (RatMatrix.zero(r, k), Dense(r, k, [[0] * k for _ in range(r)]), b, rb),
        (a - a, ra - ra, b, rb),
    ):
        assert same(x * y, rx * ry)
        assert x * y is zero
    z, rz = zero_like(r, k)
    for s, rs in ((a + z, ra + rz), (z + a, rz + ra), (a - z, ra - rz), (z - a, rz - ra)):
        assert same(s, rs)
    assert a + z is a and a - z is a
    assert z + a is (z if a.is_zero() else a)
    assert z - a == -a
    assert RatMatrix.zero(r, k) is RatMatrix.zero(r, k) == z
    with pytest.raises(ValidationError, match="shape"):
        RatMatrix.zero(r, k) + RatMatrix.zero(r + 1, k)
    with pytest.raises(ValidationError, match="cannot multiply"):
        RatMatrix.zero(r, k) * RatMatrix.zero(k + 1, c)


def test_identity_is_one_shared_instance_per_size():
    """Like the zero, the identity of a size is one instance, and a negative
    size is rejected as the constructor and the zero reject it."""
    for n in (0, 1, 5):
        eye = RatMatrix.identity(n)
        assert eye is RatMatrix.identity(n)
        assert same(eye, Dense(n, n, [[int(i == j) for j in range(n)] for i in range(n)]))
    for bad in (-1, -2):
        for make in (RatMatrix.identity, lambda n: RatMatrix.zero(n, 2), lambda n: RatMatrix(n, 2)):
            with pytest.raises(ValidationError, match="matrix shape must be non-negative"):
                make(bad)
