"""Exact linear algebra over the rationals.

Everything downstream (bases of graded pieces, differentials, induced maps
on cohomology) reduces to products and row reduction of matrices with
exact rational entries, so determinism here makes the whole package
reproducible: pivots are always the leftmost nonzero columns, kernel
vectors are listed by ascending free column, and particular solutions set
every free variable to 0.

An exact scalar is an `int` or a `Fraction`.  `as_q`, `vec` and the
`RatMatrix` constructor store an integral value as an `int`, and the one
division, `_eliminate` scaling a pivot row to a leading 1, does the same
with each quotient; sums and products are not normalised, so a result may
hold an integral `Fraction`.  Compare results by value, never by type.

`RatMatrix` has one storage: each row is a dict from column to a nonzero
scalar, and a zero is never stored.  Every operation (products, sums,
scaling, `kron`, stacking, transposition, equality and hashing) reads and
writes only the nonzeros; a product accumulates row i of A times the rows
of B that A's row i reaches.  `data`, `row`, `col` and `to_lists` build
dense views on request.  A factor or summand that stores no nonzero costs
nothing: a product with one returns the cached zero of the product's shape
(`RatMatrix.zero`), and a sum or difference returns the other operand, as
matrices are immutable.  The identity of each size is cached the same way
(`RatMatrix.identity`), so callers ask for it where they use it.
`times_kron(m, x, v)` is m * kron(x, v) read off the stored rows of m, x
and v, with no Kronecker matrix built.  `FreeDgModule.action_matrix` writes
an action matrix's A-major columns over A^i (x) M^k, and every reader of
them, the KS tower and generator-image maps included, goes through it.
`kron` itself is left to the tests' oracles and to the benchmark tracer,
which patches it by name.

Each matrix is eliminated once.  `_echelon()` runs the one sparse forward
routine, `_eliminate`, over copies of the stored rows and caches the pivot
rows and pivot columns: columns are taken left to right, each row is filed
under its leading column, and the sparsest row reaching a column becomes
its pivot row.  `_reduced()` back-reduces those cached rows in place the
first time a reduced row is read, and records that in the same cache, which
`with_zero_rows` shares.  `rank`, and `cohomology_at`'s boundary basis and
its completion to a kernel basis, read pivots only.  `kernel_basis` reads
the reduced rows and returns the kernel as one sparse matrix, which
`cohomology_at`, `_induced_rank`, `_formality` and `minimal_factorization`
take as it is.  The cohomology witnesses are sparse matrices too, one class
or boundary a column, selected from the stored rows of d_{n-1} and of the
kernel matrix; `coords` takes the cocycles as the columns of a matrix V.
`rref`, `inverse`, `solve` and `CohomologyData.coords` read reduced rows,
each of a matrix built with `hstack`: [A | I], [A | b] and [B | R | V]
(boundaries, representatives, V).  The reduced echelon form is unique, so
the pivot choice changes no result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError

Q = Fraction


def as_q(x) -> int | Fraction:
    """Coerce ints, strings like '3/2', and Fractions to an exact scalar:
    an int when the value is integral, a Fraction otherwise."""
    if x.__class__ is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise ValidationError(f"not an exact rational: {x!r}")
    return x.numerator if x.denominator == 1 else x


def vec(entries: Iterable) -> tuple[int | Fraction, ...]:
    return tuple(as_q(x) for x in entries)


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def add_term(acc: dict, key, x) -> None:
    """acc[key] += x in place for a nonzero x, a zero sum deleting the key: the
    one accumulator of sparse sums (matrix rows, polynomials, combinations)."""
    if key not in acc:
        acc[key] = x
    elif y := acc[key] + x:
        acc[key] = y
    else:
        del acc[key]


class RatMatrix:
    """Immutable row-sparse matrix of exact rationals, rows x cols, 0-sized shapes allowed.

    Row i is stored as a dict from column index to a nonzero scalar; zeros
    are never stored, and a stored row dict is never mutated once the matrix
    holds it (operations that need scratch rows copy them first).
    """

    __slots__ = ("rows", "cols", "_nz", "_rref")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable] | None = None):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix shape must be non-negative")
        self.rows = rows
        self.cols = cols
        self._rref = None
        if data is None:
            self._nz = tuple({} for _ in range(rows))
            return
        data = [tuple(row) for row in data]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValidationError("matrix data does not match declared shape")
        self._nz = tuple(
            {j: q for j, x in enumerate(row) if (q := x if x.__class__ is int else as_q(x))}
            for row in data
        )

    @classmethod
    def _make(cls, rows: int, cols: int, nz: Sequence[dict[int, Fraction]]) -> "RatMatrix":
        """Wrap row dicts already free of zeros; the matrix takes ownership of them."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._nz = tuple(nz)
        m._rref = None
        return m

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "RatMatrix":
        if not cols:
            return cls.zero(nrows or 0, 0)
        n = len(cols[0])
        if any(len(col) != n for col in cols):
            raise ValidationError("matrix data does not match declared shape")
        rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                if x and (q := as_q(x)):
                    rows[i][j] = q
        return cls._make(n, len(cols), rows)

    @classmethod
    @lru_cache(maxsize=1024)
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        """The zero matrix of a shape, one shared by every reader: matrices and
        their rows are never mutated, so even its rows share one empty dict."""
        if rows < 0 or cols < 0:
            raise ValidationError("matrix shape must be non-negative")
        return cls._make(rows, cols, ({},) * rows)

    @classmethod
    @lru_cache(maxsize=1024)
    def identity(cls, n: int) -> "RatMatrix":
        """The n x n identity, one shared by every reader, like `zero`."""
        if n < 0:
            raise ValidationError("matrix shape must be non-negative")
        return cls._make(n, n, [{i: 1} for i in range(n)])

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense read-only view, built on each access."""
        return tuple(self.row(i) for i in range(self.rows))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._nz[i].get(range(self.cols)[j], 0)

    def row(self, i: int) -> tuple[Fraction, ...]:
        out = [0] * self.cols
        for j, x in self._nz[i].items():
            out[j] = x
        return tuple(out)

    def col(self, j: int) -> tuple[Fraction, ...]:
        j = range(self.cols)[j]
        return tuple(row.get(j, 0) for row in self._nz)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._nz == other._nz
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._nz)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        out = [_subtract(dict(r1), -1, r2) for r1, r2 in zip(self._nz, other._nz)]
        return RatMatrix._make(self.rows, self.cols, out)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other.scale(-1)
        out = [_subtract(dict(r1), 1, r2) for r1, r2 in zip(self._nz, other._nz)]
        return RatMatrix._make(self.rows, self.cols, out)

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RatMatrix":
        c = as_q(c)
        if c == 1:
            return self
        if not c:
            return RatMatrix.zero(self.rows, self.cols)
        return RatMatrix._make(
            self.rows, self.cols, [{j: c * x for j, x in row.items()} for row in self._nz]
        )

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValidationError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        """Matrix product, accumulated over the nonzeros of both factors; the
        cached zero of shape (self.rows, other.cols) when either stores none."""
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.is_zero() or other.is_zero():
            return RatMatrix.zero(self.rows, other.cols)
        brows = other._nz
        out = []
        for arow in self._nz:
            acc: dict[int, Fraction] = {}
            for k, a in arow.items():
                brow = brows[k]
                if not brow:
                    continue
                if a == 1:
                    for j, b in brow.items():
                        acc[j] = acc[j] + b if j in acc else b
                else:
                    for j, b in brow.items():
                        acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: x for j, x in acc.items() if x})
        return RatMatrix._make(self.rows, other.cols, out)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValidationError("vector length does not match column count")
        return tuple(sum(a * v[j] for j, a in row.items()) for row in self._nz)

    def transpose(self) -> "RatMatrix":
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, x in row.items():
                out[j][i] = x
        return RatMatrix._make(self.cols, self.rows, out)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValidationError("hstack needs equal row counts")
        c = self.cols
        out = []
        for r1, r2 in zip(self._nz, other._nz):
            if r2:
                r1 = dict(r1)
                for j, x in r2.items():
                    r1[c + j] = x
            out.append(r1)
        return RatMatrix._make(self.rows, self.cols + other.cols, out)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValidationError("vstack needs equal column counts")
        return RatMatrix._make(self.rows + other.rows, self.cols, self._nz + other._nz)

    def with_zero_rows(self, at: int, count: int) -> "RatMatrix":
        """This matrix with count zero rows inserted before row at.  Zero rows
        change no pivot and no reduced row, so the two matrices share one
        echelon cache, and one back-reduction serves both."""
        nz = (*self._nz[:at], *({},) * count, *self._nz[at:])
        m = RatMatrix._make(self.rows + count, self.cols, nz)
        m._rref = self._rref
        return m

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # --- echelon machinery ---

    def _echelon(self) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
        """The pivot rows, each with a leading 1, and the pivot columns of
        this matrix's one forward elimination, cached."""
        if self._rref is None:
            # a zero matrix copies no row and runs no elimination
            echelon = ([], ()) if self.is_zero() else _eliminate([dict(r) for r in self._nz])
            # [echelon, back-reduced yet (no row: nothing to reduce)], one
            # list that with_zero_rows shares
            self._rref = [echelon, not echelon[0]]
        return self._rref[0]

    def _reduced(self) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
        """The cached pivot rows, back-reduced in place the first time they
        are asked for: the nonzero rows of the reduced echelon form."""
        echelon = self._echelon()
        if not self._rref[1]:
            _back_reduce(*echelon)
            self._rref[1] = True
        return echelon

    def rref(self) -> tuple["RatMatrix", tuple[int, ...], "RatMatrix"]:
        """Reduced row echelon form.

        Returns (R, pivots, T) with T * self == R, T invertible, pivot columns
        strictly increasing and chosen leftmost-first.  R and T are read off
        the reduced echelon form of [self | I], which has a pivot in every row.
        """
        n, m = self.rows, self.cols
        rows, pivots = self.hstack(RatMatrix.identity(n))._reduced()
        reduced = [{j: x for j, x in row.items() if j < m} for row in rows]
        trans = [{j - m: x for j, x in row.items() if j >= m} for row in rows]
        pivots = tuple(p for p in pivots if p < m)
        return RatMatrix._make(n, m, reduced), pivots, RatMatrix._make(n, n, trans)

    def inverse(self) -> "RatMatrix | None":
        """The inverse, read off the reduced echelon form of [self | I], or
        None when the matrix is not square or is singular (a pivot of
        [self | I] falls in I).  Integral entries are ints."""
        n = self.rows
        if self.cols != n:
            return None
        aug = self.hstack(RatMatrix.identity(n))
        if aug._echelon()[1] != tuple(range(n)):
            return None
        inv = [{j - n: as_q(x) for j, x in row.items() if j >= n} for row in aug._reduced()[0]]
        return RatMatrix._make(n, n, inv)

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> "RatMatrix":
        """The right kernel as one sparse cols x nullity matrix, its column c
        the basis vector of the c-th free column f, ascending: a 1 in row f and
        minus the reduced row's entry at f in each pivot row, so the shared
        identity when there is no pivot.  Every reader (see the module
        docstring) takes this matrix as it is."""
        rows, pivots = self._reduced()
        if not pivots:
            return RatMatrix.identity(self.cols)
        pivot_set = set(pivots)
        free = {f: c for c, f in enumerate(f for f in range(self.cols) if f not in pivot_set)}
        out = [{free[f]: 1} if f in free else None for f in range(self.cols)]
        for row, p in zip(rows, pivots):
            # a reduced row reaches no other pivot column
            out[p] = {free[f]: -x for f, x in row.items() if f != p}
        return RatMatrix._make(self.cols, len(free), out)

    def solve(self, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """A particular solution of self * x = b (free variables 0), or None
        when b's column is a pivot of [self | b].  Otherwise x[p] is the b
        entry of the reduced row with pivot p."""
        if len(b) != self.rows:
            raise ValidationError("rhs length does not match row count")
        m = self.cols
        aug = self.hstack(RatMatrix(self.rows, 1, [(x,) for x in b]))
        if aug._echelon()[1][-1:] == (m,):
            return None
        x = [0] * m
        for row, p in zip(*aug._reduced()):
            x[p] = row.get(m, 0)
        return tuple(x)


def _eliminate(
    rows: list[dict[int, Fraction]],
) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """Sparse forward elimination; consumes rows.

    Columns are taken left to right, so the pivot columns are the leftmost
    ones (those where the column rank grows).  Each active row is filed
    under its leading column: every column to the left is already cleared,
    so the rows filed at c are exactly the rows that reach c, and no other
    row is visited there.  Among them the sparsest becomes the pivot row,
    the first in input order on a tie, which only limits fill-in: the pivot
    columns, and everything read off the reduced form, do not depend on
    that choice.  Returns the pivot rows, each scaled to a leading 1 in its
    pivot column (the only division here; an integral quotient is stored
    as an int), in pivot order.
    """
    filed: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if row:
            filed.setdefault(min(row), []).append(i)
    heads = sorted(filed)
    pivot_rows: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    while heads:
        c = heappop(heads)
        hits = filed.pop(c)
        chosen = hits[0] if len(hits) == 1 else min(hits, key=lambda i: (len(rows[i]), i))
        row = rows[chosen]
        lead = row[c]
        if lead == 1:
            pivot = row
        elif lead == -1:
            pivot = {j: -x for j, x in row.items()}
        else:
            pivot = {j: as_q(Fraction(x, lead)) for j, x in row.items()}
        for i in hits:
            if i == chosen:
                continue
            row = _subtract(rows[i], rows[i][c], pivot)
            if row:
                nc = min(row)
                if nc in filed:
                    filed[nc].append(i)
                else:
                    filed[nc] = [i]
                    heappush(heads, nc)
        pivot_rows.append(pivot)
        pivots.append(c)
    return pivot_rows, tuple(pivots)


def _subtract(
    row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]
) -> dict[int, Fraction]:
    """row -= f * other, in place, dropping entries that cancel; returns row."""
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            row[j] = -f * x
        else:
            y -= f * x
            if y:
                row[j] = y
            else:
                del row[j]
    return row


def _back_reduce(rows: list[dict[int, Fraction]], pivots: tuple[int, ...]) -> None:
    """Clear every pivot column above its pivot, in place, turning echelon
    rows reduced."""
    for k in range(len(rows) - 1, 0, -1):
        p, prow = pivots[k], rows[k]
        for row in rows[:k]:
            f = row.get(p)
            if f is not None:
                _subtract(row, f, prow)


def kron(a: "RatMatrix", b: "RatMatrix") -> "RatMatrix":
    """Kronecker product; row/column blocks are a-major."""
    out = []
    for arow in a._nz:
        for brow in b._nz:
            row = {}
            for j1, c in arow.items():
                off = j1 * b.cols
                if c == 1:
                    for j2, x in brow.items():
                        row[off + j2] = x
                else:
                    for j2, x in brow.items():
                        row[off + j2] = c * x
            out.append(row)
    return RatMatrix._make(a.rows * b.rows, a.cols * b.cols, out)


def times_kron(m: "RatMatrix", x: "RatMatrix", v: "RatMatrix") -> "RatMatrix":
    """m * kron(x, v) without the Kronecker matrix: for v of p rows and q
    columns, m's column b.p + s meets row b of x and row s of v, and adds
    m[r, b.p + s] x[b, j] v[s, t] to column j.q + t.  The one reader of an
    action matrix's A-major columns."""
    p, q = v.rows, v.cols
    if m.cols != x.rows * p:
        raise ValidationError(f"cannot multiply {m.rows}x{m.cols} by {x.rows * p}x{x.cols * q}")
    x_rows, v_rows, out = x._nz, v._nz, []
    for row in m._nz:
        acc: dict[int, Fraction] = {}
        for c, y in row.items():
            b, s = divmod(c, p)
            if (x_row := x_rows[b]) and (v_row := v_rows[s]):
                for j, z in x_row.items():
                    off, yz = j * q, y * z
                    for t, w in v_row.items():
                        add_term(acc, off + t, yz * w)
        out.append(acc)
    return RatMatrix._make(m.rows, x.cols * q, out)


class GradedDims(NamedTuple):
    """Dimensions per degree over a window [0, top]."""

    dims: dict[int, int]
    top: int

    def get(self, n: int) -> int:
        return self.dims.get(n, 0)

    def as_list(self) -> list[int]:
        return [self.get(n) for n in range(self.top + 1)]

    def support_max(self) -> int | None:
        nonzero = [n for n in range(self.top + 1) if self.get(n)]
        return max(nonzero) if nonzero else None


class PoincareSeries(NamedTuple):
    """Truncated power series sum c_n t^n, certified through degree top."""

    coeffs: list[int]
    top: int

    @classmethod
    def from_dims(cls, dims: GradedDims, top: int | None = None) -> "PoincareSeries":
        t = dims.top if top is None else top
        return cls([dims.get(n) for n in range(t + 1)], t)

    def coeff(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n <= self.top else 0

    def mul_poly(self, poly: dict[int, int]) -> "PoincareSeries":
        """Multiply by a polynomial given as {exponent: coefficient}."""
        out = [0] * (self.top + 1)
        for e, c in poly.items():
            for n in range(self.top + 1 - e):
                out[n + e] += c * self.coeffs[n]
        return PoincareSeries(out, self.top)

    def add_const(self, c: int, at: int = 0) -> "PoincareSeries":
        out = list(self.coeffs)
        if 0 <= at <= self.top:
            out[at] += c
        return PoincareSeries(out, self.top)

    def first_disagreement(self, other: "PoincareSeries", through: int) -> int | None:
        for n in range(through + 1):
            if self.coeff(n) != other.coeff(n):
                return n
        return None

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{n}" if c != 1 else f"t^{n}")
        return " + ".join(terms) if terms else "0"


class CohomologyData(NamedTuple):
    """Cohomology of a complex at one degree, with explicit witnesses: the
    classes are the columns of `representatives` (dim C^n x betti) and a
    boundary basis those of `boundaries`, matrices every reader takes as is.

    Immutable, so that one instance can be cached and shared by every caller.
    """

    degree: int
    betti: int
    representatives: RatMatrix
    boundaries: RatMatrix

    def coords(self, vectors: RatMatrix) -> RatMatrix:
        """Coordinates of each column of vectors, a cocycle, in the
        representative basis mod boundaries: a betti x vectors.cols matrix.

        The echelon of [B | R | V] (boundaries, representatives, vectors)
        serves every column: a column outside the span is a pivot, and
        otherwise row r of the result is V's part of the reduced row with
        pivot R's column r.
        """
        bounds, reps = self.boundaries, self.representatives
        skip, left = bounds.cols, bounds.cols + reps.cols
        if not (left and vectors.cols):
            if not vectors.is_zero():
                raise ValidationError("vector is not in the recorded cocycle space")
            return RatMatrix.zero(reps.cols, vectors.cols)
        aug = bounds.hstack(reps).hstack(vectors)
        pivots = aug._echelon()[1]
        if pivots and pivots[-1] >= left:
            raise ValidationError("vector is not a cocycle modulo recorded boundaries")
        out: list[dict[int, Fraction]] = [{} for _ in range(reps.cols)]
        for row, p in zip(aug._reduced()[0], pivots):
            if p >= skip:
                out[p - skip] = {j - left: x for j, x in row.items() if j >= left}
        return RatMatrix._make(reps.cols, vectors.cols, out)


def cohomology_count(dims: dict[int, int], d_mats: dict[int, RatMatrix], n: int) -> int:
    """dim H^n of a complex given by per-degree matrices, from ranks alone: after
    the check of d(d(x)) = 0 at the degrees involved, dims[n] - rank d_n -
    rank d_{n-1}, read off the cached echelons.  d_mats[k] maps degree k to
    degree k+1, with shape dims[k+1] x dims[k]; an absent one is zero."""
    dim_n = dims.get(n, 0)
    d_n = d_mats.get(n)
    d_prev = d_mats.get(n - 1)
    if d_n is None:
        d_n = RatMatrix.zero(dims.get(n + 1, 0), dim_n)
    if d_prev is None:
        d_prev = RatMatrix.zero(dim_n, dims.get(n - 1, 0))
    if d_n.cols != dim_n or d_prev.rows != dim_n:
        raise ValidationError(f"differential shapes do not match dims at degree {n}")
    if d_n.rows != dims.get(n + 1, 0) or d_prev.cols != dims.get(n - 1, 0):
        raise ValidationError(f"differential shapes do not match dims at degree {n}")
    if not dim_n:
        return 0
    if not (d_n * d_prev).is_zero():
        raise ValidationError(f"d o d != 0 between degrees {n - 1} and {n + 1}")
    return dim_n - d_n.rank() - d_prev.rank()


def cohomology_at(
    dims: dict[int, int], d_mats: dict[int, RatMatrix], n: int, betti: int | None = None
) -> CohomologyData:
    """Cohomology at degree n, checked and counted by `cohomology_count`
    unless the caller passes the count it already made from these matrices.
    The boundaries are d_{n-1}'s pivot columns, selected from its stored
    rows; representatives are built only when the count is positive: the
    columns of d_n's kernel matrix (the identity when d_n is absent) that
    are pivot columns of [boundaries | kernel], completing the boundary
    basis."""

    def columns(m: RatMatrix, picked: Iterable[int]) -> RatMatrix:
        at = {j: c for c, j in enumerate(picked)}
        nz = [{c: row[j] for j, c in at.items() if j in row} for row in m._nz]
        return RatMatrix._make(m.rows, len(at), nz)

    if betti is None:
        betti = cohomology_count(dims, d_mats, n)
    d_n, d_prev, dim_n = d_mats.get(n), d_mats.get(n - 1), dims.get(n, 0)
    none = RatMatrix.zero(dim_n, 0)
    image = none if d_prev is None else columns(d_prev, d_prev._echelon()[1])
    if not betti:
        return CohomologyData(n, 0, none, image)
    kernel = RatMatrix.identity(dim_n) if d_n is None else d_n.kernel_basis()
    left = image.cols
    pivots = image.hstack(kernel)._echelon()[1]
    return CohomologyData(n, betti, columns(kernel, (j - left for j in pivots if j >= left)), image)
