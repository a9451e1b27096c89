"""Integers first: an integral scalar is an `int`, and only a division
makes a `Fraction`.

The fixtures' reports never divide, so every entry they store is an int.
Mixed int/Fraction matrices give the same results as the all-Fraction
storage they replaced, and never a float.  The parser and `io` divide
exactly and hand out ints where the value is integral.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmodels import io as dio
from dgmodels.cdga import SullivanPresentation, parse_polynomial
from dgmodels.circle import action_report
from dgmodels.errors import ValidationError
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.linalg import CohomologyData, RatMatrix, unit_vec
from exact import stores_exact_scalars
from test_elimination import dense_independent_subset


def exact(v) -> bool:
    """Every entry of a dense vector is an int or a Fraction (zeros included)."""
    return all(x.__class__ in (int, Fraction) for x in v)


@pytest.mark.parametrize("name", FIXTURES)
def test_action_report_stores_only_ints(monkeypatch, name):
    data = fixture(name, 20)
    stored = []
    make, init = RatMatrix._make.__func__, RatMatrix.__init__

    def recording_make(cls, rows, cols, nz):
        m = make(cls, rows, cols, nz)
        stored.append(m)
        return m

    def recording_init(self, *args):
        init(self, *args)
        stored.append(self)

    monkeypatch.setattr(RatMatrix, "_make", classmethod(recording_make))
    monkeypatch.setattr(RatMatrix, "__init__", recording_init)
    action_report(data)
    entries = [x for m in stored for row in m._nz for x in row.values()]
    assert entries
    assert all(x.__class__ is int for x in entries)


scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5))),
)


@st.composite
def twin_matrices(draw, rows=None, cols=None):
    """The same matrix twice: stored as the constructor stores it (ints where
    integral, so mixed) and with every entry a Fraction, as it was stored before."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    data = [[draw(scalars) if draw(st.booleans()) else 0 for _ in range(cols)] for _ in range(rows)]
    mixed = RatMatrix(rows, cols, data)
    fractions = RatMatrix._make(
        rows, cols, [{j: Fraction(x) for j, x in enumerate(row) if x} for row in data]
    )
    return mixed, fractions


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mixed_scalars_agree_with_all_fractions_and_never_float(data):
    a, fa = data.draw(twin_matrices())
    b, fb = data.draw(twin_matrices(rows=a.cols))
    c, fc = data.draw(twin_matrices(rows=a.rows, cols=a.cols))
    for got, want in ((a * b, fa * fb), (a + c, fa + fc), (a - c, fa - fc)):
        assert got == want and stores_exact_scalars(got)

    rows, pivots = a._echelon()
    assert (rows, pivots) == fa._echelon()
    assert all(exact(row.values()) for row in rows)

    kernel = a.kernel_basis()
    assert kernel == fa.kernel_basis() and stores_exact_scalars(kernel)
    assert all(exact(kernel.col(j)) for j in range(kernel.cols))

    x = [data.draw(scalars) for _ in range(a.cols)]
    rhs = a.apply(x)
    sol = a.solve(rhs)
    assert exact(rhs) and sol is not None and exact(sol)
    assert sol == fa.solve([Fraction(y) for y in rhs])

    # coordinates modulo the column space of a, in a basis completing it
    if a.rows:
        bounds = dense_independent_subset([a.col(j) for j in range(a.cols)])
        units = [unit_vec(a.rows, i) for i in range(a.rows)]
        reps = dense_independent_subset(bounds + units)[len(bounds):]
        h = CohomologyData(0, len(reps), tuple(reps), tuple(bounds))
        fh = CohomologyData(
            0,
            len(reps),
            tuple(tuple(map(Fraction, v)) for v in reps),
            tuple(tuple(map(Fraction, v)) for v in bounds),
        )
        vectors = [tuple(data.draw(scalars) for _ in range(a.rows)) for _ in range(2)]
        coords = h.coords(vectors)
        assert all(exact(v) for v in coords)
        assert coords == fh.coords([tuple(map(Fraction, v)) for v in vectors])


U = SullivanPresentation([("u", 2)], {}, cap=8)
UNIT, ONE_U = (0,), (1,)


def test_parser_divides_exactly_and_keeps_integral_values_int():
    half = parse_polynomial(U, "u/2")
    assert half == {ONE_U: Fraction(1, 2)} and half[ONE_U].__class__ is Fraction
    two = parse_polynomial(U, "4/2*u")
    assert two == {ONE_U: 2} and two[ONE_U].__class__ is int
    # a product of Fractions that comes out integral leaves the parser as an int
    assert parse_polynomial(U, "u/2*2")[ONE_U].__class__ is int
    assert parse_polynomial(U, "3/4/(1/2)") == {UNIT: Fraction(3, 2)}
    with pytest.raises(ValidationError, match="division only by nonzero rationals"):
        parse_polynomial(U, "u/0")
    with pytest.raises(ValidationError, match="bits"):
        parse_polynomial(U, "2^100000")


def test_io_reads_and_writes_exact_scalars():
    assert dio.parse_rational("4/2").__class__ is int and dio.parse_rational("4/2") == 2
    assert dio.parse_rational(" -6/4 ") == Fraction(-3, 2)
    assert dio.parse_rational(7).__class__ is int
    with pytest.raises(ValidationError):
        dio.parse_rational("1/0")
    assert [dio.rational_str(x) for x in (2, -3, Fraction(4, 2), Fraction(-3, 6))] == [
        "2",
        "-3",
        "2",
        "-1/2",
    ]
