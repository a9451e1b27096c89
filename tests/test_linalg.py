"""Exact rational linear algebra primitives."""

from fractions import Fraction

import pytest

from dgmodels import linalg
from dgmodels.errors import ValidationError
from dgmodels.linalg import (
    GradedDims,
    PoincareSeries,
    Q,
    RatMatrix,
    cohomology_at,
    cohomology_count,
    kron,
    vec,
)


def test_vec_coerces_to_exact_scalars():
    # an integral value becomes an int, whichever form it came in
    v = vec([1, "2/3", Fraction(1, 5), Fraction(4, 2), "4/2", True])
    assert v == (1, Q(2, 3), Q(1, 5), 2, 2, 1)
    assert [x.__class__ for x in v] == [int, Fraction, Fraction, int, int, int]


def test_matrix_shape_validation():
    with pytest.raises(ValidationError):
        RatMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValidationError):
        RatMatrix(-1, 0)


def test_matmul_and_identity():
    a = RatMatrix(2, 2, [[1, 2], [3, 4]])
    i = RatMatrix.identity(2)
    assert (a * i).data == a.data
    b = RatMatrix(2, 2, [[0, 1], [1, 0]])
    assert (a * b).data == RatMatrix(2, 2, [[2, 1], [4, 3]]).data


def test_rref_rank_exact_fractions():
    m = RatMatrix(3, 2, [["1/2", 1], [1, 2], [0, 1]])
    assert m.rank() == 2
    reduced, pivots, _ = m.rref()
    assert pivots == (0, 1)
    assert reduced.row(0) == (Q(1), Q(0))


def test_kernel_basis_is_exact_and_spans():
    m = RatMatrix(2, 3, [[1, 2, 3], [2, 4, 6]])
    kb = m.kernel_basis()
    assert (kb.rows, kb.cols) == (3, 2)
    assert (m * kb).is_zero()
    for j in range(kb.cols):
        assert m.apply(kb.col(j)) == (Q(0), Q(0))


def test_solve_finds_exact_solution_or_none():
    m = RatMatrix(2, 2, [[2, 0], [0, 3]])
    assert m.solve(vec([1, 1])) == (Q(1, 2), Q(1, 3))
    singular = RatMatrix(2, 2, [[1, 1], [1, 1]])
    assert singular.solve(vec([0, 1])) is None


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3), (3, 2)])
@pytest.mark.parametrize("shared", [True, False])
def test_zero_matrices_rank_kernel_and_solve(monkeypatch, shape, shared):
    """A zero matrix, the shared instance or one built from zero rows, has
    rank 0 and the shared identity as its kernel with no elimination, and
    solves only b = 0."""
    r, c = shape
    m = RatMatrix.zero(r, c) if shared else RatMatrix(r, c, [[0] * c for _ in range(r)])
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_eliminate", None)
        assert m.rank() == 0 and m._echelon() == ([], ())
        assert m.kernel_basis() is RatMatrix.identity(c)
    assert m.solve((0,) * r) == (0,) * c
    if r:
        assert m.solve((0,) * (r - 1) + (1,)) is None
    with pytest.raises(ValidationError, match="rhs length"):
        m.solve((0,) * (r + 1))


def test_cohomology_count_checks_shapes_at_dimension_zero():
    assert cohomology_count({1: 2}, {}, 0) == 0
    assert cohomology_count({0: 0, 1: 2}, {0: RatMatrix.zero(2, 0)}, 0) == 0
    for dims, d_mats in [
        ({0: 0, 1: 2}, {0: RatMatrix.zero(2, 1)}),  # d_0 has a column at dimension 0
        ({0: 0, 1: 2}, {0: RatMatrix.zero(1, 0)}),  # d_0 misses a row of degree 1
        ({-1: 1, 0: 0}, {-1: RatMatrix.zero(1, 1)}),  # d_-1 has a row at dimension 0
        ({-1: 2, 0: 0}, {-1: RatMatrix.zero(0, 1)}),  # d_-1 misses a column of degree -1
    ]:
        with pytest.raises(ValidationError, match="shapes do not match dims at degree 0"):
            cohomology_count(dims, d_mats, 0)


def test_kron_agrees_with_block_scaling():
    a = RatMatrix(1, 2, [[1, 2]])
    b = RatMatrix(2, 1, [[3], [5]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.data == ((Q(3), Q(6)), (Q(5), Q(10)))


def test_span_helpers():
    # the boundaries (1, 0) and (2, 0) span one line, and (0, 1) completes it
    vs = [vec([1, 0]), vec([2, 0]), vec([0, 1])]
    h = cohomology_at({0: 2, 1: 2}, {0: RatMatrix.from_cols(vs[:2])}, 1)
    assert h.boundaries == (vs[0],) and h.representatives == (vs[2],)


def test_cohomology_at_circle_complex():
    # 0 -> Q -> Q^2 -> Q -> 0 with d0 = (1,1)^T, d1 = (1,-1): H = 0 everywhere
    dims = {0: 1, 1: 2, 2: 1}
    d = {0: RatMatrix(2, 1, [[1], [1]]), 1: RatMatrix(1, 2, [[1, -1]])}
    assert cohomology_at(dims, d, 0).betti == 0
    assert cohomology_at(dims, d, 1).betti == 0
    assert cohomology_at(dims, d, 2).betti == 0


def test_cohomology_at_rejects_nonsquare_zero():
    dims = {0: 1, 1: 1, 2: 1}
    d = {0: RatMatrix(1, 1, [[1]]), 1: RatMatrix(1, 1, [[1]])}
    with pytest.raises(ValidationError):
        cohomology_at(dims, d, 1)


def test_cohomology_coords_of_reduces_mod_boundaries():
    dims = {0: 1, 1: 2, 2: 0}
    d = {0: RatMatrix(2, 1, [[1], [0]])}
    data = cohomology_at(dims, d, 1)
    assert data.betti == 1
    assert data.coords([vec([3, 5])]) == [(Q(5),)]


def test_cohomology_coords_batch_matches_single_vectors():
    # H^1 of Q -> Q^3 -> 0 with d(1) = (1, 1, 0): two classes
    dims = {0: 1, 1: 3, 2: 0}
    d = {0: RatMatrix(3, 1, [[1], [1], [0]])}
    data = cohomology_at(dims, d, 1)
    assert data.betti == 2
    vectors = [vec([3, 5, 0]), vec([0, 0, 2]), vec([1, 1, 0]), vec([0, 0, 0])]
    assert data.coords(vectors) == [data.coords([v])[0] for v in vectors]
    assert data.coords(vectors)[2] == (Q(0), Q(0))
    assert data.coords([]) == []
    # a 1-dimensional complex with no cohomology and no boundaries
    empty = cohomology_at({0: 1, 1: 1}, {0: RatMatrix(1, 1, [[1]])}, 0)
    assert empty.coords([vec([0])]) == [()]
    with pytest.raises(ValidationError, match="not in the recorded cocycle space"):
        empty.coords([vec([0]), vec([1])])


def test_cohomology_coords_rejects_a_non_cocycle_among_many():
    # H^1 of 0 -> Q^2 -> Q with d = (1, 0): only the second coordinate is closed
    data = cohomology_at({1: 2, 2: 1}, {1: RatMatrix(1, 2, [[1, 0]])}, 1)
    assert data.coords([vec([0, 4])]) == [(Q(4),)]
    for vectors in ([vec([1, 0])], [vec([0, 1]), vec([1, 0])], [vec([1, 0]), vec([0, 1])]):
        with pytest.raises(ValidationError, match="not a cocycle modulo recorded boundaries"):
            data.coords(vectors)


def test_graded_dims_window():
    gd = GradedDims({0: 1, 4: 1}, top=6)
    assert gd.as_list() == [1, 0, 0, 0, 1, 0, 0]
    assert gd.get(9) == 0
    assert gd.support_max() == 4


def test_poincare_series_arithmetic():
    p = PoincareSeries([1, 0, 1], 2)
    assert p.mul_poly({2: 1}).coeffs == [0, 0, 1]
    assert p.add_const(-1, at=0).coeffs == [0, 0, 1]
    assert p.first_disagreement(PoincareSeries([1, 0, 1], 2), 2) is None
    assert p.first_disagreement(PoincareSeries([1, 1, 1], 2), 2) == 1
    assert str(PoincareSeries([1, 0, 2], 2)) == "1 + 2*t^2"
