"""Exact rational linear algebra primitives."""

from collections import Counter
from fractions import Fraction

import pytest

from dgmodels import dgmodule, linalg
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
from dgmodels.fixtures import FIXTURES, fixture


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
    assert h.boundaries == RatMatrix.from_cols([vs[0]])
    assert h.representatives == RatMatrix.from_cols([vs[2]])


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
    assert data.coords(RatMatrix.from_cols([vec([3, 5])])) == RatMatrix(1, 1, [[Q(5)]])


def test_cohomology_coords_batch_matches_single_vectors():
    # H^1 of Q -> Q^3 -> 0 with d(1) = (1, 1, 0): two classes
    dims = {0: 1, 1: 3, 2: 0}
    d = {0: RatMatrix(3, 1, [[1], [1], [0]])}
    data = cohomology_at(dims, d, 1)
    assert data.betti == 2
    vectors = [vec([3, 5, 0]), vec([0, 0, 2]), vec([1, 1, 0]), vec([0, 0, 0])]
    batch = data.coords(RatMatrix.from_cols(vectors))
    assert batch == RatMatrix.from_cols(
        [data.coords(RatMatrix.from_cols([v])).col(0) for v in vectors]
    )
    assert batch.col(2) == (Q(0), Q(0))
    assert data.coords(RatMatrix.zero(3, 0)) == RatMatrix.zero(2, 0)
    # a 1-dimensional complex with no cohomology and no boundaries
    empty = cohomology_at({0: 1, 1: 1}, {0: RatMatrix(1, 1, [[1]])}, 0)
    assert empty.coords(RatMatrix.from_cols([vec([0])])) == RatMatrix.zero(0, 1)
    with pytest.raises(ValidationError, match="not in the recorded cocycle space"):
        empty.coords(RatMatrix.from_cols([vec([0]), vec([1])]))


def test_cohomology_coords_rejects_a_non_cocycle_among_many():
    # H^1 of 0 -> Q^2 -> Q with d = (1, 0): only the second coordinate is closed
    data = cohomology_at({1: 2, 2: 1}, {1: RatMatrix(1, 2, [[1, 0]])}, 1)
    assert data.coords(RatMatrix.from_cols([vec([0, 4])])) == RatMatrix(1, 1, [[Q(4)]])
    for vectors in ([vec([1, 0])], [vec([0, 1]), vec([1, 0])], [vec([1, 0]), vec([0, 1])]):
        with pytest.raises(ValidationError, match="not a cocycle modulo recorded boundaries"):
            data.coords(RatMatrix.from_cols(vectors))


@pytest.mark.parametrize("name", FIXTURES)
def test_cohomology_readers_build_no_dense_view(monkeypatch, name):
    """cohomology_at, coords and induced_map take the witnesses as matrices:
    on the relative model M at window 12, into A by i' and e' and into M by
    the identity, no column, matrix-vector product or matrix of columns is
    built inside them."""
    data = fixture(name, 12)
    m, a_mod = data.relative_model, data.i_prime.target
    maps = [data.i_prime, data.e_prime, dgmodule.identity_map(m)]

    def complex_of(module):
        dims = {n: module.dim(n) for n in range(-1, module.cap + 1)}
        return dims, {n: module.differential_matrix(n) for n in range(-1, module.cap)}

    inputs = {id(mod): complex_of(mod) for mod in (m, a_mod)}
    for f in maps:
        for k in f.window():
            f.matrix(k)
    inside, seen = [0], Counter()

    def watched(fn):
        def run(*args):
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1
        return run

    def counted(name, fn):
        def run(*args, **kwargs):
            seen[name] += bool(inside[0])
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(RatMatrix, "col", counted("col", RatMatrix.col))
    monkeypatch.setattr(RatMatrix, "apply", counted("apply", RatMatrix.apply))
    from_cols = counted("from_cols", RatMatrix.from_cols.__func__)
    monkeypatch.setattr(RatMatrix, "from_cols", classmethod(from_cols))
    monkeypatch.setattr(linalg.CohomologyData, "coords", watched(linalg.CohomologyData.coords))
    at, induced_map = watched(cohomology_at), watched(dgmodule.induced_map)

    h = {
        id(mod): {n: at(*inputs[id(mod)], n) for n in range(mod.cap)} for mod in (m, a_mod)
    }
    read = 0
    for f in maps:
        h_src, h_tgt = h[id(f.source)], h[id(f.target)]
        for k in f.window():
            if k in h_src and k + f.degree in h_tgt:
                induced_map(f, h_src[k], h_tgt[k + f.degree])
                read += 1
    assert read and any(h_m.betti for h_m in h[id(m)].values())
    assert seen == Counter(col=0, apply=0, from_cols=0)


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
