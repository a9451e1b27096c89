"""The accumulating products against the copy-per-term routines they replaced.

The naive product, the module and algebra Leibniz rules and
`vector_combination` add each term in place into one accumulator;
`map_from_generator_images` reads each generator's columns off the
target's action matrix through `times_kron`, for a free target (whose
`action_matrix` writes the A-major layout) and a tabulated one alike; and
`_naive` coordinatizes every product landing in H^t with one elimination
per degree t.  `copy_per_term.py` keeps the earlier bodies, and every
result here must equal theirs exactly, over Lambda(a_3), Lambda(e_2) and
Lambda(u_2, v_3).
"""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import copy_per_term as ref
from dgmodels.action import _ActionPipeline
from dgmodels.cdga import SullivanPresentation
from dgmodels.circle import _naive, _naive_mul
from dgmodels.dgmodule import FreeDgModule, map_from_generator_images, module_cohomology, tabulate
from dgmodels.errors import ValidationError
from dgmodels.fixtures import fixture
from dgmodels.linalg import Q
from exact import stores_exact_scalars

CAP = 8
COEFFS = [Q(1), Q(-1), Q(2), Q(-1, 2), Q(3)]
ALGEBRAS = {
    "a3": SullivanPresentation([("a", 3)], {}, cap=CAP + 4),
    "e2": SullivanPresentation([("e", 2)], {}, cap=CAP + 4),
    # dv = u^2: the algebra's own differential reaches the module's
    "u2v3": SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): Q(1)}}, cap=CAP + 4),
}


@st.composite
def modules(draw, alg=None):
    """A free module with the closed degree-0 unit generator first, then
    closed and open generators of both parities; d of an open generator hits
    closed ones, and draws where d^2 != 0 over u2v3 are rejected."""
    alg = alg or ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    closed = draw(st.lists(st.integers(1, 5), max_size=2))
    opened = draw(st.lists(st.integers(1, 6), max_size=2))
    closed = [("1", 0)] + [(f"z{i}", d) for i, d in enumerate(closed)]
    opened = [(f"w{i}", d) for i, d in enumerate(opened)]
    diffs = {}
    for name, deg in opened:
        row = {}
        for zname, zdeg in closed:
            cdeg = deg + 1 - zdeg
            if 0 <= cdeg and alg.dim(cdeg) and draw(st.booleans()):
                mono = draw(st.sampled_from(alg.basis(cdeg)))
                row[zname] = {mono: draw(st.sampled_from(COEFFS))}
        if row:
            diffs[name] = row
    try:
        return FreeDgModule(alg, closed + opened, diffs, cap=CAP)
    except ValidationError:
        assume(False)


@st.composite
def combinations(draw, free, degree=None):
    """A combination with a homogeneous coefficient on each generator it
    names, of total degree `degree` when given; it may be empty."""
    alg, comb = free.algebra, {}
    for j in draw(st.lists(st.integers(0, free.gen_count - 1), unique=True, max_size=3)):
        n = draw(st.integers(0, CAP - 1)) if degree is None else degree - free.gen_degrees[j]
        if n < 0 or not alg.dim(n):
            continue
        monos = draw(st.lists(st.sampled_from(alg.basis(n)), min_size=1, unique=True))
        comb[j] = {m: draw(st.sampled_from(COEFFS)) for m in monos}
    return comb


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_naive_product_matches_the_copy_per_term_product(data):
    free = data.draw(modules())
    a, b, out = (data.draw(combinations(free)) for _ in range(3))
    c = data.draw(st.sampled_from(COEFFS))
    got = _naive_mul(free, a, b)
    assert got == ref.naive_mul(free, a, b)
    assert _naive_mul(free, a, b, c, copy.deepcopy(out)) == ref.naive_mul(free, a, b, c, out)
    assert all(poly and all(poly.values()) for poly in got.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leibniz_rules_match_the_copy_per_term_rules(data):
    free = data.draw(modules())
    alg = free.algebra
    comb = data.draw(combinations(free))
    assert free.d_combination(comb) == ref.d_combination(free, comb)
    poly = next(iter(comb.values()), {})
    assert alg.d_poly(poly) == ref.d_poly(alg, poly)
    for m in poly:
        assert alg.d_mono(m) == ref.d_mono(alg, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vector_combination_matches_the_copy_per_term_route(data):
    free = data.draw(modules())
    k = data.draw(st.integers(0, CAP))
    v = tuple(data.draw(st.sampled_from([*COEFFS, 0])) for _ in range(free.dim(k)))
    got = free.vector_combination(v, k)
    assert got == ref.vector_combination(free, v, k)
    assert free.combination_vector(got, k) == tuple(Q(x) for x in v)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(-1, 3), st.booleans())
def test_generator_image_maps_match_the_action_row_walk(data, p, tabulated):
    source = data.draw(modules())
    target = data.draw(modules(source.algebra)) if data.draw(st.booleans()) else source
    coeffs = st.sampled_from([*COEFFS, 0, 0])
    images = {
        name: tuple(data.draw(coeffs) for _ in range(target.dim(deg + p)))
        for name, deg in zip(source.gen_names, source.gen_degrees)
        if 0 <= deg + p <= target.cap
    }
    target = tabulate(target) if tabulated else target
    phi = map_from_generator_images(source, target, p, images)
    want = ref.map_by_action_rows(source, target, p, images)
    for k in phi.window():
        assert phi.matrix(k) == want.matrix(k)
        assert stores_exact_scalars(phi.matrix(k))


def per_pair_ring(free, window):
    """The naive ring entries with one coordinatization per pair of degrees
    (i, j), as `_naive` made them before it batched them by degree."""
    h = {n: module_cohomology(free, n) for n in range(window + 1)}
    classes = {
        n: [free.vector_combination(rep, n) for rep in h[n].representatives]
        for n in range(1, window + 1)
        if h[n].betti
    }
    ring = []
    for i, xs in classes.items():
        for j, ys in classes.items():
            if i <= j <= window - i:
                pairs = [(ai, bi) for ai in range(len(xs)) for bi in range(len(ys))]
                products = [
                    free.combination_vector(ref.naive_mul(free, xs[ai], ys[bi]), i + j)
                    for ai, bi in pairs
                ]
                for (ai, bi), coords in zip(pairs, h[i + j].coords(products)):
                    ring.append((i, ai, j, bi, coords))
    return ring


@pytest.mark.parametrize("window", [8, 12, 16, 28, 41, 59])
@pytest.mark.parametrize("name", ["nonformal", "cp2"])
def test_naive_ring_coordinates_per_degree_match_those_per_pair(name, window):
    p = _ActionPipeline(fixture(name, window), window)
    report = _naive(p)
    assert report.leibniz and report.ring
    assert [tuple(entry) for entry in report.ring] == per_pair_ring(p.total.module, report.window)
