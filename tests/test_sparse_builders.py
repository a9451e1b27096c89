"""The sparse builders against the dense ones they replaced.

`FreeDgModule` writes its action matrices from `mono_mul` and its
differential from `d_combination` straight into row dicts; the algebra does
the same for its product and differential matrices; `apply_images`
evaluates generator images on a combination through the target's stored
action rows; and `map_from_generator_images` builds each degree of a map
in one walk over those rows, at the degrees some generator image reaches.
The dense column builders below, and the per-column route through
`apply_images`, are the earlier code, kept as the reference: every matrix of
the window must agree, and every stored entry must be a nonzero `int` or
`Fraction`.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgmodels import action, dgmodule, fixtures
from dgmodels.cdga import SullivanPresentation
from dgmodels.dgmodule import FreeDgModule, map_from_generator_images, tabulate
from dgmodels.errors import ValidationError
from dgmodels.fixtures import FIXTURES
from dgmodels.linalg import Q, RatMatrix
from dgmodels.minmodel import apply_images
from exact import is_stored_scalar, stores_exact_scalars

CAP = 8
COEFFS = [1, -1, 2, Q(-1, 2), Q(3)]
ALGEBRAS = {
    "a3": SullivanPresentation([("a", 3)], {}, cap=CAP + 4),
    "e2f2": SullivanPresentation([("e", 2), ("f", 2)], {}, cap=CAP + 4),
    # dv = u^2: the algebra's own differential reaches the module's
    "u2v3": SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): Q(1)}}, cap=CAP + 4),
    # two odd generators give Koszul signs, and d(av) = -au^2 a negative entry
    "a3u2v3": SullivanPresentation(
        [("a", 3), ("u", 2), ("v", 3)], {"v": {(0, 2, 0): Q(1)}}, cap=CAP + 4
    ),
}


# ---- the dense reference builders ----------------------------------------------


def dense_action_matrix(module: FreeDgModule, i: int, k: int) -> RatMatrix:
    cols = []
    for am in module.algebra.basis(i):
        for gi, m in module.basis(k):
            prod = module.algebra.poly_mul({am: Q(1)}, {m: Q(1)})
            cols.append(module.combination_vector({gi: prod} if prod else {}, i + k))
    return RatMatrix.from_cols(cols, nrows=module.dim(i + k))


def dense_differential_matrix(module: FreeDgModule, k: int) -> RatMatrix:
    cols = [
        module.combination_vector(module.d_combination({gi: {m: Q(1)}}), k + 1)
        for gi, m in module.basis(k)
    ]
    return RatMatrix.from_cols(cols, nrows=module.dim(k + 1))


def dense_product_matrix(alg: SullivanPresentation, i: int, j: int) -> RatMatrix:
    bi, bj = alg.basis(i), alg.basis(j)
    target = alg.basis_index(i + j)
    entries = [[Q(0)] * (len(bi) * len(bj)) for _ in range(len(target))]
    for a, m1 in enumerate(bi):
        for b, m2 in enumerate(bj):
            hit = alg.mono_mul(m1, m2)
            if hit is not None:
                entries[target[hit[1]]][a * len(bj) + b] = Q(hit[0])
    return RatMatrix(len(target), len(bi) * len(bj), entries)


def dense_algebra_differential(alg: SullivanPresentation, n: int) -> RatMatrix:
    cols = [alg.poly_vector(alg.d_mono(m), n + 1) for m in alg.basis(n)]
    return RatMatrix.from_cols(cols, nrows=alg.dim(n + 1))


def dense_apply_images(source, target, degree, images, comb, out_degree):
    """phi(comb) as a dense vector; images[j] is a dense vector for every j in comb."""
    out = [Q(0)] * target.dim(out_degree)
    algebra = source.algebra
    for j, poly in comb.items():
        img = images[j]
        if all(x == 0 for x in img):
            continue
        t = source.gen_degrees[j] + degree
        i = algebra.poly_degree(poly)
        dim_t = target.dim(t)
        kv = [Q(0)] * (algebra.dim(i) * dim_t)
        index = algebra.basis_index(i)
        for m, c in poly.items():
            base = index[m] * dim_t
            for s, x in enumerate(img):
                if x:
                    kv[base + s] += c * x
        piece = target.action_matrix(i, t).apply(kv)
        if (i * degree) % 2:
            piece = tuple(-x for x in piece)
        out = [a + b for a, b in zip(out, piece, strict=True)]
    return tuple(out)


def reference_image_columns(source, target, degree, images, k):
    """The degree-k matrix of the A-linear map with these generator images,
    one apply_images call per basis column a.g."""
    out = [{} for _ in range(target.dim(k + degree))]
    for c, (gi, m) in enumerate(source.basis(k)):
        for r, x in apply_images(source, target, degree, images, {gi: {m: 1}}).items():
            out[r][c] = x
    return RatMatrix._make(len(out), source.dim(k), out)


# ---- random free modules ---------------------------------------------------------


@st.composite
def free_modules(draw, alg=None, prefix="") -> FreeDgModule:
    """1-3 closed and 0-3 open generators of odd and even degrees; d of an open
    generator hits closed ones.  Over u2v3 a coefficient must be a cocycle for
    d^2 = 0, and draws where it is not are rejected."""
    alg = alg or ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    closed = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    opened = draw(st.lists(st.integers(1, 6), max_size=3))
    closed = [(f"{prefix}z{i}", d) for i, d in enumerate(closed)]
    opened = [(f"{prefix}w{i}", d) for i, d in enumerate(opened)]
    diffs = {}
    for name, deg in opened:
        row = {}
        for zname, zdeg in closed:
            cdeg = deg + 1 - zdeg
            if 0 <= cdeg and alg.dim(cdeg) and draw(st.booleans()):
                row[zname] = {draw(st.sampled_from(alg.basis(cdeg))): draw(st.sampled_from(COEFFS))}
        if row:
            diffs[name] = row
    try:
        return FreeDgModule(alg, closed + opened, diffs, cap=CAP)
    except ValidationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(free_modules())
def test_free_module_matrices_match_the_dense_builders(module):
    for k in range(module.cap):
        d = module.differential_matrix(k)
        assert d == dense_differential_matrix(module, k)
        assert stores_exact_scalars(d)
    for i in range(1, min(module.cap, module.algebra.cap) + 1):
        for k in range(module.cap - i + 1):
            act = module.action_matrix(i, k)
            assert act == dense_action_matrix(module, i, k)
            assert stores_exact_scalars(act)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_algebra_matrices_match_the_dense_builders(name):
    alg = ALGEBRAS[name]
    for n in range(alg.cap):
        d = alg.differential_matrix(n)
        assert d == dense_algebra_differential(alg, n)
        assert stores_exact_scalars(d)
    for i in range(alg.cap + 1):
        for j in range(alg.cap + 1 - i):
            prod = alg.product_matrix(i, j)
            assert prod == dense_product_matrix(alg, i, j)
            assert stores_exact_scalars(prod)


@st.composite
def image_cases(draw):
    """(source, target, degree, dense images, a random combination, its degree)."""
    src = draw(free_modules())
    alg = src.algebra
    tgt = src if draw(st.booleans()) else draw(free_modules(alg, prefix="t"))
    p = draw(st.integers(-1, 3))
    coeffs = st.sampled_from([*COEFFS, Q(0)])
    images = {
        j: tuple(draw(coeffs) for _ in range(tgt.dim(deg + p)))
        for j, deg in enumerate(src.gen_degrees)
        if deg + p <= tgt.cap
    }

    def reachable(n):
        return [j for j, deg in enumerate(src.gen_degrees) if deg <= n and alg.dim(n - deg)]

    degrees = [n for n in range(max(0, -p), min(src.cap, tgt.cap - p) + 1) if reachable(n)]
    assume(degrees)
    n = draw(st.sampled_from(degrees))
    comb = {}
    for j in draw(st.lists(st.sampled_from(reachable(n)), min_size=1, unique=True)):
        basis = alg.basis(n - src.gen_degrees[j])
        monos = draw(st.lists(st.sampled_from(basis), min_size=1, unique=True))
        comb[j] = {m: draw(st.sampled_from(COEFFS)) for m in monos}
    return src, tgt, p, images, comb, n


@settings(max_examples=100, deadline=None)
@given(image_cases())
def test_apply_images_matches_the_dense_evaluator(case):
    src, tgt, p, images, comb, n = case
    sparse = {j: {s: x for s, x in enumerate(v) if x} for j, v in images.items()}
    got = apply_images(src, tgt, p, sparse, comb)
    assert all(is_stored_scalar(x) for x in got.values())
    want = dense_apply_images(src, tgt, p, images, comb, n + p)
    assert tuple(got.get(r, Q(0)) for r in range(tgt.dim(n + p))) == want


@settings(max_examples=100, deadline=None)
@given(image_cases(), st.booleans())
def test_map_from_generator_images_matches_the_per_column_route(case, tabulated):
    src, tgt, p, images, _, _ = case
    if tabulated:
        tgt = tabulate(tgt)
    named = {src.gen_names[j]: v for j, v in images.items()}
    phi = map_from_generator_images(src, tgt, p, named)
    sparse = {j: {s: x for s, x in enumerate(v) if x} for j, v in images.items()}
    for k in phi.window():
        got = phi.matrix(k)
        assert got == reference_image_columns(src, tgt, p, sparse, k)
        assert stores_exact_scalars(got)


def built_with_kron_degrees(source, target, degree, images):
    """map_from_generator_images(source, target, degree, images) and the source
    degree k = i + t - degree of each times_kron call, read off the free
    target's action matrix A^i (x) N^t asked for just before the call."""
    asked, seen = [], Counter()
    action_matrix, kron = FreeDgModule.action_matrix, dgmodule.times_kron

    def asking(module, i, t):
        asked.append((module, i, t))
        return action_matrix(module, i, t)

    def counting(*args):
        module, i, t = asked[-1]
        assert module is target
        seen[i + t - degree] += 1
        return kron(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FreeDgModule, "action_matrix", asking)
        mp.setattr(dgmodule, "times_kron", counting)
        phi = map_from_generator_images(source, target, degree, images)
    return phi, seen


def assert_built_where_images_land(source, target, degree, images):
    """Each column a.g is apply_images on a.g, and times_kron runs once per
    generator with an image and degree k its image reaches, at no other k."""
    phi, seen = built_with_kron_degrees(source, target, degree, images)
    alg = source.algebra
    sparse = {}
    for gname, v in images.items():
        j = source.gen_index(gname)
        if 0 <= source.gen_degrees[j] + degree <= target.cap and any(v):
            sparse[j] = {s: x for s, x in enumerate(v) if x}
    for k in phi.window():
        assert phi.matrix(k) == reference_image_columns(source, target, degree, sparse, k)
    reached = Counter(
        k
        for j in sparse
        for k in range(source.gen_degrees[j], phi.window().stop)
        if alg.dim(k - source.gen_degrees[j])
    )
    assert seen == reached


def structure_map_calls(name, window):
    """The (source, target, degree, images) of every map_from_generator_images
    call that builds fixture name's e' and i' and, where it has one, q'."""
    calls = []

    def recording(source, target, degree, images, name=""):
        calls.append((source, target, degree, images))
        return map_from_generator_images(source, target, degree, images, name)

    with pytest.MonkeyPatch.context() as mp:
        for module in (fixtures, action):
            mp.setattr(module, "map_from_generator_images", recording)
        pipeline = action._ActionPipeline(fixtures.fixture(name, window), window)
        if not pipeline.data.fixed_set_empty:
            pipeline.borel
    return calls


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_structure_maps_are_built_where_their_images_land(name):
    calls = structure_map_calls(name, 16)
    assert len(calls) == (2 if fixtures.fixture(name, 16).fixed_set_empty else 3)
    for source, target, degree, images in calls:
        assert_built_where_images_land(source, target, degree, images)


@settings(max_examples=60, deadline=None)
@given(image_cases())
def test_random_maps_are_built_where_their_images_land(case):
    src, tgt, p, images, _, _ = case
    assert_built_where_images_land(src, tgt, p, {src.gen_names[j]: v for j, v in images.items()})
