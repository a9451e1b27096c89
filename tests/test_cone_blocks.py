"""The tabulated cone's action blocks, and the free cone against it.

The blocks are pinned against the eager block assembly that `cone` used
before, copied here with `hstack` and `vstack`.  `free_cone` is checked against the
tabulated cone, and its block-read differential against the Leibniz rule
on its own generator table, its two oracles; an `action_report` is shown
to build no tabulated cone and to fill no cone differential it does not
read; modules and maps share one zero block per shape; and `compose`,
which multiplies only the blocks both factors store, equals the
per-degree products.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmodels import action, dgmodule
from dgmodels.cdga import SullivanPresentation
from dgmodels.circle import action_report
from dgmodels.dgmodule import (
    FreeDgModule,
    TabulatedDgModule,
    betti_table,
    certify_free_map,
    compose,
    cone,
    cone_les,
    _induced_rank,
    free_cone,
    induced_map,
    map_from_generator_images,
    module_cohomology,
    tabulate,
    verify_dgmodule,
)
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.linalg import Q, RatMatrix


def eager_action_blocks(cn):
    """The action blocks as cone assembled them before, every one up front."""
    n_mod, m_mod, p = cn.phi.target, cn.phi.source, cn.degree
    algebra = n_mod.algebra
    out = {}
    for i in range(1, min(cn.cap, algebra.cap) + 1):
        tw = Q(-1 if (i * (p - 1)) % 2 else 1)
        for n in range(cn.cap - i + 1):
            da = algebra.dim(i)
            top = n_mod.action_matrix(i, n).hstack(
                RatMatrix.zero(cn.n_dims[i + n], da * cn.m_dims[n])
            )
            bottom = RatMatrix.zero(cn.m_dims[i + n], da * cn.n_dims[n]).hstack(
                m_mod.action_matrix(i, n - p + 1).scale(tw)
            )
            out[(i, n)] = top.vstack(bottom)
    return out


def a_major(block, da, nn, mn):
    """The eager block with its columns in A-major order over N^n + M^{n-p+1}.

    The eager assembly put every N column before every M column, which is
    A-major only when dim A^i <= 1 or one of the two parts is empty."""
    cols = [block.col(j) for j in range(block.cols)]
    order = []
    for a in range(da):
        order += [a * nn + s for s in range(nn)]
        order += [da * nn + a * mn + s for s in range(mn)]
    return RatMatrix.from_cols([cols[c] for c in order], nrows=block.rows)


def assert_blocks_match_eager(cn):
    algebra = cn.module.algebra
    eager = eager_action_blocks(cn)
    # zero blocks are not stored, so every key is compared through action_matrix
    assert set(cn.module.act_mats) <= set(eager)
    for (i, n), old in eager.items():
        da, nn, mn = algebra.dim(i), cn.n_dims[n], cn.m_dims[n]
        block = cn.module.action_matrix(i, n)
        assert block == a_major(old, da, nn, mn)
        if da <= 1 or not nn or not mn:
            assert block == old


@pytest.mark.parametrize("window", [12, 20])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_cone_blocks_match_the_eager_assembly(name, window):
    data = fixture(name, window)
    maps = [data.e_prime]
    if not data.fixed_set_empty:
        maps += [data.i_prime, action._ActionPipeline(data, window).borel[1].phi]
    for phi in maps:
        assert_blocks_match_eager(cone(phi, check=False))


ALGEBRAS = [
    SullivanPresentation([("a", 3)], {}, cap=10),
    SullivanPresentation([("e", 2)], {}, cap=10),
    SullivanPresentation([("e", 2), ("f", 2)], {}, cap=10),
]

COEFFS = [Q(0), Q(1), Q(-2)]


@st.composite
def free_maps(draw):
    """A degree-p map of free modules, p from 1 to 3, from images of the
    source generators.  The target has generators in degrees 0..3, some with
    d(y) = c a.y' for a monomial a and a cycle y'; each image is a
    combination of cycles, so the map is a chain map."""
    alg = draw(st.sampled_from(ALGEBRAS))
    p = draw(st.integers(1, 3))
    src_degs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tgt_degs = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    diffs = {}
    for j, deg in enumerate(tgt_degs):
        cycles = [h for h in range(j) if f"y{h}" not in diffs]
        h = draw(st.sampled_from([None, *cycles]))
        monos = alg.basis(deg + 1 - tgt_degs[h]) if h is not None else ()
        if monos:
            mono, c = draw(st.sampled_from(monos)), draw(st.sampled_from(COEFFS[1:]))
            diffs[f"y{j}"] = {f"y{h}": {mono: c}}
    src = FreeDgModule(alg, [(f"x{i}", d) for i, d in enumerate(src_degs)], {}, cap=7)
    tgt = FreeDgModule(alg, [(f"y{i}", d) for i, d in enumerate(tgt_degs)], diffs, cap=8)
    images = {}
    for name, deg in zip(src.gen_names, src.gen_degrees):
        if deg + p < tgt.cap:
            image = [Q(0)] * tgt.dim(deg + p)
            cycles = tgt.differential_matrix(deg + p).kernel_basis()
            for z in (cycles.col(j) for j in range(cycles.cols)):
                c = draw(st.sampled_from(COEFFS))
                image = [x + c * y for x, y in zip(image, z)]
            images[name] = image
    return map_from_generator_images(src, tgt, p, images)


@settings(max_examples=60, deadline=None)
@given(free_maps())
def test_random_cone_blocks_match_the_eager_assembly(phi):
    cn = cone(phi, check=False)
    assert_blocks_match_eager(cn)
    assert verify_dgmodule(cn.module).ok


@settings(max_examples=40, deadline=None)
@given(free_maps())
def test_compose_equals_the_per_degree_products(phi):
    """compose multiplies only where both factors store a block; every degree
    of its window still reads the product of the two factors' matrices."""
    cn = free_cone(phi)
    incl, proj = cn.inclusion, cn.projection
    for g, f in ((phi, proj), (incl, phi), (proj, incl), (incl, compose(phi, proj))):
        gf = compose(g, f)
        for k in gf.window():
            assert gf.matrix(k) == g.matrix(k + f.degree) * f.matrix(k)
        assert set(gf.mats) <= set(f.mats) & {k - f.degree for k in g.mats}
    assert not compose(proj, incl).mats


@settings(max_examples=40, deadline=None)
@given(free_maps())
def test_free_cone_agrees_with_the_tabulated_cone_on_random_maps(phi):
    free, tab = free_cone(phi), cone(phi, check=False)
    assert isinstance(free.module, FreeDgModule) and free.cap == tab.cap
    assert (free.n_dims, free.m_dims) == (tab.n_dims, tab.m_dims)
    assert [free.module.dim(n) for n in range(free.cap + 1)] == [
        tab.module.dim(n) for n in range(tab.cap + 1)
    ]
    assert betti_table(free.module) == betti_table(tab.module)
    les = cone_les(free)
    assert les.ok and les.rows == cone_les(tab).rows
    assert free.inclusion.verify().ok
    assert certify_free_map(free.projection).ok


def assert_induced_ranks_match(f):
    """cone_les's rank of f_* against the rank of f_*'s matrix in the stored
    representative bases, at every source degree where both groups are
    certified; returns how many of those ranks are nonzero."""
    p = f.degree
    nonzero = 0
    for k in range(min(f.source.cap - 1, f.target.cap - 1 - p, f.window().stop - 1) + 1):
        h_src, h_tgt = module_cohomology(f.source, k), module_cohomology(f.target, k + p)
        rank = _induced_rank(f, k, h_src.betti, h_tgt.betti)
        assert rank == induced_map(f, h_src, h_tgt).rank(), (f.name, k)
        nonzero += rank > 0
    return nonzero


@settings(max_examples=40, deadline=None)
@given(free_maps())
def test_induced_rank_matches_the_coordinate_oracle_on_random_maps(phi):
    assert_induced_ranks_match(phi)


@pytest.mark.parametrize("name", FIXTURES)
def test_induced_rank_matches_the_coordinate_oracle_on_borel_cones(name):
    cn = action._ActionPipeline(fixture(name, 12), 12).borel[1]
    nonzero = [assert_induced_ranks_match(f) for f in (cn.inclusion, cn.projection, cn.phi)]
    assert any(nonzero)


def leibniz_twin(module):
    """A plain FreeDgModule on the free cone's generator table, whose
    differential comes from the Leibniz rule alone."""
    names = module.gen_names
    diffs = {
        names[j]: {names[h]: poly for h, poly in comb.items()}
        for j, comb in enumerate(module.gen_diffs)
    }
    return FreeDgModule(module.algebra, list(zip(names, module.gen_degrees)), diffs, cap=module.cap)


def assert_differential_is_leibniz(module):
    twin = leibniz_twin(module)
    for k in range(module.cap):
        assert module.differential_matrix(k) == twin.differential_matrix(k), k


@settings(max_examples=40, deadline=None)
@given(free_maps())
def test_free_cone_differential_is_the_leibniz_rule_on_random_maps(phi):
    assert_differential_is_leibniz(free_cone(phi).module)


def report_cones(data, window):
    pipeline = action._ActionPipeline(data, window)
    cones = [pipeline.total.module]
    if not data.fixed_set_empty:
        cones += [pipeline.fixed.module, pipeline.borel[0].module]
    return cones


@pytest.mark.parametrize("window", [12, 16])
@pytest.mark.parametrize("name", FIXTURES)
def test_report_cone_differentials_are_the_leibniz_rule(name, window):
    for module in report_cones(fixture(name, window), window):
        assert_differential_is_leibniz(module)


def test_report_cones_fill_only_the_degrees_they_read():
    # a deep cap and a shallow window: each cone degree is filled on first
    # read, and the report reads none above the window
    report = action_report(fixture("cp2", 60), 4)
    for module in (report.total.module, report.fixed.module, report.equivariant.module):
        assert module.cap > 50
        assert max(module._diff_cache) <= report.total.window + 1


def test_cone_action_is_a_major_where_the_eager_one_was_not():
    alg = SullivanPresentation([("e", 2), ("f", 2)], {}, cap=8)
    m = FreeDgModule(alg, [("x", 0)], {}, cap=8)
    n = FreeDgModule(alg, [("z", 0), ("y", 1)], {}, cap=8)
    cn = cone(map_from_generator_images(m, n, 1, {"x": [Q(1)]}))
    assert verify_dgmodule(cn.module).ok
    eager = TabulatedDgModule(
        alg, cn.cap, {k: cn.module.basis_labels(k) for k in range(cn.cap + 1)},
        cn.module.d_mats, eager_action_blocks(cn),
    )
    assert not verify_dgmodule(eager).ok


@pytest.mark.parametrize("name", FIXTURES)
def test_action_report_builds_no_cone_action_block(monkeypatch, name):
    """Every cone of a report is free: action_report makes no dgmodule.cone call."""
    calls = []

    def counting(phi, check=True):
        calls.append(phi.name)
        return cone(phi, check)

    monkeypatch.setattr(dgmodule, "cone", counting)
    data = fixture(name, 16)
    action_report(data, 16)
    assert calls == []
    # the count would see a call
    dgmodule.cone(data.e_prime, check=False)
    assert calls == ["e'"]


def test_absent_blocks_share_one_zero_per_shape():
    alg = SullivanPresentation([("a", 3)], {}, cap=8)
    free = FreeDgModule(alg, [("x", 0), ("y", 5)], {}, cap=8)
    module = tabulate(free)
    assert not module.act_mats.get((3, 1)) and not module.d_mats
    assert module.action_matrix(3, 1) is module.action_matrix(3, 1)
    assert module.action_matrix(3, 1).is_zero()
    assert module.differential_matrix(4) is module.differential_matrix(4)
    assert module.differential_matrix(4) != module.differential_matrix(3)
    # a map's absent degrees read the same shared block as the module
    phi = map_from_generator_images(free, module, 0, {})
    assert phi.matrix(4) is module.action_matrix(3, 1) == RatMatrix.zero(0, 0)
