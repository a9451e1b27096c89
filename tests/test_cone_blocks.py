"""A cone's action blocks are built when first read.

The blocks are pinned against the eager `RatMatrix.block` assembly that
`cone` used before, copied here; an `action_report` is shown to read none
of them; and modules and maps share one zero block per shape.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmodels import circle
from dgmodels.cdga import SullivanPresentation
from dgmodels.circle import action_report
from dgmodels.dgmodule import (
    FreeDgModule,
    LazyBlocks,
    TabulatedDgModule,
    cone,
    free_cone,
    map_from_generator_images,
    modules_equal,
    tabulate,
    verify_dgmodule,
)
from dgmodels.errors import ValidationError
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.io import module_json
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
            out[(i, n)] = RatMatrix.block(
                [
                    [
                        n_mod.action_matrix(i, n),
                        RatMatrix.zero(cn.n_dims[i + n], da * cn.m_dims[n]),
                    ],
                    [
                        RatMatrix.zero(cn.m_dims[i + n], da * cn.n_dims[n]),
                        m_mod.action_matrix(i, n - p + 1).scale(tw),
                    ],
                ]
            )
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
    assert set(cn.module.act_mats) == set(eager)
    for (i, n), old in eager.items():
        da, nn, mn = algebra.dim(i), cn.n_dims[n], cn.m_dims[n]
        lazy = cn.module.action_matrix(i, n)
        assert lazy == a_major(old, da, nn, mn)
        if da <= 1 or not nn or not mn:
            assert lazy == old


@pytest.mark.parametrize("window", [12, 20])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_cone_blocks_match_the_eager_assembly(name, window):
    data = fixture(name, window)
    cones = [free_cone(data.e_prime, check=False)[2]]
    if not data.fixed_set_empty:
        cones.append(free_cone(data.i_prime, check=False)[2])
        cones.append(circle._ActionPipeline(data, window).borel[1])
    for cn in cones:
        assert_blocks_match_eager(cn)


ALGEBRAS = [
    SullivanPresentation([("a", 3)], {}, cap=10),
    SullivanPresentation([("e", 2)], {}, cap=10),
    SullivanPresentation([("e", 2), ("f", 2)], {}, cap=10),
]


@st.composite
def cones(draw):
    """The cone of a map of degree p from images of the source generators
    into a module with generators in degrees 0..3, both free."""
    alg = draw(st.sampled_from(ALGEBRAS))
    p = draw(st.integers(1, 3))
    src_degs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tgt_degs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    src = FreeDgModule(alg, [(f"x{i}", d) for i, d in enumerate(src_degs)], {}, cap=7)
    tgt = FreeDgModule(alg, [(f"y{i}", d) for i, d in enumerate(tgt_degs)], {}, cap=8)
    images = {
        name: [draw(st.sampled_from([Q(0), Q(1), Q(-2)])) for _ in range(tgt.dim(deg + p))]
        for name, deg in zip(src.gen_names, src.gen_degrees)
        if deg + p <= tgt.cap
    }
    return cone(map_from_generator_images(src, tgt, p, images), check=False)


@settings(max_examples=60, deadline=None)
@given(cones())
def test_random_cone_blocks_match_the_eager_assembly(cn):
    assert_blocks_match_eager(cn)
    assert verify_dgmodule(cn.module).ok


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


def test_blocks_are_built_once_and_every_reader_sees_them():
    data = fixture("nonformal", 12)
    cn = circle._ActionPipeline(data, 12).borel[1]
    blocks = cn.module.act_mats
    assert isinstance(blocks, LazyBlocks) and not blocks._built
    first = cn.module.action_matrix(2, 3)
    assert cn.module.action_matrix(2, 3) is first and len(blocks._built) == 1
    assert modules_equal(cn.module, tabulate(cn.module))
    assert len(blocks._built) == len(blocks)
    written = module_json(cn.module)["action"]
    assert set(written) == {f"{i},{k}" for (i, k), m in blocks.items() if not m.is_zero()}


def test_block_shape_is_checked_when_read():
    alg = SullivanPresentation([("e", 2)], {}, cap=4)
    labels = {0: ["x"], 2: ["ex"], 4: ["eex"]}
    module = TabulatedDgModule(alg, 4, labels, {}, lambda key: RatMatrix.zero(1, 2))
    assert module.action_matrix(0, 0) == RatMatrix.identity(1)
    with pytest.raises(ValidationError, match="shape"):
        module.action_matrix(2, 0)


def test_blocks_hold_no_reference_to_their_module():
    data = fixture("s4_hopf", 12)
    module = free_cone(data.e_prime, check=False)[2].module
    seen, frontier = {id(module.act_mats)}, [module.act_mats]
    for _ in range(4):
        frontier = [
            obj
            for parent in frontier
            for obj in gc.get_referents(parent)
            if id(obj) not in seen and not seen.add(id(obj))
        ]
        assert all(obj is not module for obj in frontier)


@pytest.mark.parametrize("name", FIXTURES)
def test_action_report_builds_no_cone_action_block(monkeypatch, name):
    reads = []
    getitem = LazyBlocks.__getitem__

    def counting(self, key):
        reads.append(key)
        return getitem(self, key)

    monkeypatch.setattr(LazyBlocks, "__getitem__", counting)
    data = fixture(name, 16)
    report = action_report(data, 16)
    assert reads == []
    # the count would see a read: the total-space cone's module is rho's target
    report.total.rho.target.action_matrix(1 if data.algebra.dim(1) else 2, 0)
    assert reads


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
