"""Circle-action analyses on the shipped fixtures, against hand-computed values."""


import pytest

from dgmodels.action import BasicData
from dgmodels.cdga import SullivanPresentation
from dgmodels.circle import (
    action_report,
    almost_free_model,
    dimc_relation,
    equivariant_les,
    equivariant_model,
    extension_of_scalars_check,
    formality_check,
    localization_check,
    model_of_fixed_set,
    model_of_total_space,
    naive_structure,
    poincare_relations,
    semifree_s3_models,
    shared_basis_check,
    smith_gysin_inequality,
)
from dgmodels.dgmodule import FreeDgModule, algebra_module, map_from_generator_images
from dgmodels.fixtures import fixture
from dgmodels.linalg import Q


@pytest.fixture(scope="module")
def s4():
    return fixture("s4_hopf", 12)


@pytest.fixture(scope="module")
def cp2():
    return fixture("cp2", 12)


@pytest.fixture(scope="module")
def s4_total(s4):
    return model_of_total_space(s4, 12)


@pytest.fixture(scope="module")
def s4_fixed(s4):
    return model_of_fixed_set(s4, 12)


# ---- total space ----------------------------------------------------------------


def test_s4_total_generator_ladder(s4, s4_total):
    free = s4_total.module
    assert free.gen_names[:11] == ("1",) + tuple(f"c{i}" for i in range(10))
    assert free.gen_degrees[1:11] == (2, 4, 4, 6, 6, 8, 8, 10, 10, 12)
    a_poly = s4.algebra.generator_poly("a")
    idx = {n: i for i, n in enumerate(free.gen_names)}
    assert free.gen_diffs[idx["c0"]] == {0: a_poly}
    assert free.gen_diffs[idx["c1"]] == {}
    for n in range(8):
        assert free.gen_diffs[idx[f"c{n + 2}"]] == {idx[f"c{n}"]: a_poly}


def test_s4_total_cohomology_is_sphere(s4_total):
    assert s4_total.window == 12
    assert [s4_total.betti_model.get(n) for n in range(12)] == [
        1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
    ]
    assert s4_total.betti_model.get(12) == 0


# ---- fixed-point set ------------------------------------------------------------


def test_s4_fixed_generator_ladder(s4, s4_fixed):
    gfree = s4_fixed.module
    assert gfree.gen_degrees[1:11] == (0, 2, 2, 4, 4, 6, 6, 8, 8, 10)
    a_poly = s4.algebra.generator_poly("a")
    gidx = {n: i for i, n in enumerate(gfree.gen_names)}
    assert gfree.gen_diffs[gidx["g0"]] == {}
    assert gfree.gen_diffs[gidx["g1"]] == {0: a_poly}
    assert gfree.gen_diffs[gidx["g2"]] == {gidx["g0"]: a_poly}


def test_s4_fixed_cohomology_two_points(s4_fixed):
    assert [s4_fixed.betti_model.get(n) for n in range(12)] == [
        2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ]


# ---- shared basis and equivariant model -----------------------------------------


def test_s4_shared_basis(s4):
    shared = shared_basis_check(s4, 12)
    assert shared.ok
    assert shared.shift == 2


def test_s4_equivariant_model_differential(s4):
    eq = equivariant_model(s4, 12)
    assert eq.euler_name == "e"
    eidx = {n: i for i, n in enumerate(eq.module.gen_names)}
    # over Lambda(a, e): dc1 = e*a, dc0 = a, dc2 = a*c0
    assert eq.module.gen_diffs[eidx["c1"]] == {0: {(1, 1): Q(1)}}
    assert eq.module.gen_diffs[eidx["c0"]] == {0: {(1, 0): Q(1)}}
    assert eq.module.gen_diffs[eidx["c2"]] == {eidx["c0"]: {(1, 0): Q(1)}}


def test_s4_equivariant_les_exact(s4):
    les = equivariant_les(s4, 12)
    assert les.ok
    assert les.table.ok


def test_s4_extension_of_scalars(s4):
    assert extension_of_scalars_check(s4, 12).ok


# ---- Poincare identities --------------------------------------------------------


def test_s4_poincare_relations(s4):
    poi = poincare_relations(s4, 12)
    assert poi.ok
    assert poi.through >= 10
    assert [poi.total_fiber.coeff(n) for n in range(11)] == [
        1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 2,
    ]
    assert [poi.fixed_fiber.coeff(n) for n in range(11)] == [
        2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2,
    ]


# ---- equivariant formality ------------------------------------------------------


def test_s4_is_equivariantly_formal(s4):
    form = formality_check(s4, 12)
    assert form.formal
    assert form.window >= 10
    assert form.kernel_dims.get(3) == 1
    assert any(s.degree == 3 for s in form.strings)


def two_s4_ladders(window):
    """The s4_hopf ladder twice over Lambda(a, b): p_n on a, q_n on b.  Below
    degree 6 the ladders do not meet, so each gives s4_hopf's degree-3
    string; q* there has two-dimensional blocks, which no fixture has."""
    alg = SullivanPresentation([("a", 3), ("b", 3)], {}, cap=window + 2)
    gens, diffs = [], {}
    for x, mono in (("p", (1, 0)), ("q", (0, 1))):
        for n in range(window + 1):
            if 2 * ((n + 1) // 2) + 1 <= window + 1:
                gens.append((f"{x}{n}", 2 * ((n + 1) // 2) + 1))
                if n >= 2:
                    diffs[f"{x}{n}"] = {f"{x}{n - 2}": {mono: 1}}
    m = FreeDgModule(alg, gens, diffs, cap=window + 1)
    a_mod = algebra_module(alg, cap=window + 2)
    a, b = (alg.poly_vector(alg.generator_poly(g), 3) for g in "ab")
    e = map_from_generator_images(m, a_mod, 2, {"p0": a, "q0": b}, name="e'")
    i = map_from_generator_images(m, a_mod, 0, {"p1": a, "q1": b}, name="i'")
    return BasicData(alg, m, i, e, fixed_components=2, name="two_s4_ladders")


def test_two_s4_ladders_give_one_s4_string_each(s4):
    data = two_s4_ladders(8)
    assert data.validate().ok
    form = formality_check(data, 8)
    assert form.formal
    assert [s.steps for s in formality_check(s4, 8).strings] == [("b1", "-b0")]
    assert [s.steps for s in form.strings if s.degree == 3] == [("p1", "-p0"), ("q1", "-q0")]


def test_nonformal_counterexample_has_witness():
    nf = fixture("nonformal", 12)
    assert nf.validate().ok
    form = formality_check(nf, 12)
    assert not form.formal
    assert form.witness_degree == 2
    assert form.witness_label == "b"


# ---- localization ---------------------------------------------------------------


def test_s4_localization_bijective(s4):
    loc = localization_check(s4, 12)
    assert loc.verdict == "bijective"
    assert loc.exponent == 1
    assert [loc.h_dims.get(n) for n in range(5)] == [0, 1, 0, 1, 0]
    assert loc.basis_checked == 2


def test_cp2_localization_bijective_with_nilpotent_w(cp2):
    # W: m1 -> m3 is nonzero on cohomology and squares to zero
    m = cp2.relative_model
    m3 = [Q(0)] * m.dim(3)
    m3[m.basis_index(3)[(m.gen_index("m3"), m.algebra.unit_mono())]] = Q(1)
    w = map_from_generator_images(m, m, 2, {"m1": m3}, name="W")
    data = cp2._replace(euler_self_map=w)
    assert data.validate().ok
    loc = localization_check(data, 12)
    assert loc.verdict == "bijective"
    assert loc.exponent == 2
    assert loc.basis_checked == 2


# ---- dimc -----------------------------------------------------------------------


def test_s4_dimc_mismatch(s4):
    dim = dimc_relation(s4, 12)
    assert not dim.applicable
    assert dim.case == "mismatch"
    assert (dim.dimc_total, dim.dimc_fixed) == (4, 0)


def test_cp2_models_and_dimc(cp2):
    assert cp2.validate().ok
    total = model_of_total_space(cp2, 12)
    assert [total.betti_model.get(n) for n in range(5)] == [1, 0, 1, 0, 1]
    fixed = model_of_fixed_set(cp2, 12)
    assert [fixed.betti_model.get(n) for n in range(3)] == [2, 0, 1]
    dim = dimc_relation(cp2, 12)
    assert dim.applicable
    assert dim.case == "plus_two"
    assert (dim.dimc_total, dim.dimc_fixed) == (4, 2)


# ---- naive product structure ----------------------------------------------------


def test_cp2_naive_structure_is_wedge(cp2):
    nv = naive_structure(cp2, 12)
    assert nv.ok
    assert nv.positive_products_zero
    assert nv.wedge_of_spheres
    assert nv.sphere_degrees == (2, 4)
    assert all(not any(e.coords) for e in nv.ring)


# ---- almost-free actions --------------------------------------------------------


def test_almost_free_hopf_model():
    af = fixture("almost_free_hopf", 12)
    assert af.validate().ok
    afr = almost_free_model(af, 12)
    assert afr.ok
    assert afr.euler_poly == "u"
    assert afr.generator_name == "x"
    assert [afr.betti.get(n) for n in range(6)] == [1, 0, 0, 1, 0, 0]
    total = model_of_total_space(af, 12)
    assert [total.betti_model.get(n) for n in range(6)] == [1, 0, 0, 1, 0, 0]
    assert localization_check(af, 12).verdict == "bijective"


def test_almost_free_chain_map_failure_names_the_generator(monkeypatch):
    # with dx = 2e in A(x)Lambda(x) but dc = e in the cone, mu(a.1 + b.c) =
    # a + b x is no chain map, and the section says so at c's generator
    import dgmodels.circle as circle

    real = circle._generator_image_poly

    def doubled(data, phi, j):
        return {m: 2 * c for m, c in real(data, phi, j).items()}

    monkeypatch.setattr(circle, "_generator_image_poly", doubled)
    afr = almost_free_model(fixture("almost_free_hopf", 12), 12)
    assert afr.failures == ("chain map: chain condition fails at generator c0",)
    assert not afr.ok


# ---- Smith-Gysin ----------------------------------------------------------------


def test_flow_s4_smith_gysin_all_radii():
    fl = fixture("flow_s4", 12)
    assert fl.validate().ok
    expected = {0: (0, 2, 2), 1: (0, 0, 0), 2: (1, 0, 1)}
    for r, sides in expected.items():
        sg = smith_gysin_inequality(fl, 12, r)
        assert sg.verdict == "holds"
        assert (sg.relative_term, sg.fixed_sum, sg.total_sum) == sides


# ---- semifree circle actions on S^3-like data -----------------------------------


def test_semifree_suspension_models():
    sf = fixture("semifree_suspension", 12)
    assert sf.validate().ok
    total, fixed = semifree_s3_models(sf, 12)
    assert [total.betti_model.get(n) for n in range(12)] == [
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
    ]
    assert [fixed.betti_model.get(n) for n in range(4)] == [1, 0, 1, 0]
    sh = shared_basis_check(sf, 12)
    assert sh.ok
    assert sh.shift == 4


# ---- assembled reports ----------------------------------------------------------


def test_s4_action_report_sections(s4):
    ar = action_report(s4, 12)
    assert all(
        x is not None
        for x in (
            ar.fixed,
            ar.equivariant,
            ar.les,
            ar.shared_basis,
            ar.scalars,
            ar.poincare,
            ar.formality,
            ar.dimc,
        )
    )
    assert ar.naive is None
    assert ar.smith_gysin == ()
    # the README quick start
    assert ar.betti_total.as_list()[:6] == [1, 0, 0, 0, 1, 0]
    assert ar.betti_fixed.as_list()[:3] == [2, 0, 0]
    assert ar.localization.verdict == "bijective"
    assert ar.betti_borel is ar.equivariant.betti


def test_variant_reports_pick_matching_sections():
    af = fixture("almost_free_hopf", 12)
    ar_af = action_report(af, 12)
    assert ar_af.almost_free is not None
    assert ar_af.fixed is None and ar_af.betti_fixed is None and ar_af.betti_borel is None
    fl = fixture("flow_s4", 12)
    ar_fl = action_report(fl, 12)
    assert len(ar_fl.smith_gysin) == 3
