"""A-dg modules: free tables, tabulated complexes, maps, cones, shifts."""

from collections import Counter

import pytest

from dgmodels import action
from dgmodels.cdga import SullivanPresentation, trivial_algebra
from dgmodels.circle import action_report
from dgmodels.dgmodule import (
    DgModuleMap,
    FreeDgModule,
    TabulatedDgModule,
    algebra_module,
    betti_table,
    certify_free_map,
    compose,
    cone,
    cone_les,
    free_cone,
    identity_map,
    is_homotopy,
    map_from_generator_images,
    maps_equal,
    module_cohomology,
    modules_equal,
    shift,
    tabulate,
    verify_dgmodule,
)
from dgmodels.errors import DegreeWindowError, ValidationError
from dgmodels.fixtures import fixture
from dgmodels.linalg import Q, RatMatrix, vec
from dgmodels.minmodel import zero_map, zero_module


def odd_sphere(cap=14):
    return SullivanPresentation([("a", 3)], {}, cap=cap)


def s4_relative(alg, top_deg=13, cap=13):
    gens, diffs = [], {}
    n = 0
    while True:
        deg = 2 * ((n + 1) // 2) + 1
        if deg > top_deg:
            break
        gens.append((f"b{n}", deg))
        if n >= 2:
            diffs[f"b{n}"] = {f"b{n-2}": "a"}
        n += 1
    return FreeDgModule(alg, gens, diffs, cap=cap)


# ---- construction and validation ------------------------------------------------


def test_free_module_validates_degrees_and_names():
    alg = odd_sphere()
    with pytest.raises(ValidationError):
        FreeDgModule(alg, [("x", -1)], {}, cap=8)
    with pytest.raises(ValidationError):
        FreeDgModule(alg, [("x", 2), ("x", 4)], {}, cap=8)
    with pytest.raises(ValidationError):
        FreeDgModule(alg, [("x", 2)], {"x": {"x": "a"}}, cap=8)  # wrong coeff degree
    with pytest.raises(ValidationError):
        FreeDgModule(alg, [("x", 2)], {"y": {"x": "1"}}, cap=8)  # unknown generator


def test_free_module_checks_d_squared():
    alg = odd_sphere()
    # dz = x with dx nonzero would give d(dz) != 0
    with pytest.raises(ValidationError):
        FreeDgModule(
            alg,
            [("w", 1), ("x", 5), ("z", 4)],
            {"x": {"w": "a"}, "z": {"x": "1"}},
            cap=10,
        )


def test_basis_counts_match_algebra_tensor_generators():
    alg = odd_sphere()
    m = FreeDgModule(alg, [("x", 1), ("y", 4)], {}, cap=8)
    # degree 4: a*x and y, degree 7: a*y
    assert m.dim(4) == 2
    assert m.dim(7) == 1
    assert m.basis_labels(4) == ("a*x", "y")


def test_differential_matrices_square_to_zero():
    alg = odd_sphere()
    m = s4_relative(alg)
    for k in range(m.cap - 1):
        assert (m.differential_matrix(k + 1) * m.differential_matrix(k)).is_zero()
    assert verify_dgmodule(m).ok


def test_action_respects_koszul_sign():
    alg = odd_sphere()
    m = FreeDgModule(alg, [("x", 1)], {}, cap=8)
    # a * (a * x) = a^2 x = 0 for odd a
    act = m.action_matrix(3, 4)
    assert act.is_zero()


def test_tabulate_round_trip_modules_equal():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    t = tabulate(m)
    assert modules_equal(m, t)
    assert verify_dgmodule(t).ok
    assert betti_table(m).as_list() == betti_table(t).as_list()


def test_cohomology_of_s4_relative_model():
    alg = odd_sphere()
    m = s4_relative(alg)
    dims = [module_cohomology(m, n).betti for n in range(12)]
    assert dims == [0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]


# ---- maps -----------------------------------------------------------------------


def test_map_from_generator_images_is_chain_map():
    alg = odd_sphere()
    m = s4_relative(alg)
    a_mod = algebra_module(alg, cap=12)
    e = map_from_generator_images(m, a_mod, 2, {"b0": (Q(1),)})
    assert e.verify().ok
    i = map_from_generator_images(m, a_mod, 0, {"b1": vec([1])})
    assert i.verify().ok


def test_map_koszul_sign_for_odd_degree_maps():
    # phi(a m) = (-1)^{|a| p} a phi(m) for a degree-p morphism
    alg = odd_sphere()
    m = FreeDgModule(alg, [("x", 1)], {}, cap=10)
    n = FreeDgModule(alg, [("y", 0)], {}, cap=10)
    phi = map_from_generator_images(m, n, -1, {"x": (Q(1),)})
    # at degree 4 the source basis is a*x, the target basis at 3 is a*y
    assert phi.matrix(4).data == ((Q(-1),),)


def test_map_shape_validation_and_window():
    alg = odd_sphere()
    m = FreeDgModule(alg, [("x", 1)], {}, cap=10)
    with pytest.raises(ValidationError):
        map_from_generator_images(m, m, 0, {"x": (Q(1), Q(2))})
    f = identity_map(m)
    assert f.window() == range(0, 11)
    with pytest.raises(DegreeWindowError):
        f.matrix(11)


def test_tabulated_block_shape_is_checked_on_construction():
    alg = SullivanPresentation([("e", 2)], {}, cap=4)
    labels = {0: ["x"], 2: ["ex"], 4: ["eex"]}
    with pytest.raises(ValidationError, match="wrong shape"):
        TabulatedDgModule(alg, 4, labels, {}, {(2, 0): RatMatrix.zero(1, 2)})
    module = TabulatedDgModule(alg, 4, labels, {}, {(2, 0): RatMatrix.identity(1)})
    assert module.action_matrix(0, 0) == RatMatrix.identity(1)


def test_compose_scale_equal():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    ident = identity_map(m)
    assert maps_equal(compose(ident, ident), ident)
    doubled = ident.scale(2)
    assert not maps_equal(doubled, ident)
    assert maps_equal(doubled.scale(Q(1, 2)), ident)


def test_zero_map_and_module():
    alg = odd_sphere()
    z = zero_module(alg, cap=6)
    assert all(z.dim(k) == 0 for k in range(7))
    m = s4_relative(alg, top_deg=5, cap=8)
    f = zero_map(z, m, 0)
    assert f.verify().ok


# ---- cones ----------------------------------------------------------------------


def test_cone_les_exact_for_s4_euler_map():
    alg = odd_sphere()
    m = s4_relative(alg)
    a_mod = algebra_module(alg, cap=14)
    e = map_from_generator_images(m, a_mod, 2, {"b0": (Q(1),)})
    cn = cone(e)
    table = cone_les(cn)
    assert table.ok
    assert [module_cohomology(cn.module, n).betti for n in range(12)] == [
        1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
    ]


def test_free_cone_agrees_with_the_tabulated_cone():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    a_mod = algebra_module(alg, cap=12)
    e = map_from_generator_images(m, a_mod, 2, {"b0": (Q(1),)})
    free, tab = free_cone(e), cone(e)
    assert isinstance(free.module, FreeDgModule) and free.cap == tab.cap
    assert [free.module.dim(k) for k in range(free.cap + 1)] == [
        tab.module.dim(k) for k in range(tab.cap + 1)
    ]
    assert betti_table(free.module) == betti_table(tab.module)
    assert cone_les(free).rows == cone_les(tab).rows
    assert free.inclusion.verify().ok
    assert certify_free_map(free.projection).ok


def s4_euler_cone(build):
    alg = odd_sphere()
    m = s4_relative(alg)
    a_mod = algebra_module(alg, cap=14)
    return build(map_from_generator_images(m, a_mod, 2, {"b0": (Q(1),)}))


@pytest.mark.parametrize("build", [cone, free_cone], ids=["tabulated", "free"])
def test_cone_les_reads_no_cohomology_coordinates(monkeypatch, build):
    # exactness is read off ranks and four chain-level identities, so no
    # group is coordinatized and no representative is built
    import dgmodels.dgmodule as dgm

    cn = s4_euler_cone(build)
    calls = Counter()

    def counted(name):
        real = getattr(dgm, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in ("induced_map", "module_cohomology"):
        monkeypatch.setattr(dgm, name, counted(name))
    table = cone_les(cn)
    assert table.ok and table.top == 12
    assert calls == Counter()
    # the counters would see a call
    dgm.module_cohomology(cn.module, 0)
    assert calls == Counter(module_cohomology=1)


def test_action_report_leaves_the_borel_cone_uncoordinatized():
    report = action_report(fixture("s4_hopf", 12), 12)
    assert report.les.ok
    assert report.equivariant.module._coh_cache == {}


def with_matrices(cn, d_mats=(), incl=(), proj=()):
    """cn on a tabulated copy of its module, with the differential, inclusion
    and projection matrices given per degree put in place of its own."""
    mod = tabulate(cn.module)
    mod = TabulatedDgModule(
        mod.algebra, mod.cap, mod.labels, {**mod.d_mats, **dict(d_mats)}, mod.act_mats
    )
    n_mod, m_mod, p = cn.phi.target, cn.phi.source, cn.degree
    degrees = range(cn.cap + 1)
    incl = {**{n: cn.inclusion.matrix(n) for n in degrees}, **dict(incl)}
    proj = {**{n: cn.projection.matrix(n) for n in degrees}, **dict(proj)}
    return cn._replace(
        module=mod,
        inclusion=DgModuleMap(n_mod, mod, 0, incl),
        projection=DgModuleMap(mod, m_mod, 1 - p, proj),
    )


def sign_flipped(cn, n):
    """The projection's sign flipped in degree n: pi is no longer a chain map,
    but no rank changes, so only the identities can tell."""
    return with_matrices(cn, proj={n: cn.projection.matrix(n).scale(-1)})


def phi_dropped(cn, n):
    """d_C without its phi block out of degree n (where d^2 stays 0 below)."""
    d = cn.module.differential_matrix(n)
    nn, top = cn.n_dims[n], cn.n_dims[n + 1]
    rows = [{c: x for c, x in row.items() if c < nn} for row in d._nz[:top]]
    return with_matrices(cn, d_mats={n: RatMatrix._make(d.rows, d.cols, rows + list(d._nz[top:]))})


def inclusion_leaks(cn, n):
    """An inclusion whose degree-n part also lands on the first M basis vector:
    not a chain map where phi or d_M moves that vector, and pi i != 0."""
    nn, mn = cn.n_dims[n], cn.m_dims[n]
    rows = [{r: 1} for r in range(nn)] + [{c: 1 for c in range(nn)}] + [{}] * (mn - 1)
    return with_matrices(cn, incl={n: RatMatrix._make(nn + mn, nn, rows)})


def s4_borel_cone(build):
    return build(action._ActionPipeline(fixture("s4_hopf", 10), 10).borel[1].phi, check=False)


# On the s4 Euler cone N = A has no differential and N^n, M^(n-1) never meet
# in one degree, so every map N -> C of the right shapes is a chain map; the
# leaking inclusion is built on the s4 Borel cone instead.
@pytest.mark.parametrize(
    "make_cone, mutate, n, node",
    [
        (s4_euler_cone, sign_flipped, 2, "not exact at H^1(source)"),
        (s4_euler_cone, phi_dropped, 2, "not exact at H^1(source)"),
        (s4_borel_cone, sign_flipped, 4, "not exact at H^3(source)"),
        (s4_borel_cone, phi_dropped, 4, "not exact at H^3(source)"),
        (s4_borel_cone, inclusion_leaks, 4, "not exact at H^4(cone)"),
    ],
    ids=["euler-sign", "euler-phi", "borel-sign", "borel-phi", "borel-inclusion"],
)
@pytest.mark.parametrize("build", [cone, free_cone], ids=["tabulated", "free"])
def test_broken_cones_are_not_exact(make_cone, mutate, n, node, build):
    cn = make_cone(build)
    assert cone_les(cn).ok
    table = cone_les(mutate(cn, n))
    assert not table.ok and node in table.failures, table.failures


def test_cone_of_identity_is_acyclic():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=7, cap=10)
    cn = cone(identity_map(m))
    for n in range(9):
        assert module_cohomology(cn.module, n).betti == 0
    assert cone_les(cn).ok


def test_cone_les_degree_bookkeeping_for_degree_two_map():
    # H^n(N) -> H^n(cone) -> H^{n+1-p}(M) -> H^{n+1}(N) for p = 2
    alg = odd_sphere()
    m = s4_relative(alg)
    a_mod = algebra_module(alg, cap=14)
    e = map_from_generator_images(m, a_mod, 2, {"b0": (Q(1),)})
    table = cone_les(cone(e))
    by_n = {row.n: row for row in table.rows}
    assert by_n[4].dim_h_source == module_cohomology(m, 3).betti
    assert by_n[4].dim_h_target == module_cohomology(a_mod, 4).betti


# ---- shift ----------------------------------------------------------------------


def test_shift_round_trip_bit_identical():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    for p in (1, 2, 3):
        back = shift(shift(m, p), -p)
        assert modules_equal(m, back)
        t = tabulate(m)
        assert modules_equal(t, shift(shift(t, p), -p))


def test_shift_signs_keep_d_squared_zero_and_methods_verify():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    s = shift(m, 1)
    assert verify_dgmodule(s).ok
    assert [s.dim(k) for k in range(1, 6)] == [m.dim(k - 1) for k in range(1, 6)]
    with pytest.raises(DegreeWindowError):
        shift(m, -2)  # degree-1 generators would fall below zero


def test_shift_moves_cohomology():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    s = shift(m, 2)
    for n in range(3, 9):
        assert module_cohomology(s, n).betti == module_cohomology(m, n - 2).betti


# ---- homotopies -------------------------------------------------------------


def test_is_homotopy_accepts_exact_difference():
    alg = odd_sphere()
    m = s4_relative(alg, top_deg=9)
    zero = zero_map(m, m, 0)
    ident = identity_map(m)
    # h = 0 shows phi ~ phi
    h = zero_map(m, m, -1)
    assert is_homotopy(h, ident, ident)
    assert not is_homotopy(h, ident, zero)


def test_trivial_algebra_module_is_plain_complex():
    alg = trivial_algebra(8)
    m = FreeDgModule(alg, [("x", 0), ("y", 1)], {"y": {"x": "0"}}, cap=8)
    assert m.dim(0) == 1 and m.dim(1) == 1
    assert module_cohomology(m, 0).betti == 1
    assert module_cohomology(m, 1).betti == 1
