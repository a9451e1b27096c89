"""Minimal models: construction, verification, sections, morphism models."""

import json

import pytest

from dgmodels import cli, minmodel
from dgmodels.cdga import SullivanPresentation
from dgmodels.dgmodule import (
    DgModuleMap,
    FreeDgModule,
    algebra_module,
    betti_table,
    compose,
    cone,
    fiber_cohomology,
    free_cone,
    identity_map,
    induced_map,
    map_from_generator_images,
    maps_equal,
    module_cohomology,
    tabulate,
    verify_dgmodule,
    verify_minimal,
)
from dgmodels.errors import InconclusiveWindowError, PreconditionError, ValidationError
from dgmodels.linalg import Q, RatMatrix, cohomology_count
from dgmodels.minmodel import (
    is_homotopy,
    lift_section,
    minimal_factorization,
    minimal_model,
    model_of_morphism,
    relative_cohomology,
    zero_map,
    zero_module,
)


def is_quis(f):
    """Whether f induces cohomology isomorphisms in all window degrees."""
    hi = min(f.source.cap - 1, f.target.cap - 1 - f.degree, f.window().stop - 2)
    for n in range(hi + 1):
        hs = module_cohomology(f.source, n)
        ht = module_cohomology(f.target, n + f.degree)
        if hs.betti != ht.betti or induced_map(f, hs, ht).rank() != hs.betti:
            return False
    return True


@pytest.fixture(scope="module")
def sphere():
    return SullivanPresentation([("a", 3)], {}, cap=14)


def b_table(top_deg):
    gens, diffs = [], {}
    n = 0
    while True:
        deg = 2 * ((n + 1) // 2) + 1
        if deg > top_deg:
            break
        gens.append((f"b_{n}", deg))
        if n >= 2:
            diffs[f"b_{n}"] = {f"b_{n-2}": "a"}
        n += 1
    return gens, diffs


@pytest.fixture(scope="module")
def s4_cone_model(sphere):
    """Minimal model of the tabulated cone computing H(S^4)."""
    gens, diffs = b_table(13)
    mbf = FreeDgModule(sphere, gens, diffs, cap=13)
    a_mod = algebra_module(sphere, cap=12)
    e_prime = map_from_generator_images(mbf, a_mod, 2, {"b_0": (Q(1),)})
    cn = cone(e_prime)
    x = tabulate(cn.module)
    return x, minimal_model(x, 12)


def test_minimal_model_of_free_rank_one(sphere):
    result = minimal_model(algebra_module(sphere, cap=13), 12)
    assert result.module.gen_count == 1
    assert result.module.gen_degrees == (0,)
    assert result.betti_model.as_list() == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert result.mono_degree == 12
    assert is_quis(result.rho)


def test_identity_factorization_adds_nothing(sphere):
    result = minimal_factorization(identity_map(algebra_module(sphere, cap=13)), 12)
    assert result.module.gen_count == 1
    assert not result.batches


def test_h0_precondition(sphere):
    a_mod = algebra_module(sphere, cap=13)
    with pytest.raises(PreconditionError):
        minimal_factorization(zero_map(a_mod, a_mod, 0), 12)


def test_h0_precondition_names_the_killed_classes():
    """phi = [1 1] on H^0 = Q{m0, m1} -> Q{x0} kills m1 - m0, and the error
    labels that class by its coordinates in the source's H^0 basis."""
    alg = SullivanPresentation([("a", 3)], {}, cap=8)
    src = FreeDgModule(alg, [("m0", 0), ("m1", 0)], {}, cap=8)
    tgt = FreeDgModule(alg, [("x0", 0)], {}, cap=8)
    phi = map_from_generator_images(src, tgt, 0, {"m0": (1,), "m1": (1,)})
    assert phi.matrix(0) == RatMatrix(1, 2, [[1, 1]])
    with pytest.raises(PreconditionError) as err:
        minimal_factorization(phi)
    assert str(err.value) == (
        "H^0 of the morphism is not injective; killed classes: -1*[0] + 1*[1]"
    )


def test_s4_cone_minimal_model(s4_cone_model):
    x, result = s4_cone_model
    assert sorted(result.module.gen_degrees) == [0, 2, 4, 4, 6, 6, 8, 8, 10, 10]
    assert result.betti_model.as_list() == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert result.betti_model.as_list() == result.betti_target.as_list()
    assert verify_minimal(result.module).ok
    assert is_quis(result.rho)


def test_fiber_cohomology_of_s4_model(s4_cone_model, sphere):
    _, result = s4_cone_model
    fib = fiber_cohomology(result.module, top=11)
    assert fib.as_list() == [1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 2, 0]
    # agrees with the free cone built directly from the basic data
    gens, diffs = b_table(13)
    mbf = FreeDgModule(sphere, gens, diffs, cap=13)
    a_mod = algebra_module(sphere, cap=12)
    e_prime = map_from_generator_images(mbf, a_mod, 2, {"b_0": (Q(1),)})
    free = free_cone(e_prime).module
    assert fib.as_list() == fiber_cohomology(free, top=11).as_list()


def test_verify_minimal_stage_derivation(sphere):
    gens, diffs = b_table(13)
    mbf = FreeDgModule(sphere, gens, diffs, cap=13)
    rep = verify_minimal(mbf)
    assert rep.ok
    assert rep.stages["b_0"] == (1, 1)
    assert rep.stages["b_2"] == (3, 1)


def test_verify_minimal_rejects_unit_coefficient(sphere):
    bad = FreeDgModule(sphere, [("u", 1), ("w", 0)], {"w": {"u": "1"}}, cap=6)
    rep = verify_minimal(bad)
    assert not rep.ok
    assert "unit coefficient" in rep.failures[0]


def test_model_of_model_has_equal_generator_counts(s4_cone_model):
    _, result = s4_cone_model
    again = minimal_model(result.module, 11)
    expect = [d for d in sorted(result.module.gen_degrees) if d <= 10]
    assert sorted(again.module.gen_degrees) == expect


def test_lift_section_free_minimal_target(s4_cone_model):
    _, result = s4_cone_model
    again = minimal_model(result.module, 11)
    sigma = lift_section(again.rho)
    assert maps_equal(compose(again.rho, sigma), identity_map(again.rho.target))
    assert sigma.verify().ok


def test_lift_section_retraction_onto_minimal_source(s4_cone_model):
    # rho : N -> X with N free minimal, X tabulated: sigma must satisfy
    # sigma . rho = id_N even where rho is not surjective.
    x, result = s4_cone_model
    sigma = lift_section(result.rho)
    assert sigma.source is x and sigma.target is result.module
    assert maps_equal(compose(sigma, result.rho), identity_map(result.module))
    assert sigma.verify().ok


# The retraction's "no retraction" error, reached two ways.  Over Lambda(e_2),
# X = N tabulated, and rho is the identity but for 2 * id at degree 4: every
# rho_k is invertible, so sigma is forced everywhere, and the chain rows out
# of degree 3 (dw = e z1) and the A-linearity rows from degree 2 do not hold.
# Then N = <z> in degree 2 maps to X = <y, y2> of degrees 0 and 2 by
# rho(z) = e y: rho(N) = e X^0 is no summand, sigma_2 is unknown, and
# sigma_2 rho_2 = id contradicts sigma_2 (e y) = e sigma_0(y) = 0.
def _scaled_identity():
    alg = SullivanPresentation([("e", 2)], {}, cap=8)
    n_mod = FreeDgModule(alg, [("z0", 0), ("z1", 2), ("w", 3)], {"w": {"z1": "e"}}, cap=6)
    x = tabulate(n_mod)
    mats = {k: RatMatrix.identity(x.dim(k)).scale(2 if k == 4 else 1) for k in range(7)}
    return DgModuleMap(n_mod, x, 0, mats)


def _no_summand():
    alg = SullivanPresentation([("e", 2)], {}, cap=8)
    n_mod = FreeDgModule(alg, [("z", 2)], {}, cap=6)
    x = tabulate(FreeDgModule(alg, [("y", 0), ("y2", 2)], {}, cap=6))
    return map_from_generator_images(n_mod, x, 0, {"z": (1, 0)})


@pytest.mark.parametrize("make, solved", [(_scaled_identity, []), (_no_summand, [None])])
def test_retraction_reports_a_target_that_does_not_split(monkeypatch, make, solved):
    rho = make()
    invertible = [rho.matrix(k).inverse() is not None for k in rho.window()]
    assert all(invertible) if make is _scaled_identity else not all(invertible)
    solutions, solve = [], RatMatrix.solve

    def recording(m, b):
        solutions.append(solve(m, b))
        return solutions[-1]

    monkeypatch.setattr(RatMatrix, "solve", recording)
    with pytest.raises(PreconditionError) as caught:
        lift_section(rho)
    # a substituted row fails first, or the solve of the unknowns finds none
    assert solutions == solved
    assert str(caught.value) == (
        "no retraction onto the minimal module: the target does not split "
        "off the image as an A-module summand"
    )


def test_lift_section_needs_minimal_end(sphere):
    a_mod = algebra_module(sphere, cap=10)
    t = tabulate(a_mod)
    with pytest.raises(ValidationError):
        lift_section(identity_map(t))


def test_model_of_morphism_and_cone_quis(sphere):
    gens, diffs = b_table(9)
    mbf = FreeDgModule(sphere, gens, diffs, cap=13)
    a_mod = algebra_module(sphere, cap=14)
    e = map_from_generator_images(mbf, a_mod, 2, {"b_0": (Q(1),)})
    id_m = identity_map(mbf)
    id_n = identity_map(a_mod)
    phi_p, h = model_of_morphism(e, id_m, id_n)
    assert is_homotopy(h, compose(e, id_m), compose(id_n, phi_p))
    # the five lemma then makes the two cones quasi-isomorphic
    top = cone(phi_p).cap - 1
    assert betti_table(cone(phi_p).module, top) == betti_table(cone(e).module, top)


def test_relative_cohomology_of_zero_map(sphere, s4_cone_model):
    x, _ = s4_cone_model
    z = zero_module(sphere, cap=13)
    rho = zero_map(z, x, 0)
    dims = {k: z.dim(k) + x.dim(k - 1) for k in (4, 5, 6)}
    mats = {k: minmodel._relative_d(rho, k) for k in (4, 5)}
    betti = cohomology_count(dims, mats, 5)
    assert betti == module_cohomology(x, 4).betti
    t_mat, x_mat = relative_cohomology(rho, 4, dims, mats, betti)
    assert t_mat.cols == x_mat.cols == betti


# Over Lambda(t), |t| = 1, the free module on z and w in degree 0 with dw = t.z,
# tabulated: its minimal model adjoins two batches at stage 0, (0, 1) and (0, 2).
TWO_BATCH_DOC = {
    "algebra": {"generators": [["t", 1]], "cap": 4},
    "modules": {
        "X": {
            "tabulated": True,
            "cap": 4,
            "labels": {"0": ["z", "w"], "1": ["t*z", "t*w"]},
            "differentials": {"0": [["0", "1"], ["0", "0"]]},
            "action": {"1,0": [["1", "0"], ["0", "1"]]},
        }
    },
}


def test_ks_batch_cap_is_inconclusive(monkeypatch, tmp_path, capsys):
    alg = SullivanPresentation([("t", 1)], {}, cap=4)
    x = tabulate(FreeDgModule(alg, [("z", 0), ("w", 0)], {"w": {"z": "t"}}, cap=4))
    assert [b[:2] for b in minimal_model(x).batches] == [(0, 1), (0, 2)]
    monkeypatch.setattr(minmodel, "MAX_BATCHES", 1)
    message = "stage 0 still has 1 obstruction classes after 1 batches"
    with pytest.raises(InconclusiveWindowError, match=message):
        minimal_model(x)
    doc = tmp_path / "two_batches.json"
    doc.write_text(json.dumps(TWO_BATCH_DOC))
    capsys.readouterr()
    assert cli.main(["minmodel", "--input", str(doc)]) == InconclusiveWindowError.exit_code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"inconclusive: {message}"]
