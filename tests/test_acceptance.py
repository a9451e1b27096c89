"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every check runs in exact rational arithmetic and each criterion stays
under a ten-second budget at the default degree window.  Run with
``pytest -s`` (or execute this file directly) to see the summary lines.
"""

import random
import time

from fractions import Fraction as Q

from dgmodels.cdga import SullivanPresentation
from dgmodels.circle import (
    almost_free_model,
    equivariant_model,
    extension_of_scalars_check,
    formality_check,
    localization_check,
    model_of_fixed_set,
    model_of_total_space,
    naive_structure,
    poincare_relations,
    smith_gysin_inequality,
)
from dgmodels.dgmodule import (
    DgModuleMap,
    FreeDgModule,
    compose,
    cone,
    cone_les,
    identity_map,
    map_from_generator_images,
    maps_equal,
    module_cohomology,
    modules_equal,
    shift,
    tabulate,
)
from dgmodels.errors import ValidationError
from dgmodels.fixtures import fixture
from dgmodels.minmodel import is_homotopy, lift_section, minimal_model, model_of_morphism

BUDGET = 10.0


def check(bad, cond, msg):
    if not cond:
        bad.append(msg)


def finish(cid, desc, bad, t0):
    elapsed = time.monotonic() - t0
    if elapsed >= BUDGET:
        bad = list(bad) + [f"exceeded the {BUDGET:.0f}s budget ({elapsed:.2f}s)"]
    print(f"{'PASS' if not bad else 'FAIL'} {cid}: {desc} ({elapsed:.2f}s)")
    assert not bad, f"{cid}: " + "; ".join(str(b) for b in bad[:6])


# ---- C1: total-space model ------------------------------------------------------


def test_c1_total_space_model():
    t0 = time.monotonic()
    bad = []
    s4 = fixture("s4_hopf", 12)
    total = model_of_total_space(s4, 12)
    free = total.module
    check(bad, free.gen_names[:11] == ("1",) + tuple(f"c{i}" for i in range(10)),
          f"generator names {free.gen_names[:11]}")
    check(bad, free.gen_degrees[1:11] == (2, 4, 4, 6, 6, 8, 8, 10, 10, 12),
          f"generator degrees {free.gen_degrees[1:11]}")
    a_poly = s4.algebra.generator_poly("a")
    idx = {n: i for i, n in enumerate(free.gen_names)}
    check(bad, free.gen_diffs[idx["c0"]] == {0: a_poly}, "dc0 != a")
    check(bad, free.gen_diffs[idx["c1"]] == {}, "dc1 != 0")
    for n in range(8):
        check(bad, free.gen_diffs[idx[f"c{n + 2}"]] == {idx[f"c{n}"]: a_poly},
              f"dc{n + 2} != a*c{n}")
    betti = [total.betti_model.get(n) for n in range(13)]
    check(bad, betti == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
          f"H(total) = {betti}")
    finish("C1", "total-space model has the sphere ladder and H = H(S^4)", bad, t0)


# ---- C2: fixed-set model --------------------------------------------------------


def test_c2_fixed_set_model():
    t0 = time.monotonic()
    bad = []
    s4 = fixture("s4_hopf", 12)
    fixed = model_of_fixed_set(s4, 12)
    free = fixed.module
    check(bad, free.gen_degrees[1:11] == (0, 2, 2, 4, 4, 6, 6, 8, 8, 10),
          f"generator degrees {free.gen_degrees[1:11]}")
    a_poly = s4.algebra.generator_poly("a")
    idx = {n: i for i, n in enumerate(free.gen_names)}
    check(bad, free.gen_diffs[idx["g0"]] == {}, "dg0 != 0")
    check(bad, free.gen_diffs[idx["g1"]] == {0: a_poly}, "dg1 != a")
    for n in range(8):
        check(bad, free.gen_diffs[idx[f"g{n + 2}"]] == {idx[f"g{n}"]: a_poly},
              f"dg{n + 2} != a*g{n}")
    betti = [fixed.betti_model.get(n) for n in range(12)]
    check(bad, betti == [2] + [0] * 11, f"H(fixed) = {betti}")
    finish("C2", "fixed-set model is the shifted ladder with H = Q^2 at 0", bad, t0)


# ---- C3: equivariant model and extension of scalars -----------------------------


def test_c3_equivariant_model():
    t0 = time.monotonic()
    bad = []
    s4 = fixture("s4_hopf", 12)
    eq = equivariant_model(s4, 12)
    check(bad, eq.euler_name == "e", f"euler class named {eq.euler_name!r}")
    idx = {n: i for i, n in enumerate(eq.module.gen_names)}
    # over Lambda(a, e): dc0 = a, dc1 = e*a, dc_{n+2} = a*c_n
    a_mono, ae_mono = (1, 0), (1, 1)
    check(bad, eq.module.gen_diffs[idx["c0"]] == {0: {a_mono: Q(1)}}, "dc0 != a")
    check(bad, eq.module.gen_diffs[idx["c1"]] == {0: {ae_mono: Q(1)}}, "dc1 != e*a")
    for n in range(8):
        check(bad,
              eq.module.gen_diffs[idx[f"c{n + 2}"]] == {idx[f"c{n}"]: {a_mono: Q(1)}},
              f"dc{n + 2} != a*c{n}")
    scal = extension_of_scalars_check(s4, 12)
    check(bad, scal.ok, f"extension of scalars: {scal.failures[:2]}")
    finish("C3", "Borel model twists dc1 to e*a; killing e returns the total model",
           bad, t0)


# ---- C4: fiber series identities ------------------------------------------------


def test_c4_poincare_identities():
    t0 = time.monotonic()
    bad = []
    s4 = fixture("s4_hopf", 12)
    poi = poincare_relations(s4, 12)
    check(bad, poi.ok, f"report failures: {poi.failures[:2]}")
    check(bad, poi.through >= 10, f"certified only through t^{poi.through}")
    for n in range(11):
        lhs = poi.total_fiber.coeff(n)
        rhs1 = ((1 if n == 0 else 0) - (1 if n == 2 else 0)
                + (poi.fixed_fiber.coeff(n - 2) if n >= 2 else 0))
        check(bad, lhs == rhs1, f"1 - t^2 + t^2 P_fixed fails at t^{n}")
        rhs2 = poi.borel_fiber.coeff(n) - (poi.borel_fiber.coeff(n - 2) if n >= 2 else 0)
        check(bad, lhs == rhs2, f"(1 - t^2) P_borel fails at t^{n}")
    finish("C4", "both fiber series identities hold exactly through t^10", bad, t0)


# ---- C5: product action with a wedge-like fixed model ---------------------------


def test_c5_cp2_models_and_naive_ring():
    t0 = time.monotonic()
    bad = []
    cp = fixture("cp2", 12)
    total = model_of_total_space(cp, 12)
    betti_t = [total.betti_model.get(n) for n in range(5)]
    check(bad, betti_t == [1, 0, 1, 0, 1], f"H(total) = {betti_t}")
    fixed = model_of_fixed_set(cp, 12)
    betti_f = [fixed.betti_model.get(n) for n in range(3)]
    check(bad, betti_f == [2, 0, 1], f"H(fixed) = {betti_f}")
    nv = naive_structure(cp, 12)
    check(bad, nv.ok, f"naive report failures: {nv.failures[:2]}")
    check(bad, nv.positive_products_zero, "a positive-degree product is nonzero")
    check(bad, nv.wedge_of_spheres, "not recognized as a wedge of spheres")
    check(bad, nv.sphere_degrees == (2, 4), f"sphere degrees {nv.sphere_degrees}")
    check(bad, all(not any(e.coords) for e in nv.ring), "ring table has a nonzero entry")
    finish("C5", "projective-plane action: H matches and all positive products vanish",
           bad, t0)


# ---- C6: almost-free action -----------------------------------------------------


def test_c6_almost_free_model():
    t0 = time.monotonic()
    bad = []
    af = fixture("almost_free_hopf", 12)
    afr = almost_free_model(af, 12)
    check(bad, afr.ok, f"report failures: {afr.failures[:2]}")
    check(bad, afr.euler_poly == "u", f"euler polynomial {afr.euler_poly!r}")
    check(bad, afr.generator_name == "x", f"adjoined generator {afr.generator_name!r}")
    betti = [afr.betti.get(n) for n in range(6)]
    check(bad, betti == [1, 0, 0, 1, 0, 0], f"H = {betti}")
    total = model_of_total_space(af, 12)
    betti2 = [total.betti_model.get(n) for n in range(6)]
    check(bad, betti2 == [1, 0, 0, 1, 0, 0], f"H(total) = {betti2}")
    finish("C6", "almost-free data rewrites as the algebra with dx = u and H = H(S^3)",
           bad, t0)


# ---- randomized schemes shared by C7 and C8 --------------------------------------

RANDOM_CAP = 8
RANDOM_MAX_DIM = 4
COEFFS = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(3), Q(-1, 3)]


def random_table(alg, rng):
    """Generator table whose differentials only hit closed generators, so
    d^2 = 0 holds by construction over a zero-differential algebra."""
    while True:
        n_closed = rng.randint(1, 2)
        n_open = rng.randint(0, 2)
        gens = [(f"z{i}", rng.randint(0, 5)) for i in range(n_closed)]
        gens += [(f"w{i}", rng.randint(1, 6)) for i in range(n_open)]
        diffs = {}
        for i in range(n_open):
            deg = gens[n_closed + i][1]
            row = {}
            for j in range(n_closed):
                cdeg = deg + 1 - gens[j][1]
                if 0 <= cdeg and alg.dim(cdeg) and rng.random() < 0.7:
                    row[f"z{j}"] = {alg.basis(cdeg)[0]: rng.choice(COEFFS)}
            if row:
                diffs[f"w{i}"] = row
        m = FreeDgModule(alg, gens, diffs, cap=RANDOM_CAP)
        if all(m.dim(k) <= RANDOM_MAX_DIM for k in range(RANDOM_CAP + 1)):
            return gens, diffs, m


def random_chain_map(alg, src, dst, p, rng, mult_coeff=None):
    """Multiplication by a degree-p class plus d h + (-1)^p h d for a random
    A-linear h.  The homotopy part is assembled on a taller copy of the
    modules so the truncation to the working window is exact."""
    sg, sd, m = src
    tg, td, n = dst
    big_m = FreeDgModule(alg, sg, sd, cap=RANDOM_CAP + 2)
    big_n = FreeDgModule(alg, tg, td, cap=RANDOM_CAP + 2)
    mats = {}
    if mult_coeff is not None and alg.dim(p):
        for k in range(RANDOM_CAP - p + 1):
            if m.dim(k) and m.dim(k + p):
                mats[k] = m.action_matrix(p, k).scale(mult_coeff)
    images = {}
    for i, name in enumerate(big_m.gen_names):
        t = big_m.gen_degrees[i] + p - 1
        if 0 <= t <= big_n.cap and big_n.dim(t):
            images[name] = tuple(
                rng.choice(COEFFS) if rng.random() < 0.6 else Q(0)
                for _ in range(big_n.dim(t))
            )
    h = map_from_generator_images(big_m, big_n, p - 1, images)
    sign = Q(-1 if p % 2 else 1)
    for k in range(RANDOM_CAP + 1):
        if not (m.dim(k) and k + p <= RANDOM_CAP and n.dim(k + p)):
            continue
        piece = None
        if big_n.dim(k + p - 1):
            piece = big_n.differential_matrix(k + p - 1) * h.matrix(k)
        if big_m.dim(k + 1):
            hd = (h.matrix(k + 1) * big_m.differential_matrix(k)).scale(sign)
            piece = hd if piece is None else piece + hd
        if piece is not None and not piece.is_zero():
            mats[k] = mats[k] + piece if k in mats else piece
    return DgModuleMap(m, n, p, mats)


def _random_algebras():
    return (
        SullivanPresentation([("a", 3)], {}, cap=14),
        SullivanPresentation([("e", 2)], {}, cap=14),
    )


# ---- C7: randomized minimal models with exact sections ---------------------------


def test_c7_random_modules_models_and_sections():
    t0 = time.monotonic()
    bad = []
    rng = random.Random(20260814)
    count = 0
    for alg in _random_algebras():
        for _ in range(60):
            _, _, m = random_table(alg, rng)
            x = tabulate(m)
            result = minimal_model(x)
            for n in range(result.window + 1):
                got = module_cohomology(result.module, n).betti
                want = module_cohomology(x, n).betti
                if got != want:
                    bad.append(f"module {count}: H^{n} model {got} != input {want}")
                    break
            sigma = lift_section(result.rho)
            if not maps_equal(compose(sigma, result.rho), identity_map(result.module)):
                bad.append(f"module {count}: section composed with rho is not id")
            count += 1
            if bad:
                break
        if bad:
            break
    if not bad:
        check(bad, count >= 100, f"only {count} modules generated")
    finish("C7", f"{count} random tabulated modules: H preserved and sections exact",
           bad, t0)


# ---- C8: randomized morphisms, cones, shifts, homotopies --------------------------


def test_c8_random_maps_cones_shifts_homotopies():
    t0 = time.monotonic()
    bad = []
    rng = random.Random(99)
    n_maps = 0
    for alg in _random_algebras():
        for _ in range(20):
            src = random_table(alg, rng)
            dst = random_table(alg, rng)
            m = src[2]
            p = rng.randint(max(0, 1 - min(m.gen_degrees)), 3)
            phi = random_chain_map(alg, src, dst, p, rng)
            rep = phi.verify()
            check(bad, rep.ok, f"map {n_maps} is not a morphism: {rep.failures[:1]}")
            table = cone_les(cone(phi))
            check(bad, table.ok, f"map {n_maps}: cone sequence inexact: {table.failures[:1]}")
            q = rng.randint(1, 3)
            check(bad, modules_equal(m, shift(shift(m, q), -q)),
                  f"map {n_maps}: shift by {q} does not round-trip")
            n_maps += 1
            ps = [d for d in range(max(0, 1 - min(m.gen_degrees)), 4) if alg.dim(d)]
            psi = random_chain_map(alg, src, src, rng.choice(ps), rng,
                                   mult_coeff=rng.choice(COEFFS))
            rep = psi.verify()
            check(bad, rep.ok, f"self-map {n_maps} is not a morphism: {rep.failures[:1]}")
            table = cone_les(cone(psi))
            check(bad, table.ok, f"self-map {n_maps}: cone sequence inexact")
            n_maps += 1
            if bad:
                break
        if bad:
            break
    rng2 = random.Random(7)
    n_models = 0
    if not bad:
        for alg in _random_algebras():
            for _ in range(6):
                src = random_table(alg, rng2)
                dst = random_table(alg, rng2)
                phi = random_chain_map(alg, src, dst, 2, rng2)
                mt, nt = tabulate(src[2]), tabulate(dst[2])
                phit = DgModuleMap(mt, nt, 2, dict(phi.mats))
                rm = minimal_model(mt)
                rn = minimal_model(nt)
                phi_p, h = model_of_morphism(phit, rm.rho, rn.rho)
                if not is_homotopy(h, compose(phit, rm.rho), compose(rn.rho, phi_p)):
                    bad.append(f"model {n_models}: returned homotopy fails")
                    break
                n_models += 1
            if bad:
                break
    finish("C8",
           f"{n_maps} random morphisms: exact cones, shift round-trips, "
           f"{n_models} modeled maps with verified homotopies", bad, t0)


def test_models_of_odd_degree_maps_carry_verified_homotopies():
    """model_of_morphism solves for (y, (-1)^p z) and flips z back: at odd p the
    flip is visible, and some of these maps need a nonzero homotopy."""
    rng = random.Random(11)
    nonzero = 0
    for alg in _random_algebras():
        for _ in range(10):
            src, dst = random_table(alg, rng), random_table(alg, rng)
            p = rng.choice([1, 3])
            phi = random_chain_map(alg, src, dst, p, rng, mult_coeff=rng.choice([None, Q(1)]))
            mt, nt = tabulate(src[2]), tabulate(dst[2])
            phit = DgModuleMap(mt, nt, p, dict(phi.mats))
            rm, rn = minimal_model(mt), minimal_model(nt)
            try:
                phi_p, h = model_of_morphism(phit, rm.rho, rn.rho)
            except ValidationError:  # a generator whose image the caps cannot host
                continue
            assert is_homotopy(h, compose(phit, rm.rho), compose(rn.rho, phi_p))
            nonzero += bool(h.mats)
    assert nonzero


# ---- C9: formality and localization ----------------------------------------------


def test_c9_formality_and_localization():
    t0 = time.monotonic()
    bad = []
    s4 = fixture("s4_hopf", 12)
    form = formality_check(s4, 12)
    check(bad, form.formal, f"s4 not equivariantly formal: {form.failures[:1]}")
    check(bad, any(s.degree == 3 for s in form.strings), "no string at degree 3")
    loc = localization_check(s4, 12)
    check(bad, loc.verdict == "bijective", f"localization verdict {loc.verdict!r}")
    check(bad, loc.exponent == 1, f"nilpotency exponent {loc.exponent}")
    nf = fixture("nonformal", 12)
    nform = formality_check(nf, 12)
    check(bad, not nform.formal, "counterexample reported as formal")
    check(bad, nform.witness_degree == 2, f"witness degree {nform.witness_degree}")
    check(bad, nform.witness_label == "b", f"witness label {nform.witness_label!r}")
    finish("C9", "formality holds with strings, localization inverts, and the "
           "counterexample is caught with a witness", bad, t0)


# ---- C10: Smith-Gysin inequality --------------------------------------------------


def test_c10_smith_gysin():
    t0 = time.monotonic()
    bad = []
    fl = fixture("flow_s4", 12)
    expected = {0: (0, 2, 2), 1: (0, 0, 0), 2: (1, 0, 1)}
    for r, sides in expected.items():
        sg = smith_gysin_inequality(fl, 12, r)
        check(bad, sg.verdict == "holds", f"r = {r}: verdict {sg.verdict!r}")
        got = (sg.relative_term, sg.fixed_sum, sg.total_sum)
        check(bad, got == sides, f"r = {r}: sides {got} != {sides}")
        check(bad, sg.relative_term + sg.fixed_sum <= sg.total_sum,
              f"r = {r}: inequality violated")
    finish("C10", "isometric-flow inequality holds at r = 0, 1, 2 with both sides "
           "reported", bad, t0)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"  -> {exc}")
    raise SystemExit(1 if failures else 0)
