"""Certificates on generators, and the check budget.

A map from `map_from_generator_images` is certified by the chain condition
on its generators, and any other map out of a free module first by
comparing it with the map its own generator images define; the naive product by the dgc axioms, and the almost-free
product rule, on the elements x.g with x the unit or an algebra generator;
extension of scalars by comparing generator tables and caps.  Hypothesis
and the fixtures pin each against the full check it replaces:
`DgModuleMap.verify`, the basis-wide loops that `naive_structure` and
`almost_free_model` used to run, and the quotient module compared by
`modules_equal`, kept here as the references.
"""


import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgmodels import action, cdga, circle, dgmodule
from dgmodels.action import BasicData
from dgmodels.cdga import (
    CHECK_BUDGET,
    SullivanPresentation,
    extend,
    parse_polynomial,
    poly_eq,
    verify_cdga,
)
from dgmodels.circle import _comb_eq, _naive_axioms, almost_free_model
from dgmodels.dgmodule import (
    DgModuleMap,
    FreeDgModule,
    algebra_module,
    certify_free_map,
    certify_on_generators,
    map_from_generator_images,
    modules_equal,
    verify_dgmodule,
)
from dgmodels.errors import ValidationError
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.linalg import Q, RatMatrix
from copy_per_term import comb_add, comb_scale, naive_mul, naive_pair_mul

CAP = 8
COEFFS = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(3), Q(-1, 3)]
ALGEBRAS = {
    "a3": SullivanPresentation([("a", 3)], {}, cap=CAP + 6),
    "e2": SullivanPresentation([("e", 2)], {}, cap=CAP + 6),
    "e2f2": SullivanPresentation([("e", 2), ("f", 2)], {}, cap=CAP + 6),
}


def _free_module(draw, alg, closed, opened, cap=CAP) -> FreeDgModule:
    """Closed generators, then open ones whose d hits closed ones only, so
    d^2 = 0 over a zero-differential algebra."""
    gens = closed + opened
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
    return FreeDgModule(alg, gens, diffs, cap=cap)


@st.composite
def free_modules(draw, alg=None, prefix="", min_open=0) -> FreeDgModule:
    alg = alg or ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    closed = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    opened = draw(st.lists(st.integers(1, 6), min_size=min_open, max_size=3))
    return _free_module(
        draw,
        alg,
        [(f"{prefix}z{i}", d) for i, d in enumerate(closed)],
        [(f"{prefix}w{i}", d) for i, d in enumerate(opened)],
    )


def _at_cap(module: FreeDgModule, cap: int) -> FreeDgModule:
    """The same generators and differential at another cap."""
    names = module.gen_names
    diffs = {
        names[i]: {names[j]: poly for j, poly in comb.items()}
        for i, comb in enumerate(module.gen_diffs)
    }
    return FreeDgModule(module.algebra, list(zip(names, module.gen_degrees)), diffs, cap=cap)


# ---- the generator certificate of a map -----------------------------------------


@st.composite
def generator_maps(draw, alg=None):
    """(source, target, degree, images): multiplication by an algebra basis
    element, which is a chain map, or random images into a second module."""
    src = draw(free_modules(alg))
    alg = src.algebra
    if draw(st.booleans()):
        tgt = src
        p = draw(st.sampled_from([0, *alg.degrees]))
        mono = draw(st.sampled_from(alg.basis(p)))
        images = {
            name: tgt.combination_vector({gi: {mono: Q(1)}}, deg + p)
            for gi, (name, deg) in enumerate(zip(src.gen_names, src.gen_degrees))
            if deg + p <= tgt.cap
        }
    else:
        # open generators give the target a differential for the images to miss
        tgt = draw(free_modules(alg, prefix="t", min_open=1))
        p = draw(st.integers(-1, 3))
        images = {}
        coeffs = st.sampled_from([*COEFFS, Q(0)])
        for name, deg in zip(src.gen_names, src.gen_degrees):
            if 0 <= deg + p <= tgt.cap:
                images[name] = [draw(coeffs) for _ in range(tgt.dim(deg + p))]
    return src, tgt, p, images


def _perturbation(src, tgt, p, top):
    """(generator, coordinate) whose basis vector has a nonzero differential,
    at a generator inside the certified window; None if there is none."""
    for name, deg in zip(src.gen_names, src.gen_degrees):
        if deg <= top and deg + p >= 0:
            d = tgt.differential_matrix(deg + p)
            for s in range(tgt.dim(deg + p)):
                if any(d.col(s)):
                    return name, s
    return None


@settings(max_examples=150, deadline=None)
@given(generator_maps())
def test_generator_certificate_agrees_with_full_verify(case):
    src, tgt, p, images = case
    phi = map_from_generator_images(src, tgt, p, images)
    cert, full = certify_on_generators(phi), phi.verify()
    assert cert.ok == full.ok
    assert cert.checks_run <= src.gen_count

    top = min(phi.window().stop - 1, src.cap - 1, tgt.cap - p - 1)
    bump = _perturbation(src, tgt, p, top)
    if bump is None or not full.ok:
        return
    name, s = bump
    deg = src.gen_degrees[src.gen_index(name)]
    image = list(images.get(name, [Q(0)] * tgt.dim(deg + p)))
    image[s] += 1
    bad = map_from_generator_images(src, tgt, p, {**images, name: image})
    assert not certify_on_generators(bad).ok
    assert not bad.verify().ok


@st.composite
def perturbed_maps(draw, alg=None):
    """A map from generator_maps(), and maybe one matrix entry of it moved, on
    a generator's column or off it, so that A-linearity can break anywhere."""
    src, tgt, p, images = draw(generator_maps(alg))
    phi = map_from_generator_images(src, tgt, p, images)
    cells = [
        (k, r, c)
        for k in phi.window()
        for r in range(phi.matrix(k).rows)
        for c in range(phi.matrix(k).cols)
    ]
    if not cells or draw(st.booleans()):
        return phi
    k, r, c = draw(st.sampled_from(cells))
    entries = phi.matrix(k).to_lists()
    entries[r][c] += draw(st.sampled_from(COEFFS))
    mats = {j: phi.matrix(j) for j in phi.window()}
    mats[k] = RatMatrix(len(entries), phi.matrix(k).cols, entries)
    return DgModuleMap(src, tgt, p, mats)


# Lambda(e2, f2) has dim A^i > 1 in every even degree i > 0, and over it an odd
# p comes only from the draws of random images
@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_free_map_certificate_agrees_with_full_verify(alg, data):
    phi = data.draw(perturbed_maps(ALGEBRAS[alg]))
    cert, full = certify_free_map(phi), phi.verify()
    assert cert.ok == full.ok
    # each pair the certificate names is one that verify fails
    linear = [msg for msg in full.failures if msg.startswith("A-linearity")]
    if linear:
        assert not cert.ok and set(cert.failures) <= set(linear)


def test_generator_certificate_reads_no_action_matrix(monkeypatch):
    data = fixture("s4_hopf", 12)
    reads = []
    for cls in (FreeDgModule, dgmodule.TabulatedDgModule):
        original = cls.action_matrix

        def counting(self, i, k, original=original):
            reads.append((i, k))
            return original(self, i, k)

        monkeypatch.setattr(cls, "action_matrix", counting)
    e, m = data.e_prime, data.relative_model
    report = certify_on_generators(e)
    top = min(m.cap - 1, e.target.cap - e.degree - 1)
    assert report.ok and report.checks_run == sum(deg <= top for deg in m.gen_degrees) > 0
    assert reads == []


# ---- the naive product --------------------------------------------------------------


def reference_naive_axioms(free, window):
    """The dgc axioms of the naive product on every basis element of the
    window: the loops naive_structure ran before it checked generators."""
    alg = free.algebra
    basis = {n: free.basis(n) for n in range(window + 1)}

    def mul(x, y):
        return circle._naive_mul(free, x, y)

    unit = {0: {alg.unit_mono(): Q(1)}}
    unital = all(
        _comb_eq(mul(unit, x), x) and _comb_eq(mul(x, unit), x)
        for n in range(window + 1)
        for x in ({gi: {m: Q(1)}} for gi, m in basis[n])
    )
    commutative = leibniz = True
    for i in range(window + 1):
        for j in range(i, window + 1 - i):
            for gi, mi in basis[i]:
                x = {gi: {mi: Q(1)}}
                for gj, mj in basis[j]:
                    y = {gj: {mj: Q(1)}}
                    xy = mul(x, y)
                    yx = mul(y, x)
                    if (i * j) % 2:
                        yx = comb_scale(Q(-1), yx)
                    commutative &= _comb_eq(xy, yx)
                    rhs = comb_add(
                        mul(free.d_combination(x), y),
                        comb_scale(Q(-1 if i % 2 else 1), mul(x, free.d_combination(y))),
                    )
                    leibniz &= _comb_eq(free.d_combination(xy), rhs)
    associative = True
    for i in range(window + 1):
        for j in range(window + 1 - i):
            for k in range(window + 1 - i - j):
                for gi, mi in basis[i]:
                    x = {gi: {mi: Q(1)}}
                    for gj, mj in basis[j]:
                        y = {gj: {mj: Q(1)}}
                        xy = mul(x, y)
                        for gk, mk in basis[k]:
                            z = {gk: {mk: Q(1)}}
                            associative &= _comb_eq(mul(xy, z), mul(x, mul(y, z)))
    return unital, commutative, associative, leibniz


def _left_sign_twisted(free, gi, mi, gj, mj):
    """The pair product with a (-1)^{|a|} on a n', the twisted action of a
    shifted module."""
    term = naive_pair_mul(free, gi, mi, gj, mj)
    if gi == 0 and gj != 0 and free.algebra.mono_degree(mi) % 2:
        return comb_scale(Q(-1), term)
    return term


def _right_sign_dropped(free, gi, mi, gj, mj):
    """The pair product without the (-1)^{|n||a'|} of n a'."""
    if gi != 0 and gj == 0:
        poly = free.algebra.poly_mul({mj: Q(1)}, {mi: Q(1)})
        return {gi: poly} if poly else {}
    return naive_pair_mul(free, gi, mi, gj, mj)


def _right_sign_shifted(free, gi, mi, gj, mj):
    """The pair product with the sign of n a' read off |n| - 1, the degree of n
    before a shift by one."""
    term = naive_pair_mul(free, gi, mi, gj, mj)
    if gi != 0 and gj == 0 and free.algebra.mono_degree(mj) % 2:
        return comb_scale(Q(-1), term)
    return term


def _mutant(pair_mul):
    """A naive product for `circle._naive_mul` built on a wrong pair product."""

    def mul(free, a, b, c=1, out=None):
        return naive_mul(free, a, b, c, out, pair_mul)

    return mul


MUTANTS = {
    "left sign twisted": _mutant(_left_sign_twisted),
    "right sign dropped": _mutant(_right_sign_dropped),
    "right sign shifted": _mutant(_right_sign_shifted),
}

# A(u_2, v_3) with dv = u^2 has a differential, so the product's Leibniz rule
# meets the algebra's own d
NAIVE_ALGEBRAS = {
    **ALGEBRAS,
    "u2v3": SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): Q(1)}}, cap=CAP + 6),
}


@st.composite
def unit_modules(draw):
    """(free module with the closed degree-0 unit generator first, window)."""
    alg = NAIVE_ALGEBRAS[draw(st.sampled_from(sorted(NAIVE_ALGEBRAS)))]
    closed = draw(st.lists(st.integers(1, 4), max_size=2))
    opened = draw(st.lists(st.integers(1, 5), max_size=2))
    closed = [("1", 0)] + [(f"z{i}", d) for i, d in enumerate(closed)]
    try:
        free = _free_module(draw, alg, closed, [(f"w{i}", d) for i, d in enumerate(opened)], 7)
    except ValidationError:
        assume(False)
    return free, draw(st.integers(2, 6))


@settings(max_examples=80, deadline=None)
@given(unit_modules(), st.sampled_from([None, *sorted(MUTANTS)]))
def test_naive_generator_check_agrees_with_reference_loops(case, mutant):
    free, window = case
    with pytest.MonkeyPatch.context() as mp:
        if mutant is not None:
            mp.setattr(circle, "_naive_mul", MUTANTS[mutant])
        *flags, failures = _naive_axioms(free, window)
        assert tuple(flags) == reference_naive_axioms(free, window)
    assert all(flags) == (not failures)


@settings(max_examples=60, deadline=None)
@given(unit_modules())
def test_naive_product_is_a_dgc_algebra_when_the_unit_splits_off(case):
    """Square-zero extension of A by a dg A-module (FHT, GTM 205, section 6):
    when no differential reaches the unit generator, every axiom holds on
    every basis element of the window, over each algebra."""
    free, window = case
    assume(not any(0 in diff for diff in free.gen_diffs))
    assert reference_naive_axioms(free, window) == (True, True, True, True)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_wrong_naive_sign_fails_both_checks(monkeypatch, mutant):
    # an odd module generator, so that n a' with n and a' odd meets each sign
    alg = ALGEBRAS["a3"]
    free = FreeDgModule(alg, [("1", 0), ("c", 3)], {}, cap=8)
    assert all(_naive_axioms(free, 7)[:4])
    assert all(reference_naive_axioms(free, 7))
    monkeypatch.setattr(circle, "_naive_mul", MUTANTS[mutant])
    *flags, failures = _naive_axioms(free, 7)
    assert not all(flags) and failures
    assert not all(reference_naive_axioms(free, 7))


# ---- the almost-free product rule ----------------------------------------------------


def reference_product_rule(free, alg_x, window):
    """The product rule under (a, b) -> a + b x on every pair of basis elements
    of the window, with the pair product written out: the loop almost_free_model
    ran before it checked the generator elements."""
    alg = free.algebra
    for i in range(window + 1):
        for gi, mi in free.basis(i):
            left = {mi + (gi,): Q(1)}
            for j in range(window + 1 - i):
                for gj, mj in free.basis(j):
                    want = alg_x.poly_mul(left, {mj + (gj,): Q(1)})
                    # a.1 a'.1 = a a'; a.1 a'.c = a a' c; a.c a'.1 = (-1)^{|a'|} a a' c
                    pair = {} if gi and gj else alg.poly_mul({mi: Q(1)}, {mj: Q(1)})
                    sign = -1 if gi and alg.mono_degree(mj) % 2 else 1
                    got = {mm + (gi + gj,): sign * c for mm, c in pair.items()}
                    if not poly_eq(want, got):
                        return False
    return True


# (generators, differentials, Euler class): each has an odd generator, so that
# every sign of the naive product is met
ALMOST_FREE_BASES = {
    "u2v3": ([("u", 2), ("v", 3)], {"v": {(2, 0): 1}}, "u"),
    "a3u2": ([("a", 3), ("u", 2)], {}, "u"),
    "x1y1": ([("x", 1), ("y", 1)], {}, "x*y"),
}


def almost_free_data(base, scale, window):
    """Rank-one relative model on m0 with i'(m0) = 1 and e'(m0) = scale times
    the base's Euler class, and no fixed points, sized as almost_free_hopf."""
    gens, diffs, euler = ALMOST_FREE_BASES[base]
    alg = SullivanPresentation(gens, diffs, cap=window + 2)
    m = FreeDgModule(alg, [("m0", 0)], {}, cap=window + 1)
    a_mod = algebra_module(alg, cap=window + 2)
    e_poly = {mono: scale * c for mono, c in parse_polynomial(alg, euler).items()}
    e_prime = map_from_generator_images(m, a_mod, 2, {"m0": alg.poly_vector(e_poly, 2)})
    i_prime = map_from_generator_images(m, a_mod, 0, {"m0": alg.poly_vector(alg.unit_poly(), 0)})
    data = BasicData(alg, m, i_prime, e_prime, fixed_set_empty=True, name=base)
    return data, e_poly


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(ALMOST_FREE_BASES)),
    st.sampled_from(COEFFS),
    st.integers(4, 14),
)
def test_almost_free_generator_check_agrees_with_reference_loop(base, scale, window):
    data, e_poly = almost_free_data(base, scale, window)
    report = almost_free_model(data, window)
    free = action._ActionPipeline(data, window).total.module
    alg_x = extend(data.algebra, report.generator_name, 1, e_poly)
    assert report.ok == reference_product_rule(free, alg_x, report.window)
    assert report.ok and report.window == window


# the first pairs of odd elements, c of degree 1 times the odd generator of least degree
FIRST_ODD_PAIRS = {"u2v3": {(1, 3), (3, 1)}, "a3u2": {(1, 3), (3, 1)}, "x1y1": {(1, 1)}}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("base", sorted(ALMOST_FREE_BASES))
def test_wrong_naive_sign_fails_the_almost_free_product_rule(monkeypatch, base, mutant):
    # the reference loop writes its pair product out, so no mutant reaches it
    data, _ = almost_free_data(base, Q(1), 6)
    assert almost_free_model(data, 6).ok
    monkeypatch.setattr(circle, "_naive_mul", MUTANTS[mutant])
    report = almost_free_model(data, 6)
    assert not report.ok
    assert report.failures[0] in {
        f"product rule fails at degrees ({i}, {j})" for i, j in FIRST_ODD_PAIRS[base]
    }


# ---- extension of scalars -----------------------------------------------------------


def reference_extension_of_scalars(p):
    """The Borel model with its Euler class set to zero, built as a free module
    and compared with the total-space model by modules_equal: the route
    extension_of_scalars_check took before it compared generator tables."""
    model, _ = p.borel
    free_e, free_t = model.module, p.total.module
    if (free_e.gen_names, free_e.gen_degrees) != (free_t.gen_names, free_t.gen_degrees):
        return False
    e_idx = model.algebra.generator_index(model.euler_name)

    def drop(poly):
        return {m[:e_idx] + m[e_idx + 1 :]: c for m, c in poly.items() if m[e_idx] == 0}

    names = free_e.gen_names
    diffs = {
        names[j]: {names[h]: drop(poly) for h, poly in comb.items()}
        for j, comb in enumerate(free_e.gen_diffs)
    }
    cap = min(free_e.cap, free_t.cap)
    quotient = FreeDgModule(p.data.algebra, list(zip(names, free_e.gen_degrees)), diffs, cap)
    return modules_equal(quotient, free_t)


WITH_FIXED_SET = [name for name in FIXTURES if not fixture(name, 12).fixed_set_empty]


@pytest.mark.parametrize("window", [12, 20])
@pytest.mark.parametrize("name", WITH_FIXED_SET)
def test_extension_of_scalars_agrees_with_the_quotient_module(name, window):
    p = action._ActionPipeline(fixture(name, window), window)
    report = circle._extension_of_scalars(p)
    assert report.ok == reference_extension_of_scalars(p)
    assert report.ok and report.window == min(p.borel[0].module.cap, p.total.module.cap) - 1


def test_extension_of_scalars_reports_a_changed_coefficient():
    p = action._ActionPipeline(fixture("s4_hopf", 12), 12)
    free_t = p.total.module
    names = free_t.gen_names
    j = next(j for j, comb in enumerate(free_t.gen_diffs) if comb)
    h, poly = next(iter(free_t.gen_diffs[j].items()))
    diffs = {
        names[i]: {names[k]: q for k, q in comb.items()} for i, comb in enumerate(free_t.gen_diffs)
    }
    diffs[names[j]][names[h]] = {m: 2 * c for m, c in poly.items()}
    changed = FreeDgModule(free_t.algebra, list(zip(names, free_t.gen_degrees)), diffs, free_t.cap)
    # replaces the pipeline's cached total-space model
    p.total = p.total._replace(module=changed)
    report = circle._extension_of_scalars(p)
    assert not report.ok and not reference_extension_of_scalars(p)
    assert report.failures == (
        f"d({names[j]}) differs after setting e = 0: coefficient of {names[h]} is "
        f"{free_t.algebra.poly_str(poly)} vs 2*{free_t.algebra.poly_str(poly)}",
    )


def test_extension_of_scalars_reports_a_higher_cap():
    p = action._ActionPipeline(fixture("s4_hopf", 12), 12)
    free_t = p.total.module
    p.total = p.total._replace(module=_at_cap(free_t, free_t.cap + 1))
    report = circle._extension_of_scalars(p)
    assert not report.ok and not reference_extension_of_scalars(p)
    assert report.failures == ("quotient by the Euler class does not match the total-space model",)
    assert report.window == free_t.cap - 1


# ---- the check budget ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(generator_maps())
def test_check_counts_match_the_checks_run(case):
    src, tgt, p, images = case
    # the source at smaller caps narrows the window as a smaller top used to
    for cap in (0, 3, CAP):
        source = _at_cap(src, cap)
        phi = map_from_generator_images(source, tgt, p, images)
        assert phi.check_count() == phi.verify().checks_run


def test_module_check_count_is_planned_before_the_checks(monkeypatch):
    counts = []
    monkeypatch.setattr(dgmodule, "check_check_budget", lambda checks, what: counts.append(checks))
    modules = []
    for name in FIXTURES:
        # the total space's model at window 7 has the cap 9 that top=9 used to
        # narrow the window-12 one to (11 on semifree_suspension)
        modules += [fixture(name, 12).relative_model, fixture(name, 7).i_prime.target]
    # module caps above and below the algebra's
    for acap in range(7):
        alg = SullivanPresentation([("a", 3)], {}, cap=acap)
        modules += [dgmodule.TabulatedDgModule(alg, cap, {0: ["x"]}) for cap in range(9)]
    for module in modules:
        counts.clear()
        report = verify_dgmodule(module)
        assert counts == [report.checks_run]


def test_algebra_check_count_is_planned_before_the_checks(monkeypatch):
    counts = []
    monkeypatch.setattr(cdga, "check_check_budget", lambda checks, what: counts.append(checks))
    algebras = [fixture(name, 47).algebra for name in FIXTURES]
    algebras += [
        SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): 1}}, cap=cap) for cap in range(8)
    ]
    algebras.append(SullivanPresentation([(f"x{i}", 1) for i in range(5)], {}, cap=5))
    for full in algebras:
        # the same algebra at smaller caps narrows the bases as a smaller top used to
        for cap in (full.cap, 0, 1, 4):
            algebra = SullivanPresentation(
                list(zip(full.names, full.degrees)),
                dict(zip(full.names, full.differentials)),
                cap=min(cap, full.cap),
            )
            counts.clear()
            report = verify_cdga(algebra)
            assert report.ok and counts == [report.checks_run]


def test_every_fixture_algebra_verifies_at_window_47():
    # the largest, almost_free_hopf's, takes 2,405 checks
    for name in FIXTURES:
        report = verify_cdga(fixture(name, 47).algebra)
        assert report.ok and report.checks_run <= CHECK_BUDGET


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fixture_validates_at_window_28(name):
    data = fixture(name, 28)
    maps = [data.i_prime, data.e_prime]
    assert sum(f.check_count() for f in maps) <= CHECK_BUDGET
    assert data.validate().ok
    assert verify_dgmodule(data.relative_model).ok


def test_validate_certifies_the_structure_maps_without_verify(monkeypatch):
    monkeypatch.setattr(DgModuleMap, "verify", lambda self: pytest.fail("verify was called"))
    data = fixture("nonformal", 12)
    assert data.validate().ok
    mats = {k: data.i_prime.matrix(k) for k in data.i_prime.window()}
    mats[4] = mats[4].scale(2)  # u.b -> 2u^2, off the generator b -> u
    i_prime = DgModuleMap(data.relative_model, data.i_prime.target, 0, mats)
    report = data._replace(i_prime=i_prime).validate()
    assert report.failures == ("i': A-linearity fails for (|a|, |m|) = (2, 2)",)


def test_over_budget_map_is_rejected_before_its_first_check(monkeypatch):
    data = fixture("cp2", 12)
    monkeypatch.setattr("dgmodels.cdga.CHECK_BUDGET", 10)
    read = []
    monkeypatch.setattr(DgModuleMap, "matrix", lambda self, k: read.append(k))
    with pytest.raises(ValidationError, match="the map e' takes .* over the budget of 10"):
        data.e_prime.verify()
    with pytest.raises(ValidationError, match="the basic data"):
        data.validate()
    assert read == []
