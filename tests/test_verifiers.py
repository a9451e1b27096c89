"""The module and map verifiers against the Kronecker-product code they replaced.

`verify_dgmodule` and `DgModuleMap.verify` take each product with a
Kronecker factor as `linalg.times_kron`, which reads the stored rows of the
action, differential and identity matrices, instead of multiplying by
`kron(..., identity)`.  The bodies below are the earlier ones, kept as the
reference: on free and tabulated modules and maps, intact or with one
corrupted entry or sign, both must report the same `ok`, the same failures
in the same order and the same `checks_run`.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgmodels.cdga import CheckReport, SullivanPresentation, check_check_budget
from dgmodels.dgmodule import (
    DgModuleMap,
    FreeDgModule,
    TabulatedDgModule,
    map_from_generator_images,
    tabulate,
    verify_dgmodule,
)
from dgmodels.errors import ValidationError
from dgmodels.linalg import Q, RatMatrix, kron

CAP = 7
COEFFS = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3)]
ALGEBRAS = {
    "a3": SullivanPresentation([("a", 3)], {}, cap=CAP + 2),
    "e2f2": SullivanPresentation([("e", 2), ("f", 2)], {}, cap=CAP + 2),
    # two odd generators: b.a = -a.b puts -1 entries in the action matrices
    "a3b3": SullivanPresentation([("a", 3), ("b", 3)], {}, cap=CAP + 2),
    # dv = u^2: the Leibniz checks read the algebra's own differential
    "u2v3": SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): Q(1)}}, cap=CAP + 2),
}


# ---- the reference verifiers ------------------------------------------------------


def reference_verify_dgmodule(module) -> CheckReport:
    top = module.cap
    acap = module.algebra.cap
    low = min(top, acap)
    planned = max(top - 1, 0) + top + 1 + sum(top - i for i in range(1, min(top, acap - 1) + 1))
    planned += sum((low - i) * (2 * top + 1 - low - i) // 2 for i in range(1, low + 1))
    check_check_budget(planned, "the module")
    failures = []
    checks = 0

    for k in range(top - 1):
        checks += 1
        if not (module.differential_matrix(k + 1) * module.differential_matrix(k)).is_zero():
            failures.append(f"d(d(x)) != 0 out of degree {k}")

    for k in range(top + 1):
        checks += 1
        if module.action_matrix(0, k) != RatMatrix.identity(module.dim(k)):
            failures.append(f"unit does not act as identity in degree {k}")

    for i in range(1, top + 1):
        if i + 1 > acap:
            break
        d_a = module.algebra.differential_matrix(i)
        for k in range(top - i):
            checks += 1
            lhs = module.differential_matrix(i + k) * module.action_matrix(i, k)
            rhs = module.action_matrix(i + 1, k) * kron(d_a, RatMatrix.identity(module.dim(k)))
            sign = -1 if i % 2 else 1
            rhs = rhs + (
                module.action_matrix(i, k + 1)
                * kron(RatMatrix.identity(module.algebra.dim(i)), module.differential_matrix(k))
            ).scale(sign)
            if lhs != rhs:
                failures.append(f"module Leibniz fails for (|a|, |m|) = ({i}, {k})")

    for i in range(1, min(top, acap) + 1):
        for j in range(1, min(top, acap) + 1 - i):
            prod = module.algebra.product_matrix(i, j)
            for k in range(top + 1 - i - j):
                checks += 1
                lhs = module.action_matrix(i + j, k) * kron(
                    prod, RatMatrix.identity(module.dim(k))
                )
                rhs = module.action_matrix(i, j + k) * kron(
                    RatMatrix.identity(module.algebra.dim(i)), module.action_matrix(j, k)
                )
                if lhs != rhs:
                    failures.append(f"associativity fails for (|a|, |b|, |m|) = ({i}, {j}, {k})")

    return CheckReport("verify_dgmodule", not failures, tuple(failures), checks)


def reference_verify_map(phi: DgModuleMap) -> CheckReport:
    check_check_budget(phi.check_count(), f"the map {phi.name}".rstrip())
    p = phi.degree
    sign = -1 if p % 2 else 1
    chain, linear = phi._check_degrees()
    failures = []
    checks = 0
    for k in chain:
        checks += 1
        lhs = phi.target.differential_matrix(k + p) * phi.matrix(k)
        rhs = (phi.matrix(k + 1) * phi.source.differential_matrix(k)).scale(sign)
        if lhs != rhs:
            failures.append(f"chain condition fails at source degree {k}")
    for i, degrees in linear.items():
        ident_a = RatMatrix.identity(phi.source.algebra.dim(i))
        for k in degrees:
            checks += 1
            lhs = phi.matrix(i + k) * phi.source.action_matrix(i, k)
            tw = -1 if (i * p) % 2 else 1
            rhs = (phi.target.action_matrix(i, k + p) * kron(ident_a, phi.matrix(k))).scale(tw)
            if lhs != rhs:
                failures.append(f"A-linearity fails for (|a|, |m|) = ({i}, {k})")
    return CheckReport("verify_map", not failures, tuple(failures), checks)


# ---- random modules and maps ------------------------------------------------------


@st.composite
def free_modules(draw, alg=None, prefix=""):
    """Closed generators, then open ones whose d hits closed ones; over u2v3 a
    coefficient must be a cocycle for d^2 = 0, and draws where it is not are
    rejected."""
    alg = alg or ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    closed = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    opened = draw(st.lists(st.integers(1, 5), max_size=2))
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


def _corrupt(draw, mat: RatMatrix) -> RatMatrix:
    """mat with one entry moved by a nonzero amount."""
    rows = mat.to_lists()
    r = draw(st.integers(0, mat.rows - 1))
    c = draw(st.integers(0, mat.cols - 1))
    rows[r][c] += draw(st.sampled_from(COEFFS))
    return RatMatrix(mat.rows, mat.cols, rows)


@st.composite
def modules(draw):
    """A free module, its tabulation, or the tabulation with one entry of a
    differential or an action matrix corrupted."""
    free = draw(free_modules())
    kind = draw(st.sampled_from(["free", "tabulated", "corrupt"]))
    if kind == "free":
        return free
    t = tabulate(free)
    if kind == "tabulated":
        return t
    d_mats = {k: t.differential_matrix(k) for k in range(t.cap)}
    act_mats = {
        (i, k): t.action_matrix(i, k)
        for i in range(1, min(t.cap, t.algebra.cap) + 1)
        for k in range(t.cap - i + 1)
    }
    blocks = [("d", k) for k, m in d_mats.items() if m.rows and m.cols]
    blocks += [("act", ik) for ik, m in act_mats.items() if m.rows and m.cols]
    assume(blocks)
    which, key = draw(st.sampled_from(blocks))
    table = d_mats if which == "d" else act_mats
    table[key] = _corrupt(draw, table[key])
    labels = {k: t.basis_labels(k) for k in range(t.cap + 1)}
    return TabulatedDgModule(t.algebra, t.cap, labels, d_mats, act_mats)


@st.composite
def maps(draw):
    """A map between free modules from generator images (a chain map when it
    multiplies by an algebra basis element, random otherwise), the same map
    between their tabulations, or either with one degree's sign flipped."""
    src = draw(free_modules())
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
        tgt = draw(free_modules(alg, prefix="t"))
        p = draw(st.integers(-1, 3))
        coeffs = st.sampled_from([*COEFFS, Q(0)])
        images = {
            name: [draw(coeffs) for _ in range(tgt.dim(deg + p))]
            for name, deg in zip(src.gen_names, src.gen_degrees)
            if 0 <= deg + p <= tgt.cap
        }
    phi = map_from_generator_images(src, tgt, p, images)
    source, target = src, tgt
    if draw(st.booleans()):
        source, target = tabulate(src), tabulate(tgt)
    mats = dict(phi.mats)
    if mats and draw(st.booleans()):
        k = draw(st.sampled_from(sorted(mats)))
        mats[k] = mats[k].scale(-1)
    return DgModuleMap(source, target, p, mats)


# ---- the comparisons --------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(modules())
def test_module_verifier_matches_the_kron_reference(module):
    assert verify_dgmodule(module) == reference_verify_dgmodule(module)


@settings(max_examples=80, deadline=None)
@given(maps())
def test_map_verifier_matches_the_kron_reference(phi):
    assert phi.verify() == reference_verify_map(phi)


def test_the_corruptions_are_caught():
    """One broken entry of each kind fails both verifiers alike."""
    alg = ALGEBRAS["u2v3"]
    free = FreeDgModule(alg, [("z", 0), ("w", 1)], {"w": {"z": "u"}}, cap=CAP)
    t = tabulate(free)
    d_mats = {k: t.differential_matrix(k) for k in range(t.cap)}
    act_mats = {
        (i, k): t.action_matrix(i, k) for i in range(1, t.cap + 1) for k in range(t.cap - i + 1)
    }
    labels = {k: t.basis_labels(k) for k in range(t.cap + 1)}
    bad_d = dict(d_mats)
    bad_d[1] = d_mats[1].scale(2)
    bad_act = dict(act_mats)
    bad_act[(2, 0)] = act_mats[(2, 0)].scale(-1)
    for d, act in ((bad_d, act_mats), (d_mats, bad_act)):
        broken = TabulatedDgModule(alg, t.cap, labels, d, act)
        report = verify_dgmodule(broken)
        assert not report.ok and report == reference_verify_dgmodule(broken)

    mono = alg.basis(2)[0]
    images = {
        name: free.combination_vector({gi: {mono: Q(1)}}, deg + 2)
        for gi, (name, deg) in enumerate(zip(free.gen_names, free.gen_degrees))
    }
    phi = map_from_generator_images(free, free, 2, images)
    assert phi.verify().ok
    mats = dict(phi.mats)
    mats[1] = mats[1].scale(-1)
    flipped = DgModuleMap(free, free, 2, mats)
    report = flipped.verify()
    assert not report.ok and report == reference_verify_map(flipped)


def test_a_map_between_modules_over_different_algebras_is_rejected():
    """The Kronecker factor of A^2 has the source algebra's size, which the
    target's action does not have: both verifiers refuse the product."""
    src = FreeDgModule(SullivanPresentation([("e", 2)], {}, cap=4), [("z", 0)], cap=4)
    tgt = FreeDgModule(ALGEBRAS["e2f2"], [("y", 0)], cap=4)
    phi = DgModuleMap(src, tgt, 0, {0: RatMatrix.identity(1)})
    messages = []
    for verify in (DgModuleMap.verify, reference_verify_map):
        with pytest.raises(ValidationError, match="cannot multiply") as err:
            verify(phi)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
