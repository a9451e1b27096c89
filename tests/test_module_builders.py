"""The tabulated-module builders against reference builders that ask for
every block.

`tabulate`, `shift` and `cone` ask a module only for the differential and
action blocks whose source, target and algebra degree all have a basis;
every other block is zero, and `TabulatedDgModule` would drop it anyway.
The references below are the loops the builders ran before, which asked
for all (k) and (i, k) blocks of the window: the built modules must be
equal, store the same blocks, and fail with the same error where they fail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmodels.cdga import SullivanPresentation
from dgmodels.dgmodule import (
    DgModuleMap,
    FreeDgModule,
    TabulatedDgModule,
    _cone_differential,
    _cone_window,
    cone,
    identity_map,
    modules_equal,
    shift,
    tabulate,
)
from dgmodels.errors import DegreeWindowError, ValidationError
from dgmodels.linalg import Q, RatMatrix, times_kron

CAP = 8
COEFFS = [Q(1), Q(-1), Q(2), Q(-1, 2), Q(3)]
# C7's algebras, and a two-generator one whose degrees 2 and 3 each hold one
# monomial, so that multiplication by it is a morphism of that degree
ALGEBRAS = [
    SullivanPresentation([("a", 3)], {}, cap=CAP + 4),
    SullivanPresentation([("e", 2)], {}, cap=CAP + 4),
    SullivanPresentation([("a", 3), ("e", 2)], {}, cap=CAP + 4),
]


# ---- the reference builders: every block of the window -----------------------


def reference_tabulate(module):
    cap = module.cap
    labels = {k: module.basis_labels(k) for k in range(cap + 1)}
    d_mats = {k: module.differential_matrix(k) for k in range(cap)}
    act_mats = {}
    for i in range(1, min(cap, module.algebra.cap) + 1):
        for k in range(cap - i + 1):
            act_mats[(i, k)] = module.action_matrix(i, k)
    return TabulatedDgModule(module.algebra, cap, labels, d_mats, act_mats)


def reference_shift(module, p):
    new_cap = module.cap + p
    if new_cap < 0:
        raise DegreeWindowError(f"shift by {p} empties the window of cap {module.cap}")
    for k in range(max(0, -p)):
        if module.dim(k):
            raise DegreeWindowError(
                f"shift by {p} pushes degree {k} below zero (window underflow)"
            )
    sign_d = -1 if p % 2 else 1
    labels = {n: module.basis_labels(n - p) for n in range(new_cap + 1)}
    d_mats = {n: module.differential_matrix(n - p).scale(sign_d) for n in range(new_cap)}
    act_mats = {}
    for i in range(1, min(new_cap, module.algebra.cap) + 1):
        tw = -1 if (i * p) % 2 else 1
        for n in range(new_cap - i + 1):
            act_mats[(i, n)] = module.action_matrix(i, n - p).scale(tw)
    return TabulatedDgModule(module.algebra, new_cap, labels, d_mats, act_mats)


def reference_cone_module(phi):
    cap, n_dims, m_dims = _cone_window(phi, True)
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    algebra = n_mod.algebra
    labels = {
        n: n_mod.basis_labels(n)
        + tuple(f"{lbl}[{1 - p}]" for lbl in m_mod.basis_labels(n - p + 1))
        for n in range(cap + 1)
    }
    ones = [(1,) * m_dims[n] for n in range(cap + 1)]
    d_mats = {n: _cone_differential(phi, n, ones[n], ones[n + 1]) for n in range(cap)}

    def action_block(i, n):
        nn, mn = n_dims[n], m_dims[n]
        id_a = RatMatrix.identity(algebra.dim(i))
        to_n = RatMatrix._make(nn, nn + mn, [{s: 1} for s in range(nn)])
        to_m = RatMatrix._make(mn, nn + mn, [{nn + s: 1} for s in range(mn)])
        tw = -1 if (i * (p - 1)) % 2 else 1
        n_part = times_kron(n_mod.action_matrix(i, n), id_a, to_n)
        return n_part.vstack(times_kron(m_mod.action_matrix(i, n - p + 1), id_a, to_m).scale(tw))

    act_mats = {
        (i, n): action_block(i, n)
        for i in range(1, min(cap, algebra.cap) + 1)
        for n in range(cap - i + 1)
    }
    return TabulatedDgModule(algebra, cap, labels, d_mats, act_mats)


def outcome(build, *args):
    """The built module, or the type and message of the error it raised."""
    try:
        return build(*args)
    except (DegreeWindowError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_same_module(got, want):
    if not isinstance(want, TabulatedDgModule):
        assert got == want
        return
    assert modules_equal(got, want)
    assert set(got.d_mats) == set(want.d_mats)
    assert set(got.act_mats) == set(want.act_mats)
    assert got.labels == want.labels


# ---- C7-style modules ------------------------------------------------------------


@st.composite
def c7_modules(draw, alg=None, prefix=""):
    """1-3 closed and 0-3 open generators; d of an open generator hits closed
    ones only, so d^2 = 0 over these zero-differential algebras.  Drawn as a
    generator table or as its tabulated form."""
    alg = alg or draw(st.sampled_from(ALGEBRAS))
    closed = [(f"{prefix}z{i}", d) for i, d in enumerate(
        draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))]
    opened = [(f"{prefix}w{i}", d) for i, d in enumerate(
        draw(st.lists(st.integers(1, 6), max_size=3)))]
    diffs = {}
    for name, deg in opened:
        row = {}
        for zname, zdeg in closed:
            cdeg = deg + 1 - zdeg
            if 0 <= cdeg and alg.dim(cdeg) and draw(st.booleans()):
                row[zname] = {draw(st.sampled_from(alg.basis(cdeg))): draw(st.sampled_from(COEFFS))}
        if row:
            diffs[name] = row
    module = FreeDgModule(alg, closed + opened, diffs, cap=CAP)
    return tabulate(module) if draw(st.booleans()) else module


@st.composite
def morphisms(draw):
    """The identity of M, a zero map M -> N of degree -1 to 2, or the
    multiplication by a one-monomial algebra degree p on M (degree p)."""
    m = draw(c7_modules())
    alg = m.algebra
    kind = draw(st.sampled_from(("identity", "zero", "multiply")))
    if kind == "identity":
        return identity_map(m)
    if kind == "zero":
        n = draw(c7_modules(alg, prefix="t"))
        return DgModuleMap(m, n, draw(st.integers(-1, 2)), {})
    p = draw(st.sampled_from([d for d in range(1, 4) if alg.dim(d) == 1]))
    mats = {k: m.action_matrix(p, k) for k in range(m.cap - p + 1)}
    return DgModuleMap(m, m, p, mats, name="multiply")


@settings(max_examples=80, deadline=None)
@given(c7_modules())
def test_tabulate_matches_the_every_block_reference(module):
    assert_same_module(tabulate(module), reference_tabulate(module))


@settings(max_examples=80, deadline=None)
@given(c7_modules(), st.sampled_from([-1, 0, 1, 2]))
def test_shift_matches_the_every_block_reference(module, p):
    assert_same_module(outcome(shift, module, p), outcome(reference_shift, module, p))


@settings(max_examples=80, deadline=None)
@given(morphisms())
def test_cone_matches_the_every_block_reference(phi):
    got = outcome(lambda f: cone(f).module, phi)
    assert_same_module(got, outcome(reference_cone_module, phi))


class SpyModule(FreeDgModule):
    """A free module that records the blocks it is asked for."""

    __slots__ = ("asked",)

    def differential_matrix(self, k):
        self.asked.append((k,))
        return super().differential_matrix(k)

    def action_matrix(self, i, k):
        self.asked.append((i, k))
        return super().action_matrix(i, k)


def test_tabulate_asks_only_for_blocks_between_nonempty_degrees():
    """Over Lambda(a_3) only i = 3 has a basis: tabulate asks for no other
    action block, and for no block into or out of an empty degree, while the
    reference asks for every block of the window."""
    alg = ALGEBRAS[0]
    spied = SpyModule(alg, [("z", 1), ("w", 3)], {"w": {"z": {(1,): Q(2)}}}, cap=CAP)
    spied.asked = []
    built = tabulate(spied)
    d_keys = [key[0] for key in spied.asked if len(key) == 1]
    act_keys = [key for key in spied.asked if len(key) == 2]
    assert d_keys == [k for k in range(CAP) if spied.dim(k) and spied.dim(k + 1)] == [3]
    assert act_keys == [(3, k) for k in range(CAP - 2) if spied.dim(k) and spied.dim(k + 3)]
    assert act_keys == [(3, 1), (3, 3)]  # M lives in degrees 1, 3, 4 and 6
    assert set(built.d_mats) <= set(d_keys) and set(built.act_mats) <= set(act_keys)
    spied.asked = []
    assert_same_module(built, reference_tabulate(spied))
    assert len(spied.asked) == CAP + sum(CAP - i + 1 for i in range(1, CAP + 1))


# ---- the checks TabulatedDgModule runs on its blocks ------------------------------


ALG_E = SullivanPresentation([("e", 2)], {}, cap=4)
LABELS = {0: ["x"], 2: ["ex"], 4: ["eex"]}


@pytest.mark.parametrize(
    "d_mats, act_mats, message",
    [
        ({0: RatMatrix.zero(1, 1)}, {}, "differential at degree 0 has wrong shape"),
        ({1: RatMatrix.zero(1, 1)}, {}, "differential at degree 1 has wrong shape"),
        ({4: RatMatrix.zero(0, 1)}, {}, "differential at degree 4 outside [0, 3]"),
        ({-1: RatMatrix.zero(1, 0)}, {}, "differential at degree -1 outside [0, 3]"),
        ({}, {(2, 0): RatMatrix.zero(1, 2)}, "action at (2, 0) has wrong shape"),
        ({}, {(2, 2): RatMatrix.identity(2)}, "action at (2, 2) has wrong shape"),
        ({}, {(2, 3): RatMatrix.zero(0, 0)}, "action key (2, 3) outside the window"),
        ({}, {(0, 0): RatMatrix.identity(1)}, "action key (0, 0) outside the window"),
        ({}, {(2, -1): RatMatrix.zero(1, 0)}, "action key (2, -1) outside the window"),
    ],
)
def test_tabulated_module_rejects_bad_blocks_with_its_messages(d_mats, act_mats, message):
    with pytest.raises(ValidationError) as err:
        TabulatedDgModule(ALG_E, 4, LABELS, d_mats, act_mats)
    assert str(err.value) == message


def test_tabulated_module_keeps_only_nonzero_blocks():
    module = TabulatedDgModule(
        ALG_E, 4, LABELS, {0: RatMatrix.zero(0, 1)},
        {(2, 0): RatMatrix.identity(1), (2, 2): RatMatrix.zero(1, 1)},
    )
    assert module.d_mats == {} and set(module.act_mats) == {(2, 0)}
    assert module.action_matrix(2, 2) is RatMatrix.zero(1, 1)
