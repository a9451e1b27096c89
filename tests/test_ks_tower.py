"""The append-only KS tower and the retraction it feeds.

Random C7-style modules pin the tower's identities and the retraction
against the Kronecker-product assembly it replaced; structural tests pin
what an append-only tower shares between steps and that it builds
representatives only for the batches it adjoins; and the rank certificate
of the window is tested against the per-degree cohomology loop it replaced.
The machine output of `dgmodels minmodel` is pinned in test_output_pins.py.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgmodels import minmodel
from dgmodels.cdga import SullivanPresentation, parse_polynomial
from dgmodels.dgmodule import (
    DgModule,
    DgModuleMap,
    FreeDgModule,
    compose,
    generator_image,
    identity_map,
    induced_map,
    map_from_generator_images,
    maps_equal,
    module_cohomology,
    tabulate,
    verify_minimal,
)
from dgmodels.errors import ValidationError
from dgmodels.linalg import GradedDims, Q, RatMatrix, cohomology_at, kron, vec
from dgmodels.minmodel import (
    KSState,
    certify_window,
    ks_step,
    lift_section,
    minimal_model,
    zero_map,
    zero_module,
)

CAP = 8
COEFFS = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(3), Q(-1, 3)]
ALGEBRAS = {
    "a3": SullivanPresentation([("a", 3)], {}, cap=CAP + 6),
    "e2": SullivanPresentation([("e", 2)], {}, cap=CAP + 6),
    # two generators of one degree, so that the retraction picks the columns
    # of one monomial out of an action matrix
    "e2f2": SullivanPresentation([("e", 2), ("f", 2)], {}, cap=CAP + 6),
}


@st.composite
def c7_modules(draw) -> FreeDgModule:
    """1-3 closed and 0-3 open generators; d hits closed generators only, so
    d^2 = 0 by construction over a zero-differential algebra."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    closed = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    opened = draw(st.lists(st.integers(1, 6), max_size=3))
    gens = [(f"z{i}", d) for i, d in enumerate(closed)]
    gens += [(f"w{i}", d) for i, d in enumerate(opened)]
    diffs = {}
    for i, deg in enumerate(opened):
        row = {}
        for j, zdeg in enumerate(closed):
            cdeg = deg + 1 - zdeg
            if 0 <= cdeg and alg.dim(cdeg) and draw(st.booleans()):
                row[f"z{j}"] = {alg.basis(cdeg)[0]: draw(st.sampled_from(COEFFS))}
        if row:
            diffs[f"w{i}"] = row
    return FreeDgModule(alg, gens, diffs, cap=CAP)


def _mult_matrix(module: DgModule, i: int, mono_index: int, k: int) -> RatMatrix:
    act = module.action_matrix(i, k)
    dim_k = module.dim(k)
    cols = [act.col(mono_index * dim_k + s) for s in range(dim_k)]
    return RatMatrix.from_cols(cols, nrows=module.dim(i + k))


def kron_retraction(rho: DgModuleMap) -> DgModuleMap:
    """The retraction system as it was assembled before, from Kronecker
    products with identities, transposes and negated copies; the reference
    for the assembly that writes each row from the blocks' stored rows."""
    n_mod, x_mod = rho.source, rho.target
    algebra = n_mod.algebra
    top = min(n_mod.cap, x_mod.cap)
    dn = [n_mod.dim(k) for k in range(top + 1)]
    dx = [x_mod.dim(k) for k in range(top + 1)]
    offsets, total = [], 0
    for k in range(top + 1):
        offsets.append(total)
        total += dn[k] * dx[k]
    rows, rhs = [], []

    def add_block(blocks, b, nrows):
        for r in range(nrows):
            row = {}
            for k, blk in blocks.items():
                for c, val in enumerate(blk.row(r)):
                    if val:
                        row[offsets[k] + c] = val
            rows.append(row)
            rhs.append(b[r // b.cols, r % b.cols] if b is not None else Q(0))

    for k in range(top + 1):
        if dn[k]:
            add_block(
                {k: kron(RatMatrix.identity(dn[k]), rho.matrix(k).transpose())},
                RatMatrix.identity(dn[k]),
                dn[k] * dn[k],
            )
    for k in range(top):
        nrows = dn[k + 1] * dx[k]
        if nrows:
            add_block(
                {
                    k: kron(n_mod.differential_matrix(k), RatMatrix.identity(dx[k])),
                    k + 1: kron(
                        RatMatrix.identity(dn[k + 1]), x_mod.differential_matrix(k).transpose()
                    ).scale(Q(-1)),
                },
                None,
                nrows,
            )
    for gi, gdeg in enumerate(algebra.degrees):
        for k in range(top - gdeg + 1):
            nrows = dn[k + gdeg] * dx[k]
            if not nrows:
                continue
            mono = tuple(1 if j == gi else 0 for j in range(len(algebra.names)))
            m_idx = algebra.basis_index(gdeg)[mono]
            add_block(
                {
                    k + gdeg: kron(
                        RatMatrix.identity(dn[k + gdeg]),
                        _mult_matrix(x_mod, gdeg, m_idx, k).transpose(),
                    ),
                    k: kron(
                        _mult_matrix(n_mod, gdeg, m_idx, k), RatMatrix.identity(dx[k])
                    ).scale(Q(-1)),
                },
                None,
                nrows,
            )
    sol = RatMatrix._make(len(rows), total, rows).solve(vec(rhs))
    assert sol is not None
    mats = {}
    for k in range(top + 1):
        if dn[k] and dx[k]:
            mats[k] = RatMatrix(
                dn[k],
                dx[k],
                [sol[offsets[k] + r * dx[k] : offsets[k] + (r + 1) * dx[k]] for r in range(dn[k])],
            )
    return DgModuleMap(x_mod, n_mod, 0, mats, name="sigma")


# X is not minimal here (dw0 = z0 / 2), so rho is not onto and sigma is not
# fixed by sigma . rho = id alone: the A-linearity rows decide it
NOT_MINIMAL = FreeDgModule(
    ALGEBRAS["a3"],
    [("z0", 2), ("w0", 1), ("w1", 4)],
    {"w0": {"z0": "1/2"}, "w1": {"z0": "3*a"}},
    cap=CAP,
)


@settings(max_examples=80, deadline=None)
@given(c7_modules())
@example(NOT_MINIMAL)
def test_tower_preserves_cohomology_and_retraction_matches_reference(module):
    x = tabulate(module)
    result = minimal_model(x)
    assert verify_minimal(result.module).ok
    for n in range(result.window + 1):
        assert module_cohomology(result.module, n).betti == module_cohomology(x, n).betti
    sigma = lift_section(result.rho)
    assert maps_equal(compose(sigma, result.rho), identity_map(result.module))
    assert sigma.verify().ok
    assert maps_equal(sigma, kron_retraction(result.rho))


# The bases where A^1 != 0 or d_A != 0: a module's differential then needs
# cocycle coefficients, and the tower's carried bases and differentials meet
# odd products and the algebra's own differential
COCYCLE_ALGEBRAS = {
    "u2v3": SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): 1}}, cap=CAP + 6),
    "a3u2v3": SullivanPresentation(
        [("a", 3), ("u", 2), ("v", 3)], {"v": {(0, 2, 0): 1}}, cap=CAP + 6
    ),
    "x1y1": SullivanPresentation([("x", 1), ("y", 1)], {}, cap=CAP + 6),
}


@st.composite
def cocycle_modules(draw) -> FreeDgModule:
    """C7-style tables whose coefficients are cocycles of A, drawn from the
    kernel of d_A, so that d^2 = 0 over a base with a differential too."""
    alg = COCYCLE_ALGEBRAS[draw(st.sampled_from(sorted(COCYCLE_ALGEBRAS)))]
    closed = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    opened = draw(st.lists(st.integers(1, 5), max_size=3))
    gens = [(f"z{i}", d) for i, d in enumerate(closed)]
    gens += [(f"w{i}", d) for i, d in enumerate(opened)]
    diffs = {}
    for i, deg in enumerate(opened):
        row = {}
        for j, zdeg in enumerate(closed):
            cdeg = deg + 1 - zdeg
            if cdeg < 0 or not draw(st.booleans()):
                continue
            cocycles = alg.differential_matrix(cdeg).kernel_basis()
            if cocycles:
                v = draw(st.sampled_from(cocycles))
                c = draw(st.sampled_from(COEFFS))
                row[f"z{j}"] = {m: c * x for m, x in zip(alg.basis(cdeg), v) if x}
        if row:
            diffs[f"w{i}"] = row
    return FreeDgModule(alg, gens, diffs, cap=CAP - 1)


def _action_degrees(module: FreeDgModule):
    return [
        (i, k)
        for i in range(1, min(module.cap, module.algebra.cap) + 1)
        for k in range(module.cap - i + 1)
    ]


def _fill_caches(module: FreeDgModule) -> None:
    for i, k in _action_degrees(module):
        module.action_matrix(i, k)
    for n in range(module.cap):
        module_cohomology(module, n)


def _assert_matches_a_fresh_build(module: FreeDgModule) -> None:
    fresh = FreeDgModule(
        module.algebra,
        list(zip(module.gen_names, module.gen_degrees)),
        {
            name: {module.gen_names[j]: p for j, p in module.gen_diffs[i].items()}
            for i, name in enumerate(module.gen_names)
        },
        cap=module.cap,
    )
    for k in range(module.cap + 1):
        assert module.dim(k) == fresh.dim(k) == len(module.basis(k))
        assert module.basis(k) == fresh.basis(k)
        assert module.basis_index(k) == fresh.basis_index(k)
    for k in range(module.cap):
        assert module.differential_matrix(k) == fresh.differential_matrix(k)
        assert module_cohomology(module, k) == module_cohomology(fresh, k)
    for i, k in _action_degrees(module):
        assert module.action_matrix(i, k) == fresh.action_matrix(i, k)


@settings(max_examples=60, deadline=None)
@given(cocycle_modules())
def test_tower_and_retraction_over_bases_with_odd_generators_or_a_differential(module):
    x = tabulate(module)
    n_cap = x.cap - 1
    rho = zero_map(zero_module(x.algebra, cap=x.cap), x, 0)
    state = KSState(n_cap=n_cap, rho=rho, n=0, q=0)
    while not state.done:
        # every cache of the module full; the module a batch extends it to
        # starts with every cache empty
        old = state.rho.source
        _fill_caches(old)
        state = ks_step(state)
        if (new := state.rho.source) is not old:
            assert not (new._basis_cache or new._basis_index_cache or new._diff_cache)
            assert not (new._act_cache or new._coh_cache)
    # the relative differentials the tower carried are the fresh builds
    assert len(state.rel) == n_cap + 1
    for k, d_k in enumerate(state.rel):
        assert d_k == minmodel._relative_d(state.rho, k)
    result = minimal_model(x)
    model = result.module
    assert model.gen_names == state.rho.source.gen_names
    assert verify_minimal(model).ok
    for n in range(result.window + 1):
        assert module_cohomology(model, n).betti == module_cohomology(x, n).betti
    # the bases, differentials, action matrices and cohomology built on the
    # tower's module match a module built from the same table
    for tower in (model, state.rho.source):
        _assert_matches_a_fresh_build(tower)
    sigma = lift_section(result.rho)
    assert maps_equal(compose(sigma, result.rho), identity_map(model))
    assert sigma.verify().ok
    assert maps_equal(sigma, kron_retraction(result.rho))


def _regime_module(alg: SullivanPresentation, seed: int, pair: int | None) -> FreeDgModule:
    """A seeded minimal module: two closed generators of one degree, so that a
    batch adjoins two at once, a third closed one in degree 3 and up to two
    open ones whose differentials have cocycle coefficients of positive
    degree; pair, when given, adds the contractible pair p -> q of degrees
    pair, pair + 1."""
    rng = random.Random(seed)
    closed = [rng.randint(0, 2)] * 2 + [3]
    opened = [rng.randint(2, 4) for _ in range(rng.randint(0, 2))]
    gens = [(f"z{i}", d) for i, d in enumerate(closed)]
    gens += [(f"w{i}", d) for i, d in enumerate(opened)]
    diffs = {}
    for i, deg in enumerate(opened):
        row = {}
        for j, zdeg in enumerate(closed):
            cdeg = deg + 1 - zdeg
            if cdeg >= 2 and (cocycles := alg.differential_matrix(cdeg).kernel_basis()):
                v = rng.choice(cocycles)
                c = rng.choice(COEFFS)
                row[f"z{j}"] = {m: c * x for m, x in zip(alg.basis(cdeg), v) if x}
        if row:
            diffs[f"w{i}"] = row
    if pair is not None:
        gens += [("p", pair), ("q", pair + 1)]
        diffs["p"] = {"q": "1"}
    return FreeDgModule(alg, gens, diffs, cap=6)


def _regime(rho: DgModuleMap) -> str:
    """Whether rho_k is invertible in every degree of the retraction's window
    where N^k or X^k is not 0, in some, or in none."""
    top = min(rho.source.cap, rho.target.cap)
    invertible = [
        rho.matrix(k).inverse() is not None
        for k in range(top + 1)
        if rho.source.dim(k) or rho.target.dim(k)
    ]
    return "every" if all(invertible) else "some" if any(invertible) else "none"


# Over the infinite bases a pair in degree 0 leaves no degree of X without
# it, and one in degree 3 leaves the degrees below: sigma is known below the
# unknown degrees.  Over Lambda(a_3) a pair in degree 0 reaches degrees 0, 1,
# 3 and 4 only, and the closed generator in degree 3 reaches 6: sigma_6 is
# known, and sigma_3 is not.
@pytest.mark.parametrize(
    "base, pair, regime",
    [
        ("e2f2", None, "every"),
        ("e2f2", 3, "some"),
        ("e2f2", 0, "none"),
        ("a3u2v3", None, "every"),
        ("a3u2v3", 3, "some"),
        ("a3u2v3", 0, "none"),
        ("a3", 0, "some"),
    ],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_retraction_and_rho_in_each_regime_of_invertible_degrees(base, pair, regime, seed):
    alg = ALGEBRAS.get(base) or COCYCLE_ALGEBRAS[base]
    x = tabulate(_regime_module(alg, seed, pair))
    result = minimal_model(x)
    rho = result.rho
    assert _regime(rho) == regime
    assert maps_equal(lift_section(rho), kron_retraction(rho))
    # the batches' product-built columns of rho are the A-linear map of its
    # generator images, evaluated one column at a time
    module = rho.source
    images = {name: generator_image(rho, i) for i, name in enumerate(module.gen_names)}
    assert maps_equal(rho, map_from_generator_images(module, x, 0, images))


def _e2_tower_input():
    # over Lambda(e_2): z0 in degree 0 and z1 in degree 2 give batches at
    # stages 0 and 2, and w, with dw = e z1, one at stage 3; the stages in
    # between and after adjoin nothing
    alg = ALGEBRAS["e2"]
    return tabulate(FreeDgModule(alg, [("z0", 0), ("z1", 2), ("w", 3)], {"w": {"z1": "e"}}, cap=CAP))


def test_tower_appends_and_carries_the_relative_differential(monkeypatch):
    x = _e2_tower_input()
    used = []
    original = minmodel.cohomology_count

    def recording(dims, mats, n):
        used.append(mats)
        return original(dims, mats, n)

    monkeypatch.setattr(minmodel, "cohomology_count", recording)
    zero = zero_module(x.algebra, cap=CAP)
    phi = zero_map(zero, x, 0)
    state = KSState(n_cap=CAP - 1, rho=phi, n=0, q=0)
    shared_blocks = carried = grown = 0
    while not state.done:
        old_rho = state.rho
        new = ks_step(state)
        # every relative differential the tower carries is the fresh build
        assert len(new.rel) >= new.n
        for k, d_k in enumerate(new.rel):
            assert d_k == minmodel._relative_d(new.rho, k)
        if len(new.batches) > len(state.batches):
            n = state.n
            assert len(new.rel) == n
            for k in range(n - 1):
                assert new.rel[k] is state.rel[k]
            if n:
                # D_{n-1} only gained zero rows, and kept its echelon form
                assert new.rel[n - 1].rows > state.rel[n - 1].rows
                assert new.rel[n - 1]._rref is state.rel[n - 1]._rref is not None
                grown += 1
            for k in range(n):
                assert new.rho.mats.get(k) is old_rho.mats.get(k)
                shared_blocks += k in old_rho.mats
        elif new.n == state.n + 1 and not new.done:
            # the stage that adjoined nothing counted with the matrices it carries
            assert new.rho is old_rho
            assert used[-1][new.n] is new.rel[new.n]
            ks_step(new)
            assert used[-1][new.n] is new.rel[new.n]
            carried += 1
        state = new
    assert [b[0] for b in state.batches] == [0, 2, 3]
    assert shared_blocks and carried and grown
    assert len(state.rel) == CAP
    assert state.rho.source.gen_names == minimal_model(x, CAP - 1).module.gen_names


@pytest.mark.parametrize(
    "name, degree, diff, message",
    [
        ("w", 2, {}, "module generator names must be distinct"),
        ("v", 2, {"w": "e"}, "d(v) coefficient on w has degree 2, expected 0"),
        ("v", 2, {"w": "1"}, "d(d(v)) is nonzero"),
    ],
    ids=["duplicate_name", "coefficient_degree", "d_squared"],
)
def test_a_tower_batch_is_checked_like_the_constructor(name, degree, diff, message):
    # over Lambda(e_2) with dw = e z1: the batch path and the constructor
    # reject the same table with the same message
    alg = ALGEBRAS["e2"]
    gens = [("z1", 2), ("w", 3)]
    module = FreeDgModule(alg, gens, {"w": {"z1": "e"}}, cap=CAP)
    comb = {module.gen_index(t): parse_polynomial(alg, expr) for t, expr in diff.items()}
    with pytest.raises(ValidationError) as tower:
        minmodel._extend(module, [name], degree, [comb], (degree, 1))
    with pytest.raises(ValidationError) as fresh:
        FreeDgModule(alg, [*gens, (name, degree)], {"w": {"z1": "e"}, name: diff}, cap=CAP)
    assert str(tower.value) == str(fresh.value) == message


def _two_batch_input():
    # over Lambda(t), |t| = 1: dw = t z needs batches (0, 1) and (0, 2)
    alg = SullivanPresentation([("t", 1)], {}, cap=4)
    return tabulate(FreeDgModule(alg, [("z", 0), ("w", 0)], {"w": {"z": "t"}}, cap=4))


@pytest.mark.parametrize(
    "make, stages", [(_e2_tower_input, [0, 2, 3]), (_two_batch_input, [0, 0])]
)
def test_relative_cohomology_runs_once_per_batch(monkeypatch, make, stages):
    counted, built = [], []
    count, cohomology = minmodel.cohomology_count, minmodel.relative_cohomology

    def counting(dims, mats, n):
        counted.append(mats)
        return count(dims, mats, n)

    def building(rho, n, dims, mats, betti):
        # the representatives come from the very matrices just counted, and
        # from their count
        assert mats is counted[-1] and betti == count(dims, mats, n + 1) > 0
        built.append(n)
        return cohomology(rho, n, dims, mats, betti)

    monkeypatch.setattr(minmodel, "cohomology_count", counting)
    monkeypatch.setattr(minmodel, "relative_cohomology", building)
    result = minimal_model(make())
    assert built == [n for n, _, _ in result.batches] == stages


def reference_window_check(rho: DgModuleMap, n_cap: int):
    """The window check `minimal_factorization` ran before it counted ranks:
    per degree, the cohomology of model and target and the rank of rho_*.

    That loop read rho on cocycles only, and at a target cap of n_cap not at
    degree n_cap at all; it could, because the tower's rho is a chain map.
    On any other rho the reference first checks the chain condition out of
    each degree where the rank certificate reads it, and at a target cap of
    n_cap it checks injectivity at n_cap into X^{n_cap} modulo boundaries,
    which the certificate certifies there too.  Returns what the
    certificate returns; raises ValidationError when a check fails.
    """
    module, target = rho.source, rho.target
    top = n_cap if target.cap >= n_cap + 1 else n_cap - 1
    for k in range(top + 1):
        lhs = target.differential_matrix(k) * rho.matrix(k)
        if lhs != rho.matrix(k + 1) * module.differential_matrix(k):
            raise ValidationError(f"rho is no chain map at degree {k}")
    betti_model: list[int] = []
    betti_target: list[int] = []
    mono_degree = None
    for i in range(n_cap):
        h_n = module_cohomology(module, i)
        h_x = module_cohomology(target, i)
        rank = induced_map(rho, h_n, h_x).rank()
        if not (h_n.betti == h_x.betti == rank):
            raise ValidationError(
                f"window verification failed at degree {i}: "
                f"model {h_n.betti}, target {h_x.betti}, rank {rank}"
            )
        betti_model.append(h_n.betti)
        betti_target.append(h_x.betti)
    h_n = module_cohomology(module, n_cap)
    if target.cap >= n_cap + 1:
        h_x = module_cohomology(target, n_cap)
        mono_degree = n_cap
    else:
        dims = {n_cap - 1: target.dim(n_cap - 1), n_cap: target.dim(n_cap)}
        h_x = cohomology_at(dims, {n_cap - 1: target.differential_matrix(n_cap - 1)}, n_cap)
    if induced_map(rho, h_n, h_x).rank() != h_n.betti:
        raise ValidationError(f"window verification failed: not injective at degree {n_cap}")
    return (
        GradedDims({i: b for i, b in enumerate(betti_model) if b}, n_cap - 1),
        GradedDims({i: b for i, b in enumerate(betti_target) if b}, n_cap - 1),
        mono_degree,
    )


def _verdict(check, rho, n_cap):
    try:
        betti_model, betti_target, mono_degree = check(rho, n_cap)
    except ValidationError:
        return "rejected"
    return betti_model.as_list(), betti_target.as_list(), mono_degree


def _zero_generator_image(rho: DgModuleMap, j: int) -> DgModuleMap:
    module = rho.source
    images = {
        name: generator_image(rho, i) if i != j else (0,) * rho.target.dim(deg)
        for i, (name, deg) in enumerate(zip(module.gen_names, module.gen_degrees))
    }
    return map_from_generator_images(module, rho.target, 0, images)


def _zero_column(rho: DgModuleMap, k: int, c: int) -> DgModuleMap:
    mats = {j: rho.matrix(j) for j in rho.window()}
    m = mats[k]
    mats[k] = RatMatrix.from_cols([(0,) * m.rows if j == c else m.col(j) for j in range(m.cols)], nrows=m.rows)
    return DgModuleMap(rho.source, rho.target, 0, mats)


# over Lambda(e_2), dw = e z1 with z1 in degree 2: the model adjoins v with
# dv = e v', and zeroing rho(v) breaks the chain condition although no cocycle
# involves v, so that only the D^2 check sees it; the window ends at
# n_cap = 4, one above v, so that the break is out of degree n_cap - 1
CHAIN_BREAK = FreeDgModule(ALGEBRAS["e2"], [("z1", 2), ("w", 3)], {"w": {"z1": "e"}}, cap=5)


@settings(max_examples=60, deadline=None)
@given(c7_modules(), st.booleans(), st.integers(0, 63), st.integers(0, 1023))
@example(CHAIN_BREAK, False, 1, 0)
@example(CHAIN_BREAK, True, 1, 0)
def test_rank_certificate_agrees_with_the_reference_window_check(module, below, gen, col):
    x = tabulate(module)
    # below: a window below the target's cap, so that a monomorphism degree is claimed
    n_cap = min(x.cap, x.algebra.cap - 1) - below
    result = minimal_model(x, n_cap)
    rho = result.rho
    assert _verdict(certify_window, rho, n_cap) == _verdict(reference_window_check, rho, n_cap)
    assert _verdict(certify_window, rho, n_cap)[2] == result.mono_degree
    mutants = []
    if rho.source.gen_count:
        mutants.append(_zero_generator_image(rho, gen % rho.source.gen_count))
    columns = [(k, c) for k in rho.window() for c in range(rho.source.dim(k))]
    if columns:
        mutants.append(_zero_column(rho, *columns[col % len(columns)]))
    for mutant in mutants:
        verdict = _verdict(certify_window, mutant, n_cap)
        assert verdict == _verdict(reference_window_check, mutant, n_cap)
