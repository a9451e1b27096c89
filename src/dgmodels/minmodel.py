"""Minimal models of dg modules by successive Hirsch extensions.

A minimal extension of a free module M is built stage by stage: at stage
(n, q) the obstruction space V(n, q) is the degree-(n+1) cohomology of
the relative complex of the current quotient map rho, new degree-n
generators v are adjoined with dv = t_v and rho(v) = x_v for a chosen
cocycle section (t_v, x_v), and the stage degree advances once the
obstruction space is empty.  The result factors phi: M -> X as a
minimal extension followed by a quasi-isomorphism; with M = 0 it is the
minimal model of X.

The same stage structure drives the other constructions here: sections
of a quasi-isomorphism onto a minimal module, models of morphisms
together with their comparison homotopies, and basic data assembled and
certified from tabulated complexes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .action import DEFAULT_DEGREE, EULER_DEGREES, VARIANTS, BasicData, _orbit_module_failure
from .cdga import SullivanPresentation
from .dgmodule import (
    Combination,
    DgModule,
    DgModuleMap,
    FreeDgModule,
    MinimalModelResult,
    algebra_module,
    compose,
    generator_image,
    identity_map,
    induced_map,
    is_homotopy,
    map_from_generator_images,
    maps_equal,
    module_cohomology,
    verify_minimal,
)
from .errors import (
    DegreeWindowError,
    InconclusiveWindowError,
    PreconditionError,
    ValidationError,
)
from .linalg import (
    GradedDims,
    RatMatrix,
    add_term,
    as_q,
    cohomology_at,
    cohomology_count,
    times_kron,
    unit_vec,
)

Vector = tuple[Fraction, ...]

# Most batches one stage may adjoin before the tower gives up on the window.
MAX_BATCHES = 64

NO_RETRACTION = (
    "no retraction onto the minimal module: the target does not split "
    "off the image as an A-module summand"
)


def _relative_d(rho: DgModuleMap, k: int) -> RatMatrix:
    """Differential of the relative complex of rho at position k.

    The complex has C^k = N^k + X^{k-1} and d(t, x) = (dt, rho t - dx).
    """
    n_mod, x_mod = rho.source, rho.target
    split = n_mod.dim(k)
    rows = list(n_mod.differential_matrix(k)._nz)
    dx_rows = x_mod.differential_matrix(k - 1)._nz
    for rho_row, dx_row in zip(rho.matrix(k)._nz, dx_rows, strict=True):
        rows.append({**rho_row, **{split + c: -x for c, x in dx_row.items()}})
    return RatMatrix._make(len(rows), split + x_mod.dim(k - 1), rows)


def relative_cohomology(
    rho: DgModuleMap, n: int, dims: dict[int, int], mats: dict[int, RatMatrix], count: int
) -> tuple[RatMatrix, RatMatrix]:
    """Obstruction space V(n) = H^{n+1} of the relative complex of rho, from
    the dims of its degrees n..n+2, its differentials D_n and D_{n+1} and
    the rank count `cohomology_count` made of them.

    Returns the representatives' row blocks T over N^{n+1} and X over X^n,
    one basis class v a column: column v of each is a section pair (t_v,
    x_v) with d t_v = 0 and rho t_v = d x_v, and a stage-n generator v is
    adjoined with dv = t_v and rho(v) = x_v.
    """
    reps = cohomology_at(dims, mats, n + 1, count).representatives
    split = rho.source.dim(n + 1)
    return (
        RatMatrix._make(split, reps.cols, reps._nz[:split]),
        RatMatrix._make(reps.rows - split, reps.cols, reps._nz[split:]),
    )


class KSState(NamedTuple):
    """One step of the extension tower: rho from the current module to the
    target, and the stage.

    rel holds the relative differentials D_0, D_1, ... of rho that earlier
    steps built and that rho's batches since have not changed: at least
    D_0 .. D_{n-1}, and D_n too when the stage before adjoined nothing.
    """

    n_cap: int
    rho: DgModuleMap
    n: int
    q: int
    batches: tuple[tuple[int, int, tuple[str, ...]], ...] = ()
    rel: tuple[RatMatrix, ...] = ()

    @property
    def done(self) -> bool:
        return self.n >= self.n_cap


def _fresh_name(taken: set[str], base: str) -> str:
    """base, with x appended until it is not taken; the name is then taken."""
    name = base
    while name in taken:
        name += "x"
    taken.add(name)
    return name


def _extend(
    module: FreeDgModule,
    names: Sequence[str],
    degree: int,
    diffs: Sequence[Combination],
    stage: tuple[int, int],
) -> FreeDgModule:
    """The module with degree-`degree` generators `names` appended, d(names[j]) = diffs[j],
    checked by FreeDgModule._adjoin.

    The new module shares the old generator table, so only the new
    generators are checked, and starts with every cache empty: the next step
    builds the bases and differentials it reads, which on the benchmark's
    ks_random workload costs no measurable time.
    """
    big = FreeDgModule(module.algebra, (), cap=module.cap)
    big.gen_names, big.gen_degrees = module.gen_names, module.gen_degrees
    big.gen_diffs, big.stages = module.gen_diffs, module.stages
    big._index, big._dims = module._index, module._dims
    return big._adjoin(names, (degree,) * len(names), diffs, (stage,) * len(names))


def ks_step(state: KSState) -> KSState:
    """Advance the tower one batch: adjoin V(n, q+1) or move to stage n+1.

    The rank count of H^{n+1} of the relative complex decides which; only a
    positive count builds the section pairs, from the same two matrices and
    the same count, and reads the new generators off their T and X blocks.
    The tower only appends.  A batch extends the module and rho: below
    degree n both keep their matrices, and from n up rho gains the new basis
    elements' columns, one times_kron a degree.  So D_k for k < n - 1 stays,
    D_{n-1} only gains the zero rows of the new generators, and D_n and
    D_{n+1} are built again; a stage that adjoins nothing hands both on.
    """
    if state.done:
        return state
    rho, n, rel = state.rho, state.n, state.rel
    dims = {k: rho.source.dim(k) + rho.target.dim(k - 1) for k in (n, n + 1, n + 2)}
    d_n = rel[n] if len(rel) > n else _relative_d(rho, n)
    mats = {n: d_n, n + 1: _relative_d(rho, n + 1)}
    count = cohomology_count(dims, mats, n + 1)
    if not count:
        return KSState(state.n_cap, rho, n + 1, 0, state.batches, (*rel[:n], d_n, mats[n + 1]))
    if state.q >= MAX_BATCHES:
        raise InconclusiveWindowError(
            f"stage {n} still has {count} obstruction classes after {state.q} batches"
        )
    t_mat, x_mat = relative_cohomology(rho, n, dims, mats, count)
    module, x_mod = rho.source, rho.target
    q = state.q + 1
    taken = set(module.gen_names)
    names = [_fresh_name(taken, f"v{n}_{q}_{k}") for k in range(count)]
    combs = [module.vector_combination(t_mat.col(k), n + 1) for k in range(count)]
    bigger = _extend(module, names, n, combs, (n, q))
    # rho(a.v) = a.x_v, with no sign as rho has degree 0: at degree n + i,
    # times_kron(action, I, X) holds the columns (a, v) A-major, as in
    # map_from_generator_images, and the new basis lists them (v, a)
    blocks = dict(rho.mats)
    for k in range(n, rho.window().stop):
        if dim_a := module.algebra.dim(k - n):
            act, ident = x_mod.action_matrix(k - n, n), RatMatrix.identity(dim_a)
            new = times_kron(act, ident, x_mat)
            rows = [{c % count * dim_a + c // count: x for c, x in r.items()} for r in new._nz]
            blocks[k] = rho.matrix(k).hstack(RatMatrix._make(new.rows, new.cols, rows))
    if n:
        # the rows of D_{n-1} at N^n gain the new generators, after the old ones
        rel = (*rel[: n - 1], rel[n - 1].with_zero_rows(module.dim(n), len(names)))
    return KSState(
        state.n_cap,
        DgModuleMap(bigger, x_mod, 0, blocks, name="rho"),
        n,
        q,
        state.batches + ((n, q, tuple(names)),),
        rel,
    )


def _h0_kernel_labels(phi: DgModuleMap) -> list[str]:
    """Labels of H^0 classes of the source killed by phi, if any."""
    if phi.source.dim(0) == 0 or not (h_src := module_cohomology(phi.source, 0)).betti:
        return []
    k = induced_map(phi, h_src, module_cohomology(phi.target, 0)).kernel_basis()
    return [" + ".join(f"{c}*[{i}]" for i, c in enumerate(k.col(j)) if c) for j in range(k.cols)]


def _with_cap(module: FreeDgModule, cap: int) -> FreeDgModule:
    """The free module on module's generator table, with this cap."""
    out = FreeDgModule(module.algebra, (), cap=cap)
    return out._adjoin(module.gen_names, module.gen_degrees, module.gen_diffs, module.stages)


def minimal_factorization(phi: DgModuleMap, n_cap: int | None = None) -> MinimalModelResult:
    """Factor phi: M -> X through a minimal extension of M.

    Requires phi of degree 0 with free source and H^0(phi) injective.
    The result certifies rho_*: H^i -> H^i as an isomorphism for
    i < n_cap and a monomorphism at n_cap; the algebra cap must reach
    n_cap + 1 so the extension's top differentials stay in window.
    """
    source, target = phi.source, phi.target
    if phi.degree != 0:
        raise ValidationError("can only factor degree-0 morphisms")
    if not isinstance(source, FreeDgModule):
        raise ValidationError("factorization needs a free source module")
    algebra = source.algebra
    if n_cap is None:
        n_cap = min(target.cap, algebra.cap - 1)
    if n_cap < 1:
        raise ValidationError("factorization window must reach degree 1")
    if algebra.cap < n_cap + 1:
        raise ValidationError(
            f"algebra cap {algebra.cap} cannot support window {n_cap}; "
            f"need at least {n_cap + 1}"
        )
    if target.cap < n_cap:
        raise ValidationError(
            f"target cap {target.cap} is below the requested window {n_cap}"
        )
    for name, deg in zip(source.gen_names, source.gen_degrees):
        if deg > min(target.cap, n_cap + 1):
            raise ValidationError(
                f"source generator {name} of degree {deg} exceeds the window"
            )

    killed = _h0_kernel_labels(phi)
    if killed:
        raise PreconditionError(
            "H^0 of the morphism is not injective; killed classes: "
            + "; ".join(killed)
        )

    base = _with_cap(source, n_cap + 1)
    images = {name: generator_image(phi, i) for i, name in enumerate(source.gen_names)}
    rho = map_from_generator_images(base, target, 0, images, name="rho")
    state = KSState(n_cap=n_cap, rho=rho, n=0, q=0)
    while not state.done:
        state = ks_step(state)

    betti_model, betti_target, mono_degree = certify_window(state.rho, n_cap, state.rel)
    return MinimalModelResult(
        module=state.rho.source,
        rho=state.rho,
        window=n_cap - 1,
        mono_degree=mono_degree,
        betti_model=betti_model,
        betti_target=betti_target,
        batches=state.batches,
    )


def certify_window(
    rho: DgModuleMap, n_cap: int, rel: Sequence[RatMatrix] = ()
) -> tuple[GradedDims, GradedDims, int | None]:
    """Certify rho: N -> X in the window by rank counts of its relative complex.

    C^k = N^k + X^{k-1} with D(t, x) = (dt, rho t - dx), so that
    D^2(t, x) = (d^2 t, rho dt - d rho t + d^2 x): D_k D_{k-1} = 0 for all
    k <= n_cap checks d_N and d_X and that rho is a chain map out of each
    degree below n_cap.  Then 0 -> X[-1] -> C -> N -> 0 is exact with
    connecting map rho_*, and its long exact sequence (Felix-Halperin-Thomas,
    GTM 205, section 6) ... -> H^{k-1}(N) -> H^{k-1}(X) -> H^k(C) -> H^k(N)
    -> H^k(X) -> ... gives the theorem: if the rank counts
    dim C^k - rank D_k - rank D_{k-1} vanish for all k <= n_cap, rho_* is an
    isomorphism below n_cap and one-to-one at n_cap into X^{n_cap} modulo
    boundaries.  When X reaches degree n_cap + 1, the chain condition out of
    n_cap makes that a monomorphism into H^{n_cap}(X), and n_cap is returned
    as the monomorphism degree (else None), after the Betti tables of N and
    X below n_cap, which are rank counts and must agree.  Their d^2 = 0 is
    covered by the D_k D_{k-1} products.  rel may hold D_0, D_1, ... as the
    tower built them from this rho, with their rank counts; the rest are
    built here.
    """
    n_mod, x_mod = rho.source, rho.target
    dims = {j: n_mod.dim(j) + x_mod.dim(j - 1) for j in range(n_cap + 2)}
    d_prev = None
    for k in range(n_cap + 1):
        d_k = rel[k] if k < len(rel) else _relative_d(rho, k)
        if count := cohomology_count(dims, {k - 1: d_prev, k: d_k}, k):
            raise ValidationError(f"window verification failed at degree {k}: rank count {count}")
        d_prev = d_k
    mono_degree = n_cap if x_mod.cap >= n_cap + 1 else None
    if mono_degree is not None and (
        x_mod.differential_matrix(n_cap) * rho.matrix(n_cap)
        != rho.matrix(n_cap + 1) * n_mod.differential_matrix(n_cap)
    ):
        raise ValidationError(f"window verification failed: rho is no chain map at degree {n_cap}")
    betti_model, betti_target = _rank_betti(n_mod, n_cap), _rank_betti(x_mod, n_cap)
    if betti_model != betti_target:
        raise ValidationError("window verification failed: the Betti tables differ")
    return betti_model, betti_target, mono_degree


def _rank_betti(module: DgModule, n_cap: int) -> GradedDims:
    """Betti numbers in degrees below n_cap, dim M^k - rank d_k - rank d_{k-1}.
    No d o d product is formed: certify_window's D_k D_{k-1} = 0 for k <= n_cap
    already checked d^2 = 0 on N and X through degree n_cap."""
    ranks = [0, *(module.differential_matrix(k).rank() for k in range(n_cap))]
    return GradedDims({k: module.dim(k) - ranks[k + 1] - ranks[k] for k in range(n_cap)}, n_cap - 1)


def zero_module(algebra: SullivanPresentation, cap: int | None = None) -> FreeDgModule:
    return FreeDgModule(algebra, [], {}, cap=cap)


def zero_map(source: DgModule, target: DgModule, degree: int) -> DgModuleMap:
    return DgModuleMap(source, target, degree, {}, name="0")


def minimal_model(module: DgModule, n_cap: int | None = None) -> MinimalModelResult:
    """Minimal model of a dg module: the factorization of 0 -> module."""
    algebra = module.algebra
    if n_cap is None:
        n_cap = min(module.cap, algebra.cap - 1)
    zero = zero_module(algebra, cap=n_cap + 1)
    return minimal_factorization(zero_map(zero, module, 0), n_cap=n_cap)


def _ks_order(module: FreeDgModule) -> list[int]:
    """Generator indices sorted by derived stage, dependencies first."""
    report = verify_minimal(module)
    report.raise_if_failed()
    keyed = [
        (module.gen_degrees[i], report.stages[module.gen_names[i]][1], i)
        for i in range(module.gen_count)
    ]
    return [i for _, _, i in sorted(keyed)]


def _retraction(rho: DgModuleMap) -> DgModuleMap:
    """Retraction sigma: X -> N with sigma . rho = id for a quis rho: N -> X.

    sigma is found as one exact linear system: per-degree matrices
    constrained to be a chain map, to commute with multiplication by each
    algebra generator, and to restrict to the identity along rho.  A
    solution exists whenever X splits off rho(N) as an A-module summand,
    in particular when X is free.

    Where rho_k is square, non-empty and invertible, sigma_k rho_k = id
    forces sigma_k = rho_k^-1, which goes to the right-hand side (no other
    block is inverted); a row left without unknowns must read 0 = 0.  The
    result is the whole system's solution: those rows are invertible on
    sigma_k's columns and zero elsewhere, so these columns are pivots, and
    every other column keeps its pivot or free status and value.
    """
    n_mod, x_mod = rho.source, rho.target
    algebra = n_mod.algebra
    top = min(n_mod.cap, x_mod.cap)
    dn = [n_mod.dim(k) for k in range(top + 1)]
    dx = [x_mod.dim(k) for k in range(top + 1)]
    square = [k for k in range(top + 1) if dn[k] == dx[k] > 0]
    known = {k: inv for k in square if (inv := rho.matrix(k).inverse()) is not None}
    offsets, total = {}, 0
    for k in range(top + 1):
        if k not in known:
            offsets[k] = total
            total += dn[k] * dx[k]

    # the unknown sigma_k[r, c] is column offsets[k] + r * dx[k] + c; rows are
    # written from the stored row dicts of the blocks and their transposes
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []

    def equation(row: dict[int, Fraction], b: Fraction) -> None:
        """One row; without unknowns it is checked, not kept."""
        if row:
            rows.append(row)
            rhs.append(b)
        elif b:
            raise PreconditionError(NO_RETRACTION)

    def commute(lo: int, hi: int, b: RatMatrix, c: RatMatrix) -> None:
        """Rows of sigma_hi . B - C . sigma_lo = 0, from B's columns and C's rows."""
        s_hi, s_lo = known.get(hi), known.get(lo)
        if s_hi is not None and s_lo is not None:
            if s_hi * b != c * s_lo:
                raise PreconditionError(NO_RETRACTION)
            return
        # the known side's entries are the right-hand side
        fixed = c * s_lo if s_lo is not None else -(s_hi * b) if s_hi is not None else None
        b_cols, c_rows = b.transpose()._nz, c._nz
        for r in range(dn[hi]):
            known_row = fixed._nz[r] if fixed is not None else {}
            for col in range(dx[lo]):
                row = {}
                if s_hi is None:
                    row = {offsets[hi] + r * dx[hi] + t: x for t, x in b_cols[col].items()}
                if s_lo is None:
                    for s, y in c_rows[r].items():
                        row[offsets[lo] + s * dx[lo] + col] = -y
                equation(row, known_row.get(col, 0))

    for k in offsets:
        # sigma_k . rho_k = id on N^k
        rho_cols = rho.matrix(k).transpose()._nz
        for r in range(dn[k]):
            base = offsets[k] + r * dx[k]
            for j in range(dn[k]):
                equation({base + t: x for t, x in rho_cols[j].items()}, 1 if r == j else 0)
    for k in range(top):
        # sigma_{k+1} . d = d . sigma_k
        commute(k, k + 1, x_mod.differential_matrix(k), n_mod.differential_matrix(k))
    for gi, gdeg in enumerate(algebra.degrees):
        if gdeg > top:
            continue
        mono = tuple(1 if j == gi else 0 for j in range(len(algebra.names)))
        at, dim_g = algebra.basis_index(gdeg)[mono], algebra.dim(gdeg)
        e_g = RatMatrix._make(dim_g, 1, [{0: 1} if r == at else {} for r in range(dim_g)])
        for k in range(top - gdeg + 1):
            if not (dn[k + gdeg] and dx[k]):
                continue
            # sigma_{k+g} . (g . -) = (g . -) . sigma_k, each action times e_g (x) I
            x_act = times_kron(x_mod.action_matrix(gdeg, k), e_g, RatMatrix.identity(dx[k]))
            n_act = times_kron(n_mod.action_matrix(gdeg, k), e_g, RatMatrix.identity(dn[k]))
            commute(k, k + gdeg, x_act, n_act)

    sol = RatMatrix._make(len(rows), total, rows).solve(rhs) if total else ()
    if sol is None:
        raise PreconditionError(NO_RETRACTION)
    mats = dict(known)
    for k in offsets:
        at = [offsets[k] + r * dx[k] for r in range(dn[k] + 1)]
        block = [{c: as_q(x) for c, x in enumerate(sol[a:b]) if x} for a, b in zip(at, at[1:])]
        mats[k] = RatMatrix._make(dn[k], dx[k], block)
    sigma = DgModuleMap(x_mod, n_mod, 0, mats, name="sigma")
    # sigma . rho = id, degree by degree over the window both maps share
    for k in range(top + 1):
        if sigma.matrix(k) * rho.matrix(k) != RatMatrix.identity(dn[k]):
            raise ValidationError("constructed retraction fails sigma . rho = id")
    return sigma


def apply_images(
    source: FreeDgModule, target: DgModule, degree: int,
    images: Mapping[int, Mapping[int, Fraction]], comb: Combination,
) -> dict[int, Fraction]:
    """The nonzero coordinates of phi(comb), for the A-linear map phi of this
    degree with these generator images.

    images maps a generator index to its image's nonzero coordinates; a
    generator without one maps to zero.  c.g, for c in A^i, goes to
    (-1)^{i degree} times_kron(action(i, t), c, image(g)) with c and image(g)
    as columns, t = |g| + degree: the unit's action is the identity.
    """
    algebra = source.algebra
    out: dict[int, Fraction] = {}
    for j, poly in comb.items():
        img = images.get(j)
        if not img:
            continue
        i, t = algebra.poly_degree(poly), source.gen_degrees[j] + degree
        sign = -1 if (i * degree) % 2 else 1
        c = RatMatrix.from_cols([[sign * poly.get(m, 0) for m in algebra.basis(i)]])
        v = RatMatrix.from_cols([[img.get(s, 0) for s in range(target.dim(t))]])
        for r, x in enumerate(times_kron(target.action_matrix(i, t), c, v).col(0)):
            if x:
                add_term(out, r, x)
    return out


def lift_section(rho: DgModuleMap) -> DgModuleMap:
    """Section or retraction of a quasi-isomorphism against a minimal module.

    With rho: X -> N and N free minimal, builds sigma: N -> X with
    rho(sigma) = id exactly, one generator at a time in stage order:
    sigma(v) solves d(sigma v) = sigma(dv) and rho(sigma v) = v
    simultaneously.  With the minimal module as the source, rho: N -> X,
    builds the retraction sigma: X -> N with sigma(rho) = id instead.
    """
    if rho.degree != 0:
        raise ValidationError("sections exist for degree-0 morphisms")
    x_mod, n_mod = rho.source, rho.target
    if not (isinstance(n_mod, FreeDgModule) and verify_minimal(n_mod).ok):
        if isinstance(x_mod, FreeDgModule) and verify_minimal(x_mod).ok:
            return _retraction(rho)
        raise ValidationError("section needs a free minimal module at one end")
    order = _ks_order(n_mod)
    top_gen = max((n_mod.gen_degrees[i] for i in order), default=0)
    if top_gen + 1 > x_mod.cap or top_gen > n_mod.cap:
        raise ValidationError(
            f"source cap {x_mod.cap} cannot host sections of degree-{top_gen} "
            "generators"
        )
    unit = n_mod.algebra.unit_mono()
    images: dict[int, dict[int, Fraction]] = {}
    sections: dict[str, Vector] = {}
    for i in order:
        n = n_mod.gen_degrees[i]
        chain = apply_images(n_mod, x_mod, 0, images, n_mod.gen_diffs[i])
        rhs = [chain.get(r, 0) for r in range(x_mod.dim(n + 1))]
        rhs += unit_vec(n_mod.dim(n), n_mod.basis_index(n)[(i, unit)])
        sol = x_mod.differential_matrix(n).vstack(rho.matrix(n)).solve(rhs)
        if sol is None:
            raise PreconditionError(
                f"no section through {n_mod.gen_names[i]}: "
                "the morphism is not a quasi-isomorphism onto this module"
            )
        images[i] = {s: x for s, x in enumerate(sol) if x}
        sections[n_mod.gen_names[i]] = sol
    sigma = map_from_generator_images(n_mod, x_mod, 0, sections, name="sigma")
    if not maps_equal(compose(rho, sigma), identity_map(n_mod)):
        raise ValidationError("constructed section fails rho . sigma = id")
    return sigma


def model_of_morphism(
    phi: DgModuleMap, rho_m: DgModuleMap, rho_n: DgModuleMap
) -> tuple[DgModuleMap, DgModuleMap]:
    """Model phi: M -> N on minimal models M', N' of its ends.

    Returns (phi', h) with phi': M' -> N' of the same degree and
    h: M' -> N a homotopy between phi . rho_m and rho_n . phi', so
    (-1)^p dh + hd = rho_n phi' - phi rho_m.  Both are built one
    generator at a time by solving the chain condition for phi' jointly
    with the homotopy condition in the target.
    """
    if rho_m.degree != 0 or rho_n.degree != 0:
        raise ValidationError("models map by degree-0 quasi-isomorphisms")
    if rho_m.target is not phi.source or rho_n.target is not phi.target:
        raise ValidationError("model maps must land in the ends of phi")
    m_min, n_min = rho_m.source, rho_n.source
    n_mod = phi.target
    if not isinstance(m_min, FreeDgModule) or not isinstance(n_min, FreeDgModule):
        raise ValidationError("both models must be free minimal modules")
    p = phi.degree
    sign = -1 if p % 2 else 1
    order = _ks_order(m_min)
    for i in order:
        t = m_min.gen_degrees[i] + p
        if t + 1 > n_min.cap or t > n_mod.cap:
            raise ValidationError(
                f"model caps cannot host the image of {m_min.gen_names[i]}: "
                f"need model cap >= {t + 1} and target cap >= {t}"
            )
    images_phi: dict[int, dict[int, Fraction]] = {}
    images_h: dict[int, dict[int, Fraction]] = {}
    named_phi: dict[str, Vector] = {}
    named_h: dict[str, Vector] = {}
    for i in order:
        n, name = m_min.gen_degrees[i], m_min.gen_names[i]
        dv = m_min.gen_diffs[i]
        chain = apply_images(m_min, n_min, p, images_phi, dv)
        h_dv = apply_images(m_min, n_mod, p - 1, images_h, dv)
        phi_rho_v = phi.matrix(n).apply(generator_image(rho_m, i))
        rhs = [sign * chain.get(r, 0) for r in range(n_min.dim(n + 1 + p))]
        rhs += [x + h_dv.get(r, 0) for r, x in enumerate(phi_rho_v)]
        # y = phi'(v) and z = h(v) solve d y = (-1)^p phi'(dv) and
        # rho_n y - (-1)^p d z = phi rho_m(v) + h(dv): the relative differential
        # of rho_n, solved for (y, (-1)^p z)
        sol = _relative_d(rho_n, n + p).solve(rhs)
        if sol is None:
            raise PreconditionError(
                f"no model through {name}: "
                "check that both comparison maps are quasi-isomorphisms"
            )
        dim_y = n_min.dim(n + p)
        named_phi[name], named_h[name] = sol[:dim_y], tuple(sign * x for x in sol[dim_y:])
        images_phi[i] = {s: x for s, x in enumerate(named_phi[name]) if x}
        images_h[i] = {s: x for s, x in enumerate(named_h[name]) if x}
    phi_prime = map_from_generator_images(m_min, n_min, p, named_phi, name="phi'")
    h_map = map_from_generator_images(m_min, n_mod, p - 1, named_h, name="h")
    return phi_prime, h_map


# ---- assembly from tabulated complexes --------------------------------------


def from_complexes(
    orbit_quis: DgModuleMap,
    inclusion_map: DgModuleMap,
    euler_map: DgModuleMap,
    max_degree: int = DEFAULT_DEGREE,
    fixed_set_empty: bool = False,
    variant: str = "circle",
    base_simply_connected: bool = True,
    fixed_components: int | None = None,
    name: str = "",
) -> BasicData:
    """Basic data built and certified from tabulated stand-ins for the orbit complexes.

    orbit_quis is a quasi-isomorphism from the algebra-as-module onto the
    orbit complex X_B; inclusion_map (degree 0) and euler_map (degree 2, or
    4 for the semifree variant) share a source complex X standing in for the
    relative orbit complex and land in X_B.  X is replaced by its minimal
    model M, with rho_M: M -> X, and each structure map phi of degree p is
    transported to phi': M -> N, N the algebra as a module and rho_N: N -> X_B
    orbit_quis rebuilt from its unit image, with a homotopy h between
    phi . rho_M and rho_N . phi'.

    The reports read the cone of each phi' in degrees n up to its window.
    [[rho_N, h], [0, rho_M]] maps the long exact sequence H^{n-p}(M) ->
    H^n(N) -> H^n(cone phi') -> H^{n-p+1}(M) -> H^{n+1}(N) to that of the
    cone of phi, so by the five lemma (Felix-Halperin-Thomas, GTM 205,
    section 6) the two cones agree in degree n once phi is a chain map, h a
    homotopy, rho_M an isomorphism on H^{n-p} and H^{n-p+1}, and rho_N an
    isomorphism on H^n and one-to-one on H^{n+1}.  The KS window certificate
    covers rho_M below the model's cap, which is set there, so n - p + 1 is
    inside it; rho_N is certified by the same rank counts through the
    degree after the window.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    d_e = EULER_DEGREES[variant]
    src = orbit_quis.source
    bad = _orbit_module_failure(src, src.algebra)
    if bad:
        raise ValidationError(f"orbit_quis source: {bad}")
    alg = src.algebra
    if inclusion_map.source is not euler_map.source:
        raise ValidationError("inclusion_map and euler_map must share their source complex")
    if inclusion_map.target is not orbit_quis.target or euler_map.target is not orbit_quis.target:
        raise ValidationError("structure maps must land in the orbit complex")
    if inclusion_map.degree != 0:
        raise ValidationError(f"inclusion_map has degree {inclusion_map.degree}; expected 0")
    if euler_map.degree != d_e:
        raise ValidationError(
            f"euler_map has degree {euler_map.degree}; variant {variant} needs {d_e}"
        )

    x_bf, x_b = inclusion_map.source, orbit_quis.target
    relative = minimal_model(x_bf, n_cap=min(max_degree + 1, x_bf.cap, alg.cap - 1))
    # the tower certifies rho_M below its n_cap and builds no generator of that
    # degree, so the model stops there
    m_model = _with_cap(relative.module, relative.window + 1)
    images = {g: generator_image(relative.rho, j) for j, g in enumerate(m_model.gen_names)}
    rho_m = map_from_generator_images(m_model, x_bf, 0, images, name="rho")

    need = max(m_model.gen_degrees, default=0) + d_e
    a_mod = algebra_module(alg, cap=min(alg.cap, max(need, src.cap)))
    unit_img = orbit_quis.matrix(0).col(0)
    rho_n = map_from_generator_images(
        a_mod, x_b, 0, {a_mod.gen_names[0]: unit_img}, name=orbit_quis.name
    )

    i_prime, h_i = model_of_morphism(inclusion_map, rho_m, rho_n)
    e_prime, h_e = model_of_morphism(euler_map, rho_m, rho_n)
    for label, phi, phi_prime, h in (
        ("inclusion", inclusion_map, i_prime, h_i),
        ("euler", euler_map, e_prime, h_e),
    ):
        report = phi.verify()
        if not report.ok:
            raise ValidationError(f"{label} map is not a morphism: {report.failures[0]}")
        if not is_homotopy(h, compose(phi, rho_m), compose(rho_n, phi_prime)):
            raise PreconditionError(
                f"the {label} map's h is not a homotopy between phi . rho_M and rho_N . phi'"
            )
    # the euler cone's cap min(a_mod.cap, m_model.cap + d_e - 1) bounds both
    # cones; rho_N is certified one degree past the window it allows
    top = min(max_degree, a_mod.cap - 1, m_model.cap + d_e - 2) + 1
    if top >= a_mod.cap or top > x_b.cap:
        raise DegreeWindowError(
            f"orbit_quis cannot be certified through degree {top}: "
            "lower max_degree or raise the caps of the algebra and the orbit complex"
        )
    try:
        certify_window(rho_n, top)
    except ValidationError as exc:
        raise ValidationError(f"orbit_quis is not a quasi-isomorphism: {exc}") from None

    data = BasicData(
        algebra=alg,
        relative_model=m_model,
        i_prime=i_prime,
        e_prime=e_prime,
        fixed_set_empty=fixed_set_empty,
        variant=variant,
        base_simply_connected=base_simply_connected,
        fixed_components=fixed_components,
        name=name,
    )
    data.validate().raise_if_failed()
    return data
