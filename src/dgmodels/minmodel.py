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
together with their comparison homotopies, and the induced
quasi-isomorphism between graded cones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .cdga import Poly
from .dgmodule import (
    Combination,
    Cone,
    DgModule,
    DgModuleMap,
    FreeDgModule,
    Homotopy,
    compose,
    cone,
    identity_map,
    induced_map,
    is_homotopy,
    map_from_generator_images,
    maps_equal,
    module_cohomology,
    zero_module,
    zero_map,
)
from .errors import (
    DegreeWindowError,
    InconclusiveWindowError,
    PreconditionError,
    ValidationError,
)
from .linalg import (
    CohomologyData,
    GradedDims,
    Q,
    RatMatrix,
    add_vec,
    cohomology_at,
    kron,
    scale_vec,
    vec,
    zero_vec,
)

Vector = tuple[Fraction, ...]


def _relative_d(rho: DgModuleMap, k: int) -> RatMatrix:
    """Differential of the relative complex of rho at position k.

    The complex has C^k = N^k + X^{k-1} and d(t, x) = (dt, rho t - dx).
    """
    n_mod, x_mod = rho.source, rho.target
    return RatMatrix.block(
        [
            [
                n_mod.differential_matrix(k),
                RatMatrix.zero(n_mod.dim(k + 1), x_mod.dim(k - 1)),
            ],
            [rho.matrix(k), x_mod.differential_matrix(k - 1).scale(Q(-1))],
        ]
    )


def relative_cohomology(
    rho: DgModuleMap, n: int
) -> tuple[CohomologyData, tuple[tuple[Vector, Vector], ...]]:
    """Obstruction space V(n) = H^{n+1} of the relative complex of rho.

    Returns the cohomology data together with one section pair
    (t_v, x_v) per basis class, satisfying d t_v = 0 and rho t_v = d x_v;
    a stage-n generator v is adjoined with dv = t_v and rho(v) = x_v.
    """
    if rho.degree != 0:
        raise ValidationError("relative cohomology needs a degree-0 morphism")
    if n < 0:
        raise ValidationError("stage degree must be nonnegative")
    n_mod, x_mod = rho.source, rho.target
    if n + 2 > n_mod.cap or n + 1 > x_mod.cap:
        raise DegreeWindowError(
            f"stage {n} needs source cap >= {n + 2} and target cap >= {n + 1}"
        )
    dims = {k: n_mod.dim(k) + x_mod.dim(k - 1) for k in (n, n + 1, n + 2)}
    mats = {k: _relative_d(rho, k) for k in (n, n + 1)}
    data = cohomology_at(dims, mats, n + 1)
    split = n_mod.dim(n + 1)
    reps = tuple((z[:split], z[split:]) for z in data.representatives)
    return data, reps


@dataclass
class KSState:
    """One step of the extension tower: current module, quotient data, stage."""

    phi: DgModuleMap
    n_cap: int
    module: FreeDgModule
    images: tuple[Vector, ...]
    n: int
    q: int
    batches: tuple[tuple[int, int, tuple[str, ...]], ...] = ()
    max_batches: int = 64
    rho_map: DgModuleMap | None = field(default=None, repr=False, compare=False)

    def rho(self) -> DgModuleMap:
        """The quotient map of the current module, built once per module."""
        if self.rho_map is None:
            images = {
                name: v for name, v in zip(self.module.gen_names, self.images)
            }
            self.rho_map = map_from_generator_images(
                self.module, self.phi.target, 0, images, name="rho"
            )
        return self.rho_map

    @property
    def done(self) -> bool:
        return self.n >= self.n_cap


def _fresh_name(taken: set[str], base: str) -> str:
    name = base
    while name in taken:
        name += "x"
    return name


def ks_step(state: KSState) -> KSState:
    """Advance the tower one batch: adjoin V(n, q+1) or move to stage n+1."""
    if state.done:
        return state
    rho = state.rho()
    data, reps = relative_cohomology(rho, state.n)
    if data.betti == 0:
        return replace(state, n=state.n + 1, q=0, rho_map=rho)
    if state.q >= state.max_batches:
        raise InconclusiveWindowError(
            f"stage {state.n} still has {data.betti} obstruction classes "
            f"after {state.q} batches"
        )
    module, x_mod = state.module, state.phi.target
    q = state.q + 1
    taken = set(module.gen_names)
    names: list[str] = []
    new_images: list[Vector] = []
    diffs: dict[str, dict[str, Poly]] = {
        name: {
            module.gen_names[j]: dict(p)
            for j, p in module.gen_diffs[i].items()
        }
        for i, name in enumerate(module.gen_names)
    }
    for k, (t_v, x_v) in enumerate(reps):
        name = _fresh_name(taken, f"v{state.n}_{q}_{k}")
        taken.add(name)
        names.append(name)
        comb = module.vector_combination(t_v, state.n + 1)
        diffs[name] = {module.gen_names[j]: p for j, p in comb.items()}
        new_images.append(vec(x_v))
    generators = list(zip(module.gen_names, module.gen_degrees)) + [
        (name, state.n) for name in names
    ]
    stages = module.stages + ((state.n, q),) * len(names)
    bigger = FreeDgModule(
        module.algebra, generators, diffs, cap=module.cap, stages=stages
    )
    return replace(
        state,
        module=bigger,
        images=state.images + tuple(new_images),
        q=q,
        batches=state.batches + ((state.n, q, tuple(names)),),
        rho_map=None,
    )


@dataclass(frozen=True)
class MinimalModelResult:
    """A minimal factorization M -> module -> X with its certification.

    rho induces isomorphisms H^i(module) = H^i(X) for 0 <= i <= window
    and a monomorphism at mono_degree when the target window allows the
    extra degree to be checked.
    """

    module: FreeDgModule
    rho: DgModuleMap
    inclusion: DgModuleMap
    window: int
    mono_degree: int | None
    betti_model: GradedDims
    betti_target: GradedDims
    batches: tuple[tuple[int, int, tuple[str, ...]], ...]


def _h0_kernel_labels(phi: DgModuleMap) -> list[str]:
    """Labels of H^0 classes of the source killed by phi, if any."""
    src, tgt = phi.source, phi.target
    if src.dim(0) == 0:
        return []
    h_src = module_cohomology(src, 0)
    h_tgt = module_cohomology(tgt, 0)
    if h_src.betti == 0:
        return []
    ind = induced_map(phi, h_src, h_tgt)
    kernel = ind.kernel_basis()
    labels = []
    for w in kernel:
        parts = [
            f"{c}*[{i}]" for i, c in enumerate(w) if c
        ]
        labels.append(" + ".join(parts))
    return labels


def minimal_factorization(
    phi: DgModuleMap, n_cap: int | None = None, max_batches: int = 64
) -> MinimalModelResult:
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

    diffs = {
        name: {source.gen_names[j]: p for j, p in source.gen_diffs[i].items()}
        for i, name in enumerate(source.gen_names)
    }
    base = FreeDgModule(
        algebra,
        tuple(zip(source.gen_names, source.gen_degrees)),
        diffs,
        cap=n_cap + 1,
        stages=source.stages,
    )
    images = tuple(
        phi.matrix(deg).col(source.basis_index(deg)[(i, algebra.unit_mono())])
        for i, deg in enumerate(source.gen_degrees)
    )
    state = KSState(
        phi=phi,
        n_cap=n_cap,
        module=base,
        images=images,
        n=0,
        q=0,
        max_batches=max_batches,
    )
    while not state.done:
        state = ks_step(state)

    module = state.module
    rho = state.rho()
    inclusion = _prefix_inclusion(source, module)

    betti_model: list[int] = []
    betti_target: list[int] = []
    mono_degree: int | None = None
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
    if target.cap >= n_cap + 1:
        h_n = module_cohomology(module, n_cap)
        h_x = module_cohomology(target, n_cap)
        if induced_map(rho, h_n, h_x).rank() != h_n.betti:
            raise ValidationError(
                f"window verification failed: not injective at degree {n_cap}"
            )
        mono_degree = n_cap
    return MinimalModelResult(
        module=module,
        rho=rho,
        inclusion=inclusion,
        window=n_cap - 1,
        mono_degree=mono_degree,
        betti_model=GradedDims(
            {i: b for i, b in enumerate(betti_model) if b}, n_cap - 1
        ),
        betti_target=GradedDims(
            {i: b for i, b in enumerate(betti_target) if b}, n_cap - 1
        ),
        batches=state.batches,
    )


def _prefix_inclusion(source: FreeDgModule, module: FreeDgModule) -> DgModuleMap:
    """Inclusion of a generator-prefix submodule, as unit columns."""
    mats = {}
    for k in range(min(source.cap, module.cap) + 1):
        index = module.basis_index(k)
        cols = []
        for key in source.basis(k):
            col = [Q(0)] * module.dim(k)
            col[index[key]] = Q(1)
            cols.append(tuple(col))
        mats[k] = RatMatrix.from_cols(cols, nrows=module.dim(k))
    return DgModuleMap(source, module, 0, mats, name="iota")


def minimal_model(
    module: DgModule, n_cap: int | None = None, max_batches: int = 64
) -> MinimalModelResult:
    """Minimal model of a dg module: the factorization of 0 -> module."""
    algebra = module.algebra
    if n_cap is None:
        n_cap = min(module.cap, algebra.cap - 1)
    zero = zero_module(algebra, cap=n_cap + 1)
    return minimal_factorization(
        zero_map(zero, module, 0), n_cap=n_cap, max_batches=max_batches
    )


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the minimality check, with a derived stage per generator."""

    ok: bool
    failures: tuple[str, ...]
    stages: dict[str, tuple[int, int]]
    checks_run: int

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationError("; ".join(self.failures))


def verify_minimal(module: DgModule) -> MinimalityReport:
    """Check that a free module carries a minimal stage filtration.

    Minimality requires every differential coefficient to sit in A^+ (no
    unit component) and the same-degree dependency graph to be acyclic;
    the stages are then re-derived as (degree, layer) with layers given
    by longest dependency chains within each degree.
    """
    if not isinstance(module, FreeDgModule):
        raise ValidationError("minimality applies to free modules")
    unit = module.algebra.unit_mono()
    failures: list[str] = []
    checks = 0
    same_degree: dict[int, list[int]] = {i: [] for i in range(module.gen_count)}
    for i, name in enumerate(module.gen_names):
        for j, poly in module.gen_diffs[i].items():
            checks += 1
            if poly.get(unit):
                failures.append(
                    f"d({name}) has a unit coefficient on {module.gen_names[j]}"
                )
            if module.gen_degrees[j] == module.gen_degrees[i]:
                same_degree[i].append(j)

    layer: dict[int, int] = {}

    def assign(i: int, trail: tuple[int, ...]) -> int:
        if i in layer:
            return layer[i]
        if i in trail:
            cycle = " -> ".join(
                module.gen_names[j] for j in trail[trail.index(i):] + (i,)
            )
            failures.append(f"same-degree dependency cycle: {cycle}")
            layer[i] = 1
            return 1
        deps = same_degree[i]
        value = 1 if not deps else 1 + max(
            assign(j, trail + (i,)) for j in deps
        )
        layer[i] = value
        return value

    for i in range(module.gen_count):
        assign(i, ())
    stages = {
        name: (module.gen_degrees[i], layer[i])
        for i, name in enumerate(module.gen_names)
    }
    return MinimalityReport(
        ok=not failures,
        failures=tuple(failures),
        stages=stages,
        checks_run=checks,
    )


def fiber_cohomology(model: FreeDgModule, top: int | None = None) -> GradedDims:
    """Generator counts per degree of a minimal module.

    For a minimal model the differential vanishes after reducing the
    coefficients mod A^+, so these counts are the cohomology of the
    quotient fiber complex.
    """
    report = verify_minimal(model)
    if not report.ok:
        raise PreconditionError(
            "fiber cohomology needs a minimal module: " + "; ".join(report.failures)
        )
    hi = model.cap if top is None else top
    dims: dict[int, int] = {}
    for deg in model.gen_degrees:
        if deg <= hi:
            dims[deg] = dims.get(deg, 0) + 1
    return GradedDims(dims, hi)


def _ks_order(module: FreeDgModule) -> list[int]:
    """Generator indices sorted by derived stage, dependencies first."""
    report = verify_minimal(module)
    report.raise_if_failed()
    keyed = [
        (module.gen_degrees[i], report.stages[module.gen_names[i]][1], i)
        for i in range(module.gen_count)
    ]
    return [i for _, _, i in sorted(keyed)]


def _apply_images(
    source: FreeDgModule,
    target: DgModule,
    degree: int,
    images: dict[int, Vector],
    comb: Combination,
    out_degree: int,
) -> Vector:
    """Evaluate a partial generator-image assignment on a combination.

    Extends A-linearly with the degree twist of a degree-`degree`
    morphism; every generator appearing in comb must carry an image.
    """
    out = zero_vec(target.dim(out_degree))
    algebra = source.algebra
    for j, poly in comb.items():
        img = images[j]
        if all(x == 0 for x in img):
            continue
        t = source.gen_degrees[j] + degree
        i = algebra.poly_degree(poly)
        if i is None:
            continue
        dim_t = target.dim(t)
        kv = [Q(0)] * (algebra.dim(i) * dim_t)
        index = algebra.basis_index(i)
        for m, c in poly.items():
            base = index[m] * dim_t
            for s, x in enumerate(img):
                if x:
                    kv[base + s] += c * x
        piece = target.action_matrix(i, t).apply(kv)
        if (i * degree) % 2:
            piece = scale_vec(Q(-1), piece)
        out = add_vec(out, piece)
    return out


def _mult_matrix(module: DgModule, i: int, mono_index: int, k: int) -> RatMatrix:
    """Multiplication by one degree-i algebra basis monomial, as X^k -> X^{i+k}."""
    act = module.action_matrix(i, k)
    dim_k = module.dim(k)
    cols = [act.col(mono_index * dim_k + s) for s in range(dim_k)]
    return RatMatrix.from_cols(cols, nrows=module.dim(i + k))


def _retraction(rho: DgModuleMap, check: bool) -> DgModuleMap:
    """Retraction sigma: X -> N with sigma . rho = id for a quis rho: N -> X.

    sigma is found as one exact linear system: per-degree matrices
    constrained to be a chain map, to commute with multiplication by each
    algebra generator, and to restrict to the identity along rho.  A
    solution exists whenever X splits off rho(N) as an A-module summand,
    in particular when X is free.
    """
    from .linalg import kron

    n_mod, x_mod = rho.source, rho.target
    algebra = n_mod.algebra
    top = min(n_mod.cap, x_mod.cap)
    dn = [n_mod.dim(k) for k in range(top + 1)]
    dx = [x_mod.dim(k) for k in range(top + 1)]
    offsets, total = [], 0
    for k in range(top + 1):
        offsets.append(total)
        total += dn[k] * dx[k]

    # rows of the system as column -> nonzero Fraction dicts; the blocks of
    # one row sit at disjoint offsets, so no entry cancels
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []

    def add_block(blocks: dict[int, RatMatrix], b: RatMatrix | None, nrows: int) -> None:
        for r in range(nrows):
            row: dict[int, Fraction] = {}
            for k, blk in blocks.items():
                off = offsets[k]
                for c, val in blk._nz[r].items():
                    row[off + c] = val
            rows.append(row)
            rhs.append(b[r // b.cols, r % b.cols] if b is not None else Q(0))

    for k in range(top + 1):
        # sigma_k . rho_k = id on N^k
        if dn[k]:
            ident = RatMatrix.identity(dn[k])
            add_block(
                {k: kron(RatMatrix.identity(dn[k]), rho.matrix(k).transpose())},
                ident,
                dn[k] * dn[k],
            )
    for k in range(top):
        # d . sigma_k = sigma_{k+1} . d
        nrows = dn[k + 1] * dx[k]
        if nrows:
            add_block(
                {
                    k: kron(n_mod.differential_matrix(k), RatMatrix.identity(dx[k])),
                    k + 1: kron(
                        RatMatrix.identity(dn[k + 1]),
                        x_mod.differential_matrix(k).transpose(),
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
                    k: kron(_mult_matrix(n_mod, gdeg, m_idx, k), RatMatrix.identity(dx[k])).scale(
                        Q(-1)
                    ),
                },
                None,
                nrows,
            )

    system = RatMatrix._make(len(rows), total, rows)
    sol = system.solve(vec(rhs))
    if sol is None:
        raise PreconditionError(
            "no retraction onto the minimal module: the target does not split "
            "off the image as an A-module summand"
        )
    mats = {}
    for k in range(top + 1):
        if dn[k] and dx[k]:
            data = [
                sol[offsets[k] + r * dx[k] : offsets[k] + (r + 1) * dx[k]] for r in range(dn[k])
            ]
            mats[k] = RatMatrix(dn[k], dx[k], data)
    sigma = DgModuleMap(x_mod, n_mod, 0, mats, name="sigma")
    if check and not maps_equal(compose(sigma, rho), identity_map(n_mod)):
        raise ValidationError("constructed retraction fails sigma . rho = id")
    return sigma


def lift_section(rho: DgModuleMap, check: bool = True) -> DgModuleMap:
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
            return _retraction(rho, check)
        raise ValidationError("section needs a free minimal module at one end")
    order = _ks_order(n_mod)
    top_gen = max((n_mod.gen_degrees[i] for i in order), default=0)
    if top_gen + 1 > x_mod.cap or top_gen > n_mod.cap:
        raise ValidationError(
            f"source cap {x_mod.cap} cannot host sections of degree-{top_gen} "
            "generators"
        )
    images: dict[int, Vector] = {}
    for i in order:
        n = n_mod.gen_degrees[i]
        rhs_chain = _apply_images(
            n_mod, x_mod, 0, images, n_mod.gen_diffs[i], n + 1
        )
        e_v = [Q(0)] * n_mod.dim(n)
        e_v[n_mod.basis_index(n)[(i, n_mod.algebra.unit_mono())]] = Q(1)
        system = RatMatrix.vstack(x_mod.differential_matrix(n), rho.matrix(n))
        sol = system.solve(vec(tuple(rhs_chain) + tuple(e_v)))
        if sol is None:
            raise PreconditionError(
                f"no section through {n_mod.gen_names[i]}: "
                "the morphism is not a quasi-isomorphism onto this module"
            )
        images[i] = sol
    sigma = map_from_generator_images(
        n_mod,
        x_mod,
        0,
        {n_mod.gen_names[i]: v for i, v in images.items()},
        name="sigma",
    )
    if check:
        if not maps_equal(compose(rho, sigma), identity_map(n_mod)):
            raise ValidationError("constructed section fails rho . sigma = id")
    return sigma


def model_of_morphism(
    phi: DgModuleMap, rho_m: DgModuleMap, rho_n: DgModuleMap
) -> tuple[DgModuleMap, Homotopy]:
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
    sign = Q(-1 if p % 2 else 1)
    order = _ks_order(m_min)
    for i in order:
        t = m_min.gen_degrees[i] + p
        if t + 1 > n_min.cap or t > n_mod.cap:
            raise ValidationError(
                f"model caps cannot host the image of {m_min.gen_names[i]}: "
                f"need model cap >= {t + 1} and target cap >= {t}"
            )
    images_phi: dict[int, Vector] = {}
    images_h: dict[int, Vector] = {}
    for i in order:
        n = m_min.gen_degrees[i]
        dv = m_min.gen_diffs[i]
        rhs_chain = scale_vec(
            sign, _apply_images(m_min, n_min, p, images_phi, dv, n + 1 + p)
        )
        v_col = [Q(0)] * m_min.dim(n)
        v_col[m_min.basis_index(n)[(i, m_min.algebra.unit_mono())]] = Q(1)
        phi_rho_v = phi.matrix(n).apply(rho_m.matrix(n).apply(v_col))
        h_dv = _apply_images(m_min, n_mod, p - 1, images_h, dv, n + p)
        rhs_homotopy = add_vec(phi_rho_v, h_dv)
        dim_y = n_min.dim(n + p)
        dim_z = n_mod.dim(n + p - 1)
        system = RatMatrix.block(
            [
                [
                    n_min.differential_matrix(n + p),
                    RatMatrix.zero(n_min.dim(n + p + 1), dim_z),
                ],
                [
                    rho_n.matrix(n + p),
                    n_mod.differential_matrix(n + p - 1).scale(-sign),
                ],
            ]
        )
        sol = system.solve(vec(tuple(rhs_chain) + tuple(rhs_homotopy)))
        if sol is None:
            raise PreconditionError(
                f"no model through {m_min.gen_names[i]}: "
                "check that both comparison maps are quasi-isomorphisms"
            )
        images_phi[i] = sol[:dim_y]
        images_h[i] = sol[dim_y:]
    phi_prime = map_from_generator_images(
        m_min,
        n_min,
        p,
        {m_min.gen_names[i]: v for i, v in images_phi.items()},
        name="phi'",
    )
    h_map = map_from_generator_images(
        m_min,
        n_mod,
        p - 1,
        {m_min.gen_names[i]: v for i, v in images_h.items()},
        name="h",
    )
    return phi_prime, Homotopy(h_map)


def cone_quis(
    phi: DgModuleMap,
    phi_prime: DgModuleMap,
    rho_m: DgModuleMap,
    rho_n: DgModuleMap,
    h: Homotopy | DgModuleMap,
) -> DgModuleMap:
    """Quasi-isomorphism between the cones of a morphism and its model.

    Phi = [[rho_n, h~], [0, rho_m]] maps cone(phi') to cone(phi), where
    h~ = (-1)^p h and h is a homotopy between phi . rho_m and
    rho_n . phi' (either orientation is accepted and normalized).  The
    chain-map identity and degreewise cohomology ranks are verified.
    """
    h_map = h.map if isinstance(h, Homotopy) else h
    p = phi.degree
    if phi_prime.degree != p:
        raise ValidationError("phi and its model must share one degree")
    front = compose(phi, rho_m)
    back = compose(rho_n, phi_prime)
    if is_homotopy(h_map, front, back):
        base = h_map
    elif is_homotopy(h_map, back, front):
        base = h_map.scale(Q(-1))
    else:
        raise PreconditionError(
            "h is not a homotopy between phi . rho_m and rho_n . phi' "
            "in either orientation"
        )
    tilde = base.scale(Q(-1 if p % 2 else 1))
    cn_prime = cone(phi_prime, check=False)
    cn = cone(phi, check=False)
    mats = {}
    for k in range(min(cn_prime.cap, cn.cap) + 1):
        mats[k] = RatMatrix.block(
            [
                [rho_n.matrix(k), tilde.matrix(k - p + 1)],
                [
                    RatMatrix.zero(cn.m_dims[k], cn_prime.n_dims[k]),
                    rho_m.matrix(k - p + 1),
                ],
            ]
        )
    result = DgModuleMap(cn_prime.module, cn.module, 0, mats, name="Phi")
    report = result.verify()
    if not report.ok:
        raise ValidationError(
            "cone comparison is not a morphism: " + "; ".join(report.failures)
        )
    top = min(cn_prime.cap, cn.cap) - 1
    for k in range(top + 1):
        h_src = module_cohomology(cn_prime.module, k)
        h_tgt = module_cohomology(cn.module, k)
        rank = induced_map(result, h_src, h_tgt).rank()
        if not (h_src.betti == h_tgt.betti == rank):
            raise ValidationError(
                f"cone comparison fails to be a quasi-isomorphism at degree {k}"
            )
    return result
