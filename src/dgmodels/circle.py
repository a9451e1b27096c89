"""Circle-action reports, read off the three models of the basic data.

`action` builds the models: the cones of the Euler map e' (total space),
of the inclusion map i' (fixed set) and of q' = e' + i'e (the Borel model).
The reports here cover the shared-basis shift, the long exact sequence of
the Borel cone, extension of scalars back to the total space, fiber
Poincare series identities, equivariant formality, localization at the
Euler class, cohomological dimension, the almost-free reduction to a dgc
algebra, the naive product when the Euler map vanishes, and the
Smith-Gysin inequality for isometric flows.

A report builds each cone once: `action_report` runs every section on one
private pipeline that validates the data and caches the total-space and
fixed-set models and the Borel pieces, while each public report function
builds a pipeline of its own.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .action import (
    DEFAULT_DEGREE,
    BasicData,
    EquivariantModel,
    Vector,
    _ActionPipeline,
    _generator_image_poly,
)
from .cdga import Poly, extend, poly_eq
from .dgmodule import (
    Combination,
    FreeDgModule,
    LesTable,
    MinimalModelResult,
    betti_table,
    cone_les,
    fiber_cohomology,
    induced_map,
    module_cohomology,
)
from .errors import DegreeWindowError, PreconditionError, ValidationError
from .linalg import GradedDims, PoincareSeries, RatMatrix, add_term, add_vec, unit_vec


# ---- the three models ------------------------------------------------------


def model_of_total_space(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> MinimalModelResult:
    """Minimal model of the total space: the cone of the Euler map e'."""
    return _ActionPipeline(data, max_degree).total


def model_of_fixed_set(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> MinimalModelResult:
    """Minimal model of the fixed-point set: the cone of the inclusion map i'."""
    return _ActionPipeline(data, max_degree).fixed


def equivariant_model(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> EquivariantModel:
    """Minimal Borel model: the cone of q'(b) = e'(b) + i'(b) e over A(x)Lambda(e)."""
    return _ActionPipeline(data, max_degree).borel[0]


# ---- shared basis --------------------------------------------------------


class SharedBasisReport(NamedTuple):
    """Generator multisets of the two cone models, compared up to a shift."""

    ok: bool
    shift: int
    rows: tuple[tuple[int, int, int], ...]
    failures: tuple[str, ...]


def shared_basis_check(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> SharedBasisReport:
    """Both models are free on the relative generators, shifted by d(e') - 1
    for the total space and by -1 for the fixed set; their generator tables
    therefore agree after shifting by the Euler degree."""
    return _shared_basis(_ActionPipeline(data, max_degree))


def _shared_basis(p: _ActionPipeline) -> SharedBasisReport:
    data = p.data
    if data.fixed_set_empty:
        raise PreconditionError("shared-basis comparison needs a nonempty fixed set")
    shift = data.euler_degree
    total, fixed = p.total, p.fixed
    ct = Counter(total.module.gen_degrees[1:])
    cf = Counter(fixed.module.gen_degrees[1:])
    degrees = sorted(set(cf) | {k - shift for k in ct})
    rows: list[tuple[int, int, int]] = []
    failures: list[str] = []
    for k in degrees:
        a, b = ct.get(k + shift, 0), cf.get(k, 0)
        rows.append((k, a, b))
        if a != b:
            failures.append(
                f"{a} total-space generators at degree {k + shift} vs "
                f"{b} fixed-set generators at degree {k}"
            )
    return SharedBasisReport(not failures, shift, tuple(rows), tuple(failures))


# ---- Borel model ---------------------------------------------------------


class EquivariantLesReport(NamedTuple):
    """Cone long exact sequence of the Borel model, with a rank recount."""

    table: LesTable
    ok: bool
    failures: tuple[str, ...]


def equivariant_les(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> EquivariantLesReport:
    """Exactness of the Borel cone sequence plus an independent recount of
    the equivariant Betti numbers from the connecting ranks."""
    return _equivariant_les(_ActionPipeline(data, max_degree))


def _equivariant_les(p: _ActionPipeline) -> EquivariantLesReport:
    _, cn = p.borel
    table = cone_les(cn, top=p.max_degree)
    failures = list(table.failures)
    for row in table.rows:
        r_in = table.rows[row.n - 1].rank_connecting if row.n >= 1 else 0
        recount = (row.dim_h_target - r_in) + (row.dim_h_source - row.rank_connecting)
        if recount != row.dim_h_cone:
            failures.append(
                f"degree {row.n}: rank recount gives {recount} but the Borel "
                f"model has Betti {row.dim_h_cone}"
            )
    return EquivariantLesReport(table, not failures, tuple(failures))


class ScalarsReport(NamedTuple):
    """Setting the Euler class to zero in the Borel model recovers the
    total-space model, generator by generator."""

    ok: bool
    window: int
    generators: int
    failures: tuple[str, ...]


def extension_of_scalars_check(
    data: BasicData, max_degree: int = DEFAULT_DEGREE
) -> ScalarsReport:
    return _extension_of_scalars(_ActionPipeline(data, max_degree))


def _extension_of_scalars(p: _ActionPipeline) -> ScalarsReport:
    data = p.data
    model, _ = p.borel
    free_e, free_t = model.module, p.total.module
    alg, alg_e = data.algebra, model.algebra
    e_idx = alg_e.generator_index(model.euler_name)

    failures: list[str] = []
    if free_e.gen_names != free_t.gen_names:
        failures.append("Borel and total-space models name their generators differently")
    if free_e.gen_degrees != free_t.gen_degrees:
        failures.append("Borel and total-space generator degrees differ")
    if failures:
        return ScalarsReport(False, 0, free_e.gen_count, tuple(failures))

    def drop(poly: Poly) -> Poly:
        return {
            m[:e_idx] + m[e_idx + 1 :]: c for m, c in poly.items() if m[e_idx] == 0
        }

    for j, name in enumerate(free_e.gen_names):
        got = {h: drop(poly) for h, poly in free_e.gen_diffs[j].items()}
        want = free_t.gen_diffs[j]
        for h in set(got) | set(want):
            if not poly_eq(got.get(h, {}), want.get(h, {})):
                failures.append(
                    f"d({name}) differs after setting {model.euler_name} = 0: "
                    f"coefficient of {free_e.gen_names[h]} is "
                    f"{alg.poly_str(got.get(h, {}))} vs {alg.poly_str(want.get(h, {}))}"
                )
    # a free module is a function of its algebra, generator table, differentials
    # and cap; with the first three equal, the quotient by the Euler class (at the
    # smaller cap) is the total-space model unless the Borel model stops below it
    if not failures and free_e.cap < free_t.cap:
        failures.append("quotient by the Euler class does not match the total-space model")
    window = min(free_e.cap, free_t.cap) - 1
    return ScalarsReport(not failures, window, free_e.gen_count, tuple(failures))


# ---- fiber Poincare series -----------------------------------------------


class PoincareReport(NamedTuple):
    """Power-series identities tying the three fiber series together."""

    ok: bool
    through: int
    total_fiber: PoincareSeries
    fixed_fiber: PoincareSeries
    borel_fiber: PoincareSeries
    failures: tuple[str, ...]


def poincare_relations(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> PoincareReport:
    """Checks P_total = 1 - t^2 + t^2 P_fixed and P_total = (1 - t^2) P_borel,
    all three series read off as generator counts of the minimal models."""
    return _poincare(_ActionPipeline(data, max_degree))


def _poincare(p: _ActionPipeline) -> PoincareReport:
    data, max_degree = p.data, p.max_degree
    if data.fixed_set_empty:
        raise PreconditionError("fiber series identities need a nonempty fixed set")
    if data.euler_degree != 2:
        raise PreconditionError("fiber series identities are stated for a degree-2 Euler class")
    if not data.base_simply_connected:
        raise PreconditionError("fiber series identities assume a simply connected orbit space")
    total, fixed = p.total, p.fixed
    model, _ = p.borel
    through = min(max_degree, total.window, fixed.window, model.window)

    p_total = PoincareSeries.from_dims(fiber_cohomology(total.module, top=through), through)
    p_fixed = PoincareSeries.from_dims(fiber_cohomology(fixed.module, top=through), through)
    eq_gens = PoincareSeries.from_dims(fiber_cohomology(model.module, top=through), through)
    geometric = {k: 1 for k in range(0, through + 1, 2)}
    p_borel = eq_gens.mul_poly(geometric)

    failures: list[str] = []
    rhs1 = p_fixed.mul_poly({2: 1}).add_const(1, at=0).add_const(-1, at=2)
    d1 = p_total.first_disagreement(rhs1, through)
    if d1 is not None:
        failures.append(
            f"P_total = 1 - t^2 + t^2 P_fixed fails first at t^{d1}: "
            f"{p_total.coeff(d1)} vs {rhs1.coeff(d1)}"
        )
    rhs2 = p_borel.mul_poly({0: 1, 2: -1})
    d2 = p_total.first_disagreement(rhs2, through)
    if d2 is not None:
        failures.append(
            f"P_total = (1 - t^2) P_borel fails first at t^{d2}: "
            f"{p_total.coeff(d2)} vs {rhs2.coeff(d2)}"
        )
    return PoincareReport(not failures, through, p_total, p_fixed, p_borel, tuple(failures))


# ---- equivariant formality ------------------------------------------------


def _vector_label(module, degree: int, v) -> str:
    labels = module.basis_labels(degree)
    terms = []
    for c, lbl in zip(v, labels):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"+ {lbl}")
        elif c == -1:
            terms.append(f"- {lbl}")
        elif c < 0:
            terms.append(f"- {-c}*{lbl}")
        else:
            terms.append(f"+ {c}*{lbl}")
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


class FormalityString(NamedTuple):
    """Witness chain alpha_0, alpha_1, ... with e*(alpha_n) = i*(alpha_{n-1})."""

    degree: int
    steps: tuple[str, ...]


class FormalityReport(NamedTuple):
    """Surjectivity of Ker q* -> Ker e*, degree by degree."""

    formal: bool
    window: int
    kernel_dims: GradedDims
    strings: tuple[FormalityString, ...]
    witness_degree: int | None
    witness_label: str | None
    failures: tuple[str, ...]


def formality_check(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> FormalityReport:
    """Equivariant formality: every class killed by e* must extend to a
    finite string (alpha_n) with e*(alpha_0) = 0 replaced by the cone
    condition, i.e. a kernel element of the combined map q*."""
    return _formality(_ActionPipeline(data, max_degree))


def _formality(p: _ActionPipeline) -> FormalityReport:
    data, max_degree = p.data, p.max_degree
    m = data.relative_model
    a_mod = data.i_prime.target
    d_e = data.euler_degree
    window = min(
        max_degree,
        m.cap - 1,
        a_mod.cap - d_e - 1,
        data.i_prime.window().stop - 1,
        data.e_prime.window().stop - 1,
    )
    if window < 0:
        raise DegreeWindowError("degree window is empty; enlarge the caps")

    h_m = {s: module_cohomology(m, s) for s in range(window + 1)}
    h_a = {s: module_cohomology(a_mod, s) for s in range(window + d_e + 1)}
    i_star = {s: induced_map(data.i_prime, h_m[s], h_a[s]) for s in range(window + 1)}
    e_star = {s: induced_map(data.e_prime, h_m[s], h_a[s + d_e]) for s in range(window + 1)}

    kernel_dims: dict[int, int] = {}
    strings: list[FormalityString] = []
    failures: list[str] = []
    witness_degree: int | None = None
    witness_label: str | None = None

    def class_label(s: int, coords) -> str:
        reps = RatMatrix.from_cols(h_m[s].representatives, nrows=m.dim(s))
        return _vector_label(m, s, reps.apply(coords))

    for u in range(window + 1):
        ker_e = e_star[u].kernel_basis()
        kernel_dims[u] = ker_e.cols
        if not ker_e.cols:
            continue
        # q* on the column blocks H^{u - d_e n}(M), n < n_blocks: e* into row
        # block n and i* into row block n + 1, stored rows written at offsets
        n_blocks = u // d_e + 1
        coff = [0, *accumulate(h_m[u - d_e * n].betti for n in range(n_blocks))]
        roff = [0, *accumulate(h_a[u + d_e - d_e * n].betti for n in range(n_blocks + 1))]
        rows: list[dict[int, Fraction]] = [{} for _ in range(roff[-1])]
        for n in range(n_blocks):
            s = u - d_e * n
            for at, block in ((roff[n], e_star[s]), (roff[n + 1], i_star[s])):
                for r, row in enumerate(block._nz):
                    rows[at + r].update((coff[n] + c, x) for c, x in row.items())
        span = RatMatrix._make(roff[-1], coff[-1], rows).kernel_basis()
        head = RatMatrix._make(coff[1], span.cols, span._nz[: coff[1]])
        solutions = [head.solve(ker_e.col(j)) for j in range(ker_e.cols)]
        missing = [ker_e.col(j) for j, sol in enumerate(solutions) if sol is None]
        if missing:
            label = class_label(u, missing[0])
            if witness_degree is None:
                witness_degree = u
                witness_label = label
            failures.append(
                f"degree {u}: kernel class {label} of e* does not lift "
                "to the kernel of q*"
            )
            continue
        for sol in solutions:
            full = span.apply(sol)
            steps = []
            for n in range(n_blocks):
                block = full[coff[n] : coff[n + 1]]
                if any(block):
                    steps.append(class_label(u - d_e * n, block))
            strings.append(FormalityString(u, tuple(steps)))

    return FormalityReport(
        not failures,
        window,
        GradedDims(kernel_dims, window),
        tuple(strings),
        witness_degree,
        witness_label,
        tuple(failures),
    )


# ---- localization ---------------------------------------------------------


class LocalizationReport(NamedTuple):
    """Invertibility of nabla = e + W on the Euler-inverted relative module."""

    verdict: str
    window: int
    exponent: int | None
    h_dims: GradedDims
    basis_checked: int
    reason: str | None


def localization_check(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> LocalizationReport:
    """The connecting map nabla([w]) = e [w] + [w e] on H(M) with the Euler
    class inverted; its inverse is the finite sum of (-1)^n e^{-(n+1)} W^n
    over n below the nilpotency exponent of W.  Both composites are checked
    on every basis class inside the window, with exact Laurent coefficients."""
    return _localization(_ActionPipeline(data, max_degree))


def _localization(p: _ActionPipeline) -> LocalizationReport:
    data, max_degree = p.data, p.max_degree
    m = data.relative_model
    d_e = data.euler_degree
    S = min(max_degree, m.cap - 1)
    if S < 0:
        raise DegreeWindowError("degree window is empty; enlarge the caps")
    h = {s: module_cohomology(m, s) for s in range(S + 1)}
    dims = GradedDims({s: h[s].betti for s in range(S + 1)}, S)
    degs = [s for s in range(S + 1) if h[s].betti]
    total = sum(h[s].betti for s in degs)
    if total == 0:
        return LocalizationReport(
            "bijective", S, 1, dims, 0,
            "relative cohomology vanishes on the window",
        )

    offsets: dict[int, int] = {}
    at = 0
    for s in degs:
        offsets[s] = at
        at += h[s].betti

    rows: list[dict[int, Fraction]] = [{} for _ in range(total)]
    if data.euler_self_map is not None:
        smax = max(degs)
        if smax + d_e > S:
            return LocalizationReport(
                "inconclusive", S, None, dims, 0,
                f"the Euler action out of degree {smax} leaves the window "
                f"(need degree {smax + d_e} <= {S})",
            )
        for s in degs:
            t = s + d_e
            if h.get(t) is None or not h[t].betti:
                continue
            block = induced_map(data.euler_self_map, h[s], h[t])
            for r, row in enumerate(block._nz):
                rows[offsets[t] + r].update((offsets[s] + c, x) for c, x in row.items())
    w_mat = RatMatrix._make(total, total, rows)

    powers = [RatMatrix.identity(total)]
    p = 1
    cur = w_mat
    while not cur.is_zero():
        powers.append(cur)
        cur = cur * w_mat
        p += 1
        if p > S + 2:
            raise PreconditionError("Euler self-map is not nilpotent on the window")

    def prune(x: dict[int, Vector]) -> dict[int, Vector]:
        return {k: v for k, v in x.items() if any(v)}

    def nabla(x: dict[int, Vector]) -> dict[int, Vector]:
        out: dict[int, Vector] = {}
        for k, v in x.items():
            out[k + 1] = add_vec(out.get(k + 1, (0,) * total), v)
            wv = w_mat.apply(v)
            out[k] = add_vec(out.get(k, (0,) * total), wv)
        return prune(out)

    def nabla_inv(x: dict[int, Vector]) -> dict[int, Vector]:
        out: dict[int, Vector] = {}
        for k, v in x.items():
            for n in range(p):
                wv = powers[n].apply(v) if n else tuple(v)
                if n % 2:
                    wv = tuple(-c for c in wv)
                key = k - (n + 1)
                out[key] = add_vec(out.get(key, (0,) * total), wv)
        return prune(out)

    failures: list[str] = []
    for t in range(total):
        u = prune({0: unit_vec(total, t)})
        if nabla(nabla_inv(u)) != u:
            failures.append(f"nabla(nabla^-1) is not the identity on basis class {t}")
        if nabla_inv(nabla(u)) != u:
            failures.append(f"nabla^-1(nabla) is not the identity on basis class {t}")
    if failures:
        raise ValidationError("localization inverse check failed: " + failures[0])
    return LocalizationReport("bijective", S, p, dims, total, None)


# ---- cohomological dimension ----------------------------------------------


class DimcReport(NamedTuple):
    """Window reading of dimc(M) against dimc(F) and dimc(F) + 2."""

    applicable: bool
    reasons: tuple[str, ...]
    window: int
    dimc_total: int
    dimc_fixed: int
    dimc_base: int | None
    total_fiber: int
    fixed_fiber: int
    case: str


def dimc_relation(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> DimcReport:
    """dimc(M) is dimc(F) or dimc(F) + 2 whenever the base and the Borel
    fiber have finite cohomological dimension; the report certifies those
    finiteness hypotheses inside the window or flags the degrees that
    persist to the top."""
    return _dimc(_ActionPipeline(data, max_degree))


def _dimc(p: _ActionPipeline) -> DimcReport:
    data = p.data
    if data.fixed_set_empty:
        raise PreconditionError("cohomological dimension comparison needs a nonempty fixed set")
    if data.euler_degree != 2:
        raise PreconditionError("the dichotomy is stated for a degree-2 Euler class")
    total, fixed = p.total, p.fixed
    window = min(total.window, fixed.window)
    bm, bf = total.betti_model, fixed.betti_model

    reasons: list[str] = []
    if bm.get(window):
        reasons.append(f"total-space cohomology persists to the window top {window}")
    if bf.get(window):
        reasons.append(f"fixed-set cohomology persists to the window top {window}")

    a_mod = data.e_prime.target
    base = betti_table(a_mod, top=min(window, a_mod.cap - 1))
    base_sup = base.support_max() or 0
    if base_sup > window - 2:
        reasons.append("orbit-space cohomology is not certified finite inside the window")

    total_fiber = max(total.module.gen_degrees)
    fixed_fiber = max(fixed.module.gen_degrees)
    if total_fiber > window - 2:
        reasons.append(
            f"total-space fiber generators persist to degree {total_fiber}, "
            f"beyond the certified band of the window {window}"
        )
    if fixed_fiber > window - 2:
        reasons.append(
            f"fixed-set fiber generators persist to degree {fixed_fiber}, "
            f"beyond the certified band of the window {window}"
        )

    dimc_total = max((n for n in range(window + 1) if bm.get(n)), default=0)
    dimc_fixed = max((n for n in range(window + 1) if bf.get(n)), default=0)
    if dimc_total == dimc_fixed:
        case = "equal"
    elif dimc_total == dimc_fixed + 2:
        case = "plus_two"
    else:
        case = "mismatch"
    return DimcReport(
        not reasons,
        tuple(reasons),
        window,
        dimc_total,
        dimc_fixed,
        base_sup,
        total_fiber,
        fixed_fiber,
        case,
    )


# ---- almost-free reduction -------------------------------------------------


class AlmostFreeReport(NamedTuple):
    """Total-space model rewritten as the dgc algebra A(x)Lambda(x), dx = e."""

    ok: bool
    window: int
    generator_name: str
    euler_poly: str
    betti: GradedDims
    failures: tuple[str, ...]


def almost_free_model(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> AlmostFreeReport:
    """For an action without fixed points and a rank-one relative model, the
    total-space model is the dgc algebra A(x)Lambda(x) with dx the Euler
    cocycle.  The correspondence mu(a.1 + b.c) = a + b x is decided on
    polynomials: it is a chain map iff d mu(g) = mu(d g) on each generator g
    (FHT, GTM 205, section 6), and it sends the basis elements a.g to the
    distinct monomials a x^g, so it is invertible in each degree where the
    cone and the algebra have equal dimensions.
    On the cone A.1 + A.c, with |c| = d(e') - 1 odd, the naive product of
    naive_structure is the graded product of A(x)Lambda(c): both are
    A-bilinear with the sign (-1)^{|n||a'|} of n a', which depends only on
    parities.  So the product rule mu(y z) = mu(y) mu(z) is decided on the
    elements a.g with a the unit or a generator of A and g in {1, c}, which
    meet every parity class of the window at no higher degree."""
    return _almost_free(_ActionPipeline(data, max_degree))


def _almost_free(p: _ActionPipeline) -> AlmostFreeReport:
    data, max_degree = p.data, p.max_degree
    if not data.fixed_set_empty:
        raise PreconditionError("almost-free reduction needs fixed_set_empty")
    m = data.relative_model
    if m.gen_count != 1 or m.gen_degrees != (0,) or m.gen_diffs[0]:
        raise PreconditionError(
            "almost-free reduction needs the relative model free of rank one "
            "on a closed degree-0 generator"
        )
    alg = data.algebra
    e_poly = _generator_image_poly(data, data.e_prime, 0)

    x_name = "x"
    while x_name in alg.names:
        x_name += "x"
    alg_x = extend(alg, x_name, data.euler_degree - 1, e_poly)

    free = p.total.module
    window = min(max_degree, free.cap - 1, alg_x.cap - 1)
    if window < 0:
        raise DegreeWindowError("degree window is empty; enlarge the caps")

    def mu_poly(y: Combination) -> Poly:
        # mu(a.g) = a x^g, g = 0 the unit and g = 1 the generator c
        return {mono + (g,): c for g, poly in y.items() for mono, c in poly.items()}

    failures: list[str] = []
    unit = alg.unit_mono()
    for g, (name, deg) in enumerate(zip(free.gen_names, free.gen_degrees)):
        if deg < min(free.cap, alg_x.cap) and not poly_eq(
            alg_x.d_poly(mu_poly({g: {unit: 1}})), mu_poly(free.gen_diffs[g])
        ):
            failures.append(f"chain map: chain condition fails at generator {name}")
    for n in range(window + 1):
        if free.dim(n) != alg_x.dim(n):
            failures.append(
                f"degree {n}: cone has dimension {free.dim(n)} but the algebra "
                f"has {alg_x.dim(n)}"
            )

    elts = _generator_elements(free, window)
    for i, y in elts:
        for j, z in (e for e in elts if e[0] <= window - i):
            want = alg_x.poly_mul(mu_poly(y), mu_poly(z))
            if not poly_eq(mu_poly(_naive_mul(free, y, z)), want):
                failures.append(f"product rule fails at degrees ({i}, {j})")
    betti = betti_table(free, top=window)
    return AlmostFreeReport(
        not failures, window, x_name, alg.poly_str(e_poly), betti, tuple(failures)
    )


# ---- naive product ---------------------------------------------------------


class RingEntry(NamedTuple):
    """Product of two positive-degree cohomology classes, in H-coordinates."""

    left_degree: int
    left_index: int
    right_degree: int
    right_index: int
    coords: tuple[Fraction, ...]


class NaiveReport(NamedTuple):
    """The naive product on the total-space cone when the Euler map vanishes;
    sphere_degrees is None unless the cohomology is a wedge of spheres."""

    ok: bool
    window: int
    betti: GradedDims
    unital: bool
    graded_commutative: bool
    associative: bool
    leibniz: bool
    positive_products_zero: bool
    wedge_of_spheres: bool
    sphere_degrees: tuple[int, ...] | None
    ring: tuple[RingEntry, ...]
    failures: tuple[str, ...]


def _euler_map_is_zero(data: BasicData) -> bool:
    return all(data.e_prime.matrix(k).is_zero() for k in data.e_prime.window())


def _naive_mul(free: FreeDgModule, a: Combination, b: Combination, c=1, out=None) -> Combination:
    """out + c a b in the naive product, out added to in place (None: zero).
    Each pair of nonzero terms writes its one signed monomial into the
    accumulator: a.1 a'.g = (a a').g, a.g a'.1 = (-1)^{|n||a'|} (a' a).g
    with |n| = |a| + |g| the degree of n = a.g in the module, and two terms
    on generators other than the unit multiply to zero."""
    alg, degrees = free.algebra, free.gen_degrees
    out = {} if out is None else out
    for gi, pi in a.items():
        for gj, pj in b.items():
            if gi and gj:
                continue
            acc = out.setdefault(gi or gj, {})
            for mi, ci in pi.items():
                for mj, cj in pj.items():
                    if gi:
                        hit = alg.mono_mul(mj, mi)
                        odd = alg.mono_degree(mj) * (alg.mono_degree(mi) + degrees[gi]) % 2
                    else:
                        hit, odd = alg.mono_mul(mi, mj), 0
                    if hit is not None:
                        add_term(acc, hit[1], (-c if odd else c) * hit[0] * ci * cj)
    return {g: poly for g, poly in out.items() if poly}


def _comb_eq(a: Combination, b: Combination) -> bool:
    """a = b, compared term by term once empty coefficients are dropped."""
    return {g: p for g, p in a.items() if p} == {g: p for g, p in b.items() if p}


def naive_structure(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> NaiveReport:
    """When e' = 0 the unit generator splits off the total-space cone, whose
    other generators span a dg A-module N with its own action.  The naive
    product is the square-zero extension of A by N,
    (a, n)(a', n') = (a a', a n' + (-1)^{|n||a'|} a' n), with |n| the degree
    of n in N; for every dg A-module it is a dgc algebra: unital, graded
    commutative, associative and Leibniz (Felix-Halperin-Thomas, GTM 205,
    section 6).  The signs of _naive_mul depend only on the parities of
    the factors' algebra and module degrees, and each parity class of the
    window occurs, at no higher degree, among the elements x.g with x the
    unit or an algebra generator and g a module generator: the report checks
    the dgc axioms on those, which guards the implementation.  It tabulates
    the cohomology ring, with a wedge-of-spheres verdict when the
    differential vanishes and all positive products are zero."""
    return _naive(_ActionPipeline(data, max_degree))


def _generator_elements(free: FreeDgModule, window: int) -> list[tuple[int, Combination]]:
    """(degree, x.g) for the elements x.g of degree <= window, x the unit or an
    algebra generator and g a module generator, in order of degree."""
    alg = free.algebra
    monos = [alg.unit_mono(), *(next(iter(alg.generator_poly(n))) for n in alg.names)]
    return sorted(
        (
            (alg.mono_degree(m) + deg, {gi: {m: 1}})
            for gi, deg in enumerate(free.gen_degrees)
            for m in monos
            if alg.mono_degree(m) + deg <= window
        ),
        key=lambda e: e[0],
    )


def _naive_axioms(free: FreeDgModule, window: int) -> tuple[bool, bool, bool, bool, list[str]]:
    """(unital, graded commutative, associative, Leibniz, failures) of the naive
    product on the generator elements x.g of degree <= window, g = 0 the
    closed degree-0 unit."""
    alg, d = free.algebra, free.d_combination
    elts = _generator_elements(free, window)
    unit: Combination = {0: {alg.unit_mono(): 1}}
    failed: list[tuple[str, str]] = []

    def mul(x: Combination, y: Combination, c=1, out=None) -> Combination:
        return _naive_mul(free, x, y, c, out)

    for i, x in elts:
        if not _comb_eq(mul(unit, x), x) or not _comb_eq(mul(x, unit), x):
            failed.append(("unit", f"unit fails on {free.basis_labels(i)}"))
    for i, x in elts:
        for j, y in (e for e in elts if i <= e[0] <= window - i):
            xy = mul(x, y)
            if not _comb_eq(xy, mul(y, x, (-1) ** (i * j))):
                failed.append(("comm", f"graded commutativity fails at degrees ({i}, {j})"))
            if not _comb_eq(d(xy), mul(x, d(y), (-1) ** i, mul(d(x), y))):
                failed.append(("leibniz", f"Leibniz fails at degrees ({i}, {j})"))
    for i, x in elts:
        for j, y in elts:
            for k, z in (e for e in elts if i + j + e[0] <= window):
                if not _comb_eq(mul(mul(x, y), z), mul(x, mul(y, z))):
                    failed.append(("assoc", f"associativity fails at degrees ({i}, {j}, {k})"))
    bad = {axiom for axiom, _ in failed}
    flags = (axiom not in bad for axiom in ("unit", "comm", "assoc", "leibniz"))
    return (*flags, [msg for _, msg in failed])


def _naive(p: _ActionPipeline) -> NaiveReport:
    data = p.data
    if not _euler_map_is_zero(data):
        raise PreconditionError("naive product needs a vanishing Euler map on the window")
    total = p.total
    free = total.module
    window = total.window
    unital, commutative, associative, leibniz, failures = _naive_axioms(free, window)
    betti = total.betti_model
    ring: list[RingEntry] = []
    if leibniz:
        h = {n: module_cohomology(free, n) for n in range(window + 1)}
        # each nonzero H^n, n >= 1, as combinations: only such pairs have entries
        classes = {
            n: [free.vector_combination(rep, n) for rep in h[n].representatives]
            for n in range(1, window + 1)
            if h[n].betti
        }
        pairs = [
            (i, ai, j, bi) for i, xs in classes.items() for j, ys in classes.items()
            if i <= j <= window - i for ai in range(len(xs)) for bi in range(len(ys))
        ]
        # one elimination per degree t serves every product landing in H^t
        products: dict[int, list[tuple[Fraction, ...]]] = {}
        for i, ai, j, bi in pairs:
            prod = _naive_mul(free, classes[i][ai], classes[j][bi])
            products.setdefault(i + j, []).append(free.combination_vector(prod, i + j))
        coords = {t: iter(h[t].coords(vectors)) for t, vectors in products.items()}
        ring = [RingEntry(i, ai, j, bi, next(coords[i + j])) for i, ai, j, bi in pairs]
    positive_zero = leibniz and not any(any(entry.coords) for entry in ring)

    zero_diff = all(free.differential_matrix(k).is_zero() for k in range(window)) and all(
        not diff for diff, deg in zip(free.gen_diffs, free.gen_degrees) if deg <= window
    )
    wedge = zero_diff and positive_zero and not failures
    spheres = tuple(n for n in range(1, window + 1) for _ in range(betti.get(n))) if wedge else ()
    ok = unital and commutative and associative and leibniz
    return NaiveReport(
        ok, window, betti, unital, commutative, associative, leibniz,
        positive_zero, wedge, spheres or None, tuple(ring), tuple(failures),
    )


# ---- Smith-Gysin inequality -------------------------------------------------


class SmithGysinReport(NamedTuple):
    """One instance of the inequality
    dim H^{r-1}(relative) + sum_i dim H^{r+2i}(F) <= sum_i dim H^{r+2i}(M)."""

    r: int
    verdict: str
    window: int
    relative_term: int
    fixed_sum: int
    total_sum: int
    stabilized: bool
    reason: str | None


def smith_gysin_inequality(
    data: BasicData, max_degree: int = DEFAULT_DEGREE, r: int = 0
) -> SmithGysinReport:
    """Evaluates both sides of the Smith-Gysin inequality for an isometric
    flow; the verdict is inconclusive unless both Betti tables vanish in the
    top two window degrees, so the lacunary sums are complete."""
    return _smith_gysin(_ActionPipeline(data, max_degree), r)


def _smith_gysin(p: _ActionPipeline, r: int) -> SmithGysinReport:
    data = p.data
    if data.variant != "isometric_flow":
        raise PreconditionError("the Smith-Gysin inequality is reported for isometric flows")
    if data.fixed_set_empty:
        raise PreconditionError("the Smith-Gysin inequality needs a nonempty fixed set")
    if r < 0:
        raise ValidationError(f"inequality index r = {r} must be nonnegative")
    total, fixed = p.total, p.fixed
    window = min(total.window, fixed.window)
    if r > window:
        return SmithGysinReport(
            r, "inconclusive", window, 0, 0, 0, False,
            f"index {r} lies outside the window {window}",
        )
    bm, bf = total.betti_model, fixed.betti_model
    relative_term = 0 if r == 0 else module_cohomology(data.relative_model, r - 1).betti
    fixed_sum = sum(bf.get(n) for n in range(r, window + 1, 2))
    total_sum = sum(bm.get(n) for n in range(r, window + 1, 2))
    stabilized = window >= 1 and not any(
        (bm.get(window), bm.get(window - 1), bf.get(window), bf.get(window - 1))
    )
    if not stabilized:
        return SmithGysinReport(
            r, "inconclusive", window, relative_term, fixed_sum, total_sum, False,
            "cohomology has not stabilized in the top two window degrees",
        )
    verdict = "holds" if relative_term + fixed_sum <= total_sum else "fails"
    return SmithGysinReport(
        r, verdict, window, relative_term, fixed_sum, total_sum, True, None
    )


def semifree_s3_models(
    data: BasicData, max_degree: int = DEFAULT_DEGREE
) -> tuple[MinimalModelResult, MinimalModelResult]:
    """Total-space and fixed-set models for a semifree quaternionic action,
    built from the same two cones with a degree-4 Euler map."""
    p = _ActionPipeline(data, max_degree)
    if data.variant != "semifree_S3":
        raise PreconditionError(
            "semifree quaternionic models need variant semifree_S3 (degree-4 Euler map)"
        )
    return p.total, p.fixed


# ---- full report -------------------------------------------------------------


class ActionReport(NamedTuple):
    """Everything the basic data determines, with notes for skipped parts."""

    name: str
    variant: str
    max_degree: int
    total: MinimalModelResult
    fixed: MinimalModelResult | None
    equivariant: EquivariantModel | None
    les: EquivariantLesReport | None
    shared_basis: SharedBasisReport | None
    scalars: ScalarsReport | None
    poincare: PoincareReport | None
    formality: FormalityReport | None
    localization: LocalizationReport
    dimc: DimcReport | None
    almost_free: AlmostFreeReport | None
    naive: NaiveReport | None
    smith_gysin: tuple[SmithGysinReport, ...]
    notes: tuple[str, ...]

    @property
    def betti_total(self) -> GradedDims:
        return self.total.betti_model

    @property
    def betti_fixed(self) -> GradedDims | None:
        return self.fixed.betti_model if self.fixed else None

    @property
    def betti_borel(self) -> GradedDims | None:
        return self.equivariant.betti if self.equivariant else None


def action_report(data: BasicData, max_degree: int = DEFAULT_DEGREE) -> ActionReport:
    """Runs every applicable operation on the basic data and collects the
    results; operations whose hypotheses the data does not meet are skipped
    with an explanatory note.  One pipeline builds each model once and
    every section reads it from there."""
    p = _ActionPipeline(data, max_degree)
    notes: list[str] = []
    total = p.total
    fixed = equivariant = les = shared = scalars = None
    poincare = formality = dimc = almost = naive = None
    smith: tuple[SmithGysinReport, ...] = ()

    if data.fixed_set_empty:
        notes.append(
            "fixed set declared empty: fixed-set, Borel, fiber-series, formality "
            "and dimension reports are skipped"
        )
        try:
            almost = _almost_free(p)
        except PreconditionError as exc:
            notes.append(f"almost-free reduction skipped: {exc}")
    else:
        fixed = p.fixed
        shared = _shared_basis(p)
        equivariant, _ = p.borel
        les = _equivariant_les(p)
        scalars = _extension_of_scalars(p)
        formality = _formality(p)
        if data.euler_degree == 2:
            poincare = _poincare(p)
            dimc = _dimc(p)
        else:
            notes.append(
                "fiber-series and cohomological-dimension identities are stated "
                "for a degree-2 Euler class: skipped"
            )

    localization = _localization(p)

    if _euler_map_is_zero(data):
        naive = _naive(p)
    else:
        notes.append("Euler map is nonzero on the window: naive product report skipped")

    if data.variant == "isometric_flow" and not data.fixed_set_empty:
        smith = tuple(_smith_gysin(p, r) for r in (0, 1, 2))

    return ActionReport(
        name=data.name,
        variant=data.variant,
        max_degree=max_degree,
        total=total,
        fixed=fixed,
        equivariant=equivariant,
        les=les,
        shared_basis=shared,
        scalars=scalars,
        poincare=poincare,
        formality=formality,
        localization=localization,
        dimc=dimc,
        almost_free=almost,
        naive=naive,
        smith_gysin=smith,
        notes=tuple(notes),
    )
