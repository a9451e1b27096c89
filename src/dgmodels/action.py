"""The basic data of a circle action and the three models it determines.

The basic data of an action consists of a Sullivan presentation A for the
orbit space, a minimal free A-dg module M modelling the relative orbit
cohomology, and two A-linear structure maps into A itself: a degree-0
inclusion map i' and an Euler map e' whose degree depends on the variant
(2 for circle actions and isometric flows, 4 for semifree quaternionic
actions).  The cone of e' is the minimal model of the total space, the cone
of i' that of the fixed-point set, and the cone of q' = e' + i'e over A
extended by a polynomial Euler class e is the Borel (equivariant) model.

`_ActionPipeline` builds each of the three once for one (data, window);
the reports in `circle` read them from there.  Basic data may also be
assembled from tabulated complexes, by `minmodel.from_complexes`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cdga import (
    CheckReport,
    Poly,
    SullivanPresentation,
    check_basis_budget,
    check_check_budget,
    extend,
    poly_add,
    poly_is_zero,
)
from .dgmodule import (
    DgModuleMap,
    FreeDgModule,
    MinimalModelResult,
    algebra_module,
    betti_table,
    certify_free_map,
    certify_on_generators,
    free_cone_module,
    generator_image,
    identity_map,
    map_from_generator_images,
    verify_minimal,
)
from .errors import DegreeWindowError, PreconditionError, ValidationError
from .linalg import GradedDims

Vector = tuple[Fraction, ...]

VARIANTS = ("circle", "semifree_S3", "isometric_flow")
EULER_DEGREES = {"circle": 2, "isometric_flow": 2, "semifree_S3": 4}

DEFAULT_DEGREE = 12


# ---- basic data ----------------------------------------------------------


def _certificate_count(phi: DgModuleMap) -> int:
    """Checks certify_free_map runs on phi, counted from its window alone: one
    per window degree and one per source generator there."""
    window = phi.window()
    gens = phi.source.gen_degrees if isinstance(phi.source, FreeDgModule) else ()
    return len(window) + sum(k in window for k in gens)


class BasicData(NamedTuple):
    """Orbit-space data determining the models of one action.

    relative_model is a minimal free A-dg module; i_prime (degree 0) and
    e_prime (degree 2, or 4 for the semifree variant) are A-linear chain
    maps from it into A viewed as a module over itself.  euler_self_map,
    when given, is the degree-raising action of the Euler class on the
    relative model itself, used by the localization report.
    """

    algebra: SullivanPresentation
    relative_model: FreeDgModule
    i_prime: DgModuleMap
    e_prime: DgModuleMap
    fixed_set_empty: bool = False
    variant: str = "circle"
    euler_self_map: DgModuleMap | None = None
    base_simply_connected: bool = True
    fixed_components: int | None = None
    name: str = ""

    @property
    def euler_degree(self) -> int:
        return EULER_DEGREES[self.variant]

    def validate(self) -> CheckReport:
        maps = (self.i_prime, self.e_prime, self.euler_self_map)
        check_check_budget(
            sum(_certificate_count(m) for m in maps if m is not None), "the basic data"
        )
        failures: list[str] = []
        checks = 0

        checks += 1
        if self.variant not in VARIANTS:
            failures.append(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
            return CheckReport("basic data", False, tuple(failures), checks)

        checks += 1
        if not isinstance(self.relative_model, FreeDgModule):
            failures.append("relative model must be a free module")
            return CheckReport("basic data", False, tuple(failures), checks)
        if self.relative_model.algebra != self.algebra:
            failures.append("relative model is not a module over the declared algebra")

        checks += 1
        if self.i_prime.source is not self.relative_model:
            failures.append("i' is not defined on the relative model")
        if self.e_prime.source is not self.relative_model:
            failures.append("e' is not defined on the relative model")
        if self.i_prime.target is not self.e_prime.target:
            failures.append("i' and e' must share one target module")

        checks += 1
        bad = _orbit_module_failure(self.i_prime.target, self.algebra)
        if bad:
            failures.append(bad)

        checks += 1
        if self.i_prime.degree != 0:
            failures.append(f"i' has degree {self.i_prime.degree}; expected 0")
        want = self.euler_degree
        if self.e_prime.degree != want:
            failures.append(
                f"e' has degree {self.e_prime.degree}; variant {self.variant} needs {want}"
            )

        if not failures:
            for label, phi in (("i'", self.i_prime), ("e'", self.e_prime)):
                checks += 1
                rep = certify_free_map(phi)
                if not rep.ok:
                    failures.extend(f"{label}: {msg}" for msg in rep.failures)

            checks += 1
            rep = verify_minimal(self.relative_model)
            if not rep.ok:
                failures.extend(f"relative model: {msg}" for msg in rep.failures)

        checks += 1
        if not self.fixed_set_empty:
            low = [
                name
                for name, deg in zip(
                    self.relative_model.gen_names, self.relative_model.gen_degrees
                )
                if deg < 1
            ]
            if low:
                failures.append(
                    "relative model has degree-0 generators "
                    f"({', '.join(low)}) although the fixed set is declared nonempty"
                )

        if self.euler_self_map is not None:
            checks += 1
            w = self.euler_self_map
            if w.source is not self.relative_model or w.target is not self.relative_model:
                failures.append("euler_self_map must be an endomorphism of the relative model")
            elif w.degree != self.euler_degree:
                failures.append(
                    f"euler_self_map has degree {w.degree}; expected {self.euler_degree}"
                )
            else:
                rep = certify_free_map(w)
                if not rep.ok:
                    failures.extend(f"euler_self_map: {msg}" for msg in rep.failures)

        if self.fixed_components is not None:
            checks += 1
            if self.fixed_components < 0:
                failures.append("fixed_components must be nonnegative")
            elif self.fixed_set_empty and self.fixed_components:
                failures.append("fixed set declared empty but fixed_components is positive")
            elif not self.fixed_set_empty and self.fixed_components == 0:
                failures.append("fixed set declared nonempty but fixed_components is zero")

        return CheckReport("basic data", not failures, tuple(failures), checks)


def _orbit_module_failure(mod, algebra: SullivanPresentation) -> str | None:
    if not isinstance(mod, FreeDgModule):
        return "structure maps must land in the algebra presented as a free module"
    if mod.algebra != algebra:
        return "structure map target is a module over a different algebra"
    if mod.gen_count != 1 or mod.gen_degrees != (0,) or mod.gen_diffs[0]:
        return "structure map target must be free of rank one on a closed degree-0 generator"
    return None


def _fresh_names(prefix: str, count: int, taken: set[str]) -> tuple[str, ...]:
    out: list[str] = []
    i = 0
    while len(out) < count:
        nm = f"{prefix}{i}"
        if nm not in taken:
            out.append(nm)
            taken.add(nm)
        i += 1
    return tuple(out)


def _inject_poly(poly: Poly, width: int) -> Poly:
    return {m + (0,) * width: c for m, c in poly.items()}


def _generator_image_poly(data: BasicData, phi: DgModuleMap, j: int) -> Poly:
    """Image of the j-th relative generator under a structure map, in A."""
    t = data.relative_model.gen_degrees[j] + phi.degree
    if t > phi.target.cap:
        return {}
    return data.algebra.vector_poly(generator_image(phi, j), t)


# ---- the three models ----------------------------------------------------


def _certify_cone(module: FreeDgModule, max_degree: int) -> tuple[int, GradedDims]:
    """The window of a free cone's model and its Betti table there, after
    checking that the cone is minimal."""
    window = min(max_degree, module.cap - 1)
    if window < 0:
        raise DegreeWindowError("degree window is empty; enlarge the caps")
    verify_minimal(module).raise_if_failed()
    return window, betti_table(module, top=window)


def _cone_result(module: FreeDgModule, max_degree: int) -> MinimalModelResult:
    """A minimal free cone module as its own minimal model: rho is the identity.
    The cone's inclusion and projection are not built, as no report reads them."""
    window, betti = _certify_cone(module, max_degree)
    return MinimalModelResult(
        module=module,
        rho=identity_map(module),
        window=window,
        mono_degree=None,
        betti_model=betti,
        betti_target=betti,
        batches=(),
    )


class _ActionPipeline:
    """The models that one (BasicData, max_degree) determines, each built once.

    Construction validates the data.  The total-space and fixed-set cones
    and the Borel model are built on first use and then shared by every
    report section that reads them; they live as long as the pipeline,
    which each public report function creates afresh.
    """

    def __init__(self, data: BasicData, max_degree: int):
        # the Borel objects are the largest a report builds: reject a window they
        # cannot fit before validation builds a matrix per degree of it.  Data that
        # validates has a known variant and a free relative model, so has this algebra.
        if data.variant in VARIANTS and isinstance(data.relative_model, FreeDgModule):
            self.borel_algebra = _borel_algebra(data)
        data.validate().raise_if_failed()
        self.data = data
        self.max_degree = max_degree

    @cached_property
    def total(self) -> MinimalModelResult:
        data = self.data
        names = _fresh_names("c", data.relative_model.gen_count, set(data.e_prime.target.gen_names))
        cone_module = free_cone_module(data.e_prime, gen_names=names, check=False)
        return _cone_result(cone_module, self.max_degree)

    @cached_property
    def fixed(self) -> MinimalModelResult:
        data = self.data
        if data.fixed_set_empty:
            raise PreconditionError(
                "fixed set is declared empty, so there is no fixed-set model; "
                "use almost_free_model for the dgc reduction"
            )
        names = _fresh_names("g", data.relative_model.gen_count, set(data.i_prime.target.gen_names))
        cone_module = free_cone_module(data.i_prime, gen_names=names, check=False)
        result = _cone_result(cone_module, self.max_degree)
        if data.fixed_components is not None:
            h0 = result.betti_model.get(0)
            if h0 != data.fixed_components:
                raise ValidationError(
                    f"declared {data.fixed_components} fixed components but H^0 of the "
                    f"fixed-set model has dimension {h0}"
                )
        return result

    @cached_property
    def borel(self) -> EquivariantModel:
        return _borel_model(self.data, self.borel_algebra, self.max_degree)


class EquivariantModel(NamedTuple):
    """Borel model: free over the algebra extended by the Euler class."""

    algebra: SullivanPresentation
    euler_name: str
    module: FreeDgModule
    window: int
    betti: GradedDims


def _borel_algebra(data: BasicData) -> SullivanPresentation:
    """A (x) Lambda(e), e of the Euler degree and named apart from A's generators;
    checks the budget of the Borel module and its cone before either is built."""
    e_name = "e"
    while e_name in data.algebra.names:
        e_name += "e"
    alg_e = extend(data.algebra, e_name, data.euler_degree, None)
    m, d_e = data.relative_model, data.euler_degree
    m_cap = min(m.cap, alg_e.cap)
    a_cap = min(alg_e.cap, m_cap + d_e - 1)
    cone_degrees = (0, *(g + d_e - 1 for g in m.gen_degrees))
    for degrees, cap in ((m.gen_degrees, m_cap), (cone_degrees, a_cap)):
        check_basis_budget(alg_e.module_basis_slots(degrees, cap), "the module", cap)
    return alg_e


def _borel_model(
    data: BasicData, alg_e: SullivanPresentation, max_degree: int
) -> EquivariantModel:
    """The Borel model: the cone module of q', certified on its generators,
    with no inclusion or projection; `_equivariant_les` writes those around
    the same module, as only the long exact sequence reads them."""
    m = data.relative_model
    d_e = data.euler_degree
    e_name = alg_e.names[-1]

    diffs = [{h: _inject_poly(poly, 1) for h, poly in c.items()} for c in m.gen_diffs]
    m_e = FreeDgModule(alg_e, (), cap=min(m.cap, alg_e.cap))
    m_e._adjoin(m.gen_names, m.gen_degrees, diffs, None)
    a_mod = algebra_module(alg_e, cap=min(alg_e.cap, m_e.cap + d_e - 1))

    e_poly = alg_e.generator_poly(e_name)
    i_hi = data.i_prime.window().stop - 1
    e_hi = data.e_prime.window().stop - 1
    images: dict[str, Vector] = {}
    for j, gname in enumerate(m.gen_names):
        g = m.gen_degrees[j]
        t = g + d_e
        if t > a_mod.cap:
            # the differential of this cone generator lies beyond the window
            continue
        if g > e_hi or g > i_hi:
            raise DegreeWindowError(
                f"structure maps are not defined at generator {gname} (degree {g}); "
                "enlarge the map windows to build the Borel model"
            )
        e_part = _inject_poly(_generator_image_poly(data, data.e_prime, j), 1)
        i_part = _inject_poly(_generator_image_poly(data, data.i_prime, j), 1)
        q_poly = poly_add(e_part, alg_e.poly_mul(i_part, e_poly))
        if not poly_is_zero(q_poly):
            images[gname] = alg_e.poly_vector(q_poly, t)
    q_prime = map_from_generator_images(m_e, a_mod, d_e, images, name="q'")
    certify_on_generators(q_prime).raise_if_failed()

    names = _fresh_names("c", m.gen_count, set(a_mod.gen_names))
    cn = free_cone_module(q_prime, gen_names=names, check=False)
    return EquivariantModel(alg_e, e_name, cn, *_certify_cone(cn, max_degree))
