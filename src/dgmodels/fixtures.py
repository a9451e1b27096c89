"""Worked circle-action datasets with hand-checked cohomology.

Each builder returns BasicData sized to a requested top degree: the
relative ladder is extended so that every model generator whose degree can
influence the reported window is present, and the algebra cap leaves room
for the Euler extension.
"""

from __future__ import annotations

from .action import DEFAULT_DEGREE, BasicData
from .cdga import SullivanPresentation, trivial_algebra
from .dgmodule import FreeDgModule, algebra_module, map_from_generator_images
from .errors import ValidationError


def _require_window(name: str, max_degree: int, least: int) -> None:
    """Reject a window too small to hold the fixture's structure maps."""
    if max_degree < least:
        raise ValidationError(f"fixture '{name}' needs max_degree >= {least}")


def _ladder(name: str, max_degree: int, a_deg: int, euler_deg: int, **fields) -> BasicData:
    """The ladder over Lambda(a), |a| = a_deg odd: generators b_0, b_1, ...
    with deg b_{2j} = a_deg - euler_deg + j (a_deg - 1) and deg b_{2j+1} =
    a_deg + j (a_deg - 1) up to the module cap max_degree + 1, d b_0 =
    d b_1 = 0 and d b_{n+2} = a b_n.  The Euler map, of degree euler_deg,
    sends b_0 to a, and the inclusion map sends b_1 to a; it needs b_1
    inside the module cap, so the window is at least a_deg - 1.  fields
    are BasicData's remaining fields.
    """
    _require_window(name, max_degree, a_deg - 1)
    cap = max_degree + euler_deg
    alg = SullivanPresentation([("a", a_deg)], {}, cap=cap)
    gens: list[tuple[str, int]] = []
    diffs: dict[str, dict[str, dict]] = {}
    n = 0
    while True:
        deg = a_deg + (n // 2) * (a_deg - 1) - (0 if n % 2 else euler_deg)
        if deg > max_degree + 1:
            break
        gens.append((f"b{n}", deg))
        if n >= 2:
            diffs[f"b{n}"] = {f"b{n - 2}": {(1,): 1}}
        n += 1
    m = FreeDgModule(alg, gens, diffs, cap=max_degree + 1)
    a_mod = algebra_module(alg, cap=cap)
    a_vec = alg.poly_vector(alg.generator_poly("a"), a_deg)
    e_prime = map_from_generator_images(m, a_mod, euler_deg, {"b0": a_vec}, name="e'")
    i_prime = map_from_generator_images(m, a_mod, 0, {"b1": a_vec}, name="i'")
    return BasicData(alg, m, i_prime, e_prime, name=name, **fields)


def s4_hopf(max_degree: int = DEFAULT_DEGREE) -> BasicData:
    """Rotation of the 4-sphere with two fixed points.

    The orbit space has the rational type of S^3 (one closed generator a in
    degree 3).  The relative model is the ladder b_0, b_1, b_2, ... with
    deg b_n = 2 floor((n+1)/2) + 1, d b_0 = d b_1 = 0 and
    d b_{n+2} = a b_n; the Euler map sends b_0 to a, the inclusion map
    sends b_1 to a.  Its cohomology is one class in degree 1 and one in
    degree 3, matching the pair (S^3, two points).
    """
    return _ladder("s4_hopf", max_degree, 3, 2, fixed_components=2)


def cp2(max_degree: int = DEFAULT_DEGREE) -> BasicData:
    """Rotation of the complex projective plane fixing a point and a line.

    The orbit space is rationally trivial; the relative model has two
    closed generators in degrees 1 and 3 and both structure maps vanish,
    so the total-space model is a wedge of a 2-sphere and a 4-sphere and
    the fixed set has the cohomology of a point plus a 2-sphere.
    """
    cap = max_degree + 2
    alg = trivial_algebra(cap=cap)
    m = FreeDgModule(alg, [("m1", 1), ("m3", 3)], {}, cap=max_degree + 1)
    a_mod = algebra_module(alg, cap=cap)
    e_prime = map_from_generator_images(m, a_mod, 2, {}, name="e'")
    i_prime = map_from_generator_images(m, a_mod, 0, {}, name="i'")
    return BasicData(
        alg, m, i_prime, e_prime, fixed_components=2, name="cp2"
    )


def almost_free_hopf(max_degree: int = DEFAULT_DEGREE) -> BasicData:
    """Free Hopf-type action with orbit space the rational 2-sphere.

    The orbit algebra is Lambda(u, v) with dv = u^2; the relative model is
    free of rank one on a closed degree-0 generator, the Euler map is
    multiplication by u and the inclusion map is the unit.  There are no
    fixed points and the total space has the rational type of S^3.
    """
    cap = max_degree + 2
    alg = SullivanPresentation(
        [("u", 2), ("v", 3)], {"v": {(2, 0): 1}}, cap=cap
    )
    m = FreeDgModule(alg, [("m0", 0)], {}, cap=max_degree + 1)
    a_mod = algebra_module(alg, cap=cap)
    u_vec = alg.poly_vector(alg.generator_poly("u"), 2)
    one_vec = alg.poly_vector(alg.unit_poly(), 0)
    e_prime = map_from_generator_images(m, a_mod, 2, {"m0": u_vec}, name="e'")
    i_prime = map_from_generator_images(m, a_mod, 0, {"m0": one_vec}, name="i'")
    return BasicData(
        alg,
        m,
        i_prime,
        e_prime,
        fixed_set_empty=True,
        fixed_components=0,
        name="almost_free_hopf",
    )


def flow_s4(max_degree: int = DEFAULT_DEGREE) -> BasicData:
    """The 4-sphere dataset read as an isometric flow (same basic data, so
    the same least window, checked here under this fixture's name)."""
    _require_window("flow_s4", max_degree, 2)
    return s4_hopf(max_degree)._replace(variant="isometric_flow", name="flow_s4")


def nonformal(max_degree: int = DEFAULT_DEGREE) -> BasicData:
    """A dataset failing the equivariant formality criterion.

    The orbit algebra is polynomial on one degree-2 class u; the relative
    model has a single closed degree-2 generator b with i'(b) = u and
    e' = 0.  The class [b] is killed by e* but i*[b] = [u] is nonzero, so
    no kernel string for q* can start at [b].
    """
    cap = max_degree + 2
    alg = SullivanPresentation([("u", 2)], {}, cap=cap)
    m = FreeDgModule(alg, [("b", 2)], {}, cap=max_degree + 1)
    a_mod = algebra_module(alg, cap=cap)
    u_vec = alg.poly_vector(alg.generator_poly("u"), 2)
    e_prime = map_from_generator_images(m, a_mod, 2, {}, name="e'")
    i_prime = map_from_generator_images(m, a_mod, 0, {"b": u_vec}, name="i'")
    return BasicData(
        alg, m, i_prime, e_prime, fixed_components=1, name="nonformal"
    )


def semifree_suspension(max_degree: int = DEFAULT_DEGREE) -> BasicData:
    """Semifree quaternionic action with a degree-4 Euler map.

    The orbit space has the rational type of S^7; the relative ladder
    b_0 (degree 3), b_1 (degree 7), b_2 (degree 9), b_3 (degree 13) has
    d b_{n+2} = a b_n, the Euler map sends b_0 to a and the inclusion map
    sends b_1 to a.  The total space computes to a rational 10-sphere and
    the fixed set to a rational 2-sphere inside the window.
    """
    return _ladder(
        "semifree_suspension", max_degree, 7, 4, variant="semifree_S3", fixed_components=1
    )


FIXTURES = {
    "s4_hopf": s4_hopf,
    "cp2": cp2,
    "almost_free_hopf": almost_free_hopf,
    "flow_s4": flow_s4,
    "nonformal": nonformal,
    "semifree_suspension": semifree_suspension,
}


def fixture(name: str, max_degree: int = DEFAULT_DEGREE) -> BasicData:
    try:
        builder = FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise ValidationError(
            f"unknown fixture {name!r}; known fixtures: {known}"
        ) from None
    return builder(max_degree)
