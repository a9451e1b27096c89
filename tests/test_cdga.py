"""Sullivan presentations: graded-commutative products, differentials, parsing."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgmodels.cdga import (
    BASIS_BUDGET,
    SullivanPresentation,
    extend,
    parse_polynomial,
    trivial_algebra,
    verify_cdga,
)
from dgmodels.circle import equivariant_model
from dgmodels.dgmodule import FreeDgModule, TabulatedDgModule
from dgmodels.errors import DegreeWindowError, ValidationError
from dgmodels.fixtures import fixture
from dgmodels.linalg import Q, RatMatrix, as_q


def s2_model(cap=12):
    # Lambda(u, v), deg u = 2, deg v = 3, dv = u^2: the sphere S^2
    return SullivanPresentation([("u", 2), ("v", 3)], {"v": {(2, 0): Q(1)}}, cap=cap)


def test_basis_dimensions_are_monomial_counts():
    alg = s2_model()
    # degree 6: u^3, and degree 7: u^2 v
    assert alg.dim(6) == 1
    assert alg.dim(7) == 1
    assert alg.dim(1) == 0
    assert [alg.dim(n) for n in range(6)] == [1, 0, 1, 1, 1, 1]


def test_odd_squares_vanish():
    alg = SullivanPresentation([("a", 3)], {}, cap=12)
    a = alg.generator_poly("a")
    assert alg.poly_mul(a, a) == {}


def test_koszul_sign_on_odd_generators():
    alg = SullivanPresentation([("a", 3), ("b", 3)], {}, cap=12)
    a, b = alg.generator_poly("a"), alg.generator_poly("b")
    ab = alg.poly_mul(a, b)
    ba = alg.poly_mul(b, a)
    assert ab == {m: -c for m, c in ba.items()}
    assert len(ab) == 1


def loop_mono_mul(degrees, m1, m2):
    """The product of two monomials by a loop over every exponent, as
    SullivanPresentation.mono_mul computed it before: the oracle."""
    odd = [d % 2 == 1 for d in degrees]
    exps = []
    for i, (a, b) in enumerate(zip(m1, m2)):
        e = a + b
        if odd[i] and e > 1:
            return None
        exps.append(e)
    swaps = 0
    for j, b in enumerate(m2):
        if b and odd[j]:
            swaps += sum(m1[i] for i in range(j + 1, len(m1)) if odd[i])
    return (-1 if swaps % 2 else 1), tuple(exps)


def loop_mono_degree(degrees, m):
    return sum(e * d for e, d in zip(m, degrees))


@st.composite
def monomial_pairs(draw):
    """1-4 generators of degrees 1-6 and two monomials over them."""
    degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))

    def monomial():
        return tuple(draw(st.integers(0, 1 if d % 2 else 3)) for d in degrees)

    return degrees, monomial(), monomial()


@settings(max_examples=200, deadline=None)
@given(monomial_pairs())
@example(([3], (1,), (1,)))  # an odd generator squared is zero
@example(([1, 2, 3], (0, 2, 1), (1, 1, 0)))  # z.x = -x.z past the even y
@example(([1, 3, 5, 2], (0, 1, 1, 0), (1, 0, 0, 3)))  # x past y and z: sign +1
def test_monomial_arithmetic_matches_the_exponent_loop(case):
    degrees, m1, m2 = case
    alg = SullivanPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], {}, cap=6)
    assert alg.mono_mul(m1, m2) == loop_mono_mul(degrees, m1, m2)
    assert alg.mono_degree(m1) == loop_mono_degree(degrees, m1)
    assert alg.mono_degree(m2) == loop_mono_degree(degrees, m2)


def test_monomial_arithmetic_pins_a_zero_and_a_koszul_sign():
    alg = SullivanPresentation([("x", 1), ("y", 2), ("z", 3)], {}, cap=6)
    assert alg.mono_mul((0, 0, 1), (0, 0, 1)) is None
    assert alg.mono_mul((0, 2, 1), (1, 1, 0)) == (-1, (1, 3, 1))
    assert alg.mono_mul((1, 1, 0), (0, 2, 1)) == (1, (1, 3, 1))
    assert alg.mono_degree((1, 3, 1)) == 10


def test_leibniz_on_products():
    alg = s2_model()
    u, v = alg.generator_poly("u"), alg.generator_poly("v")
    uv = alg.poly_mul(u, v)
    # d(uv) = u * dv = u^3 since du = 0
    got = alg.differential_matrix(5).apply(alg.poly_vector(uv, 5))
    u3 = alg.poly_mul(u, alg.poly_mul(u, u))
    assert got == alg.poly_vector(u3, 6)


def test_differential_squares_to_zero_checked_at_build():
    with pytest.raises(ValidationError):
        # d(w) = z with dz != 0 forces d(d(w)) != 0
        SullivanPresentation(
            [("u", 2), ("z", 3), ("w", 2)],
            {"z": {(2, 0, 0): Q(1)}, "w": {(0, 1, 0): Q(1)}},
            cap=8,
        )


def test_generator_name_and_degree_validation():
    with pytest.raises(ValidationError):
        SullivanPresentation([("u", 0)], {}, cap=8)
    with pytest.raises(ValidationError):
        SullivanPresentation([("u", 2), ("u", 4)], {}, cap=8)
    with pytest.raises(ValidationError):
        SullivanPresentation([("2u", 2)], {}, cap=8)


def test_parse_polynomial_grammar():
    alg = s2_model()
    u = alg.generator_poly("u")
    assert parse_polynomial(alg, "u^2") == alg.poly_mul(u, u)
    assert parse_polynomial(alg, "u**2") == alg.poly_mul(u, u)
    assert parse_polynomial(alg, "3/4*u") == {m: Q(3, 4) * c for m, c in u.items()}
    assert parse_polynomial(alg, "u - u") == {}
    assert parse_polynomial(alg, "") == {}
    assert parse_polynomial(alg, "2") == {m: 2 * c for m, c in alg.unit_poly().items()}
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "u +")
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "w")
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "u^(1/2)")


def test_parse_polynomial_bounds_powers_and_nesting():
    alg = s2_model()
    # a power with a term above the cap is rejected, not computed: u^6 is the
    # last power of u in the window
    assert parse_polynomial(alg, "u^6") == {(6, 0): Q(1)}
    with pytest.raises(DegreeWindowError):
        parse_polynomial(alg, "u^7")
    with pytest.raises(DegreeWindowError):
        parse_polynomial(alg, "u^1000000")
    # odd squares vanish, so a huge exponent on v is zero, and exact
    assert parse_polynomial(alg, "v^1000000") == {}
    assert parse_polynomial(alg, "(1 + v)^1000000") == {(0, 0): Q(1), (0, 1): Q(1000000)}
    # a degree-0 base never meets the cap; its coefficient length is bounded
    assert parse_polynomial(alg, "(1/2)^3*u") == {(1, 0): Q(1, 8)}
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "2^1000000")
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "u^(2^10000)")
    # nesting too deep for the parser's stack or for the evaluator
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "-" * 100000 + "u")
    with pytest.raises(ValidationError):
        parse_polynomial(alg, "-" * 5000 + "u")


def test_parse_polynomial_bounds_every_number():
    # each literal, sum, product and quotient is held to 4096 bits as it is
    # computed; a power keeps its own message
    alg = s2_model()
    big = str(2**3000 + 1)
    assert parse_polynomial(alg, f"{big}*u") == {(1, 0): Q(2**3000 + 1)}
    for text in (
        "9" * 1300 + "*u",
        f"{big}*{big}*u",
        f"u/{big}/{big}",
        f"1/{big} + 1/{2**3000 + 3}",
    ):
        with pytest.raises(ValidationError, match="longer than 4096 bits"):
            parse_polynomial(alg, text)
    with pytest.raises(ValidationError, match="power in"):
        parse_polynomial(alg, "2^5000")


def test_basis_budget_bounds_algebras_and_modules():
    alg = s2_model(cap=12)
    # for an algebra the generating function is exact: the dims of Lambda(u, v)
    # through the cap, plus one slot per degree
    assert alg.module_basis_slots((0,), 12) == 13 + sum(alg.dim(k) for k in range(13))
    budget = f"over the budget of {BASIS_BUDGET}"
    with pytest.raises(ValidationError, match=budget):
        trivial_algebra(cap=100000)
    with pytest.raises(ValidationError, match=budget):
        SullivanPresentation([("x", 2), ("y", 2), ("z", 2)], cap=60)
    with pytest.raises(ValidationError, match=budget):
        FreeDgModule(alg, [(f"m{i}", 1) for i in range(200)], {}, cap=12)
    with pytest.raises(ValidationError, match=budget):
        TabulatedDgModule(alg, 100000, {})
    # the largest object a shipped fixture builds at window 28
    borel = equivariant_model(fixture("s4_hopf", 28), 28).module
    assert borel.algebra.module_basis_slots(borel.gen_degrees, borel.cap) <= BASIS_BUDGET


def test_poly_str_round_trips_through_parser():
    alg = s2_model()
    samples = ["u", "u^2 - 2*v*u", "-3/2*u + v", "0", "1", "u^3 + 7*v*u^2"]
    for text in samples:
        poly = parse_polynomial(alg, text)
        assert parse_polynomial(alg, alg.poly_str(poly)) == poly


ODD_ALGEBRAS = [
    SullivanPresentation([("x", 1), ("y", 1)], {}, cap=4),
    SullivanPresentation([("a", 3), ("u", 2), ("v", 3)], {"v": {(0, 2, 0): Q(1)}}, cap=12),
    SullivanPresentation([("w", 2), ("b", 1), ("c", 5)], {}, cap=10),
]


@st.composite
def polynomials(draw):
    """A polynomial over an algebra with odd generators: up to five monomials
    of any degrees through the cap, with nonzero rational coefficients."""
    alg = draw(st.sampled_from(ODD_ALGEBRAS))
    monos = [m for n in range(alg.cap + 1) for m in alg.basis(n)]
    chosen = draw(st.lists(st.sampled_from(monos), unique=True, max_size=5))
    coeffs = st.fractions(min_value=-99, max_value=99, max_denominator=12).filter(bool)
    return alg, {m: as_q(draw(coeffs)) for m in chosen}


@settings(max_examples=100, deadline=None)
@given(polynomials())
def test_poly_str_round_trips_on_generated_polynomials(case):
    alg, poly = case
    assert parse_polynomial(alg, alg.poly_str(poly)) == poly


def test_verify_cdga_passes_on_good_algebras():
    assert verify_cdga(s2_model()).ok
    assert verify_cdga(trivial_algebra(8)).ok
    assert verify_cdga(SullivanPresentation([("a", 3)], {}, cap=10)).ok


def test_extend_preserves_old_differentials():
    alg = s2_model(cap=10)
    big = extend(alg, "e", 2, None)
    assert big.names == ("u", "v", "e")
    dv = big.differentials[1]
    assert dv == {(2, 0, 0): Q(1)}
    assert verify_cdga(big).ok
    with pytest.raises(ValidationError):
        extend(alg, "u", 2, None)


def test_poly_vector_round_trip():
    alg = s2_model()
    p = parse_polynomial(alg, "u^2 + 3*v*u")
    # degree check: v*u has degree 5, u^2 has degree 4; split by degree
    p4 = {m: c for m, c in p.items() if alg.mono_degree(m) == 4}
    v4 = alg.poly_vector(p4, 4)
    assert alg.vector_poly(v4, 4) == p4


def brute_force_monomials(degrees, n):
    """Every exponent vector of total degree n, odd exponents at most 1, ascending."""
    ranges = [range(2) if d % 2 else range(max(n, 0) // d + 1) for d in degrees]
    return tuple(m for m in product(*ranges) if sum(e * d for e, d in zip(m, degrees)) == n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=4), st.integers(0, 14))
# odd and even generators together, in either order, up to deeper caps
@example([2, 5], 60)
@example([5, 2], 40)
@example([3, 2, 3], 30)
@example([1, 2, 3, 4], 24)
@example([2, 3, 4, 5, 7], 30)
def test_dim_is_the_basis_length_read_off_the_generating_function(degrees, cap):
    alg = SullivanPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], {}, cap=cap)
    dims = [alg.dim(n) for n in range(-2, cap + 1)]  # before any basis is enumerated
    want = [brute_force_monomials(degrees, n) for n in range(-2, cap + 1)]
    assert dims == [len(monos) for monos in want]
    bases = [alg.basis(n) for n in range(-2, cap + 1)]
    assert bases == want
    # the same monomials in the same order: ascending lexicographic, no repeats
    assert all(list(basis) == sorted(set(basis)) for basis in bases)
    for n in (cap + 1, cap + 3):
        with pytest.raises(DegreeWindowError) as by_dim:
            alg.dim(n)
        with pytest.raises(DegreeWindowError) as by_basis:
            alg.basis(n)
        assert str(by_dim.value) == str(by_basis.value) == f"degree {n} exceeds cap {cap}"


def row_walk_action(module, i, k):
    """The action block A^i (x) M^k -> M^(i+k) built by the row walk that
    FreeDgModule.action_matrix ran at every (i, k), empty degrees included."""
    index, basis, a_basis = module.basis_index(i + k), module.basis(k), module.algebra.basis(i)
    rows = [{} for _ in index]
    for a, am in enumerate(a_basis):
        for b, (gi, m) in enumerate(basis):
            hit = module.algebra.mono_mul(am, m)
            if hit is not None:
                rows[index[(gi, hit[1])]][a * len(basis) + b] = hit[0]
    return RatMatrix._make(len(rows), len(a_basis) * len(basis), rows)


# algebras with empty positive degrees: Lambda(x, y) above 2, the odd degrees
# of Lambda(e, f), and every positive degree of Lambda(a) but 3
GAPPED_ALGEBRAS = [
    SullivanPresentation([("x", 1), ("y", 1)], {}, cap=6),
    SullivanPresentation([("e", 2), ("f", 4)], {}, cap=9),
    SullivanPresentation([("a", 3)], {}, cap=10),
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GAPPED_ALGEBRAS),
    st.lists(st.integers(0, 5), min_size=1, max_size=3),
)
def test_action_blocks_at_empty_degrees_are_shared_zeros(alg, gen_degrees):
    module = FreeDgModule(alg, [(f"m{j}", d) for j, d in enumerate(gen_degrees)], {})
    empty = 0
    for i in range(1, module.cap + 1):
        for k in range(module.cap - i + 1):
            got = module.action_matrix(i, k)
            assert got == row_walk_action(module, i, k)
            if not (alg.dim(i) and module.dim(k)):
                empty += 1
                assert got is RatMatrix.zero(module.dim(i + k), alg.dim(i) * module.dim(k))
                assert (i, k) not in module._act_cache
    assert empty
