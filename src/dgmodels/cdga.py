"""Sullivan-presented graded-commutative differential algebras.

A presentation lists generators with their degrees and one differential
polynomial per generator.  Monomials are exponent vectors over the
generators in declaration order (exponents 0/1 on odd generators),
polynomials map monomials to rational coefficients, and per-degree bases
are enumerated in ascending lexicographic order on exponent vectors, so
every matrix produced here is deterministic.

All structure is materialized only up to the presentation's degree cap;
products that would land above the cap are rejected rather than
truncated.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Mapping, NamedTuple, Sequence

from .errors import DegreeWindowError, ValidationError, shown
from .linalg import RatMatrix, add_term, as_q

Mono = tuple[int, ...]
Poly = dict[Mono, Fraction]

# Longest numerator or denominator, in bits, that any number in a parsed
# expression may have, and that a rational in a document may have; a
# power of a degree-0 base never meets the cap.
MAX_COEFF_BITS = 4096

# Most basis slots an algebra or a free module may span through its cap:
# one slot per degree plus the basis dimensions, estimated from the degrees
# of the generators before any basis is built.  The largest object the
# shipped fixtures build at window 28 (the Borel module of s4_hopf) takes 455.
BASIS_BUDGET = 1024


def check_basis_budget(slots: int, what: str, cap: int) -> None:
    """Reject an object whose estimated slots through its cap exceed the budget."""
    if slots > BASIS_BUDGET:
        raise ValidationError(
            f"{what} through degree {cap} spans at least {slots} basis slots "
            f"(one per degree plus the basis), over the budget of {BASIS_BUDGET}; "
            "lower the degree window"
        )


# Most checks one verification (verify_cdga, verify_dgmodule, DgModuleMap.verify,
# BasicData.validate) may run.  A module's count grows as the cube of its
# window, a map's as the square; `dgmodels verify` accepts every shipped
# fixture through window 47 (the relative model takes 20,874 checks at 48).
CHECK_BUDGET = 20_000


def check_check_budget(checks: int, what: str) -> None:
    """Reject a verification whose check count, known from the window before the
    first check, is over the budget; the basis budget bounds each check's matrices."""
    if checks > CHECK_BUDGET:
        raise ValidationError(
            f"verifying {what} takes {checks} checks, over the budget of "
            f"{CHECK_BUDGET}; lower the degree window"
        )


def _basis_dims(degrees: Sequence[int], cap: int) -> tuple[int, ...]:
    """dim A^0, ..., dim A^cap for the free graded-commutative algebra on
    generators of these degrees, read off its generating function
    prod_odd (1 + t^d) / prod_even (1 - t^d); rejects an algebra over budget."""
    check_basis_budget(cap + 1, "the algebra", cap)
    dims = [1] + [0] * cap
    for d in degrees:
        if d % 2:
            for k in range(cap, d - 1, -1):
                dims[k] += dims[k - d]
        else:
            for k in range(d, cap + 1):
                dims[k] += dims[k - d]
    check_basis_budget(cap + 1 + sum(dims), "the algebra", cap)
    return tuple(dims)


def poly_is_zero(p: Mapping[Mono, Fraction]) -> bool:
    return not p


def poly_add(p: Mapping[Mono, Fraction], q: Mapping[Mono, Fraction]) -> Poly:
    out: Poly = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_sub(p: Mapping[Mono, Fraction], q: Mapping[Mono, Fraction]) -> Poly:
    return poly_add(p, poly_scale(-1, q))


def poly_scale(c, p: Mapping[Mono, Fraction]) -> Poly:
    c = as_q(c)
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def poly_eq(p: Mapping[Mono, Fraction], q: Mapping[Mono, Fraction]) -> bool:
    return poly_is_zero(poly_sub(p, q))


class CheckReport(NamedTuple):
    """Outcome of a structural verification, with human-readable witnesses."""

    name: str
    ok: bool
    failures: tuple[str, ...] = ()
    checks_run: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            head = self.failures[0] if self.failures else "unspecified failure"
            raise ValidationError(f"{self.name}: {head}")


class SullivanPresentation:
    """Free graded-commutative algebra on named generators, with differential.

    Generators have degree >= 1; parity is determined by the degree.  The
    differential is stored as one polynomial per generator and extended to
    monomials by the Leibniz rule.  d(d(g)) = 0 is checked on construction.
    """

    __slots__ = (
        "names",
        "degrees",
        "differentials",
        "cap",
        "_index",
        "_odd",
        "_odd_last_first",
        "_basis_cache",
        "_basis_index_cache",
        "_dims",
        "_totals",
    )

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        differentials: Mapping[str, Mapping[Mono, Fraction]] | None = None,
        cap: int = 12,
    ):
        names = tuple(name for name, _ in generators)
        degrees = tuple(int(deg) for _, deg in generators)
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be distinct")
        for name, deg in zip(names, degrees):
            if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
                raise ValidationError(f"generator name {shown(name)} is not an identifier")
            if deg < 1:
                raise ValidationError(f"generator {name} has degree {deg}; need >= 1")
        if cap < 0:
            raise ValidationError(f"degree cap {cap} must be nonnegative")
        self._dims = _basis_dims(degrees, int(cap))
        self._totals = tuple(accumulate(self._dims))
        self.names = names
        self.degrees = degrees
        self.cap = int(cap)
        self._index = {name: i for i, name in enumerate(names)}
        self._odd = tuple(deg % 2 == 1 for deg in degrees)
        self._odd_last_first = tuple(i for i in reversed(range(len(degrees))) if self._odd[i])
        self._basis_cache: dict[int, tuple[Mono, ...]] = {}
        self._basis_index_cache: dict[int, dict[Mono, int]] = {}

        diffs: list[Poly] = []
        given = dict(differentials or {})
        for name in names:
            raw = given.pop(name, {})
            poly = {m: as_q(c) for m, c in raw.items() if c}
            for m in poly:
                self._check_mono(m)
            diffs.append(poly)
        if given:
            extra = ", ".join(sorted(given))
            raise ValidationError(f"differentials given for unknown generators: {extra}")
        self.differentials = tuple(diffs)

        for i, name in enumerate(names):
            dg = self.differentials[i]
            if dg:
                deg = self.poly_degree(dg)
                if deg != degrees[i] + 1:
                    raise ValidationError(
                        f"d({name}) has degree {deg}, expected {degrees[i] + 1}"
                    )
            dd = self.d_poly(dg)
            if not poly_is_zero(dd):
                raise ValidationError(
                    f"d(d({name})) = {self.poly_str(dd)} is nonzero"
                )

    # ---- bookkeeping -------------------------------------------------

    def _check_mono(self, m: Mono) -> None:
        if len(m) != len(self.names):
            raise ValidationError(
                f"monomial {m} has {len(m)} slots, algebra has {len(self.names)} generators"
            )
        for i, e in enumerate(m):
            if e < 0:
                raise ValidationError(f"negative exponent in monomial {m}")
            if self._odd[i] and e > 1:
                raise ValidationError(
                    f"odd generator {self.names[i]} has exponent {e} in {m}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SullivanPresentation):
            return NotImplemented
        return (
            self.names == other.names
            and self.degrees == other.degrees
            and self.cap == other.cap
            and all(poly_eq(p, q) for p, q in zip(self.differentials, other.differentials))
        )

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"SullivanPresentation({gens}; cap={self.cap})"

    def generator_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown generator {shown(name)}") from None

    def generator_poly(self, name: str) -> Poly:
        i = self.generator_index(name)
        m = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return {m: 1}

    def unit_mono(self) -> Mono:
        return (0,) * len(self.names)

    def unit_poly(self) -> Poly:
        return {self.unit_mono(): 1}

    def mono_degree(self, m: Mono) -> int:
        return sum(map(mul, m, self.degrees))

    def poly_degree(self, p: Mapping[Mono, Fraction]) -> int | None:
        """Common degree of a homogeneous polynomial; None for zero."""
        degs = {self.mono_degree(m) for m in p}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValidationError(f"inhomogeneous polynomial with degrees {sorted(degs)}")
        return degs.pop()

    def module_basis_slots(self, gen_degrees: Sequence[int], cap: int) -> int:
        """Slots of a free module on generators of these degrees through
        degree cap: one per degree plus its basis dimensions."""
        return cap + 1 + sum(self._totals[min(cap - g, self.cap)] for g in gen_degrees if g <= cap)

    # ---- basis enumeration -------------------------------------------

    def basis(self, n: int) -> tuple[Mono, ...]:
        """Monomials of total degree n, ascending lexicographic order."""
        if n < 0:
            return ()
        if n > self.cap:
            raise DegreeWindowError(f"degree {n} exceeds cap {self.cap}")
        if n not in self._basis_cache:
            self._basis_cache[n] = self._enumerate(n) if self._dims[n] else ()
        return self._basis_cache[n]

    def _enumerate(self, n: int) -> tuple[Mono, ...]:
        """basis(n) of a degree with a basis, from a table built for this call
        only, from the last generator back: the monomials in generators i,
        i+1, ... by degree r, each list ascending, kept where some monomial in
        the generators before i has degree n - r.  After generator 1 that
        leaves r = n - e |g_0|, so the exponent e ascends as r descends."""
        if not self.names:
            return ((),)
        gens = tuple(zip(self.degrees, self._odd))
        reach = [1]  # bit s of reach[i]: some monomial before generator i has degree s
        for d, odd in gens[:-1]:
            r, step = reach[-1], d
            while step <= n:  # closed under + d, through 2^j d for an even d
                r, step = r | r << step, n + 1 if odd else 2 * step
            reach.append(r)
        table: dict[int, list[Mono]] = {0: [()]}
        for (d, odd), before in zip(reversed(gens[1:]), reversed(reach[1:])):
            grown: dict[int, list[Mono]] = {}
            for e in range(min(n // d, 1 if odd else n) + 1):
                for r, tails in table.items():
                    w = r + e * d
                    if w <= n and before >> (n - w) & 1:
                        grown.setdefault(w, []).extend((e, *t) for t in tails)
            table = grown
        deg = gens[0][0]
        return tuple(((n - r) // deg, *t) for r in sorted(table, reverse=True) for t in table[r])

    def dim(self, n: int) -> int:
        """len(basis(n)), read off the generating function."""
        if n > self.cap:
            raise DegreeWindowError(f"degree {n} exceeds cap {self.cap}")
        return self._dims[n] if n >= 0 else 0

    def basis_index(self, n: int) -> dict[Mono, int]:
        if n not in self._basis_index_cache:
            self._basis_index_cache[n] = {m: k for k, m in enumerate(self.basis(n))}
        return self._basis_index_cache[n]

    def poly_vector(self, p: Mapping[Mono, Fraction], n: int) -> tuple[Fraction, ...]:
        """Coordinates of a degree-n polynomial in basis(n)."""
        idx = self.basis_index(n)
        coords = [0] * len(idx)
        for m, c in p.items():
            if self.mono_degree(m) != n:
                raise ValidationError(
                    f"monomial of degree {self.mono_degree(m)} in a degree-{n} slot"
                )
            coords[idx[m]] = c
        return tuple(coords)

    def vector_poly(self, v: Sequence[Fraction], n: int) -> Poly:
        monos = self.basis(n)
        if len(v) != len(monos):
            raise ValidationError(f"vector length {len(v)} != dim {len(monos)} in degree {n}")
        return {m: as_q(c) for m, c in zip(monos, v) if c}

    # ---- products and differential -----------------------------------

    def mono_mul(self, m1: Mono, m2: Mono) -> tuple[int, Mono] | None:
        """Sorted product of two monomials: (Koszul sign, monomial) or None if zero.
        Walking the odd generators last first, `later` counts those of m1 that
        each odd generator of m2 moves left past, one sign each."""
        swaps = later = 0
        for i in self._odd_last_first:
            a, b = m1[i], m2[i]
            if a + b > 1:
                return None
            if b:
                swaps += later
            later += a
        return (-1 if swaps % 2 else 1), tuple(map(add, m1, m2))

    def poly_mul(self, p: Mapping[Mono, Fraction], q: Mapping[Mono, Fraction]) -> Poly:
        out: Poly = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                hit = self.mono_mul(m1, m2)
                if hit is not None:
                    add_term(out, hit[1], hit[0] * c1 * c2)
        return out

    def d_mono(self, m: Mono) -> Poly:
        """Differential of a monomial via the Leibniz rule, accumulated in place."""
        out: Poly = {}
        prefix_deg = 0
        k = len(self.names)
        for i in range(k):
            e = m[i]
            if e and self.differentials[i]:
                left = m[:i] + (e - 1,) + (0,) * (k - i - 1)
                right = (0,) * (i + 1) + m[i + 1 :]
                c = -e if prefix_deg % 2 else e
                for mono, x in self.poly_mul({left: 1}, self.differentials[i]).items():
                    hit = self.mono_mul(mono, right)
                    if hit is not None:
                        add_term(out, hit[1], c * hit[0] * x)
            prefix_deg += e * self.degrees[i]
        return out

    def d_poly(self, p: Mapping[Mono, Fraction]) -> Poly:
        out: Poly = {}
        for m, c in p.items():
            for mono, x in self.d_mono(m).items():
                add_term(out, mono, c * x)
        return out

    def product_matrix(self, i: int, j: int) -> RatMatrix:
        """Multiplication basis_i (x) basis_j -> basis_{i+j}; columns i-major.
        Built on each call: verify_dgmodule, the one reader in the package,
        reads each (i, j) once."""
        if i < 0 or j < 0:
            raise DegreeWindowError(f"negative degrees ({i}, {j})")
        if i + j > self.cap:
            raise DegreeWindowError(
                f"product degree {i + j} exceeds cap {self.cap}; rejected, not truncated"
            )
        bi, bj = self.basis(i), self.basis(j)
        target = self.basis_index(i + j)
        rows: list[dict[int, Fraction]] = [{} for _ in target]
        for a, m1 in enumerate(bi):
            for b, m2 in enumerate(bj):
                hit = self.mono_mul(m1, m2)
                if hit is not None:
                    rows[target[hit[1]]][a * len(bj) + b] = hit[0]
        return RatMatrix._make(len(target), len(bi) * len(bj), rows)

    def differential_matrix(self, n: int) -> RatMatrix:
        """Matrix of d: degree n -> degree n+1 (requires n+1 <= cap), built on
        each call, like product_matrix."""
        if n + 1 > self.cap:
            raise DegreeWindowError(f"differential out of degree {n} exceeds cap {self.cap}")
        target = self.basis_index(n + 1)
        rows: list[dict[int, Fraction]] = [{} for _ in target]
        for c, m in enumerate(self.basis(n)):
            for mm, x in self.d_mono(m).items():
                rows[target[mm]][c] = x
        return RatMatrix._make(len(target), self.dim(n), rows)

    # ---- rendering ----------------------------------------------------

    def mono_str(self, m: Mono) -> str:
        factors = []
        for name, e in zip(self.names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"

    def poly_str(self, p: Mapping[Mono, Fraction]) -> str:
        if not p:
            return "0"
        terms = sorted(p.items(), key=lambda item: (self.mono_degree(item[0]), item[0]))
        parts: list[str] = []
        for m, c in terms:
            mono = self.mono_str(m)
            if mono == "1":
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if parts and not body.startswith("-"):
                parts.append(f"+ {body}")
            elif parts:
                parts.append(f"- {body[1:]}")
            else:
                parts.append(body)
        return " ".join(parts)


def trivial_algebra(cap: int = 12) -> SullivanPresentation:
    """The ground field as an algebra: no generators, unit in degree 0."""
    return SullivanPresentation([], {}, cap=cap)


def verify_cdga(algebra: SullivanPresentation) -> CheckReport:
    """Check d(d(x)) = 0, Leibniz, unit, and graded commutativity through the cap;
    the checks are counted and held to the check budget before the first runs."""
    top = algebra.cap
    dims = [algebra.dim(n) for n in range(top + 1)]
    # d^2 below top and unit on each basis element; commutativity on each pair of
    # degrees (i, j) with i + j <= top, and Leibniz too when i + j < top
    planned = 2 * sum(dims) - dims[top] + sum(
        dims[i] * dims[j] * (2 if i + j < top else 1)
        for i in range(top + 1)
        for j in range(top + 1 - i)
    )
    check_check_budget(planned, "the algebra")
    failures: list[str] = []
    checks = 0

    for n in range(top):
        for m in algebra.basis(n):
            checks += 1
            dd = algebra.d_poly(algebra.d_mono(m))
            if not poly_is_zero(dd):
                failures.append(
                    f"d(d({algebra.mono_str(m)})) = {algebra.poly_str(dd)} != 0"
                )

    for i in range(top + 1):
        for j in range(top + 1 - i):
            for m1 in algebra.basis(i):
                for m2 in algebra.basis(j):
                    checks += 1
                    prod = algebra.poly_mul({m1: 1}, {m2: 1})
                    swapped = algebra.poly_mul({m2: 1}, {m1: 1})
                    sign = -1 if (i * j) % 2 else 1
                    if not poly_eq(prod, poly_scale(sign, swapped)):
                        failures.append(
                            f"commutativity fails on ({algebra.mono_str(m1)}, {algebra.mono_str(m2)})"
                        )
                    if i + j + 1 <= top:
                        checks += 1
                        lhs = algebra.d_poly(prod)
                        rhs = poly_add(
                            algebra.poly_mul(algebra.d_mono(m1), {m2: 1}),
                            poly_scale(
                                -1 if i % 2 else 1,
                                algebra.poly_mul({m1: 1}, algebra.d_mono(m2)),
                            ),
                        )
                        if not poly_eq(lhs, rhs):
                            failures.append(
                                "Leibniz fails on "
                                f"({algebra.mono_str(m1)}, {algebra.mono_str(m2)}): "
                                f"d(xy) = {algebra.poly_str(lhs)}, "
                                f"(dx)y + (-1)^|x| x(dy) = {algebra.poly_str(rhs)}"
                            )

    unit = algebra.unit_mono()
    for n in range(top + 1):
        for m in algebra.basis(n):
            checks += 1
            if not poly_eq(algebra.poly_mul({unit: 1}, {m: 1}), {m: 1}):
                failures.append(f"unit fails on {algebra.mono_str(m)}")

    return CheckReport("verify_cdga", not failures, tuple(failures), checks)


def extend(
    algebra: SullivanPresentation,
    name: str,
    degree: int,
    differential: Mapping[Mono, Fraction] | None = None,
) -> SullivanPresentation:
    """Adjoin one free generator; its differential is a polynomial in the old generators."""
    if name in algebra.names:
        raise ValidationError(f"generator name {name!r} already in use")
    gens = list(zip(algebra.names, algebra.degrees)) + [(name, degree)]
    diffs: dict[str, Poly] = {
        n: {m + (0,): c for m, c in p.items()}
        for n, p in zip(algebra.names, algebra.differentials)
    }
    diffs[name] = {m + (0,): as_q(c) for m, c in (differential or {}).items() if c}
    return SullivanPresentation(gens, diffs, cap=algebra.cap)


def parse_polynomial(algebra: SullivanPresentation, text: str) -> Poly:
    """Parse an expression over generator names into a polynomial.

    Grammar: rational literals (2, -1, 3/4), generator names, +, -, *,
    and nonnegative integer powers written u^2 or u**2.  A power with a
    term above the algebra's cap raises DegreeWindowError.  Every literal,
    sum, product, quotient and power is held to MAX_COEFF_BITS bits per
    numerator and denominator, else ValidationError.
    """
    source = text.strip()
    if not source:
        return {}
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
        return {m: as_q(c) for m, c in _eval_node(algebra, tree.body, text).items()}
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse expression {shown(text)}: {exc.msg}") from None
    except (MemoryError, RecursionError):
        # ast.parse reports nesting too deep for its stack with either; so
        # does the recursive evaluator, with RecursionError
        raise ValidationError(f"expression nested too deeply: {text[:40]!r}...") from None


def _poly_as_rational(p: Poly) -> int | Fraction | None:
    if not p:
        return 0
    if len(p) == 1:
        (m, c), = p.items()
        if not any(m):
            return c
    return None


def _eval_node(algebra: SullivanPresentation, node: ast.AST, text: str) -> Poly:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return _bounded_coeffs(poly_scale(node.value, algebra.unit_poly()), text)
        raise ValidationError(f"non-integer literal {node.value!r} in {shown(text)}")
    if isinstance(node, ast.Name):
        return algebra.generator_poly(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _eval_node(algebra, node.operand, text)
        return inner if isinstance(node.op, ast.UAdd) else poly_scale(-1, inner)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _eval_node(algebra, node.left, text)
            exp = _poly_as_rational(_eval_node(algebra, node.right, text))
            if exp is None or exp.denominator != 1 or exp < 0:
                raise ValidationError(f"exponent must be a nonnegative integer in {shown(text)}")
            # square and multiply: every power computed is base^k with k <= exp
            n = int(exp)
            out = algebra.unit_poly()
            while True:
                if n & 1:
                    out = _bounded_power(algebra, algebra.poly_mul(out, base), text)
                n >>= 1
                if not n:
                    return out
                base = _bounded_power(algebra, algebra.poly_mul(base, base), text)
        left = _eval_node(algebra, node.left, text)
        right = _eval_node(algebra, node.right, text)
        if isinstance(node.op, ast.Add):
            return _bounded_coeffs(poly_add(left, right), text)
        if isinstance(node.op, ast.Sub):
            return _bounded_coeffs(poly_sub(left, right), text)
        if isinstance(node.op, ast.Mult):
            return _bounded_coeffs(algebra.poly_mul(left, right), text)
        if isinstance(node.op, ast.Div):
            c = _poly_as_rational(right)
            if c is None or c == 0:
                raise ValidationError(f"division only by nonzero rationals in {shown(text)}")
            return _bounded_coeffs(poly_scale(Fraction(1, c), left), text)
    raise ValidationError(f"unsupported syntax in expression {shown(text)}")


def _bounded_power(algebra: SullivanPresentation, p: Poly, text: str) -> Poly:
    for m, c in p.items():
        deg = algebra.mono_degree(m)
        if deg > algebra.cap:
            raise DegreeWindowError(
                f"power in {shown(text)} reaches degree {deg} above cap {algebra.cap}; "
                "rejected, not truncated"
            )
        if _too_long(c):
            raise ValidationError(
                f"power in {shown(text)} has a coefficient longer than {MAX_COEFF_BITS} bits"
            )
    return p


def _bounded_coeffs(p: Poly, text: str) -> Poly:
    if any(_too_long(c) for c in p.values()):
        raise ValidationError(
            f"expression {shown(text)} has a number longer than {MAX_COEFF_BITS} bits"
        )
    return p


def _too_long(c: int | Fraction) -> bool:
    return max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFF_BITS
