"""Differential graded modules over a Sullivan-presented algebra.

Two representations share one read interface (dims, labels, differential
and action matrices per degree):

* FreeDgModule: free on a finite generator table; the differential is an
  A-linear combination per generator and everything else is derived.
* TabulatedDgModule: explicit per-degree matrices, used for targets that
  are not free and for negative-control fixtures.

Degree-p morphisms follow the shifted conventions throughout:
phi(a.m) = (-1)^{|a| p} a.phi(m) and d phi = (-1)^p phi d.  The graded
cone of a degree-p map phi: M -> N lives on N^n + M^{n-p+1} with

    d(y, x) = (dy + phi x, (-1)^{p-1} dx)
    a.(y, x) = (a.y, (-1)^{|a|(p-1)} a.x)

and a module built at cap N certifies cohomology only in degrees
<= N - 1; helpers raise DegreeWindowError rather than truncate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from typing import NamedTuple

from .cdga import (
    CheckReport,
    Mono,
    Poly,
    SullivanPresentation,
    check_basis_budget,
    check_check_budget,
    parse_polynomial,
    poly_is_zero,
    poly_scale,
)
from .errors import DegreeWindowError, PreconditionError, ValidationError, shown
from .linalg import (
    CohomologyData,
    GradedDims,
    RatMatrix,
    add_term,
    as_q,
    cohomology_at,
    cohomology_count,
    times_kron,
    vec,
)

# A-linear combination of module generators: generator index -> coefficient.
Combination = dict[int, Poly]


class FreeDgModule:
    """Free A-dg module on an ordered generator table."""

    __slots__ = (
        "algebra",
        "cap",
        "gen_names",
        "gen_degrees",
        "gen_diffs",
        "stages",
        "_index",
        "_dims",
        "_basis_cache",
        "_basis_index_cache",
        "_diff_cache",
        "_act_cache",
        "_coh_cache",
    )

    def __init__(
        self,
        algebra: SullivanPresentation,
        generators: Sequence[tuple[str, int]],
        differentials: Mapping[str, Mapping[str, Poly | str]] | None = None,
        cap: int | None = None,
    ):
        self.algebra = algebra
        self.cap = algebra.cap if cap is None else int(cap)
        if self.cap < 0:
            raise ValidationError("module cap must be nonnegative")
        self.gen_names = self.gen_degrees = self.gen_diffs = self.stages = ()
        self._index, self._dims = {}, ()
        names = [name for name, _ in generators]
        given = {name: dict(c) for name, c in (differentials or {}).items()}

        def parsed():
            # read by _adjoin once the names are in place, so targets resolve
            for name in names:
                comb: Combination = {}
                for tgt, coeff in given.pop(name, {}).items():
                    j = self.gen_index(tgt)
                    poly = parse_polynomial(algebra, coeff) if isinstance(coeff, str) else {
                        m: as_q(c) for m, c in coeff.items() if c
                    }
                    if not poly_is_zero(poly):
                        comb[j] = poly
                yield comb
            if given:
                extra = ", ".join(sorted(given))
                raise ValidationError(f"differentials for unknown generators: {extra}")

        self._adjoin(names, [int(d) for _, d in generators], parsed(), None)
        self._basis_cache: dict[int, tuple[tuple[int, Mono], ...]] = {}
        self._basis_index_cache: dict[int, dict[tuple[int, Mono], int]] = {}
        self._diff_cache: dict[int, RatMatrix] = {}
        self._act_cache: dict[tuple[int, int], RatMatrix] = {}
        self._coh_cache: dict[int, CohomologyData] = {}

    def _adjoin(
        self,
        names: Sequence[str],
        degrees: Sequence[int],
        diffs: Iterable[Combination],
        stages: Sequence[tuple[int, int] | None] | None,
    ) -> FreeDgModule:
        """Append, in place, generators names[i] of degree degrees[i] with
        d(names[i]) = diffs[i], keyed by generator index, and stage stages[i]
        (None: no stages).  Only the new generators are checked, as no old
        differential reaches them; the basis budget is checked before the
        dims are built, which a huge cap would not survive.  Every caller
        adjoins to a module whose caches are still empty."""
        old = len(self.gen_names)
        self.gen_names += tuple(names)
        self._index = {**self._index, **{n: i for i, n in enumerate(names, old)}}
        if len(self._index) != len(self.gen_names):
            raise ValidationError("module generator names must be distinct")
        for name, deg in zip(names, degrees):
            if name.split() != [name]:
                raise ValidationError(f"bad module generator name {shown(name)}")
            if deg < 0:
                raise ValidationError(f"generator {name} has negative degree {deg}")
        self.gen_degrees += tuple(degrees)
        algebra, cap = self.algebra, self.cap
        check_basis_budget(algebra.module_basis_slots(self.gen_degrees, cap), "the module", cap)
        dims = self._dims or (0,) * (cap + 1)  # () before the first call
        for deg in set(degrees):
            # degrees whose basis the algebra's cap no longer reaches are cut
            # off, for basis() to reject
            count = degrees.count(deg)
            dims = (*dims[:deg], *[x + count * a for x, a in zip(dims[deg:], algebra._dims)])
        self._dims = dims
        stages = (None,) * len(names) if stages is None else tuple(stages)
        if len(stages) != len(names):
            raise ValidationError("stages must align with generators")
        self.stages += stages
        self.gen_diffs += tuple(diffs)
        new, degs = range(old, len(self.gen_names)), self.gen_degrees
        for i in new:
            for j, poly in self.gen_diffs[i].items():
                got, want = algebra.poly_degree(poly), degs[i] + 1 - degs[j]
                if got != want:
                    raise ValidationError(
                        f"d({self.gen_names[i]}) coefficient on {self.gen_names[j]} "
                        f"has degree {got}, expected {want}"
                    )
        for i in new:
            if self.gen_diffs[i] and self.d_combination(self.gen_diffs[i]):
                raise ValidationError(f"d(d({self.gen_names[i]})) is nonzero")
        return self

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown module generator {shown(name)}") from None

    @property
    def gen_count(self) -> int:
        return len(self.gen_names)

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.gen_names, self.gen_degrees))
        return f"FreeDgModule({gens}; cap={self.cap})"

    # ---- combinations --------------------------------------------------

    def d_combination(self, comb: Combination) -> Combination:
        """Module Leibniz rule on an A-linear combination of generators,
        d(c.g) = d(c).g + (-1)^{|c|} c.dg, accumulated in place."""
        algebra = self.algebra
        out: Combination = {}
        for j, cj in comb.items():
            if poly_is_zero(cj):
                continue
            sign = -1 if algebra.poly_degree(cj) % 2 else 1
            acc = out.setdefault(j, {})
            for m, x in algebra.d_poly(cj).items():
                add_term(acc, m, x)
            for h, q in self.gen_diffs[j].items():
                acc = out.setdefault(h, {})
                for m, x in algebra.poly_mul(cj, q).items():
                    add_term(acc, m, sign * x)
        return {j: poly for j, poly in out.items() if poly}

    # ---- materialized interface ----------------------------------------

    def dim(self, k: int) -> int:
        if 0 <= k < len(self._dims):
            return self._dims[k]
        return len(self.basis(k))

    def basis(self, k: int) -> tuple[tuple[int, Mono], ...]:
        """Basis (generator index, algebra monomial), generator-major order."""
        if k < 0:
            return ()
        if k > self.cap:
            raise DegreeWindowError(f"degree {k} exceeds module cap {self.cap}")
        if k not in self._basis_cache:
            self._basis_cache[k] = tuple([
                (gi, m)
                for gi, deg in enumerate(self.gen_degrees) if deg <= k
                for m in self.algebra.basis(k - deg)
            ])
        return self._basis_cache[k]

    def basis_index(self, k: int) -> dict[tuple[int, Mono], int]:
        if k not in self._basis_index_cache:
            basis = self.basis(k)
            self._basis_index_cache[k] = dict(zip(basis, range(len(basis))))
        return self._basis_index_cache[k]

    def basis_labels(self, k: int) -> tuple[str, ...]:
        """Labels in basis(k) order, each algebra degree rendered once a call."""
        if k > self.cap:
            raise DegreeWindowError(f"degree {k} exceeds module cap {self.cap}")
        algebra = self.algebra
        monos = {
            d: [algebra.mono_str(m) for m in algebra.basis(k - d)]
            for d in set(self.gen_degrees) if d <= k
        }
        return tuple([
            name if mono == "1" else mono if name == "1" else f"{mono}*{name}"
            for name, deg in zip(self.gen_names, self.gen_degrees) if deg <= k
            for mono in monos[deg]
        ])

    def combination_vector(self, comb: Combination, k: int) -> tuple[Fraction, ...]:
        idx = self.basis_index(k)
        coords = [0] * len(idx)
        for j, cj in comb.items():
            for m, c in cj.items():
                key = (j, m)
                if key not in idx:
                    raise ValidationError(
                        f"term of degree {self.algebra.mono_degree(m) + self.gen_degrees[j]}"
                        f" in a degree-{k} slot"
                    )
                coords[idx[key]] = c
        return tuple(coords)

    def vector_combination(self, v: Sequence[Fraction], k: int) -> Combination:
        basis = self.basis(k)
        if len(v) != len(basis):
            raise ValidationError(f"vector length {len(v)} != dim {len(basis)} at degree {k}")
        out: Combination = {}
        for (gi, m), c in zip(basis, v):
            if c:
                out.setdefault(gi, {})[m] = as_q(c)
        return out

    def differential_matrix(self, k: int) -> RatMatrix:
        if k + 1 > self.cap:
            raise DegreeWindowError(f"differential out of degree {k} exceeds cap {self.cap}")
        if k < 0:
            return RatMatrix.zero(self.dim(k + 1), 0)
        if k in self._diff_cache:
            return self._diff_cache[k]
        # d(m.g) = d(m).g + (-1)^{|m|} m.dg, the Leibniz rule of d_combination
        # written straight into the rows
        algebra = self.algebra
        index = self.basis_index(k + 1)
        rows: list[dict[int, Fraction]] = [{} for _ in index]
        for c, (gi, m) in enumerate(self.basis(k)):
            for mono, x in algebra.d_mono(m).items():
                add_term(rows[index[(gi, mono)]], c, x)
            sign = -1 if algebra.mono_degree(m) % 2 else 1
            for h, poly in self.gen_diffs[gi].items():
                for mono, x in poly.items():
                    hit = algebra.mono_mul(m, mono)
                    if hit is not None:
                        add_term(rows[index[(h, hit[1])]], c, sign * (hit[0] * x))
        mat = self._diff_cache[k] = RatMatrix._make(len(rows), self.dim(k), rows)
        return mat

    def action_matrix(self, i: int, k: int) -> RatMatrix:
        """Multiplication A^i (x) M^k -> M^{i+k}; columns A-major."""
        if i < 0:
            raise ValidationError(f"negative algebra degree {i}")
        if i + k > self.cap:
            raise DegreeWindowError(f"action into degree {i + k} exceeds cap {self.cap}")
        if k < 0:
            return RatMatrix.zero(self.dim(i + k), 0)
        if i == 0:
            return RatMatrix.identity(self.dim(k))
        if not (self.algebra.dim(i) and self.dim(k)):
            return RatMatrix.zero(self.dim(i + k), self.algebra.dim(i) * self.dim(k))
        key = (i, k)
        if key not in self._act_cache:
            # a.(m.g) = (am).g: column a * dim M^k + b holds the one signed entry
            # of mono_mul.  The one writer of the A-major layout; times_kron reads it
            algebra, index, basis = self.algebra, self.basis_index(i + k), self.basis(k)
            rows: list[dict[int, Fraction]] = [{} for _ in index]
            for a, am in enumerate(algebra.basis(i)):
                for c, (gi, m) in enumerate(basis, a * len(basis)):
                    hit = algebra.mono_mul(am, m)
                    if hit is not None:
                        rows[index[(gi, hit[1])]][c] = hit[0]
            self._act_cache[key] = RatMatrix._make(len(rows), algebra.dim(i) * len(basis), rows)
        return self._act_cache[key]


class TabulatedDgModule:
    """A-dg module given by explicit per-degree labels and matrices.

    Construction checks shapes only; semantic axioms (d^2, Leibniz,
    associativity) are the job of verify_dgmodule, so deliberately broken
    tables can be built for negative controls.
    """

    __slots__ = ("algebra", "cap", "labels", "d_mats", "act_mats", "_dims")

    def __init__(
        self,
        algebra: SullivanPresentation,
        cap: int,
        labels: Mapping[int, Sequence[str]],
        d_mats: Mapping[int, RatMatrix] | None = None,
        act_mats: Mapping[tuple[int, int], RatMatrix] | None = None,
    ):
        self.algebra = algebra
        self.cap = int(cap)
        if self.cap < 0:
            raise ValidationError("module cap must be nonnegative")
        slots = self.cap + 1 + sum(len(ls) for ls in labels.values())
        check_basis_budget(slots, "the module", self.cap)
        self.labels: dict[int, tuple[str, ...]] = {}
        for k, ls in labels.items():
            if not 0 <= k <= self.cap:
                raise ValidationError(f"labels at degree {k} outside [0, {self.cap}]")
            if ls:
                self.labels[k] = tuple(map(str, ls))
        dims = self._dims = tuple([len(self.labels.get(k, ())) for k in range(self.cap + 1)])
        self.d_mats: dict[int, RatMatrix] = {}
        for k, mat in (d_mats or {}).items():
            if not 0 <= k <= self.cap - 1:
                raise ValidationError(f"differential at degree {k} outside [0, {self.cap - 1}]")
            if (mat.rows, mat.cols) != (dims[k + 1], dims[k]):
                raise ValidationError(f"differential at degree {k} has wrong shape")
            if not mat.is_zero():
                self.d_mats[k] = mat
        self.act_mats: dict[tuple[int, int], RatMatrix] = {}
        for (i, k), mat in (act_mats or {}).items():
            if i < 1 or k < 0 or i + k > self.cap:
                raise ValidationError(f"action key ({i}, {k}) outside the window")
            if (mat.rows, mat.cols) != (dims[i + k], algebra.dim(i) * dims[k]):
                raise ValidationError(f"action at ({i}, {k}) has wrong shape")
            if not mat.is_zero():
                self.act_mats[(i, k)] = mat

    def dim(self, k: int) -> int:
        if 0 <= k <= self.cap:
            return self._dims[k]
        if k < 0:
            return 0
        raise DegreeWindowError(f"degree {k} exceeds module cap {self.cap}")

    def basis_labels(self, k: int) -> tuple[str, ...]:
        if k < 0:
            return ()
        if k > self.cap:
            raise DegreeWindowError(f"degree {k} exceeds module cap {self.cap}")
        return self.labels.get(k, ())

    def differential_matrix(self, k: int) -> RatMatrix:
        if k + 1 > self.cap:
            raise DegreeWindowError(f"differential out of degree {k} exceeds cap {self.cap}")
        mat = self.d_mats.get(k)
        return RatMatrix.zero(self.dim(k + 1), self.dim(k)) if mat is None else mat

    def action_matrix(self, i: int, k: int) -> RatMatrix:
        if i < 0:
            raise ValidationError(f"negative algebra degree {i}")
        if i + k > self.cap:
            raise DegreeWindowError(f"action into degree {i + k} exceeds cap {self.cap}")
        if i == 0:
            return RatMatrix.identity(self.dim(k))
        mat = self.act_mats.get((i, k))
        if mat is None:
            return RatMatrix.zero(self.dim(i + k), self.algebra.dim(i) * self.dim(k))
        return mat

    def __repr__(self) -> str:
        dims = [self.dim(k) for k in range(self.cap + 1)]
        return f"TabulatedDgModule(dims={dims}; cap={self.cap})"


DgModule = FreeDgModule | TabulatedDgModule


def algebra_module(algebra: SullivanPresentation, cap: int | None = None) -> FreeDgModule:
    """The algebra as a module over itself, free on one degree-0 generator."""
    return FreeDgModule(algebra, [("1", 0)], {}, cap=cap)


def _tabulated(
    algebra: SullivanPresentation,
    labels: Sequence[Sequence[str]],
    d_block: Callable[[int], RatMatrix],
    act_block: Callable[[int, int], RatMatrix],
) -> TabulatedDgModule:
    """The tabulated module with labels[k] in degree k through its cap, and
    d_block(k) and act_block(i, k) as its blocks.  A block is asked for only
    when its source, its target and its algebra degree all have a basis;
    every other block is zero and reads as the shared RatMatrix.zero."""
    cap, dims = len(labels) - 1, [len(ls) for ls in labels]
    d_mats = {k: d_block(k) for k in range(cap) if dims[k] and dims[k + 1]}
    act_mats = {
        (i, k): act_block(i, k)
        for i in range(1, min(cap, algebra.cap) + 1) if algebra.dim(i)
        for k in range(cap - i + 1) if dims[k] and dims[i + k]
    }
    return TabulatedDgModule(algebra, cap, dict(enumerate(labels)), d_mats, act_mats)


def tabulate(module: DgModule) -> TabulatedDgModule:
    """Materialize any module into the tabulated representation."""
    labels = [module.basis_labels(k) for k in range(module.cap + 1)]
    return _tabulated(module.algebra, labels, module.differential_matrix, module.action_matrix)


def modules_equal(a: DgModule, b: DgModule) -> bool:
    """Exact equality of the materialized structure over the common interface."""
    if a.algebra != b.algebra or a.cap != b.cap:
        return False
    for k in range(a.cap + 1):
        if a.dim(k) != b.dim(k):
            return False
        if a.basis_labels(k) != b.basis_labels(k):
            return False
    for k in range(a.cap):
        if a.differential_matrix(k) != b.differential_matrix(k):
            return False
    for i in range(1, min(a.cap, a.algebra.cap) + 1):
        for k in range(a.cap - i + 1):
            if a.action_matrix(i, k) != b.action_matrix(i, k):
                return False
    return True


def verify_dgmodule(module: DgModule) -> CheckReport:
    """Check d^2 = 0, module Leibniz, unit, and action associativity through the cap;
    the checks are counted and held to the check budget before the first runs."""
    top = module.cap
    acap = module.algebra.cap
    low = min(top, acap)
    # d^2, unit and Leibniz checks; then per i the low - i values of j of the
    # associativity triples (i, j, k), each with top + 1 - i - j values of k
    planned = max(top - 1, 0) + top + 1 + sum(top - i for i in range(1, min(top, acap - 1) + 1))
    planned += sum((low - i) * (2 * top + 1 - low - i) // 2 for i in range(1, low + 1))
    check_check_budget(planned, "the module")
    failures: list[str] = []
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
            rhs = times_kron(module.action_matrix(i + 1, k), d_a, RatMatrix.identity(module.dim(k)))
            sign = -1 if i % 2 else 1
            rhs = rhs + times_kron(
                module.action_matrix(i, k + 1),
                RatMatrix.identity(module.algebra.dim(i)),
                module.differential_matrix(k),
            ).scale(sign)
            if lhs != rhs:
                failures.append(f"module Leibniz fails for (|a|, |m|) = ({i}, {k})")

    for i in range(1, low + 1):
        for j in range(1, low + 1 - i):
            prod = module.algebra.product_matrix(i, j)
            for k in range(top + 1 - i - j):
                checks += 1
                lhs = times_kron(
                    module.action_matrix(i + j, k), prod, RatMatrix.identity(module.dim(k))
                )
                act = module.action_matrix(i, j + k)
                rhs = times_kron(
                    act, RatMatrix.identity(module.algebra.dim(i)), module.action_matrix(j, k)
                )
                if lhs != rhs:
                    failures.append(f"associativity fails for (|a|, |b|, |m|) = ({i}, {j}, {k})")

    return CheckReport("verify_dgmodule", not failures, tuple(failures), checks)


class DgModuleMap:
    """Degree-p morphism; matrices indexed by source degree.

    Degrees with the source or the target outside [0, cap] carry the zero
    map; degrees above either cap, or above an explicit window_cap (used
    by compositions that are only defined on part of the nominal window),
    are not materialized and raise on access.  The window is fixed in __init__.
    """

    __slots__ = ("source", "target", "degree", "mats", "name", "window_cap", "_stop")

    def __init__(
        self,
        source: DgModule,
        target: DgModule,
        degree: int,
        mats: Mapping[int, RatMatrix] | None = None,
        name: str = "",
        window_cap: int | None = None,
    ):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.name = name
        self.window_cap = None if window_cap is None else int(window_cap)
        stop = min(source.cap, target.cap - self.degree) + 1
        self._stop = stop if window_cap is None else min(stop, self.window_cap + 1)
        self.mats: dict[int, RatMatrix] = {}
        for k, mat in (mats or {}).items():
            if not 0 <= k < self._stop:
                raise ValidationError(f"map matrix at source degree {k} outside the window")
            want = (target.dim(k + self.degree), source.dim(k))
            if (mat.rows, mat.cols) != want:
                raise ValidationError(
                    f"map matrix at degree {k} has shape {(mat.rows, mat.cols)}, expected {want}"
                )
            if not mat.is_zero():
                self.mats[k] = mat

    def matrix(self, k: int) -> RatMatrix:
        if k >= self._stop:
            raise DegreeWindowError(
                f"map matrix at source degree {k} is above the window "
                f"(source cap {self.source.cap}, target cap {self.target.cap}"
                + ("" if self.window_cap is None else f", window cap {self.window_cap}")
                + ")"
            )
        if k in self.mats:
            return self.mats[k]
        return RatMatrix.zero(self.target.dim(k + self.degree), self.source.dim(k))

    def window(self) -> range:
        """Source degrees where the matrix is materializable."""
        return range(self._stop)

    def _check_degrees(self) -> tuple[range, dict[int, range]]:
        """Source degrees of verify's chain checks, and of its A-linearity
        checks for each algebra degree i."""
        p, src, tgt = self.degree, self.source, self.target
        hi = self._stop - 1
        chain = range(min(hi, src.cap - 1, tgt.cap - p - 1) + 1)
        linear = {
            i: range(min(hi - i, src.cap - i, tgt.cap - p - i) + 1)
            for i in range(1, min(hi, src.algebra.cap) + 1)
        }
        return chain, linear

    def check_count(self) -> int:
        """How many checks verify runs, counted from the window alone."""
        chain, linear = self._check_degrees()
        return len(chain) + sum(len(ks) for ks in linear.values())

    def verify(self) -> CheckReport:
        """Chain condition d phi = (-1)^p phi d and twisted A-linearity, after
        holding check_count() to the check budget."""
        check_check_budget(self.check_count(), f"the map {self.name}".rstrip())
        p = self.degree
        sign = -1 if p % 2 else 1
        chain, linear = self._check_degrees()
        failures: list[str] = []
        checks = 0
        for k in chain:
            checks += 1
            lhs = self.target.differential_matrix(k + p) * self.matrix(k)
            rhs = (self.matrix(k + 1) * self.source.differential_matrix(k)).scale(sign)
            if lhs != rhs:
                failures.append(f"chain condition fails at source degree {k}")
        for i, degrees in linear.items():
            for k in degrees:
                checks += 1
                lhs = self.matrix(i + k) * self.source.action_matrix(i, k)
                tw = -1 if (i * p) % 2 else 1
                act = self.target.action_matrix(i, k + p)
                rhs = times_kron(
                    act, RatMatrix.identity(self.source.algebra.dim(i)), self.matrix(k)
                ).scale(tw)
                if lhs != rhs:
                    failures.append(f"A-linearity fails for (|a|, |m|) = ({i}, {k})")
        return CheckReport("verify_map", not failures, tuple(failures), checks)

    def scale(self, c) -> "DgModuleMap":
        mats = {k: self.matrix(k).scale(c) for k in self.window()}
        return DgModuleMap(
            self.source, self.target, self.degree, mats, window_cap=self.window_cap
        )

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"DgModuleMap(degree={self.degree}{tag})"


def identity_map(module: DgModule) -> DgModuleMap:
    mats = {k: RatMatrix.identity(module.dim(k)) for k in range(module.cap + 1)}
    return DgModuleMap(module, module, 0, mats, name="id")


def compose(g: DgModuleMap, f: DgModuleMap) -> DgModuleMap:
    """g after f; defined where both factors are, which may narrow the window,
    and multiplied only at the degrees where both store a block."""
    if f.target is not g.source:
        raise ValidationError("composition mismatch: target of f is not source of g")
    degree = f.degree + g.degree
    hi = min(f.window().stop - 1, g.window().stop - 1 - f.degree)
    mats = {}
    for k in range(min(hi, g.target.cap - degree) + 1):
        if k in f.mats and k + f.degree in g.mats:
            mats[k] = g.mats[k + f.degree] * f.mats[k]
    nominal = min(f.source.cap, g.target.cap - degree)
    window_cap = hi if hi < nominal else None
    return DgModuleMap(f.source, g.target, degree, mats, window_cap=window_cap)


def _homotopy_at(h: DgModuleMap, phi: DgModuleMap, psi: DgModuleMap, k: int) -> bool:
    """Whether (-1)^p d h + h d = psi - phi holds as matrices at source degree k."""
    dh = phi.target.differential_matrix(k + phi.degree - 1) * h.matrix(k)
    rhs = psi.matrix(k) - phi.matrix(k)
    hd = h.matrix(k + 1) * phi.source.differential_matrix(k)
    return hd == (rhs + dh if phi.degree % 2 else rhs - dh)


def is_homotopy(h: DgModuleMap, phi: DgModuleMap, psi: DgModuleMap) -> bool:
    """Whether (-1)^p d h + h d = psi - phi holds as matrices on the window."""
    p = phi.degree
    if psi.degree != p or h.degree != p - 1:
        raise ValidationError("homotopy degrees are inconsistent")
    stop = min(phi.source.cap, phi.target.cap - p + 1, phi.window().stop, psi.window().stop)
    return all(_homotopy_at(h, phi, psi, k) for k in range(min(stop, h.window().stop - 1)))


def maps_equal(f: DgModuleMap, g: DgModuleMap) -> bool:
    if f.degree != g.degree:
        return False
    hi = min(f.window().stop, g.window().stop) - 1
    return all(f.matrix(k) == g.matrix(k) for k in range(hi + 1))


def map_from_generator_images(
    source: FreeDgModule,
    target: DgModule,
    degree: int,
    images: Mapping[str, Sequence[Fraction]],
    name: str = "",
) -> DgModuleMap:
    """A-linear map from a free module, determined by generator images.

    images[name] is a coordinate vector in the target's basis at degree
    deg(g) + degree; omitted generators map to zero.  Generators whose
    image degree falls outside the target window must be omitted.
    A map out of a semifree module is fixed by its values on the generators
    (Felix-Halperin-Thomas, Rational Homotopy Theory, GTM 205, section 6): it
    is A-linear by construction, and a chain map iff d phi(g) = (-1)^p phi(dg)
    on each generator g, which certify_on_generators checks.

    Column a.g is (-1)^{|a| degree} a.img(g).  For every target, free or
    tabulated, the columns a.g of one generator are
    times_kron(action, I, img(g)): the target's action matrix, which is all
    the map reads of its action, times img(g) in each A-slot; only its
    nonzero rows are copied.  No degree below the lowest generator with an
    image is built: the map is zero there, as DgModuleMap stores it.
    """
    img_vectors: dict[int, RatMatrix] = {}
    for gname, v in images.items():
        gi = source.gen_index(gname)
        t = source.gen_degrees[gi] + degree
        if not 0 <= t <= target.cap:
            if any(x != 0 for x in v):
                raise ValidationError(
                    f"image of {gname} lands in degree {t}, outside the target window"
                )
            continue
        v = vec(v)
        if len(v) != target.dim(t):
            raise ValidationError(
                f"image of {gname} has length {len(v)}, expected {target.dim(t)}"
            )
        if any(v):
            img_vectors[gi] = RatMatrix.from_cols([v])
    hi = min(source.cap, target.cap - degree)
    mats = {}
    for k in range(min((source.gen_degrees[gi] for gi in img_vectors), default=hi + 1), hi + 1):
        # column a.g sits at col0(g) + a in the generator-major basis
        rows: list[dict[int, Fraction]] = [{} for _ in range(target.dim(k + degree))]
        col0 = 0
        for gi, deg in enumerate(source.gen_degrees):
            if deg > k:
                continue
            i, t, img = k - deg, deg + degree, img_vectors.get(gi)
            dim_a = source.algebra.dim(i)
            if img is not None and dim_a:
                sign = -1 if (i * degree) % 2 else 1
                block = times_kron(target.action_matrix(i, t), RatMatrix.identity(dim_a), img)
                for r, row in enumerate(block._nz):
                    if row:
                        rows[r].update({col0 + a: sign * x for a, x in row.items()})
            col0 += dim_a
        mats[k] = RatMatrix._make(len(rows), source.dim(k), rows)
    return DgModuleMap(source, target, degree, mats, name=name)


def certify_on_generators(phi: DgModuleMap) -> CheckReport:
    """The chain condition of an A-linear map out of a free module, checked on
    the generators in the window.  For phi A-linear, as a map from
    map_from_generator_images is by construction and certify_free_map
    decides for any other, D = d phi - (-1)^p phi d is
    A-linear up to the sign (-1)^{|a|(p+1)}, so it vanishes on every a.g of
    the window iff it vanishes on each generator g there.  The checks read
    phi's columns at the generators and the two differentials only."""
    source, target, p = phi.source, phi.target, phi.degree
    if not isinstance(source, FreeDgModule):
        raise ValidationError("a generator certificate needs a free source")
    sign = -1 if p % 2 else 1
    top = min(phi.window().stop - 1, source.cap - 1, target.cap - p - 1)
    failures: list[str] = []
    checks = 0
    for gi, (name, k) in enumerate(zip(source.gen_names, source.gen_degrees)):
        if k > top:
            continue
        checks += 1
        image = generator_image(phi, gi)
        d_image = target.differential_matrix(k + p).apply(image)
        image_d = phi.matrix(k + 1).apply(source.combination_vector(source.gen_diffs[gi], k + 1))
        if d_image != tuple(sign * x for x in image_d):
            failures.append(f"chain condition fails at generator {name}")
    return CheckReport("certify_map", not failures, tuple(failures), checks)


def certify_free_map(phi: DgModuleMap) -> CheckReport:
    """Twisted A-linearity and the chain condition of a map out of a free
    module into a module, decided on its generator images in the window.
    phi(a.m) = (-1)^{|a| p} a.phi(m) holds for every pair (a, m) that verify
    checks iff each column a.g is (-1)^{|a| p} a.phi(g): those columns are
    among verify's pairs, and the map they define is A-linear, the target's
    action being associative (GTM 205, section 6).  So phi is A-linear iff
    it equals the map built from its own generator images, and a differing
    column a.g names a pair (|a|, |g|) that verify fails too.  An A-linear
    phi then goes to certify_on_generators."""
    source, p = phi.source, phi.degree
    if not isinstance(source, FreeDgModule):
        raise ValidationError("a generator certificate needs a free source")
    window = phi.window()
    images = {
        name: generator_image(phi, gi)
        for gi, (name, k) in enumerate(zip(source.gen_names, source.gen_degrees))
        if k in window
    }
    rebuilt = map_from_generator_images(source, phi.target, p, images)
    failures: list[str] = []
    for k in window:
        got, want = phi.matrix(k), rebuilt.matrix(k)
        if got != want:
            col = next(c for c in range(got.cols) if got.col(c) != want.col(c))
            deg = source.gen_degrees[source.basis(k)[col][0]]
            failures.append(f"A-linearity fails for (|a|, |m|) = ({k - deg}, {deg})")
    if failures:
        return CheckReport("certify_map", False, tuple(failures), len(window))
    chain = certify_on_generators(phi)
    return CheckReport("certify_map", chain.ok, chain.failures, len(window) + chain.checks_run)


class MinimalModelResult(NamedTuple):
    """A minimal factorization M -> module -> X with its certification.

    rho induces isomorphisms H^i(module) = H^i(X) for 0 <= i <= window
    and a monomorphism at mono_degree when the target window allows the
    extra degree to be checked.
    """

    module: FreeDgModule
    rho: DgModuleMap
    window: int
    mono_degree: int | None
    betti_model: GradedDims
    betti_target: GradedDims
    batches: tuple[tuple[int, int, tuple[str, ...]], ...]


class MinimalityReport(NamedTuple):
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


def generator_image(phi: DgModuleMap, j: int) -> tuple[Fraction, ...]:
    """phi(g) for the generator g of index j of phi's free source: the column
    of phi's matrix at g's own degree."""
    source = phi.source
    k = source.gen_degrees[j]
    return phi.matrix(k).col(source.basis_index(k)[(j, source.algebra.unit_mono())])


def shift(module: DgModule, p: int) -> TabulatedDgModule:
    """The shifted module M[-p]: degree n holds M^{n-p}, with sign twists."""
    new_cap = module.cap + p
    if new_cap < 0:
        raise DegreeWindowError(f"shift by {p} empties the window of cap {module.cap}")
    for k in range(max(0, -p)):
        if module.dim(k):
            raise DegreeWindowError(
                f"shift by {p} pushes degree {k} below zero (window underflow)"
            )
    sign_d = -1 if p % 2 else 1
    return _tabulated(
        module.algebra,
        [module.basis_labels(n - p) for n in range(new_cap + 1)],
        lambda n: module.differential_matrix(n - p).scale(sign_d),
        lambda i, n: module.action_matrix(i, n - p).scale(-1 if (i * p) % 2 else 1),
    )


class Cone(NamedTuple):
    """Graded cone N +_phi M of a degree-p map, with its structure maps.

    In degree n the module's basis is N^n followed by M^{n-p+1}: the
    inclusion i is [I; 0] and the projection pi is [0 | S], S diagonal.  So
    d i = i d, pi i = 0, phi pi = h d - d h for h = i^T, and
    (-1)^p d k + k d = (-1)^p i phi for k = pi^T: each composite of the long
    exact sequence is zero on cohomology, and it is exact at a node where the
    ranks of the maps into and out of it add up to its Betti number."""

    module: DgModule
    phi: DgModuleMap
    degree: int
    n_dims: dict[int, int]
    m_dims: dict[int, int]
    inclusion: DgModuleMap
    projection: DgModuleMap

    @property
    def cap(self) -> int:
        return self.module.cap


def _cone_window(phi: DgModuleMap, check: bool) -> tuple[int, dict[int, int], dict[int, int]]:
    """The cone's cap and, per degree n up to it, dim N^n and dim M^{n-p+1};
    after checking that phi is a morphism (when asked), that N and M share one
    algebra, that the window is not empty and that no part of M falls below
    degree 0."""
    if check:
        report = phi.verify()
        if not report.ok:
            raise ValidationError(f"cone input is not a morphism: {report.failures[0]}")
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    if m_mod.algebra != n_mod.algebra:
        raise ValidationError("cone over maps between modules over different algebras")
    cap = min(n_mod.cap, m_mod.cap + p - 1)
    if cap < 0:
        raise DegreeWindowError("cone window is empty")
    for k in range(m_mod.cap + 1):
        if k + p - 1 < 0 and m_mod.dim(k):
            raise DegreeWindowError(
                f"cone places M^{k} below degree 0 (window underflow)"
            )
    n_dims = {n: n_mod.dim(n) for n in range(cap + 1)}
    m_dims = {n: m_mod.dim(n - p + 1) for n in range(cap + 1)}
    return cap, n_dims, m_dims


def _cone_of(
    phi: DgModuleMap,
    module: DgModule,
    n_dims: dict[int, int],
    m_dims: dict[int, int],
    signs: Callable[[int], Sequence[int]],
) -> Cone:
    """The Cone of phi on module, with the projection's diagonal signs(n) in
    degree n; the maps are written from the basis layout, not multiplied."""
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    incl, proj = {}, {}
    for n in range(module.cap + 1):
        nn, mn = n_dims[n], m_dims[n]
        incl[n] = RatMatrix._make(nn + mn, nn, [{r: 1} for r in range(nn)] + [{}] * mn)
        proj[n] = RatMatrix._make(mn, nn + mn, [{nn + r: s} for r, s in enumerate(signs(n))])
    inclusion = DgModuleMap(n_mod, module, 0, incl, name="cone inclusion")
    projection = DgModuleMap(module, m_mod, 1 - p, proj, name="cone projection")
    return Cone(module, phi, p, n_dims, m_dims, inclusion, projection)


def cone(phi: DgModuleMap, check: bool = True) -> Cone:
    """The graded cone on N^n + M^{n-p+1} with the displayed sign conventions,
    tabulated; maps of free modules also have free_cone."""
    cap, n_dims, m_dims = _cone_window(phi, check)
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    algebra = n_mod.algebra
    shift_tag = 1 - p
    labels = [
        n_mod.basis_labels(n)
        + tuple(f"{lbl}[{shift_tag}]" for lbl in m_mod.basis_labels(n - p + 1))
        for n in range(cap + 1)
    ]
    ones = [(1,) * m_dims[n] for n in range(cap + 1)]

    def action_block(i: int, n: int) -> RatMatrix:
        # each factor's action times I (x) its inclusion into N^n + M^{n-p+1}
        nn, mn = n_dims[n], m_dims[n]
        id_a = RatMatrix.identity(algebra.dim(i))
        to_n = RatMatrix._make(nn, nn + mn, [{s: 1} for s in range(nn)])
        to_m = RatMatrix._make(mn, nn + mn, [{nn + s: 1} for s in range(mn)])
        tw = -1 if (i * (p - 1)) % 2 else 1
        n_part = times_kron(n_mod.action_matrix(i, n), id_a, to_n)
        return n_part.vstack(times_kron(m_mod.action_matrix(i, n - p + 1), id_a, to_m).scale(tw))

    module = _tabulated(
        algebra, labels, lambda n: _cone_differential(phi, n, ones[n], ones[n + 1]), action_block
    )
    return _cone_of(phi, module, n_dims, m_dims, ones.__getitem__)


def _cone_differential(
    phi: DgModuleMap, k: int, t_k: Sequence[int], t_k1: Sequence[int]
) -> RatMatrix:
    """The cone's differential out of degree k, [[d_N, phi T_k], [0, sign_d
    T_{k+1} d_M T_k]] with sign_d = (-1)^{p-1}, d_N out of N^k, phi and d_M
    out of M^{k-p+1}, and T_k the diagonal twist of the M part in degree k
    (all ones for the tabulated cone)."""
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    j, nn = k - p + 1, n_mod.dim(k)
    rows = [
        {**d_row, **{nn + c: x if t_k[c] > 0 else -x for c, x in phi_row.items()}}
        if phi_row else d_row
        for d_row, phi_row in zip(n_mod.differential_matrix(k)._nz, phi.matrix(j)._nz)
    ]
    sign_d = -1 if (p - 1) % 2 else 1
    for t, row in zip(t_k1, m_mod.differential_matrix(j)._nz):
        s = sign_d * t
        rows.append({nn + c: x if s * t_k[c] > 0 else -x for c, x in row.items()})
    return RatMatrix._make(len(rows), nn + len(t_k), rows)


class _FreeCone(FreeDgModule):
    """The free cone F of phi, whose differential out of degree n is
    _cone_differential with F's twists T_n, filled on its first read; the
    Leibniz rule of the generator table gives the same matrix and is the
    tests' oracle."""

    __slots__ = ("_phi", "_twist")

    def __init__(self, phi: DgModuleMap, cap: int, twist: Sequence[Sequence[int]]):
        super().__init__(phi.target.algebra, (), cap=cap)
        self._phi = phi
        self._twist = twist

    def differential_matrix(self, k: int) -> RatMatrix:
        mat = self._diff_cache.get(k)
        if mat is not None:
            return mat
        if not 0 <= k < self.cap:
            return super().differential_matrix(k)
        twist = self._twist
        mat = self._diff_cache[k] = _cone_differential(self._phi, k, twist[k], twist[k + 1])
        return mat


def free_cone_module(
    phi: DgModuleMap,
    gen_names: Sequence[str] | None = None,
    check: bool = True,
) -> _FreeCone:
    """The cone of a map of free modules, as a free module F.

    F is free on the target's generators followed by one generator per
    source generator, shifted by p - 1 and named by gen_names (default: the
    source names primed).  Its degree-n basis is generator-major, so it is
    N^n followed by the shifted M^{n-p+1}, and F is isomorphic to cone(phi)
    by the diagonal T_n that twists each a.c_j by (-1)^{|a|(p-1)}.  F's
    differential in degree n is read off d_N, phi and d_M through T_n and
    T_{n+1}, one degree at a time as it is first asked for; the Leibniz rule
    on F's generator table, which _adjoin uses for its d^2 check, is its
    test oracle.  So phi must be A-linear, as check=True verifies and a map
    from map_from_generator_images is by construction.  free_cone adds the
    inclusion and the projection, for a reader of the long exact sequence.
    """
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    if not isinstance(m_mod, FreeDgModule) or not isinstance(n_mod, FreeDgModule):
        raise ValidationError("free_cone needs free source and target")
    cap, _, _ = _cone_window(phi, check)
    algebra = n_mod.algebra

    if gen_names is None:
        gen_names = tuple(f"{name}'" for name in m_mod.gen_names)
    if len(gen_names) != m_mod.gen_count:
        raise ValidationError("gen_names must match the source generator count")

    # the target's generators keep their indices; source generator j becomes nc + j
    nc, diffs = n_mod.gen_count, list(n_mod.gen_diffs)
    for j, gdeg in enumerate(m_mod.gen_degrees):
        t = gdeg + p
        # past either cap, the cone generator's differential lies above the cone's window
        inside = 0 <= t <= n_mod.cap and gdeg <= m_mod.cap
        comb = n_mod.vector_combination(generator_image(phi, j), t) if inside else {}
        for h, poly in m_mod.gen_diffs[j].items():
            sign = -1 if ((algebra.poly_degree(poly) + 1) * (p - 1)) % 2 else 1
            comb[nc + h] = poly_scale(sign, poly)
        diffs.append(comb)

    # T_n on the M part: (-1)^{|a|(p-1)} on a.c_j, |a| = n - p + 1 - |g_j|
    twist = [
        [
            -1 if ((n - p + 1 - m_mod.gen_degrees[gi]) * (p - 1)) % 2 else 1
            for gi, _ in m_mod.basis(n - p + 1)
        ]
        for n in range(cap + 1)
    ]
    degrees = n_mod.gen_degrees + tuple(g + p - 1 for g in m_mod.gen_degrees)
    names = n_mod.gen_names + tuple(gen_names)
    return _FreeCone(phi, cap, twist)._adjoin(names, degrees, diffs, None)


def free_cone(
    phi: DgModuleMap,
    gen_names: Sequence[str] | None = None,
    check: bool = True,
) -> Cone:
    """The cone of a map of free modules, as the Cone of the free module F of
    free_cone_module(phi, gen_names, check).  Only cone_les reads its maps;
    a reader of the module alone takes free_cone_module."""
    return free_cone_maps(free_cone_module(phi, gen_names, check))


def free_cone_maps(free: _FreeCone) -> Cone:
    """The Cone of a module from free_cone_module, its maps written around it:
    the inclusion, and the projection, which carries F's twist T_n."""
    _, n_dims, m_dims = _cone_window(free._phi, False)
    return _cone_of(free._phi, free, n_dims, m_dims, free._twist.__getitem__)


# ---- cohomology ---------------------------------------------------------


def module_cohomology(module: DgModule, n: int) -> CohomologyData:
    """Cohomology of the module's complex at degree n (needs n <= cap - 1).

    A free module computes it once per degree and keeps it, like its
    differential and action matrices; a tabulated module keeps only the
    matrices it was given, so a long-lived input does not grow.
    """
    if n > module.cap - 1:
        raise DegreeWindowError(
            f"cohomology at degree {n} needs the differential into degree {n + 1}"
        )
    cache = module._coh_cache if isinstance(module, FreeDgModule) else None
    if cache is not None and n in cache:
        return cache[n]
    dims = {n - 1: module.dim(n - 1), n: module.dim(n), n + 1: module.dim(n + 1)}
    d_mats = {n - 1: module.differential_matrix(n - 1), n: module.differential_matrix(n)}
    h = cohomology_at(dims, d_mats, n)
    if cache is not None:
        cache[n] = h
    return h


def betti_table(module: DgModule, top: int | None = None) -> GradedDims:
    """Betti numbers in degrees 0..top (default: the certified window cap-1), by rank counts."""
    top = module.cap - 1 if top is None else min(top, module.cap - 1)
    dims = {n: module.dim(n) for n in range(top + 2)}
    d = {n: module.differential_matrix(n) for n in range(-1, top + 1)}
    return GradedDims({n: cohomology_count(dims, d, n) for n in range(top + 1)}, top)


def induced_map(f: DgModuleMap, source_h: CohomologyData, target_h: CohomologyData) -> RatMatrix:
    """Matrix of f_* between cohomology in the stored representative bases:
    the target coordinates of f times the source representatives, one
    product and one `coords` call."""
    if target_h.degree != source_h.degree + f.degree:
        raise ValidationError("cohomology degrees do not match the map degree")
    return target_h.coords(f.matrix(source_h.degree) * source_h.representatives)


def _induced_rank(f: DgModuleMap, k: int, betti_source: int, betti_target: int) -> int:
    """rank f_*: H^k -> H^(k+q) of a degree-q chain map f, as rank [d | f K] - rank d
    with d the target's differential into degree k + q and K the kernel matrix of
    the source's d^k, multiplied as `kernel_basis` returns it; 0, with no
    elimination, when either group is 0."""
    if not (betti_source and betti_target):
        return 0
    d = f.target.differential_matrix(k + f.degree - 1)
    image = f.matrix(k) * f.source.differential_matrix(k).kernel_basis()
    return d.hstack(image).rank() - d.rank()


class LesRow(NamedTuple):
    """One window degree of the cone long exact sequence."""

    n: int
    dim_h_target: int
    dim_h_cone: int
    dim_h_source: int
    rank_into_cone: int
    rank_onto_source: int
    rank_connecting: int
    exact_at_cone: bool
    exact_at_source: bool


class LesTable(NamedTuple):
    """H^n(N) -> H^n(cone) -> H^{n+1-p}(M) -> H^{n+1}(N), checked per node."""

    degree: int
    top: int
    rows: list[LesRow]
    ok: bool
    failures: tuple[str, ...]


def cone_les(cn: Cone, top: int | None = None) -> LesTable:
    """The sequence by ranks, one pass up the window, with the identities of
    Cone checked at each node they certify; H^n(N) is decided in degree n."""
    phi, mod, incl, proj = cn.phi, cn.module, cn.inclusion, cn.projection
    m_mod, n_mod, p = phi.source, phi.target, phi.degree
    hi = min(n_mod.cap - 2, cn.cap - 1, m_mod.cap + p - 2, cn.cap if top is None else top)
    h = DgModuleMap(mod, n_mod, 0, {n: incl.matrix(n).transpose() for n in range(hi + 2)})
    k_mats = {n + 1 - p: proj.matrix(n).transpose() for n in range(max(p - 1, 0), hi + 2)}
    k, zero_m = DgModuleMap(m_mod, mod, p - 1, k_mats), DgModuleMap(m_mod, mod, p)
    phi_pi, i_phi, zero_c = compose(phi, proj), compose(incl, phi), DgModuleMap(mod, n_mod, 1)
    ends = (zero_m, i_phi) if p % 2 == 0 else (i_phi, zero_m)  # psi - phi = (-1)^p i phi
    b_n, b_c, b_m = betti_table(n_mod, hi + 1), betti_table(mod, hi), betti_table(m_mod, hi + 1 - p)

    failures: list[str] = []
    rows: list[LesRow] = []
    for n in range(hi + 1):
        j = n + 1 - p
        hn, hc, hm = b_n.get(n), b_c.get(n), b_m.get(j)
        rank_a, rank_b = _induced_rank(incl, n, hn, hc), _induced_rank(proj, n, hc, hm)
        rank_d = _induced_rank(phi, j, hm, b_n.get(n + 1))
        if n and not (_homotopy_at(k, *ends, j - 1) and rows[-1].rank_connecting == hn - rank_a):
            failures.append(f"not exact at H^{n}(target)")
        i_n, d_n = incl.matrix(n), n_mod.differential_matrix(n)
        chain = mod.differential_matrix(n) * i_n == incl.matrix(n + 1) * d_n
        exact_c = chain and (proj.matrix(n) * i_n).is_zero() and rank_a == hc - rank_b
        exact_m = _homotopy_at(h, zero_c, phi_pi, n) and rank_b == hm - rank_d
        if not exact_c:
            failures.append(f"not exact at H^{n}(cone)")
        if not exact_m:
            failures.append(f"not exact at H^{j}(source)")
        rows.append(LesRow(n, hn, hc, hm, rank_a, rank_b, rank_d, exact_c, exact_m))
    return LesTable(p, hi, rows, not failures, tuple(failures))
