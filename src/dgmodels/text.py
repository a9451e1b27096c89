"""Human-readable output of the commands, `--format text`.

`cli` imports this module only for that format: a machine-format run
writes canonical JSON and never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cdga import CheckReport
    from .circle import ActionReport
    from .dgmodule import FreeDgModule, MinimalModelResult
    from .linalg import GradedDims


def _echo(command: str, source: dict[str, str], max_degree: int) -> str:
    key, value = next(iter(source.items()))
    return f"dgmodels {command} --{key.replace('_', '-')} {value} --max-degree {max_degree}"


def _dims_str(dims: GradedDims) -> str:
    return " ".join(str(x) for x in dims.as_list())


def _table(rows: list[tuple[str, ...]], indent: str = "  ") -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return [indent + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def _comb_str(module: FreeDgModule, comb) -> str:
    if not comb:
        return "0"
    alg = module.algebra
    parts = []
    for j in sorted(comb):
        poly = comb[j]
        body = alg.poly_str(poly)
        gen = module.gen_names[j]
        composite = ("+" in body) or (" - " in body)
        if gen == "1":
            parts.append(f"({body})" if composite else body)
        elif body == "1":
            parts.append(gen)
        elif composite:
            parts.append(f"({body})*{gen}")
        else:
            parts.append(f"{body}*{gen}")
    return " + ".join(parts)


def render_verify(
    groups: list[tuple[str, CheckReport]], ok: bool, source: dict[str, str], max_degree: int
) -> list[str]:
    lines = [_echo("verify", source, max_degree)]
    if not groups:
        lines.append("empty document: nothing to check; trivially valid")
        return lines
    for label, rep in groups:
        status = "ok  " if rep.ok else "FAIL"
        lines.append(f"{status}  {label} (checks: {rep.checks_run})")
        for failure in rep.failures[:3]:
            lines.append(f"        {failure}")
        if len(rep.failures) > 3:
            lines.append(f"        ... and {len(rep.failures) - 3} more")
    total = sum(rep.checks_run for _, rep in groups)
    if ok:
        lines.append(f"all checks passed ({len(groups)} groups, {total} checks)")
    else:
        bad = sum(1 for _, rep in groups if not rep.ok)
        lines.append(f"{bad} of {len(groups)} groups failed")
    return lines


def render_minmodel(
    result: MinimalModelResult, target: str, source: dict[str, str], max_degree: int
) -> list[str]:
    lines = [_echo("minmodel", source, max_degree) + f" --target {target}"]
    lines += _model_table(f"minimal model of {target!r} (window {result.window})", result.module)
    lines.append("cohomology (model vs input)")
    rows = [("degree", "model", "input")]
    for n in range(result.window + 1):
        rows.append((str(n), str(result.betti_model.get(n)), str(result.betti_target.get(n))))
    lines.extend(_table(rows))
    if result.mono_degree is not None:
        lines.append(f"injective on cohomology in degree {result.mono_degree}")
    return lines


def _model_table(title: str, module: FreeDgModule) -> list[str]:
    """A model's title line over its table of generators, degrees and differentials."""
    rows = [("generator", "degree", "differential")]
    for i, name in enumerate(module.gen_names):
        rows.append((name, str(module.gen_degrees[i]), _comb_str(module, module.gen_diffs[i])))
    return [title, *_table(rows)]


def _verdict_lines(label: str, head: str, details=(), failures=()) -> list[str]:
    """One verdict: the label padded to 24 columns after a two-space indent,
    then its detail lines and at most three failures, indented six spaces."""
    return [f"  {label:<24}{head}", *(f"      {line}" for line in (*details, *failures[:3]))]


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def render_circle(rep: ActionReport, source: dict[str, str]) -> list[str]:
    lines = [
        _echo("circle", source, rep.max_degree),
        f"circle action report: {rep.name or '(unnamed)'} (variant {rep.variant})",
        "",
        "cohomology dimensions, degrees 0..top of each window",
    ]
    betti = {"total": rep.betti_total, "fixed": rep.betti_fixed, "borel": rep.betti_borel}
    for key, dims in betti.items():
        if dims is not None:
            lines.append(f"  {key}  {_dims_str(dims)}")

    models = [(f"total-space model (window {rep.total.window})", rep.total.module)]
    if rep.fixed is not None:
        models.append((f"fixed-set model (window {rep.fixed.window})", rep.fixed.module))
    if (em := rep.equivariant) is not None:
        title = f"borel model (window {em.window}, euler class {em.euler_name})"
        models.append((title, em.module))
    for title, module in models:
        lines += ["", *_model_table(title, module)]

    lines += ["", "verdicts"]
    if (les := rep.les) is not None:
        verdict = "exact at every node" if les.ok else "NOT EXACT"
        head = f"{verdict} through degree {les.table.top}"
        lines += _verdict_lines("long exact sequence", head, failures=les.failures)
    if (sb := rep.shared_basis) is not None:
        head = f"{'ok' if sb.ok else 'MISMATCH'} (degree shift {sb.shift})"
        lines += _verdict_lines("shared basis", head, failures=sb.failures)
    if (sc := rep.scalars) is not None:
        verdict = "ok" if sc.ok else "FAIL"
        head = f"{verdict} (euler class to zero; {sc.generators} generators compared)"
        lines += _verdict_lines("extension of scalars", head, failures=sc.failures)
    if (pc := rep.poincare) is not None:
        head = f"{'hold' if pc.ok else 'FAIL'} through degree {pc.through}"
        details = [
            f"total fiber series  {pc.total_fiber}",
            f"fixed fiber series  {pc.fixed_fiber}",
            f"borel fiber series  {pc.borel_fiber}",
        ]
        lines += _verdict_lines("poincare identities", head, details, pc.failures)
    if (f := rep.formality) is not None:
        verdict = "equivariantly formal" if f.formal else "NOT equivariantly formal"
        if f.formal:
            details = [f"degree {s.degree}: {', '.join(s.steps)}" for s in f.strings]
        else:
            details = [f"witness: degree {f.witness_degree}, class {f.witness_label}"]
        lines += _verdict_lines("formality", f"{verdict} (window {f.window})", details)
    loc = rep.localization
    detail = f"exponent {loc.exponent}" if loc.exponent is not None else "no exponent"
    head = f"{loc.verdict} ({detail}, {loc.basis_checked} classes checked)"
    lines += _verdict_lines("localization", head, [loc.reason] if loc.reason else ())
    if (d := rep.dimc) is not None and d.applicable:
        head = f"case {d.case}: total {d.dimc_total}, fixed {d.dimc_fixed}"
        lines += _verdict_lines("dimc", head)
    elif d is not None:
        lines += _verdict_lines("dimc", f"not applicable (case {d.case})", d.reasons)
    if (a := rep.almost_free) is not None:
        head = f"{'ok' if a.ok else 'FAIL'} (generator {a.generator_name}, euler {a.euler_poly})"
        details = [f"cohomology  {_dims_str(a.betti)}"]
        lines += _verdict_lines("almost-free model", head, details, a.failures)
    if (nv := rep.naive) is not None:
        details = [
            f"unital {_yn(nv.unital)}, graded-commutative {_yn(nv.graded_commutative)}, "
            f"associative {_yn(nv.associative)}, leibniz {_yn(nv.leibniz)}"
        ]
        if nv.wedge_of_spheres:
            degs = ", ".join(str(d) for d in (nv.sphere_degrees or ())) or "none (degree 0 only)"
            details.append(f"wedge of spheres in degrees {degs}")
        head = f"{'ok' if nv.ok else 'FAIL'} (window {nv.window})"
        lines += _verdict_lines("naive product", head, details, nv.failures)
    for s in rep.smith_gysin:
        head = f"{s.verdict}: {s.relative_term} + {s.fixed_sum} <= {s.total_sum}"
        lines += _verdict_lines(f"smith-gysin r={s.r}", head, [s.reason] if s.reason else ())

    if rep.notes:
        lines += ["", "notes", *(f"  {note}" for note in rep.notes)]
    return lines
