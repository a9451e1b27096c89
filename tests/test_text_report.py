"""The text `circle` report against a reference renderer.

`reference_render_circle` is the renderer as it stood when each verdict
block padded its own label, indented its own detail lines and cut its own
failures at three.  `text.render_circle` must print the same lines on
every fixture at windows 12 and 20, on cp2 at window 1, and on reports
edited with `_replace` to reach the branches that no fixture reaches.
An empty wedge of spheres, which the reference once printed as a line
ending in `degrees `, prints `none (degree 0 only)` in both.
"""

import functools

import pytest

from dgmodels.circle import action_report
from dgmodels.text import _comb_str, _dims_str, _echo, _table, render_circle
from dgmodels.fixtures import FIXTURES, fixture


def _generator_rows(module):
    rows = [("generator", "degree", "differential")]
    for i, name in enumerate(module.gen_names):
        rows.append((name, str(module.gen_degrees[i]), _comb_str(module, module.gen_diffs[i])))
    return rows


def _yn(flag):
    return "yes" if flag else "no"


def reference_render_circle(rep, source):
    """The text report as each verdict block once wrote it, line by line."""
    lines = [_echo("circle", source, rep.max_degree)]
    lines.append(f"circle action report: {rep.name or '(unnamed)'} (variant {rep.variant})")
    lines.append("")
    lines.append("cohomology dimensions, degrees 0..top of each window")
    lines.append(f"  total  {_dims_str(rep.betti_total)}")
    if rep.betti_fixed is not None:
        lines.append(f"  fixed  {_dims_str(rep.betti_fixed)}")
    if rep.betti_borel is not None:
        lines.append(f"  borel  {_dims_str(rep.betti_borel)}")

    lines.append("")
    lines.append(f"total-space model (window {rep.total.window})")
    lines.extend(_table(_generator_rows(rep.total.module)))
    if rep.fixed is not None:
        lines.append("")
        lines.append(f"fixed-set model (window {rep.fixed.window})")
        lines.extend(_table(_generator_rows(rep.fixed.module)))
    if rep.equivariant is not None:
        lines.append("")
        lines.append(
            f"borel model (window {rep.equivariant.window}, "
            f"euler class {rep.equivariant.euler_name})"
        )
        lines.extend(_table(_generator_rows(rep.equivariant.module)))

    lines.append("")
    lines.append("verdicts")
    if rep.les is not None:
        verdict = "exact at every node" if rep.les.ok else "NOT EXACT"
        lines.append(f"  long exact sequence     {verdict} through degree {rep.les.table.top}")
        for failure in rep.les.failures[:3]:
            lines.append(f"      {failure}")
    if rep.shared_basis is not None:
        verdict = "ok" if rep.shared_basis.ok else "MISMATCH"
        lines.append(
            f"  shared basis            {verdict} (degree shift {rep.shared_basis.shift})"
        )
        for failure in rep.shared_basis.failures[:3]:
            lines.append(f"      {failure}")
    if rep.scalars is not None:
        verdict = "ok" if rep.scalars.ok else "FAIL"
        lines.append(
            f"  extension of scalars    {verdict} "
            f"(euler class to zero; {rep.scalars.generators} generators compared)"
        )
        for failure in rep.scalars.failures[:3]:
            lines.append(f"      {failure}")
    if rep.poincare is not None:
        verdict = "hold" if rep.poincare.ok else "FAIL"
        lines.append(f"  poincare identities     {verdict} through degree {rep.poincare.through}")
        lines.append(f"      total fiber series  {rep.poincare.total_fiber}")
        lines.append(f"      fixed fiber series  {rep.poincare.fixed_fiber}")
        lines.append(f"      borel fiber series  {rep.poincare.borel_fiber}")
        for failure in rep.poincare.failures[:3]:
            lines.append(f"      {failure}")
    if rep.formality is not None:
        f = rep.formality
        verdict = "equivariantly formal" if f.formal else "NOT equivariantly formal"
        lines.append(f"  formality               {verdict} (window {f.window})")
        if f.formal:
            for s in f.strings:
                steps = ", ".join(s.steps)
                lines.append(f"      degree {s.degree}: {steps}")
        else:
            lines.append(
                f"      witness: degree {f.witness_degree}, class {f.witness_label}"
            )
    loc = rep.localization
    detail = f"exponent {loc.exponent}" if loc.exponent is not None else "no exponent"
    lines.append(
        f"  localization            {loc.verdict} "
        f"({detail}, {loc.basis_checked} classes checked)"
    )
    if loc.reason:
        lines.append(f"      {loc.reason}")
    if rep.dimc is not None:
        d = rep.dimc
        if d.applicable:
            lines.append(
                f"  dimc                    case {d.case}: "
                f"total {d.dimc_total}, fixed {d.dimc_fixed}"
            )
        else:
            lines.append(f"  dimc                    not applicable (case {d.case})")
            for reason in d.reasons:
                lines.append(f"      {reason}")
    if rep.almost_free is not None:
        a = rep.almost_free
        verdict = "ok" if a.ok else "FAIL"
        lines.append(
            f"  almost-free model       {verdict} "
            f"(generator {a.generator_name}, euler {a.euler_poly})"
        )
        lines.append(f"      cohomology  {' '.join(str(x) for x in a.betti.as_list())}")
        for failure in a.failures[:3]:
            lines.append(f"      {failure}")
    if rep.naive is not None:
        nv = rep.naive
        verdict = "ok" if nv.ok else "FAIL"
        lines.append(f"  naive product           {verdict} (window {nv.window})")
        lines.append(
            "      unital "
            + _yn(nv.unital)
            + ", graded-commutative "
            + _yn(nv.graded_commutative)
            + ", associative "
            + _yn(nv.associative)
            + ", leibniz "
            + _yn(nv.leibniz)
        )
        if nv.wedge_of_spheres:
            degs = ", ".join(str(d) for d in (nv.sphere_degrees or ())) or "none (degree 0 only)"
            lines.append(f"      wedge of spheres in degrees {degs}")
        for failure in nv.failures[:3]:
            lines.append(f"      {failure}")
    for s in rep.smith_gysin:
        lhs = f"{s.relative_term} + {s.fixed_sum}"
        lines.append(
            f"  smith-gysin r={s.r}         {s.verdict}: {lhs} <= {s.total_sum}"
        )
        if s.reason:
            lines.append(f"      {s.reason}")

    if rep.notes:
        lines.append("")
        lines.append("notes")
        for note in rep.notes:
            lines.append(f"  {note}")
    return lines


@functools.cache
def _report(name, window):
    return action_report(fixture(name, window), window)


@pytest.mark.parametrize("window", [12, 20])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_text_report_matches_reference_on_fixtures(name, window):
    rep, source = _report(name, window), {"fixture": name}
    assert render_circle(rep, source) == reference_render_circle(rep, source)


def test_text_report_at_cp2_window_1_completes_every_line():
    """cp2 at window 1 has total cohomology in degree 0 only: its naive product
    is the empty wedge, which once printed a line ending in `degrees `."""
    rep, source = action_report(fixture("cp2", 1), 1), {"fixture": "cp2"}
    lines = render_circle(rep, source)
    assert lines == reference_render_circle(rep, source)
    assert rep.naive.wedge_of_spheres and not rep.naive.sphere_degrees
    assert "      wedge of spheres in degrees none (degree 0 only)" in lines
    assert not any(line.endswith("degrees ") for line in lines)


FAILURES = tuple(f"degree {k}: seeded failure {k}" for k in range(5))


def _full_report():
    """cp2's report with the almost-free section, the Smith-Gysin rows and the
    notes of other fixtures, so that every verdict block is present."""
    return _report("cp2", 12)._replace(
        almost_free=_report("almost_free_hopf", 12).almost_free,
        smith_gysin=_report("flow_s4", 12).smith_gysin,
        notes=_report("flow_s4", 12).notes,
    )


def _edit(section, **changes):
    rep = _full_report()
    edited = getattr(rep, section)._replace(**changes)
    return rep._replace(**{section: edited})


EDITS = {
    "les not exact": lambda: _edit("les", ok=False, failures=FAILURES),
    "shared basis mismatch": lambda: _edit("shared_basis", ok=False, failures=FAILURES),
    "scalars fail": lambda: _edit("scalars", ok=False, failures=FAILURES),
    "poincare fail": lambda: _edit("poincare", ok=False, failures=FAILURES),
    "almost-free fail": lambda: _edit("almost_free", ok=False, failures=FAILURES),
    "naive fail": lambda: _edit("naive", ok=False, failures=FAILURES),
    "not formal": lambda: _edit(
        "formality", formal=False, witness_degree=5, witness_label="[u*m3]"
    ),
    "localization inconclusive": lambda: _edit(
        "localization", verdict="inconclusive", exponent=None, reason="window too small"
    ),
    "dimc not applicable": lambda: _edit(
        "dimc", applicable=False, reasons=("base not simply connected", "no fixed set")
    ),
    "wedge of spheres": lambda: _edit("naive", wedge_of_spheres=True, sphere_degrees=(3, 5)),
    "wedge without degrees": lambda: _edit("naive", wedge_of_spheres=True, sphere_degrees=None),
    "smith-gysin reason": lambda: _full_report()._replace(
        smith_gysin=tuple(
            s._replace(verdict="inconclusive", reason=f"r={s.r} not stable")
            for s in _full_report().smith_gysin
        ),
    ),
    "no sections": lambda: _full_report()._replace(
        name="",
        fixed=None,
        equivariant=None,
        les=None,
        shared_basis=None,
        scalars=None,
        poincare=None,
        formality=None,
        dimc=None,
        almost_free=None,
        naive=None,
        smith_gysin=(),
        notes=(),
    ),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_text_report_matches_reference_on_edited_reports(edit):
    rep, source = EDITS[edit](), {"fixture": "edited"}
    lines = render_circle(rep, source)
    if any(getattr(section, "failures", None) == FAILURES for section in rep._asdict().values()):
        assert "      degree 2: seeded failure 2" in lines
        assert "      degree 3: seeded failure 3" not in lines
    assert lines == reference_render_circle(rep, source)
