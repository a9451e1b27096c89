"""Command-line interface.

Subcommands: verify (structural checks on a document), minmodel (minimal
model of one module), circle (full circle-action report), export (canonical
JSON of the parsed document or of a computed model).  Input comes from
--input PATH (a JSON document) or --fixture NAME (a bundled dataset).

Exit codes: 0 success, 1 validation failure, 2 precondition failure,
3 window-limited verdict.

A command imports only the layers it runs: minmodel loads the KS tower
(`minmodel`) and circle the report layer (`circle`); verify and export
read the three models from `action` and load neither, unless the document
gives its action as complexes, whose assembly runs the KS tower.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any

from .action import DEFAULT_DEGREE, _ActionPipeline
from .cdga import verify_cdga
from .dgmodule import DgModule, FreeDgModule, MinimalModelResult, modules_equal, verify_dgmodule
from .errors import InconclusiveWindowError, PreconditionError, ValidationError
from .fixtures import FIXTURES, fixture
from .io import (
    InputDocument,
    document_json,
    dump_json,
    load_document,
    loads_document,
    model_document,
)
from .linalg import GradedDims, PoincareSeries

if TYPE_CHECKING:
    from .circle import ActionReport


# ---- input resolution ----------------------------------------------------------


def _document_from_fixture(name: str, max_degree: int) -> InputDocument:
    data = fixture(name, max_degree)
    action_raw: dict[str, Any] = {
        "relative_model": "M",
        "i_prime": "i_prime",
        "e_prime": "e_prime",
        "name": data.name,
    }
    if data.variant != "circle":
        action_raw["variant"] = data.variant
    if data.fixed_set_empty:
        action_raw["fixed_set_empty"] = True
    if not data.base_simply_connected:
        action_raw["base_simply_connected"] = False
    if data.fixed_components is not None:
        action_raw["fixed_components"] = data.fixed_components
    return InputDocument(
        name=data.name,
        algebra=data.algebra,
        modules={"M": data.relative_model},
        maps={"i_prime": data.i_prime, "e_prime": data.e_prime},
        action=data,
        assembled=None,
        options={"max_degree": max_degree},
        action_raw=action_raw,
    )


def _resolve_input(args) -> tuple[InputDocument, int, dict[str, str]]:
    if bool(args.input) == bool(args.fixture):
        raise ValidationError("give exactly one of --input PATH or --fixture NAME")
    if args.fixture:
        n = args.max_degree if args.max_degree is not None else DEFAULT_DEGREE
        doc = _document_from_fixture(args.fixture, n)
        return doc, n, {"fixture": args.fixture}
    doc = load_document(args.input, max_degree=args.max_degree)
    return doc, doc.max_degree(args.max_degree), {"input": args.input}


def _echo(command: str, source: dict[str, str], max_degree: int) -> str:
    key, value = next(iter(source.items()))
    return f"dgmodels {command} --{key.replace('_', '-')} {value} --max-degree {max_degree}"


# ---- output ---------------------------------------------------------------------


def _write(text: str) -> None:
    """Write command output to stdout and flush it.

    Output that cannot be written (a closed pipe, a full device) is a
    validation failure.  The stdout file descriptor is pointed at os.devnull
    first, so that the flush at interpreter shutdown cannot fail again.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValidationError(f"cannot write output: {exc.strerror or exc}") from None


# ---- rendering helpers ----------------------------------------------------------


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


def _generators_json(module: FreeDgModule) -> list[list[Any]]:
    alg = module.algebra
    out = []
    for i, name in enumerate(module.gen_names):
        diff = {module.gen_names[j]: alg.poly_str(p) for j, p in module.gen_diffs[i].items()}
        out.append([name, module.gen_degrees[i], diff])
    return out


def _model_json(result: MinimalModelResult) -> dict[str, Any]:
    return {
        "window": result.window,
        "mono_degree": result.mono_degree,
        "generators": _generators_json(result.module),
        "betti_model": result.betti_model.as_list(),
        "betti_target": result.betti_target.as_list(),
    }


# ---- verify ---------------------------------------------------------------------


def cmd_verify(doc: InputDocument, max_degree: int, source: dict[str, str], fmt: str) -> int:
    groups: list[tuple[str, Any]] = []
    if doc.algebra is not None:
        groups.append(("algebra", verify_cdga(doc.algebra)))
    for name, module in doc.modules.items():
        groups.append((f"module {name!r}", verify_dgmodule(module)))
    for name, f in doc.maps.items():
        groups.append((f"map {name!r}", f.verify()))
    if doc.action is not None:
        groups.append(("action", doc.action.validate()))

    ok = all(rep.ok for _, rep in groups)
    if fmt == "machine":
        payload = {
            "command": "verify",
            "source": source,
            "max_degree": max_degree,
            "ok": ok,
            "checks": [
                {
                    "name": label,
                    "ok": rep.ok,
                    "checks_run": rep.checks_run,
                    "failures": list(rep.failures),
                }
                for label, rep in groups
            ],
        }
        _write(dump_json(payload))
        return 0 if ok else 1

    lines = [_echo("verify", source, max_degree)]
    if not groups:
        lines.append("empty document: nothing to check; trivially valid")
        _write("\n".join(lines) + "\n")
        return 0
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
    _write("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---- minmodel -------------------------------------------------------------------


def cmd_minmodel(
    doc: InputDocument, max_degree: int, source: dict[str, str], fmt: str, target: str | None
) -> int:
    if not doc.modules:
        raise ValidationError("documents for minmodel must declare at least one module")
    if target is None:
        if len(doc.modules) == 1:
            target = next(iter(doc.modules))
        else:
            names = ", ".join(sorted(doc.modules))
            raise ValidationError(f"--target needed; document declares modules: {names}")
    if target not in doc.modules:
        names = ", ".join(sorted(doc.modules))
        raise ValidationError(f"unknown module {target!r}; document declares: {names}")
    module = doc.modules[target]
    algebra = module.algebra
    n_cap = min(max_degree + 1, module.cap, algebra.cap - 1)
    from .minmodel import minimal_model

    result = minimal_model(module, n_cap=n_cap)

    if fmt == "machine":
        payload = {
            "command": "minmodel",
            "source": source,
            "max_degree": max_degree,
            "target": target,
            "model": _model_json(result),
        }
        _write(dump_json(payload))
        return 0

    lines = [_echo("minmodel", source, max_degree) + f" --target {target}"]
    lines += _model_table(f"minimal model of {target!r} (window {result.window})", result.module)
    lines.append("cohomology (model vs input)")
    rows = [("degree", "model", "input")]
    for n in range(result.window + 1):
        rows.append((str(n), str(result.betti_model.get(n)), str(result.betti_target.get(n))))
    lines.extend(_table(rows))
    if result.mono_degree is not None:
        lines.append(f"injective on cohomology in degree {result.mono_degree}")
    _write("\n".join(lines) + "\n")
    return 0


# ---- circle ---------------------------------------------------------------------


def _record_json(value: Any) -> Any:
    """A report record as JSON: record fields under their own names, Betti
    tables and fiber series as integer lists, plain tuples as lists."""
    if isinstance(value, GradedDims):
        return value.as_list()
    if isinstance(value, PoincareSeries):
        return value.coeffs
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _record_json(v) for name, v in zip(value._fields, value)}
    if isinstance(value, tuple):
        return [_record_json(v) for v in value]
    return value


def _report_json(rep: ActionReport) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "command": "circle",
        "name": rep.name,
        "variant": rep.variant,
        "max_degree": rep.max_degree,
        "betti": {
            "total": rep.betti_total.as_list(),
            "fixed": rep.betti_fixed.as_list() if rep.betti_fixed else None,
            "borel": rep.betti_borel.as_list() if rep.betti_borel else None,
        },
        "total": _model_json(rep.total),
        "fixed": _model_json(rep.fixed) if rep.fixed else None,
        "notes": list(rep.notes),
    }
    if rep.equivariant is not None:
        payload["equivariant"] = {
            "euler_class": rep.equivariant.euler_name,
            "window": rep.equivariant.window,
            "betti": rep.equivariant.betti.as_list(),
            "generators": _generators_json(rep.equivariant.module),
        }
    if rep.les is not None:
        payload["les"] = {
            "ok": rep.les.ok,
            "top": rep.les.table.top,
            "rows": [list(row) for row in rep.les.table.rows],
            "failures": list(rep.les.failures),
        }
    sections = {
        "shared_basis": rep.shared_basis,
        "extension_of_scalars": rep.scalars,
        "poincare": rep.poincare,
        "formality": rep.formality,
        "localization": rep.localization,
        "dimc": rep.dimc,
        "almost_free": rep.almost_free,
        "naive": rep.naive,
        "smith_gysin": rep.smith_gysin,
    }
    payload.update((key, _record_json(record)) for key, record in sections.items() if record)
    if rep.naive is not None:
        payload["naive"]["ring"] = [
            {
                "left": [e.left_degree, e.left_index],
                "right": [e.right_degree, e.right_index],
                "coords": [str(c) for c in e.coords],
            }
            for e in rep.naive.ring
        ]
    return payload


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


def _render_circle(rep: ActionReport, source: dict[str, str]) -> list[str]:
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
            degs = ", ".join(str(d) for d in (nv.sphere_degrees or ()))
            details.append(f"wedge of spheres in degrees {degs}")
        head = f"{'ok' if nv.ok else 'FAIL'} (window {nv.window})"
        lines += _verdict_lines("naive product", head, details, nv.failures)
    for s in rep.smith_gysin:
        head = f"{s.verdict}: {s.relative_term} + {s.fixed_sum} <= {s.total_sum}"
        lines += _verdict_lines(f"smith-gysin r={s.r}", head, [s.reason] if s.reason else ())

    if rep.notes:
        lines += ["", "notes", *(f"  {note}" for note in rep.notes)]
    return lines


def cmd_circle(doc: InputDocument, max_degree: int, source: dict[str, str], fmt: str) -> int:
    if doc.action is None:
        raise ValidationError("document has no action section")
    from .circle import action_report

    rep = action_report(doc.action, max_degree)
    inconclusive = rep.localization.verdict == "inconclusive" or any(
        s.verdict == "inconclusive" for s in rep.smith_gysin
    )
    if fmt == "machine":
        _write(dump_json(_report_json(rep)))
    else:
        _write("\n".join(_render_circle(rep, source)) + "\n")
    return 3 if inconclusive else 0


# ---- export ---------------------------------------------------------------------


def _export_payload(doc: InputDocument, max_degree: int, what: str) -> tuple[dict, DgModule | None, str]:
    if what == "document":
        return document_json(doc), None, ""
    if doc.action is None:
        raise ValidationError(f"export of {what!r} needs an action section")
    data = doc.action
    algebra = data.algebra
    if what == "relative":
        module = doc.assembled.relative.module if doc.assembled else data.relative_model
    elif what == "total":
        module = _ActionPipeline(data, max_degree).total.module
    elif what == "fixed":
        module = _ActionPipeline(data, max_degree).fixed.module
    else:
        em = _ActionPipeline(data, max_degree).borel[0]
        algebra, module = em.algebra, em.module
    noun = "borel" if what == "equivariant" else what
    title = f"{doc.name or data.name or 'action'} {noun} model"
    return model_document(title, algebra, module, what, max_degree), module, what


def cmd_export(
    doc: InputDocument,
    max_degree: int,
    source: dict[str, str],
    fmt: str,
    what: str,
    output: str | None,
) -> int:
    payload, module, module_name = _export_payload(doc, max_degree, what)
    text = dump_json(payload)

    reloaded = loads_document(text)
    if module is not None:
        if not modules_equal(reloaded.modules[module_name], module):
            raise ValidationError("export round-trip produced a different module")
    else:
        if dump_json(document_json(reloaded)) != text:
            raise ValidationError("export round-trip produced a different document")

    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {output}: {exc.strerror}") from None
        size = len(text.encode())
        if fmt == "machine":
            summary = {
                "command": "export",
                "source": source,
                "what": what,
                "path": output,
                "bytes": size,
                "round_trip": "ok",
            }
            _write(dump_json(summary))
        else:
            _write(f"wrote {output} ({size} bytes, round-trip verified)\n")
        return 0
    _write(text)
    return 0


# ---- entry ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation problems: exit 1, not argparse's 2.
    Help goes through the command-output writer."""

    def print_help(self, file=None):
        _write(self.format_help())

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dgmodels",
        description="Minimal models of dg modules and circle-action reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fixtures = sorted(FIXTURES)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", metavar="PATH", help="JSON input document")
        p.add_argument(
            "--fixture", choices=fixtures, help="bundled dataset instead of --input"
        )
        p.add_argument(
            "--max-degree",
            type=int,
            default=None,
            metavar="N",
            help=f"certification window (default {DEFAULT_DEGREE})",
        )
        p.add_argument(
            "--format", choices=("text", "machine"), default="text", dest="fmt",
            help="human-readable text or canonical JSON",
        )

    p = sub.add_parser("verify", help="structural checks on every declared object")
    common(p)
    p = sub.add_parser("minmodel", help="minimal model of one module")
    common(p)
    p.add_argument("--target", metavar="NAME", default=None, help="module to model")
    p = sub.add_parser("circle", help="full circle-action report")
    common(p)
    p = sub.add_parser("export", help="canonical JSON of the document or a computed model")
    common(p)
    p.add_argument(
        "--what",
        choices=("document", "relative", "total", "fixed", "equivariant"),
        default="document",
        help="which object to export",
    )
    p.add_argument("--output", metavar="PATH", default=None, help="write here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.max_degree is not None and args.max_degree < 0:
            raise ValidationError("--max-degree must be nonnegative")
        doc, max_degree, source = _resolve_input(args)
        if args.command == "verify":
            return cmd_verify(doc, max_degree, source, args.fmt)
        if args.command == "minmodel":
            return cmd_minmodel(doc, max_degree, source, args.fmt, args.target)
        if args.command == "circle":
            return cmd_circle(doc, max_degree, source, args.fmt)
        return cmd_export(doc, max_degree, source, args.fmt, args.what, args.output)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except InconclusiveWindowError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
