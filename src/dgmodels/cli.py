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
gives its action as complexes, whose assembly runs the KS tower.  The
text renderer (`text`) loads only for --format text.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
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


# ---- machine rendering ----------------------------------------------------------


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
    else:
        from .text import render_verify

        _write("\n".join(render_verify(groups, ok, source, max_degree)) + "\n")
    return 0 if ok else ValidationError.exit_code


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
    else:
        from .text import render_minmodel

        _write("\n".join(render_minmodel(result, target, source, max_degree)) + "\n")
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
        from .text import render_circle

        _write("\n".join(render_circle(rep, source)) + "\n")
    return InconclusiveWindowError.exit_code if inconclusive else 0


# ---- export ---------------------------------------------------------------------


def _export_payload(doc: InputDocument, max_degree: int, what: str) -> tuple[dict, DgModule | None, str]:
    if what == "document":
        return document_json(doc), None, ""
    if doc.action is None:
        raise ValidationError(f"export of {what!r} needs an action section")
    data = doc.action
    algebra = data.algebra
    if what == "relative":
        module = data.relative_model
    elif what == "total":
        module = _ActionPipeline(data, max_degree).total.module
    elif what == "fixed":
        module = _ActionPipeline(data, max_degree).fixed.module
    else:
        em = _ActionPipeline(data, max_degree).borel
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
        raise SystemExit(ValidationError.exit_code)


@cache
def _parser() -> argparse.ArgumentParser:
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
        args = _parser().parse_args(argv)
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
        return exc.exit_code
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return exc.exit_code
    except InconclusiveWindowError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
