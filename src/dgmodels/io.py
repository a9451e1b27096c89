"""JSON input documents and deterministic machine export.

A document describes at most one Sullivan algebra, any number of modules
over it (free generator tables or tabulated complexes), named maps between
them, and optionally the wiring of circle-action basic data.  Rationals are
written as "p/q" strings or bare integers, and polynomial coefficients as
expressions in the generator names, so exported documents re-import to
equal objects.

Sections, all optional: "name", "algebra", "modules", "maps", "action",
"options".  The module name "A" may be used in maps without declaring it;
it resolves to the algebra acting on itself.  An action section either
names an already-minimal triple ("relative_model", "i_prime", "e_prime")
or tabulated stand-ins ("orbit_quis", "inclusion", "euler"), in which case
the relative model is computed on load.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping, NamedTuple

from .action import DEFAULT_DEGREE, VARIANTS, BasicData
from .cdga import MAX_COEFF_BITS, SullivanPresentation, parse_polynomial, trivial_algebra
from .dgmodule import (
    DgModule,
    DgModuleMap,
    FreeDgModule,
    TabulatedDgModule,
    algebra_module,
    map_from_generator_images,
)
from .errors import ValidationError, shown
from .linalg import RatMatrix, as_q

_DOC_KEYS = {"name", "algebra", "modules", "maps", "action", "options"}
_OPTION_KEYS = {"max_degree"}
_ALGEBRA_KEYS = {"generators", "differentials", "cap"}
_FREE_KEYS = {"generators", "differentials", "cap"}
_TABULATED_KEYS = {"tabulated", "cap", "labels", "differentials", "action"}
_MAP_KEYS = {"source", "target", "degree", "images", "matrices"}
_ACTION_COMMON = {
    "variant",
    "fixed_set_empty",
    "base_simply_connected",
    "fixed_components",
    "name",
}
_ACTION_TRIPLE = {"relative_model", "i_prime", "e_prime", "euler_self_map"}
_ACTION_COMPLEXES = {"orbit_quis", "inclusion", "euler"}
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
# decimal digits of 2^MAX_COEFF_BITS: a longer digit string is over the bound
# before int() spends time on it
_MAX_DIGITS = len(str(2**MAX_COEFF_BITS))


def rational_str(x: int | Fraction) -> str:
    if x.__class__ is int:
        return str(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(value: Any, where: str = "value") -> int | Fraction:
    """An integer, or a string of an integer or of p/q with q > 0, whose
    numerator and denominator are at most MAX_COEFF_BITS bits long."""
    if isinstance(value, bool):
        raise ValidationError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match is None:
            raise ValidationError(f"{where}: {shown(value)} is not a rational p/q")
        if any(len(digits.lstrip("+-0")) > _MAX_DIGITS for digits in match.groups("")):
            raise ValidationError(f"{where}: a rational longer than {MAX_COEFF_BITS} bits")
        value = Fraction(int(match[1]), int(match[2] or 1))
    elif not isinstance(value, int):
        raise ValidationError(f"{where}: expected an integer or 'p/q' string, got {shown(value)}")
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_COEFF_BITS:
        raise ValidationError(f"{where}: a rational longer than {MAX_COEFF_BITS} bits")
    return as_q(value)


class _NotPlain(Exception):
    """A value outside what the CLI emits: dicts with str keys, lists, str, int,
    bool and None."""


_ESCAPE = json.encoder.encode_basestring_ascii
_INT = {int}


def dump_json(payload: Any) -> str:
    """Canonical serialization: sorted keys, fixed separators, final newline.

    The same text as json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n", written in one pass for the payloads the CLI
    emits (json's encoder drops to pure Python whenever it indents).  Any
    other payload, say a float, a tuple or a non-str key, goes to json.dumps."""
    try:
        return _plain_json(payload, "\n") + "\n"
    except (_NotPlain, TypeError):
        # TypeError: sorted() met keys of mixed types, which json.dumps rejects too
        return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _plain_json(x: Any, nl: str) -> str:
    """The indented JSON text of x, whose lines begin with nl."""
    cls = x.__class__
    if cls is str:
        return _ESCAPE(x)
    if cls is int:
        return int.__repr__(x)
    if cls is list:
        if not x:
            return "[]"
        inner = nl + "  "
        # a list of ints, the bulk of a report, skips the call per item
        if {*map(type, x)} == _INT:
            items = map(int.__repr__, x)
        else:
            items = [_plain_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if cls is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        items = []
        for key in sorted(x):
            if key.__class__ is not str:
                raise _NotPlain
            items.append(_ESCAPE(key) + ": " + _plain_json(x[key], inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise _NotPlain


# ---- documents ----------------------------------------------------------------


class InputDocument(NamedTuple):
    """Parsed input: named objects plus optional circle-action wiring."""

    name: str
    algebra: SullivanPresentation | None
    modules: dict[str, DgModule]
    maps: dict[str, DgModuleMap]
    action: BasicData | None
    options: dict[str, Any]
    action_raw: dict[str, Any] | None

    def max_degree(self, override: int | None = None) -> int:
        if override is not None:
            return int(override)
        return int(self.options.get("max_degree", DEFAULT_DEGREE))


def _expect_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown key {shown(unknown[0])} (allowed: {sorted(allowed)})")


def _parse_generators(raw: Any, where: str) -> list[tuple[str, int]]:
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: 'generators' must be a list of [name, degree] pairs")
    out = []
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or isinstance(entry[1], bool)
            or not isinstance(entry[1], int)
        ):
            raise ValidationError(f"{where}: bad generator entry {shown(entry)}; want [name, degree]")
        out.append((entry[0], entry[1]))
    return out


def _parse_algebra(raw: Any, default_cap: int) -> SullivanPresentation:
    raw = _expect_mapping(raw, "algebra")
    _check_keys(raw, _ALGEBRA_KEYS, "algebra")
    gens = _parse_generators(raw.get("generators", []), "algebra")
    cap = raw.get("cap", default_cap)
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ValidationError("algebra: 'cap' must be an integer")
    diffs_raw = _expect_mapping(raw.get("differentials", {}), "algebra differentials")
    for name, expr in diffs_raw.items():
        if not isinstance(expr, str):
            raise ValidationError(f"algebra: d({shown(name)}) must be an expression string")
    # Two-phase build: the expression parser needs the generator namespace.
    shell = SullivanPresentation(gens, cap=cap)
    diffs = {name: parse_polynomial(shell, expr) for name, expr in diffs_raw.items()}
    return SullivanPresentation(gens, diffs, cap=cap)


def _parse_matrix(raw: Any, rows: int, cols: int, where: str) -> RatMatrix:
    if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
        raise ValidationError(f"{where}: expected a list of rows")
    if len(raw) != rows or any(len(r) != cols for r in raw):
        got = (len(raw), len(raw[0]) if raw else 0)
        raise ValidationError(f"{where}: matrix shape {got} does not match expected {(rows, cols)}")
    return RatMatrix(rows, cols, [[parse_rational(x, where) for x in row] for row in raw])


def _parse_tabulated(
    algebra: SullivanPresentation, raw: Mapping[str, Any], where: str
) -> TabulatedDgModule:
    _check_keys(raw, _TABULATED_KEYS, where)
    cap = raw.get("cap")
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ValidationError(f"{where}: tabulated modules need an integer 'cap'")
    labels: dict[int, tuple[str, ...]] = {}
    for key, ls in _expect_mapping(raw.get("labels", {}), f"{where} labels").items():
        if not isinstance(ls, list) or any(not isinstance(s, str) for s in ls):
            raise ValidationError(
                f"{where}: labels at degree {shown(key)} must be a list of strings"
            )
        labels[_parse_int_key(key, f"{where} labels")] = tuple(ls)

    def dim(k: int) -> int:
        return len(labels.get(k, ()))

    d_mats = {}
    for key, m in _expect_mapping(raw.get("differentials", {}), f"{where} differentials").items():
        k = _parse_int_key(key, f"{where} differentials")
        d_mats[k] = _parse_matrix(m, dim(k + 1), dim(k), f"{where}: d at degree {k}")
    act_mats = {}
    for key, m in _expect_mapping(raw.get("action", {}), f"{where} action").items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{where}: action key {shown(key)} must look like 'i,k'")
        i = _parse_int_key(parts[0], f"{where} action")
        k = _parse_int_key(parts[1], f"{where} action")
        act_mats[(i, k)] = _parse_matrix(
            m, dim(i + k), algebra.dim(i) * dim(k), f"{where}: action at ({i}, {k})"
        )
    return TabulatedDgModule(algebra, cap, labels, d_mats, act_mats)


def _parse_int_key(key: str, where: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValidationError(f"{where}: key {shown(key)} is not an integer") from None


def _parse_free(
    algebra: SullivanPresentation, raw: Mapping[str, Any], where: str
) -> FreeDgModule:
    _check_keys(raw, _FREE_KEYS, where)
    gens = _parse_generators(raw.get("generators", []), where)
    cap = raw.get("cap", algebra.cap)
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ValidationError(f"{where}: 'cap' must be an integer")
    diffs_raw = _expect_mapping(raw.get("differentials", {}), f"{where} differentials")
    diffs: dict[str, dict[str, str]] = {}
    for gname, row in diffs_raw.items():
        d_where = f"{where}: d({shown(gname)})"
        row = _expect_mapping(row, d_where)
        for tgt, expr in row.items():
            if not isinstance(expr, str):
                raise ValidationError(
                    f"{d_where} coefficient on {shown(tgt)} must be an expression string"
                )
        diffs[gname] = dict(row)
    return FreeDgModule(algebra, gens, diffs, cap=cap)


def _parse_map(
    algebra: SullivanPresentation,
    resolve,
    raw: Mapping[str, Any],
    name: str,
) -> DgModuleMap:
    where = f"map {shown(name)}"
    raw = _expect_mapping(raw, where)
    _check_keys(raw, _MAP_KEYS, where)
    for field in ("source", "target"):
        if not isinstance(raw.get(field), str):
            raise ValidationError(f"{where}: missing module name under {field!r}")
    degree = raw.get("degree", 0)
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ValidationError(f"{where}: 'degree' must be an integer")
    source = resolve(raw["source"], where)
    target = resolve(raw["target"], where)
    if "images" in raw and "matrices" in raw:
        raise ValidationError(f"{where}: give either 'images' or 'matrices', not both")

    if "matrices" in raw:
        mats = {}
        for key, m in _expect_mapping(raw["matrices"], f"{where} matrices").items():
            k = _parse_int_key(key, f"{where} matrices")
            mats[k] = _parse_matrix(
                m, target.dim(k + degree), source.dim(k), f"{where}: matrix at degree {k}"
            )
        return DgModuleMap(source, target, degree, mats, name=name)

    if not isinstance(source, FreeDgModule):
        raise ValidationError(f"{where}: generator images need a free source module")
    images = {}
    for gname, value in _expect_mapping(raw.get("images", {}), f"{where} images").items():
        gi = source.gen_index(gname)
        t = source.gen_degrees[gi] + degree
        image_of = f"{where}: image of {shown(gname)}"
        if isinstance(value, str):
            row = {0: value}
            if not (
                isinstance(target, FreeDgModule)
                and target.gen_count == 1
                and target.gen_degrees == (0,)
            ):
                raise ValidationError(
                    f"{where}: plain-expression image of {shown(gname)} needs a rank-one "
                    "degree-zero target; use the {generator: expression} form"
                )
        else:
            value = _expect_mapping(value, image_of)
            if not isinstance(target, FreeDgModule):
                raise ValidationError(
                    f"{where}: generator-keyed images need a free target module"
                )
            row = {target.gen_index(str(h)): expr for h, expr in value.items()}
        comb = {}
        for j, expr in row.items():
            if not isinstance(expr, str):
                raise ValidationError(f"{image_of} must use expression strings")
            poly = parse_polynomial(algebra, expr)
            if poly:
                comb[j] = poly
        if not 0 <= t <= target.cap:
            if comb:
                raise ValidationError(f"{image_of} lands in degree {t}, outside the target window")
            continue
        images[gname] = target.combination_vector(comb, t)
    return map_from_generator_images(source, target, degree, images, name=name)


def _parse_action(
    doc_name: str,
    algebra: SullivanPresentation,
    modules: Mapping[str, DgModule],
    maps: Mapping[str, DgModuleMap],
    raw: Mapping[str, Any],
    max_degree: int,
) -> BasicData:
    raw = _expect_mapping(raw, "action")
    triple = _ACTION_TRIPLE & set(raw)
    complexes = _ACTION_COMPLEXES & set(raw)
    if triple and complexes:
        raise ValidationError("action: mixes the minimal-triple and complexes forms")
    if not triple and not complexes:
        raise ValidationError(
            "action: needs either relative_model/i_prime/e_prime or orbit_quis/inclusion/euler"
        )

    variant = raw.get("variant", "circle")
    if variant not in VARIANTS:
        raise ValidationError(f"action: unknown variant {shown(variant)}; expected one of {VARIANTS}")
    fixed_set_empty = raw.get("fixed_set_empty", False)
    base_sc = raw.get("base_simply_connected", True)
    for key, value in (("fixed_set_empty", fixed_set_empty), ("base_simply_connected", base_sc)):
        if not isinstance(value, bool):
            raise ValidationError(f"action: {key!r} must be true or false")
    fixed_components = raw.get("fixed_components")
    if fixed_components is not None and (
        isinstance(fixed_components, bool) or not isinstance(fixed_components, int)
    ):
        raise ValidationError("action: 'fixed_components' must be an integer")
    action_name = raw.get("name", doc_name)
    if not isinstance(action_name, str):
        raise ValidationError("action: 'name' must be a string")

    def named_map(key: str) -> DgModuleMap:
        value = raw.get(key)
        if not isinstance(value, str) or value not in maps:
            raise ValidationError(f"action: {key!r} must name a declared map")
        return maps[value]

    if complexes:
        _check_keys(raw, _ACTION_COMPLEXES | _ACTION_COMMON, "action")
        from .minmodel import from_complexes

        return from_complexes(
            named_map("orbit_quis"),
            named_map("inclusion"),
            named_map("euler"),
            max_degree=max_degree,
            fixed_set_empty=fixed_set_empty,
            variant=variant,
            base_simply_connected=base_sc,
            fixed_components=fixed_components,
            name=action_name,
        )

    _check_keys(raw, _ACTION_TRIPLE | _ACTION_COMMON, "action")
    rm_name = raw.get("relative_model")
    if not isinstance(rm_name, str) or rm_name not in modules:
        raise ValidationError("action: 'relative_model' must name a declared module")
    relative = modules[rm_name]
    if not isinstance(relative, FreeDgModule):
        raise ValidationError("action: the relative model must be a free module table")
    euler_self = None
    if raw.get("euler_self_map") is not None:
        euler_self = named_map("euler_self_map")
    return BasicData(
        algebra=algebra,
        relative_model=relative,
        i_prime=named_map("i_prime"),
        e_prime=named_map("e_prime"),
        fixed_set_empty=fixed_set_empty,
        variant=variant,
        euler_self_map=euler_self,
        base_simply_connected=base_sc,
        fixed_components=fixed_components,
        name=action_name,
    )


def loads_document(text: str, max_degree: int | None = None) -> InputDocument:
    """Parses a JSON input document; max_degree overrides the document option."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"input is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ValidationError("input has an integer literal with too many digits") from None
    except RecursionError:
        raise ValidationError("input is nested too deeply") from None
    raw = _expect_mapping(raw, "document")
    _check_keys(raw, _DOC_KEYS, "document")

    options = _expect_mapping(raw.get("options", {}), "options")
    _check_keys(options, _OPTION_KEYS, "options")
    if "max_degree" in options:
        md = options["max_degree"]
        if isinstance(md, bool) or not isinstance(md, int) or md < 0:
            raise ValidationError("options: 'max_degree' must be a nonnegative integer")
    resolved_n = (
        int(max_degree)
        if max_degree is not None
        else int(options.get("max_degree", DEFAULT_DEGREE))
    )

    name = raw.get("name", "")
    if not isinstance(name, str):
        raise ValidationError("document: 'name' must be a string")

    algebra: SullivanPresentation | None = None
    if "algebra" in raw:
        algebra = _parse_algebra(raw["algebra"], default_cap=resolved_n + 2)
    elif any(key in raw for key in ("modules", "maps", "action")):
        algebra = trivial_algebra(resolved_n + 2)

    modules: dict[str, DgModule] = {}
    for mod_name, entry in _expect_mapping(raw.get("modules", {}), "modules").items():
        where = f"module {shown(mod_name)}"
        entry = _expect_mapping(entry, where)
        if entry.get("tabulated"):
            modules[mod_name] = _parse_tabulated(algebra, entry, where)
        else:
            modules[mod_name] = _parse_free(algebra, entry, where)

    canonical_a: list[DgModule] = []

    def resolve(mod_name: str, where: str) -> DgModule:
        if mod_name in modules:
            return modules[mod_name]
        if mod_name == "A":
            if not canonical_a:
                canonical_a.append(algebra_module(algebra, cap=algebra.cap))
            return canonical_a[0]
        raise ValidationError(f"{where}: unknown module {shown(mod_name)}")

    maps: dict[str, DgModuleMap] = {}
    for map_name, entry in _expect_mapping(raw.get("maps", {}), "maps").items():
        maps[map_name] = _parse_map(algebra, resolve, entry, map_name)

    action = action_raw = None
    if "action" in raw:
        action = _parse_action(
            name, algebra, modules, maps, raw["action"], resolved_n
        )
        action_raw = dict(_expect_mapping(raw["action"], "action"))

    return InputDocument(
        name=name,
        algebra=algebra,
        modules=modules,
        maps=maps,
        action=action,
        options=dict(options),
        action_raw=action_raw,
    )


def load_document(path: str, max_degree: int | None = None) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    return loads_document(text, max_degree=max_degree)


# ---- export -------------------------------------------------------------------


def algebra_json(algebra: SullivanPresentation) -> dict[str, Any]:
    diffs = {
        name: algebra.poly_str(algebra.differentials[i])
        for i, name in enumerate(algebra.names)
        if algebra.differentials[i]
    }
    payload: dict[str, Any] = {
        "generators": [[name, deg] for name, deg in zip(algebra.names, algebra.degrees)],
        "cap": algebra.cap,
    }
    if diffs:
        payload["differentials"] = diffs
    return payload


def module_json(module: DgModule) -> dict[str, Any]:
    if isinstance(module, FreeDgModule):
        alg = module.algebra
        diffs: dict[str, dict[str, str]] = {}
        for i, comb in enumerate(module.gen_diffs):
            if comb:
                diffs[module.gen_names[i]] = {
                    module.gen_names[j]: alg.poly_str(poly) for j, poly in comb.items()
                }
        payload: dict[str, Any] = {
            "generators": [
                [name, deg] for name, deg in zip(module.gen_names, module.gen_degrees)
            ],
            "cap": module.cap,
        }
        if diffs:
            payload["differentials"] = diffs
        return payload
    assert isinstance(module, TabulatedDgModule)
    return {
        "tabulated": True,
        "cap": module.cap,
        "labels": {str(k): list(ls) for k, ls in module.labels.items()},
        "differentials": {str(k): matrix_json(m) for k, m in module.d_mats.items()},
        "action": {f"{i},{k}": matrix_json(m) for (i, k), m in module.act_mats.items()},
    }


def matrix_json(m: RatMatrix) -> list[list[str]]:
    return [[rational_str(x) for x in row] for row in m.to_lists()]


def map_json(f: DgModuleMap, source_name: str, target_name: str) -> dict[str, Any]:
    return {
        "source": source_name,
        "target": target_name,
        "degree": f.degree,
        "matrices": {str(k): matrix_json(m) for k, m in sorted(f.mats.items())},
    }


def document_json(doc: InputDocument) -> dict[str, Any]:
    """Normalized re-emission of a parsed document (maps become matrices)."""
    payload: dict[str, Any] = {}
    if doc.name:
        payload["name"] = doc.name
    if doc.algebra is not None:
        payload["algebra"] = algebra_json(doc.algebra)
    if doc.modules:
        payload["modules"] = {name: module_json(m) for name, m in doc.modules.items()}
    if doc.maps:
        names = {id(m): name for name, m in doc.modules.items()}

        def name_of(module: DgModule, where: str) -> str:
            if id(module) in names:
                return names[id(module)]
            if (
                isinstance(module, FreeDgModule)
                and module.gen_count == 1
                and module.gen_degrees == (0,)
            ):
                return "A"
            raise ValidationError(f"{where}: endpoint module is not part of the document")

        payload["maps"] = {
            name: map_json(f, name_of(f.source, name), name_of(f.target, name))
            for name, f in doc.maps.items()
        }
    if doc.action_raw is not None:
        payload["action"] = doc.action_raw
    if doc.options:
        payload["options"] = dict(doc.options)
    return payload


def model_document(
    name: str,
    algebra: SullivanPresentation,
    module: FreeDgModule,
    module_name: str,
    max_degree: int,
) -> dict[str, Any]:
    """Standalone importable document holding one computed model."""
    return {
        "name": name,
        "algebra": algebra_json(algebra),
        "modules": {module_name: module_json(module)},
        "options": {"max_degree": max_degree},
    }
