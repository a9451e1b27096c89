"""The command line on mutated documents: every run exits 0, 1, 2 or 3.

The six fixture documents are exported once at a small window.  Hypothesis
applies one to four mutations at random JSON paths (delete a key or an
item, change a value to another JSON type, replace an integer by 10^12 or
its negative, replace a string by a malformed expression or by a product of
300 literals of 4,000 digits, replace a number string by exponent notation,
replace a value by a 5,001-digit integer literal, by arrays nested 100,000
deep or by an array of 10^6 zeros) and runs
`cli.main` in this process for `verify`, `circle`, `minmodel` and `export`
in both formats.  Each run must return an exit code in {0, 1, 2, 3}
(`SystemExit` counts as its code), let no other exception escape, and end
within `CASE_SECONDS`.

Generated documents (free modules over small algebras, maps given by
generator images) are exported with `export --what document`, and the
export must be a fixed point of `loads_document` then `document_json`.
"""

import contextlib
import functools
import io
import itertools
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgmodels import cli
from dgmodels.fixtures import FIXTURES
from dgmodels.io import document_json, dump_json, loads_document

WINDOW = "6"
CASE_SECONDS = 5.0
COMMANDS = ("verify", "circle", "minmodel", "export")
MALFORMED = ("u^^2", "(((u", "u/0", "u^100000", "*".join(["9" * 4000] * 300) + "*u")
OTHER_TYPES = (None, True, 0, 1.5, "x", [], {})
EXPONENT = "1e10000000"
# JSON that json.dumps cannot write from Python values: each marker string is
# replaced by its raw text after the document is dumped
RAW = {
    "<long literal>": "9" * 5001,
    "<deep nesting>": "[" * 100_000 + "]" * 100_000,
    "<many zeros>": "[" + ",".join(["0"] * 10**6) + "]",
}


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@functools.cache
def _documents() -> dict[str, str]:
    docs = {}
    for name in sorted(FIXTURES):
        argv = ["export", "--fixture", name, "--max-degree", WINDOW, "--format", "machine"]
        code, text = _main(argv)
        assert code == 0
        docs[name] = text
    return docs


def _paths(node, prefix=()):
    """Every path below the root, as a tuple of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, data) -> None:
    kinds = ("delete", "retype", "big int", "malformed", "exponent", "raw")
    kind = data.draw(st.sampled_from(kinds))
    wanted = {"big int": int, "malformed": str, "exponent": str}.get(kind)
    paths = [p for p in _paths(doc) if wanted is None or type(_at(doc, p)) is wanted]
    if kind == "exponent":  # the number strings: matrix entries
        paths = [p for p in paths if _at(doc, p).lstrip("-").replace("/", "").isdigit()]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        others = [v for v in OTHER_TYPES if type(v) is not type(parent[key])]
        parent[key] = data.draw(st.sampled_from(others))
    elif kind == "big int":
        parent[key] = data.draw(st.sampled_from((10**12, -(10**12))))
    elif kind == "malformed":
        parent[key] = data.draw(st.sampled_from(MALFORMED))
    elif kind == "exponent":
        parent[key] = EXPONENT
    else:
        parent[key] = data.draw(st.sampled_from(sorted(RAW)))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_documents_exit_with_a_documented_code(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(FIXTURES)))
    doc = json.loads(_documents()[name])
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate(doc, data)
    text = json.dumps(doc)
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    path = tmp_path / "mutated.json"
    path.write_text(text)
    for command, fmt in itertools.product(COMMANDS, ("text", "machine")):
        start = time.perf_counter()
        code, _ = _main([command, "--input", str(path), "--format", fmt])
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), (command, fmt, code, doc)
        assert elapsed < CASE_SECONDS, (command, fmt, elapsed, doc)


# ---- export round trip ------------------------------------------------------------

ALGEBRAS = {
    "a3": {"generators": [["a", 3]], "cap": 8},
    "u2v3": {"generators": [["u", 2], ["v", 3]], "differentials": {"v": "u^2"}, "cap": 8},
    "e2f2": {"generators": [["e", 2], ["f", 2]], "cap": 8},
}
COEFFS = ("1", "-1", "2", "3/4", "-5/3")


@st.composite
def documents(draw) -> str:
    """A free module M over a small algebra, with d of its open generators
    hitting its closed ones, a map M -> A by plain images and a map M -> M
    by generator-keyed images, every expression homogeneous.  The
    coefficients of d are sums of cocycle monomials, so d^2 = 0."""
    raw_alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    alg = loads_document(json.dumps({"algebra": raw_alg})).algebra

    def expr(t: int, cocycle: bool = False) -> str:
        monos = alg.basis(t) if 0 <= t <= alg.cap else ()
        monos = [m for m in monos if not (cocycle and alg.d_mono(m))]
        if not monos:
            return "0"
        terms = draw(st.lists(st.tuples(st.sampled_from(COEFFS), st.sampled_from(monos)),
                              min_size=1, max_size=3))
        return " + ".join(f"{c}*{alg.mono_str(m)}" for c, m in terms)

    closed_degrees = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    closed = [(f"z{i}", d) for i, d in enumerate(closed_degrees)]
    opened = [(f"w{i}", d) for i, d in enumerate(draw(st.lists(st.integers(1, 5), max_size=2)))]
    gens = closed + opened
    diffs = {w: {z: expr(dw + 1 - dz, cocycle=True) for z, dz in closed} for w, dw in opened}
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    doc = {
        "name": "generated",
        "algebra": raw_alg,
        "modules": {"M": {"generators": [list(g) for g in gens], "differentials": diffs}},
        "maps": {
            "f": {"source": "M", "target": "A", "degree": p,
                  "images": {g: expr(d + p) for g, d in gens if draw(st.booleans())}},
            "g": {"source": "M", "target": "M", "degree": q,
                  "images": {g: {h: expr(d + q - dh) for h, dh in gens if draw(st.booleans())}
                             for g, d in gens}},
        },
        "options": {"max_degree": 6},
    }
    return json.dumps(doc)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=documents())
def test_document_export_is_a_fixed_point(tmp_path, text):
    path = tmp_path / "generated.json"
    path.write_text(text)
    code, out = _main(["export", "--input", str(path), "--what", "document"])
    assert code == 0, text
    assert dump_json(document_json(loads_document(out))) == out, text
