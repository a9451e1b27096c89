"""The command line on mutated documents: every run exits 0, 1, 2 or 3.

The six fixture documents are exported once at a small window.  Hypothesis
applies one to four mutations at random JSON paths (delete a key or an
item, change a value to another JSON type, replace an integer by 10^12 or
its negative, replace a string by a malformed expression, replace a number
string by exponent notation, replace a value by a 5,001-digit integer
literal or by arrays nested 100,000 deep) and runs
`cli.main` in this process for `verify`, `circle`, `minmodel` and `export`
in both formats.  Each run must return an exit code in {0, 1, 2, 3}
(`SystemExit` counts as its code), let no other exception escape, and end
within `CASE_SECONDS`.
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

WINDOW = "6"
CASE_SECONDS = 5.0
COMMANDS = ("verify", "circle", "minmodel", "export")
MALFORMED = ("u^^2", "(((u", "u/0", "u^100000")
OTHER_TYPES = (None, True, 0, 1.5, "x", [], {})
EXPONENT = "1e10000000"
# JSON that json.dumps cannot write from Python values: each marker string is
# replaced by its raw text after the document is dumped
RAW = {"<long literal>": "9" * 5001, "<deep nesting>": "[" * 100_000 + "]" * 100_000}


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
