"""JSON document parsing, normalization, and deterministic export."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmodels.dgmodule import modules_equal, tabulate
from dgmodels.errors import ValidationError, shown
from dgmodels.io import (
    document_json,
    dump_json,
    load_document,
    loads_document,
    model_document,
    parse_rational,
    rational_str,
)
from dgmodels.linalg import Q

S2_DOC = """
{
  "name": "two-sphere",
  "algebra": {
    "generators": [["u", 2], ["v", 3]],
    "differentials": {"v": "u^2"}
  },
  "options": {"max_degree": 10}
}
"""

MODULE_DOC = """
{
  "algebra": {"generators": [["a", 3]], "cap": 13},
  "modules": {
    "M": {
      "generators": [["b0", 1], ["b1", 3], ["b2", 3]],
      "differentials": {"b2": {"b0": "a"}},
      "cap": 12
    }
  },
  "maps": {
    "e": {"source": "M", "target": "A", "degree": 2, "images": {"b0": "a"}},
    "i": {"source": "M", "target": "A", "degree": 0, "images": {"b1": "a"}}
  },
  "action": {
    "relative_model": "M",
    "i_prime": "i",
    "e_prime": "e",
    "fixed_components": 2
  }
}
"""


# ---- scalars --------------------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational(3, "x") == Q(3)
    assert parse_rational("3/4", "x") == Q(3, 4)
    assert parse_rational("-2/5", "x") == Q(-2, 5)
    for bad in (True, 1.5, "abc", "1/0", None):
        with pytest.raises(ValidationError):
            parse_rational(bad, "x")


def test_shown_values_are_cut_after_forty_characters():
    short = [None, 1.5, -3, True, "", "b" * 40, [], [["b", 2], {"c": [1, "2/3"]}], {"k": "v"}]
    for value in short:
        assert shown(value) == repr(value)
    assert shown("x" * 41) == repr("x" * 40 + "...")
    assert shown([0] * 10**6) == "[" + "0, " * 13 + "..."
    assert shown({"k" * 50: 1}) == "{'" + "k" * 38 + "..."
    assert shown([[[[0] * 20]]]) == repr([[[[0] * 20]]])[:40] + "..."


def test_matrix_shape_is_checked_before_its_entries():
    # a row of a million entries used to be parsed entry by entry before
    # its length was compared with the shape
    doc = {
        "algebra": {"generators": [["u", 2]], "cap": 4},
        "modules": {"M": {"generators": [["b", 0]], "cap": 4}},
        "maps": {"f": {"source": "M", "target": "A", "degree": 0,
                       "matrices": {"0": [["x"] * 10**6]}}},
    }
    with pytest.raises(ValidationError, match=r"matrix shape \(1, 1000000\)"):
        loads_document(json.dumps(doc))


def test_rational_str_is_reduced():
    assert rational_str(Q(3)) == "3"
    assert rational_str(Q(-3, 4)) == "-3/4"
    assert rational_str(Q(2, 4)) == "1/2"


def test_dump_json_is_canonical():
    payload = {"b": 1, "a": [1, 2]}
    text = dump_json(payload)
    assert text.endswith("\n")
    assert text == dump_json({"a": [1, 2], "b": 1})
    assert json.loads(text) == payload


def canonical(payload):
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# keys and strings with non-ASCII, quotes, backslashes and control characters
TEXT = st.text(
    st.sampled_from(["a", "Z", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                     "\u00e9", "\u2028", "\ud800", "\U0001f600"]),
    max_size=6,
)
BIG = st.integers(2**64, 2**200)
SCALARS = st.none() | st.booleans() | st.integers() | BIG | BIG.map(lambda n: -n) | TEXT
PLAIN = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60, deadline=None)
@given(PLAIN)
def test_dump_json_is_json_dumps_on_plain_payloads(payload):
    assert dump_json(payload) == canonical(payload)


@pytest.mark.parametrize(
    "payload",
    [
        1.5,
        {"x": [1, 0.25]},
        (1, 2),
        {"a": [(3, "b")]},
        {1: "int key"},
        [{"k": -0.0}],
        {"a": {"b": float("inf")}},
    ],
)
def test_dump_json_hands_other_payloads_to_json_dumps(payload):
    assert dump_json(payload) == canonical(payload)


def test_dump_json_rejects_what_json_dumps_rejects():
    for payload in ({1: "a", "b": 2}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            canonical(payload)
        with pytest.raises(TypeError):
            dump_json(payload)


# ---- documents ------------------------------------------------------------------


def test_algebra_document_parses():
    doc = loads_document(S2_DOC)
    assert doc.name == "two-sphere"
    assert doc.algebra.names == ("u", "v")
    assert doc.max_degree() == 10
    assert doc.max_degree(6) == 6


def test_max_degree_default_is_twelve():
    doc = loads_document('{"algebra": {"generators": [["u", 2]]}}')
    assert doc.max_degree() == 12
    assert doc.algebra.cap == 14


def test_module_and_map_parsing():
    doc = loads_document(MODULE_DOC)
    m = doc.modules["M"]
    assert m.gen_degrees == (1, 3, 3)
    e = doc.maps["e"]
    assert e.degree == 2
    assert e.verify().ok
    # both maps share the one canonical rank-one module for "A"
    assert doc.maps["e"].target is doc.maps["i"].target
    assert doc.action is not None
    assert doc.action.fixed_components == 2
    assert doc.action.validate().ok


def test_matrices_map_form():
    text = """
    {
      "algebra": {"generators": [["a", 3]], "cap": 8},
      "modules": {"M": {"generators": [["x", 0]], "cap": 6}},
      "maps": {
        "f": {"source": "M", "target": "M", "degree": 0,
              "matrices": {"0": [["2"]], "3": [["2"]]}}
      }
    }
    """
    doc = loads_document(text)
    f = doc.maps["f"]
    assert f.matrix(0).data == ((Q(2),),)
    assert f.verify().ok


def test_tabulated_module_form():
    text = """
    {
      "algebra": {"generators": [["a", 3]], "cap": 8},
      "modules": {
        "T": {
          "tabulated": true,
          "cap": 4,
          "labels": {"0": ["x"], "1": ["y"], "3": ["ax"], "4": ["ay"]},
          "differentials": {"0": [["1"]], "3": [["1"]]},
          "action": {"3,0": [["1"]], "3,1": [["1"]]}
        }
      }
    }
    """
    doc = loads_document(text)
    t = doc.modules["T"]
    assert t.dim(0) == 1 and t.dim(2) == 0
    assert t.differential_matrix(0).data == ((Q(1),),)


# ---- validation errors ----------------------------------------------------------


def test_invalid_json_reports_position():
    with pytest.raises(ValidationError) as exc:
        loads_document("{\n  \"name\": oops\n}")
    assert "line 2" in str(exc.value)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError) as exc:
        loads_document('{"algebra": {"generators": []}, "extra": 1}')
    assert "extra" in str(exc.value)


def test_unknown_module_reference():
    text = """
    {
      "algebra": {"generators": [["a", 3]]},
      "maps": {"f": {"source": "B", "target": "A", "degree": 0}}
    }
    """
    with pytest.raises(ValidationError) as exc:
        loads_document(text)
    assert "unknown module" in str(exc.value)


def test_action_requires_one_form():
    base = {
        "algebra": {"generators": [["a", 3]]},
        "modules": {"M": {"generators": [["b", 1]]}},
        "action": {},
    }
    with pytest.raises(ValidationError) as exc:
        loads_document(json.dumps(base))
    assert "either" in str(exc.value)


def test_image_outside_window_must_vanish():
    text = """
    {
      "algebra": {"generators": [["a", 3]], "cap": 6},
      "modules": {"M": {"generators": [["x", 5]], "cap": 6}},
      "maps": {
        "f": {"source": "M", "target": "A", "degree": 3, "images": {"x": "a"}}
      }
    }
    """
    with pytest.raises(ValidationError) as exc:
        loads_document(text)
    assert "outside the target window" in str(exc.value)


def test_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_document(str(tmp_path / "absent.json"))
    assert "cannot read" in str(exc.value)


# ---- round trips ----------------------------------------------------------------


def test_document_round_trip_is_stable():
    doc = loads_document(MODULE_DOC)
    text1 = dump_json(document_json(doc))
    doc2 = loads_document(text1)
    text2 = dump_json(document_json(doc2))
    assert text1 == text2
    assert modules_equal(doc.modules["M"], doc2.modules["M"])
    assert doc2.action is not None


def test_model_document_reimports_equal_module():
    doc = loads_document(MODULE_DOC)
    m = doc.modules["M"]
    bundle = model_document("bundle", doc.algebra, m, "M", 12)
    doc2 = loads_document(dump_json(bundle))
    assert modules_equal(m, doc2.modules["M"])


def test_tabulated_round_trip():
    from dgmodels.io import module_json

    doc = loads_document(MODULE_DOC)
    t = tabulate(doc.modules["M"])
    payload = {
        "algebra": {"generators": [["a", 3]], "cap": 13},
        "modules": {"T": module_json(t)},
    }
    doc2 = loads_document(dump_json(payload))
    assert modules_equal(t, doc2.modules["T"])


def test_complexes_action_assembles():
    # orbit complex given as a tabulation stand-in: a quasi-iso from the
    # algebra, plus inclusion and euler maps out of a shared relative complex
    from dgmodels.circle import model_of_total_space
    from dgmodels.fixtures import fixture
    from dgmodels.io import map_json, module_json

    s4 = fixture("s4_hopf", 8)
    payload = {
        "name": "s4-complexes",
        "algebra": {"generators": [["a", 3]], "cap": 14},
        "modules": {
            "M": module_json(s4.relative_model),
            "X": {"generators": [["x0", 0]], "cap": 14},
        },
        "maps": {
            "rho": {
                "source": "A",
                "target": "X",
                "degree": 0,
                "matrices": {"0": [["1"]], "3": [["1"]]},
            },
            "i": map_json(s4.i_prime, "M", "X"),
            "e": map_json(s4.e_prime, "M", "X"),
        },
        "action": {
            "orbit_quis": "rho",
            "inclusion": "i",
            "euler": "e",
            "fixed_components": 2,
        },
        "options": {"max_degree": 8},
    }
    doc = loads_document(dump_json(payload))
    assert doc.action.relative_model is not doc.modules["M"]
    assert doc.action.validate().ok
    total = model_of_total_space(doc.action, 8)
    assert [total.betti_model.get(n) for n in range(6)] == [1, 0, 0, 0, 1, 0]
    # the action section re-exports verbatim so a round trip re-assembles
    assert document_json(doc)["action"] == payload["action"]
