"""End-to-end command-line checks run through a subprocess."""

import json
import os
import subprocess
import sys

import pytest

from dgmodels.errors import ValidationError

CLI = [sys.executable, "-m", "dgmodels.cli"]

INCONCLUSIVE_DOC = """
{
  "name": "window-too-small",
  "algebra": {"generators": [["u", 2]], "cap": 6},
  "modules": {
    "M": {"generators": [["b", 2]], "cap": 5}
  },
  "maps": {
    "i": {"source": "M", "target": "A", "degree": 0, "images": {"b": "u"}},
    "e": {"source": "M", "target": "A", "degree": 2, "images": {"b": "u^2"}},
    "w": {"source": "M", "target": "M", "degree": 2, "images": {"b": {"b": "u"}}}
  },
  "action": {
    "relative_model": "M",
    "i_prime": "i",
    "e_prime": "e",
    "euler_self_map": "w",
    "fixed_components": 1
  },
  "options": {"max_degree": 2}
}
"""

# cp2's relative model over a rational 2-sphere: the base has dv = u^2 and
# both structure maps vanish, so the naive product meets the base's own d
NAIVE_OVER_DIFFERENTIAL_DOC = {
    "name": "cp2 over a rational 2-sphere",
    "algebra": {"generators": [["u", 2], ["v", 3]], "differentials": {"v": "u^2"}},
    "modules": {"M": {"generators": [["m1", 1], ["m3", 3]]}},
    "maps": {"i": {"source": "M", "target": "A", "degree": 0, "images": {}},
             "e": {"source": "M", "target": "A", "degree": 2, "images": {}}},
    "action": {"variant": "circle", "relative_model": "M", "i_prime": "i", "e_prime": "e"},
    "options": {"max_degree": 10},
}

ALMOST_FREE_VARIANT_DOC = {
    "algebra": {"generators": [["a", 3]]},
    "modules": {"M": {"generators": [["b0", 1], ["b1", 3], ["b2", 3]],
                      "differentials": {"b2": {"b0": "a"}}}},
    "maps": {"i": {"source": "M", "target": "A", "degree": 0, "images": {"b1": "a"}},
             "e": {"source": "M", "target": "A", "degree": 2, "images": {"b0": "a"}}},
    "action": {"variant": "almost_free", "relative_model": "M",
               "i_prime": "i", "e_prime": "e", "fixed_components": 2},
    "options": {"max_degree": 4},
}


def run(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120, **kwargs
    )


# ---- verify ---------------------------------------------------------------------


def test_verify_fixture_ok():
    res = run("verify", "--fixture", "cp2")
    assert res.returncode == 0
    assert "all checks passed" in res.stdout


def test_verify_machine_output_is_json():
    res = run("verify", "--fixture", "s4_hopf", "--format", "machine")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["ok"] is True
    assert payload["command"] == "verify"
    assert payload["source"] == {"fixture": "s4_hopf"}


def test_verify_empty_document(tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text("{}")
    res = run("verify", "--input", str(doc))
    assert res.returncode == 0
    assert "trivially valid" in res.stdout


# ---- minmodel -------------------------------------------------------------------


def test_minmodel_on_fixture_relative_model():
    res = run("minmodel", "--fixture", "cp2", "--max-degree", "8")
    assert res.returncode == 0
    assert "minimal" in res.stdout


def test_minmodel_machine_betti(tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {"generators": [["a", 3]], "cap": 10},
                "modules": {
                    "M": {
                        "generators": [["x", 0], ["y", 2]],
                        "differentials": {"y": {"x": "a"}},
                        "cap": 9,
                    }
                },
                "options": {"max_degree": 8},
            }
        )
    )
    res = run("minmodel", "--input", str(doc), "--format", "machine")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["command"] == "minmodel"
    # dy = a x kills [a x]; the surviving classes are [x] and [a y]
    betti = payload["model"]["betti_model"]
    assert betti == [1, 0, 0, 0, 0, 1, 0, 0, 0]
    assert betti == payload["model"]["betti_target"]


def test_minmodel_needs_target_when_ambiguous(tmp_path):
    doc = tmp_path / "two.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {"generators": [["a", 3]], "cap": 8},
                "modules": {
                    "M": {"generators": [["x", 0]], "cap": 6},
                    "N": {"generators": [["y", 1]], "cap": 6},
                },
            }
        )
    )
    res = run("minmodel", "--input", str(doc))
    assert res.returncode == 1
    assert "--target" in res.stderr
    res2 = run("minmodel", "--input", str(doc), "--target", "N", "--max-degree", "5")
    assert res2.returncode == 0


# ---- circle ---------------------------------------------------------------------


def test_circle_text_report_sections():
    res = run("circle", "--fixture", "s4_hopf")
    assert res.returncode == 0
    for needle in (
        "total-space model",
        "fixed-set model",
        "borel model",
        "long exact sequence",
        "shared basis",
        "poincare identities",
        "formality",
        "localization",
    ):
        assert needle in res.stdout, needle


def test_circle_machine_deterministic():
    first = run("circle", "--fixture", "cp2", "--format", "machine")
    second = run("circle", "--fixture", "cp2", "--format", "machine")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["naive"]["wedge_of_spheres"] is True


def test_circle_smith_gysin_rows():
    res = run("circle", "--fixture", "flow_s4")
    assert res.returncode == 0
    assert "smith-gysin" in res.stdout


def test_naive_product_is_leibniz_over_a_base_with_differential(tmp_path):
    doc = tmp_path / "naive.json"
    doc.write_text(json.dumps(NAIVE_OVER_DIFFERENTIAL_DOC))
    res = run("circle", "--input", str(doc), "--format", "machine")
    assert res.returncode == 0
    naive = json.loads(res.stdout)["naive"]
    assert naive["leibniz"] is True and naive["ok"] is True
    assert naive["failures"] == []
    # the two classes of H^2, u and m1, have a nonzero product in H^4
    assert {"left": [2, 0], "right": [2, 1], "coords": ["1", "0"]} in naive["ring"]


def test_circle_inconclusive_exit_three(tmp_path):
    doc = tmp_path / "inc.json"
    doc.write_text(INCONCLUSIVE_DOC)
    res = run("circle", "--input", str(doc))
    assert res.returncode == 3
    assert "inconclusive" in res.stdout


# ---- export ---------------------------------------------------------------------


def test_export_document_round_trip(tmp_path):
    out = tmp_path / "doc.json"
    res = run("export", "--fixture", "s4_hopf", "--output", str(out))
    assert res.returncode == 0
    assert "round-trip verified" in res.stdout
    res2 = run("verify", "--input", str(out))
    assert res2.returncode == 0


def test_export_total_model_then_minmodel(tmp_path):
    out = tmp_path / "total.json"
    res = run(
        "export", "--fixture", "s4_hopf", "--what", "total",
        "--max-degree", "8", "--output", str(out),
    )
    assert res.returncode == 0
    res2 = run("minmodel", "--input", str(out), "--format", "machine")
    assert res2.returncode == 0
    betti = json.loads(res2.stdout)["model"]["betti_model"]
    assert betti[0] == 1 and betti[4] == 1 and betti[2] == 0


def test_export_equivariant_stdout():
    res = run("export", "--fixture", "s4_hopf", "--what", "equivariant")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    names = [g[0] for g in payload["algebra"]["generators"]]
    assert "e" in names


def test_export_fixed_on_empty_fixed_set_is_precondition_error():
    res = run("export", "--fixture", "almost_free_hopf", "--what", "fixed")
    assert res.returncode == 2
    assert "precondition failed" in res.stderr


# ---- error handling -------------------------------------------------------------


def test_usage_errors_exit_one():
    assert run().returncode == 1
    assert run("circle").returncode == 1  # needs --input or --fixture
    assert run("frobnicate").returncode == 1
    res = run("verify", "--fixture", "nope")
    assert res.returncode == 1


def test_both_input_and_fixture_rejected(tmp_path):
    doc = tmp_path / "d.json"
    doc.write_text("{}")
    res = run("verify", "--input", str(doc), "--fixture", "cp2")
    assert res.returncode == 1
    assert "either" in res.stderr or "one of" in res.stderr


def test_bad_json_reports_line(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text('{\n  "algebra": oops\n}')
    res = run("verify", "--input", str(doc))
    assert res.returncode == 1
    assert "line 2" in res.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"name": ' + "1" * 5001 + "}", "too many digits"),
        ("[" * 100000 + "]" * 100000, "nested too deeply"),
    ],
    ids=["long_integer", "deep_arrays"],
)
def test_json_beyond_the_reader_is_one_error_line(tmp_path, text, message):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    res = run("verify", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "entry, message",
    [("1e10000000", "is not a rational p/q"), ("9" * 1300, "longer than 4096 bits")],
    ids=["exponent", "long_string"],
)
def test_unbounded_matrix_entry_is_one_error_line(tmp_path, entry, message):
    # exponent notation used to reach Fraction(str), which built the
    # 33-million-bit integer 10^10000000 over about ten seconds
    doc = tmp_path / "entry.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {"generators": [["u", 2]], "cap": 4},
                "modules": {"M": {"generators": [["b", 0]], "cap": 4}},
                "maps": {"f": {"source": "M", "target": "A", "degree": 0,
                               "matrices": {"0": [[entry]]}}},
            }
        )
    )
    res = subprocess.run(
        CLI + ["verify", "--input", str(doc)], capture_output=True, text=True, timeout=2
    )
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "module, message",
    [
        ({"generators": [[0] * 10**6]}, "bad generator entry [0, 0, 0"),
        ({"generators": [["b", 0]], "cap": 4}, "got [0, 0, 0"),
    ],
    ids=["generator_entry", "matrix_entry"],
)
def test_long_value_is_echoed_in_a_short_error_line(tmp_path, module, message):
    # the message used to hold the whole array, 3 MB of it
    entry = [0] * 10**6
    doc = tmp_path / "long_value.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {"generators": [["u", 2]], "cap": 4},
                "modules": {"M": module},
                "maps": {"f": {"source": "M", "target": "A", "degree": 0,
                               "matrices": {"0": [[entry]]}}},
            }
        )
    )
    res = run("verify", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 300, res.stderr[:300]
    assert lines[0].startswith("error: ") and message in lines[0]


LONG_KEY = "k" * 10**6
SMALL_ALGEBRA = {"generators": [["u", 2]], "cap": 4}


@pytest.mark.parametrize(
    "document, message",
    [
        ({"algebra": SMALL_ALGEBRA,
          "modules": {"M": {"tabulated": True, "cap": 2, "labels": {LONG_KEY: 0}}}},
         "labels at degree 'kkk"),
        ({"algebra": {**SMALL_ALGEBRA, "differentials": {LONG_KEY: 0}}}, "algebra: d('kkk"),
        ({"algebra": SMALL_ALGEBRA,
          "modules": {"M": {"generators": [["b", 0]], "differentials": {"b": {LONG_KEY: 0}}}}},
         "d('b') coefficient on 'kkk"),
        ({"algebra": SMALL_ALGEBRA,
          "modules": {"M": {"generators": [["b", 0]], "differentials": {LONG_KEY: 0}}}},
         "d('kkk"),
        ({"algebra": SMALL_ALGEBRA, "modules": {"M": {"generators": [[LONG_KEY, 0]]}},
          "maps": {"f": {"source": "M", "target": "A", "images": {LONG_KEY: 0}}}},
         "image of 'kkk"),
    ],
    ids=["labels", "algebra_differential", "free_coefficient", "free_differential", "image"],
)
def test_long_key_is_echoed_in_a_short_error_line(tmp_path, document, message):
    # the message used to hold the whole key, a megabyte of it
    doc = tmp_path / "long_key.json"
    doc.write_text(json.dumps(document))
    res = run("verify", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 300, res.stderr[:300]
    assert lines[0].startswith("error: ") and message in lines[0]


def test_missing_file_exits_one():
    res = run("verify", "--input", "/nonexistent/never.json")
    assert res.returncode == 1
    assert "cannot read" in res.stderr


def test_almost_free_is_not_a_variant(tmp_path):
    # almost free actions are circle actions with fixed_set_empty
    doc = tmp_path / "almost_free.json"
    doc.write_text(json.dumps(ALMOST_FREE_VARIANT_DOC))
    res = run("circle", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "unknown variant 'almost_free'" in lines[0]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("fixed_set_empty", "false", "'fixed_set_empty' must be true or false"),
        ("fixed_set_empty", 1.5, "'fixed_set_empty' must be true or false"),
        ("base_simply_connected", "no", "'base_simply_connected' must be true or false"),
        ("base_simply_connected", 0, "'base_simply_connected' must be true or false"),
        ("name", 7, "action: 'name' must be a string"),
    ],
    ids=["flag_string", "flag_float", "base_string", "base_int", "name_number"],
)
def test_action_field_of_the_wrong_type_is_one_error_line(tmp_path, field, value, message):
    # a truthy "false" used to read as true and silently skip the fixed-set sections
    doc = tmp_path / "action_field.json"
    action = {**NAIVE_OVER_DIFFERENTIAL_DOC["action"], field: value}
    doc.write_text(json.dumps({**NAIVE_OVER_DIFFERENTIAL_DOC, "action": action}))
    res = run("circle", "--input", str(doc), "--format", "machine")
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


def test_structure_map_wrong_off_its_generators_is_one_error_line(tmp_path):
    # i'(b) = u is right on the generator, but i'(u.b) must be u^2, not 2u^2
    doc = tmp_path / "not_linear.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {"generators": [["u", 2]], "cap": 6},
                "modules": {"M": {"generators": [["b", 2]], "cap": 5}},
                "maps": {
                    "i": {"source": "M", "target": "A", "degree": 0,
                          "matrices": {"2": [["1"]], "4": [["2"]]}},
                    "e": {"source": "M", "target": "A", "degree": 2, "images": {}},
                },
                "action": {"relative_model": "M", "i_prime": "i", "e_prime": "e",
                           "fixed_components": 1},
                "options": {"max_degree": 4},
            }
        )
    )
    res = run("circle", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "A-linearity fails for (|a|, |m|) = (2, 2)" in lines[0]


@pytest.mark.parametrize(
    "expr, message",
    [("u^1000000", "above cap"), ("-" * 100000 + "u", "nested too deeply")],
    ids=["huge_power", "deep_nesting"],
)
def test_unbounded_algebra_differential_is_one_error_line(tmp_path, expr, message):
    doc = tmp_path / "unbounded.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {
                    "generators": [["u", 2], ["v", 3]],
                    "differentials": {"v": expr},
                    "cap": 8,
                },
                "modules": {},
            }
        )
    )
    res = run("verify", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "expr",
    ["*".join(["9" * 4000] * 300) + "*u^2", "9" * 1300 + "*u^2"],
    ids=["long_product", "long_literal"],
)
def test_long_number_in_an_expression_is_one_error_line(tmp_path, expr):
    # a product of literals used to grow its coefficient without bound, in
    # time quadratic in the factor count; a literal was held only to the
    # interpreter's 4,300 digits
    doc = tmp_path / "long.json"
    doc.write_text(
        json.dumps(
            {
                "algebra": {
                    "generators": [["u", 2], ["v", 3]],
                    "differentials": {"v": expr},
                    "cap": 8,
                },
                "modules": {},
            }
        )
    )
    res = subprocess.run(
        CLI + ["verify", "--input", str(doc)], capture_output=True, text=True, timeout=2
    )
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "longer than 4096 bits" in lines[0]


@pytest.mark.parametrize("command, fixture", [("circle", "cp2"), ("minmodel", "s4_hopf")])
def test_oversized_window_is_one_error_line(command, fixture):
    # rejected from the generators' degrees before any basis is built; the
    # bound used to be the time it took to build window 100000
    res = subprocess.run(
        CLI + [command, "--fixture", fixture, "--max-degree", "100000"],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "over the budget of" in lines[0]


@pytest.mark.parametrize("fixture, window", [("s4_hopf", "1"), ("flow_s4", "0")])
def test_too_small_fixture_window_is_one_error_line(fixture, window):
    res = run("verify", "--fixture", fixture, "--max-degree", window)
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"error: fixture '{fixture}' needs max_degree >= 2"]


@pytest.mark.parametrize(
    "fixture, window, code, errors",
    [
        ("cp2", "1", 0, []),
        ("nonformal", "0", ValidationError.exit_code,
         ["error: degree window is empty; enlarge the caps"]),
    ],
)
def test_smallest_circle_windows(fixture, window, code, errors):
    # the fixed-set cone used to read the image of a relative-model generator
    # above the model's cap, and both runs ended on "map matrix at source
    # degree ... is above the window"
    res = run("circle", "--fixture", fixture, "--max-degree", window, "--format", "machine")
    assert res.returncode == code
    assert res.stderr.splitlines() == errors
    assert (res.stdout == "") == bool(errors)


def test_borel_budget_is_checked_before_the_first_stage():
    # cp2's own algebra and modules fit the budget at this window, but the
    # Borel algebra A (x) Lambda(e) does not; the bound used to be the time
    # it took to verify the structure maps and build the first stages
    res = subprocess.run(
        CLI + ["circle", "--fixture", "cp2", "--max-degree", "1000"],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "over the budget of" in lines[0]
    assert "Traceback" not in res.stderr


def test_structure_maps_are_budgeted_by_their_certificates():
    # validate certifies each structure map on its generator images, one
    # check per window degree and generator; counted as verify's O(window^2)
    # pairs, the budget rejected cp2 from window 140 on
    res = subprocess.run(
        CLI + ["circle", "--fixture", "cp2", "--max-degree", "300", "--format", "machine"],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["max_degree"] == 300


def test_algebra_check_budget_is_one_error_line(tmp_path):
    # nine degree-1 generators through cap 9: 263,167 algebra checks, which
    # ran for about two seconds before the algebra's checks were budgeted
    doc = tmp_path / "wide.json"
    gens = [[f"x{i}", 1] for i in range(9)]
    doc.write_text(json.dumps({"algebra": {"generators": gens, "cap": 9}}))
    res = run("verify", "--input", str(doc))
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: verifying the algebra takes 263167 checks")
    assert "over the budget of" in lines[0]


def test_verify_check_budget_is_one_error_line():
    # the window fits the basis budget, so only the check count bounds the
    # verifiers' work, which grows as the cube of the window
    res = subprocess.run(
        CLI + ["verify", "--fixture", "cp2", "--max-degree", "1000"],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert res.returncode == ValidationError.exit_code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "checks, over the budget of" in lines[0]


# ---- output that cannot be written ------------------------------------------

UNWRITABLE = [
    ["circle", "--fixture", "cp2"],
    ["circle", "--fixture", "cp2", "--format", "machine"],
    ["verify", "--fixture", "cp2"],
    ["minmodel", "--fixture", "cp2"],
    ["export", "--fixture", "cp2"],
    ["--help"],
]


def _assert_one_error_line(res):
    seen = f"exit code {res.returncode}, stderr {res.stderr!r}"
    assert res.returncode == ValidationError.exit_code, seen
    assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr, seen
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output"), seen


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    # unbuffered, the write itself fails; buffered, the flush at exit would
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        res = subprocess.run(
            CLI + argv, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env
        )
    finally:
        os.close(write_end)
    _assert_one_error_line(res)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
def test_full_device_is_one_error_line(argv):
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            CLI + argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120
        )
    _assert_one_error_line(res)
