"""The complexes form of an action gives the report of its minimal triple.

Each fixture's triple (A, M, i', e') is written back as a complexes-form
document and loaded, so the relative model, i' and e' are rebuilt by the KS
tower and transported.  The report on the loaded data must agree with the
report on the triple in every certified field:

- as it is: M is the relative model, X_B is A and orbit_quis the identity;
- with a contractible pair added to M;
- with X_B = A plus a contractible pair, and orbit_quis its inclusion.

Labels written with generator names compare once each model's relative
generators are renamed to one placeholder.  Three fields read generators
above the certified window even in the triple form, so they are left out:
dimc's fiber degrees and reasons, shared-basis rows past the fixed-set
window, and extension_of_scalars' generator count.  So are the generator
tables of the three models, which list those generators.

The other tests here hold the faults that assembly must reject: an orbit
map that is not a quasi-isomorphism, a structure map that is not a chain
map, and a homotopy that does not hold.
"""

import json
import re
from functools import lru_cache

import pytest

from dgmodels import minmodel
from dgmodels.circle import action_report
from dgmodels.cli import _report_json, main
from dgmodels.dgmodule import generator_image, map_from_generator_images
from dgmodels.errors import PreconditionError, ValidationError
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.io import algebra_json, dump_json, loads_document, module_json

WINDOWS = (12, 10)
FORMS = ("identity", "pair in M", "pair in X_B")


def _images(data, phi, target_gen):
    """phi's generator images as expressions, inside phi's window."""
    alg, m = data.algebra, data.relative_model
    out = {}
    for j, g in enumerate(m.gen_names):
        t = m.gen_degrees[j] + phi.degree
        if m.gen_degrees[j] in phi.window() and (vec := generator_image(phi, j)) and any(vec):
            expr = alg.poly_str(alg.vector_poly(vec, t))
            out[g] = expr if target_gen is None else {target_gen: expr}
    return out


def complexes_document(data, window, form="identity", pair=4):
    """The complexes-form document of a triple: X is the relative model, and
    orbit_quis maps A onto X_B; a contractible pair zp -> zq sits in degrees
    pair and pair + 1."""
    relative = module_json(data.relative_model)
    zpair = {"generators": [["zp", pair], ["zq", pair + 1]], "differentials": {"zp": {"zq": "1"}}}
    if form == "pair in M":
        relative["generators"] = relative["generators"] + zpair["generators"]
        relative["differentials"] = {**relative.get("differentials", {}), **zpair["differentials"]}
    modules = {"X": relative}
    if form == "pair in X_B":
        modules["XB"] = {
            "generators": [["x0", 0], *zpair["generators"]],
            "differentials": zpair["differentials"],
            "cap": data.algebra.cap,
        }
        target, unit = "XB", {"x0": "1"}
    else:
        target, unit = "A", "1"
    gen = "x0" if form == "pair in X_B" else None
    action = {"orbit_quis": "rho", "inclusion": "i", "euler": "e", "name": data.name}
    if data.variant != "circle":
        action["variant"] = data.variant
    if data.fixed_set_empty:
        action["fixed_set_empty"] = True
    if data.fixed_components is not None:
        action["fixed_components"] = data.fixed_components
    return {
        "name": data.name,
        "algebra": algebra_json(data.algebra),
        "modules": modules,
        "maps": {
            "rho": {"source": "A", "target": target, "degree": 0, "images": {"1": unit}},
            "i": {"source": "X", "target": target, "degree": 0,
                  "images": _images(data, data.i_prime, gen)},
            "e": {"source": "X", "target": target, "degree": data.e_prime.degree,
                  "images": _images(data, data.e_prime, gen)},
        },
        "action": action,
        "options": {"max_degree": window},
    }


def certified(data, window):
    """The report's certified fields, relative generator names made one."""
    payload = _report_json(action_report(data, window))
    for model in ("total", "fixed", "equivariant"):
        if payload.get(model):
            del payload[model]["generators"]
    for section, keys in (("dimc", ("total_fiber", "fixed_fiber", "reasons")),
                          ("extension_of_scalars", ("generators",))):
        for key in keys if section in payload else ():
            del payload[section][key]
    if "shared_basis" in payload:
        top = payload["fixed"]["window"]
        payload["shared_basis"]["rows"] = [r for r in payload["shared_basis"]["rows"] if r[0] <= top]
    names = sorted(data.relative_model.gen_names, key=len, reverse=True)
    word = re.compile(r"(?<![A-Za-z0-9_])(?:" + "|".join(map(re.escape, names)) + r")(?![A-Za-z0-9_])")
    return json.loads(word.sub("<m>", json.dumps(payload)))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_complexes_form_reports_as_the_triple(name, window, form):
    doc = loads_document(dump_json(complexes_document(fixture(name, window), window, form)))
    assert certified(doc.action, window) == triple_certified(name, window)


@lru_cache(maxsize=None)
def triple_certified(name, window):
    return certified(fixture(name, window), window)


def test_almost_free_hopf_assembles_in_complexes_form():
    # the empty fixed set has a degree-0 relative generator, which no
    # inclusion cone may shift below degree 0
    data = fixture("almost_free_hopf", 12)
    doc = loads_document(dump_json(complexes_document(data, 12)))
    assert doc.action.fixed_set_empty
    assert 0 in doc.action.relative_model.gen_degrees
    assert action_report(doc.action, 12).almost_free.ok


def test_relative_model_stops_where_its_certificate_does():
    data = fixture("s4_hopf", 12)
    assembled = loads_document(dump_json(complexes_document(data, 12))).action
    assert assembled.relative_model.cap == data.relative_model.cap == 13
    assert action_report(assembled, 12).poincare.through == 11


@pytest.mark.parametrize("window, rejected", [(11, True), (10, False)])
def test_orbit_certificate_reaches_one_degree_past_the_window(window, rejected):
    # X_B = A plus z with dz = u^6 lacks A's class in degree 12: one past
    # window 11, which the five lemma needs, and two past window 10
    data = fixture("nonformal", window)
    doc = complexes_document(data, window, "pair in X_B")
    doc["modules"]["XB"] = {"generators": [["x0", 0], ["z", 11]],
                            "differentials": {"z": {"x0": "u^6"}}, "cap": data.algebra.cap}
    if rejected:
        with pytest.raises(ValidationError, match="not a quasi-isomorphism.* degree 12"):
            loads_document(dump_json(doc))
    else:
        assert certified(loads_document(dump_json(doc)).action, window) == triple_certified("nonformal", window)


# ---- faults assembly rejects ---------------------------------------------------


def _s4_document(form, pair, modules=(), **images):
    """s4_hopf at window 8 in complexes form, with modules replaced and
    generator images added."""
    doc = complexes_document(fixture("s4_hopf", 8), 8, form, pair)
    doc["modules"].update(modules)
    for name, extra in images.items():
        doc["maps"][name]["images"].update(extra)
    return doc


# case -> (document, the exit code that the cone comparison gave)
FAULTS = {
    # H^2(X_B) gains a class that A lacks
    "orbit map not a quasi-isomorphism": (
        _s4_document("pair in X_B", 4, {"XB": {"generators": [["x0", 0], ["y", 2]], "cap": 14}}),
        1,
    ),
    # d(zp) = zq, i(zp) = 0 and i(zq) = a
    "inclusion not a chain map": (_s4_document("pair in M", 2, i={"zq": "a"}), 1),
    # d(zp) = zq, e(zp) = 0 and e(zq) = a
    "euler not a chain map": (_s4_document("pair in M", 0, e={"zq": "a"}), 1),
    # e(b1) = zp with d(b1) = 0 and d(zp) = zq: no model of e exists
    "euler into a pair of X_B": (_s4_document("pair in X_B", 5, e={"b1": {"zp": "1"}}), 2),
}


@pytest.mark.parametrize("case", FAULTS)
def test_fault_exits_with_one_line(tmp_path, capsys, case):
    doc, code = FAULTS[case]
    path = tmp_path / "doc.json"
    path.write_text(dump_json(doc))
    for command in ("verify", "circle"):
        assert main([command, "--input", str(path)]) == code
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1, err


def test_perturbed_homotopy_is_rejected(tmp_path, capsys, monkeypatch):
    model_of_morphism = minmodel.model_of_morphism

    def perturbed(phi, rho_m, rho_n):
        # the euler homotopy gains zp, of degree 4, on a degree-3 generator
        phi_prime, h = model_of_morphism(phi, rho_m, rho_n)
        m = h.source
        images = {g: generator_image(h, j) for j, g in enumerate(m.gen_names)}
        if phi.degree == 2:
            j = m.gen_degrees.index(3)
            images[m.gen_names[j]] = (*images[m.gen_names[j]][:-1], 1)
        return phi_prime, map_from_generator_images(m, h.target, h.degree, images)

    path = tmp_path / "doc.json"
    path.write_text(dump_json(_s4_document("pair in X_B", 4)))
    assert main(["circle", "--input", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(minmodel, "model_of_morphism", perturbed)
    assert main(["circle", "--input", str(path)]) == PreconditionError.exit_code
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1 and "not a homotopy" in err, err
