"""One report, one build per stage: action_report against its goldens, its
call counts and the standalone report functions."""

import contextlib
import dataclasses
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from dgmodels import circle, cli, dgmodule
from dgmodels.circle import (
    BasicData,
    action_report,
    almost_free_model,
    dimc_relation,
    equivariant_les,
    equivariant_model,
    extension_of_scalars_check,
    formality_check,
    localization_check,
    model_of_fixed_set,
    model_of_total_space,
    naive_structure,
    poincare_relations,
    semifree_s3_models,
    shared_basis_check,
    smith_gysin_inequality,
)
from dgmodels.dgmodule import DgModuleMap, FreeDgModule, TabulatedDgModule
from dgmodels.fixtures import FIXTURES, fixture

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
GOLDEN_WINDOW = 16


def _machine_output(argv):
    """Exit code and stdout bytes of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", FIXTURES)
def test_circle_machine_output_matches_goldens(name):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))[f"deep_window@{GOLDEN_WINDOW}"]
    want = goldens[f"{name}:circle@{GOLDEN_WINDOW}"]
    code, out = _machine_output(
        ["circle", "--fixture", name, "--max-degree", str(GOLDEN_WINDOW), "--format", "machine"]
    )
    assert code == want["exit"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]


@pytest.mark.parametrize("name", FIXTURES)
def test_action_report_builds_each_stage_once(monkeypatch, name):
    data = fixture(name, 12)
    validated = []
    cones = Counter()
    validate, free_cone = BasicData.validate, dgmodule.free_cone

    def counting_validate(self):
        validated.append(self)
        return validate(self)

    def counting_free_cone(phi, gen_names=None, check=True):
        cones[(phi.name, tuple(gen_names or ()))] += 1
        return free_cone(phi, gen_names, check)

    monkeypatch.setattr(BasicData, "validate", counting_validate)
    for module in (dgmodule, circle):
        monkeypatch.setattr(module, "free_cone", counting_free_cone)
    action_report(data, 12)

    assert validated == [data]
    assert cones and set(cones.values()) == {1}
    built = {map_name for map_name, _ in cones}
    assert built <= {"e'", "i'", "q'"}
    if not data.fixed_set_empty:
        assert built == {"e'", "i'", "q'"}


def _value(x):
    """Structural value of a report, for comparing two separately built ones."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _value(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, (list, tuple)):
        return tuple(_value(v) for v in x)
    if isinstance(x, dict):
        return tuple((repr(k), _value(v)) for k, v in sorted(x.items(), key=lambda kv: repr(kv[0])))
    if isinstance(x, FreeDgModule):
        return ("free", x.algebra, x.gen_names, x.gen_degrees, _value(x.gen_diffs), x.cap)
    if isinstance(x, TabulatedDgModule):
        return ("tabulated", x.algebra, x.cap, _value(x.labels), _value(x.d_mats),
                _value(x.act_mats))
    if isinstance(x, DgModuleMap):
        return ("map", x.name, x.degree, x.window_cap, _value(x.source), _value(x.target),
                _value(x.mats))
    return x


STANDALONE = (
    (model_of_total_space, "total"),
    (model_of_fixed_set, "fixed"),
    (equivariant_model, "equivariant"),
    (equivariant_les, "les"),
    (shared_basis_check, "shared_basis"),
    (extension_of_scalars_check, "scalars"),
    (poincare_relations, "poincare"),
    (formality_check, "formality"),
    (localization_check, "localization"),
    (dimc_relation, "dimc"),
    (almost_free_model, "almost_free"),
    (naive_structure, "naive"),
)


@pytest.mark.parametrize("name", ["s4_hopf", "cp2", "flow_s4", "almost_free_hopf"])
def test_standalone_reports_match_action_report(name):
    window = 10
    data = fixture(name, window)
    rep = action_report(data, window)
    compared = []
    for fn, field in STANDALONE:
        want = getattr(rep, field)
        if want is None:
            continue
        assert _value(fn(data, window)) == _value(want), field
        compared.append(field)
    got = tuple(smith_gysin_inequality(data, window, r) for r in range(len(rep.smith_gysin)))
    assert got == rep.smith_gysin
    assert {"total", "localization"} <= set(compared)
    if name in ("s4_hopf", "cp2"):
        assert "formality" in compared and "dimc" in compared
    if name == "cp2":
        assert "naive" in compared
    if name == "flow_s4":
        assert len(rep.smith_gysin) == 3
    if name == "almost_free_hopf":
        assert compared == ["total", "localization", "almost_free"]


def test_semifree_models_match_action_report():
    data = fixture("semifree_suspension", 10)
    rep = action_report(data, 10)
    total, fixed = semifree_s3_models(data, 10)
    assert _value(total) == _value(rep.total)
    assert _value(fixed) == _value(rep.fixed)
