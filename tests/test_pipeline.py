"""One report, one build per stage: action_report against its goldens, its
call counts and the standalone report functions."""

import contextlib
import hashlib
import io
import json
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import pytest

from dgmodels import action, cli, dgmodule
from dgmodels.action import BasicData
from dgmodels.circle import (
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


# SHA-256 of `dgmodels circle --fixture F --max-degree W --format machine`,
# recorded before the Borel stage certified q' on its generators, the cone
# built its action blocks on first read and the naive product was checked on
# generators.  Each fixture's deepest window (its reach under the budgets;
# 100 for cp2) was pinned before the formality strings and the naive ring
# were built from stored rows: no other pin reads either past window 28.
CIRCLE_SHA256 = {
    ("almost_free_hopf", 12): "a19fcd417880629869ba4f019581cc9d05c07dca5a67f2331c28d78edc0bd17f",
    ("almost_free_hopf", 20): "bfa8fb57fe94a0e1580f7fc1ba0b325317c71dec894763e7c8056d4b8db5dd27",
    ("almost_free_hopf", 28): "8e9e072195b37162b14558c156c881df738e5d19831372d6d8cae24ad1ddab44",
    ("almost_free_hopf", 41): "4409c44d5be3649e659e6a90843c2a3b7bc48aa93755e8ab07ff461ca1489cbe",
    ("cp2", 12): "cca9e6f3185635b3dcbcbae5eb307ed2f4e1f82f91a578fa075415ec4e882618",
    ("cp2", 20): "abd11b16b8d410d45fb1db0ad644d76d96b701a2aa1ac4721c60a807fb4ad820",
    ("cp2", 28): "6143706d13201d87350f328d747195b8f935acec0a66119a49560c636c196ee3",
    ("cp2", 100): "da9c23135e9f000b0b0ffedc7bb6a1d15a3b8183e20b4644ea8cf9156510d4ab",
    ("flow_s4", 12): "09d43087f49b8b8d2d3524e975064d6a4c7a2466c11283f04dd6d7436be9228f",
    ("flow_s4", 20): "99b6b7710665f25406d25a0d16d87f0744c1db93fb8bc687d078b01c80134bff",
    ("flow_s4", 28): "64344a68d0eaa890dc327d7d16b0110f8994d8b54b1967dd8e70b2809128d23f",
    ("flow_s4", 43): "e944147233cee0ee28a89d4cea452280e07205054308b76d33e63e43949ab4fc",
    ("nonformal", 12): "1f5a04601ce6f247cd66c247fb408271ca9c4badb13f0db61de45cd1538f2887",
    ("nonformal", 20): "8ef8f3a2b8a26f458f28e556ac16c319b14be6154a87f6be8f458e2b58fe2836",
    ("nonformal", 28): "6a69bbc3d67420791fab08d082f1205a230f74146f90cc76f18c5ee10296492b",
    ("nonformal", 59): "254d45b299b0bd6b12b0d9c6e8cdaae59c69e737878486bf54ec1d4230e6eb53",
    ("s4_hopf", 12): "24670f9ade8bebd40795cb85c39a68709b11b8932467d506deaa7ddcdd734214",
    ("s4_hopf", 20): "30312ddba3d80579c47e6c881498991cf77d1c7b67ad9d915e5f0df1c8f0c5a4",
    ("s4_hopf", 28): "c279f1cca831f20db34de73410fc6d7a4b78e4a8b8c41c2fe735b1c461daf149",
    ("s4_hopf", 43): "e46654c34ad6387c6dce5bb26ac54fa1503e8550b3b295b9aa8566c13c722a72",
    ("semifree_suspension", 12): "e2c2ab561814dad927e046c4a329356b6a51ae20a0ad9f1581f18c9b1abac862",
    ("semifree_suspension", 20): "d623648afc15fc094fe4548ca5639209d8c5d983a23a5c5b5a470713cacd1d33",
    ("semifree_suspension", 28): "32070f0784d8fb4715c6f2bb0d6eae97b33985591e99877cf4d85786f1d9833d",
    ("semifree_suspension", 103): "690a28f1be5745806dabde7809d6ea93e0ce7d678b01e9b7ebd0f6596e187ee6",
}


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


@pytest.mark.parametrize("name, window", sorted(CIRCLE_SHA256))
def test_circle_machine_output_is_pinned(name, window):
    code, out = _machine_output(
        ["circle", "--fixture", name, "--max-degree", str(window), "--format", "machine"]
    )
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == CIRCLE_SHA256[(name, window)]


@pytest.mark.parametrize("name", FIXTURES)
def test_action_report_builds_each_stage_once(monkeypatch, name):
    data = fixture(name, 12)
    validated, borel_algebras = [], []
    cones = Counter()
    validate, free_cone = BasicData.validate, dgmodule.free_cone
    borel_algebra = action._borel_algebra

    def counting_validate(self):
        validated.append(self)
        return validate(self)

    def counting_free_cone(phi, gen_names=None, check=True):
        cones[phi.name] += 1
        return free_cone(phi, gen_names, check)

    def counting_borel_algebra(data):
        borel_algebras.append(data)
        return borel_algebra(data)

    monkeypatch.setattr(BasicData, "validate", counting_validate)
    for module in (dgmodule, action):
        monkeypatch.setattr(module, "free_cone", counting_free_cone)
    monkeypatch.setattr(action, "_borel_algebra", counting_borel_algebra)
    action_report(data, 12)

    assert validated == borel_algebras == [data]
    # one cone per structure map, whatever names its generators are given
    assert cones and set(cones.values()) == {1}
    assert set(cones) <= {"e'", "i'", "q'"}
    if not data.fixed_set_empty:
        assert set(cones) == {"e'", "i'", "q'"}


def _value(x):
    """Structural value of a report, for comparing two separately built ones."""
    if hasattr(x, "_fields"):
        return (type(x).__name__,) + tuple(_value(getattr(x, name)) for name in x._fields)
    if isinstance(x, (list, tuple)):
        return tuple(_value(v) for v in x)
    if isinstance(x, Mapping):
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
