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


# (exit code, SHA-256 of stdout or "" when empty, stderr) of
# `dgmodels circle --fixture F --max-degree W --format machine` at the
# smallest windows, where whole degrees of every model are empty; recorded
# before zero blocks were skipped in products, compositions and action blocks.
SMALL_WINDOW_PINS = {
    ("almost_free_hopf", 0): (0, "c041c6691696f2b52471a750eec3eb8c285491283c7ed9564b755258c97e1b63", ""),
    ("almost_free_hopf", 1): (0, "06dfa4f905b6e98d1cc2a9a0c5e56c5a488451e3ee4c0df82d671e2561c1a3fc", ""),
    ("almost_free_hopf", 2): (0, "1f732722ad83e6496ffdd7ee5be2c17be97b6010a560b5169cc8dd9e67ec9851", ""),
    ("almost_free_hopf", 3): (0, "35c88f2914a1fb18d734f007247870e8388f29c24868e3f6921a76ac1b7bf0a8", ""),
    ("almost_free_hopf", 4): (0, "8b623ba70afcc1aba92e21d66e3053b01749c660798ebd6402966a387df4aa5b", ""),
    ("almost_free_hopf", 5): (0, "ef73f5ee6971b08e01cc8430107fc874a14914e885884daec53f9158c4035f26", ""),
    ("almost_free_hopf", 6): (0, "d5f434c4dac3a9148d7c0cfb61e315e862eec9b86d2b70bffd14fbe5e51e4cb2", ""),
    ("almost_free_hopf", 7): (0, "0f268fa76418304c33158aed7714a696970b975fe2cddb133dccba6736b0459d", ""),
    ("almost_free_hopf", 8): (0, "c54dc803dda712f8a8c4085e79fc0b6fbaa242663a8781edcf88da392ecd3259", ""),
    ("cp2", 0): (1, "", "error: degree window is empty; enlarge the caps\n"),
    ("cp2", 1): (0, "3437d448d134aea991c6ab33975d198b39ea2ee5ec074044842ceb305b7fb66e", ""),
    ("cp2", 2): (0, "1fc0fb1b5f3ca98720eb475c05566303808c1db5d3118fdb69d500cbd9611e64", ""),
    ("cp2", 3): (0, "87332acdc23128d1ce3f9a53f8ca62b8d3c029aee5cba62c61cc79a923e5e9b4", ""),
    ("cp2", 4): (0, "45a362c982e09885e66aa1ec2b76f61dc3877c91126feeada9e478ffa868d14c", ""),
    ("cp2", 5): (0, "fe7f92aa0dc49ae6f48265f4ad68fb55cdef2fd21a33b101fd8aeec79131f31b", ""),
    ("cp2", 6): (0, "7d3e3f70dc55a97a1eafdcb7a7b28fba2489a1651679d421f18b020687f4d3ff", ""),
    ("cp2", 7): (0, "4ddf4ef7ebcfdb270f9ac8c165a2f3b113df1a64fba0a8f0b6e1967e0eef11d0", ""),
    ("cp2", 8): (0, "dc667289c2ea87aad02d67ad78dd0a277a5043030a819145cd32962ddc30563f", ""),
    ("flow_s4", 0): (1, "", "error: fixture 'flow_s4' needs max_degree >= 2\n"),
    ("flow_s4", 1): (1, "", "error: fixture 'flow_s4' needs max_degree >= 2\n"),
    ("flow_s4", 2): (3, "cbf5c45e6c367fb7128909dc6f87ea93cb4a09acbf2db681e234bc730dd2d1fd", ""),
    ("flow_s4", 3): (0, "425d07bc95652a894933eddeec50b3dffc06fe8f761b5b0d7377f9f716edc515", ""),
    ("flow_s4", 4): (0, "508b3dd28336241d4e5be664914dc53fdf1c8275f29d15a9cf44183b1ab4dd07", ""),
    ("flow_s4", 5): (3, "8b209f9e6725945506b9487f67fdf5d465b0e2897f59681341f00e099d594e38", ""),
    ("flow_s4", 6): (3, "654bf31b21a8cdde83a117b0c5f3b388e963731ded0b8688fe2574cbea4db429", ""),
    ("flow_s4", 7): (0, "53e487ffc02d053f25beebdc2f247324857dcb47a09f64464adac5a13af0f1f7", ""),
    ("flow_s4", 8): (0, "ceab0807296a7da5d106dc63821cdbb50337c59ca36f07620d9e0c77c4f2ceee", ""),
    ("nonformal", 0): (1, "", "error: degree window is empty; enlarge the caps\n"),
    ("nonformal", 1): (0, "b5dc70465e6a004ca2f06fc58f0afdf04ec73aa5903745438d3afb83eafa8c14", ""),
    ("nonformal", 2): (0, "d4f355fb13b5b9230c8ff3261afef2d5e0c6138eb98cb338f3eaac0210c9a953", ""),
    ("nonformal", 3): (0, "0917a55b61ce415c94aabc2671bf600e877ee23f5e6a0661cac9458abb1d3ada", ""),
    ("nonformal", 4): (0, "9ad7e8adfb5510386b1cfb431194f869ae89b50e82d6aeb9bb98d0d6d77715ac", ""),
    ("nonformal", 5): (0, "2212898def702bdb3dd18e91ed9cfe9b4a336c1bc791a60e39255e93678e03d8", ""),
    ("nonformal", 6): (0, "2b7debfab468b23b00c7f59b93d21a64002cddbe4e59b7bd595c2e71b830da6d", ""),
    ("nonformal", 7): (0, "a53b5156f4477faea8727b2a481f0c1887537ce4d4333d98f0eaa40fcf6aee58", ""),
    ("nonformal", 8): (0, "e60e27c53b4a8877a58e7f1fdeae4ee9856e7e317e8b0981cbcd66ad0428d25c", ""),
    ("s4_hopf", 0): (1, "", "error: fixture 's4_hopf' needs max_degree >= 2\n"),
    ("s4_hopf", 1): (1, "", "error: fixture 's4_hopf' needs max_degree >= 2\n"),
    ("s4_hopf", 2): (0, "7fb78df40bffb03c1c98b747f2f570cbaf8cce5ccd80daf696d085523cfdda5c", ""),
    ("s4_hopf", 3): (0, "e3224df1112a7a30d9f5d23fcbc5caefd2599ab9966ab7d5c0523355c59f1f37", ""),
    ("s4_hopf", 4): (0, "7cbbb3585c6477574b1c410016f8da10d25e82f245dd5c6d4b7c018eb9e82f2e", ""),
    ("s4_hopf", 5): (0, "51aa4811aab72c3423321ef9cf7ae171f6417c0fd695b4b088f0e132365e6e07", ""),
    ("s4_hopf", 6): (0, "6d1d4c3242644aee2964ea87ac3569c2293346301f5807c21563396e81220556", ""),
    ("s4_hopf", 7): (0, "7c01732906b4565f5d280ba7a5dbbf672ffd20428e7ee356ab92a189b52642dd", ""),
    ("s4_hopf", 8): (0, "e82c370974837009407c2957f01254d9ab325ddd0380de2a3c683b4b728f2c26", ""),
    ("semifree_suspension", 0): (1, "", "error: fixture 'semifree_suspension' needs max_degree >= 6\n"),
    ("semifree_suspension", 1): (1, "", "error: fixture 'semifree_suspension' needs max_degree >= 6\n"),
    ("semifree_suspension", 2): (1, "", "error: fixture 'semifree_suspension' needs max_degree >= 6\n"),
    ("semifree_suspension", 3): (1, "", "error: fixture 'semifree_suspension' needs max_degree >= 6\n"),
    ("semifree_suspension", 4): (1, "", "error: fixture 'semifree_suspension' needs max_degree >= 6\n"),
    ("semifree_suspension", 5): (1, "", "error: fixture 'semifree_suspension' needs max_degree >= 6\n"),
    ("semifree_suspension", 6): (0, "370a607fd7aa3f02e1a8cb6a865e69ef2c36a3815d45ed64e3b7a17753a279d9", ""),
    ("semifree_suspension", 7): (0, "f031f9a4f0c2093009075c58fe0bf0aced74250489bebcd359f1b43715fa0df1", ""),
    ("semifree_suspension", 8): (0, "c1d9d754b9fc7957f5cf192b163db0059effb584fa0f6e4b3df4a675d776f24a", ""),
}


def _machine_output(argv):
    """Exit code, stdout bytes and stderr text of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8"), err.getvalue()


@pytest.mark.parametrize("name", FIXTURES)
def test_circle_machine_output_matches_goldens(name):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))[f"deep_window@{GOLDEN_WINDOW}"]
    want = goldens[f"{name}:circle@{GOLDEN_WINDOW}"]
    code, out, _ = _machine_output(
        ["circle", "--fixture", name, "--max-degree", str(GOLDEN_WINDOW), "--format", "machine"]
    )
    assert code == want["exit"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]


@pytest.mark.parametrize("name, window", sorted(CIRCLE_SHA256))
def test_circle_machine_output_is_pinned(name, window):
    code, out, _ = _machine_output(
        ["circle", "--fixture", name, "--max-degree", str(window), "--format", "machine"]
    )
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == CIRCLE_SHA256[(name, window)]


@pytest.mark.parametrize("name, window", sorted(SMALL_WINDOW_PINS))
def test_circle_machine_output_is_pinned_at_small_windows(name, window):
    code, out, err = _machine_output(
        ["circle", "--fixture", name, "--max-degree", str(window), "--format", "machine"]
    )
    digest = hashlib.sha256(out).hexdigest() if out else ""
    assert (code, digest, err) == SMALL_WINDOW_PINS[(name, window)]


@pytest.mark.parametrize("name", FIXTURES)
def test_action_report_builds_each_stage_once(monkeypatch, name):
    data = fixture(name, 12)
    validated, borel_algebras = [], []
    cones, cone_maps = Counter(), Counter()
    validate, free_cone_module = BasicData.validate, dgmodule.free_cone_module
    cone_of, borel_algebra = dgmodule._cone_of, action._borel_algebra

    def counting_validate(self):
        validated.append(self)
        return validate(self)

    def counting_free_cone_module(phi, gen_names=None, check=True):
        cones[phi.name] += 1
        return free_cone_module(phi, gen_names, check)

    def counting_cone_of(phi, *args):
        cone_maps[phi.name] += 1
        return cone_of(phi, *args)

    def counting_borel_algebra(data):
        borel_algebras.append(data)
        return borel_algebra(data)

    monkeypatch.setattr(BasicData, "validate", counting_validate)
    for module in (dgmodule, action):
        monkeypatch.setattr(module, "free_cone_module", counting_free_cone_module)
    monkeypatch.setattr(dgmodule, "_cone_of", counting_cone_of)
    monkeypatch.setattr(action, "_borel_algebra", counting_borel_algebra)
    action_report(data, 12)

    assert validated == borel_algebras == [data]
    # one cone module per structure map, whatever names its generators are given
    assert cones and set(cones.values()) == {1}
    assert set(cones) <= {"e'", "i'", "q'"}
    if not data.fixed_set_empty:
        assert set(cones) == {"e'", "i'", "q'"}
    # only the Borel cone's long exact sequence, which an empty fixed set has no
    # report section for, reads an inclusion and a projection
    assert cone_maps == ({} if data.fixed_set_empty else {"q'": 1})


@pytest.mark.parametrize("name", FIXTURES)
def test_borel_model_readers_write_no_cone_maps(monkeypatch, name):
    """equivariant_model and `export --what equivariant` read the Borel cone
    module alone, so no inclusion or projection is written around it."""
    cone_maps = Counter()
    cone_of = dgmodule._cone_of

    def counting_cone_of(phi, *args):
        cone_maps[phi.name] += 1
        return cone_of(phi, *args)

    monkeypatch.setattr(dgmodule, "_cone_of", counting_cone_of)
    assert equivariant_model(fixture(name, 12), 12).module.gen_count
    code, out, _ = _machine_output(
        ["export", "--fixture", name, "--what", "equivariant", "--format", "machine"]
    )
    assert code == 0 and out
    assert cone_maps == {}


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
