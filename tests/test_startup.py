"""Start-up: each command loads only the layers it runs, builds no dataclass,
and the package's exports load lazily without changing the public names."""

import importlib
import json
import subprocess
import sys

import pytest

import dgmodels
from dgmodels import cli

EXPORTED = [
    "BasicData", "DegreeWindowError", "DgModuleMap", "FIXTURES", "FreeDgModule",
    "InconclusiveWindowError", "InputDocument", "PreconditionError", "SullivanPresentation",
    "TabulatedDgModule", "ValidationError", "action_report", "algebra_module",
    "almost_free_model", "betti_table", "cone", "cone_les", "dimc_relation",
    "equivariant_les", "equivariant_model", "extension_of_scalars_check", "fixture",
    "formality_check", "free_cone", "from_complexes", "lift_section", "load_document",
    "loads_document", "localization_check", "map_from_generator_images",
    "minimal_factorization", "minimal_model", "model_of_fixed_set", "model_of_morphism",
    "model_of_total_space", "module_cohomology", "naive_structure", "parse_polynomial",
    "poincare_relations", "semifree_s3_models", "shared_basis_check", "shift",
    "smith_gysin_inequality", "tabulate", "trivial_algebra", "verify_cdga",
    "verify_dgmodule", "verify_minimal",
]

# runs one command in a fresh interpreter, then lists every loaded module on stderr
CHILD = (
    "import json, sys; from dgmodels.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr); sys.exit(code)"
)


def _loaded_after(*argv: str) -> set[str]:
    res = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "s4_hopf.json"
    argv = ["export", "--fixture", "s4_hopf", "--output", str(path), "--format", "machine"]
    assert cli.main(argv) == 0
    return str(path)


@pytest.mark.parametrize(
    "command, loads, skips",
    [
        (["verify"], set(), {"circle", "minmodel", "text"}),
        (["export", "--what", "equivariant"], set(), {"circle", "minmodel", "text"}),
        (["circle"], {"circle"}, {"minmodel", "text"}),
        (["minmodel"], {"minmodel"}, {"text"}),
        (["verify", "--format", "text"], {"text"}, {"circle", "minmodel"}),
        (["circle", "--format", "text"], {"circle", "text"}, {"minmodel"}),
        (["minmodel", "--format", "text"], {"minmodel", "text"}, set()),
        (["verify", "--fixture"], {"fixtures"}, {"circle", "minmodel", "text"}),
        (["export", "--fixture", "--what", "equivariant"], {"fixtures"},
         {"circle", "minmodel", "text"}),
        (["circle", "--fixture", "--format", "text"], {"fixtures", "circle", "text"}, {"minmodel"}),
    ],
    ids=[
        "verify", "export", "circle", "minmodel", "verify-text", "circle-text", "minmodel-text",
        "verify-fixture", "export-fixture", "circle-fixture-text",
    ],
)
def test_each_command_loads_only_the_layers_it_runs(document, command, loads, skips):
    """A run reads the exported s4_hopf document, or with --fixture the
    bundled s4_hopf; the format is machine unless the case names text."""
    name, *rest = command
    source = ["--fixture", "s4_hopf"] if "--fixture" in rest else ["--input", document]
    rest = [arg for arg in rest if arg != "--fixture"]
    fmt = [] if "--format" in rest else ["--format", "machine"]
    loaded = _loaded_after(name, *source, *rest, *fmt)
    assert {f"dgmodels.{m}" for m in loads} <= loaded
    assert not {f"dgmodels.{m}" for m in skips} & loaded
    # the records are NamedTuples: no command imports dataclasses, nor inspect with it
    assert not {"dataclasses", "inspect"} & loaded


def test_one_parser_serves_every_call(capsys):
    """main builds the argument parser once per process; a call that fails to
    parse leaves it as it was for the next."""
    parser = cli._parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--fixture", "nope"])
        errors.append(capsys.readouterr().err)
    assert "invalid choice: 'nope'" in errors[0] and errors[0] == errors[1]
    assert cli.main(["verify", "--fixture", "cp2", "--format", "machine"]) == 0
    assert cli._parser() is parser


def test_importing_the_package_loads_no_module():
    code = "import sys, dgmodels; print(sorted(m for m in sys.modules if m.startswith('dgmodels')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.stdout.split() == ["['dgmodels']"], res.stderr


def test_exported_names_are_unchanged():
    assert sorted(dgmodels.__all__) == sorted(EXPORTED) and len(EXPORTED) == 48
    assert set(EXPORTED) <= set(dir(dgmodels))


@pytest.mark.parametrize("name", EXPORTED)
def test_each_export_is_the_object_its_module_defines(name):
    obj = getattr(dgmodels, name)
    if name == "FIXTURES":
        assert obj is importlib.import_module("dgmodels.fixtures").FIXTURES
        return
    assert obj.__module__.startswith("dgmodels.") and obj.__name__ == name
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dgmodels import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)
    assert all(namespace[name] is getattr(dgmodels, name) for name in EXPORTED)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'minmodel_of'"):
        dgmodels.minmodel_of  # noqa: B018
