"""The report and model records are immutable NamedTuples, and the machine
schema reads them by field name."""

import importlib
import json

import pytest

from dgmodels import cli
from dgmodels.circle import action_report
from dgmodels.cli import _record_json
from dgmodels.dgmodule import LesRow
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.linalg import GradedDims, PoincareSeries

# module -> the record classes it defines
RECORDS = {
    "linalg": ("GradedDims", "PoincareSeries", "CohomologyData"),
    "cdga": ("CheckReport",),
    "dgmodule": ("MinimalModelResult", "MinimalityReport", "Cone", "LesRow", "LesTable"),
    "action": ("BasicData", "EquivariantModel"),
    "io": ("InputDocument",),
    "circle": (
        "SharedBasisReport", "EquivariantLesReport", "ScalarsReport", "PoincareReport",
        "FormalityString", "FormalityReport", "LocalizationReport", "DimcReport",
        "AlmostFreeReport", "RingEntry", "NaiveReport", "SmithGysinReport", "ActionReport",
    ),
    "minmodel": ("KSState",),
}
RECORD_NAMES = [f"{mod}.{name}" for mod, names in RECORDS.items() for name in names]

SECTIONS = ("shared_basis", "scalars", "poincare", "formality", "localization", "dimc",
            "almost_free", "naive")


def _record_class(qualname):
    mod, name = qualname.split(".")
    return getattr(importlib.import_module(f"dgmodels.{mod}"), name)


def test_every_tuple_class_is_a_listed_record():
    found = []
    for mod in RECORDS:
        module = importlib.import_module(f"dgmodels.{mod}")
        found += [
            f"{mod}.{name}" for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
        ]
    assert sorted(found) == sorted(RECORD_NAMES) and len(found) == 26


@pytest.mark.parametrize("qualname", RECORD_NAMES)
def test_assigning_a_field_raises(qualname):
    cls = _record_class(qualname)
    record = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record._replace(**{cls._fields[0]: "new"})[0] == "new" and record[0] == 0


def test_les_row_fields_are_the_machine_column_order(capsys):
    assert LesRow._fields == (
        "n", "dim_h_target", "dim_h_cone", "dim_h_source", "rank_into_cone",
        "rank_onto_source", "rank_connecting", "exact_at_cone", "exact_at_source",
    )
    assert cli.main(["circle", "--fixture", "cp2", "--format", "machine"]) == 0
    rows = json.loads(capsys.readouterr().out)["les"]["rows"]
    table = action_report(fixture("cp2", 12), 12).les.table
    assert rows and rows == [[getattr(row, name) for name in LesRow._fields] for row in table.rows]


def _assert_records_are_dicts(value, encoded):
    if isinstance(value, (GradedDims, PoincareSeries)):
        assert isinstance(encoded, list) and all(isinstance(x, int) for x in encoded)
    elif hasattr(value, "_fields"):
        assert isinstance(encoded, dict) and list(encoded) == list(value._fields)
        for name in value._fields:
            _assert_records_are_dicts(getattr(value, name), encoded[name])
    elif isinstance(value, tuple):
        assert isinstance(encoded, list) and len(encoded) == len(value)
        for item, item_json in zip(value, encoded):
            _assert_records_are_dicts(item, item_json)
    else:
        assert encoded is value


@pytest.mark.parametrize("name", FIXTURES)
def test_every_report_section_encodes_as_a_dict(name):
    rep = action_report(fixture(name, 12), 12)
    sections = [getattr(rep, key) for key in SECTIONS if getattr(rep, key) is not None]
    assert sections
    for section in (*sections, *rep.smith_gysin):
        encoded = _record_json(section)
        assert isinstance(encoded, dict)
        _assert_records_are_dicts(section, encoded)
