"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys

import pytest

import run
import workloads
from tracer import SPECS, Tracer
from workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _bindings():
    """Every attribute a traced layer could be reached through."""
    import importlib

    seen = {}
    for mod_name, path, _, _ in SPECS:
        owner = importlib.import_module(f"dgmodels.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            seen[(cls, attr)] = vars(cls)[attr]
    for name, mod in list(sys.modules.items()):
        if name == "dgmodels" or name.startswith("dgmodels."):
            for attr, value in vars(mod).items():
                if callable(value):
                    seen[(mod, attr)] = value
    return seen


def test_tracer_restores_every_patched_attribute():
    ops = workloads.setup_deep(0, True)
    before = _bindings()
    with Tracer() as tracer:
        patched = tracer.patched()
        assert patched
        for owner, name, original in patched:
            assert vars(owner)[name] is not original
        _, results = run.run_pass([op for op in ops if op.fixture == "cp2"])
    assert not any(error for _, _, error in results)
    assert tracer.layers["circle.action_report"].calls == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    for owner, name, original in patched:
        assert vars(owner)[name] is original


def _table(module):
    return (
        module.cap,
        sorted(module.labels.items()),
        sorted(module.d_mats.items()),
        sorted(module.act_mats.items()),
    )


def test_same_seed_same_modules_and_digests():
    first, again = workloads.ks_inputs(5), workloads.ks_inputs(5)
    assert [_table(m) for m in first] == [_table(m) for m in again]
    assert [_table(m) for m in first] != [_table(m) for m in workloads.ks_inputs(6)]
    ops_a, ops_b = workloads.setup_ks(5, False)[:4], workloads.setup_ks(5, False)[:4]
    digests_a = [workloads.digest(op.output(op.run())[1]) for op in ops_a]
    digests_b = [workloads.digest(op.output(op.run())[1]) for op in ops_b]
    assert digests_a == digests_b


def _cp2_ops():
    return [op for op in workloads.setup_cli(0, True) if op.fixture == "cp2"]


def test_altered_golden_counts_as_failure():
    goldens = workloads.load_goldens()["cli_w12@12"]
    ops = _cp2_ops()
    _, results = run.run_pass(ops)

    intact = run.Checker(goldens)
    intact.check(ops, results, deep=True)
    assert (intact.attempted, intact.failed) == (3, 0)

    altered = dict(goldens)
    altered["cp2:verify"] = dict(altered["cp2:verify"], sha256="0" * 64)
    broken = run.Checker(altered)
    broken.check(ops, results, deep=True)
    assert broken.failed / broken.attempted > 0

    wrong_exit = dict(goldens)
    wrong_exit["cp2:circle"] = dict(wrong_exit["cp2:circle"], exit=3)
    checker = run.Checker(wrong_exit)
    checker.check(ops, results, deep=True)
    assert checker.failed == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert dict(run.E2E_METRICS) == declared_e2e
    assert run.per_layer_units() == declared_layer
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
    for name in [*declared_e2e, *declared_layer]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([float(i) for i in range(1, 19)]) == (18.0, 100.0, 18)
