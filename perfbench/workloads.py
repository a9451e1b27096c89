"""The benchmark's workloads: their inputs, their operations and the check
of every output against the golden digests recorded at the seed commit.

Why each workload exists, and what each layer metric should move, is
written down in NOTES.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Relative to ROOT, the working directory of every op: the input path is
# echoed in the machine output, so it must not depend on the checkout.
WORK = Path(".perfbench") / "work"
GOLDENS = BENCH_DIR / "goldens.json"

FIXTURES = ("almost_free_hopf", "cp2", "flow_s4", "nonformal", "s4_hopf", "semifree_suspension")
CLI_COMMANDS = (("verify",), ("circle",), ("export", "--what", "equivariant"))
CLI_WINDOW = 12
# A pass takes about 40 s at window 28, 10 s at 20 and 3.5 s at 16.  An
# op's latency is its mean over the run's passes, and 16 leaves room for
# five or more passes in one run (NOTES.md).
DEEP_WINDOW = 16
# ks_random: the C7 scheme of tests/test_acceptance.py, larger.  A module's
# size is s = sum_k (dim X^k)^2, and each algebra takes a fixed number of
# modules from each size bin, so that every seed's pass holds the same mix
# of small and large modules.  Over Lambda(e_2) the largest bin holds more
# than its natural share (50 of 150, not about 20), so that op_tail_s, the
# 11th-slowest module, falls inside one bin.  Module times vary by a factor
# of two within a bin, so a pass holds 300 modules: fewer let the seed's
# draw move the totals by 10 % (see NOTES.md).
KS_CAP = 12
KS_MAX_DIM = 6
KS_QUOTAS = (
    ("a", 3, (((20, 24), 74), ((24, 30), 60), ((30, 40), 16))),
    ("e", 2, (((20, 24), 30), ((24, 28), 44), ((28, 32), 20), ((32, 36), 6), ((36, 40), 50))),
)
KS_DEFAULT_SEED = 1
KS_HELD_OUT_SEED = 2
KS_COEFFS = tuple(Fraction(*c) for c in ((1,), (-1,), (2,), (-2,), (1, 2), (3,), (-1, 3)))

CLI_ENTRY = "import sys; from dgmodels.cli import main; sys.exit(main())"


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package comes from ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One timed operation.

    ``run`` does the work the user waits for and returns its raw result;
    ``output`` turns that result into (exit code, canonical bytes) outside
    the timed region; ``check``, where given, lists what is mathematically
    wrong with the result.
    """

    key: str
    fixture: str | None
    run: Callable[[], Any]
    output: Callable[[Any], tuple[int, bytes]]
    check: Callable[[Any], list[str]] | None = None


def _identity_output(result):
    return result[0], result[1]


# ---- cli_w12 ----------------------------------------------------------------


def _doc_path(fixture: str) -> str:
    return str(WORK / f"{fixture}.json")


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    """``dgmodels.cli.main`` in this process, stdout captured as bytes."""
    from dgmodels import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8")


def run_cli_child(argv: list[str]) -> tuple[int, bytes, int]:
    """A fresh ``dgmodels`` process, as the console script would start it.

    Returns (exit code, stdout bytes, peak RSS of the child in KiB).
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI_ENTRY, *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def setup_cli(seed: int, in_process: bool) -> list[Op]:
    """Export each fixture to a document once, then 3 commands on each."""
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    for fixture in FIXTURES:
        code, _ = run_cli_inprocess(
            ["export", "--fixture", fixture, "--output", _doc_path(fixture), "--format", "machine"]
        )
        if code != 0:
            raise RuntimeError(f"exporting fixture {fixture} exited {code}")
    ops = []
    for fixture in FIXTURES:
        for command in CLI_COMMANDS:
            argv = [*command[:1], "--input", _doc_path(fixture), *command[1:], "--format", "machine"]
            runner = run_cli_inprocess if in_process else run_cli_child
            ops.append(Op(f"{fixture}:{command[0]}", fixture,
                          lambda argv=argv, runner=runner: runner(argv), _identity_output))
    random.Random(seed).shuffle(ops)
    return ops


# ---- deep_window ------------------------------------------------------------


def setup_deep(seed: int, in_process: bool) -> list[Op]:
    """One in-process circle report per fixture; each builds fresh inputs."""
    import dgmodels.cli  # noqa: F401  (the import is part of set-up)

    ops = []
    for fixture in FIXTURES:
        argv = ["circle", "--fixture", fixture, "--max-degree", str(DEEP_WINDOW), "--format", "machine"]
        ops.append(Op(f"{fixture}:circle@{DEEP_WINDOW}", fixture,
                      lambda argv=argv: run_cli_inprocess(argv), _identity_output))
    random.Random(seed).shuffle(ops)
    return ops


# ---- ks_random --------------------------------------------------------------


def _random_module(algebra, rng: random.Random):
    """A C7-style generator table: differentials hit closed generators only,
    so d^2 = 0 by construction over a zero-differential algebra."""
    from dgmodels.dgmodule import FreeDgModule

    n_closed = rng.randint(1, 3)
    n_open = rng.randint(0, 3)
    gens = [(f"z{i}", rng.randint(0, 5)) for i in range(n_closed)]
    gens += [(f"w{i}", rng.randint(1, 6)) for i in range(n_open)]
    diffs = {}
    for i in range(n_open):
        deg = gens[n_closed + i][1]
        row = {}
        for j in range(n_closed):
            cdeg = deg + 1 - gens[j][1]
            if 0 <= cdeg and algebra.dim(cdeg) and rng.random() < 0.7:
                row[f"z{j}"] = {algebra.basis(cdeg)[0]: rng.choice(KS_COEFFS)}
        if row:
            diffs[f"w{i}"] = row
    return FreeDgModule(algebra, gens, diffs, cap=KS_CAP)


def ks_inputs(seed: int) -> list:
    """The seeded tabulated modules, over Lambda(a_3) then Lambda(e_2),
    each algebra's drawn until every size bin holds its quota."""
    from dgmodels.cdga import SullivanPresentation
    from dgmodels.dgmodule import tabulate

    rng = random.Random(seed)
    inputs = []
    for name, degree, quotas in KS_QUOTAS:
        algebra = SullivanPresentation([(name, degree)], {}, cap=KS_CAP + 2)
        left = {bounds: count for bounds, count in quotas}
        while any(left.values()):
            module = _random_module(algebra, rng)
            dims = [module.dim(k) for k in range(KS_CAP + 1)]
            size = sum(d * d for d in dims)
            for (lo, hi), count in left.items():
                if count and lo <= size < hi and max(dims) <= KS_MAX_DIM:
                    left[(lo, hi)] -= 1
                    inputs.append(tabulate(module))
                    break
    return inputs


def _ks_run(x):
    from dgmodels.minmodel import lift_section, minimal_model

    result = minimal_model(x)
    return result, lift_section(result.rho)


def _ks_output(result_and_section) -> tuple[int, bytes]:
    from dgmodels.io import dump_json

    result, _ = result_and_section
    module = result.module
    payload = {
        "generators": [[n, d] for n, d in zip(module.gen_names, module.gen_degrees)],
        "stages": [list(s) for s in module.stages],
        "betti_model": result.betti_model.as_list(),
        "betti_target": result.betti_target.as_list(),
    }
    return 0, dump_json(payload).encode("utf-8")


def _ks_check(x):
    """C7's identities, independent of any golden: H is preserved, the
    model is minimal and the section composed with rho is the identity."""
    from dgmodels.dgmodule import compose, identity_map, maps_equal, module_cohomology
    from dgmodels.minmodel import verify_minimal

    def check(result_and_section) -> list[str]:
        result, section = result_and_section
        problems = []
        if not verify_minimal(result.module).ok:
            problems.append("model is not minimal")
        for n in range(result.window + 1):
            if module_cohomology(result.module, n).betti != module_cohomology(x, n).betti:
                problems.append(f"H^{n} of the model differs from the input")
                break
        if not maps_equal(compose(section, result.rho), identity_map(result.module)):
            problems.append("section composed with rho is not the identity")
        return problems

    return check


def setup_ks(seed: int, in_process: bool) -> list[Op]:
    return [
        Op(f"ks:{i:03d}", None, lambda x=x: _ks_run(x), _ks_output, _ks_check(x))
        for i, x in enumerate(ks_inputs(seed))
    ]


# ---- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], list[Op]]
    window: int
    # Ops run in child processes, so peak RSS is the largest child's.
    children: bool

    def golden_key(self, seed: int) -> str:
        if self.name == "ks_random":
            return f"ks_random/seed={seed}"
        return f"{self.name}@{self.window}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_w12", setup_cli, CLI_WINDOW, True),
        Workload("deep_window", setup_deep, DEEP_WINDOW, False),
        Workload("ks_random", setup_ks, KS_CAP, False),
    )
}


def load_goldens() -> dict[str, dict[str, dict[str, Any]]]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)
