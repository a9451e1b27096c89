#!/usr/bin/env python3
"""The dgmodels benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.
``--trace 0`` measures the end-to-end metrics on as many untraced passes
as fit in S seconds, with every time scaled by the host's speed measured
beside it (reference.py); ``--trace 1`` makes one untraced and one traced
pass and reports the per-layer metrics.  Every op's output is checked
against the golden digests in goldens.json (or, for a ks_random seed
without goldens, against C7's identities and the run's own first pass).
Each run writes its full record, every sample included, to
.perfbench/runs/.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import FIXTURES, ROOT, SRC, WORKLOADS, child_env, digest  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 5
PROBE_REFERENCES = 3
REFERENCE_SHARE = 0.1
IMPORT_PROBES = 3
RUNS = ROOT / ".perfbench" / "runs"

# The end-to-end metrics: (name, unit).
E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); nearest rank, so the value
    is the sample at rank n - 10.  With 20 samples or fewer that rank would
    not lie above the median, and the maximum is returned as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - 10
    if rank <= n // 2:
        return xs[-1], 100.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def probe(code: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``code``, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=child_env(),
        cwd=ROOT,
        timeout=120,
        check=True,
    )
    return time.perf_counter() - start, proc.stdout.decode()


def setup_probe(name: str, seed: int) -> float:
    """Start an interpreter, import dgmodels and build the workload's inputs.

    The child then times the reference kernel, and the set-up time is
    scaled by the host's speed in that child at that moment.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(workloads.BENCH_DIR)!r}); import workloads; "
        f"workloads.WORKLOADS[{name!r}].setup({seed}, False); import reference; "
        f"print(*(reference.timed() for _ in range({PROBE_REFERENCES})))"
    )
    wall, out = probe(code)
    refs = [float(x) for x in out.split()]
    return (wall - sum(refs)) * reference.NOMINAL_S / statistics.fmean(refs)


def import_probe() -> float:
    """Time a fresh interpreter takes to import dgmodels.cli."""
    code = "import time; t = time.perf_counter(); import dgmodels.cli; print(time.perf_counter() - t)"
    return float(probe(code)[1])


def run_pass(ops, refs: list[float] | None = None, after=None) -> tuple[float, list]:
    """Run every op once, back to back; return the ops' total time and, per
    op, (seconds, result, error).

    With ``after``, call ``after(op, seconds, result, error)`` right after
    each op, outside the timed region, and keep what it returns instead:
    a result it has checked is then freed before the next op, so the heap
    (and the garbage collector's work) does not grow through the pass.
    With ``refs``, also time the reference kernel right after each op, for
    REFERENCE_SHARE of the op's time, and append its times to ``refs``: the
    host's speed is then sampled all through the pass, in proportion to
    the work the ops do (a slow stretch lengthens the op and the kernel
    alike, so it gets as many timings as the same work on a fast one).
    """
    out, total, owed = [], 0.0, 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        seconds = t1 - t0
        total += seconds
        out.append((seconds, result, error) if after is None else after(op, seconds, result, error))
        if refs is not None:
            owed += REFERENCE_SHARE * seconds
            while owed > 0:
                refs.append(reference.timed())
                owed -= refs[-1]
    return total, out


class Checker:
    """Checks each op's (exit code, output digest) against the goldens or,
    for inputs without goldens, against the first pass of this run."""

    def __init__(self, goldens: dict | None):
        self.goldens = goldens
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ops, results, deep: bool) -> list[dict]:
        return [self.check_one(op, seconds, result, error, deep)
                for op, (seconds, result, error) in zip(ops, results)]

    def check_one(self, op, seconds: float, result, error: str | None, deep: bool) -> dict:
        problems = [error] if error else []
        code = digest_hex = None
        if not error:
            code, data = op.output(result)
            digest_hex = digest(data)
            got = {"exit": code, "sha256": digest_hex}
            if self.goldens is not None:
                want = self.goldens.get(op.key)
            else:
                want = self.seen.setdefault(op.key, got)
            if want != got:
                problems.append(f"output {got} differs from golden {want}")
            if deep and op.check is not None:
                problems += op.check(result)
        self.attempted += 1
        self.failed += bool(problems)
        return {"op": op.key, "s": seconds, "exit": code, "sha256": digest_hex,
                "problems": problems}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.decode().strip()


def end_to_end(workload, seed: int, seconds: float, checker: Checker, record: dict) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    setups, refs, samples, rss_kb = [], [], {}, 0
    # A round is one set-up probe, a fresh set-up and one pass.  Another
    # round starts only if a round of the mean length so far would end by
    # the deadline, so a run lasts about --seconds on any host.  One probe a
    # round spreads the probes over the run, so that one slow stretch of the
    # machine cannot hold all of them.
    while True:
        rounds = len(record["passes"])
        now = time.perf_counter()
        if rounds >= MIN_PASSES and now + (now - start) / rounds > deadline:
            break
        setups.append(setup_probe(workload.name, seed))

        def after(op, seconds, result, error, deep=rounds == 0):
            nonlocal rss_kb
            samples.setdefault(op.key, []).append(seconds)
            if workload.children and result is not None:
                rss_kb = max(rss_kb, result[2])
            return checker.check_one(op, seconds, result, error, deep)

        pass_refs: list[float] = []
        wall, checked = run_pass(workload.setup(seed, False), pass_refs, after)
        refs += pass_refs
        record["passes"].append({"wall_s": wall, "reference_s": pass_refs, "ops": checked})
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, seed))
    record["setup_samples_s"] = setups
    # An op's latency is its mean over the run's passes, and the host's
    # speed the reference kernel's mean over the same stretch of time.  The
    # host switches between a fast and a slow speed for stretches of
    # seconds to minutes; a mean of times is linear in the share of time
    # spent slow, so ops and kernel, sampled all through the run, are
    # slowed alike and the ratio cancels the host (NOTES.md, Op latency
    # and host speed).
    latencies = [statistics.fmean(s) for s in samples.values()]
    value, pct, n = tail(latencies)
    passes = len(record["passes"])
    record["op_tail"] = {"percentile": pct, "samples": n}
    raw = {
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
    }
    scale = reference.NOMINAL_S / statistics.fmean(refs)
    record["raw_s"], record["scale"] = raw, scale
    print(f"op latency = mean of {passes} passes; op_tail_s is the p{pct:.1f} of {n} ops")
    print(f"host speed scale {scale:.4f} ({len(refs)} reference timings); unscaled: "
          + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    metrics = {"setup_s": statistics.median(setups), **{k: v * scale for k, v in raw.items()}}
    if not workload.children:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = rss_kb / 1024
    return metrics


def traced(workload, seed: int, checker: Checker, record: dict) -> dict:
    from tracer import Tracer

    imports = [import_probe() for _ in range(IMPORT_PROBES)]
    record["import_samples_s"] = imports
    ops = workload.setup(seed, True)
    wall, results = run_pass(ops)
    record["passes"].append({"wall_s": wall, "traced": False,
                             "ops": checker.check(ops, results, deep=True)})
    per_fixture = {f: 0.0 for f in FIXTURES}
    for op, (s, _, _) in zip(ops, results):
        if op.fixture is not None:
            per_fixture[op.fixture] += s
    ops = workload.setup(seed, True)
    with Tracer() as tracer:
        traced_wall, traced_results = run_pass(ops)
    record["passes"].append({"wall_s": traced_wall, "traced": True,
                             "ops": checker.check(ops, traced_results, deep=False)})
    metrics = tracer.metrics()
    metrics["cli.import_s"] = statistics.median(imports)
    metrics.update({f"input.{f}.op_s": s for f, s in per_fixture.items()})
    metrics["trace.untraced_wall_s"] = wall
    metrics["trace.traced_wall_s"] = traced_wall
    return metrics


def per_layer_units() -> dict[str, str]:
    from tracer import TRACE_METRICS

    units = dict(TRACE_METRICS)
    units["cli.import_s"] = "s"
    units.update({f"input.{f}.op_s": "s" for f in FIXTURES})
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "dgmodels" / "__init__.py").is_file():
        print(f"error: no dgmodels package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload]
    checker = Checker(workloads.load_goldens().get(workload.golden_key(args.seed)))
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "window": workload.window,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "goldens": checker.goldens is not None,
        "passes": [],
    }
    if args.trace:
        values, units = traced(workload, args.seed, checker, record), per_layer_units()
    else:
        values, units = end_to_end(workload, args.seed, args.seconds, checker, record), dict(E2E_METRICS)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    record["attempted"], record["failed"] = checker.attempted, checker.failed

    RUNS.mkdir(parents=True, exist_ok=True)
    path = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    ratio = checker.failed / checker.attempted
    print(f"failed_ratio {ratio} ({checker.failed} of {checker.attempted} ops); record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
