#!/usr/bin/env python3
"""Write goldens.json: the exit code and SHA-256 of every op's canonical output.

    python3 perfbench/record_goldens.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  cli_w12 is recorded from real child processes, deep_window
in-process, and ks_random for its default and held-out seeds, each result
first checked against C7's identities.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import KS_DEFAULT_SEED, KS_HELD_OUT_SEED, SRC, WORKLOADS, digest  # noqa: E402


def record(workload, seed: int) -> dict[str, dict]:
    table = {}
    for op in workload.setup(seed, False):
        result = op.run()
        if op.check is not None and op.check(result):
            raise SystemExit(f"{op.key}: {op.check(result)}")
        code, data = op.output(result)
        table[op.key] = {"exit": code, "sha256": digest(data)}
    return dict(sorted(table.items()))


def main() -> int:
    sys.path.insert(0, str(SRC))
    goldens = {}
    for name, seeds in (("cli_w12", (0,)), ("deep_window", (0,)),
                        ("ks_random", (KS_DEFAULT_SEED, KS_HELD_OUT_SEED))):
        for seed in seeds:
            workload = WORKLOADS[name]
            goldens[workload.golden_key(seed)] = record(workload, seed)
            print(f"recorded {workload.golden_key(seed)}", flush=True)
    lines = []
    for key, table in sorted(goldens.items()):
        entries = [f"  {json.dumps(op)}: {json.dumps(want)}" for op, want in table.items()]
        lines.append(f" {json.dumps(key)}: {{\n" + ",\n".join(entries) + "\n }")
    workloads.GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
