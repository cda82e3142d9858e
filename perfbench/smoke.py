"""Tiny-scale smoke run of the benchmark's own code.

    python3 perfbench/smoke.py

Runs every workload for one second with seed 1, once untraced and once
traced, and checks that each result line is correct, failure-free and
carries every metric ``BENCHMARK.json`` names, with its unit and a
finite value, and that the two runs of a workload record the same work
fingerprint.  Exits 0 when all runs pass.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Optional

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: a one-second window reaches a short fingerprinted prefix
RUN_ARGS = ["--seed", "1", "--seconds", "1", "--fingerprint-ops", "40"]


def fingerprint(stderr: str) -> Optional[dict]:
    """The work fingerprint in the record a run names on stderr."""
    for line in stderr.splitlines():
        if line.startswith("record: "):
            return json.loads((ROOT / line[len("record: "):]).read_text())["fingerprint"]
    return None


def check(spec: dict, workload: str, trace: int) -> tuple[list[str], Optional[dict]]:
    """Problems with one run's result line, and the run's fingerprint."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, *RUN_ARGS,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"], None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, want {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} is {value}, must be positive")
    return problems, fingerprint(proc.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        prints = []
        for trace in (0, 1):
            found, fp = check(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
            prints.append(fp)
        if prints[0] is None or prints[0] != prints[1]:
            problems.append(f"{workload}: fingerprints of one seed differ: {prints}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
