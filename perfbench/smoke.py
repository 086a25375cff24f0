"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at the tiny size, with tracing off and on, and
checks that the last output line is the result object: every metric that
BENCHMARK.json declares for that mode is there with its declared unit, and
every correctness gate passed.  Then checks that the benchmark refuses,
with a non-zero exit and no result, to run in a directory holding only
BENCHMARK.json and the benchmark's files.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"gates: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}; {proc.stderr.strip()[-2000:]}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        extra = sorted(set(printed) - set(declared))
        missing = sorted(set(declared) - set(printed))
        wrong = sorted(n for n in set(declared) & set(printed) if printed[n] != declared[n])
        problems.append(f"metrics: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"{name} is not a number: {m['value']!r}")
    return problems


def check_bare() -> list[str]:
    """Without library sources the benchmark must fail without printing a result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit code {proc.returncode}, output {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    cases = [(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]
    for workload, trace in cases:
        problems = check(workload, trace)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
        for p in problems:
            print(f"     {p}")
    problems = check_bare()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses a directory without sources")
    for p in problems:
        print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
