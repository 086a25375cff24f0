"""Benchmark runner for spsdflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs come from
``--seed``; executions of the workload repeat, all in this one process with
one BLAS thread and ``workers=1``, until about ``--seconds`` have been
measured.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of traced executions with
``--trace 1``.  End-to-end times are in reference seconds: measured times
scaled by the host's slowdown, which a fixed reference kernel measures at
check points about a second apart (see perfbench/reference.py).  Environment, per-execution figures (measured and
scaled), output digests and the spans go to ``.perfbench_out/`` in the
checkout.  Exit code 2 means the
checkout holds no spsdflow sources.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")      # relative to ROOT, so output files name no absolute path
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("escape_n100", "escape_n1000", "flow_rescaled_n200", "boundary_spectra")
MIN_EXECUTIONS = 3      # per run with --trace 0; --trace 1 makes at least one untraced and traced pair
COUNT_UNITS = ("count", "1/step", "ratio", "bytes")   # traced values that must repeat exactly
COLD_STARTS = 5         # timed cold interpreters for setup_s, after one untimed


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    return p.parse_args(argv)


def source_digest() -> str:
    """Digest of the library sources, which names the code version under test."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": 1,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_sha256": source_digest(),
    }


def cold_setup_s(workload, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Times for a fresh interpreter to import spsdflow, configure and build the
    target, and the host's interpreter slowdown around each."""
    import reference

    code = workload.setup_code(seed, tiny)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)  # writes bytecode
    times, slow = [], [reference.slowdown("interp")]
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        slow.append(reference.slowdown("interp"))
    return times, [(a + b) / 2 for a, b in zip(slow, slow[1:])]


def measure(seconds: float, minimum: int, execute) -> list:
    """Call ``execute`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    results, spent = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(execute(len(results)))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + statistics.median(spent) > seconds:
            return results


def check_digests(key: str, digests: list[str], errors: list[str]) -> bool:
    """Identical seeds must give identical outputs: within this run, and within
    every run of the same sources (keyed by ``key``) in this checkout."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    expected = known.setdefault(key, digests[0])
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)
    bad = [d for d in digests if d != expected]
    if bad:
        errors.append(f"outputs differ between executions of one seed: {sorted(set(digests))} "
                      f"against {expected}")
    return not bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spsdflow" / "__init__.py").is_file():
        print(f"error: no spsdflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:          # before numpy is imported anywhere
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import reference
    import tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    scratch = OUT / "tmp" / tag
    for sub in ("results", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)
    env = environment(args)

    # Warm-up at the smoke size: imports, LAPACK workspaces and code paths.
    workload.execute(args.seed, scratch, tiny=True)
    reference.slowdown(workload.reference)

    traces, clocks = [], []
    if args.trace:
        def execute(i):
            plain = workload.execute(args.seed, scratch, tiny)
            t = tracer.Tracer(f"{tag}-{i}")
            with tracer.instrument(t):
                traced = workload.execute(args.seed, scratch, tiny)
            traces.append(t)
            return [plain, traced]
        outcomes = [o for pair in measure(args.seconds, 1, execute) for o in pair]
    else:
        setup_times, setup_slow = cold_setup_s(workload, args.seed, tiny)

        def execute(i):
            clocks.append(reference.Clock(workload.reference))
            return workload.execute(args.seed, scratch, tiny, clocks[-1])
        outcomes = measure(args.seconds, MIN_EXECUTIONS, execute)
    shutil.rmtree(scratch, ignore_errors=True)

    errors = [e for o in outcomes for e in o.errors]
    deterministic = check_digests(f"{env['source_sha256']}/{tag}",
                                  [o.digest for o in outcomes], errors)
    attempted = sum(len(o.units_ok) for o in outcomes)
    failed = sum(not ok for o in outcomes for ok in o.units_ok)
    if not deterministic:
        failed = attempted

    if args.trace:
        per_exec = [tracer.layer_metrics(t) for t in traces]
        counts = [{k: v for k, (v, u) in m.items() if u in COUNT_UNITS} for m in per_exec]
        if any(c != counts[0] for c in counts):
            errors.append("traced counts differ between executions of one seed")
            failed = attempted
        metrics = {name: {"value": counts[0][name] if unit in COUNT_UNITS
                          else statistics.median(m[name][0] for m in per_exec), "unit": unit}
                   for name, (_, unit) in per_exec[0].items()}
        overhead = statistics.median(traced.wall_s / max(plain.wall_s, 1e-9) - 1.0
                                     for plain, traced in zip(outcomes[0::2], outcomes[1::2]))
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        with open(OUT / "traces" / f"{tag}.jsonl", "w", encoding="utf-8") as fh:
            for t in traces:
                for sid, name, start, end, parent, run_id in t.spans:
                    fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "run": run_id}) + "\n")
    else:
        timed = [o for o in outcomes if o.wall_s > 0] or outcomes
        units = len(outcomes[0].units_ok)
        metrics = {
            "wall_s": (statistics.median(o.ref_wall_s for o in timed), "s"),
            "run_steps_per_s": (statistics.median(o.steps / max(o.ref_wall_s, 1e-9)
                                                  for o in timed), "1/s"),
            "units_per_s": (statistics.median(units / max(o.ref_wall_s, 1e-9)
                                              for o in timed), "1/s"),
            "setup_s": (statistics.median(t / f for t, f in zip(setup_times, setup_slow)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "units_ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    result = {"correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "environment": env, "errors": errors,
              "executions": [{"wall_s": o.wall_s, "ref_wall_s": o.ref_wall_s, "steps": o.steps,
                              "units": len(o.units_ok), "failed": o.units_ok.count(False),
                              "digest": o.digest}
                             for o in outcomes]}
    if not args.trace:
        record["setup"] = {"measured_s": setup_times, "slowdown": setup_slow}
        record["slowdowns"] = [c.slowdowns for c in clocks]
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("digests: " + " ".join(sorted({o.digest for o in outcomes})))
    if not args.trace:
        print(f"host slowdown ({workload.reference} reference), median per execution: "
              + " ".join(f"{statistics.median(c.slowdowns):.3f}" for c in clocks if c.slowdowns))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
