"""Seeded, repeatable experiment scenarios with CSV/JSON outputs.

A scenario maps a configuration plus a per-run seed to a trajectory log.
Runs are repeated ``repeats`` times (run i uses seed master_seed + i).
The runs share the target and step together as one batch, descent or flow
(one chunk of seeds per worker of an optional process pool); a run's result
does not depend on its batch, so the emitted files are byte-identical
whatever ``workers`` or the blocks (README states the BLAS-thread limit).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import _runner
from .flows import FlowResult, StepControls, _integrate_batch
from .flows import integrate  # noqa: F401 - perfbench's tracer wraps this name here
from .manifold import (FactoredPoint, GroundTruth, _int, _real, factored_blocks,
                       residual_norms, target_spectrum)
from .rgd import GDConfig, RgdRun, run_rgd_batch
from .rgd import run_rgd  # noqa: F401 - perfbench's tracer wraps this name here
from .spurious import (
    _escape_starts,
    _tagged_rng,
    haar_orthonormal,
    make_ground_truth,
    perturb_near,  # noqa: F401 - perfbench's tracer wraps this name here
    sample_spurious_tuple,  # noqa: F401 - perfbench's tracer wraps this name here
    spurious_point,
)

SCENARIOS = (
    "example_1_1",
    "escape_s_r1",
    "escape_s_r2",
    "global_fixed",
    "global_varying",
    "flow_dlra",
    "flow_rescaled",
)

_ESCAPE_DEFICIT = {"escape_s_r1": 1, "escape_s_r2": 2}   # rank deficit of the start
_FLOW_SYSTEM = {"flow_dlra": "dlra", "flow_rescaled": "rescaled"}
# Peak bytes over n^2 of one escape start's dense retraction through the full eigh, which any
# start may take: 42.3 and 41.3 above a 38 MB base at n = 1000 and 2000 (one start, one BLAS
# thread; 43.3 and 41.6 when measured again).  The top-r subset solve, whose dense W is built
# in place, peaks at 19.6, 17.8 and 17.2 at n = 1000, 2000 and 3000.
_START_BYTES_PER_ENTRY = 42
# Peak bytes per logged double of a flow experiment (its log, sorted copy and padded statistics):
# the slope of peak RSS over 25, 50 and 100 runs of flow-dlra --n 8 --r 2 --dt 1e-3 --t-end 5
# with --out-dir, 5,001 rows of four columns each, was 29.7 to 35.5 across measurements.
_LOG_BYTES_PER_ENTRY = 36
# The fields that a scenario fixes, whatever the config gives: example 1.1's closed-form 3-by-3
# geometry and stepsize rule, and the global scenarios' rules; the others take ``mode``.
_PINNED = {"example_1_1": {"n": 3, "r": 2, "eigenvalues": (2.0, 1.0), "mode": "fixed"},
           "global_fixed": {"mode": "fixed"}, "global_varying": {"mode": "varying"}}


def _physical_memory() -> float:
    """Bytes of physical memory by ``os.sysconf``; inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def default_eigenvalues(r: int) -> tuple[float, ...]:
    """Default target spectrum r, r-1, ..., 1: distinct and well conditioned."""
    return tuple(float(r - i) for i in range(r))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    ``epsilon`` scales the perturbation radius relative to the Frobenius
    norm of the spurious point in the escape scenarios.  ``eigenvalues``
    defaults to the decreasing integers r..1.  All fields round-trip
    through JSON.
    """

    scenario: str
    n: int = 100
    r: int = 5
    eigenvalues: tuple[float, ...] | None = None
    alpha: float = 0.2
    mode: str = "fixed"
    epsilon: float = 1e-2
    repeats: int = 1
    max_iters: int = 5000
    master_seed: int = 0
    tol_dist: float = 1e-6
    dt: float = 1e-2
    t_end: float = 5.0
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        for name, value in _PINNED.get(self.scenario, {}).items():
            object.__setattr__(self, name, value)
        for name, least in dict(n=1, r=1, repeats=1, max_iters=0, master_seed=0, workers=1).items():
            value = getattr(self, name)
            if type(value) is not int or value < least:   # JSON ints only: no floats or bools
                raise ValueError(f"{name} must be an int of at least {least}")
        if not 1 <= self.r <= self.n:
            raise ValueError("need 1 <= r <= n")
        _real("epsilon", self.epsilon)
        deficit = _ESCAPE_DEFICIT.get(self.scenario, 0)
        if self.r <= deficit or self.n - self.r < deficit:   # at r = deficit the point is zero
            raise ValueError(f"escape from rank deficit {deficit} needs n - r >= {deficit} and "
                             f"r > {deficit}, else the spurious point is the zero matrix")
        _real("t_end", self.t_end, zero=True)
        eig = default_eigenvalues(self.r) if self.eigenvalues is None else self.eigenvalues
        d = target_spectrum(eig, self.r)  # on the value as given: a string or a bool is an error
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in eig))
        # runs step on X / c (_runner.unit): a norm over c must not overflow when squared
        c = _runner.unit(d)
        bound = math.sqrt(np.finfo(float).max) * c
        if not math.hypot(*d) < bound:
            raise ValueError(f"eigenvalues span too wide a range: runs step on X / c, c = {c:.3g} "
                             "(the power of two nearest d_r), and ||X / c||_F^2 overflows")
        # a start lies within 2 epsilon ||Z_sp||_F of the spurious point (perturb_near), which
        # lies ||d_miss|| from the target; the logged distance is c times a square root of sums
        # of squares at the runs' unit scale
        kept, miss = np.split(d, [self.r - deficit])
        d_miss = math.hypot(*miss)
        far = 2 * self.epsilon * math.hypot(*kept) + d_miss
        if deficit and not far < bound:
            raise ValueError(f"epsilon = {self.epsilon:.3g} is too large: a start may lie up to "
                             f"2 epsilon ||Z_sp||_F + ||d_miss|| = {far:.3g} from the target, "
                             "and the square of that distance over c overflows")
        _gd_config(self)                  # stepsize and iteration controls
        if deficit and not self.tol_dist < d_miss:   # else the spurious point counts as converged
            raise ValueError(f"tol_dist = {self.tol_dist:.3g} must be below the spurious point's "
                             f"distance to the target, ||d_miss|| = {d_miss:.3g}")
        StepControls(dt=self.dt)
        steps = self.t_end / self.dt      # ceil(steps) > max_iters exactly when steps > max_iters
        if self.scenario in _FLOW_SYSTEM and steps > self.max_iters:
            count = math.ceil(steps) if steps < math.inf else steps
            raise ValueError(f"the flow needs ceil(t_end / dt) = {count:.15g} RK4 steps, "
                             f"above max_iters = {self.max_iters}")
        limit = _physical_memory()
        rows = math.ceil(steps) + 1 if self.scenario in _FLOW_SYSTEM else 0   # per flow run
        log = _LOG_BYTES_PER_ENTRY * len(FlowResult.columns) * rows * self.repeats
        if log > limit:
            raise ValueError(f"a flow of repeats = {self.repeats} runs of ceil(t_end / dt) + 1 = "
                             f"{rows} rows each logs about {log / 2**30:.3g} GiB, above the "
                             f"{limit / 2**30:.3g} GiB of physical memory")
        at_once = min(self.workers, self.repeats, os.cpu_count() or 1)   # a start per process
        peak = _START_BYTES_PER_ENTRY * self.n**2 * at_once
        if deficit and peak > limit:
            raise ValueError(f"escape starts at n = {self.n} need about {peak / 2**30:.3g} GiB "
                             f"({at_once} at once), above the {limit / 2**30:.3g} GiB of "
                             f"physical memory")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RunResult:
    seed: int
    status: str
    records: np.ndarray
    columns: tuple[str, ...]
    terminal: dict


@dataclass
class SummaryReport:
    """Pointwise median/min/max over repeats for each recorded series."""

    config: ExperimentConfig
    columns: tuple[str, ...]
    seeds: list[int]
    statuses: list[str]
    status_counts: dict
    stats: dict            # series name -> {"median": [...], "min": [...], "max": [...]}
    n_steps: int
    terminals: list[dict]
    runs: list[RunResult] = field(repr=False, default_factory=list)


# Example 1.1's fixed 3-by-3 geometry: target diag(2, 1, 0), start diag(2, 0, 1)
# (it keeps the top eigenpair and replaces the second), and the rank-one limit
# diag(2, 0, 0) that descent from that start approaches like (1 - alpha)^k.
_EXAMPLE_TARGET = GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
_EXAMPLE_START = FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
_EXAMPLE_LIMIT = GroundTruth(np.eye(3)[:, :1], np.array([2.0]))


def _shared_ground_truth(cfg: ExperimentConfig) -> GroundTruth:
    # One target per experiment; all repeats share it.
    if cfg.scenario == "example_1_1":
        return _EXAMPLE_TARGET
    return make_ground_truth(cfg.n, cfg.r, cfg.eigenvalues, seed=cfg.master_seed)


def _gd_config(cfg: ExperimentConfig) -> GDConfig:
    return GDConfig(alpha=cfg.alpha, mode=cfg.mode, max_iters=cfg.max_iters, tol_dist=cfg.tol_dist)


def _random_point(gt: GroundTruth, seed: int) -> FactoredPoint:
    """Generic random full-rank point: Haar columns, spectrum near the target's."""
    rng = _tagged_rng(seed, tag=3)      # the bare seed is the target's own stream
    U = haar_orthonormal(rng, gt.n, gt.r)
    lam = np.sort(rng.uniform(0.5 * gt.d[-1], 1.5 * gt.d[0], gt.r))[::-1]
    return FactoredPoint(U, np.diag(lam))


def _starts(cfg: ExperimentConfig, gt: GroundTruth, seeds: list[int]):
    """Builder of the stacked starts (U, S) of seeds[lo:hi]; an escape's point and radius once."""
    if cfg.scenario == "example_1_1":
        return lambda lo, hi: _runner.stack([_EXAMPLE_START] * (hi - lo))
    if not (deficit := _ESCAPE_DEFICIT.get(cfg.scenario)):
        return lambda lo, hi: _runner.stack([_random_point(gt, seed) for seed in seeds[lo:hi]])
    c = _runner.unit(gt.d)                # drawn on X / c, where the runs step
    sp = spurious_point(GroundTruth(gt.U, gt.d / c), [True] * (cfg.r - deficit) + [False] * deficit)
    radius = cfg.epsilon * math.hypot(*sp.d_kept)     # ||Z_sp||_F, scaled: no underflow

    def build(lo, hi):
        U, S = _escape_starts(sp, gt, radius, seeds[lo:hi])
        return U, c * S
    return build


def _run_seeds(cfg: ExperimentConfig, seeds: list[int]) -> Iterator[RunResult]:
    """Runs of the configured scenario for the given seeds, against the shared target.

    They descend or flow as one batch, which builds the starts as it takes them in, and come in
    seed order as each block of them ends.
    """
    gt = _shared_ground_truth(cfg)
    starts = _starts(cfg, gt, seeds)
    if system := _FLOW_SYSTEM.get(cfg.scenario):
        runs = _integrate_batch(system, len(seeds), starts, gt, cfg.t_end, StepControls(dt=cfg.dt))
        cols = FlowResult.columns
        return (RunResult(seed, status, rows, cols,
                          {"status": status, **dict(zip(cols, map(float, rows[-1])))})
                for (status, rows, _, _), seed in zip(runs, seeds))
    example = cfg.scenario == "example_1_1"

    def dist_limit(x, ids, U, S):         # example 1.1: each iterate's distance to its limit
        return [residual_norms(U, S, *factored_blocks(U, _EXAMPLE_LIMIT), _EXAMPLE_LIMIT.d)[0]]

    columns = RgdRun.columns + (("dist_limit",) if example else ())
    runs = run_rgd_batch(len(seeds), starts, gt, _gd_config(cfg), dist_limit if example else None)
    return (RunResult(seed, run.status, run.records, columns,
                      {"status": run.status, "iters": run.iters, "dist": run.terminal_dist,
                       "sigma_r": run.terminal_sigma_r, "grad_norm": run.terminal_grad_norm})
            for run, seed in zip(runs, seeds))


def _run_chunk(cfg: ExperimentConfig, seeds: list[int]) -> list[RunResult]:
    """A pool worker's runs, as the one list that it sends back."""
    return list(_run_seeds(cfg, seeds))


def _stream(cfg: ExperimentConfig, seeds: list[int]) -> Iterator[RunResult]:
    """The runs of all seeds in order, as each block ends, or each chunk of a pool of workers."""
    if cfg.workers == 1:
        yield from _run_seeds(cfg, seeds)
        return
    from concurrent.futures import ProcessPoolExecutor   # pulls in multiprocessing: import on use
    size = -(-len(seeds) // cfg.workers)
    chunks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    # fork starts every worker at the first submit: no more than there are chunks or cores
    with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
        for chunk in pool.map(partial(_run_chunk, cfg), chunks):
            yield from chunk


def run_single(cfg: ExperimentConfig, seed: int) -> RunResult:
    """Execute one run of the configured scenario with the given seed."""
    [run] = _run_seeds(cfg, [_int("seed", seed, 0)])
    return run


def _pointwise_stats(runs: list[RunResult], columns: tuple[str, ...]) -> tuple[dict, int]:
    """Per-step median/min/max of every series over the runs that reached the step."""
    n_steps = max((len(r.records) for r in runs), default=0)
    vals = np.full((len(runs), n_steps, len(columns)), np.nan)
    for i, run in enumerate(runs):
        vals[i, :len(run.records)] = run.records
    stats = {name: {"median": np.nanmedian(vals[..., j], axis=0).tolist(),
                    "min": np.nanmin(vals[..., j], axis=0).tolist(),
                    "max": np.nanmax(vals[..., j], axis=0).tolist()}
             for j, name in enumerate(columns[1:], start=1)}
    return stats, n_steps


def _summarize(cfg: ExperimentConfig, seeds: list[int], runs: list[RunResult]) -> SummaryReport:
    """The report of the runs: their pointwise statistics, statuses and terminal metrics."""
    columns = runs[0].columns
    stats, n_steps = _pointwise_stats(runs, columns)
    statuses = [r.status for r in runs]
    return SummaryReport(
        config=cfg,
        columns=columns,
        seeds=seeds,
        statuses=statuses,
        status_counts=dict(Counter(statuses)),
        stats=stats,
        n_steps=n_steps,
        terminals=[r.terminal for r in runs],
        runs=runs,
    )


def run_experiment(cfg: ExperimentConfig) -> SummaryReport:
    """Run all repeats, aggregate pointwise statistics, and emit files.

    When ``out_dir`` is set it is created before the first run.  Each run's CSV is written on the
    calling thread as the run's block (or pool chunk) ends; the summary pair follows the last run
    file, ``summary.json`` last of all.  A failed write raises at that write.  If a run or a
    write raises, the run files that this call began to write are removed before the error
    propagates.
    Results are deterministic in ``master_seed`` and independent of ``workers``: each pool
    worker runs a contiguous chunk of the seeds.
    """
    seeds = [cfg.master_seed + i for i in range(cfg.repeats)]
    if cfg.out_dir is None:
        return _summarize(cfg, seeds, list(_stream(cfg, seeds)))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)   # a file in the way fails here, not after the runs
    runs = []
    try:
        for run in _stream(cfg, seeds):
            runs.append(run)
            _write_csv(_run_path(out, len(runs) - 1), run.columns, run.records)
        report = _summarize(cfg, seeds, runs)
        _write_summary(report, out)
    except BaseException:
        for i in range(len(runs)):
            with contextlib.suppress(OSError):          # the error that got here propagates
                _run_path(out, i).unlink(missing_ok=True)
        raise
    return report


def _run_path(out: Path, i: int) -> Path:
    return out / f"run_{i:03d}.csv"


def _write_csv(path: Path, header, rows) -> None:
    rows = np.asarray(rows)
    template = "\n" + ",".join(["%.17g"] * len(header))   # '%.17g' % v == format(v, '.17g')
    body = (template * len(rows)) % tuple(rows.ravel().tolist())
    path.write_text(",".join(header) + body + "\n", encoding="utf-8", newline="\n")


def _write_summary(report: SummaryReport, out: Path) -> list[Path]:
    """Write the pointwise summary CSV, then the JSON sidecar; returns both paths."""
    keys = [(name, q) for name in report.columns[1:] for q in ("median", "min", "max")]
    header = ["step"] + [f"{name}_{q}" for name, q in keys]
    series = [report.stats[name][q] for name, q in keys]
    rows = [[float(k)] + [s[k] for s in series] for k in range(report.n_steps)]
    summary_csv = out / "summary.csv"
    _write_csv(summary_csv, header, rows)

    sidecar = {
        "config": json.loads(report.config.to_json()),
        "seeds": report.seeds,
        "statuses": report.statuses,
        "status_counts": report.status_counts,
        "terminals": report.terminals,
        "versions": {"spsdflow": __version__, "numpy": np.__version__},
    }
    summary_json = out / "summary.json"
    summary_json.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8", newline="\n")
    return [summary_csv, summary_json]


def emit_summary(report: SummaryReport, out_dir) -> list[Path]:
    """Write per-run CSVs, the pointwise summary CSV, and a JSON sidecar.

    The sidecar holds the full configuration (round-trippable through the
    config parser), per-run seeds, statuses, terminal metrics, and package
    versions.  An empty trajectory yields a header-only CSV.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [_run_path(out, i) for i in range(len(report.runs))]
    for path, run in zip(written, report.runs):
        _write_csv(path, run.columns, run.records)
    return written + _write_summary(report, out)
