"""Seeded, repeatable experiment scenarios with CSV/JSON outputs.

A scenario maps a configuration plus a per-run seed to a trajectory log.
Runs are repeated ``repeats`` times (run i uses seed master_seed + i).
The runs share the target and step together as one batch, descent or flow
(one chunk of seeds per worker of an optional process pool); a run's result
does not depend on its batch, so the emitted files are byte-identical
regardless of the parallelism degree or batching.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import _runner
from .flows import FlowResult, StepControls, _integrate_batch
from .flows import integrate  # noqa: F401 - perfbench's tracer wraps this name here
from .manifold import (FactoredPoint, GroundTruth, _int, _real, factored_blocks, frob,
                       residual_norms, target_spectrum)
from .rgd import GDConfig, run_rgd_batch
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
        if self.scenario == "example_1_1":
            # The closed-form setting is pinned to its 3-by-3 geometry.
            object.__setattr__(self, "n", 3)
            object.__setattr__(self, "r", 2)
            object.__setattr__(self, "eigenvalues", (2.0, 1.0))
            object.__setattr__(self, "mode", "fixed")
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
        eig = self.eigenvalues
        eig = default_eigenvalues(self.r) if eig is None else tuple(float(v) for v in eig)
        target_spectrum(eig, self.r)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "mode", str(self.mode))
        _gd_config(self)                  # stepsize and iteration controls
        StepControls(dt=self.dt)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "eigenvalues" in data and data["eigenvalues"] is not None:
            data["eigenvalues"] = tuple(data["eigenvalues"])
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
    mode = {"global_fixed": "fixed", "global_varying": "varying"}.get(cfg.scenario, cfg.mode)
    return GDConfig(alpha=cfg.alpha, mode=mode, max_iters=cfg.max_iters, tol_dist=cfg.tol_dist)


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
    sp = spurious_point(gt, [True] * (cfg.r - deficit) + [False] * deficit)
    radius = cfg.epsilon * frob(sp.dense())
    return lambda lo, hi: _escape_starts(sp, gt, radius, seeds[lo:hi])


def _run_seeds(cfg: ExperimentConfig, seeds: list[int]) -> list[RunResult]:
    """Runs of the configured scenario for the given seeds, against the shared target.

    They descend or flow as one batch, which builds the starts as it takes them in.
    """
    gt = _shared_ground_truth(cfg)
    starts = _starts(cfg, gt, seeds)
    if system := {"flow_dlra": "dlra", "flow_rescaled": "rescaled"}.get(cfg.scenario):
        runs = _integrate_batch(system, len(seeds), starts, gt, cfg.t_end, StepControls(dt=cfg.dt))
        cols = FlowResult.columns
        return [RunResult(seed, status, rows, cols,
                          {"status": status, **dict(zip(cols, map(float, rows[-1])))})
                for (status, rows, _, _), seed in zip(runs, seeds)]
    example = cfg.scenario == "example_1_1"
    dist_limit = [[] for _ in seeds]      # example 1.1: each iterate's distance to its limit

    def observe(k, ids, U, S):
        dist = residual_norms(U, S, *factored_blocks(U, _EXAMPLE_LIMIT), _EXAMPLE_LIMIT.d)[0]
        for i, x in zip(ids, dist):
            dist_limit[i].append(x)

    results = []
    runs = run_rgd_batch(len(seeds), starts, gt, _gd_config(cfg), observe if example else None)
    for run, seed, col in zip(runs, seeds, dist_limit):
        terminal = {"status": run.status, "iters": run.iters, "dist": run.terminal_dist,
                    "sigma_r": run.terminal_sigma_r, "grad_norm": run.terminal_grad_norm}
        records, columns = run.records, run.columns
        if example:
            records, columns = np.column_stack([records, col]), columns + ("dist_limit",)
        results.append(RunResult(seed, run.status, records, columns, terminal))
    return results


def run_single(cfg: ExperimentConfig, seed: int) -> RunResult:
    """Execute one run of the configured scenario with the given seed."""
    return _run_seeds(cfg, [_int("seed", seed, 0)])[0]


def _pointwise_stats(runs: list[RunResult], columns: tuple[str, ...]) -> tuple[dict, int]:
    """Per-step median/min/max of every series over the runs that reached the step."""
    n_steps = max((len(r.records) for r in runs), default=0)
    stats = {}
    for j, name in enumerate(columns[1:], start=1):
        vals = np.full((len(runs), n_steps), np.nan)
        for i, run in enumerate(runs):
            vals[i, :len(run.records)] = run.records[:, j]
        stats[name] = {"median": np.nanmedian(vals, axis=0).tolist(),
                       "min": np.nanmin(vals, axis=0).tolist(),
                       "max": np.nanmax(vals, axis=0).tolist()}
    return stats, n_steps


def run_experiment(cfg: ExperimentConfig) -> SummaryReport:
    """Run all repeats, aggregate pointwise statistics, and emit files.

    When ``out_dir`` is set it is created before the first run, then receives
    the per-run CSVs and the summary pair.
    Results are deterministic in ``master_seed`` and independent of
    ``workers``: each pool worker runs a contiguous chunk of the seeds.
    """
    seeds = [cfg.master_seed + i for i in range(cfg.repeats)]
    if cfg.out_dir is not None:           # a file in the way fails here, not after the runs
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # pulls in multiprocessing: import on use
        size = -(-len(seeds) // cfg.workers)
        chunks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            runs = [run for chunk in pool.map(partial(_run_seeds, cfg), chunks) for run in chunk]
    else:
        runs = _run_seeds(cfg, seeds)

    columns = runs[0].columns
    stats, n_steps = _pointwise_stats(runs, columns)
    statuses = [r.status for r in runs]
    report = SummaryReport(
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
    if cfg.out_dir is not None:
        emit_summary(report, cfg.out_dir)
    return report


def _write_csv(path: Path, header: list[str], rows) -> None:
    template = ",".join(["%.17g"] * len(header))      # '%.17g' % v == format(v, '.17g')
    lines = [",".join(header)] + [template % tuple(row) for row in np.asarray(rows).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def emit_summary(report: SummaryReport, out_dir) -> list[Path]:
    """Write per-run CSVs, the pointwise summary CSV, and a JSON sidecar.

    The sidecar holds the full configuration (round-trippable through the
    config parser), per-run seeds, statuses, terminal metrics, and package
    versions.  An empty trajectory yields a header-only CSV.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, run in enumerate(report.runs):
        p = out / f"run_{i:03d}.csv"
        _write_csv(p, list(run.columns), run.records)
        written.append(p)

    keys = [(name, q) for name in report.columns[1:] for q in ("median", "min", "max")]
    header = ["step"] + [f"{name}_{q}" for name, q in keys]
    series = [report.stats[name][q] for name, q in keys]
    rows = [[float(k)] + [s[k] for s in series] for k in range(report.n_steps)]
    summary_csv = out / "summary.csv"
    _write_csv(summary_csv, header, rows)
    written.append(summary_csv)

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
    written.append(summary_json)
    return written
