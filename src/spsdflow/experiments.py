"""Seeded, repeatable experiment scenarios with CSV/JSON outputs.

A scenario maps a configuration plus a per-run seed to a trajectory log.
Runs are repeated ``repeats`` times (run i uses seed master_seed + i).
Descent runs share the target and step together as one batch (one chunk of
seeds per worker of an optional process pool); a run's result does not
depend on its batch, so the emitted files are byte-identical regardless of
the parallelism degree or batching.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .flows import StepControls, integrate
from .manifold import FactoredPoint, GroundTruth, frob
from .rgd import GDConfig, RgdRun, run_rgd_batch
from .rgd import run_rgd  # noqa: F401 - kept importable from this module
from .spurious import (
    haar_orthonormal,
    make_ground_truth,
    perturb_near,
    sample_spurious_tuple,
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

_GD_SCENARIO_COLUMNS = ("step", "dist", "sigma_r", "grad_norm")
_FLOW_SCENARIO_COLUMNS = ("t", "dist", "sigma_r", "grad_norm")


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
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.scenario.startswith("escape") and self.epsilon <= 0:
            raise ValueError("escape scenarios require a positive epsilon")
        if self.scenario == "escape_s_r2" and self.r < 2:
            raise ValueError("rank-deficit-two escape requires r >= 2")
        eig = self.eigenvalues
        eig = default_eigenvalues(self.r) if eig is None else tuple(float(v) for v in eig)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "mode", str(self.mode))

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


def _shared_ground_truth(cfg: ExperimentConfig) -> GroundTruth:
    # One target per experiment; all repeats share it.
    if cfg.scenario == "example_1_1":
        U = np.eye(3)[:, :2]
        return GroundTruth(U, np.array([2.0, 1.0]))
    return make_ground_truth(cfg.n, cfg.r, cfg.eigenvalues, seed=cfg.master_seed)


def _gd_config(cfg: ExperimentConfig) -> GDConfig:
    mode = {"global_fixed": "fixed", "global_varying": "varying"}.get(cfg.scenario, cfg.mode)
    return GDConfig(alpha=cfg.alpha, mode=mode, max_iters=cfg.max_iters, tol_dist=cfg.tol_dist)


def _random_point(gt: GroundTruth, rng: np.random.Generator) -> FactoredPoint:
    """Generic random full-rank point: Haar columns, spectrum near the target's."""
    U = haar_orthonormal(rng, gt.n, gt.r)
    lam = np.sort(rng.uniform(0.5 * gt.d[-1], 1.5 * gt.d[0], gt.r))[::-1]
    return FactoredPoint(U, np.diag(lam))


def _descent_start(cfg: ExperimentConfig, gt: GroundTruth, seed: int) -> FactoredPoint:
    """The seeded start of a descent scenario (its factors only)."""
    if cfg.scenario == "example_1_1":
        # Exact two-eigenvalue setting: start on the invariant set that
        # captures the top eigenpair but replaces the second one.
        return FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    rng = np.random.default_rng(seed)
    if cfg.scenario in ("escape_s_r1", "escape_s_r2"):
        deficit = 1 if cfg.scenario == "escape_s_r1" else 2
        mask = [True] * (cfg.r - deficit) + [False] * deficit
        sp = spurious_point(gt, mask)
        tup = sample_spurious_tuple(sp, gt, seed=int(rng.integers(2**63)))
        radius = cfg.epsilon * frob(sp.dense())
        return perturb_near(tup, radius, seed=int(rng.integers(2**63)))
    return _random_point(gt, rng)


def _gd_result(cfg: ExperimentConfig, run: RgdRun, gt: GroundTruth, gd: GDConfig,
               seed: int) -> RunResult:
    records, columns = run.records, _GD_SCENARIO_COLUMNS
    if cfg.scenario == "example_1_1":
        # Distance of each logged iterate to the rank-one limit is not
        # reconstructible from the standard series; recompute by replay.
        limit = np.diag([2.0, 0.0, 0.0])
        init = _descent_start(cfg, gt, seed)
        dists = _replay_distances(init, gt, gd, len(run.records), limit)
        records = np.column_stack([records, dists]) if len(records) else records.reshape(0, 5)
        columns = columns + ("dist_limit",)
    terminal = {
        "status": run.status,
        "iters": run.iters,
        "dist": run.terminal_dist,
        "sigma_r": run.terminal_sigma_r,
        "grad_norm": run.terminal_grad_norm,
    }
    return RunResult(seed, run.status, records, columns, terminal)


def _replay_distances(init, gt, gd, count, ref):
    from .rgd import rgd_step

    out, pt = [], init
    for _ in range(count):
        out.append(frob(pt.dense() - ref))
        pt = rgd_step(pt, gt, gd).point
    return np.array(out)


def _run_flow(cfg: ExperimentConfig, gt: GroundTruth, seed: int) -> RunResult:
    system = "dlra" if cfg.scenario == "flow_dlra" else "rescaled"
    init = _random_point(gt, np.random.default_rng(seed))
    res = integrate(system, init, gt, cfg.t_end, StepControls(dt=cfg.dt))
    last = res.records[-1]
    terminal = {"status": res.status, "t": float(last[0]), "dist": float(last[1]),
                "sigma_r": float(last[2]), "grad_norm": float(last[3])}
    return RunResult(seed, res.status, res.records, _FLOW_SCENARIO_COLUMNS, terminal)


def _run_seeds(cfg: ExperimentConfig, seeds: list[int], gt: GroundTruth) -> list[RunResult]:
    """Runs of the configured scenario for the given seeds, against the shared target.

    Descent scenarios descend from all their starts as one batch, which
    builds the starts one at a time as it takes them in; flow scenarios run
    one by one.
    """
    if cfg.scenario in ("flow_dlra", "flow_rescaled"):
        return [_run_flow(cfg, gt, seed) for seed in seeds]
    gd = _gd_config(cfg)
    starts = (_descent_start(cfg, gt, seed) for seed in seeds)
    return [_gd_result(cfg, run, gt, gd, seed)
            for run, seed in zip(run_rgd_batch(starts, gt, gd), seeds)]


def run_single(cfg: ExperimentConfig, seed: int) -> RunResult:
    """Execute one run of the configured scenario with the given seed."""
    return _run_seeds(cfg, [seed], _shared_ground_truth(cfg))[0]


def _run_chunk(args) -> list[RunResult]:
    text, seeds = args
    cfg = ExperimentConfig.from_json(text)
    return _run_seeds(cfg, seeds, _shared_ground_truth(cfg))


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

    Per-run CSVs and the summary pair are written when ``out_dir`` is set.
    Results are deterministic in ``master_seed`` and independent of
    ``workers``: each pool worker runs a contiguous chunk of the seeds.
    """
    seeds = [cfg.master_seed + i for i in range(cfg.repeats)]
    if cfg.workers > 1:
        size = -(-len(seeds) // cfg.workers)
        args = [(cfg.to_json(), seeds[i:i + size]) for i in range(0, len(seeds), size)]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            runs = [run for chunk in pool.map(_run_chunk, args) for run in chunk]
    else:
        runs = _run_seeds(cfg, seeds, _shared_ground_truth(cfg))

    columns = runs[0].columns
    stats, n_steps = _pointwise_stats(runs, columns)
    statuses = [r.status for r in runs]
    counts: dict[str, int] = {}
    for s in statuses:
        counts[s] = counts.get(s, 0) + 1
    report = SummaryReport(
        config=cfg,
        columns=columns,
        seeds=seeds,
        statuses=statuses,
        status_counts=counts,
        stats=stats,
        n_steps=n_steps,
        terminals=[r.terminal for r in runs],
        runs=runs,
    )
    if cfg.out_dir is not None:
        emit_summary(report, cfg.out_dir)
    return report


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
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

    header = ["step"]
    for name in report.columns[1:]:
        header += [f"{name}_median", f"{name}_min", f"{name}_max"]
    rows = []
    for k in range(report.n_steps):
        row = [float(k)]
        for name in report.columns[1:]:
            s = report.stats[name]
            row += [s["median"][k], s["min"][k], s["max"][k]]
        rows.append(row)
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
