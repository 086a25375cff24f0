import json
from pathlib import Path

import numpy as np
import pytest

import spsdflow as sf
from spsdflow.cli import main
from spsdflow.experiments import (ExperimentConfig, RunResult, _pointwise_stats,
                                  default_eigenvalues)


def small_cfg(**kw):
    base = dict(scenario="escape_s_r1", n=24, r=3, alpha=0.2, repeats=2,
                max_iters=2000, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- config

def test_default_eigenvalues_rule():
    assert default_eigenvalues(5) == (5.0, 4.0, 3.0, 2.0, 1.0)
    cfg = small_cfg()
    assert cfg.eigenvalues == (3.0, 2.0, 1.0)


def test_config_json_roundtrip():
    cfg = small_cfg(epsilon=5e-3, workers=2, out_dir="/tmp/somewhere")
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_unknown_fields_and_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps({"scenario": "escape_s_r1", "banana": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="nope")
    with pytest.raises(ValueError):
        small_cfg(repeats=0)
    with pytest.raises(ValueError):
        small_cfg(epsilon=0.0)


def test_example_scenario_pins_geometry():
    cfg = ExperimentConfig(scenario="example_1_1", n=50, r=4, alpha=0.3)
    assert (cfg.n, cfg.r, cfg.eigenvalues) == (3, 2, (2.0, 1.0))


# ------------------------------------------------------------------- runs

def test_example_scenario_matches_geometric_decay(tmp_path):
    cfg = ExperimentConfig(scenario="example_1_1", alpha=0.3, repeats=1,
                           max_iters=300, out_dir=str(tmp_path))
    report = sf.run_experiment(cfg)
    assert report.statuses == ["near_spurious"]
    run = report.runs[0]
    k = run.records[:, 0]
    limit_dist = run.records[:, run.columns.index("dist_limit")]
    assert np.max(np.abs(limit_dist - (1 - 0.3) ** k)) <= 1e-12
    # emitted CSV caries the same column
    text = (tmp_path / "run_000.csv").read_text()
    assert text.splitlines()[0] == "step,dist,sigma_r,grad_norm,dist_limit"


def test_escape_scenario_single_and_summary(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path))
    report = sf.run_experiment(cfg)
    assert report.status_counts == {"converged_to_X": 2}
    for name in ("dist", "sigma_r", "grad_norm"):
        s = report.stats[name]
        assert all(lo <= med <= hi + 1e-300 for lo, med, hi
                   in zip(s["min"], s["median"], s["max"]))
    sidecar = json.loads((tmp_path / "summary.json").read_text())
    back = ExperimentConfig.from_json(json.dumps(sidecar["config"]))
    assert back == cfg
    assert sidecar["seeds"] == [7, 8]


def test_single_repeat_stats_degenerate():
    report = sf.run_experiment(small_cfg(repeats=1))
    for s in report.stats.values():
        assert s["min"] == s["median"] == s["max"]


def test_zero_iteration_run_emits_header_only_csv(tmp_path):
    # huge tolerance: the very first iterate already counts as converged
    cfg = small_cfg(scenario="global_fixed", repeats=1, tol_dist=100.0,
                    out_dir=str(tmp_path))
    report = sf.run_experiment(cfg)
    assert report.statuses == ["converged_to_X"]
    lines = (tmp_path / "run_000.csv").read_text().splitlines()
    assert lines == ["step,dist,sigma_r,grad_norm"]


def test_flow_scenario_records_time_series(tmp_path):
    cfg = ExperimentConfig(scenario="flow_dlra", n=16, r=3, repeats=1, t_end=1.0,
                           dt=1e-2, master_seed=3, out_dir=str(tmp_path))
    report = sf.run_experiment(cfg)
    run = report.runs[0]
    assert run.columns[0] == "t"
    assert run.records.shape[0] == 101
    assert abs(run.records[-1, 0] - 1.0) < 1e-12
    hdr = (tmp_path / "run_000.csv").read_text().splitlines()[0]
    assert hdr == "t,dist,sigma_r,grad_norm"


def test_flow_rescaled_scenario_runs():
    cfg = ExperimentConfig(scenario="flow_rescaled", n=12, r=2, repeats=1,
                           t_end=0.5, master_seed=5, eigenvalues=(2.0, 1.0))
    report = sf.run_experiment(cfg)
    assert report.statuses == ["t_end"]


def test_global_varying_scenario_converges_inside_stability_region():
    cfg = ExperimentConfig(scenario="global_varying", n=20, r=3, alpha=1.5,
                           repeats=3, max_iters=3000, master_seed=11)
    report = sf.run_experiment(cfg)
    assert report.status_counts == {"converged_to_X": 3}


def test_pointwise_stats_over_ragged_runs():
    # runs of different lengths, one of them empty: each step's statistics
    # cover exactly the runs that reached it (even and odd counts)
    rng = np.random.default_rng(0)
    columns = ("step", "dist", "sigma_r", "grad_norm")
    runs = []
    for seed, length in enumerate((5, 0, 3, 8, 5)):
        records = np.column_stack([np.arange(length), rng.standard_normal((length, 3))])
        runs.append(RunResult(seed, "max_iters", records, columns, {}))
    stats, n_steps = _pointwise_stats(runs, columns)
    assert n_steps == 8
    for j, name in enumerate(columns[1:], start=1):
        for k in range(n_steps):
            vals = np.array([r.records[k, j] for r in runs if len(r.records) > k])
            assert stats[name]["median"][k] == float(np.median(vals))
            assert stats[name]["min"][k] == float(vals.min())
            assert stats[name]["max"][k] == float(vals.max())
    empty, n_steps = _pointwise_stats(runs[1:2], columns)
    assert n_steps == 0
    assert empty["dist"] == {"median": [], "min": [], "max": []}


# ------------------------------------------------------------ reproducibility

def _read_all(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _read_csvs(root: Path) -> dict:
    return {k: v for k, v in _read_all(root).items() if k.endswith(".csv")}


def test_reproducible_and_parallel_invariant(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    sf.run_experiment(small_cfg(repeats=3, out_dir=str(a)))
    sf.run_experiment(small_cfg(repeats=3, out_dir=str(b)))
    sf.run_experiment(small_cfg(repeats=3, out_dir=str(c), workers=2))
    fa, fb, fc = _read_csvs(a), _read_csvs(b), _read_csvs(c)
    # identical data regardless of output directory or parallelism degree
    assert fa == fb == fc
    ja = json.loads((a / "summary.json").read_text())
    jc = json.loads((c / "summary.json").read_text())
    for j in (ja, jc):
        j["config"].pop("out_dir")
        j["config"].pop("workers")
    assert ja == jc


def test_different_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    sf.run_experiment(small_cfg(out_dir=str(a)))
    sf.run_experiment(small_cfg(master_seed=8, out_dir=str(b)))
    assert _read_all(a)["run_000.csv"] != _read_all(b)["run_000.csv"]


# ---------------------------------------------------------------------- CLI

def test_cli_runs_scenario(tmp_path, capsys):
    code = main(["escape-s-r1", "--n", "24", "--r", "3", "--repeats", "2",
                 "--seed", "7", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged_to_X=2" in out
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_cli_config_file_equivalent(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path / "direct"))
    sf.run_experiment(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    code = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "cli")])
    assert code == 0
    direct = _read_all(tmp_path / "direct")
    cli = _read_all(tmp_path / "cli")
    for name, blob in direct.items():
        if name.endswith(".csv"):
            assert cli[name] == blob


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "escape_s_r1", "repeats": 0}))
    assert main(["run", "--config", str(bad)]) == 2
    # no room for the fill-in directions: fails while sampling, at runtime
    assert main(["escape-s-r1", "--n", "3", "--r", "3", "--repeats", "1"]) == 3


def test_cli_eigenvalue_flag():
    code = main(["global-fixed", "--n", "12", "--r", "2", "--eigenvalues", "4,1",
                 "--repeats", "1", "--max-iters", "500", "--alpha", "0.4"])
    assert code == 0
