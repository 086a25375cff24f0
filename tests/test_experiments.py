import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spsdflow as sf
from spsdflow import cli, experiments, rgd
from spsdflow.cli import _config_from_args, build_parser, main
from spsdflow.experiments import (SCENARIOS, ExperimentConfig, RunResult, SummaryReport,
                                  _pointwise_stats, _random_point, _shared_ground_truth,
                                  default_eigenvalues)
from spsdflow.manifold import factored_blocks


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


_positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def valid_configs(draw):
    """Any valid configuration: every scenario, n - r and r at least 2 (escape from deficit two)."""
    n = draw(st.integers(4, 40))
    r = draw(st.integers(2, n - 2))
    eigenvalues = draw(st.none() | st.lists(_positive, min_size=r, max_size=r, unique=True))
    return ExperimentConfig(
        scenario=draw(st.sampled_from(SCENARIOS)), n=n, r=r,
        eigenvalues=eigenvalues, alpha=draw(_positive),
        mode=draw(st.sampled_from(["fixed", "varying"])), epsilon=draw(_positive),
        repeats=draw(st.integers(1, 1000)), max_iters=draw(st.integers(0, 10**6)),
        master_seed=draw(st.integers(0, 2**63)), tol_dist=draw(_positive),
        dt=draw(_positive), t_end=draw(st.floats(0.0, 1e6)),
        out_dir=draw(st.none() | st.text(max_size=12)), workers=draw(st.integers(1, 64)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(valid_configs())
def test_any_valid_config_roundtrips_through_json(cfg):
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


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


def test_random_start_of_run_0_is_generic():
    # global_* and flow_* starts draw from their own stream, not the target's,
    # so run 0's columns reach outside the target's eigenvectors
    cfg = ExperimentConfig(scenario="global_varying")
    gt = _shared_ground_truth(cfg)
    _, B, _ = factored_blocks(_random_point(gt, cfg.master_seed).U, gt)
    assert np.linalg.matrix_rank(B) == cfg.r


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


def test_reproducible_and_parallel_invariant(tmp_path, monkeypatch):
    for name, fields in (("descent", {}), ("flow", {"scenario": "flow_rescaled", "t_end": 0.3})):
        a, b, c, d = (tmp_path / name / x for x in "abcd")
        sf.run_experiment(small_cfg(repeats=5, out_dir=str(a), **fields))
        sf.run_experiment(small_cfg(repeats=5, out_dir=str(b), **fields))
        with monkeypatch.context() as m:
            m.setattr(rgd, "BLOCK_ENTRIES", 24 * 3)          # blocks of one run
            sf.run_experiment(small_cfg(repeats=5, out_dir=str(c), workers=2, **fields))
        sf.run_experiment(small_cfg(repeats=5, out_dir=str(d), workers=3, **fields))  # 2, 2, 1 seeds
        fa, fb, fc, fd = _read_csvs(a), _read_csvs(b), _read_csvs(c), _read_csvs(d)
        # identical data regardless of output directory, parallelism degree, chunks or blocks
        assert fa == fb == fc == fd
        ja, jc, jd = (json.loads((x / "summary.json").read_text()) for x in (a, c, d))
        for j in (ja, jc, jd):
            j["config"].pop("out_dir")
            j["config"].pop("workers")
        assert ja == jc == jd


def test_import_leaves_the_process_pool_unloaded():
    # only workers > 1 starts a pool; every other run should not pay for importing one
    src = str(Path(sf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, spsdflow; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("below", ["", "sub"])
def test_run_experiment_out_dir_in_the_way_of_a_file_raises_before_any_run(tmp_path,
                                                                            monkeypatch, below):
    # the library checks the output directory up front too, not only the CLI
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" / below if below else tmp_path / "file"
    monkeypatch.setattr(experiments, "_run_seeds", lambda cfg, seeds: pytest.fail("a run started"))
    with pytest.raises(OSError):
        sf.run_experiment(ExperimentConfig(scenario="global_fixed", n=12, r=2, repeats=3,
                                           out_dir=str(out)))
    assert (tmp_path / "file").read_text() == "kept\n"


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from(["escape_s_r1", "flow_rescaled", "example_1_1"]),
       repeats=st.integers(1, 7), cap=st.integers(1, 4))
def test_outputs_are_byte_identical_across_block_sizes(scenario, repeats, cap):
    # blocks of cap runs, a short tail joining the last one, write what one block writes
    cfg = ExperimentConfig(scenario=scenario, n=8, r=2, repeats=repeats, max_iters=300,
                           dt=0.05, t_end=0.5, master_seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        one, split = Path(tmp, "one"), Path(tmp, "split")
        sf.run_experiment(dataclasses.replace(cfg, out_dir=str(one)))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rgd, "BLOCK_ENTRIES", cap * cfg.n * cfg.r)
            sf.run_experiment(dataclasses.replace(cfg, out_dir=str(split)))
        assert len(_read_csvs(one)) == repeats + 1
        assert _read_csvs(one) == _read_csvs(split)


def test_csv_rows_keep_special_values_exactly(tmp_path):
    # one '%.17g' template per row writes what format(v, '.17g') writes per value
    cols = ("step", "dist", "sigma_r", "grad_norm")
    records = np.array([[0.0, np.nan, np.inf, -np.inf], [1.0, -0.0, 5e-324, 1e308],
                        [2.0, 0.1, 1 / 3, -2.5e-17]])
    run = RunResult(0, "max_iters", records, cols, {})
    stats = {name: {q: records[:, j].tolist() for q in ("median", "min", "max")}
             for j, name in enumerate(cols[1:], start=1)}
    report = SummaryReport(small_cfg(), cols, [0], ["max_iters"], {"max_iters": 1}, stats,
                           len(records), [{}], [run])
    sf.emit_summary(report, tmp_path)
    lines = (tmp_path / "run_000.csv").read_text().splitlines()
    assert lines[1:] == ["0,nan,inf,-inf", "1,-0,4.9406564584124654e-324,1e+308",
                         "2,0.10000000000000001,0.33333333333333331,-2.4999999999999999e-17"]
    assert lines[1:] == [",".join(format(v, ".17g") for v in row) for row in records]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[2] == "1," + ",".join(["-0"] * 3 + ["4.9406564584124654e-324"] * 3
                                         + ["1e+308"] * 3)


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
    # no room for the fill-in directions: rejected with the configuration
    assert main(["escape-s-r1", "--n", "3", "--r", "3", "--repeats", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["global-fixed", "--n", "3", "--r", "5"],
    ["global-fixed", "--alpha", "-1"],
    ["global-fixed", "--alpha", "nan"],
    ["escape-s-r1", "--epsilon", "nan"],
    ["global-fixed", "--eigenvalues", "1,1,2,3,4"],
    ["global-fixed", "--eigenvalues", "3,2"],
    ["global-fixed", "--max-iters", "-1"],
    ["global-fixed", "--tol-dist", "0"],
    ["escape-s-r1", "--n", "5", "--r", "5"],
    ["escape-s-r2", "--n", "6", "--r", "5"],
    ["flow-rescaled", "--dt", "-0.1"],
    ["flow-rescaled", "--t-end", "-1"],
    ["flow-dlra", "--dt", "0"],
    ["global-fixed", "--workers", "0"],
    ["global-fixed", "--workers", "-3"],
    ["flow-rescaled", "--n", "20", "--r", "2", "--t-end", "inf"],
    ["global-fixed", "--alpha", "inf"],
    ["escape-s-r1", "--epsilon", "inf"],
    ["global-fixed", "--tol-dist", "inf"],
    ["flow-dlra", "--dt", "inf"],
    ["global-fixed", "--seed", "-1"],
    ["escape-s-r1", "--n", "20", "--r", "3", "--eigenvalues", ""],
])
def test_cli_configuration_errors_exit_2(argv, capsys):
    assert main(argv + ["--repeats", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"])
def test_cli_out_dir_in_the_way_of_a_file_exits_2_before_any_run(tmp_path, capsys,
                                                                  monkeypatch, below):
    # an existing file, or a path under one, cannot hold the outputs
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" / below if below else tmp_path / "file"
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a run started"))
    assert main(["global-fixed", "--n", "12", "--r", "2", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out) in err
    assert (tmp_path / "file").read_text() == "kept\n"


_FLOATS = ["nan", "inf", "-inf", "-1", "0", "0.05", "0.5", "3"]
_CLI_VALUES = {
    "--n": ["-1", "0", "2", "6", "2.5"], "--r": ["-1", "0", "1", "2", "3"],
    "--repeats": ["-1", "0", "1", "3"], "--max-iters": ["-1", "0", "50"],
    "--seed": ["-1", "0", "7"], "--workers": ["0", "1"], "--mode": ["fixed", "varying", "x"],
    "--eigenvalues": ["", ",", "a", "2,1", "1,2", "1,1", "nan,1", "inf,1", "-1,2", "3,2,1"],
    **{flag: _FLOATS for flag in ("--alpha", "--epsilon", "--tol-dist", "--dt", "--t-end")},
}


class _Hang(BaseException):
    """Raised by the alarm; not an Exception, so the CLI cannot report it as an exit code."""


def _hang(signum, frame):
    raise _Hang


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from([name.replace("_", "-") for name in SCENARIOS]),
       flags=st.lists(st.sampled_from(sorted(_CLI_VALUES)).flatmap(
           lambda f: st.sampled_from(_CLI_VALUES[f]).map(lambda v: f"{f}={v}")), max_size=5))
def test_cli_exits_0_2_or_3_and_terminates(command, flags):
    # small runs by default; a later flag overrides an earlier one
    argv = [command, "--n=6", "--r=2", "--repeats=2", "--max-iters=50", "--dt=0.05",
            "--t-end=0.3"] + flags
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("fields", [
    {"n": 30.5}, {"repeats": 2.5}, {"workers": 1.5}, {"max_iters": 10.5},
    {"master_seed": -1}, {"repeats": True},
])
def test_cli_config_file_integer_fields_exit_2(tmp_path, capsys, fields):
    # json.loads keeps 2.5 a float and true a bool: the config must reject them itself
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "global_fixed", "n": 12, "r": 2, **fields}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "must be an int of at least" in capsys.readouterr().err


def test_config_rejects_counts_that_do_not_roundtrip_through_json():
    # a numpy count would pass the runs and then fail writing summary.json
    with pytest.raises(ValueError, match="n must be an int"):
        small_cfg(n=np.int64(24))


def _parsed(argv):
    return _config_from_args(build_parser().parse_args(argv))


def test_cli_flags_fill_config_fields():
    # an absent flag leaves the ExperimentConfig default in place
    for name in ("escape_s_r1", "global_varying", "flow_dlra"):
        assert _parsed([name.replace("_", "-")]) == ExperimentConfig(scenario=name)
    flags = {
        "--n": ("30", "n", 30), "--r": ("4", "r", 4),
        "--eigenvalues": ("4,3,2,1", "eigenvalues", (4.0, 3.0, 2.0, 1.0)),
        "--alpha": ("0.3", "alpha", 0.3), "--mode": ("varying", "mode", "varying"),
        "--epsilon": ("0.001", "epsilon", 1e-3), "--repeats": ("3", "repeats", 3),
        "--max-iters": ("77", "max_iters", 77), "--seed": ("9", "master_seed", 9),
        "--tol-dist": ("1e-7", "tol_dist", 1e-7), "--dt": ("0.02", "dt", 0.02),
        "--t-end": ("2.5", "t_end", 2.5), "--out-dir": ("x/y", "out_dir", "x/y"),
        "--workers": ("2", "workers", 2),
    }
    base = ["escape-s-r1", "--n", "30", "--r", "4"]
    for flag, (text, field, value) in flags.items():
        cfg = _parsed(base + [flag, text])
        assert getattr(cfg, field) == value
        expected = ExperimentConfig(**{"scenario": "escape_s_r1", "n": 30, "r": 4, field: value})
        assert cfg == expected


def test_cli_eigenvalue_flag():
    code = main(["global-fixed", "--n", "12", "--r", "2", "--eigenvalues", "4,1",
                 "--repeats", "1", "--max-iters", "500", "--alpha", "0.4"])
    assert code == 0


# ---------------------------------------------------------------- public API

def test_public_names_are_pinned():
    assert sorted(sf.__all__) == [
        "EigenFrame", "ExperimentConfig", "FactoredPoint", "FlowDerivative",
        "FlowResult", "FlowState", "GDConfig", "GroundTruth", "RgdRun",
        "SpuriousPoint", "SpuriousTuple", "StepControls", "SummaryReport",
        "TAU_GRAD", "TAU_ORTH", "TangentParam", "boundary_frame",
        "complement_basis", "distance_to_target", "dlra_rhs",
        "eig_min_derivative", "eigen_frame", "emit_summary",
        "enumerate_spurious", "experiments", "fd_directional",
        "fd_iteration_matrix", "fd_report", "flows", "gradient_norm",
        "haar_orthonormal", "integrate", "iteration_jacobian",
        "make_ground_truth", "manifold", "manifold_dim", "oracles",
        "perturb_near", "rescaled_jacobian", "rescaled_rhs", "retract", "rgd",
        "rgd_step", "riem_gradient", "riem_hessian_apply", "run_experiment",
        "run_rgd", "run_single", "sample_spurious_tuple", "scaled_inverse",
        "scaled_inverse_gradient", "sin_theta_check", "spurious",
        "spurious_point", "stiefel_chart", "tangent_coordinate_basis",
        "tangent_coordinates", "tangent_project",
    ]
