import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spsdflow as sf
from spsdflow import _runner, cli, experiments, rgd
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
    """Any valid configuration: every scenario, n - r >= 2 and r >= 3 (escape from deficit two).

    A flow's t_end stays within max_iters steps of dt: ceil(t_end / dt) <= max_iters.  An
    escape's tol_dist lies below ||d_miss||, the norm of its deficit's least eigenvalues.
    """
    n = draw(st.integers(5, 40))
    r = draw(st.integers(3, n - 2))
    eigenvalues = draw(st.none() | st.lists(_positive, min_size=r, max_size=r, unique=True))
    scenario = draw(st.sampled_from(SCENARIOS))
    max_iters, dt = draw(st.integers(0, 10**6)), draw(_positive)
    flow = scenario in ("flow_dlra", "flow_rescaled")
    deficit = experiments._ESCAPE_DEFICIT.get(scenario, 0)
    d_miss = math.hypot(*sorted(eigenvalues or default_eigenvalues(r))[:deficit])
    tol_dist = draw(st.floats(0.0, d_miss, exclude_min=True, exclude_max=True) if deficit
                    else _positive)
    return ExperimentConfig(
        scenario=scenario, n=n, r=r,
        eigenvalues=eigenvalues, alpha=draw(_positive),
        mode=draw(st.sampled_from(["fixed", "varying"])), epsilon=draw(_positive),
        repeats=draw(st.integers(1, 1000)), max_iters=max_iters,
        master_seed=draw(st.integers(0, 2**63)), tol_dist=tol_dist,
        dt=dt, t_end=draw(st.floats(0.0, min(1e6, max_iters * dt * (1 - 1e-9)) if flow else 1e6)),
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
    with pytest.raises(ValueError, match="eigenvalues span too wide a range"):   # d_1 / c = inf
        small_cfg(scenario="global_fixed", n=4, r=2, eigenvalues=(1.0, 5e-324))


@pytest.mark.parametrize("scenario, d_miss", [("escape_s_r1", 1.0),
                                             ("escape_s_r2", math.hypot(2.0, 1.0))])
def test_escape_tol_dist_must_lie_below_the_distance_of_the_spurious_point(scenario, d_miss):
    # the spurious point lies ||d_miss|| from the target: at a tol_dist not below that it
    # would count as converged, and a run could stop without escaping
    assert small_cfg(scenario=scenario, tol_dist=np.nextafter(d_miss, 0)).tol_dist < d_miss
    for tol_dist in (d_miss, 10.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol_dist"):
            small_cfg(scenario=scenario, tol_dist=tol_dist)
    assert small_cfg(scenario="global_fixed", tol_dist=10.0).tol_dist == 10.0   # no saddle


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


@pytest.mark.parametrize("fields, counts", [
    (dict(scenario="example_1_1", alpha=0.3, repeats=2, max_iters=300), {"near_spurious": 2}),
    (dict(scenario="example_1_1", alpha=0.3, max_iters=20), {"max_iters": 1}),
    (dict(scenario="escape_s_r1", n=24, r=3, repeats=4, master_seed=7), {"converged_to_X": 4}),
    (dict(scenario="escape_s_r1", n=24, r=3, repeats=4, mode="varying", max_iters=10),
     {"max_iters": 4}),
    (dict(scenario="escape_s_r2", n=24, r=4, repeats=4, master_seed=7), {"converged_to_X": 4}),
    (dict(scenario="global_fixed", n=12, r=3, repeats=4, master_seed=3), {"converged_to_X": 4}),
    (dict(scenario="global_varying", n=12, r=3, repeats=4, master_seed=3), {"converged_to_X": 4}),
    # a tol_dist below TAU_GRAD: next to the target the gradient test holds first, and
    # these runs used to end near_spurious at the target
    (dict(scenario="escape_s_r1", n=30, r=3, repeats=20, tol_dist=5e-9), {"converged_to_X": 20}),
    (dict(scenario="escape_s_r1", n=30, r=3, repeats=20, tol_dist=5e-9, mode="varying"),
     {"converged_to_X": 20}),
    (dict(scenario="global_fixed", n=8, r=2, repeats=20, tol_dist=5e-9), {"converged_to_X": 20}),
    (dict(scenario="global_varying", n=8, r=2, tol_dist=1e-300, max_iters=2000), {"max_iters": 1}),
])
def test_every_descent_terminal_meets_its_status_definition(fields, counts):
    cfg = ExperimentConfig(**fields)
    report = sf.run_experiment(cfg)
    assert report.status_counts == counts
    margin = 0.5 * min(cfg.eigenvalues)   # half the least distance of a spurious point from X
    for t in report.terminals:
        if t["status"] == "converged_to_X":
            assert t["dist"] < cfg.tol_dist
        elif t["status"] == "near_spurious":
            assert t["grad_norm"] < sf.TAU_GRAD and t["dist"] >= margin
        else:
            assert (t["status"], t["iters"]) == ("max_iters", cfg.max_iters)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig("escape_s_r1", n=8, r=2, repeats=3, max_iters=300, master_seed=4),
    ExperimentConfig("flow_rescaled", n=8, r=2, repeats=3, t_end=0.3, dt=0.05, master_seed=4),
    ExperimentConfig("example_1_1", repeats=3, max_iters=40, master_seed=4),
], ids=lambda cfg: cfg.scenario)
def test_run_single_is_the_experiments_run_of_that_seed(cfg):
    runs = sf.run_experiment(cfg).runs
    for i, run in enumerate(runs):
        one = sf.run_single(cfg, cfg.master_seed + i)
        assert one.seed == run.seed and one.records.tobytes() == run.records.tobytes()
        assert (one.status, one.columns, one.terminal) == (run.status, run.columns, run.terminal)


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


def _record_blocks(m, blocks):
    """Have every experiment's start builder append the (lo, hi) of each block it builds."""
    starts = experiments._starts

    def recorded(*args):
        build = starts(*args)
        return lambda lo, hi: blocks.append((lo, hi)) or build(lo, hi)
    m.setattr(experiments, "_starts", recorded)


def test_reproducible_and_parallel_invariant(tmp_path, monkeypatch):
    for name, fields in (("descent", {}), ("flow", {"scenario": "flow_rescaled", "t_end": 0.3})):
        a, b, c, d = (tmp_path / name / x for x in "abcd")
        sf.run_experiment(small_cfg(repeats=5, out_dir=str(a), **fields))
        sf.run_experiment(small_cfg(repeats=5, out_dir=str(b), workers=2, **fields))  # 3, 2 seeds
        # in this process, where the patch and the blocks it gives can be seen
        with monkeypatch.context() as m:
            blocks = []
            _record_blocks(m, blocks)
            m.setattr(_runner, "BLOCK_ENTRIES", 24 * 3)          # blocks of one run
            sf.run_experiment(small_cfg(repeats=5, out_dir=str(c), **fields))
        assert blocks == [(i, i + 1) for i in range(5)]
        sf.run_experiment(small_cfg(repeats=5, out_dir=str(d), workers=3, **fields))  # 2, 2, 1 seeds
        fa, fb, fc, fd = _read_csvs(a), _read_csvs(b), _read_csvs(c), _read_csvs(d)
        # identical data regardless of output directory, parallelism degree, chunks or blocks
        assert fa == fb == fc == fd
        ja, jb, jc, jd = (json.loads((x / "summary.json").read_text()) for x in (a, b, c, d))
        for j in (ja, jb, jc, jd):
            j["config"].pop("out_dir")
            j["config"].pop("workers")
        assert ja == jb == jc == jd


def _subprocess_env(**extra):
    """This process's environment with the tested package first on PYTHONPATH, plus ``extra``."""
    src = str(Path(sf.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_import_leaves_the_process_pool_unloaded():
    # only workers > 1 starts a process pool (concurrent.futures, whose thread executor imports
    # queue); a run with one worker, with or without an out_dir, should not pay for it
    code = ("import sys, spsdflow; "
            "print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _record_writes(m, events, fail_at=None):
    """Have the run-file writer append the name of each file it wrote to ``events``.

    With ``fail_at`` its call of that number raises ``OSError`` instead, after opening the file.
    """
    write, calls = experiments._write_csv, []

    def recorded(path, *args):
        calls.append(path)
        if len(calls) == fail_at:
            path.write_text("partial")
            raise OSError(f"cannot write {path.name}")
        write(path, *args)
        events.append(path.name)
    m.setattr(experiments, "_write_csv", recorded)


def _wait_for(events, names, timeout=10.0):
    """Wait up to ``timeout`` s until every file in ``names`` is among the written ones."""
    deadline = time.monotonic() + timeout
    while not set(names) <= set(events) and time.monotonic() < deadline:
        time.sleep(0.01)


# small_cfg(repeats=6) in blocks of two runs: (0, 2), (2, 4) and (4, 6)
_THREE_BLOCKS = 2 * 24 * 3


def test_run_files_are_written_while_later_blocks_compute(tmp_path, monkeypatch):
    one, split = tmp_path / "one", tmp_path / "split"
    threads = threading.active_count()
    sf.run_experiment(small_cfg(repeats=6, out_dir=str(one)))
    assert threading.active_count() == threads
    events = []
    with monkeypatch.context() as m:
        _record_blocks(m, events)
        starts = experiments._starts

        def last_waits(*args):
            build = starts(*args)

            def blocks(lo, hi):           # the last block once the first block's files are
                if lo == 4:               # written, or after 10 s
                    _wait_for(events, ["run_000.csv", "run_001.csv"])
                return build(lo, hi)
            return blocks
        m.setattr(experiments, "_starts", last_waits)
        _record_writes(m, events)
        m.setattr(_runner, "BLOCK_ENTRIES", _THREE_BLOCKS)
        sf.run_experiment(small_cfg(repeats=6, out_dir=str(split)))
    assert threading.active_count() == threads
    assert [e for e in events if isinstance(e, tuple)] == [(0, 2), (2, 4), (4, 6)]
    written = [e for e in events if isinstance(e, str)]
    assert written == [f"run_{i:03d}.csv" for i in range(6)] + ["summary.csv"]
    assert events.index("run_001.csv") < events.index((4, 6))
    assert _read_all(one).keys() == _read_all(split).keys()
    assert _read_csvs(one) == _read_csvs(split)


def test_a_later_block_that_cannot_draw_its_starts_exits_2_and_leaves_no_file(tmp_path,
                                                                               monkeypatch,
                                                                               capsys):
    events, threads = [], threading.active_count()
    starts = experiments._starts

    def second_fails(*args):
        build = starts(*args)

        def blocks(lo, hi):
            if lo == 2:                   # once the first block's files are written
                _wait_for(events, ["run_000.csv", "run_001.csv"])
                raise sf.spurious.DegenerateRadiusError("no full-rank start in block 2")
            return build(lo, hi)
        return blocks
    monkeypatch.setattr(experiments, "_starts", second_fails)
    _record_writes(monkeypatch, events)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", _THREE_BLOCKS)
    out = tmp_path / "out"
    argv = ["escape-s-r1", "--n", "24", "--r", "3", "--repeats", "6", "--out-dir", str(out)]
    assert main(argv) == 2
    assert "configuration error: no full-rank start in block 2" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert sorted(events) == ["run_000.csv", "run_001.csv"]
    assert list(out.iterdir()) == []


def test_a_rank_drop_in_a_later_block_exits_3_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    events, threads = [], threading.active_count()
    _record_blocks(monkeypatch, events)
    step = rgd._step

    def drops_in_block_2(*args):
        if (2, 4) in events:              # once the first block's files are written
            _wait_for(events, ["run_000.csv", "run_001.csv"])
            raise rgd.RankDropError("iterate left the manifold in block 2")
        return step(*args)
    monkeypatch.setattr(rgd, "_step", drops_in_block_2)
    _record_writes(monkeypatch, events)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", _THREE_BLOCKS)
    out = tmp_path / "out"
    argv = ["escape-s-r1", "--n", "24", "--r", "3", "--repeats", "6", "--out-dir", str(out)]
    assert main(argv) == 3
    assert "runtime failure: iterate left the manifold in block 2" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert [e for e in events if isinstance(e, tuple)] == [(0, 2), (2, 4)]
    assert sorted(e for e in events if isinstance(e, str)) == ["run_000.csv", "run_001.csv"]
    assert list(out.iterdir()) == []


def test_a_failed_write_raises_and_leaves_no_run_file(tmp_path, monkeypatch):
    events, threads = [], threading.active_count()
    _record_writes(monkeypatch, events, fail_at=3)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", _THREE_BLOCKS)
    out = tmp_path / "out"
    (out / "keep").mkdir(parents=True)    # not a run file: it stays
    with pytest.raises(OSError, match="cannot write run_002.csv"):
        sf.run_experiment(small_cfg(repeats=6, out_dir=str(out)))
    assert threading.active_count() == threads
    assert events[:2] == ["run_000.csv", "run_001.csv"] and "run_002.csv" not in events
    assert [p.name for p in out.iterdir()] == ["keep"]


def _before_block(m, first, hook):
    """Have every experiment's start builder call ``hook()`` before it builds block ``first``."""
    starts = experiments._starts

    def patched(*args):
        build = starts(*args)

        def blocks(lo, hi):
            if lo == first:
                hook()
            return build(lo, hi)
        return blocks
    m.setattr(experiments, "_starts", patched)


def test_a_failed_write_stops_the_experiment_at_that_write(tmp_path, monkeypatch):
    # the first file fails as block (0, 2) ends: it raises there, so blocks (2, 4) and (4, 6)
    # are never built
    events, threads = [], threading.active_count()
    write = experiments._write_csv

    def first_fails(path, *args):
        if path.name == "run_000.csv":
            raise OSError("cannot write run_000.csv")
        write(path, *args)
    _record_blocks(monkeypatch, events)
    monkeypatch.setattr(experiments, "_write_csv", first_fails)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", _THREE_BLOCKS)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="cannot write run_000.csv"):
        sf.run_experiment(small_cfg(repeats=6, out_dir=str(out)))
    assert events == [(0, 2)]
    assert list(out.iterdir()) == []
    assert threading.active_count() == threads


def test_an_interrupt_in_a_later_block_leaves_no_file_and_no_thread(tmp_path, monkeypatch):
    events, threads = [], threading.active_count()

    def interrupt():                      # once the first block's files are written
        _wait_for(events, ["run_000.csv", "run_001.csv"])
        raise KeyboardInterrupt
    _before_block(monkeypatch, 2, interrupt)
    _record_writes(monkeypatch, events)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", _THREE_BLOCKS)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        sf.run_experiment(small_cfg(repeats=6, out_dir=str(out)))
    assert sorted(events) == ["run_000.csv", "run_001.csv"]
    assert list(out.iterdir()) == []
    assert threading.active_count() == threads


def test_the_process_pool_starts_no_more_workers_than_chunks_or_cores(tmp_path, monkeypatch):
    # fork starts all max_workers processes at the first submit; a pool that maps in this process
    # records how many would start, and writes what one worker writes
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None
        map = staticmethod(map)

    one = tmp_path / "one"
    sf.run_experiment(small_cfg(repeats=3, out_dir=str(one)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for cores, started in ((None, 1), (2, 2), (16, 3)):     # three chunks of one seed
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        many = tmp_path / f"many{cores}"
        sf.run_experiment(small_cfg(repeats=3, workers=64, out_dir=str(many)))
        assert sizes.pop() == started
        assert len(_read_csvs(many)) == 4 and _read_csvs(many) == _read_csvs(one)


def test_escape_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at one and at two BLAS threads, into the same --out-dir path (the sidecar records it), an
    # escape below README's stated size limit writes the same bytes
    out, written = tmp_path / "out", []
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "spsdflow.cli", "escape-s-r1", "--n", "30",
                        "--r", "3", "--repeats", "5", "--out-dir", str(out)],
                       env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
                       check=True)
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
        out.rename(tmp_path / threads)
    assert len(written[0]) == 7                  # five run CSVs, summary.csv and summary.json
    assert written[0] == written[1]


@pytest.mark.parametrize("argv, code, message", [
    # the first RK4 step overflows to NaN: a NaN drift must reject the step, not pass it
    (["flow-rescaled", "--n", "8", "--r", "2", "--eigenvalues", "1e150,1", "--t-end", "0.5"],
     3, "runtime failure: orthonormality drift nan at t=0.01; reduce dt"),
    # a tiny spectrum is no cause: its escape starts are drawn, and its runs step, on X / c,
    # where the radius 0.01 ||Z_sp||_F is not degenerate; nor is a radius of 1e-6 ||Z_sp||_F
    (["escape-s-r1", "--n", "12", "--r", "2", "--eigenvalues", "1e-200,1e-201",
      "--tol-dist", "1e-210"],
     0, "escape_s_r1: 2 run(s); converged_to_X=2"),
    (["escape-s-r1", "--n", "12", "--r", "2", "--eigenvalues", "1e-200,1e-201",
      "--tol-dist", "1e-210", "--epsilon", "1e-6"],
     0, "escape_s_r1: 2 run(s); converged_to_X=2"),
])
def test_extreme_spectra_fail_with_their_cause_and_write_nothing(tmp_path, argv, code, message):
    # in a subprocess: numpy's overflow warnings on the way are errors under pytest's filter;
    # a failure's message is on stderr, a run's status counts on stdout
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "spsdflow.cli", *argv, "--repeats", "2",
                           "--out-dir", str(out)], env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)
    assert done.returncode == code
    assert message in (done.stderr if code else done.stdout)
    assert "RuntimeWarning" not in done.stderr
    assert len(list(out.iterdir())) == (0 if code else 4)    # two run files, the summary pair


def test_a_spectrum_near_the_top_of_the_range_logs_finite_values(tmp_path):
    # a start's distance to X = V diag(9e153, 8e153) V^T squares to beyond the double range,
    # but not at the runs' unit scale, X / c: every logged value is c times a finite one
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "spsdflow.cli", "global-fixed", "--n", "8",
                           "--r", "2", "--eigenvalues", "9e153,8e153", "--repeats", "2",
                           "--max-iters", "5", "--out-dir", str(out)],
                          env=_subprocess_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                          text=True)
    assert done.returncode == 0
    assert "RuntimeWarning" not in done.stderr
    for name in ("run_000.csv", "run_001.csv", "summary.csv"):
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert len(rows) == 5 and np.isfinite(rows).all()   # five steps, each one row
    json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)   # no inf or NaN


@pytest.mark.parametrize("scenario, mode", [
    ("escape_s_r1", "fixed"), ("escape_s_r1", "varying"), ("escape_s_r2", "fixed"),
    ("global_fixed", "fixed"), ("global_varying", "varying"), ("flow_dlra", None),
    ("flow_rescaled", None)])
def test_experiments_obey_the_scaling_law(scenario, mode):
    # X -> c X, c = 2**k, with tol_dist times c and the varying alpha and the rescaled flow's dt
    # and t_end over c: the escape starts, the global starts and every iterate scale by c, so
    # every run keeps its status and row count, and its dist, sigma_r and grad_norm scale by c
    # and its rescaled time by 1/c, bit for bit, from 2**-60 to 2**60
    def experiment(k):
        c = 2.0 ** k
        fields = dict(scenario=scenario, n=30, r=3, eigenvalues=(3 * c, 2 * c, c), repeats=6,
                      max_iters=400)
        if mode is None:
            span = 1 / c if scenario == "flow_rescaled" else 1.0
            fields.update(dt=0.01 * span, t_end=2.0 * span)
        else:
            fields.update(mode=mode, tol_dist=1e-6 * c, alpha=0.5 / c if mode == "varying" else 0.5)
        return sf.run_experiment(ExperimentConfig(**fields))

    ref = experiment(0)
    assert set(ref.statuses) == ({"t_end"} if mode is None else {"converged_to_X"})
    for k in (-60, -30, 30, 60):
        c = 2.0 ** k
        clock = 1 / c if scenario == "flow_rescaled" else 1.0   # steps and plain time: 1
        report = experiment(k)
        assert report.statuses == ref.statuses
        for run, base in zip(report.runs, ref.runs, strict=True):
            assert run.records.shape == base.records.shape
            assert np.array_equal(run.records[:, 0], clock * base.records[:, 0])
            assert np.array_equal(run.records[:, 1:], c * base.records[:, 1:])


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
            blocks = []
            _record_blocks(m, blocks)
            m.setattr(_runner, "BLOCK_ENTRIES", cap * cfg.n * cfg.r)
            sf.run_experiment(dataclasses.replace(cfg, out_dir=str(split)))
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes[:-1] == [cap] * (len(sizes) - 1) and sum(sizes) == repeats
        assert 2 * sizes[-1] <= 3 * cap and (len(sizes) == 1 or 2 * sizes[-1] > cap)
        assert len(_read_csvs(one)) == repeats + 1
        assert _read_csvs(one) == _read_csvs(split)


def test_csv_rows_keep_special_values_exactly(tmp_path):
    # one file's '%.17g' templates write what format(v, '.17g') writes per value, and a run
    # with no rows writes its header alone
    cols = ("step", "dist", "sigma_r", "grad_norm")
    records = np.array([[0.0, np.nan, np.inf, -np.inf], [1.0, -0.0, 5e-324, 1e308],
                        [2.0, 0.1, 1 / 3, -2.5e-17]])
    runs = [RunResult(0, "max_iters", records, cols, {}),
            RunResult(1, "converged_to_X", np.empty((0, 4)), cols, {})]
    stats = {name: {q: records[:, j].tolist() for q in ("median", "min", "max")}
             for j, name in enumerate(cols[1:], start=1)}
    report = SummaryReport(small_cfg(), cols, [0, 1], ["max_iters", "converged_to_X"],
                           {"max_iters": 1, "converged_to_X": 1}, stats, len(records),
                           [{}, {}], runs)
    written = sf.emit_summary(report, tmp_path)
    assert [p.name for p in written] == ["run_000.csv", "run_001.csv", "summary.csv",
                                         "summary.json"]
    assert (tmp_path / "run_001.csv").read_bytes() == b"step,dist,sigma_r,grad_norm\n"
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


@pytest.mark.parametrize("mode", ["fixed", "varying"])
@pytest.mark.parametrize("scenario", ["global-fixed", "global-varying"])
def test_cli_global_sidecar_records_the_rule_that_stepped(tmp_path, monkeypatch, scenario, mode):
    # a global scenario steps with its own rule whatever --mode says; summary.json records it
    stepped, run = [], experiments.run_rgd_batch
    monkeypatch.setattr(experiments, "run_rgd_batch",
                        lambda *args: stepped.append(args[3].mode) or run(*args))
    assert main([scenario, "--n", "8", "--r", "2", "--repeats", "2", "--mode", mode,
                 "--out-dir", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "summary.json").read_text())
    assert stepped == [scenario.split("-")[1]] == [sidecar["config"]["mode"]]


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
    ["escape-s-r1", "--n", "8", "--r", "1"],            # the spurious point would be zero
    ["escape-s-r2", "--n", "8", "--r", "2"],
    # no full-rank start at this radius: every draw's r-th eigenvalue is under TAU_RANK
    ["escape-s-r1", "--n", "24", "--r", "3", "--repeats", "3", "--epsilon", "1e-12"],
    # tol_dist = 1e-6 above ||d_miss|| = 1e-8: every run converged_to_X at the spurious point
    ["escape-s-r1", "--n", "12", "--r", "2", "--eigenvalues", "2e-8,1e-8"],
    # d_1 / c overflows, c = 5e-324 the power of two nearest d_r: X / c is no target
    ["global-fixed", "--n", "4", "--r", "2", "--eigenvalues", "1,5e-324"],
    # a radius 1e-30 ||Z_sp / c||_F = 1.07e-29 at unit scale: no draw is full rank, degenerate
    ["escape-s-r1", "--n", "12", "--r", "2", "--eigenvalues", "1e-300,1e-301", "--tol-dist",
     "1e-310", "--epsilon", "1e-30", "--repeats", "2"],
])
def test_cli_configuration_errors_exit_2(argv, capsys):
    assert main(argv + ["--repeats", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["1e300", "3e154"])
def test_huge_escape_radius_exits_2_before_any_run_or_file(monkeypatch, tmp_path, capsys,
                                                           epsilon):
    # a start up to 2 radius + ||d_miss|| from the target would log an infinite distance: at
    # 3e154 the first logged dist of this config overflows, at 1e300 every early row did
    monkeypatch.setattr(experiments, "_run_seeds", lambda cfg, seeds: pytest.fail("a run started"))
    argv = ["escape-s-r1", "--n", "8", "--r", "2", "--repeats", "2", "--out-dir", str(tmp_path)]
    assert main(argv + ["--epsilon", epsilon]) == 2
    assert f"epsilon = {float(epsilon):.3g} is too large" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_large_escape_radius_under_the_bound_logs_finite_values(tmp_path):
    argv = ["escape-s-r1", "--n", "8", "--r", "2", "--repeats", "2", "--out-dir", str(tmp_path)]
    assert main(argv + ["--epsilon", "1e150"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["statuses"] == ["converged_to_X"] * 2
    for name in ("run_000.csv", "run_001.csv", "summary.csv"):
        rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert len(rows) > 1000 and np.isfinite(rows).all()
    assert rows[0, 1] > 1e149                  # summary.csv's first dist median: the radius


@pytest.mark.parametrize("workers", ["1", "2"])
def test_degenerate_radius_exits_2_before_any_step_or_file(monkeypatch, tmp_path, capsys,
                                                            workers):
    # a radius at which no draw gives a full-rank start is the configuration's fault, and
    # the first block's starts are drawn before it steps; 3e-12 still runs
    monkeypatch.setattr(rgd, "_step", lambda *a: pytest.fail("a run stepped"))
    argv = ["escape-s-r1", "--n", "24", "--r", "3", "--repeats", "3", "--out-dir", str(tmp_path)]
    assert main(argv + ["--epsilon", "1e-12", "--workers", workers]) == 2
    assert "16 draws; epsilon is degenerate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    assert main(argv + ["--epsilon", "3e-12"]) == 0
    assert len(list(tmp_path.iterdir())) == 5


def test_a_radius_tiny_in_the_callers_units_runs_at_unit_scale(tmp_path):
    # epsilon ||Z_sp||_F = 1e-11 * 2e-313 underflows to zero, but starts are drawn on X / c,
    # where the radius is epsilon ||Z_sp / c||_F, at least 0.7 epsilon
    argv = ["escape-s-r1", "--n", "12", "--r", "2", "--eigenvalues", "2e-313,1e-313",
            "--tol-dist", "1e-320", "--epsilon", "1e-11", "--repeats", "2"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["statuses"] == ["converged_to_X"] * 2


@pytest.mark.parametrize("flags, steps", [(["--t-end", "1e300"], "1e+302"),
                                          (["--dt", "1e-9", "--t-end", "5"], "5000000000")])
def test_flow_longer_than_max_iters_steps_exits_2_before_any_step(monkeypatch, capsys, flags,
                                                                   steps):
    # each of these ran until it was killed: 1e302 and 5e9 RK4 steps under max_iters = 5000
    monkeypatch.setattr(_runner, "run_blocks", lambda *a: pytest.fail("a flow stepped"))
    assert main(["flow-rescaled", "--n", "8", "--r", "2"] + flags) == 2
    err = capsys.readouterr().err
    assert f"ceil(t_end / dt) = {steps} RK4 steps, above max_iters = 5000" in err
    # the default horizon takes 500 steps of the default dt, and a flow may take max_iters
    assert ExperimentConfig(scenario="flow_dlra", t_end=50.0).t_end == 50.0
    with pytest.raises(ValueError, match="5001 RK4 steps"):
        ExperimentConfig(scenario="flow_dlra", t_end=50.01)


@pytest.mark.parametrize("argv, estimate", [
    (["--n", "20000", "--r", "3"], "15.6 GiB (1 at once)"),
    (["--n", "5000", "--workers", "9", "--repeats", "9"], "8.8 GiB (9 at once)"),
])
def test_escape_start_memory_bound_exits_2_with_the_estimate(monkeypatch, capsys, argv,
                                                             estimate):
    # 42 n^2 bytes per start at once, against 8 GiB of physical memory; nothing large allocated
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)             # a pool starts one per core
    monkeypatch.setattr(_runner, "run_blocks", lambda *a: pytest.fail("a run started"))
    tracemalloc.start()
    try:
        assert main(["escape-s-r1"] + argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert f"need about {estimate}, above the 8 GiB of physical memory" in err
    ExperimentConfig(scenario="escape_s_r1", n=5000, workers=8, repeats=16)    # 7.82 GiB
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ExperimentConfig(scenario="escape_s_r1", n=5000, workers=9, repeats=9)     # 2 at once
    monkeypatch.undo()
    with pytest.raises(ValueError, match="physical memory"):      # 24 TB on any machine
        ExperimentConfig(scenario="escape_s_r2", n=10**6)


def test_flow_log_memory_bound_exits_2_before_any_run_or_file(monkeypatch, tmp_path, capsys):
    # 36 bytes per logged double, four per row, against 8 GiB of physical memory: 1,000 runs of
    # 10^7 + 1 rows would log about 1.3 TiB; nothing large allocated
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    monkeypatch.setattr(_runner, "run_blocks", lambda *a: pytest.fail("a run started"))
    argv = ["flow-rescaled", "--n", "8", "--r", "2", "--dt", "1e-4", "--t-end", "1000",
            "--max-iters", "10000000", "--repeats", "1000", "--out-dir", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert ("a flow of repeats = 1000 runs of ceil(t_end / dt) + 1 = 10000001 rows each logs "
            "about 1.34e+03 GiB, above the 8 GiB of physical memory") in err
    assert list(tmp_path.iterdir()) == []
    # 36 * 4 * 5,001 rows * 11,928 runs is just under 8 GiB, and one run more is over it
    ExperimentConfig(scenario="flow_dlra", dt=1e-3, t_end=5.0, repeats=11928)
    with pytest.raises(ValueError, match=r"repeats = 11929 runs of ceil\(t_end / dt\) \+ 1 = 5001"):
        ExperimentConfig(scenario="flow_dlra", dt=1e-3, t_end=5.0, repeats=11929)
    # descent logs are not bounded here: their row counts are known only at run time
    ExperimentConfig(scenario="global_fixed", n=8, r=2, max_iters=10**7, repeats=1000)


def test_physical_memory_is_unbounded_where_the_platform_does_not_say(monkeypatch):
    def unsupported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unsupported)
    assert experiments._physical_memory() == math.inf


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


@pytest.mark.parametrize("flag, value", [("--alpha", "0.5"), ("--mode", "varying"),
                                         ("--tol-dist", "0.5"), ("--epsilon", "0.3")])
@pytest.mark.parametrize("command", ["flow-dlra", "flow-rescaled"])
def test_flows_reject_the_flags_they_never_read(tmp_path, capsys, command, flag, value):
    # a flow's run does not depend on these four, so a given one would be recorded and ignored
    out = tmp_path / "out"
    assert main([command, "--n", "8", "--r", "2", flag, value, "--out-dir", str(out)]) == 2
    assert f"configuration error: {command} does not read {flag}" in capsys.readouterr().err
    assert not out.exists()
    # a JSON config carries every field, these four included
    cfg = tmp_path / "cfg.json"
    cfg.write_text(ExperimentConfig(scenario=command.replace("-", "_"), n=8, r=2,
                                    t_end=0.1).to_json())
    assert main(["run", "--config", str(cfg)]) == 0


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


def test_readme_library_example_runs_as_printed(capsys):
    # a documented call that passes a removed keyword or field fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    grad, eigenvalue, run = capsys.readouterr().out.splitlines()
    assert float(grad) < 1e-12
    assert abs(float(eigenvalue) - 1.0) <= 1e-8
    assert run.split()[0] == "converged_to_X"
