import dataclasses
from collections import Counter

import numpy as np
import pytest

import spsdflow as sf
from spsdflow import _runner, experiments, rgd
from spsdflow.experiments import ExperimentConfig
from spsdflow.manifold import TAU_ORTH, factored_blocks, frob, orth_defect, residual_norms, sym
from spsdflow.rgd import RankDropError, run_rgd_batch


def small_example():
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    init = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    return gt, init


# ----------------------------------------------------------------- stepping

@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
def test_exact_recursion_on_small_example(alpha):
    gt, pt = small_example()
    cfg = sf.GDConfig(alpha=alpha, max_iters=1)
    for k in range(61):
        expected = np.diag([2.0, 0.0, (1.0 - alpha) ** k])
        assert np.max(np.abs(pt.dense() - expected)) <= 1e-12
        pt = sf.rgd_step(pt, gt, cfg).point


def test_step_fixes_minimizer():
    gt = sf.make_ground_truth(9, 3, [3, 2, 1], seed=0)
    pt = sf.FactoredPoint(gt.U, np.diag(gt.d))
    for mode in ("fixed", "varying"):
        out = sf.rgd_step(pt, gt, sf.GDConfig(alpha=0.4, mode=mode)).point
        assert frob(out.dense() - pt.dense()) < 1e-12


def test_step_fixes_spurious_tuples():
    gt = sf.make_ground_truth(11, 3, [3, 2, 1], seed=1)
    for mask in ([True, True, False], [False, True, False], [False, False, False]):
        sp = sf.spurious_point(gt, mask)
        for seed in range(2):
            tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
            for mode in ("fixed", "varying"):
                out = sf.rgd_step(tup.factored(), gt, sf.GDConfig(alpha=0.3, mode=mode))
                assert frob(out.point.dense() - sp.dense()) <= 1e-10
                assert out.rank_deficient  # the fixed point sits on the boundary


def test_step_matches_dense_retraction():
    rng = np.random.default_rng(2)
    gt = sf.make_ground_truth(10, 3, [3, 2, 1], seed=3)
    pt = sf.FactoredPoint(sf.haar_orthonormal(rng, 10, 3), np.diag([2.7, 1.3, 0.4]))
    for mode, alpha in (("fixed", 0.35), ("varying", 1.2)):
        cfg = sf.GDConfig(alpha=alpha, mode=mode)
        fast = sf.rgd_step(pt, gt, cfg).point
        step = alpha * (pt.sigma_min() if mode == "varying" else 1.0)
        dense = sf.retract(pt.dense() - step * sf.riem_gradient(pt, gt), 3).point
        assert frob(fast.dense() - dense.dense()) < 1e-12


@pytest.mark.parametrize("mode, calls", [("fixed", 0), ("varying", 1)])
def test_step_decomposes_the_core_only_for_the_varying_rule(monkeypatch, mode, calls):
    # only alpha * sigma_r(Z_k) needs the core's smallest eigenvalue
    gt, pt = small_example()
    eigvalsh, seen = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: seen.append(1) or eigvalsh(*a, **kw))
    sf.rgd_step(pt, gt, sf.GDConfig(alpha=0.3, mode=mode))
    assert len(seen) == calls


def test_descent_within_stability_envelope():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = int(rng.integers(6, 20))
        gt = sf.make_ground_truth(n, 3, [3, 2, 1], seed=trial)
        pt = sf.FactoredPoint(sf.haar_orthonormal(rng, n, 3),
                              np.diag(np.sort(rng.uniform(0.3, 3.5, 3))[::-1]))
        cfg = sf.GDConfig(alpha=0.9, max_iters=1)
        f_prev = 0.5 * sf.distance_to_target(pt, gt) ** 2
        for _ in range(30):
            pt = sf.rgd_step(pt, gt, cfg).point
            f_next = 0.5 * sf.distance_to_target(pt, gt) ** 2
            assert f_next <= f_prev + 1e-12
            f_prev = f_next


# --------------------------------------------------------------------- runs

def test_run_unperturbed_example_hits_boundary_point():
    gt, init = small_example()
    run = sf.run_rgd(init, gt, sf.GDConfig(alpha=0.5, max_iters=500))
    assert run.status == "near_spurious"
    assert frob(run.point.dense() - np.diag([2.0, 0.0, 0.0])) < 1e-7
    assert run.terminal_dist > run.records[0, 1] / 2  # still far from the target


def test_run_from_minimizer_converges_immediately():
    gt = sf.make_ground_truth(8, 2, [2, 1], seed=4)
    init = sf.FactoredPoint(gt.U, np.diag(gt.d))
    run = sf.run_rgd(init, gt, sf.GDConfig(alpha=0.5))
    assert run.status == "converged_to_X" and run.iters == 0
    assert run.records.shape == (0, 4)


def test_run_perturbed_example_escapes():
    gt, _ = small_example()
    eps = 1e-3
    W = np.array([[2.0, 0, 0], [0, eps**2, eps], [0, eps, 1.0]])
    init = sf.retract(W, 2).point
    run = sf.run_rgd(init, gt, sf.GDConfig(alpha=0.5, max_iters=200, tol_dist=1e-8))
    assert run.status == "converged_to_X"
    assert run.iters < 200


def test_run_escape_from_sampled_neighborhood():
    gt = sf.make_ground_truth(40, 3, [3, 2, 1], seed=5)
    sp = sf.spurious_point(gt, [True, True, False])
    for seed in range(5):
        tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
        init = sf.perturb_near(tup, 1e-2 * frob(sp.dense()), seed=seed)
        run = sf.run_rgd(init, gt, sf.GDConfig(alpha=0.2, max_iters=5000))
        assert run.status == "converged_to_X"


def test_converged_run_reports_dense_distance():
    # converged_to_X is decided at ||Z - X||_F ~ 1e-6, where the squared
    # distance is ~1e-12 against ||X||_F^2 = 55: the reported distance must
    # still be the true one, so that the status is never granted early
    gt = sf.make_ground_truth(30, 5, [5, 4, 3, 2, 1], seed=12)
    sp = sf.spurious_point(gt, [True] * 4 + [False])
    cfg = sf.GDConfig(alpha=1.8, mode="varying", max_iters=5000, tol_dist=1e-6)
    for seed in range(5):
        tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
        init = sf.perturb_near(tup, 1e-2 * frob(sp.dense()), seed=seed)
        run = sf.run_rgd(init, gt, cfg)
        assert run.status == "converged_to_X"
        dense = frob(run.point.dense() - gt.dense())
        assert abs(run.terminal_dist - dense) < 1e-7 * dense
        assert dense < cfg.tol_dist


def test_run_max_iters_status():
    gt = sf.make_ground_truth(10, 2, [2, 1], seed=6)
    rng = np.random.default_rng(4)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 10, 2), np.diag([1.5, 0.7]))
    run = sf.run_rgd(init, gt, sf.GDConfig(alpha=0.01, max_iters=3))
    assert run.status == "max_iters" and run.iters == 3
    assert run.records.shape == (3, 4)


def test_varying_steps_not_diminishing_after_rampup():
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=7)
    sp = sf.spurious_point(gt, [True, True, False])
    tup = sf.sample_spurious_tuple(sp, gt, seed=1)
    init = sf.perturb_near(tup, 1e-2 * frob(sp.dense()), seed=1)
    run = sf.run_rgd(init, gt, sf.GDConfig(alpha=1.0, mode="varying", max_iters=5000))
    assert run.status == "converged_to_X"
    sig = run.records[:, 2]
    ramped = np.flatnonzero(sig >= 0.5 * gt.d[-1])
    assert ramped.size > 0
    floor = 0.5 * gt.d[-1] / gt.d[0]
    assert np.min(sig[ramped[0]:]) >= floor


def test_gdconfig_validation():
    with pytest.raises(ValueError):
        sf.GDConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        sf.GDConfig(alpha=0.1, mode="adaptive")
    with pytest.raises(ValueError):
        sf.GDConfig(alpha=0.1, tol_dist=0.0)


def _boundary_tuple():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=9)
    return sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, seed=0)


@pytest.mark.parametrize("build, message", [
    (lambda: sf.perturb_near(_boundary_tuple(), float("nan"), seed=0), "epsilon"),
    (lambda: sf.perturb_near(_boundary_tuple(), float("inf"), seed=0), "epsilon"),
    (lambda: sf.StepControls(tau_conv=float("nan")), "NaN"),
], ids=["epsilon-nan", "epsilon-inf", "tau_conv"])
def test_non_finite_controls_are_rejected(build, message):
    # each would otherwise fail inside eigh or switch its stopping test off silently
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf")])
def test_iteration_jacobian_rejects_nonpositive_alpha(alpha):
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=8)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    with pytest.raises(ValueError, match="alpha must be positive"):
        sf.iteration_jacobian(tup, gt, alpha)


@pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
def test_fd_iteration_matrix_rejects_invalid_eps(eps):
    # zero and negative eps would give a wrong matrix, NaN and inf fail inside eigh
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=8)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        sf.fd_iteration_matrix(tup, gt, 0.7, eps=eps)


# ------------------------------------------------------------ batched runs

def batch_of(points, blocks=None):
    """(count, build) of a batch from the given points; ``blocks`` gets each block's (lo, hi)."""
    blocks = [] if blocks is None else blocks
    return len(points), lambda lo, hi: blocks.append((lo, hi)) or _runner.stack(points[lo:hi])


def _escape_starts(gt, count):
    # closer starts take longer to escape
    sp = sf.spurious_point(gt, [True] * (gt.r - 1) + [False])
    starts = []
    for seed in range(count):
        tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
        starts.append(sf.perturb_near(tup, 10.0 ** -(seed + 1) * frob(sp.dense()), seed=seed))
    return starts


@pytest.mark.parametrize("mode, alpha", [("fixed", 0.2), ("varying", 1.8)])
def test_batched_runs_equal_single_runs_bitwise(monkeypatch, mode, alpha):
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=13)
    starts = _escape_starts(gt, 5)
    cfg = sf.GDConfig(alpha=alpha, mode=mode, max_iters=5000)
    alone = [sf.run_rgd(init, gt, cfg) for init in starts]
    assert len({run.iters for run in alone}) > 1   # runs leave the stack at different steps
    # one block of five runs, then a block of two and one of three (the tail run joins it)
    for entries, sizes in ((_runner.BLOCK_ENTRIES, [(0, 5)]), (2 * gt.n * gt.r, [(0, 2), (2, 5)])):
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
        blocks = []
        for run, ref in zip(run_rgd_batch(*batch_of(starts, blocks), gt, cfg), alone, strict=True):
            assert (run.status, run.iters) == (ref.status, ref.iters)
            assert np.array_equal(run.records, ref.records)
            assert ((run.terminal_dist, run.terminal_sigma_r, run.terminal_grad_norm)
                    == (ref.terminal_dist, ref.terminal_sigma_r, ref.terminal_grad_norm))
            assert np.array_equal(run.point.U, ref.point.U)
            assert np.array_equal(run.point.S, ref.point.S)
        assert blocks == sizes


def _observed_escape_runs(monkeypatch):
    """Five escape runs in blocks of two and three, and what an observer saw of each."""
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=13)
    starts = _escape_starts(gt, 5)
    cfg = sf.GDConfig(alpha=0.2, max_iters=5000)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", 2 * gt.n * gt.r)
    seen = {}                                 # start index -> [(k, dist, rows, drift of U)]
    blocks = []                               # the ids of each block at its first step

    def observe(k, ids, U, S):
        if k == 0:
            blocks.append(ids.tolist())
        assert set(ids.tolist()) <= set(blocks[-1])   # the runs of one block
        dist = residual_norms(U, S, *factored_blocks(U, gt), gt.d)[0]
        for i, x, drift in zip(ids, dist, orth_defect(U)):
            seen.setdefault(int(i), []).append((k, x, U.shape[1], drift))

    runs = list(run_rgd_batch(*batch_of(starts), gt, cfg, observe))
    assert blocks == [[0, 1], [2, 3, 4]]      # a tail of one run joins the last block of two
    return runs, seen, list(run_rgd_batch(*batch_of(starts), gt, cfg))


def test_observer_sees_every_logged_step_with_global_ids(monkeypatch):
    runs, seen, _ = _observed_escape_runs(monkeypatch)
    assert sorted(seen) == list(range(5))
    assert len({run.iters for run in runs}) > 1   # runs leave the stack at different steps
    for i, run in enumerate(runs):
        steps, dists, rows, drifts = np.array(seen[i]).T
        # every logged step, then the terminal point
        assert np.array_equal(steps, np.append(run.records[:, 0], run.iters))
        # the observer sees the factors lifted to n rows, while the records come from the
        # runner's 2r-row factors: the two distances differ by rounding, at most 1.6e-15 here
        assert (rows == 30).all() and (drifts <= TAU_ORTH).all()
        assert np.allclose(dists, np.append(run.records[:, 1], run.terminal_dist),
                           rtol=0, atol=1e-14)


def test_observer_leaves_runs_unchanged(monkeypatch):
    runs, _, plain = _observed_escape_runs(monkeypatch)
    for run, ref in zip(runs, plain, strict=True):
        assert (run.status, run.iters) == (ref.status, ref.iters)
        assert np.array_equal(run.records, ref.records)
        assert ((run.terminal_dist, run.terminal_sigma_r, run.terminal_grad_norm)
                == (ref.terminal_dist, ref.terminal_sigma_r, ref.terminal_grad_norm))
        assert np.array_equal(run.point.U, ref.point.U)
        assert np.array_equal(run.point.S, ref.point.S)


def test_example_limit_distances_do_not_depend_on_blocks(monkeypatch):
    # every run of example 1.1 starts at the same point, so each must carry
    # the single run's column whichever block it descends in
    cfg = ExperimentConfig(scenario="example_1_1", alpha=0.3, repeats=1)
    col = sf.run_experiment(cfg).runs[0].records[:, -1]
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", 2 * 3 * 2)           # blocks of two and three
    starts, blocks = experiments._starts, []

    def recorded(*args):
        build = starts(*args)
        return lambda lo, hi: blocks.append((lo, hi)) or build(lo, hi)
    monkeypatch.setattr(experiments, "_starts", recorded)
    report = sf.run_experiment(dataclasses.replace(cfg, repeats=5))
    assert blocks == [(0, 2), (2, 5)]
    assert len(col) > 10
    for run in report.runs:
        assert run.columns[-1] == "dist_limit"
        assert np.array_equal(run.records[:, -1], col)


@pytest.mark.parametrize("cap, count, sizes", [
    (8, 10, [10]), (8, 12, [12]), (8, 13, [8, 5]), (8, 17, [8, 9]), (8, 4, [4]),
    (32, 400, [32] * 11 + [48]), (3, 24, [3] * 8), (3, 7, [3, 4]), (2, 5, [2, 3]),
    (1, 3, [1, 1, 1]),
])
def test_block_rule_lets_a_short_tail_join_the_last_block(monkeypatch, cap, count, sizes):
    # blocks hold cap = BLOCK_ENTRIES // (n r) runs; a tail of at most cap / 2 runs
    # steps with the last full block instead of alone.  A block's starts are built
    # in one call when the block is taken in, after the previous block has stepped
    gt = sf.make_ground_truth(4, 1, [1.0], seed=0)
    rng = np.random.default_rng(1)          # not the target's stream
    points = [sf.FactoredPoint(sf.haar_orthonormal(rng, 4, 1), np.eye(1)) for _ in range(count)]
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", cap * 4)
    events = []

    def build(lo, hi):
        events.append(("build", lo, hi))
        return _runner.stack(points[lo:hi])

    def observe(k, ids, U, S):
        events.append((k, len(ids)))

    cfg = sf.GDConfig(alpha=0.1, max_iters=1)
    runs = list(run_rgd_batch(count, build, gt, cfg, observe))
    assert [run.iters for run in runs] == [1] * count   # every run stepped once, in its block
    bounds = np.cumsum([0] + sizes).tolist()
    # the observer sees each block at step 0 and at its terminal step 1
    assert events == [e for lo, hi in zip(bounds[:-1], bounds[1:])
                      for e in [("build", lo, hi), (0, hi - lo), (1, hi - lo)]]
    for run, ref in zip(runs, run_rgd_batch(*batch_of(points), gt, cfg), strict=True):
        assert np.array_equal(run.records, ref.records)


@pytest.mark.parametrize("mode, scale", [("fixed", 1.0), ("varying", 1.0), ("fixed", 1e148)],
                         ids=["fixed", "varying", "fixed-1e148"])
def test_descent_block_step_call_budget(monkeypatch, mode, scale):
    # a block step is one eigh of the m x m step matrices, whatever the block size, and that
    # eigh gives the next sigma_r at every scale; a block adds one eigvalsh of its start cores
    # and one QR of [V, U_0], which compresses its runs to m = min(n, 2r) rows
    gt = sf.make_ground_truth(12, 3, [3, 2, 1], seed=14)
    rng = np.random.default_rng(6)
    starts = [sf.FactoredPoint(sf.haar_orthonormal(rng, 12, 3), scale * np.diag([2.5, 1.5, 0.6]))
              for _ in range(4)]
    # drift 3.5e-11: a step's fresh eigenvectors leave nothing of it
    starts[1] = sf.FactoredPoint(starts[1].U * (1 + 1e-11), starts[1].S)
    calls = {"eigh": 0, "qr": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    drifts = []                               # (k, drift of the drifted run's lifted U)

    def observe(k, ids, U, S):
        drifts.extend((k, x) for i, x in zip(ids, orth_defect(U)) if i == 1)

    for name in ("eigh", "qr", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    steps = 5
    cfg = sf.GDConfig(0.1, mode, max_iters=steps)
    runs = list(run_rgd_batch(*batch_of(starts), gt, cfg, observe))
    assert [run.iters for run in runs] == [steps] * 4          # one block, every run to the cap
    assert calls == {"eigh": steps, "qr": 1, "eigvalsh": 1}
    assert [k for k, _ in drifts] == list(range(steps + 1))
    assert drifts[0][1] > 3e-11                                # the start, lifted
    assert all(x <= 1e-14 for _, x in drifts[1:])
    assert orth_defect(sf.rgd_step(starts[1], gt, cfg).point.U) <= 1e-14


@pytest.mark.parametrize("scale", [1.0, 1e148, 1e-148])
def test_descent_logs_the_least_value_of_each_core_it_stored(scale):
    # sigma_r at step 0 is the block's eigvalsh of its start cores; from step 1 on, terminal
    # point included, it is the least diagonal entry of the core that the step stored, bit for
    # bit.  LAPACK's eigvalsh rescales a core outside about [1.5e-146, 7e145]: at 1e148 every
    # core stays out there for the five steps; at 1e-148 the start cores are, and the first
    # step lands at the target's scale (a step at 1e-148 would fail the rank test)
    gt = sf.make_ground_truth(12, 3, [3, 2, 1], seed=14)
    rng = np.random.default_rng(6)
    starts = [sf.FactoredPoint(sf.haar_orthonormal(rng, 12, 3), scale * np.diag([2.5, 1.5, 0.6]))
              for _ in range(4)]
    cores = []                                # the stored cores (R, r, r) at each step

    def observe(k, ids, U, S):
        cores.append(S.copy())

    steps = 5
    runs = list(run_rgd_batch(*batch_of(starts), gt, sf.GDConfig(0.1, max_iters=steps), observe))
    assert [run.iters for run in runs] == [steps] * 4
    sigma = np.array([[*run.records[:, 2], run.terminal_sigma_r] for run in runs]).T
    assert sigma[0].tobytes() == np.linalg.eigvalsh(cores[0])[:, 0].tobytes()
    least = np.diagonal(np.array(cores[1:]), axis1=-2, axis2=-1).min(axis=-1)
    assert sigma[1:].tobytes() == least.tobytes()


@pytest.mark.parametrize("c", [1.0, 1e-20, 1e-148])
def test_descent_steps_at_a_tiny_uniform_scale(c):
    # a run steps on X / c, c the power of two nearest d_r, so truncate's rank test reads the
    # step matrix at the target's scale, where its max(1, .) floor does not flag a tiny step
    # from a start next to the target as rank-deficient
    gt = sf.make_ground_truth(12, 3, [3 * c, 2 * c, c], seed=14)
    start = sf.FactoredPoint(gt.U, np.diag(1.005 * gt.d))
    run = sf.run_rgd(start, gt, sf.GDConfig(0.1, max_iters=5, tol_dist=1e-300))
    assert (run.status, run.iters) == ("max_iters", 5)


@pytest.mark.parametrize("at, status", [("target", "converged_to_X"),
                                        ("spurious", "near_spurious")])
def test_first_stop_rule_that_holds_wins(at, status):
    # at the target all three rules hold at step 0 with max_iters=0, at an unperturbed
    # spurious point the last two: the first in order (converged_to_X, near_spurious,
    # max_iters) ends the run
    gt = sf.make_ground_truth(12, 3, [3, 2, 1], seed=14)
    start = {"target": sf.FactoredPoint(gt.U, np.diag(gt.d)),
             "spurious": sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt,
                                                  seed=0).factored()}[at]
    run = sf.run_rgd(start, gt, sf.GDConfig(alpha=0.1, max_iters=0))
    assert (run.status, run.iters, len(run.records)) == (status, 0, 0)


def test_batch_mixes_terminal_statuses():
    gt = sf.make_ground_truth(12, 3, [3, 2, 1], seed=14)
    rng = np.random.default_rng(5)
    starts = [
        sf.FactoredPoint(gt.U, np.diag(gt.d)),                        # at the target
        sf.FactoredPoint(sf.haar_orthonormal(rng, 12, 3), np.diag([2.5, 1.5, 0.6])),
        sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt,
                                 seed=0).factored(),                  # unperturbed spurious
    ]
    cfg = sf.GDConfig(alpha=0.01, max_iters=4)
    runs = list(run_rgd_batch(*batch_of(starts), gt, cfg))
    assert [r.status for r in runs] == ["converged_to_X", "max_iters", "near_spurious"]
    assert [r.iters for r in runs] == [0, 4, 0]
    assert [r.records.shape for r in runs] == [(0, 4), (4, 4), (0, 4)]
    assert np.array_equal(runs[1].records[:, 0], np.arange(4.0))
    for init, run in zip(starts, runs):
        ref = sf.run_rgd(init, gt, cfg)
        assert np.array_equal(run.records, ref.records)
        assert run.terminal_dist == ref.terminal_dist


def test_batch_rank_drop_names_the_step():
    # The varying step alpha * sigma_r(Z_k) grows as the small core entry
    # approaches 2, until it pushes the large entry below zero at step 3.
    gt, _ = small_example()
    starts = [sf.FactoredPoint(np.eye(3)[:, :2], np.diag([0.1, b])) for b in (10.0, 12.0)]
    cfg = sf.GDConfig(alpha=1.0, mode="varying", max_iters=500)
    assert sf.run_rgd(starts[0], gt, cfg).status == "converged_to_X"
    with pytest.raises(RankDropError, match="at step 3$"):
        sf.run_rgd(starts[1], gt, cfg)
    with pytest.raises(RankDropError, match="at step 3$"):
        list(run_rgd_batch(*batch_of(starts), gt, cfg))


def _rgd_step_loop(init, gt, cfg):
    """Status and rows (k, dist, sigma_r, grad_norm) of descent by n-row rgd_step points."""
    point, rows = init, []
    while True:
        dist, grad = sf.distance_to_target(point, gt), sf.gradient_norm(point, gt)
        rows.append((len(rows), dist, point.sigma_min(), grad))
        if dist < cfg.tol_dist:
            return "converged_to_X", np.array(rows)
        if grad < sf.TAU_GRAD and dist >= 0.5 * gt.d[-1]:
            return "near_spurious", np.array(rows)
        if len(rows) > cfg.max_iters:
            return "max_iters", np.array(rows)
        step = sf.rgd_step(point, gt, cfg)
        assert not step.rank_deficient
        point = step.point


@pytest.mark.parametrize("mode, alpha", [("fixed", 0.2), ("varying", 1.8)])
def test_compressed_runs_match_the_full_space_step(mode, alpha):
    # the runner steps each run in the 2r-dimensional span of its start and the target's
    # eigenvectors; a loop of rgd_step, which compresses to its point's span at every step
    # and lifts back to n rows, takes the same path up to rounding
    gt = sf.make_ground_truth(40, 3, [3, 2, 1], seed=15)
    cfg = sf.GDConfig(alpha=alpha, mode=mode, max_iters=5000)
    sp = sf.spurious_point(gt, [True, True, False])
    for seed in range(4):
        tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
        init = sf.perturb_near(tup, 1e-2 * frob(sp.dense()), seed=seed)
        run = sf.run_rgd(init, gt, cfg)
        status, rows = _rgd_step_loop(init, gt, cfg)
        assert (run.status, run.iters) == (status, len(rows) - 1)
        assert status == "converged_to_X"
        terminal = [run.terminal_dist, run.terminal_sigma_r, run.terminal_grad_norm]
        assert np.allclose(np.vstack([run.records, [run.iters, *terminal]]), rows,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, r, rows", [(40, 3, 6), (3, 2, 3)])
def test_descent_steps_in_min_n_2r_rows_and_lifts_its_terminal_points(monkeypatch, n, r, rows):
    # every stepped U has min(n, 2r) rows (example 1.1's n = 3 < 2r too); terminal points
    # leave the runner with n rows
    if n == 3:
        gt, init = small_example()
        starts = [init] * 3
    else:
        gt = sf.make_ground_truth(n, r, [3, 2, 1], seed=15)
        starts = _escape_starts(gt, 3)
    stepped = []
    step = rgd._step

    def spy(U, *args):
        stepped.append(U.shape[-2])
        return step(U, *args)

    monkeypatch.setattr(rgd, "_step", spy)
    runs = list(run_rgd_batch(*batch_of(starts), gt, sf.GDConfig(alpha=0.3, max_iters=200)))
    assert stepped and set(stepped) == {rows}
    assert all(run.point.U.shape == (n, r) for run in runs)


# --------------------------------------------------------- iteration Jacobian

def test_iteration_jacobian_spectrum_structure():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=8)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    alpha = 0.7
    rep = sf.iteration_jacobian(tup, gt, alpha)
    dim = sf.manifold_dim(8, 8, 3, "real", hermitian=True)
    assert rep.eigenvalues.shape == (dim,)
    assert abs(rep.eigenvalues[0] - (1 + alpha * rep.d_miss)) < 1e-10
    assert np.sum(rep.eigenvalues > 1 + 1e-6) == 1
    assert np.max(np.abs(rep.eigenvalues[1:] - 1.0)) < 1e-8


def test_iteration_jacobian_escape_coordinate():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=9)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False, True]), gt, 3)
    rep = sf.iteration_jacobian(tup, gt, 0.5)
    xi = rep.escape_tangent()
    coords_in = sf.tangent_coordinates(xi)
    coords_out = rep.matrix @ coords_in
    assert frob(coords_out - (1 + 0.5 * rep.d_miss) * coords_in) < 1e-10
    # the escape pattern couples the missing eigenvector with the null slot
    amb = xi.to_ambient()
    u_miss = tup.point.U_miss[:, 0]
    fill = rep.frame.U[:, -1]
    assert abs(u_miss @ amb @ fill - 1.0) < 1e-12


def test_iteration_jacobian_matches_fd_and_resolves_constant():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=10)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 4)
    alpha = 0.7
    rep = sf.iteration_jacobian(tup, gt, alpha)
    fd = sf.fd_iteration_matrix(tup, gt, alpha, eps=1e-5, h=1e-8)
    assert np.max(np.abs(fd - rep.matrix)) <= 1e-4
    top = np.sort(np.linalg.eigvals(fd).real)[-1]
    err_single = abs(top - (1 + alpha * rep.d_miss))
    err_double = abs(top - (1 + 2 * alpha * rep.d_miss))
    assert err_single < 1e-4 and err_single < err_double / 1000


def _fd_by_column(tup, gt, alpha, eps=1e-5, h=1e-8):
    """fd_iteration_matrix one tangent column at a time, through the public retract and rgd_step.

    Each step returns the new point's frame coordinates [M | N] = H[:, :r]^T S H with
    H = U^T [U_f, U_perp], and those are differenced.
    """
    frame = sf.boundary_frame(tup)
    F = np.hstack([frame.U, frame.U_perp])
    cfg = sf.GDConfig(alpha=alpha, mode="varying", max_iters=1)
    Z0 = sym(tup.U @ (tup.S + eps * np.eye(tup.r)) @ tup.U.T)

    def step_coordinates(W):
        point = sf.rgd_step(sf.retract(W, tup.r).point, gt, cfg).point
        H = point.U.T @ F
        return H[:, :tup.r].T @ point.S @ H

    cols = []
    for xi in sf.tangent_coordinate_basis(frame):
        d = xi.to_ambient()
        diff = (step_coordinates(Z0 + h * d) - step_coordinates(Z0 - h * d)) / (2.0 * h)
        xi = sf.TangentParam(diff[:, :tup.r], diff[:, tup.r:], frame)
        cols.append(sf.tangent_coordinates(xi))
    return np.array(cols).T


def _fd_dense_difference(tup, gt, alpha, eps=1e-5, h=1e-8):
    """The reference formula: central differences of the dense next point, then its coordinates."""
    frame = sf.boundary_frame(tup)
    cfg = sf.GDConfig(alpha=alpha, mode="varying", max_iters=1)
    Z0 = sym(tup.U @ (tup.S + eps * np.eye(tup.r)) @ tup.U.T)

    def step_dense(W):
        return sf.rgd_step(sf.retract(W, tup.r).point, gt, cfg).point.dense()

    cols = []
    for xi in sf.tangent_coordinate_basis(frame):
        d = xi.to_ambient()
        diff = (step_dense(Z0 + h * d) - step_dense(Z0 - h * d)) / (2.0 * h)
        cols.append(sf.tangent_coordinates(sf.TangentParam.from_ambient(frame, diff)))
    return np.array(cols).T


def _count_linalg(monkeypatch, *names):
    """Count the calls of the np.linalg functions by (name, length of the argument's last axis)."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name, a.shape[-1]] += 1
            return fn(a, *args, **kwargs)
        return wrapper
    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize("n, r", [(8, 3), (20, 4), (40, 5)])
def test_fd_iteration_matrix_equals_column_loop_bitwise(monkeypatch, n, r):
    gt = sf.make_ground_truth(n, r, list(range(r + 1, 1, -1)), seed=21)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True] * (r - 1) + [False]), gt, 2)
    ref = _fd_by_column(tup, gt, 0.7)
    calls = _count_linalg(monkeypatch, "eigh")
    # stacks of one column, of three (the last one partial at n=20 and n=40), and the default
    # (every column in one at n=8 and 20, five stacks of 40 columns at n=40, the last partial)
    default = {8: 1024, 20: 163, 40: 40}[n]
    for entries, m in ((1, 1), (3 * n**2, 3), (_runner.BLOCK_ENTRIES, default)):
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
        calls.clear()
        fd = sf.fd_iteration_matrix(tup, gt, 0.7)
        assert fd.shape == ref.shape and fd.tobytes() == ref.tobytes()
        assert calls["eigh", n] == 2 * -(-len(fd) // m)     # a dense eigh per stack and side


@pytest.mark.parametrize("n, r", [(8, 3), (40, 5)])
def test_fd_directions_are_the_coordinate_basis(n, r):
    # a_k b_k^T + b_k a_k^T has to_ambient's bits wherever that adds one nonzero product: on the
    # diagonal of M and on N; above M's diagonal it adds two, and BLAS may fuse one of them
    # into the sum, so there the two agree to one rounding of |a_x b_y| + |b_x a_y|
    gt = sf.make_ground_truth(n, r, list(range(r + 1, 1, -1)), seed=21)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True] * (r - 1) + [False]), gt, 2)
    frame = sf.boundary_frame(tup)
    a, b = rgd._direction_factors(frame)
    ref = rgd._from_coordinates(frame, np.eye(len(a))).to_ambient()
    ab = a[:, :, None] * b[:, None, :]
    D = ab + ab.swapaxes(1, 2)
    m = r * (r + 1) // 2
    for rows in (slice(0, r), slice(m, None)):
        assert D[rows].tobytes() == ref[rows].tobytes()
    size = np.abs(ab) + np.abs(ab.swapaxes(1, 2))
    assert np.all(np.abs(D[r:m] - ref[r:m]) <= np.finfo(float).eps * size[r:m])


@pytest.mark.parametrize("n, r, seed", [(8, 3, 21), (8, 3, 22), (20, 4, 21), (40, 5, 21)])
def test_fd_iteration_matrix_agrees_with_dense_differences(n, r, seed):
    # differencing frame coordinates instead of the dense next point changes only the rounding
    # of the differences; measured over seeds 21-26 (21-23 at n = 40): at most 1.7e-7 at n = 8,
    # 3.2e-7 at n = 20 and 4.6e-7 at n = 40
    gt = sf.make_ground_truth(n, r, list(range(r + 1, 1, -1)), seed=seed)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True] * (r - 1) + [False]), gt, 2)
    fd = sf.fd_iteration_matrix(tup, gt, 0.7)
    assert np.max(np.abs(fd - _fd_dense_difference(tup, gt, 0.7))) <= 1e-6


@pytest.mark.parametrize("entries, s", [(None, 1), (5 * 8**2, 5), (8**2, 21)])
def test_fd_oracle_call_budget(monkeypatch, entries, s):
    # one tuple at n=8, r=3 (dim 21) goes in s = ceil(dim / m) stacks of m = 1024 (the
    # default), 5 or 1 columns.  Each stack steps twice (+h and -h), and a step costs one
    # dense eigh, whose values give the stepsize, one QR of [V, U] to m = 2r = 6 rows and one
    # 6 x 6 eigh; the boundary frame costs one complete QR
    gt = sf.make_ground_truth(8, 3, [4, 3, 2], seed=21)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    if entries is not None:
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
    calls = _count_linalg(monkeypatch, "eigh", "eigvalsh", "qr")
    sf.fd_iteration_matrix(tup, gt, 0.7)
    assert calls == Counter({("eigh", 8): 2 * s, ("eigh", 6): 2 * s, ("qr", 6): 2 * s,
                             ("qr", 4): 1})


def test_fd_oracle_builds_its_m_row_target_once(monkeypatch):
    # the oracle's 2 s = 42 compressions (s = 21 stacks of one column) share the target that
    # the first one builds: T[:, :r] of the QR of [V, U] depends on V alone
    gt = sf.make_ground_truth(8, 3, [4, 3, 2], seed=21)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    ref = sf.fd_iteration_matrix(tup, gt, 0.7)
    built, compress = [], _runner.compress

    def counted(U, gt, gt_m=None):
        out = compress(U, gt, gt_m)
        built.append(gt_m is None)
        return out

    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", 8**2)
    monkeypatch.setattr(_runner, "compress", counted)
    assert sf.fd_iteration_matrix(tup, gt, 0.7).tobytes() == ref.tobytes()
    assert built == [True] + [False] * 41


@pytest.mark.parametrize("n, r, mask", [(8, 3, [True, False, True]), (40, 5, [True] * 4 + [False])])
def test_iteration_jacobian_matrix_is_the_operator(n, r, mask):
    # the closed-form matrix maps coordinates as the ambient operator
    # xi -> xi + alpha (low + low^T), low = X_m Up N^T e e^T U^T, maps tangents
    gt = sf.make_ground_truth(n, r, list(range(r, 0, -1)), seed=18)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, mask), gt, 1)
    alpha = 0.7
    rep = sf.iteration_jacobian(tup, gt, alpha)
    frame = rep.frame
    u = tup.point.U_miss
    Xm = (u * tup.point.d_miss) @ u.T
    ee = np.zeros((r, r))
    ee[-1, -1] = 1.0
    rng = np.random.default_rng(5)
    for _ in range(3):
        xi = sf.TangentParam(rng.standard_normal((r, r)), rng.standard_normal((r, n - r)), frame)
        low = Xm @ frame.U_perp @ xi.N.T @ ee @ frame.U.T
        out = sf.TangentParam.from_ambient(frame, xi.to_ambient() + alpha * (low + low.T))
        expected = sf.tangent_coordinates(out)
        assert np.max(np.abs(rep.matrix @ sf.tangent_coordinates(xi) - expected)) <= 1e-12


@pytest.mark.parametrize("n, r", [(8, 3), (12, 1)])
def test_tangent_coordinates_invert_the_basis(n, r):
    gt = sf.make_ground_truth(n, r, list(range(r, 0, -1)), seed=19)
    frame = sf.eigen_frame(sf.FactoredPoint(gt.U, np.diag(gt.d)))
    basis = sf.tangent_coordinate_basis(frame)
    assert len(basis) == sf.manifold_dim(n, n, r, "real", hermitian=True)
    for i, b in enumerate(basis):
        np.testing.assert_array_equal(sf.tangent_coordinates(b), np.eye(len(basis))[i])


@pytest.mark.parametrize("n, r", [(8, 3), (12, 1), (40, 5)])
@pytest.mark.parametrize("k", [1, 7])
def test_stacked_tangent_conversions_equal_the_per_vector_path_bitwise(n, r, k):
    # r = 1 leaves the strict upper triangle of M empty
    gt = sf.make_ground_truth(n, r, list(range(r, 0, -1)), seed=20)
    frame = sf.eigen_frame(sf.FactoredPoint(gt.U, np.diag(gt.d)))
    rng = np.random.default_rng(n + k)
    amb = sym(rng.standard_normal((k, n, n)))
    coords = sf.tangent_coordinates(sf.TangentParam.from_ambient(frame, amb))
    single = [sf.tangent_coordinates(sf.TangentParam.from_ambient(frame, x)) for x in amb]
    assert coords.shape == (k, sf.manifold_dim(n, n, r, "real", hermitian=True))
    assert coords.tobytes() == np.array(single).tobytes()
    c = rng.standard_normal(coords.shape)
    xi = rgd._from_coordinates(frame, c)
    single = [rgd._from_coordinates(frame, row).to_ambient() for row in c]
    assert xi.to_ambient().tobytes() == np.array(single).tobytes()
    assert sf.tangent_coordinates(xi).tobytes() == c.tobytes()


def test_iteration_jacobian_rejects_deeper_deficit():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=11)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False, False]), gt, 0)
    with pytest.raises(ValueError):
        sf.iteration_jacobian(tup, gt, 0.5)
