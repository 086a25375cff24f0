import numpy as np
import pytest

import spsdflow as sf
from spsdflow import rgd
from spsdflow.manifold import frob
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
    ramped = np.flatnonzero(sig >= 0.5 * gt.sigma_r)
    assert ramped.size > 0
    floor = 0.5 * gt.sigma_r / gt.d[0]
    assert np.min(sig[ramped[0]:]) >= floor


def test_gdconfig_validation():
    with pytest.raises(ValueError):
        sf.GDConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        sf.GDConfig(alpha=0.1, mode="adaptive")
    with pytest.raises(ValueError):
        sf.GDConfig(alpha=0.1, tol_dist=0.0)


# ------------------------------------------------------------ batched runs

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
    # one block of five runs, then blocks of two (the last one of one run)
    for entries in (rgd.BLOCK_ENTRIES, 2 * gt.n * gt.r):
        monkeypatch.setattr(rgd, "BLOCK_ENTRIES", entries)
        for run, ref in zip(run_rgd_batch(starts, gt, cfg), alone, strict=True):
            assert (run.status, run.iters) == (ref.status, ref.iters)
            assert np.array_equal(run.records, ref.records)
            assert ((run.terminal_dist, run.terminal_sigma_r, run.terminal_grad_norm)
                    == (ref.terminal_dist, ref.terminal_sigma_r, ref.terminal_grad_norm))
            assert np.array_equal(run.point.U, ref.point.U)
            assert np.array_equal(run.point.S, ref.point.S)


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
    runs = list(run_rgd_batch(starts, gt, cfg))
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
        list(run_rgd_batch(starts, gt, cfg))


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


def test_iteration_jacobian_rejects_deeper_deficit():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=11)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False, False]), gt, 0)
    with pytest.raises(ValueError):
        sf.iteration_jacobian(tup, gt, 0.5)
