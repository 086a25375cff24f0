"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its measured quantities (run with ``pytest -v -s``).

Criterion 5 runs the varying stepsize rule alpha_k = alpha * sigma_r(Z_k)
twice against a target whose smallest eigenvalue is 1.  At alpha = 1.8,
strictly inside the stability region alpha * sigma_r(X) < 2, it asserts the
stated 1e-6 terminal accuracy over 100 runs.  At alpha = 2.0, the
stability edge (linearized multiplier 1 - 2 = -1 at the target), it asserts
the documented algebraic plateau |sigma_r - 1| ~ 1/sqrt(8k) instead: there
a 1e-6 accuracy would need ~1e11 iterations.
"""

import time

import numpy as np

import spsdflow as sf
from spsdflow.experiments import ExperimentConfig
from spsdflow.flows import _raw_rescaled
from spsdflow.manifold import frob, sym


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {tag} - {desc}{suffix}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_exact_small_trajectory():
    t0 = time.time()
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    worst = 0.0
    for alpha in (0.1, 0.5):
        pt = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
        cfg = sf.GDConfig(alpha=alpha, max_iters=1)
        for k in range(61):
            expected = np.diag([2.0, 0.0, (1.0 - alpha) ** k])
            worst = max(worst, float(np.max(np.abs(pt.dense() - expected))))
            pt = sf.rgd_step(pt, gt, cfg).point
    init = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    status = sf.run_rgd(init, gt, sf.GDConfig(alpha=0.1, max_iters=2000)).status
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and status == "near_spurious" and elapsed < 1.0
    _report(1, ok, "closed-form descent trajectory is exact",
            f"max entry err {worst:.2e}, status {status}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert status == "near_spurious"
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_spurious_census():
    t0 = time.time()
    worst = 0.0
    counts_ok = True
    for r in range(2, 7):
        gt = sf.make_ground_truth(2 * r + 3, r, np.arange(r, 0, -1.0), seed=r)
        pts = sf.enumerate_spurious(gt)
        counts_ok = counts_ok and len(pts) == 2**r - 1
        for sp in pts:
            for seed in range(5):
                tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
                worst = max(worst, sf.gradient_norm(tup.factored(), gt))
    elapsed = time.time() - t0
    ok = counts_ok and worst <= 1e-10 and elapsed < 5.0
    _report(2, ok, "census is complete and stationary",
            f"max grad {worst:.2e}, {elapsed:.2f}s")
    assert counts_ok
    assert worst <= 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_escape_from_rank_deficit_one():
    t0 = time.time()
    cfg = ExperimentConfig(scenario="escape_s_r1", n=100, r=5, alpha=0.2,
                           mode="fixed", epsilon=1e-2, repeats=100,
                           max_iters=5000, tol_dist=1e-6, master_seed=2026)
    report = sf.run_experiment(cfg)
    elapsed = time.time() - t0
    n_conv = report.status_counts.get("converged_to_X", 0)
    worst_iters = max(t["iters"] for t in report.terminals)
    ok = n_conv == 100 and elapsed < 120.0
    _report(3, ok, "all 100 runs escape the rank-deficit-one point",
            f"{n_conv}/100 converged, max iters {worst_iters}, {elapsed:.1f}s")
    assert n_conv == 100
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_escape_from_rank_deficit_two():
    cfg = ExperimentConfig(scenario="escape_s_r2", n=100, r=5, alpha=0.2,
                           mode="fixed", epsilon=1e-2, repeats=100,
                           max_iters=5000, tol_dist=1e-6, master_seed=2027)
    report = sf.run_experiment(cfg)
    n_conv = report.status_counts.get("converged_to_X", 0)
    _report(4, n_conv == 100, "all 100 runs escape the rank-deficit-two point",
            f"{n_conv}/100 converged")
    assert n_conv == 100


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_varying_stepsize_terminal_accuracy():
    """Varying-stepsize runs reach the target to 1e-6 inside the stability region.

    On the retained eigenvalue the rule alpha_k = alpha * sigma_r(Z_k)
    reduces to s -> s + alpha s (1 - s) for sigma_r(X) = 1, whose fixed
    point is attracting for alpha * sigma_r(X) < 2.  Two runs of the same
    escape scenario pin both sides of that condition:

    * alpha = 1.8, strictly inside: all 100 runs escape the rank-deficit-one
      point and converge, with |sigma_r - 1| <= 1e-6 at the end;
    * alpha = 2.0, the edge: the map sits at its first period-doubling
      point, the multiplier at the target is 1 - 2 = -1, and the error
      contracts only through second-order terms, |sigma_r - 1| ~= 1/sqrt(8k)
      (confirmed over 2e5 iterations).  The runs escape and reach that
      plateau but end at the iteration cap.
    """
    def run(alpha):
        cfg = ExperimentConfig(scenario="escape_s_r1", n=100, r=5, alpha=alpha,
                               mode="varying", epsilon=1e-2, repeats=100,
                               max_iters=5000, tol_dist=1e-6, master_seed=2028)
        report = sf.run_experiment(cfg)
        sig_err = np.array([abs(t["sigma_r"] - 1.0) for t in report.terminals])
        dist = np.array([t["dist"] for t in report.terminals])
        return cfg, report.status_counts, sig_err, dist

    _, counts, sig_err, _ = run(1.8)
    n_conv = counts.get("converged_to_X", 0)
    ok = n_conv == 100 and np.all(sig_err <= 1e-6)
    edge_cfg, edge_counts, edge_err, edge_dist = run(2.0)
    plateau = float(np.median(edge_err))
    _report(5, ok, "varying-stepsize runs converge with terminal sigma_r accuracy 1e-6",
            f"alpha 1.8: {n_conv}/100 converged, max |sigma_r-1| {sig_err.max():.2e}; "
            f"alpha 2.0 edge: median terminal dist {np.median(edge_dist):.2e}, "
            f"median |sigma_r-1| {plateau:.2e}")
    # the stated tolerances, inside the stability region
    assert n_conv == 100
    assert np.all(sig_err <= 1e-6)
    # at the edge every run escapes and reaches the coarse plateau predicted
    # by the analysis, 1/sqrt(8k) at k = 5000, without converging
    assert np.all(edge_dist < 0.5)
    assert plateau < 3.0 / np.sqrt(8 * edge_cfg.max_iters)
    assert edge_counts.get("max_iters", 0) == 100


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_rescaled_flow_escape_eigenpair():
    gt = sf.make_ground_truth(12, 5, [5, 4, 3, 2, 1], seed=60)
    worst_apply = 0.0
    worst_fd = 0.0
    spectra_ok = True
    for miss in range(5):
        mask = [i != miss for i in range(5)]
        sp = sf.spurious_point(gt, mask)
        d_miss = float(sp.d_miss[0])
        for seed in range(20):
            tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
            J = sf.rescaled_jacobian(tup, gt)
            rep = J.spectrum(positive_tol=1e-8)
            spectra_ok = spectra_ok and rep.n_positive == 1
            top = float(np.max(rep.eigenvalues.real))
            spectra_ok = spectra_ok and abs(top - d_miss) <= 1e-8 * d_miss
            worst_apply = max(worst_apply, rep.escape_residual)
            xi = J.escape_direction()
            fd = sf.fd_directional(lambda p: _raw_rescaled(p[0], p[1], gt),
                                   (tup.U, tup.S), xi, h=1e-6)
            ray = float(np.sum(fd[0] * xi[0]) / np.sum(xi[0] * xi[0]))
            worst_fd = max(worst_fd, abs(ray - d_miss) / d_miss)
    ok = spectra_ok and worst_apply <= 1e-8 and worst_fd <= 1e-4
    _report(6, ok, "escape eigenpair of the rescaled-flow Jacobian",
            f"max apply residual {worst_apply:.2e}, max FD rel err {worst_fd:.2e}")
    assert spectra_ok
    assert worst_apply <= 1e-8
    assert worst_fd <= 1e-4


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_extension_function_limits():
    gt = sf.make_ground_truth(12, 5, [5, 4, 3, 2, 1], seed=70)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [1, 1, 1, 1, 0]), gt, 7)
    w, P = np.linalg.eigh(tup.S)            # ascending; slot 0 is the null one
    p = P[:, 0]
    err_phi = frob(sf.scaled_inverse(tup.S) - np.outer(p, p))

    err_psi = 0.0
    r = 5
    for i in range(r):
        for j in range(r):
            eta = np.outer(P[:, i], P[:, j])
            got = sf.scaled_inverse_gradient(tup.S, eta)
            if i != 0 and j != 0:
                ref = np.zeros((r, r))
            elif i == 0 and j == 0:
                ref = (P[:, 1:] * (1.0 / w[1:])) @ P[:, 1:].T
            elif j == 0:
                ref = -eta / w[i]
            else:
                ref = -eta / w[j]
            err_psi = max(err_psi, frob(got - ref))

    rng = np.random.default_rng(71)
    orders = []
    for _ in range(3):
        Q = sf.haar_orthonormal(rng, 4, 4)
        S = sym(Q @ np.diag(np.sort(rng.uniform(0.4, 5.0, 4))[::-1]) @ Q.T)
        eta = sym(rng.standard_normal((4, 4)))
        ref = sf.scaled_inverse_gradient(S, eta)
        rep = sf.fd_report(lambda M: sf.scaled_inverse(sym(M)), S, eta, ref,
                           hs=[3e-2, 1e-2, 3e-3, 1e-3])
        orders.append(rep.convergence_order)
    ok = err_phi <= 1e-12 and err_psi <= 1e-10 and min(orders) >= 1.9
    _report(7, ok, "boundary limits of the rescaled inverse and its derivative",
            f"phi err {err_phi:.2e}, psi err {err_psi:.2e}, min FD order {min(orders):.2f}")
    assert err_phi <= 1e-12
    assert err_psi <= 1e-10
    assert min(orders) >= 1.9


# ---------------------------------------------------------------- criterion 8

def _polyline_gap(P, Q):
    # Largest distance from a point of P to the polyline Q.  Each point is measured against
    # the 8 segments whose midpoints are nearest (a BLAS expansion of the squared distance),
    # so the gap is never below the distance to the whole polyline.
    worst = 0.0
    seg = Q[1:] - Q[:-1]
    seg_nrm = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    mid = Q[:-1] + 0.5 * seg
    k = min(8, len(seg))
    for lo in range(0, len(P), 256):
        p = P[lo:lo + 256]
        near = np.argpartition(np.sum(mid * mid, axis=1) - 2 * p @ mid.T, k - 1, axis=1)[:, :k]
        a = Q[near] - p[:, None, :]
        tt = np.clip(-np.sum(a * seg[near], axis=2) / seg_nrm[near], 0.0, 1.0)
        closest = a + tt[..., None] * seg[near]
        worst = max(worst, float(np.sqrt(np.sum(closest * closest, axis=2).min(axis=1).max())))
    return worst


def test_criterion_08_flow_equivalences():
    rng = np.random.default_rng(80)
    worst_rec = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 21))
        r = int(rng.integers(1, min(5, n)))
        d = np.sort(rng.uniform(0.5, 5.0, r))[::-1]
        d += np.arange(r, 0, -1) * 1e-3     # enforce distinctness
        gt = sf.GroundTruth(sf.haar_orthonormal(rng, n, r), np.sort(d)[::-1])
        pt = sf.FactoredPoint(sf.haar_orthonormal(rng, n, r),
                              np.diag(np.sort(rng.uniform(0.3, 3.0, r))[::-1]))
        dv = sf.dlra_rhs(sf.FlowState(pt), gt)
        dZ = dv.dU @ pt.S @ pt.U.T + pt.U @ dv.dS @ pt.U.T + pt.U @ pt.S @ dv.dU.T
        worst_rec = max(worst_rec, frob(dZ + sf.riem_gradient(pt, gt)))

    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=81)
    ctl = sf.StepControls(dt=5e-3, tau_conv=1e-6)
    worst_gap = 0.0
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3),
                                np.diag(np.sort(rng.uniform(0.4, 3.0, 3))[::-1]))
        ra = sf.integrate("dlra", init, gt, 40.0, ctl)
        rb = sf.integrate("rescaled", init, gt, 40.0, ctl)
        A = np.array([s.point.dense().ravel() for s in ra.states])
        B = np.array([s.point.dense().ravel() for s in rb.states])
        worst_gap = max(worst_gap, _polyline_gap(A[::4], B), _polyline_gap(B[::4], A))
    ok = worst_rec <= 1e-10 and worst_gap <= 1e-4
    _report(8, ok, "factored flow reconstructs the projected flow; both systems share the curve",
            f"max reconstruction err {worst_rec:.2e}, max curve gap {worst_gap:.2e}")
    assert worst_rec <= 1e-10
    assert worst_gap <= 1e-4


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_core_eigenvalue_decay_bounds():
    gt = sf.make_ground_truth(10, 3, [3, 2, 1], seed=90)
    ok_plain = ok_rescaled = True
    margin = 1.0 - 1e-2
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        init = sf.FactoredPoint(sf.haar_orthonormal(rng, 10, 3),
                                np.diag(np.sort(rng.uniform(0.2, 3.0, 3))[::-1]))
        s0 = init.sigma_min()
        res = sf.integrate("dlra", init, gt, 3.0)
        t, sig = res.records[:, 0], res.records[:, 2]
        ok_plain = ok_plain and bool(np.all(sig >= margin * s0 * np.exp(-t)))
        res = sf.integrate("rescaled", init, gt, 3.0)
        t, sig = res.records[:, 0], res.records[:, 2]
        ok_rescaled = ok_rescaled and bool(np.all(sig >= margin * s0 / (1.0 + t * s0)))
    ok = ok_plain and ok_rescaled
    _report(9, ok, "smallest core eigenvalue respects its decay bounds",
            f"exponential bound {ok_plain}, algebraic bound {ok_rescaled}")
    assert ok_plain and ok_rescaled


# --------------------------------------------------------------- criterion 10

def test_criterion_10_iteration_jacobian_spectrum():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=100)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [1, 1, 0]), gt, 10)
    alpha = 0.7
    rep = sf.iteration_jacobian(tup, gt, alpha)
    dim = sf.manifold_dim(8, 8, 3, "real", hermitian=True)
    n_above = int(np.sum(rep.eigenvalues > 1 + 1e-6))
    rest_err = float(np.max(np.abs(np.sort(rep.eigenvalues)[:-1] - 1.0)))

    fd = sf.fd_iteration_matrix(tup, gt, alpha, eps=1e-5, h=1e-8)
    fd_err = float(np.max(np.abs(fd - rep.matrix)))
    top = float(np.sort(np.linalg.eigvals(fd).real)[-1])
    err_single = abs(top - (1 + alpha * rep.d_miss))
    err_double = abs(top - (1 + 2 * alpha * rep.d_miss))
    resolved = "1+alpha*d" if err_single < err_double else "1+2*alpha*d"

    ok = (rep.eigenvalues.shape == (dim,) and n_above == 1 and rest_err <= 1e-8
          and fd_err <= 1e-4 and resolved == "1+alpha*d")
    _report(10, ok, "iteration-map spectrum at the boundary tuple",
            f"one escape eigenvalue ({n_above}), rest |l-1| {rest_err:.1e}, "
            f"FD dev {fd_err:.1e}, escape constant resolved to {resolved} "
            f"(top {top:.8f} vs {1 + alpha * rep.d_miss:.3f} / {1 + 2 * alpha * rep.d_miss:.3f})")
    assert rep.eigenvalues.shape == (dim,)
    assert n_above == 1
    assert rest_err <= 1e-8
    assert fd_err <= 1e-4
    assert resolved == "1+alpha*d"


# --------------------------------------------------------------- criterion 11

def test_criterion_11_subspace_perturbation_bound_sweep():
    rng = np.random.default_rng(110)
    checked, violations = 0, 0
    while checked < 10_000:
        n, k = 8, 3
        Q = sf.haar_orthonormal(rng, n, n)
        top = np.sort(rng.uniform(2.5, 4.0, k))[::-1]
        rest = np.sort(rng.uniform(-1.0, 1.0, n - k))[::-1]
        A = sym(Q @ np.diag(np.concatenate([top, rest])) @ Q.T)
        Delta = sym(rng.standard_normal((n, n))) * rng.uniform(0.01, 0.4)
        try:
            rep = sf.sin_theta_check(A, Delta, k)
        except sf.oracles.SeparationError:
            continue
        violations += 0 if rep.holds else 1
        checked += 1
    _report(11, violations == 0, "subspace perturbation bound never violated",
            f"{checked} instances, {violations} violations")
    assert violations == 0


# --------------------------------------------------------------- criterion 12

def test_criterion_12_chart_skewness_and_injectivity():
    rng = np.random.default_rng(120)
    worst_skew = 0.0
    produced = 0
    while produced < 1000:
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(6, n + 1)))
        U = sf.haar_orthonormal(rng, n, k)
        Q = sf.haar_orthonormal(rng, n, k)
        try:
            o11, _ = sf.stiefel_chart(U, Q)
        except sf.oracles.ChartDomainError:
            continue
        worst_skew = max(worst_skew, frob(o11 + o11.T))
        produced += 1

    n, k = 10, 4
    Qc = sf.haar_orthonormal(rng, n, k)
    ins, outs = [], []
    while len(ins) < 100:
        U = sf.haar_orthonormal(rng, n, k)
        try:
            outs.append(np.concatenate([c.ravel() for c in sf.stiefel_chart(U, Qc)]))
        except sf.oracles.ChartDomainError:
            continue
        ins.append(U.ravel())
    ins, outs = np.array(ins), np.array(outs)
    injective = True
    for i in range(len(ins)):
        din = np.linalg.norm(ins[i + 1:] - ins[i], axis=1)
        dout = np.linalg.norm(outs[i + 1:] - outs[i], axis=1)
        injective = injective and bool(np.all(dout[din > 1e-3] > 0.0))
    ok = worst_skew <= 1e-12 and injective
    _report(12, ok, "chart coordinates are skew-symmetric and injective on samples",
            f"max skew defect {worst_skew:.2e}, injective {injective}")
    assert worst_skew <= 1e-12
    assert injective


# --------------------------------------------------------------- criterion 13

def test_criterion_13_hessian_blows_down_near_the_boundary():
    gt = sf.make_ground_truth(40, 5, [5, 4, 3, 2, 1], seed=130)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [1, 1, 1, 1, 0]), gt, 13)
    mins = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        point = sf.FactoredPoint(tup.U, tup.S + eps * np.eye(5))
        frame = sf.eigen_frame(point)
        basis = []
        for xi in sf.tangent_coordinate_basis(frame):
            amb = xi.to_ambient()
            basis.append(amb / frob(amb))
        flat = np.reshape(basis, (len(basis), -1))     # <b_i, Hb> for every i in one product
        H = np.empty((len(basis), len(basis)))
        for j, b in enumerate(basis):
            Hb = sf.riem_hessian_apply(point, gt, b, frame=frame)
            H[:, j] = flat @ Hb.ravel()
        mins.append(float(np.linalg.eigvalsh(sym(H))[0]))
    monotone = all(a > b for a, b in zip(mins, mins[1:]))
    ok = monotone and mins[-1] <= -1e3
    _report(13, ok, "smallest Hessian eigenvalue decreases without bound near the boundary",
            "min eigs " + ", ".join(f"{m:.1f}" for m in mins))
    assert monotone
    assert mins[-1] <= -1e3


# --------------------------------------------------------------- criterion 14

def test_criterion_14_escape_time_law():
    """Escape time against the start's distance from a rank-deficit-one point.

    Varying mode: near the boundary the iteration map expands one direction by
    the escape eigenvalue 1 + alpha d_miss of criterion 10, so the steps a run
    needs grow like ln(1/epsilon) / ln(1 + alpha d_miss).  Fixed mode: the
    map escapes in a bounded number of steps, whatever epsilon is.  Over
    master seeds 0, 1000, ..., 9000 the measured slope over the predicted one
    ran from 0.9949 to 1.0081, and a half-step move of an end median moves it
    by 0.9%; the tolerance of 3% leaves room for about three such moves.  The
    fixed-mode median was 22 at every epsilon for all ten seeds.
    """
    eps = np.array([1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    medians, converged = {}, 0
    for mode in ("varying", "fixed"):
        medians[mode] = []
        for epsilon in eps:
            report = sf.run_experiment(ExperimentConfig(
                scenario="escape_s_r1", n=30, r=3, alpha=0.5, mode=mode, epsilon=float(epsilon),
                repeats=20, master_seed=0))
            converged += report.status_counts.get("converged_to_X", 0)
            medians[mode].append(float(np.median([t["iters"] for t in report.terminals])))
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=0)          # the scenario's target
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [1, 1, 0]), gt, 0)
    predicted = 1.0 / np.log(sf.iteration_jacobian(tup, gt, 0.5).escape_eigenvalue)
    slope = np.polyfit(np.log(1.0 / eps), medians["varying"], 1)[0]
    ratio = slope / predicted
    spread = max(medians["fixed"]) - min(medians["fixed"])
    ok = converged == 200 and abs(ratio - 1.0) <= 0.03 and spread <= 1
    _report(14, ok, "escape time grows like ln(1/epsilon) / ln(1 + alpha d_miss) in varying "
            "mode and stays bounded in fixed mode",
            f"{converged}/200 converged; varying medians {medians['varying']}, slope "
            f"{slope:.4f} / predicted {predicted:.4f} = {ratio:.4f}; "
            f"fixed medians {medians['fixed']}")
    assert converged == 200
    assert abs(ratio - 1.0) <= 0.03
    # the fixed-step iteration counts do not grow with 1/epsilon, within one step
    assert spread <= 1
