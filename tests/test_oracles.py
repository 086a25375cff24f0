from collections import Counter

import numpy as np
import pytest

import spsdflow as sf
from spsdflow.flows import _raw_rescaled
from spsdflow.manifold import frob, sym
from spsdflow.oracles import ChartDomainError, SeparationError


# ----------------------------------------------------------- finite differences

def test_fd_exact_on_linear_maps():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    d = rng.standard_normal(5)
    for h in (1.0, 1e-3, 1e-6):
        est = sf.fd_directional(lambda v: A @ v, x, d, h)
        assert frob(est - A @ d) < 1e-9


def test_fd_supports_tuple_arguments():
    rng = np.random.default_rng(1)
    x = (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    d = (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    fun = lambda p: (p[0] @ p[1], p[1] - p[0])
    est = sf.fd_directional(fun, x, d, 1e-6)
    ref = (x[0] @ d[1] + d[0] @ x[1], d[1] - d[0])
    assert frob(est[0] - ref[0]) < 1e-8 and frob(est[1] - ref[1]) < 1e-9


def test_fd_report_order_two_on_smooth_map():
    rng = np.random.default_rng(2)
    Q = sf.haar_orthonormal(rng, 3, 3)
    S = sym(Q @ np.diag([4.0, 2.0, 1.0]) @ Q.T)
    eta = sym(rng.standard_normal((3, 3)))
    ref = sf.scaled_inverse_gradient(S, eta)
    rep = sf.fd_report(lambda M: sf.scaled_inverse(sym(M)), S, eta, ref,
                       hs=[3e-2, 1e-2, 3e-3, 1e-3])
    assert 1.9 < rep.convergence_order < 2.3
    assert rep.errors[0] > rep.errors[-1]


def test_fd_report_needs_three_steps():
    # Too few steps, a repeated step, and steps that are not positive and finite.
    for hs in ([1e-2, 1e-3], [1e-2] * 3, [1e-2, 1e-3, 0.0], [1e-2, 1e-3, np.nan]):
        with pytest.raises(ValueError):
            sf.fd_report(lambda v: v, np.zeros(2), np.ones(2), np.ones(2), hs=hs)
    with pytest.raises(ValueError):
        sf.fd_directional(lambda v: v, np.zeros(2), np.ones(2), np.nan)


def test_fd_confirms_boundary_escape_eigenvalue():
    gt = sf.make_ground_truth(9, 3, [3, 2, 1], seed=0)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 1)
    xi = (np.outer(tup.point.U_miss[:, 0], tup.null_vec), np.zeros((3, 3)))
    fd = sf.fd_directional(lambda p: _raw_rescaled(p[0], p[1], gt),
                           (tup.U, tup.S), xi, h=1e-6)
    d_miss = tup.point.d_miss[0]
    assert frob(fd[0] - d_miss * xi[0]) < 1e-4
    assert frob(fd[1]) < 1e-8


# -------------------------------------------------- smallest-eigenvalue slope

def test_eig_min_derivative_diagonal_case():
    out = sf.eig_min_derivative(np.diag([3.0, 1.0]), np.diag([0.0, 5.0]))
    assert out.mode == "simple" and out.multiplicity == 1
    assert abs(out.value - 5.0) < 1e-14


def test_eig_min_derivative_matches_fd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        S = sym(rng.standard_normal((4, 4))) + 4 * np.diag(np.arange(4.0))
        dS = sym(rng.standard_normal((4, 4)))
        ref = sf.eig_min_derivative(S, dS).value
        fd = sf.fd_directional(lambda M: np.linalg.eigvalsh(sym(M))[0], S, dS, 1e-6)
        assert abs(ref - fd) < 1e-7


def test_eig_min_derivative_cluster_mode():
    out = sf.eig_min_derivative(np.eye(3), np.diag([1.0, 2.0, 7.0]))
    assert out.mode == "cluster" and out.multiplicity == 3
    assert abs(out.value - 10.0) < 1e-12   # trace over the cluster


@pytest.mark.parametrize("S, dS, name", [
    (np.diag([1.0, np.nan]), np.eye(2), "S"),
    (np.diag([1.0, 2.0]), np.diag([np.nan, 0.0]), "dS"),
    (np.diag([np.inf, 2.0]), np.eye(2), "S"),
], ids=["nan-S", "nan-dS", "inf-S"])
def test_eig_min_derivative_rejects_non_finite_input(S, dS, name):
    # unchecked, a NaN core gives 0.0 from an empty "cluster" and a NaN dS a NaN "simple" slope
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        sf.eig_min_derivative(S, dS)


def test_eig_min_slope_bound_along_flow():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=4)
    rng = np.random.default_rng(5)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.2, 1.0, 0.5]))
    res = sf.integrate("dlra", init, gt, 2.0)
    for st in res.states[::20]:
        d = sf.dlra_rhs(st, gt)
        slope = sf.eig_min_derivative(st.point.S, d.dS)
        assert slope.value >= -st.point.sigma_min() - 1e-8


# ----------------------------------------------------- subspace perturbation

def test_sin_theta_zero_perturbation():
    A = np.diag([5.0, 3.0, 1.0])
    rep = sf.sin_theta_check(A, np.zeros((3, 3)), 1)
    assert rep.holds and rep.lhs_fro <= 1e-12


def test_sin_theta_two_by_two_sweep():
    A = np.diag([5.0, 1.0])
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        rep = sf.sin_theta_check(A, np.array([[0.0, eps], [eps, 0.0]]), 1)
        assert rep.holds
        # both sides shrink linearly with the perturbation
        assert rep.rhs_fro == pytest.approx(eps, rel=1e-6)
        assert rep.lhs_fro == pytest.approx(eps, rel=1e-3)


def test_sin_theta_requires_separation():
    # the second eigenvalue of B lands inside the leading interval of A
    with pytest.raises(SeparationError):
        sf.sin_theta_check(np.diag([1.0, 0.5]), np.diag([0.0, 0.6]), 1)


@pytest.mark.parametrize("A, Delta, message", [
    (np.ones((3, 2)), np.ones((3, 2)), "A must be a square matrix"),
    (np.ones(3), np.ones(3), "A must be a square matrix"),
    (np.eye(3), np.eye(2), "Delta must have A's shape"),
    (np.eye(3), np.ones(3), "Delta must have A's shape"),        # would broadcast
    (np.diag([2.0, np.nan, 1.0]), np.zeros((3, 3)), "A has non-finite entries"),
    (np.diag([2.0, 1.0, 0.0]), np.full((3, 3), np.inf), "Delta has non-finite entries"),
    (np.diag([1e308, 1.0, 0.0]), np.diag([1e308, 0.0, 0.0]), "A \\+ Delta overflows"),
], ids=["non-square", "vector", "mismatched", "broadcast", "nan-A", "inf-Delta", "overflow"])
def test_sin_theta_rejects_malformed_inputs(A, Delta, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):   # numpy warns on overflow
        sf.sin_theta_check(A, Delta, 1)


@pytest.mark.parametrize("k", [1.5, 1.0, True, np.True_, "1", 0, 3, np.int64(3)])
def test_sin_theta_rejects_dimensions_that_are_not_integers_in_range(k):
    # a float or a bool is a caller's mistake: truncating it would report on another dimension
    with pytest.raises(ValueError, match="subspace_dim must be an integer in \\[1, 2\\]"):
        sf.sin_theta_check(np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3)), k)


@pytest.mark.parametrize("k", [1, np.int64(1), np.int32(1), np.uint8(1)])
def test_sin_theta_accepts_python_and_numpy_ints(k):
    rep = sf.sin_theta_check(np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3)), k)
    assert rep.delta == 1.0 and rep.holds


def test_sin_theta_call_budget(monkeypatch):
    # one stacked eigh of (A, B); one svd for the principal angles and one for ||R||_2
    calls = Counter()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name, a.shape] += 1
            return fn(a, *args, **kwargs)
        return wrapper
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(3)
    A = np.diag([4.0, 3.5, 3.0, 1.0, 0.5, 0.0])
    rep = sf.sin_theta_check(A, 0.1 * sym(rng.standard_normal((6, 6))), 3)
    assert rep.holds
    assert calls == Counter({("eigh", (2, 6, 6)): 1, ("svd", (3, 3)): 1, ("svd", (6, 3)): 1})


def test_sin_theta_random_sweep():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 300:
        n, k = 7, 3
        Q = sf.haar_orthonormal(rng, n, n)
        top = np.sort(rng.uniform(3.0, 4.0, k))[::-1]
        rest = np.sort(rng.uniform(0.0, 1.0, n - k))[::-1]
        A = sym(Q @ np.diag(np.concatenate([top, rest])) @ Q.T)
        Delta = sym(rng.standard_normal((n, n))) * 0.2
        try:
            rep = sf.sin_theta_check(A, Delta, k)
        except SeparationError:
            continue
        assert rep.holds
        checked += 1


def test_sin_theta_near_boundary_core():
    # separation certificate used when a core approaches its boundary value
    gt = sf.make_ground_truth(9, 3, [3, 2, 1], seed=7)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    rng = np.random.default_rng(8)
    E = sym(rng.standard_normal((3, 3)))
    E /= frob(E)
    rep = sf.sin_theta_check(tup.S, 1e-3 * E, 2)
    assert rep.holds and rep.delta > 1.0


# -------------------------------------------------------------- chart mapping

def test_chart_center_maps_to_zero():
    rng = np.random.default_rng(9)
    Q = sf.haar_orthonormal(rng, 7, 3)
    o11, o21 = sf.stiefel_chart(Q, Q)
    assert frob(o11) < 1e-12 and frob(o21) < 1e-12


def test_chart_identity_center_formula():
    rng = np.random.default_rng(10)
    n, k = 8, 3
    U = sf.haar_orthonormal(rng, n, k)
    Q = np.vstack([np.eye(k), np.zeros((n - k, k))])
    o11, o21 = sf.stiefel_chart(U, Q)
    U1, U2 = U[:k], U[k:]
    ref11 = np.linalg.solve(U1.T + np.eye(k), (U1 - U1.T) @ np.linalg.inv(U1 + np.eye(k)))
    ref21 = U2 @ np.linalg.inv(U1 + np.eye(k))
    assert frob(o11 - ref11) < 1e-12
    assert frob(o21 - ref21) < 1e-12


def test_chart_matches_two_sided_formula():
    # verbatim two-sided evaluation of the same chart expression
    rng = np.random.default_rng(20)
    for _ in range(25):
        n, k = 9, 4
        U = sf.haar_orthonormal(rng, n, k)
        Q = sf.haar_orthonormal(rng, n, k)
        U1, U2, Q1, Q2 = U[:k], U[k:], Q[:k], Q[k:]
        Minv = np.linalg.inv(U1 + Q1)
        ref11 = Minv.T @ (Q1.T @ U1 + U2.T @ Q2 - U1.T @ Q1 - Q2.T @ U2) @ Minv
        ref21 = (U2 - Q2) @ Minv
        o11, o21 = sf.stiefel_chart(U, Q)
        assert frob(o11 - ref11) < 1e-10
        assert frob(o21 - ref21) < 1e-10


def test_chart_skewness_sweep():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(6, n)))
        U = sf.haar_orthonormal(rng, n, k)
        Q = sf.haar_orthonormal(rng, n, k)
        try:
            o11, _ = sf.stiefel_chart(U, Q)
        except ChartDomainError:
            continue
        assert frob(o11 + o11.T) <= 1e-12


def test_chart_injective_on_samples():
    rng = np.random.default_rng(12)
    n, k = 9, 3
    Q = sf.haar_orthonormal(rng, n, k)
    samples, images = [], []
    while len(samples) < 100:
        U = sf.haar_orthonormal(rng, n, k)
        try:
            images.append(np.concatenate([c.ravel() for c in sf.stiefel_chart(U, Q)]))
        except ChartDomainError:
            continue
        samples.append(U.ravel())
    S = np.array(samples)
    I = np.array(images)
    for i in range(len(S)):
        din = np.linalg.norm(S[i + 1:] - S[i], axis=1)
        dout = np.linalg.norm(I[i + 1:] - I[i], axis=1)
        mask = din > 1e-3
        assert np.all(dout[mask] > 0.0)


def test_chart_domain_error():
    k, n = 2, 5
    Q = np.vstack([np.eye(k), np.zeros((n - k, k))])
    U = np.vstack([-np.eye(k), np.zeros((n - k, k))])
    with pytest.raises(ChartDomainError):
        sf.stiefel_chart(U, Q)


@pytest.mark.parametrize("U, Q", [
    (3 * np.ones((5, 2)), np.eye(5)[:, :2]),                 # U not orthonormal
    (np.eye(5)[:, :2], np.eye(5)[:, [0, 0]]),                 # Q's columns not orthogonal
    (np.eye(5)[:, :2], np.full((5, 2), np.nan)),              # NaN
    (np.ones((2, 3)) / 2, np.eye(2, 3)),                      # more columns than rows
])
def test_chart_rejects_non_orthonormal_blocks(U, Q):
    with pytest.raises(ValueError, match="orthonormal blocks"):
        sf.stiefel_chart(U, Q)
