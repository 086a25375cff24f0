import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spsdflow as sf
from spsdflow.flows import ExtensionError, scaled_inverse
from spsdflow.manifold import TAU_RANK, frob, orth_defect, relative_spectrum, sym, truncate
from spsdflow.oracles import ChartDomainError


def random_point(rng, n, r, spectrum=None):
    U = sf.haar_orthonormal(rng, n, r)
    if spectrum is None:
        spectrum = np.sort(rng.uniform(0.5, 3.0, r))[::-1]
    return sf.FactoredPoint(U, np.diag(spectrum))


def random_sym(rng, n):
    A = rng.standard_normal((n, n))
    return sym(A)


# ---------------------------------------------------------------- projection

def test_project_diagonal_example():
    # U spans {e1, e3} in R^3; only the retained-space component survives.
    pt = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    out = sf.tangent_project(pt, np.diag([0.0, -1.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 0.0, 1.0]), atol=1e-14)


def test_project_fixes_tangent_vectors():
    rng = np.random.default_rng(0)
    pt = random_point(rng, 6, 2)
    M = random_sym(rng, 2)
    Y = pt.U @ M @ pt.U.T
    assert frob(sf.tangent_project(pt, Y) - Y) < 1e-13


def tangent_basis_dense(pt):
    """Orthonormal dense basis of the tangent space (brute force)."""
    n, r = pt.n, pt.r
    Up = sf.complement_basis(pt.U)
    basis = []
    for i in range(r):
        for j in range(i, r):
            E = np.zeros((r, r))
            E[i, j] = E[j, i] = 1.0
            B = pt.U @ E @ pt.U.T
            basis.append(B / frob(B))
    for i in range(r):
        for k in range(n - r):
            B = np.outer(pt.U[:, i], Up[:, k])
            B = B + B.T
            basis.append(B / frob(B))
    return basis


def test_project_matches_basis_expansion_oracle():
    rng = np.random.default_rng(1)
    pt = random_point(rng, 6, 2)
    basis = tangent_basis_dense(pt)
    # basis count must agree with the dimension formula
    assert len(basis) == sf.manifold_dim(6, 6, 2, "real", hermitian=True)
    for _ in range(5):
        Y = random_sym(rng, 6)
        oracle = sum(np.sum(B * Y) * B for B in basis)
        assert frob(sf.tangent_project(pt, Y) - oracle) < 1e-12


@pytest.mark.parametrize("n,r", [(4, 1), (8, 3), (20, 5)])
def test_project_idempotent_and_self_adjoint(n, r):
    rng = np.random.default_rng(n * 10 + r)
    pt = random_point(rng, n, r)
    Y, W = random_sym(rng, n), random_sym(rng, n)
    PY = sf.tangent_project(pt, Y)
    assert frob(sf.tangent_project(pt, PY) - PY) < 1e-10
    assert abs(np.sum(PY * W) - np.sum(Y * sf.tangent_project(pt, W))) < 1e-10


def test_project_dimension_mismatch():
    rng = np.random.default_rng(2)
    pt = random_point(rng, 5, 2)
    with pytest.raises(ValueError):
        sf.tangent_project(pt, np.eye(4))


# ---------------------------------------------------------------- retraction

def test_retract_fixed_point_example():
    W = np.diag([2.0, 0.0, 1.0 - 0.3])
    res = sf.retract(W, 2)
    assert not res.rank_deficient
    assert frob(res.point.dense() - W) < 1e-14


def subset_truncation_oracle(W, r):
    """Frobenius-closest PSD candidate among eigenvalue-subset truncations."""
    w, V = np.linalg.eigh(W)
    best, best_err = None, np.inf
    for size in range(r + 1):
        for subset in itertools.combinations(range(len(w)), size):
            lam = np.clip(w[list(subset)], 0.0, None)
            Z = (V[:, list(subset)] * lam) @ V[:, list(subset)].T
            err = frob(W - Z)
            if err < best_err:
                best, best_err = Z, err
    return best, best_err


def test_retract_matches_subset_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(6):
        W = random_sym(rng, 8)
        res = sf.retract(W, 3)
        _, best_err = subset_truncation_oracle(W, 3)
        assert frob(W - res.point.dense()) <= best_err + 1e-12


def test_retract_flags_rank_deficiency():
    res = sf.retract(np.diag([3.0, -1.0, -2.0]), 2)
    assert res.rank_deficient
    assert frob(res.point.dense() - np.diag([3.0, 0.0, 0.0])) < 1e-14
    # a bool is not a rank, and a non-finite W fails here rather than inside eigh
    with pytest.raises(ValueError, match="^r must be an int"):
        sf.retract(np.diag([3.0, 2.0, 1.0]), True)
    with pytest.raises(ValueError, match="^W has non-finite entries"):
        sf.retract(np.diag([3.0, np.nan, 1.0]), 2)


# ------------------------------------------------------------ relative rank

@pytest.mark.parametrize("w,expected", [
    ([[1.0, -4.0, 2.0], [0.5, 0.25, -0.125]], [[0.25, -1.0, 0.5], [0.5, 0.25, -0.125]]),  # stack
    ([1e-3, -2e-3, 0.0], [1e-3, -2e-3, 0.0]),      # max|w| below 1: divided by 1
    ([-8.0, 2.0], [-1.0, 0.25]),                   # the largest magnitude may be negative
    ([-3.0], [-1.0]),                              # a single value
])
def test_relative_spectrum(w, expected):
    assert np.array_equal(relative_spectrum(np.array(w)), np.array(expected))


def test_relative_rank_decisions_are_exact_at_the_tolerance():
    # Spectra with max|w| <= 1 have scale 1, so each decision falls exactly at TAU_RANK:
    # inclusive (<=) for deficiency and vanishing, strict (>) for in_manifold.
    up = np.nextafter(TAU_RANK, 1.0)
    deficient = truncate(np.array([[TAU_RANK, 0.5, 1.0], [up, 0.5, 1.0]]), np.eye(3), 3)[2]
    assert deficient.tolist() == [True, False]
    assert not sf.FactoredPoint(np.eye(3)[:, :2], np.diag([TAU_RANK, 0.5])).in_manifold()
    assert sf.FactoredPoint(np.eye(3)[:, :2], np.diag([up, 0.5])).in_manifold()
    for w, message in (([TAU_RANK, 1e-8, 1.0], "not simple"), ([-0.5, TAU_RANK, 1.0], "non-minimal")):
        with pytest.raises(ExtensionError, match=message):
            scaled_inverse(np.diag(w))
        scaled_inverse(np.diag([up if x == TAU_RANK else x for x in w]))
    Q = np.eye(4)[:, [0, 2]]
    U = lambda s: np.array([[-0.5, 0.0], [0.0, s], [np.sqrt(0.75), 0.0], [0.0, 1.0]])
    with pytest.raises(ChartDomainError):           # U1 + Q1 = diag(0.5, s)
        sf.stiefel_chart(U(TAU_RANK), Q)
    sf.stiefel_chart(U(up), Q)


# ------------------------------------------------------------------ gradient

def test_gradient_first_example_state():
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    pt = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    assert np.allclose(sf.riem_gradient(pt, gt), np.diag([0.0, 0.0, 1.0]), atol=1e-14)


def test_gradient_zero_at_minimizer():
    gt = sf.make_ground_truth(7, 3, [3, 2, 1], seed=0)
    pt = sf.FactoredPoint(gt.U, np.diag(gt.d))
    assert frob(sf.riem_gradient(pt, gt)) < 1e-12


def test_gradient_zero_at_spurious_tuple():
    gt = sf.make_ground_truth(9, 3, [3, 2, 1], seed=1)
    sp = sf.spurious_point(gt, [True, False, True])
    tup = sf.sample_spurious_tuple(sp, gt, seed=5)
    assert frob(sf.riem_gradient(tup.factored(), gt)) < 1e-10


def test_gradient_directional_derivative_consistency():
    rng = np.random.default_rng(4)
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=2)
    pt = random_point(rng, 8, 3)
    frame = sf.eigen_frame(pt)
    xi = sf.TangentParam(random_sym(rng, 3), rng.standard_normal((3, 5)), frame)
    xid = xi.to_ambient()

    def f_of_h(h):
        Z = sf.retract(pt.dense() + h * xid, 3).point.dense()
        return 0.5 * frob(Z - gt.dense()) ** 2

    g = sf.riem_gradient(pt, gt)
    for h in (1e-4, 1e-5):
        fd = (f_of_h(h) - f_of_h(-h)) / (2 * h)
        assert abs(fd - np.sum(g * xid)) < 50 * h


@pytest.mark.parametrize("target_rank", [1, 2, 4, 6])
def test_gradient_norm_matches_dense(target_rank):
    # the point has rank 4; the target's rank need not match it
    rng = np.random.default_rng(5)
    gt = sf.make_ground_truth(12, target_rank, np.arange(target_rank, 0.0, -1.0), seed=3)
    pt = random_point(rng, 12, 4)
    grad, dist = frob(sf.riem_gradient(pt, gt)), frob(pt.dense() - gt.dense())
    assert abs(sf.gradient_norm(pt, gt) - grad) < 1e-12 * grad
    assert abs(sf.distance_to_target(pt, gt) - dist) < 1e-12 * dist
    if target_rank != 4:
        return
    # next to the target the squared distance is ~1e-14 against ||X||_F^2 = 30,
    # so any formula that subtracts O(1) terms loses every digit
    U_near = np.linalg.qr(gt.U + 3e-9 * rng.standard_normal((12, 4)))[0]
    near = sf.FactoredPoint(U_near, np.diag(gt.d) + 3e-8 * random_sym(rng, 4))
    dense = frob(near.dense() - gt.dense())
    assert 1e-8 < dense < 1e-6
    assert abs(sf.distance_to_target(near, gt) - dense) < 1e-6 * dense


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_factored_norms_match_dense_for_any_pair_of_ranks(data, n, seed):
    # point and target ranks 1-6 independently, the point sharing some of the
    # target's eigenvectors (exact cancellations) and carrying a non-diagonal core
    p = data.draw(st.integers(1, min(6, n)), label="point rank")
    q = data.draw(st.integers(1, min(6, n)), label="target rank")
    shared = data.draw(st.integers(0, min(p, q)), label="shared columns")
    rng = np.random.default_rng(seed)
    gt = sf.make_ground_truth(n, q, np.sort(rng.uniform(0.5, 3.0, q))[::-1], seed=seed)
    U = np.linalg.qr(np.hstack([gt.U[:, :shared], rng.standard_normal((n, p - shared))]))[0]
    Q = sf.haar_orthonormal(rng, p, p)
    pt = sf.FactoredPoint(U, sym(Q @ np.diag(rng.uniform(0.5, 3.0, p)) @ Q.T))
    scale = frob(pt.dense()) + frob(gt.dense())
    assert abs(sf.distance_to_target(pt, gt) - frob(pt.dense() - gt.dense())) < 1e-12 * scale
    assert abs(sf.gradient_norm(pt, gt) - frob(sf.riem_gradient(pt, gt))) < 1e-12 * scale


# ------------------------------------------------------------------- hessian

def test_hessian_identity_at_minimizer():
    rng = np.random.default_rng(6)
    gt = sf.make_ground_truth(6, 2, [2, 1], seed=4)
    pt = sf.FactoredPoint(gt.U, np.diag(gt.d))
    frame = sf.eigen_frame(pt)
    xi = sf.TangentParam(random_sym(rng, 2), rng.standard_normal((2, 4)), frame)
    out = sf.riem_hessian_apply(pt, gt, xi, frame=frame)
    assert frob(out - xi.to_ambient()) < 1e-12


def test_hessian_matches_finite_difference_gradient():
    rng = np.random.default_rng(7)
    gt = sf.make_ground_truth(6, 2, [2.5, 1.0], seed=5)
    pt = random_point(rng, 6, 2)
    frame = sf.eigen_frame(pt)
    xi = sf.TangentParam(random_sym(rng, 2), rng.standard_normal((2, 4)), frame)
    xid = xi.to_ambient()
    ref = sf.riem_hessian_apply(pt, gt, xi, frame=frame)

    def grad_at(h):
        q = sf.retract(pt.dense() + h * xid, 2).point
        return sf.riem_gradient(q, gt)

    errs = []
    for h in (1e-3, 1e-4, 1e-5, 1e-6):
        fd = (grad_at(h) - grad_at(-h)) / (2 * h)
        errs.append(frob(sf.tangent_project(pt, fd) - ref))
    # first-order agreement along the retracted curve
    assert errs[1] < errs[0]
    assert errs[2] < 20 * 1e-5


def test_hessian_self_adjoint():
    rng = np.random.default_rng(8)
    gt = sf.make_ground_truth(7, 3, [3, 2, 1], seed=6)
    pt = random_point(rng, 7, 3)
    frame = sf.eigen_frame(pt)
    for _ in range(3):
        a = sf.TangentParam(random_sym(rng, 3), rng.standard_normal((3, 4)), frame)
        b = sf.TangentParam(random_sym(rng, 3), rng.standard_normal((3, 4)), frame)
        Ha = sf.riem_hessian_apply(pt, gt, a, frame=frame)
        Hb = sf.riem_hessian_apply(pt, gt, b, frame=frame)
        assert abs(np.sum(Ha * b.to_ambient()) - np.sum(a.to_ambient() * Hb)) < 1e-9


def test_hessian_rejects_singular_core():
    gt = sf.make_ground_truth(6, 2, [2, 1], seed=7)
    sp = sf.spurious_point(gt, [True, False])
    tup = sf.sample_spurious_tuple(sp, gt, seed=0)
    with pytest.raises(ValueError, match="singular"):
        sf.riem_hessian_apply(tup.factored(), gt, np.zeros((6, 6)))


def test_hessian_rejects_a_tangent_from_another_frame():
    rng = np.random.default_rng(12)
    gt = sf.make_ground_truth(6, 2, [2, 1], seed=7)
    pt, other = random_point(rng, 6, 2), random_point(rng, 6, 2)
    xi = sf.TangentParam(np.eye(2), np.zeros((2, 4)), sf.eigen_frame(other))
    with pytest.raises(ValueError, match="different frame"):
        sf.riem_hessian_apply(pt, gt, xi)


def test_point_and_target_of_different_dimensions_are_rejected():
    pt = sf.FactoredPoint(np.eye(5)[:, :2], np.diag([2.0, 1.0]))
    gt = sf.GroundTruth(np.eye(4)[:, :2], np.array([3.0, 1.5]))
    for f in (sf.distance_to_target, sf.riem_gradient,
              lambda pt, gt: sf.riem_hessian_apply(pt, gt, np.zeros((5, 5)))):
        with pytest.raises(ValueError, match="dimension mismatch between point and target"):
            f(pt, gt)


def test_hessian_accepts_dense_tangent():
    rng = np.random.default_rng(9)
    gt = sf.make_ground_truth(6, 2, [2, 1], seed=8)
    pt = sf.FactoredPoint(gt.U, np.diag(gt.d))
    xi = sf.tangent_project(pt, random_sym(rng, 6))
    out = sf.riem_hessian_apply(pt, gt, xi)
    assert frob(out - xi) < 1e-12


# ----------------------------------------------------------------- dimension

def test_manifold_dim_table():
    assert sf.manifold_dim(100, 100, 5, "real", hermitian=True) == 490
    assert sf.manifold_dim(7, 4, 3, "real", hermitian=False) == 24
    assert sf.manifold_dim(9, 9, 0, "real", hermitian=True) == 0
    assert sf.manifold_dim(5, 7, 0, "complex", hermitian=False) == 0
    assert sf.manifold_dim(6, 6, 2, "complex", hermitian=True) == (4 * 6 - 2 + 1) * 2 // 2
    assert sf.manifold_dim(5, 6, 2, "complex", hermitian=False) == (2 * 5 + 2 * 6 - 2) * 2


def test_manifold_dim_validation():
    with pytest.raises(ValueError):
        sf.manifold_dim(4, 4, 5)
    with pytest.raises(ValueError):
        sf.manifold_dim(4, 5, 2, hermitian=True)
    with pytest.raises(ValueError):
        sf.manifold_dim(4, 4, 2, field="quaternion")


# --------------------------------------------------------------------- types

def test_ground_truth_validation():
    with pytest.raises(ValueError):
        sf.GroundTruth(np.eye(3)[:, :2], np.array([1.0, 1.0]))   # repeated
    with pytest.raises(ValueError):
        sf.GroundTruth(np.eye(3)[:, :2], np.array([1.0, 2.0]))   # wrong order
    with pytest.raises(ValueError):
        sf.GroundTruth(np.ones((3, 2)), np.array([2.0, 1.0]))    # not orthonormal
    for d in ([np.nan, 1.0], [np.inf, 1.0]):                          # not finite
        with pytest.raises(ValueError):
            sf.GroundTruth(np.eye(3)[:, :2], np.array(d))
    with pytest.raises(ValueError):
        sf.GroundTruth(np.where(np.eye(3)[:, :2] == 0, np.nan, 1.0), np.array([2.0, 1.0]))


def test_factored_point_validation_and_immutability():
    pt = sf.FactoredPoint(np.eye(4)[:, :2], np.diag([2.0, 1.0]))
    assert not pt.U.flags.writeable and not pt.S.flags.writeable
    assert pt.in_manifold()
    for U in (np.ones((4, 2)), np.full((4, 2), np.nan)):             # not orthonormal, NaN
        with pytest.raises(ValueError, match="orthonormal"):
            sf.FactoredPoint(U, np.eye(2))
    for s in (np.nan, np.inf, -np.inf):                                # non-finite core
        with pytest.raises(ValueError, match="finite"):
            sf.FactoredPoint(np.eye(4)[:, :2], np.diag([s, 1.0]))


def test_complement_basis_rejects_non_orthonormal_columns():
    with pytest.raises(ValueError, match="U and the leading columns"):
        sf.complement_basis(np.full((4, 2), np.nan))
    with pytest.raises(ValueError, match="U and the leading columns"):
        sf.complement_basis(np.eye(4)[:, :2], leading=np.eye(4)[:, [1]])   # not orthogonal to U


def test_orth_defect_of_a_stack_is_each_matrix_bit_for_bit():
    rng = np.random.default_rng(13)
    U = np.linalg.qr(rng.standard_normal((6, 9, 3)))[0] + 1e-9 * rng.standard_normal((6, 9, 3))
    U[2, 0, 0] = np.nan
    stacked = orth_defect(U)
    assert stacked.shape == (6,) and np.isnan(stacked[2])
    assert np.array_equal(stacked, [orth_defect(u) for u in U], equal_nan=True)
    assert orth_defect(np.eye(4)[:, :2]) == 0.0
    assert orth_defect(2 * np.eye(3)[:, :1]) == 3.0


def test_tangent_param_rejects_mis_shaped_blocks():
    frame = sf.eigen_frame(sf.FactoredPoint(np.eye(5)[:, :2], np.diag([2.0, 1.0])))
    for M, N in ((np.eye(3), np.zeros((3, 2))), (np.eye(2), np.zeros((2, 2))),
                 (np.eye(2), np.zeros((1, 2, 3)))):
        with pytest.raises(ValueError, match="coordinate blocks have wrong shapes"):
            sf.TangentParam(M, N, frame)


def test_tangent_param_roundtrip():
    rng = np.random.default_rng(10)
    pt = random_point(rng, 7, 3)
    frame = sf.eigen_frame(pt)
    xi = sf.TangentParam(random_sym(rng, 3), rng.standard_normal((3, 4)), frame)
    back = sf.TangentParam.from_ambient(frame, xi.to_ambient())
    assert frob(back.M - xi.M) < 1e-12
    assert frob(back.N - xi.N) < 1e-12
