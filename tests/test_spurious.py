import json

import numpy as np
import pytest

import spsdflow as sf
from spsdflow.flows import _raw_rescaled
from spsdflow.manifold import frob


def test_make_ground_truth_deterministic():
    a = sf.make_ground_truth(20, 4, [4, 3, 2, 1], seed=42)
    b = sf.make_ground_truth(20, 4, [4, 3, 2, 1], seed=42)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.d, b.d)
    c = sf.make_ground_truth(20, 4, [4, 3, 2, 1], seed=43)
    assert not np.array_equal(a.U, c.U)


def test_haar_orthonormal_shapes_and_rejects_more_columns_than_rows():
    rng = np.random.default_rng(0)
    assert sf.haar_orthonormal(rng, 5, 3).shape == (5, 3)
    assert sf.haar_orthonormal(rng, 3).shape == (3, 3)
    Q = sf.haar_orthonormal(rng, 4, 4)
    assert frob(Q.T @ Q - np.eye(4)) <= 1e-12
    with pytest.raises(ValueError):
        sf.haar_orthonormal(rng, 3, 5)


def test_make_ground_truth_orthonormal_large():
    gt = sf.make_ground_truth(100, 5, [5, 4, 3, 2, 1], seed=0)
    assert frob(gt.U.T @ gt.U - np.eye(5)) < 1e-12


def test_make_ground_truth_rejects_repeats():
    with pytest.raises(ValueError):
        sf.make_ground_truth(10, 3, [3, 2, 2], seed=0)
    with pytest.raises(ValueError):
        sf.make_ground_truth(10, 3, [3, 2, -1], seed=0)


def test_identity_basis_reproduces_small_example():
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    assert np.allclose(gt.dense(), np.diag([2.0, 1.0, 0.0]))


@pytest.mark.parametrize("r", range(1, 9))
def test_enumeration_cardinality(r):
    gt = sf.make_ground_truth(2 * r + 2, r, np.arange(r, 0, -1), seed=r)
    pts = sf.enumerate_spurious(gt)
    assert len(pts) == 2**r - 1
    masks = {p.mask for p in pts}
    assert len(masks) == 2**r - 1 and (True,) * r not in masks


def test_enumeration_rank_one_target():
    gt = sf.make_ground_truth(5, 1, [2.0], seed=0)
    pts = sf.enumerate_spurious(gt)
    assert len(pts) == 1 and pts[0].mask == (False,) and pts[0].s == 0


def test_stationarity_of_sampled_tuples():
    gt = sf.make_ground_truth(13, 4, [4, 3, 2, 1], seed=9)
    for sp in sf.enumerate_spurious(gt):
        for seed in range(2):
            tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
            assert frob(sf.riem_gradient(tup.factored(), gt)) <= 1e-10


def test_tuple_constraints_and_identity_rotation():
    gt = sf.make_ground_truth(10, 3, [3, 2, 1], seed=4)
    sp = sf.spurious_point(gt, [True, True, False])
    tup = sf.sample_spurious_tuple(sp, gt, seed=0, haar=False)
    assert np.allclose(tup.P, np.eye(3))
    assert np.allclose(tup.U[:, :2], sp.U_kept)
    assert np.allclose(tup.S, np.diag([3.0, 2.0, 0.0]))
    for seed in range(5):
        tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
        assert frob(tup.U_fill.T @ gt.U) <= 1e-12
        assert frob(tup.factored().dense() - sp.dense()) <= 1e-12
        assert frob(tup.U.T @ tup.U - np.eye(3)) <= 1e-12
        # the rescaled flow is stationary at the tuple
        dU, dS = _raw_rescaled(tup.U, tup.S, gt)
        assert frob(dU) <= 1e-10 and frob(dS) <= 1e-10


def test_tuple_rank_and_null_vector():
    gt = sf.make_ground_truth(12, 4, [4, 3, 2, 1], seed=5)
    sp = sf.spurious_point(gt, [True, False, True, True])
    tup = sf.sample_spurious_tuple(sp, gt, seed=2)
    w = np.linalg.eigvalsh(tup.S)
    assert np.sum(w > 1e-10) == sp.s
    p = tup.null_vec
    assert frob(tup.S @ p) < 1e-12
    low = sf.spurious_point(gt, [True, False, False, True])
    with pytest.raises(ValueError):
        _ = sf.sample_spurious_tuple(low, gt, seed=0).null_vec


def test_complement_too_small():
    gt = sf.make_ground_truth(4, 3, [3, 2, 1], seed=0)
    sp = sf.spurious_point(gt, [False, False, False])
    with pytest.raises(ValueError, match="complement"):
        sf.sample_spurious_tuple(sp, gt, seed=0)


def test_objective_gap_closed_form():
    gt = sf.make_ground_truth(11, 4, [4, 3, 2, 1], seed=6)
    X = gt.dense()
    for sp in sf.enumerate_spurious(gt):
        dense_val = 0.5 * frob(sp.dense() - X) ** 2
        assert abs(sp.objective_value() - dense_val) < 1e-10


def test_descriptor_serializes():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=7)
    sp = sf.spurious_point(gt, [False, True, True])
    data = json.loads(sp.to_json())
    assert data["mask"] == [0, 1, 1] and data["rank"] == 2
    assert data["missing_eigenvalues"] == [3.0]


def test_full_mask_rejected():
    gt = sf.make_ground_truth(8, 3, [3, 2, 1], seed=7)
    with pytest.raises(ValueError):
        sf.spurious_point(gt, [True, True, True])


def test_perturb_near_distance_bound():
    gt = sf.make_ground_truth(12, 3, [3, 2, 1], seed=8)
    sp = sf.spurious_point(gt, [True, True, False])
    tup = sf.sample_spurious_tuple(sp, gt, seed=0)
    Z = tup.factored().dense()
    eps = 1e-2
    for seed in range(1000):
        pt = sf.perturb_near(tup, eps, seed=seed)
        assert pt.in_manifold()
        assert frob(pt.dense() - Z) <= 2 * eps


def test_perturb_near_rejects_zero_epsilon():
    gt = sf.make_ground_truth(8, 2, [2, 1], seed=9)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False]), gt, seed=0)
    with pytest.raises(ValueError):
        sf.perturb_near(tup, 0.0, seed=0)


def test_structured_perturbation_pattern():
    # coupling the missing eigendirection with the filler column produces the
    # classic escaping start [[2,0,0],[0,e^2,e],[0,e,1]]
    eps = 1e-2
    W = np.array([[2.0, 0, 0], [0, eps**2, eps], [0, eps, 1.0]])
    res = sf.retract(W, 2)
    assert not res.rank_deficient
    assert frob(res.point.dense() - W) < 1e-14   # already rank 2 and PSD
