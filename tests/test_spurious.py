import numpy as np
import pytest

import spsdflow as sf
from spsdflow import _runner, experiments, manifold, spurious
from spsdflow.experiments import ExperimentConfig
from spsdflow.flows import _raw_rescaled
from spsdflow.manifold import frob, sym


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


def test_tuple_constraints():
    gt = sf.make_ground_truth(10, 3, [3, 2, 1], seed=4)
    sp = sf.spurious_point(gt, [True, True, False])
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


# ------------------------------------------------------- stacked escape starts

def _escape_setup(scenario, n):
    cfg = ExperimentConfig(scenario=scenario, n=n, r=3, repeats=7, master_seed=4)
    gt = experiments._shared_ground_truth(cfg)
    deficit = {"escape_s_r1": 1, "escape_s_r2": 2}[scenario]
    sp = sf.spurious_point(gt, [True] * (cfg.r - deficit) + [False] * deficit)
    seeds = [cfg.master_seed + i for i in range(cfg.repeats)]
    return cfg, gt, sp, cfg.epsilon * frob(sp.dense()), seeds


def _seed_pair(seed):
    rng = np.random.default_rng(seed)
    return int(rng.integers(2**63)), int(rng.integers(2**63))


def _assert_same_start(U, S, point):
    assert U.tobytes() == point.U.tobytes() and S.tobytes() == point.S.tobytes()


@pytest.mark.parametrize("scenario", ["escape_s_r1", "escape_s_r2"])
@pytest.mark.parametrize("n", [8, 30, 100])
def test_block_starts_equal_serial_starts_bitwise(monkeypatch, scenario, n):
    # one stack per block builds, seed by seed, what the public samplers build one at a time
    cfg, gt, sp, radius, seeds = _escape_setup(scenario, n)
    serial = []
    for seed in seeds:
        s1, s2 = _seed_pair(seed)
        serial.append(sf.perturb_near(sf.sample_spurious_tuple(sp, gt, seed=s1), radius, seed=s2))
    # dense sub-stacks of one matrix, of two (the last one partial), and the default
    # (every start in one at n = 8 and 30, six and one at n = 100): one eigh each
    eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda W: eighs.append(len(W)) or eigh(W))
    for entries, sizes in ((n**2, [1] * 7), (2 * n**2, [2, 2, 2, 1]),
                           (_runner.BLOCK_ENTRIES, [6, 1] if n == 100 else [7])):
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
        eighs.clear()
        U, S = experiments._starts(cfg, gt, seeds)(0, len(seeds))
        assert eighs == sizes
        # laid out as the runner's stack of the points, with each U column-major as retract's:
        # descent rounds differently on a row-major copy
        assert (U.strides, S.strides) == tuple(x.strides for x in _runner.stack(serial))
        assert U[0].flags.f_contiguous and serial[0].U.flags.f_contiguous
        for i, point in enumerate(serial):
            _assert_same_start(U[i], S[i], point)


def test_rank_deficient_draw_is_redrawn_for_its_seed_alone(monkeypatch):
    cfg, gt, sp, radius, seeds = _escape_setup("escape_s_r1", 30)
    hit, calls = 2, []
    truncate = manifold.truncate

    def forced(w, V, r):                  # the first eigh's third start comes out rank-deficient
        Vr, S, deficient = truncate(w, V, r)
        if not calls:
            deficient = deficient.copy()
            deficient[hit] = True
        calls.append(len(w))
        return Vr, S, deficient

    monkeypatch.setattr(manifold, "truncate", forced)
    U, S = experiments._starts(cfg, gt, seeds)(0, len(seeds))
    monkeypatch.undo()
    assert calls == [len(seeds), 1]       # one more eigh, for the redrawn start alone
    for i, seed in enumerate(seeds):
        # the seed's first draw, or its second for the hit one, through the public retract
        s1, s2 = _seed_pair(seed)
        tup = sf.sample_spurious_tuple(sp, gt, seed=s1)
        rng = spurious._tagged_rng(s2, tag=2)
        for _ in range(2 if i == hit else 1):
            E = sym(rng.standard_normal((gt.n, gt.n)))
            E /= frob(E)
        _assert_same_start(U[i], S[i], sf.retract(tup.factored().dense() + radius * E, 3).point)


@pytest.mark.parametrize("entries, eighs", [(None, 3), (3 * 100**2, 5), (100**2, 13)])
def test_escape_block_call_budget(monkeypatch, entries, eighs):
    # a block of R starts costs ceil(R / m) dense eigh calls, m = BLOCK_ENTRIES // n**2
    # matrices per sub-stack (6 by default at n = 100), and two QRs: fill columns and P
    cfg = ExperimentConfig(scenario="escape_s_r1", n=100, r=5, repeats=13)
    gt = experiments._shared_ground_truth(cfg)
    build = experiments._starts(cfg, gt, list(range(13)))
    if entries is not None:
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
    calls = {"eigh": 0, "qr": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    U, S = build(0, 13)
    assert U.shape == (13, 100, 5)
    assert calls == {"eigh": eighs, "qr": 2, "eigvalsh": 0}
