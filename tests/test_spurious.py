import math
import tracemalloc
from collections import Counter

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


def test_degenerate_radius_at_a_rank_zero_point_names_its_norm(monkeypatch):
    # ||Z_sp||_F = 0 there, so the message cannot give epsilon as radius / ||Z_sp||_F
    gt = sf.make_ground_truth(6, 2, [2.0, 1.0], seed=0)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [False, False]), gt, seed=0)
    truncate = manifold.truncate
    monkeypatch.setattr(manifold, "truncate",
                        lambda w, V, r: (*truncate(w, V, r)[:2], np.ones(w.shape[:-1], bool)))
    with pytest.raises(spurious.DegenerateRadiusError, match=r"degenerate \(\|\|Z_sp\|\|_F = 0\)$"):
        sf.perturb_near(tup, 0.5, seed=0)


def test_degenerate_radius_message_gives_the_radius_as_a_multiple_of_the_norm():
    # perturb_near's caller gives the radius itself, so the message states the radius and its
    # ratio to ||Z_sp||_F = hypot(3, 2) without naming that ratio
    gt = sf.make_ground_truth(12, 3, [3, 2, 1], seed=8)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, seed=0)
    with pytest.raises(spurious.DegenerateRadiusError) as err:
        sf.perturb_near(tup, 1e-30, seed=0)
    assert str(err.value).endswith(
        "epsilon is degenerate (radius 1e-30 = 2.77e-31 ||Z_sp||_F, ||Z_sp||_F = 3.61)")


def test_degenerate_radius_at_a_tiny_spectrum_warns_nothing():
    # the shift-invert solves' entries near 1e-200 overflow when squared for their norm; such
    # a column fails the certificate and goes to eigh without a RuntimeWarning, which pytest's
    # filter makes an error
    gt = sf.make_ground_truth(12, 2, [1e-200, 1e-201], seed=0)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False]), gt, seed=0)
    with pytest.raises(spurious.DegenerateRadiusError, match="radius 1e-202 found in 16 draws"):
        sf.perturb_near(tup, 1e-202, seed=0)


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

def _escape_setup(scenario, n, r=3, repeats=7, master_seed=4):
    cfg = ExperimentConfig(scenario=scenario, n=n, r=r, repeats=repeats, master_seed=master_seed)
    gt = experiments._shared_ground_truth(cfg)
    deficit = {"escape_s_r1": 1, "escape_s_r2": 2}[scenario]
    sp = sf.spurious_point(gt, [True] * (cfg.r - deficit) + [False] * deficit)
    seeds = [cfg.master_seed + i for i in range(cfg.repeats)]
    return cfg, gt, sp, cfg.epsilon * math.hypot(*sp.d_kept), seeds


def _seed_pair(seed):
    rng = np.random.default_rng(seed)
    return int(rng.integers(2**63)), int(rng.integers(2**63))


def _assert_same_start(U, S, point):
    assert U.tobytes() == point.U.tobytes() and S.tobytes() == point.S.tobytes()


def _draws(sp, gt, radius, seed, count=1):
    """The seed's tuple and its first ``count`` dense W = U S U^T + radius E, as perturb_near draws."""
    s1, s2 = _seed_pair(seed)
    tup = sf.sample_spurious_tuple(sp, gt, seed=s1)
    rng = spurious._tagged_rng(s2, tag=2)
    W = []
    for _ in range(count):
        E = sym(rng.standard_normal((gt.n, gt.n)))
        E /= frob(E)
        W.append(tup.factored().dense() + radius * E)
    return tup, W


def _rate(sp, radius):
    """Weyl's bound on the power steps' contraction, as the escape starts derive it."""
    return radius / (sp.d_kept.min() - radius)


def _counting(monkeypatch, *names):
    """Record each call of the np.linalg functions as (name, shape of its first argument)."""
    calls = []
    for name in names:
        def wrapper(A, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, A.shape))
            return _fn(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


@pytest.mark.parametrize("scenario", ["escape_s_r1", "escape_s_r2"])
@pytest.mark.parametrize("n", [8, 30, 100])
def test_block_starts_equal_serial_starts_bitwise(monkeypatch, scenario, n):
    # one stack per block builds, seed by seed, what the public samplers build one at a time
    cfg, gt, sp, radius, seeds = _escape_setup(scenario, n)
    k = sp.r - sp.s
    serial = []
    for seed in seeds:
        s1, s2 = _seed_pair(seed)
        serial.append(sf.perturb_near(sf.sample_spurious_tuple(sp, gt, seed=s1), radius, seed=s2))
    # dense sub-stacks of one matrix, of two (the last one partial), and the default (every
    # start in one at n = 8 and 30, six and one at n = 100).  Per sub-stack: one eigvalsh of its
    # dense matrices and one Rayleigh-Ritz eigh of their (r + k) x (r + k) projections; a second
    # one when a start needs a second shift-invert step, and one dense eigh of the starts that
    # are still not certified.  Those starts are the same at every sub-stack size.
    one = None                            # per start: Rayleigh-Ritz passes, dense eigh
    for entries, sizes in ((n**2, [1] * 7), (2 * n**2, [2, 2, 2, 1]),
                           (_runner.BLOCK_ENTRIES, [6, 1] if n == 100 else [7])):
        with monkeypatch.context() as m:
            m.setattr(_runner, "BLOCK_ENTRIES", entries)
            calls = _counting(m, "eigh", "eigvalsh")
            U, S = experiments._starts(cfg, gt, seeds)(0, len(seeds))
        subs = []                         # the calls of each sub-stack
        for call in calls:
            subs.append([call]) if call[0] == "eigvalsh" else subs[-1].append(call)
        ritz = [("eigh", (m, 3 + k, 3 + k)) for m in sizes]
        assert [c[:2] for c in subs] == [[("eigvalsh", (m, n, n)), e] for m, e in zip(sizes, ritz)]
        passes = [c.count(e) for c, e in zip(subs, ritz)]
        dense = [sum(shape[0] for _, shape in c[2:] if shape[1:] == (n, n)) for c in subs]
        assert [len(c) for c in subs] == [1 + p + (d > 0) for p, d in zip(passes, dense)]
        one = (passes, dense) if one is None else one
        parts = [slice(lo, lo + m) for lo, m in zip(np.cumsum([0] + sizes), sizes)]
        assert passes == [max(one[0][part]) for part in parts]
        assert dense == [sum(one[1][part]) for part in parts]
        # laid out as the runner's stack of the points
        assert (U.strides, S.strides) == tuple(x.strides for x in _runner.stack(serial))
        for i, point in enumerate(serial):
            _assert_same_start(U[i], S[i], point)


@pytest.mark.parametrize("scenario, n, r, repeats, master_seed", [
    *((scenario, n, 3, 7, 4) for scenario in ("escape_s_r1", "escape_s_r2") for n in (8, 30, 100)),
    # seeds with hard starts: at n = 30 one shift-invert step leaves a residual of 2e-13 that
    # the gap below the top r turns into a 5e-13 ||W||_F error; at n = 8 a singular shift
    # leaves a 1.5e-12 residual from the other shift's vector alone
    ("escape_s_r1", 30, 3, 100, 0), ("escape_s_r2", 8, 5, 400, 0)])
def test_starts_agree_with_the_dense_retraction(scenario, n, r, repeats, master_seed):
    # the top-r subset solve gives the truncation that retract's full eigh gives
    cfg, gt, sp, radius, seeds = _escape_setup(scenario, n, r, repeats, master_seed)
    U, S = experiments._starts(cfg, gt, seeds)(0, len(seeds))
    for i, seed in enumerate(seeds):     # the first full-rank draw; at n = 8, r = 5 many are not
        W = next(W for W in _draws(sp, gt, radius, seed, 16)[1]
                 if not sf.retract(W, r).rank_deficient)
        assert frob(U[i] @ S[i] @ U[i].T - sf.retract(W, r).point.dense()) <= 1e-13 * frob(W)


@pytest.mark.parametrize("n", [100, spurious._SYM_BLOCK, 300])
def test_dense_starts_built_in_place_equal_the_expression_bitwise(monkeypatch, n):
    # W = sym(U S U^T) + radius sym(G) / ||sym(G)||_F, G the seed's draw: symmetrized one
    # block pair at a time, at n below, equal to and above the symmetrization block
    cfg, gt, sp, radius, seeds = _escape_setup("escape_s_r1", n, repeats=3)
    seen, top_pairs = [], spurious._top_pairs

    def spy(W, *args):                    # the dense matrices, before the solves shift them
        seen.extend(W.copy())
        return top_pairs(W, *args)

    monkeypatch.setattr(spurious, "_top_pairs", spy)
    experiments._starts(cfg, gt, seeds)(0, len(seeds))
    assert len(seen) == len(seeds)
    for W, seed in zip(seen, seeds):
        assert W.tobytes() == _draws(sp, gt, radius, seed)[1][0].tobytes()


def test_dense_start_build_holds_two_dense_arrays():
    # at n = 300 each start is a sub-stack of its own: its buffer and the draw's scratch are
    # the only n x n arrays, and the scratch is freed before the eigensolver copies the buffer
    n = 300
    cfg, gt, sp, radius, seeds = _escape_setup("escape_s_r1", n, repeats=3)
    assert _runner.dense_stack(n) == 1
    build = experiments._starts(cfg, gt, seeds)
    tracemalloc.start()                   # traces only what the build allocates
    try:
        build(0, len(seeds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n**2


def test_rank_deficient_draw_is_redrawn_for_its_seed_alone(monkeypatch):
    cfg, gt, sp, radius, seeds = _escape_setup("escape_s_r1", 30)
    hit, calls = 2, []
    truncate = manifold.truncate

    def forced(w, V, r):                  # the first sub-stack's third start is rank-deficient
        Vr, S, deficient = truncate(w, V, r)
        if not calls:
            deficient = deficient.copy()
            deficient[hit] = True
        calls.append(len(w))
        return Vr, S, deficient

    monkeypatch.setattr(manifold, "truncate", forced)
    U, S = experiments._starts(cfg, gt, seeds)(0, len(seeds))
    monkeypatch.undo()
    assert calls == [len(seeds), 1]       # one more retraction, for the redrawn start alone
    for i, seed in enumerate(seeds):
        # the seed's first draw, or its second for the hit one, through the same kernel alone
        tup, W = _draws(sp, gt, radius, seed, 2 if i == hit else 1)
        U1, S1, _ = manifold._top_pairs(W[-1][None], 3, tup.U[None], 1, _rate(sp, radius))
        _assert_same_start(U[i], S[i], sf.FactoredPoint(U1[0], S1[0]))


def test_certificate_failure_recomputes_that_matrix_alone_by_eigh(monkeypatch):
    cfg, gt, sp, radius, seeds = _escape_setup("escape_s_r1", 30)
    U0, S0 = experiments._starts(cfg, gt, seeds)(0, len(seeds))
    hit, eigvalsh = 4, np.linalg.eigvalsh

    def off(W):                           # the hit start's top eigenvalue misses its Ritz value
        w = eigvalsh(W)
        w[hit, -1] += 1e-6
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", off)
    calls = _counting(monkeypatch, "eigh")
    U, S = experiments._starts(cfg, gt, seeds)(0, len(seeds))
    monkeypatch.undo()
    # both shift-invert steps' Rayleigh-Ritz pairs fail for the hit start alone
    assert calls == [("eigh", (7, 4, 4))] * 2 + [("eigh", (1, 30, 30))]
    for i, seed in enumerate(seeds):
        if i == hit:
            W = _draws(sp, gt, radius, seed)[1][0]
            _assert_same_start(U[i], S[i], sf.retract(W, 3).point)
        else:
            assert U[i].tobytes() == U0[i].tobytes() and S[i].tobytes() == S0[i].tobytes()


def test_exactly_singular_shift_takes_eigh_for_that_matrix_alone():
    # eigvalsh returns a diagonal matrix's entries exactly, so each shifted solve is exactly
    # singular: the stacked solve raises, that matrix goes through eigh, and its stack-mate is
    # unchanged
    cfg, gt, sp, radius, seeds = _escape_setup("escape_s_r2", 8)
    tup, (W,) = _draws(sp, gt, radius, seeds[0])
    D = np.diag([3.0, 0.75, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(D - np.linalg.eigvalsh(D)[-3] * np.eye(8), np.ones(8))
    Y = np.stack([tup.U, np.eye(8)[:, :3]])
    stack = np.stack([W, D])
    U, S, deficient = manifold._top_pairs(stack, 3, Y, 2, _rate(sp, radius))
    assert np.array_equal(stack, [W, D])                     # the shifted diagonal is restored
    U1, S1, _ = manifold._top_pairs(W[None], 3, tup.U[None], 2, _rate(sp, radius))
    _assert_same_start(U[0], S[0], sf.FactoredPoint(U1[0], S1[0]))
    _assert_same_start(U[1], S[1], sf.retract(D, 3).point)
    assert not deficient.any()


def test_escape_that_cannot_converge_goes_straight_to_eigh(monkeypatch):
    # at epsilon = 0.5 the radius is half the kept value 2, so Weyl's bound on the power steps'
    # contraction, radius / (2 - radius), is 1 up to rounding: no eigvalsh or solve is spent,
    # one eigh per sub-stack
    cfg = ExperimentConfig(scenario="escape_s_r1", n=12, r=2, repeats=7, epsilon=0.5)
    gt = experiments._shared_ground_truth(cfg)
    sp = sf.spurious_point(gt, [True, False])
    radius = cfg.epsilon * math.hypot(*sp.d_kept)
    assert 1 - 1e-15 < _rate(sp, radius) <= 1.0
    calls = _counting(monkeypatch, "eigh", "eigvalsh", "solve")
    U, S = experiments._starts(cfg, gt, list(range(7)))(0, 7)
    monkeypatch.undo()
    assert calls == [("eigh", (7, 12, 12))]
    for i in range(7):
        _assert_same_start(U[i], S[i], sf.retract(_draws(sp, gt, radius, i)[1][0], 2).point)


@pytest.mark.parametrize("entries, subs", [(None, 3), (3 * 100**2, 5), (100**2, 13)])
def test_escape_block_call_budget(monkeypatch, entries, subs):
    # a block of R starts takes ceil(R / m) dense sub-stacks, m = BLOCK_ENTRIES // n**2 (6 by
    # default at n = 100), and two QRs: fill columns and P.  Each sub-stack takes one eigvalsh,
    # 7 power steps' QRs (each start's own contraction, about 0.007, to 2e-14; Weyl's bound
    # 0.038 would take 10) and one of [Y, X], one shift-invert solve, and one Rayleigh-Ritz
    # eigh: none of these starts needs a second step
    cfg = ExperimentConfig(scenario="escape_s_r1", n=100, r=5, repeats=13)
    gt = experiments._shared_ground_truth(cfg)
    build = experiments._starts(cfg, gt, list(range(13)))
    if entries is not None:
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
    calls = _counting(monkeypatch, "eigh", "qr", "eigvalsh", "solve")
    U, S = build(0, 13)
    assert U.shape == (13, 100, 5)
    counts = Counter(name for name, _ in calls)
    assert counts == {"eigh": subs, "qr": 2 + 8 * subs, "eigvalsh": subs, "solve": subs}
