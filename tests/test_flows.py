import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spsdflow as sf
from spsdflow import _runner, flows, rgd
from spsdflow.experiments import _random_point
from spsdflow.flows import (
    EigenGapError,
    ExtensionError,
    SingularCoreError,
    StepSizeError,
    _integrate_batch,
    _raw_rescaled,
)
from spsdflow.manifold import TAU_ORTH, factored_blocks, frob, mT, sym


def random_state(rng, gt, spectrum):
    U = sf.haar_orthonormal(rng, gt.n, gt.r)
    return sf.FlowState(sf.FactoredPoint(U, np.diag(spectrum)))


def small_instance(seed=0):
    return sf.make_ground_truth(8, 3, [3, 2, 1], seed=seed)


# --------------------------------------------------------------- right-hand sides

def test_plain_rhs_zero_at_minimizer():
    gt = small_instance()
    st = sf.FlowState(sf.FactoredPoint(gt.U, np.diag(gt.d)))
    d = sf.dlra_rhs(st, gt)
    assert frob(d.dU) < 1e-12 and frob(d.dS) < 1e-12


def test_plain_rhs_small_example():
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    st = sf.FlowState(sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0])))
    d = sf.dlra_rhs(st, gt)
    assert np.allclose(d.dS, np.diag([0.0, -1.0]), atol=1e-14)
    assert frob(d.dU) < 1e-14


def test_plain_rhs_reconstructs_negative_gradient():
    rng = np.random.default_rng(0)
    gt = small_instance(1)
    for _ in range(10):
        st = random_state(rng, gt, rng.uniform(0.3, 3.0, 3))
        d = sf.dlra_rhs(st, gt)
        pt = st.point
        dZ = d.dU @ pt.S @ pt.U.T + pt.U @ d.dS @ pt.U.T + pt.U @ pt.S @ d.dU.T
        assert frob(dZ + sf.riem_gradient(pt, gt)) < 1e-10
        assert d.gauge_defect(pt.U) < 1e-10


def test_plain_rhs_rejects_singular_core():
    gt = small_instance(2)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 0)
    with pytest.raises(SingularCoreError):
        sf.dlra_rhs(sf.FlowState(tup.factored()), gt)


def test_rescaled_equals_scaled_plain_inside():
    rng = np.random.default_rng(1)
    gt = small_instance(3)
    for _ in range(5):
        st = random_state(rng, gt, rng.uniform(0.3, 3.0, 3))
        plain = sf.dlra_rhs(st, gt)
        resc = sf.rescaled_rhs(st, gt)
        smin = st.point.sigma_min()
        assert frob(resc.dU - smin * plain.dU) < 1e-12
        assert frob(resc.dS - smin * plain.dS) < 1e-12
        assert resc.gauge_defect(st.point.U) < 1e-10


def test_rescaled_vanishes_at_boundary_tuple():
    gt = small_instance(4)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 1)
    d = sf.rescaled_rhs(sf.FlowState(tup.factored()), gt)
    assert frob(d.dU) < 1e-10 and frob(d.dS) < 1e-10


def test_rescaled_vanishes_linearly_along_core_inflation():
    gt = small_instance(5)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 2)
    norms = []
    eps_grid = [1e-2, 1e-4, 1e-6, 1e-8]
    for eps in eps_grid:
        dU, dS = _raw_rescaled(tup.U, tup.S + eps * np.eye(3), gt)
        norms.append(np.hypot(frob(dU), frob(dS)))
    for eps, nrm in zip(eps_grid, norms):
        assert nrm <= 10 * eps
    assert norms[-1] < norms[0]


def test_rescaled_rhs_r_by_r_form_matches_the_n_by_r_form():
    # dU = V (D C phi) - U (A phi) is B phi with A = sym(U^T X U), B = X U - U A: at an
    # interior stack, at a rank-deficit-one tuple (phi = p p^T, B = 0 there) and at its
    # singular core under a generic U (phi = p p^T, B != 0); errors against ||X U||
    gt = small_instance(7)
    rng = np.random.default_rng(2)
    U = np.stack([sf.haar_orthonormal(rng, 8, 3) for _ in range(4)])
    S = sym(rng.standard_normal((4, 3, 3))) + 4 * np.eye(3)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 1)
    pp = np.outer(tup.null_vec, tup.null_vec)
    for U, S, singular in ((U, S, False), (tup.U, tup.S, True), (U[0], tup.S, True)):
        XU = np.stack([gt.apply(u) for u in U.reshape(-1, 8, 3)]).reshape(U.shape)
        A = sym(mT(U) @ XU)
        B = XU - U @ A
        phi, smin = flows._scaled_inverse(S)
        assert not singular or frob(phi - pp) < 1e-12
        dU, dS = _raw_rescaled(U, S, gt)
        assert frob(dU - B @ phi) <= 1e-13 * frob(XU)
        assert frob(dS - (A - S) * smin[..., None, None]) <= 1e-13 * frob(XU)
        assert frob(factored_blocks(U, gt)[0] - A) <= 1e-14 * frob(A)
    assert frob(B @ phi) > 0.1                     # the last case is not trivially zero


def test_rescaled_extension_checks_wait_until_a_run_steps():
    # the ExtensionError checks run in RK4 stage 1, not at every logged point: a
    # rank-deficit-two start logs one row at t_end = 0 and raises once it steps
    gt = small_instance()
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False, False]), gt, 1)
    res = sf.integrate("rescaled", tup.factored(), gt, 0.0, sf.StepControls(dt=0.05))
    assert res.status == "t_end" and res.records.shape == (1, 4)
    with pytest.raises(ExtensionError, match="not simple"):
        sf.integrate("rescaled", tup.factored(), gt, 0.1, sf.StepControls(dt=0.05))


# ------------------------------------------------------- extension functions

def test_scaled_inverse_direct_formula():
    out = sf.scaled_inverse(np.diag([4.0, 2.0, 1.0]))
    assert np.allclose(out, np.diag([0.25, 0.5, 1.0]), atol=1e-14)


def test_scaled_inverse_boundary_value_and_continuity():
    gt = small_instance(6)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 3)
    p = tup.null_vec
    val = sf.scaled_inverse(tup.S)
    assert frob(val - np.outer(p, p)) < 1e-12
    rng = np.random.default_rng(2)
    E = sym(rng.standard_normal((3, 3)))
    E /= frob(E)
    prev = np.inf
    for eps in (1e-2, 1e-4, 1e-6):
        gap = frob(sf.scaled_inverse(sym(tup.S + eps * E)) - val)
        assert gap < prev + 1e-12
        prev = gap
    assert prev < 1e-5


def test_scaled_inverse_multiplicity_error():
    with pytest.raises(ExtensionError):
        sf.scaled_inverse(np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("call, name", [
    (lambda: sf.scaled_inverse(np.diag([1.0, np.nan])), "S"),
    (lambda: sf.scaled_inverse_gradient(np.diag([1.0, np.inf]), np.eye(2)), "S"),
    (lambda: sf.scaled_inverse_gradient(np.diag([1.0, 2.0]), [[np.nan, 0], [0, 1]]), "direction"),
], ids=["scaled_inverse-S", "gradient-S", "gradient-direction"])
def test_scaled_inverse_rejects_non_finite_input(call, name):
    # eigh would otherwise turn one bad entry into an all-NaN answer
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        call()


def test_gradient_of_scaled_inverse_boundary_cases():
    gt = small_instance(7)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 4)
    w, P = np.linalg.eigh(tup.S)           # ascending: [0, d2, d1]
    p_null = P[:, 0]
    # direction within the retained block: derivative vanishes
    eta = np.outer(P[:, 2], P[:, 1])
    assert frob(sf.scaled_inverse_gradient(tup.S, eta)) < 1e-10
    # mixed retained/null directions pick up -1/sigma
    for i in (1, 2):
        eta = np.outer(P[:, i], p_null)
        ref = -np.outer(P[:, i], p_null) / w[i]
        assert frob(sf.scaled_inverse_gradient(tup.S, eta) - ref) < 1e-10
        eta = np.outer(p_null, P[:, i])
        ref = -np.outer(p_null, P[:, i]) / w[i]
        assert frob(sf.scaled_inverse_gradient(tup.S, eta) - ref) < 1e-10
    # null direction twice gives the pseudo-inverse on the retained spectrum
    eta = np.outer(p_null, p_null)
    ref = (P[:, 1:] * (1.0 / w[1:])) @ P[:, 1:].T
    assert frob(sf.scaled_inverse_gradient(tup.S, eta) - ref) < 1e-10


def test_gradient_of_scaled_inverse_matches_fd_inside():
    rng = np.random.default_rng(3)
    Q = sf.haar_orthonormal(rng, 4, 4)
    S = sym(Q @ np.diag([4.0, 2.2, 1.1, 0.4]) @ Q.T)
    for _ in range(3):
        eta = sym(rng.standard_normal((4, 4)))
        ref = sf.scaled_inverse_gradient(S, eta)
        rep = sf.fd_report(lambda M: sf.scaled_inverse(sym(M)), S, eta, ref,
                           hs=[1e-2, 3e-3, 1e-3])
        assert rep.convergence_order > 1.9
        assert rep.max_abs_err < 1e-5


def test_gradient_of_scaled_inverse_gap_error():
    with pytest.raises(EigenGapError):
        sf.scaled_inverse_gradient(np.diag([2.0, 1.0, 1.0 + 1e-12]), np.eye(3))


# ----------------------------------------------------------------- integrate

def test_integrate_small_example_closed_form():
    # frozen column space; the small core entry decays like exp(-t)
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    init = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    res = sf.integrate("dlra", init, gt, 5.0)
    Z_final = res.states[-1].point.dense()
    limit = np.diag([2.0, 0.0, 0.0])
    assert abs(frob(Z_final - limit) - np.exp(-5.0)) < 1e-6
    ts, sig = res.records[:, 0], res.records[:, 2]
    assert np.max(np.abs(sig - np.exp(-ts))) < 1e-6


def test_integrate_zero_horizon():
    gt = small_instance(8)
    init = sf.FactoredPoint(gt.U, np.diag(gt.d))
    res = sf.integrate("dlra", init, gt, 0.0)
    assert len(res.states) == 1 and res.records.shape[0] == 1
    assert res.states[0].point is init


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
def test_first_stop_rule_that_holds_wins(system):
    # with t_end=0 and tau_conv above the start's gradient norm, the horizon and the
    # convergence rule both hold at t = 0, and t_end, first in order, ends the run; with
    # a later horizon, convergence wins over dlra's sigma floor at a start below the floor
    gt = small_instance(8)
    rng = np.random.default_rng(4)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.5, 1.5, 1e-13]))
    ctl = sf.StepControls(tau_conv=2 * sf.gradient_norm(init, gt))
    res = sf.integrate(system, init, gt, 0.0, ctl)
    assert (res.status, len(res.records)) == ("t_end", 1)
    res = sf.integrate(system, init, gt, 1.0, ctl)
    assert (res.status, len(res.records)) == ("converged", 1)


def test_rescaled_step_decomposes_each_core_once(monkeypatch):
    # the runner's eigh of each logged core gives sigma_r and, in stage 1, both
    # S^-1 sigma_min and sigma_min; stages 2-4 take one eigh each and the r x r
    # blocks, not factored_blocks; states wait until read
    gt = small_instance(11)
    rng = np.random.default_rng(3)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.5, 1.4, 0.6]))
    calls = {"eigh": 0, "eigvalsh": 0, "FactoredPoint": 0, "factored_blocks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(sf.FactoredPoint, "__post_init__",
                        counted("FactoredPoint", sf.FactoredPoint.__post_init__))
    blocks = counted("factored_blocks", factored_blocks)
    for module in (_runner, flows):
        monkeypatch.setattr(module, "factored_blocks", blocks)
    res = sf.integrate("rescaled", init, gt, 0.5, sf.StepControls(dt=0.05))
    steps = len(res.records) - 1
    assert steps == 10
    assert calls == {"eigh": 4 * steps + 1, "eigvalsh": 0, "FactoredPoint": 0,
                     "factored_blocks": steps + 1}
    states = res.states
    assert calls["FactoredPoint"] == steps and res.states is states
    assert len(states) == steps + 1 and states[0].point is init
    for k, st in enumerate(states):
        assert st.t == res.records[k, 0]
        dense = frob(st.point.dense() - gt.dense())
        assert abs(dense - res.records[k, 1]) <= 1e-12 * frob(gt.dense())


def test_dlra_step_reuses_the_logged_sigma(monkeypatch):
    # RK4 stage 1 takes sigma_r from the runner's eigvalsh at the logged point, so a
    # plain-flow step costs four eigvalsh (the logged point's and stages 2-4) and no eigh
    gt = small_instance(11)
    rng = np.random.default_rng(3)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.5, 1.4, 0.6]))
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    res = sf.integrate("dlra", init, gt, 0.5, sf.StepControls(dt=0.05))
    steps = len(res.records) - 1
    assert steps == 10
    assert calls == {"eigh": 0, "eigvalsh": 4 * steps + 1}


def test_integrate_converges_from_generic_start():
    gt = sf.make_ground_truth(100, 5, [5, 4, 3, 2, 1], seed=11)
    rng = np.random.default_rng(4)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 100, 5),
                            np.diag(np.sort(rng.uniform(0.5, 7.5, 5))[::-1]))
    res = sf.integrate("dlra", init, gt, 25.0)
    assert res.records[-1, 1] < 1e-6
    # the dist column is the dense distance of the logged state, also near X
    for k in (1500, 2000):                 # t = 15 and 20: dist ~1e-5 and ~6e-8
        dense = frob(res.states[k].point.dense() - gt.dense())
        assert abs(res.records[k, 1] - dense) < 1e-6 * dense


def test_integrate_monotone_descent_and_orthonormality():
    gt = small_instance(9)
    rng = np.random.default_rng(5)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.5, 1.4, 0.6]))
    for system in ("dlra", "rescaled"):
        res = sf.integrate(system, init, gt, 4.0)
        dist = res.records[:, 1]
        assert np.all(np.diff(dist) <= 1e-12)
        for st in res.states[::50]:
            assert frob(st.point.U.T @ st.point.U - np.eye(3)) < 1e-10


def test_integrate_halts_at_sigma_floor():
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    init = sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1.0]))
    res = sf.integrate("dlra", init, gt, 40.0)
    assert res.status == "sigma_floor"
    assert res.records[-1, 2] < 10 * 1e-12


def test_integrate_rejects_oversized_steps():
    gt = small_instance(3)
    rng = np.random.default_rng(9)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.4, 1.1, 0.02]))
    with pytest.raises((StepSizeError, SingularCoreError)):
        sf.integrate("dlra", init, gt, 5.0, sf.StepControls(dt=0.3))


def test_integrate_gronwall_bounds():
    gt = small_instance(10)
    rng = np.random.default_rng(6)
    for _ in range(3):
        init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3),
                                np.diag(np.sort(rng.uniform(0.2, 3.0, 3))[::-1]))
        s0 = init.sigma_min()
        res = sf.integrate("dlra", init, gt, 3.0)
        t, sig = res.records[:, 0], res.records[:, 2]
        assert np.all(sig >= (1 - 1e-2) * s0 * np.exp(-t))
        res = sf.integrate("rescaled", init, gt, 3.0)
        t, sig = res.records[:, 0], res.records[:, 2]
        assert np.all(sig >= (1 - 1e-2) * s0 / (1.0 + t * s0))


def test_integrate_unknown_system():
    gt = small_instance(0)
    init = sf.FactoredPoint(gt.U, np.diag(gt.d))
    with pytest.raises(ValueError):
        sf.integrate("euler", init, gt, 1.0)


@pytest.mark.parametrize("t_end", [-1.0, float("nan"), float("inf")])
def test_integrate_rejects_negative_or_nan_horizon(t_end):
    # a NaN horizon must not end the run at once as if it had been reached,
    # and an infinite one must not step forever
    gt = small_instance(0)
    init = sf.FactoredPoint(gt.U, np.diag(gt.d))
    with pytest.raises(ValueError, match="t_end"):
        sf.integrate("rescaled", init, gt, t_end)


@pytest.mark.parametrize("dt", [0.0, -1e-2])
def test_step_controls_reject_nonpositive_dt(dt):
    # a step of zero length (or a negative one) would never reach t_end
    with pytest.raises(ValueError):
        sf.StepControls(dt=dt)


def batch_of(points, blocks=None):
    """(count, build) of a batch from the given points; ``blocks`` gets each block's (lo, hi)."""
    blocks = [] if blocks is None else blocks
    return len(points), lambda lo, hi: blocks.append((lo, hi)) or _runner.stack(points[lo:hi])


def _mixed_flow_starts():
    """Starts on example 1.1's target that end in every status of a flow run."""
    gt = sf.GroundTruth(np.eye(3)[:, :2], np.array([2.0, 1.0]))
    rng = np.random.default_rng(12)
    starts = [
        sf.FactoredPoint(sf.haar_orthonormal(rng, 3, 2), np.diag([2.5, 0.8])),  # t_end
        sf.FactoredPoint(gt.U, np.diag(gt.d)),                           # converged at t = 0
        sf.FactoredPoint(np.eye(3)[:, [0, 2]], np.diag([2.0, 1e-11])),   # dlra: sigma_floor
        sf.FactoredPoint(gt.U, np.diag([2.0, 1.0 + 1e-12])),             # converged later
        sf.FactoredPoint(sf.haar_orthonormal(rng, 3, 2), np.diag([1.9, 0.6])),  # t_end
    ]
    return gt, starts


@pytest.mark.parametrize("system, statuses", [
    ("dlra", {"t_end", "converged", "sigma_floor"}),
    ("rescaled", {"t_end", "converged"}),
])
def test_batched_flows_equal_single_flows_bitwise(monkeypatch, system, statuses):
    gt, starts = _mixed_flow_starts()
    ctl = sf.StepControls(dt=0.05, tau_conv=1e-13)
    alone = [sf.integrate(system, init, gt, 3.0, ctl) for init in starts]
    assert {res.status for res in alone} == statuses
    assert len({len(res.records) for res in alone}) > 2   # runs leave the stack at different steps
    # blocks of one run, of two and three (the tail run joins the last block), and all five
    for entries, sizes in ((gt.n * gt.r, [(i, i + 1) for i in range(5)]),
                           (2 * gt.n * gt.r, [(0, 2), (2, 5)]), (_runner.BLOCK_ENTRIES, [(0, 5)])):
        monkeypatch.setattr(_runner, "BLOCK_ENTRIES", entries)
        blocks = []
        runs = list(_integrate_batch(system, *batch_of(starts, blocks), gt, 3.0, ctl))
        assert blocks == sizes
        for (status, records, U, S), ref in zip(runs, alone, strict=True):
            assert status == ref.status
            assert np.array_equal(records, ref.records)
            assert np.array_equal(U, ref.states[-1].point.U)
            assert np.array_equal(S, ref.states[-1].point.S)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["fixed", "varying", "dlra", "rescaled"]), n=st.integers(3, 10),
       data=st.data())
def test_observed_factors_stay_orthonormal_and_symmetric(kind, n, data):
    # along descent and both flows, every point the runner reaches keeps U
    # within TAU_ORTH of orthonormal and S exactly symmetric
    r = data.draw(st.integers(1, n - 1), label="r")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    gt = sf.make_ground_truth(n, r, [float(r - i) for i in range(r)], seed=seed)
    starts = [_random_point(gt, seed + i) for i in range(3)]
    seen = []

    def observe(x, ids, U, S):
        assert np.all(np.linalg.norm(mT(U) @ U - np.eye(r), axis=(1, 2)) <= TAU_ORTH)
        assert np.array_equal(S, mT(S))
        seen.append(x)

    if kind in ("fixed", "varying"):
        # a step below 1 keeps the retained core positive definite
        alpha = data.draw(st.floats(0.05, 0.9), label="alpha") / (1.5 * r if kind == "varying" else 1)
        cfg = sf.GDConfig(alpha, kind, max_iters=200)
        list(rgd.run_rgd_batch(*batch_of(starts), gt, cfg, observe))
    else:
        dt = data.draw(st.floats(2e-3, 1e-2), label="dt")      # larger steps may drift too far
        t_end = data.draw(st.floats(0.02, 0.5), label="t_end")
        list(_integrate_batch(kind, *batch_of(starts), gt, t_end, sf.StepControls(dt=dt), observe))
    assert seen


# ---------------------------------------------------------- boundary Jacobian

def test_rescaled_jacobian_escape_pair():
    gt = small_instance(12)
    for mask in ([True, True, False], [True, False, True], [False, True, True]):
        sp = sf.spurious_point(gt, mask)
        for seed in range(3):
            tup = sf.sample_spurious_tuple(sp, gt, seed=seed)
            rep = sf.rescaled_jacobian(tup, gt).spectrum()
            assert rep.n_positive == 1
            d_miss = tup.point.d_miss[0]
            top = np.max(rep.eigenvalues.real)
            assert abs(top - d_miss) < 1e-8 * d_miss
            assert rep.escape_residual < 1e-12


def test_rescaled_jacobian_core_block_vanishes():
    gt = small_instance(13)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 5)
    J = sf.rescaled_jacobian(tup, gt)
    rng = np.random.default_rng(7)
    xiS = sym(rng.standard_normal((3, 3)))
    dF, dH = J.apply(np.zeros((8, 3)), xiS)
    assert frob(dF) == 0.0 and frob(dH) == 0.0


def _full_matrix(J):
    """J's matrixization over the n*r U-block plus the (zero) symmetric S-block.

    With W = X U p p^T and PX = (I - U U^T) X, the U-block on row-major
    vec(xi_U) is kron(PX, p p^T) - kron(I_n, (U^T W)^T) - T, where the
    xi_U^T term gives T[(i, j), (l, k)] = U[i, k] W[l, j].
    """
    n, r = J.n, J.r
    U, X = J.tup.U, J.gt.dense()
    pp = np.outer(J.tup.null_vec, J.tup.null_vec)
    W = J.gt.apply(U) @ pp
    T = np.einsum("ik,lj->ijlk", U, W).reshape(n * r, n * r)
    out = np.zeros((n * r + r * (r + 1) // 2,) * 2)
    out[:n * r, :n * r] = np.kron(X - U @ (U.T @ X), pp) - np.kron(np.eye(n), (U.T @ W).T) - T
    return out


@pytest.mark.parametrize("n, r", [(5, 1), (8, 3), (12, 5), (40, 5)])
def test_rescaled_spectrum_equals_the_matrix_eigenvalues(n, r):
    # spectrum() reads eig of an n x n compression padded with zeros; the full
    # matrixization is the reference, at every tuple of a target and against a
    # target the tuple was not built for (there X u != 0, so every term of the
    # compression counts)
    gt = sf.make_ground_truth(n, r, list(range(r + 1, 1, -1)), seed=23)
    other = sf.make_ground_truth(n, r, list(range(r + 1, 1, -1)), seed=24)
    tuples = [sf.sample_spurious_tuple(sf.spurious_point(gt, [i != miss for i in range(r)]), gt, miss)
              for miss in range(r)]
    for J in [sf.rescaled_jacobian(tup, g) for tup, g in zip(tuples + tuples[:1], [gt] * r + [other])]:
        rep = J.spectrum()
        ref = np.linalg.eigvals(_full_matrix(J))
        tol = 1e-12 * max(1.0, J.gt.d.max())
        assert rep.eigenvalues.shape == ref.shape
        assert np.all(np.diff(rep.eigenvalues.real) <= 0)
        # conjugate pairs share a real part, so compare real and imaginary parts as sets
        assert np.max(np.abs(np.sort(rep.eigenvalues.real) - np.sort(ref.real))) <= tol
        assert np.max(np.abs(np.sort(rep.eigenvalues.imag) - np.sort(ref.imag))) <= tol
        assert rep.n_positive == int(np.sum(ref.real > 1e-8))


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_rescaled_spectrum_rejects_invalid_positive_tol(tol):
    # NaN would count nothing as positive, a negative tolerance the zeros
    gt = small_instance(13)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, True, False]), gt, 5)
    with pytest.raises(ValueError, match="positive_tol"):
        sf.rescaled_jacobian(tup, gt).spectrum(positive_tol=tol)


@pytest.mark.parametrize("n, r, mask", [(8, 3, [True, False, True]), (40, 5, [True] * 4 + [False])])
def test_rescaled_jacobian_matrix_is_the_operator(n, r, mask):
    # the closed-form matrix acts on vec(xi_U) as apply does; xi_S is ignored
    gt = sf.make_ground_truth(n, r, list(range(r, 0, -1)), seed=17)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, mask), gt, 2)
    J = sf.rescaled_jacobian(tup, gt)
    mat = _full_matrix(J)
    rng = np.random.default_rng(9)
    for _ in range(3):
        xiU = rng.standard_normal((n, r))
        dF, _ = J.apply(xiU, np.zeros((r, r)))
        assert np.max(np.abs(mat[:n * r, :n * r] @ xiU.ravel() - dF.ravel())) <= 1e-12
    assert mat.shape == (n * r + r * (r + 1) // 2,) * 2
    assert not mat[n * r:].any() and not mat[:, n * r:].any()


def test_rescaled_jacobian_matches_fd():
    gt = small_instance(14)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [False, True, True]), gt, 6)
    J = sf.rescaled_jacobian(tup, gt)
    rng = np.random.default_rng(8)
    scale = frob(gt.dense())
    for _ in range(4):
        xiU = rng.standard_normal((8, 3))
        xiS = sym(rng.standard_normal((3, 3)))
        fd = sf.fd_directional(lambda p: _raw_rescaled(p[0], p[1], gt),
                               (tup.U, tup.S), (xiU, xiS), h=1e-5)
        aF, aH = J.apply(xiU, xiS)
        dev = max(np.max(np.abs(fd[0] - aF)), np.max(np.abs(fd[1] - aH)))
        assert dev <= 1e-4 * scale


def test_rescaled_jacobian_rejects_deeper_deficit():
    gt = small_instance(15)
    tup = sf.sample_spurious_tuple(sf.spurious_point(gt, [True, False, False]), gt, 0)
    with pytest.raises(ValueError):
        sf.rescaled_jacobian(tup, gt)


def test_path_equivalence_of_the_two_flows():
    gt = small_instance(16)
    rng = np.random.default_rng(10)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.4, 1.1, 0.35]))
    ctl = sf.StepControls(dt=5e-3, tau_conv=1e-6)
    ra = sf.integrate("dlra", init, gt, 40.0, ctl)
    rb = sf.integrate("rescaled", init, gt, 40.0, ctl)
    assert ra.status == rb.status == "converged"
    A = np.array([s.point.dense().ravel() for s in ra.states])
    B = np.array([s.point.dense().ravel() for s in rb.states])
    assert max(_polyline_gap(A[::3], B), _polyline_gap(B[::3], A)) <= 1e-4


def _polyline_gap(P, Q):
    """max over rows of P of the distance to the polyline through rows of Q."""
    worst = 0.0
    seg = Q[1:] - Q[:-1]
    seg_nrm = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    for p in P:
        a = Q[:-1] - p
        tt = np.clip(-np.sum(a * seg, axis=1) / seg_nrm, 0.0, 1.0)
        closest = a + tt[:, None] * seg
        worst = max(worst, float(np.sqrt(np.sum(closest * closest, axis=1).min())))
    return worst
