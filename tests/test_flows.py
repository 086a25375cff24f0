import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spsdflow as sf
from spsdflow import _runner, flows, rgd, spurious
from spsdflow.experiments import ExperimentConfig, _random_point
from spsdflow.flows import (
    EigenGapError,
    ExtensionError,
    SingularCoreError,
    StepSizeError,
    _integrate_batch,
    _raw_rescaled,
)
from spsdflow.manifold import (TAU_GAP, TAU_ORTH, TAU_RANK, factored_blocks, frob, mT,
                               relative_spectrum, residual_norms, sym)


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
    # dU = B phi with factored_blocks' r x r form B = V (D C) - U A equals B phi with
    # A = sym(U^T X U), B = X U - U A: at an interior stack, at a rank-deficit-one tuple
    # (phi = p p^T, B = 0 there) and at its singular core under a generic U (phi = p p^T,
    # B != 0); errors against ||X U||
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
        phi, smin = flows._scaled_from_eigh(*np.linalg.eigh(S))
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


def _scaled_unscreened(w, P):
    # the rescaled core map with only its exact guards: the reference for its screen
    size = np.abs(relative_spectrum(w))
    if ((size[..., :1] <= TAU_RANK) & (size[..., 1:2] <= TAU_GAP)).any():
        raise ExtensionError("zero eigenvalue is not simple; no continuous extension")
    if (size[..., 1:] <= TAU_RANK).any():
        raise ExtensionError("a non-minimal eigenvalue vanishes; inverse undefined")
    ratios = np.ones_like(w)
    ratios[..., 1:] = w[..., :1] / w[..., 1:]
    return sym((P * ratios[..., None, :]) @ mT(P)), w[..., 0]


def _outcome(core_map, *args):
    """The ExtensionError message, or the returned arrays' bytes."""
    try:
        return tuple(a.tobytes() for a in core_map(*args))
    except ExtensionError as err:
        return str(err)


def _edge_spectra(top):
    # ascending spectra whose small values sit one ulp either side of each guard's tolerance
    # and of the screen's 2 TAU_GAP, times max(1, top), with either sign
    scale = max(1.0, top)
    edges = [0.0, 0.5 * top]
    for tol in (TAU_RANK, TAU_GAP, 2 * TAU_GAP):
        x = tol * scale
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    edges += [-x for x in edges]
    pairs = [sorted(p) for p in itertools.combinations_with_replacement(edges, 2)]
    return ([np.array([a, b, top]) for a, b in pairs]
            + [np.array([-0.5 * top, -0.25 * top, c, top]) for c in edges if c >= -0.25 * top])


@pytest.mark.parametrize("top", [1e-3, 1.0, 1e6])
def test_screened_core_map_equals_its_exact_guards_bitwise(top):
    rng = np.random.default_rng(5)
    spectra = _edge_spectra(top)
    outcomes = []
    for w in spectra:
        P = sf.haar_orthonormal(rng, w.size, w.size)
        want = _outcome(_scaled_unscreened, w, P)
        assert _outcome(flows._scaled_from_eigh, w, P) == want
        S = sym((P * w) @ P.T)
        assert _outcome(lambda S: (sf.scaled_inverse(S),), S) == _outcome(
            lambda S: _scaled_unscreened(*np.linalg.eigh(S))[:1], S)
        outcomes.append(isinstance(want, str))
    assert 0 < sum(outcomes) < len(outcomes)     # both sides of the guards are covered
    # stacks: every passing spectrum of one size, then each failing one among them
    for r in (3, 4):
        w = np.array([v for v, bad in zip(spectra, outcomes) if v.size == r and not bad])
        P = sf.haar_orthonormal(rng, r, r)[None].repeat(len(w), axis=0)
        assert _outcome(flows._scaled_from_eigh, w, P) == _outcome(_scaled_unscreened, w, P)
        for v in (v for v, bad in zip(spectra, outcomes) if v.size == r and bad):
            stack = np.concatenate([w, v[None]])
            want = _outcome(_scaled_unscreened, stack, P[:1].repeat(len(stack), axis=0))
            assert isinstance(want, str)
            assert _outcome(flows._scaled_from_eigh, stack,
                            P[:1].repeat(len(stack), axis=0)) == want


@pytest.mark.parametrize("w", [[0.0], [1e-300], [-2.0], [np.nan], [np.nan, 1.0, 2.0],
                               [0.5, np.nan, 2.0], [0.5, 1.0, np.nan]])
def test_screened_core_map_at_rank_one_and_nan(w):
    # r = 1 has nothing to guard; NaN fails the screen and the exact guards, as before
    w = np.array(w)
    P = sf.haar_orthonormal(np.random.default_rng(1), w.size, w.size)
    want = _outcome(_scaled_unscreened, w, P)
    assert not isinstance(want, str)
    assert _outcome(flows._scaled_from_eigh, w, P) == want


def _spd_stack(rng, r, log_cond):
    """SPD cores of condition number 10**log_cond[i] each, at scales 2**-20 to 2**20."""
    Q = np.stack([sf.haar_orthonormal(rng, r, r) for _ in log_cond])
    frac = rng.uniform(0.0, 1.0, (len(log_cond), r))
    frac[:, :2] = (1.0, 0.0)                      # the smallest and the largest eigenvalue
    w = 2.0 ** rng.integers(-20, 21, (len(log_cond), 1)) * 10.0 ** (-log_cond[:, None] * frac)
    return sym((Q * w[:, None, :]) @ mT(Q))


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
def test_interior_core_map_agrees_with_the_eigen_form(monkeypatch, system):
    # on SPD cores of condition number up to just below 1 / _INTERIOR, one stacked inv gives
    # (phi, c) within 1e-12 relative of the eigen form on eigh (measured: at most 4.4e-13 over
    # r = 2-10 at condition number 1e3, and 3.0e-13 over 8 seeds of this draw), with no eigh
    rng = np.random.default_rng(21)
    from_eigh = flows._SYSTEMS[system][0]
    for r in (2, 3, 5, 10):
        S = _spd_stack(rng, r, rng.uniform(1.0, np.log10(0.99 / flows._INTERIOR), 200))
        w = np.linalg.eigvalsh(S)
        assert np.all(w[:, 0] > flows._INTERIOR * w[:, -1])
        ref_phi, ref_c = from_eigh(*np.linalg.eigh(S))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", None)
            phi, c = flows._core_map(system, S, w)
        assert np.all(np.linalg.norm(phi - ref_phi, axis=(1, 2))
                      <= 1e-12 * np.linalg.norm(ref_phi, axis=(1, 2)))
        assert np.all(np.abs(c - ref_c) <= 1e-12 * ref_c)


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
def test_core_map_gives_each_run_its_bits_from_a_batch_of_one(system):
    # runs on both sides of the interior rule, the cut's two sides among them (and, for the
    # rescaled map, a singular and an indefinite core), each get their batch of one's bits
    rng = np.random.default_rng(22)
    log_cond = np.log10([10.0, 0.99 / flows._INTERIOR, 1.01 / flows._INTERIOR, 1e6, 3.0])
    S = _spd_stack(rng, 4, log_cond)
    if system == "rescaled":
        P = sf.haar_orthonormal(rng, 4, 4)
        S = np.concatenate([S, sym((P * [[0.0, 1.0, 2.0, 3.0]]) @ P.T)[None],
                            sym((P * [[-0.5, 1.0, 2.0, 3.0]]) @ P.T)[None]])
    w = np.linalg.eigvalsh(S)
    inner = w[:, 0] > flows._INTERIOR * w[:, -1]
    assert inner.tolist() == [True, True, False, False, True] + [False] * (len(S) - 5)
    U = np.stack([sf.haar_orthonormal(rng, 8, 4) for _ in S])
    gt = sf.make_ground_truth(8, 4, [4, 3, 2, 1], seed=3)
    phi, c = flows._core_map(system, S, w)
    dU, dS = flows._raw(system, U, S, gt)
    for i in range(len(S)):
        for j in (i, slice(i, i + 1)):          # a bare matrix and a stack of one
            one = flows._core_map(system, S[j], w[j])
            assert one[0].tobytes() == phi[i].tobytes() and one[1].tobytes() == c[i].tobytes()
            one = flows._raw(system, U[j], S[j], gt)
            assert one[0].tobytes() == dU[i].tobytes() and one[1].tobytes() == dS[i].tobytes()


@pytest.mark.parametrize("system, w, error", [
    ("rescaled", [1e-13, 2e-13, 5e-13], "zero eigenvalue is not simple"),
    ("dlra", [5e-15, 1e-14, 2e-14], "numerically singular"),
])
def test_interior_cores_keep_their_guards(system, w, error):
    # a tiny core can pass the scale-free interior rule and fail a guard with an absolute
    # floor; the guards read the whole stack's spectrum before the branch, so it raises as
    # on the eigen form, alone and beside a core that passes
    P = sf.haar_orthonormal(np.random.default_rng(23), 3, 3)
    bad = sym((P * [w]) @ P.T)
    S = np.stack([bad, sym((P * [[1.0, 2.0, 3.0]]) @ P.T)])
    for cores in (bad, S, S[::-1]):
        ws = np.linalg.eigvalsh(cores)
        assert np.all(ws[..., 0] > flows._INTERIOR * ws[..., -1])
        with pytest.raises((ExtensionError, SingularCoreError), match=error):
            flows._core_map(system, cores, ws)
    if system == "rescaled":
        with pytest.raises(ExtensionError, match=error):
            flows._scaled_from_eigh(*np.linalg.eigh(bad))


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


def _count_calls(monkeypatch, calls):
    """Count calls, by name, of each numpy.linalg function and library hook named in ``calls``."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(sf.FactoredPoint, "__post_init__",
                        counted("FactoredPoint", sf.FactoredPoint.__post_init__))
    monkeypatch.setattr(_runner, "factored_blocks", counted("factored_blocks", factored_blocks))
    monkeypatch.setattr(flows, "factored_blocks", counted("factored_blocks", factored_blocks))


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
def test_flow_step_decomposes_each_core_once(monkeypatch, system):
    # the runner's eigvalsh and factored_blocks of each logged core give sigma_r and, in
    # stage 1, the right-hand side; stages 2-4 take one eigvalsh and one factored_blocks
    # each, and every stage of an interior core one inv and no eigh; states wait until read
    gt = small_instance(11)
    rng = np.random.default_rng(3)
    init = sf.FactoredPoint(sf.haar_orthonormal(rng, 8, 3), np.diag([2.5, 1.4, 0.6]))
    calls = dict.fromkeys(("eigh", "eigvalsh", "inv", "FactoredPoint", "factored_blocks"), 0)
    _count_calls(monkeypatch, calls)
    res = sf.integrate(system, init, gt, 0.5, sf.StepControls(dt=0.05))
    steps = len(res.records) - 1
    assert steps == 10
    assert calls == {"eigh": 0, "eigvalsh": 4 * steps + 1, "inv": 4 * steps, "FactoredPoint": 0,
                     "factored_blocks": 4 * steps + 1}
    states = res.states
    assert calls["FactoredPoint"] == steps and res.states is states
    assert len(states) == steps + 1 and states[0].point is init
    for k, st in enumerate(states):
        assert st.t == res.records[k, 0]
        dense = frob(st.point.dense() - gt.dense())
        assert abs(dense - res.records[k, 1]) <= 1e-12 * frob(gt.dense())


def test_near_boundary_flow_steps_take_eigh_and_no_inv(monkeypatch):
    # rescaled runs from escape starts at radius 1e-6 ||Z_sp||_F keep cores far outside the
    # interior rule over the horizon: every stage takes the eigen form on eigh
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=7)
    sp = sf.spurious_point(gt, [True, True, False])
    starts = spurious._escape_starts(sp, gt, 1e-6 * np.hypot(*sp.d_kept), list(range(4)))
    calls = dict.fromkeys(("eigh", "eigvalsh", "inv", "FactoredPoint", "factored_blocks"), 0)
    _count_calls(monkeypatch, calls)
    runs = list(_integrate_batch("rescaled", 4, lambda lo, hi: starts, gt, 0.1,
                                 sf.StepControls(dt=0.02)))
    steps = 5
    assert [(status, len(records)) for status, records, _, _ in runs] == [("t_end", steps + 1)] * 4
    assert all(np.all(records[:, 2] < 1e-2 * flows._INTERIOR) for _, records, _, _ in runs)
    assert calls == {"eigh": 4 * steps, "eigvalsh": 4 * steps + 1, "inv": 0, "FactoredPoint": 0,
                     "factored_blocks": 4 * steps + 1}


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


@pytest.mark.parametrize("epsilon, drift", [(1e-8, "inf"), (1e-4, "2.92e+44"), (1e-5, "4.03e+87")])
def test_plain_flow_from_an_escape_start_fails_its_step_without_a_warning(epsilon, drift):
    # the plain flow's first step from a start near a rank-deficit-one point blows U up until
    # U^T U overflows: the step fails on its drift (inf or huge) with no numpy warning on the
    # way, so the error class does not depend on the caller's warnings filter
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=7)
    sp = sf.spurious_point(gt, [True, True, False])
    tup = sf.sample_spurious_tuple(sp, gt, 0)
    start = sf.perturb_near(tup, epsilon * np.hypot(*sp.d_kept), seed=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError,
                           match=re.escape(f"orthonormality drift {drift} at t=0.01;")):
            sf.integrate("dlra", start, gt, 1.0, sf.StepControls(dt=1e-2))


def test_rescaled_flow_that_overflows_fails_its_step_without_a_warning():
    # a target eigenvalue of 1e150 blows U up in the first RK4 step until its blocks overflow:
    # the step fails on its NaN drift with no numpy warning on the way, under any warnings filter
    cfg = ExperimentConfig(scenario="flow_rescaled", n=8, r=2, eigenvalues=(1e150, 1.0),
                           repeats=2, t_end=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match=re.escape("orthonormality drift nan at t=0.01;")):
            sf.run_experiment(cfg)


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


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
@pytest.mark.parametrize("k", [-30, 30])
def test_flows_are_scale_equivariant_bitwise(system, k):
    # X -> c X and S_0 -> c S_0, c = 2**k, with the rescaled flow's dt and t_end over c: every
    # run keeps its status and row count, its times scale by 1 (plain) or 1/c (rescaled), and
    # dist, sigma_r and grad_norm by c, bit for bit.  The interior rule has no absolute floor:
    # random starts take inv, and a start of condition number 1200 near X takes eigh (the
    # plain flow for one step, the rescaled for 19); its sigma_r c stays above the absolute
    # SIGMA_FLOOR and TAU_RANK at k = -30
    gt = sf.make_ground_truth(30, 3, [3, 2, 1], seed=7)
    rng = np.random.default_rng(0)
    starts = [_random_point(gt, seed) for seed in range(3)]
    U = np.linalg.qr(gt.U + 1e-6 * rng.standard_normal((30, 3)))[0]
    starts.append(sf.FactoredPoint(U, np.diag([3.0, 2.0, 2.5e-3])))
    dt, t_end = 0.01, 0.2
    c = 2.0 ** k
    time = 1.0 if system == "dlra" else 1.0 / c
    scaled = [sf.FactoredPoint(p.U, c * p.S) for p in starts]
    runs = [list(_integrate_batch(system, *batch_of(points), target, span * t_end,
                                  sf.StepControls(dt=span * dt)))
            for points, target, span in ((starts, gt, 1.0),
                                         (scaled, sf.GroundTruth(gt.U, c * gt.d), time))]
    assert {len(records) for _, records, _, _ in runs[0]} == {21}
    for (ref_status, ref, _, _), (status, records, _, _) in zip(*runs, strict=True):
        assert status == ref_status == "t_end" and records.shape == ref.shape
        assert np.array_equal(records[:, 0], time * ref[:, 0])
        assert np.array_equal(records[:, 1:], c * ref[:, 1:])


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
def test_flow_observer_sees_every_logged_row_and_logs_its_column(monkeypatch, system):
    # the observer sees each run at every logged point, its terminal point included, and the
    # column it returns is logged in that row; an observer that returns None logs nothing
    gt, starts = _mixed_flow_starts()
    ctl = sf.StepControls(dt=0.05, tau_conv=1e-13)
    monkeypatch.setattr(_runner, "BLOCK_ENTRIES", 2 * gt.n * gt.r)     # blocks of two and three
    plain = list(_integrate_batch(system, *batch_of(starts), gt, 3.0, ctl))
    seen = {}                                 # start index -> observed t, in order

    def observe(t, ids, U, S):
        for i in ids:
            seen.setdefault(int(i), []).append(t)
        return [residual_norms(U, S, *factored_blocks(U, gt), gt.d)[0]]

    runs = list(_integrate_batch(system, *batch_of(starts), gt, 3.0, ctl, observe))
    silent = list(_integrate_batch(system, *batch_of(starts), gt, 3.0, ctl, lambda *a: None))
    assert sorted(seen) == list(range(len(starts)))
    assert len({len(records) for _, records, _, _ in plain}) > 2   # runs end at different steps
    for i, (run, ref, quiet) in enumerate(zip(runs, plain, silent, strict=True)):
        status, records, U, S = run
        assert records.shape == (len(ref[1]), 5)
        assert np.array_equal(seen[i], records[:, 0])                 # terminal row included
        assert np.array_equal(records[:, 4], records[:, 1])           # bit for bit the row's dist
        assert np.array_equal(records[:, :4], ref[1])
        assert status == quiet[0] == ref[0]
        assert np.array_equal(quiet[1], ref[1])                       # no column added
        for a, b in ((U, ref[2]), (S, ref[3]), (quiet[2], ref[2]), (quiet[3], ref[3])):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["fixed", "varying", "dlra", "rescaled"])
def test_runs_do_not_depend_on_their_starts_memory_layout(kind):
    # the runner re-QRs every start into its invariant subspace, so a builder may return its
    # stacks in any layout: here C-ordered, then with each matrix Fortran-ordered
    gt = sf.make_ground_truth(12, 3, [3.0, 2.0, 1.0], seed=5)
    sp = sf.spurious_point(gt, [True, True, False])
    starts = [sf.perturb_near(sf.sample_spurious_tuple(sp, gt, seed), 0.3, seed)
              for seed in range(3)] + [_random_point(gt, seed) for seed in range(3)]

    def fortran(lo, hi):
        return tuple(mT(mT(x).copy()) for x in _runner.stack(starts[lo:hi]))

    assert fortran(0, 2)[0][0].flags.f_contiguous and _runner.stack(starts)[0][0].flags.c_contiguous
    runs = []
    for build in (lambda lo, hi: _runner.stack(starts[lo:hi]), fortran):
        if kind in ("fixed", "varying"):
            cfg = sf.GDConfig(0.2, kind, max_iters=300)
            runs.append([(run.records, run.point.U, run.point.S)
                         for run in rgd.run_rgd_batch(len(starts), build, gt, cfg)])
        else:
            runs.append([run[1:] for run in _integrate_batch(kind, len(starts), build, gt, 0.5,
                                                              sf.StepControls(dt=0.01))])
    for c_run, f_run in zip(*runs, strict=True):
        assert [x.tobytes() for x in c_run] == [x.tobytes() for x in f_run]


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


def _rk4_loop(rhs, init, gt, t_end, dt):
    """Rows (t, dist, sigma_r, grad_norm) of a plain full-space RK4 loop over a public rhs."""
    def velocity(U, S):                   # an RK4 stage leaves U off the manifold: no checks
        point = object.__new__(sf.FactoredPoint)
        object.__setattr__(point, "U", U)
        object.__setattr__(point, "S", S)
        v = rhs(sf.FlowState(point), gt)
        return v.dU, v.dS

    U, S, t, rows = init.U, init.S, 0.0, []
    while True:
        dist, grad = residual_norms(U, S, *factored_blocks(U, gt), gt.d)
        rows.append((t, dist, np.linalg.eigvalsh(S)[0], grad))
        if not t < t_end - 1e-12:
            return np.array(rows)
        h = min(dt, t_end - t)
        kU1, kS1 = velocity(U, S)
        kU2, kS2 = velocity(U + 0.5 * h * kU1, S + 0.5 * h * kS1)
        kU3, kS3 = velocity(U + 0.5 * h * kU2, S + 0.5 * h * kS2)
        kU4, kS4 = velocity(U + h * kU3, S + h * kS3)
        U = U + (h / 6.0) * (kU1 + 2 * kU2 + 2 * kU3 + kU4)
        S = S + (h / 6.0) * (kS1 + 2 * kS2 + 2 * kS3 + kS4)
        if np.linalg.norm(U.T @ U - np.eye(gt.r)) > TAU_ORTH:
            U, R = np.linalg.qr(U)
            S = sym(R @ S @ R.T)
        t += h


@pytest.mark.parametrize("system, rhs", [("dlra", sf.dlra_rhs), ("rescaled", sf.rescaled_rhs)])
def test_compressed_flows_match_the_full_space_rhs(system, rhs):
    # the runner integrates each run in the 2r-dimensional span of its start and the target's
    # eigenvectors; a plain RK4 loop over the full-space right-hand side takes the same path
    gt = sf.make_ground_truth(40, 3, [3, 2, 1], seed=16)
    for seed in range(3):
        init = _random_point(gt, seed)
        res = sf.integrate(system, init, gt, 1.0, sf.StepControls(dt=0.01))
        rows = _rk4_loop(rhs, init, gt, 1.0, 0.01)
        assert res.status == "t_end"
        assert res.records.shape == rows.shape == (101, 4)
        assert np.allclose(res.records, rows, rtol=0, atol=1e-12)


@pytest.mark.parametrize("system", ["dlra", "rescaled"])
@pytest.mark.parametrize("n, r, rows", [(40, 3, 6), (3, 2, 3)])
def test_flows_step_in_min_n_2r_rows_and_lift_their_factors(monkeypatch, system, n, r, rows):
    # every RK4 stage's U has min(n, 2r) rows (n = 3 < 2r too); the factors a run yields and
    # the states integrate keeps have n rows
    gt = sf.make_ground_truth(n, r, [float(r - i) for i in range(r)], seed=16)
    starts = [_random_point(gt, seed) for seed in range(3)]
    stepped = []
    raw = flows._raw

    def spy(system, U, *args):
        stepped.append(U.shape[-2])
        return raw(system, U, *args)

    monkeypatch.setattr(flows, "_raw", spy)
    runs = list(_integrate_batch(system, *batch_of(starts), gt, 0.05, sf.StepControls(dt=0.01)))
    assert len(stepped) == 4 * 5 and set(stepped) == {rows}
    assert all(U.shape == (n, r) for _, _, U, _ in runs)
    states = sf.integrate(system, starts[0], gt, 0.05, sf.StepControls(dt=0.01)).states
    assert len(states) == 6 and all(s.point.U.shape == (n, r) for s in states)


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
