"""Gradient-flow systems on the fixed-rank SPSD manifold and their rescaling.

Two factored ODE systems for the least-squares loss are provided.  The
plain system

    dU/dt = (I - U U^T) X U S^-1,      dS/dt = -S + U^T X U

is an exact factored form of the projected gradient flow but has a singular
right-hand side where the core S loses rank.  Multiplying both equations by
the smallest eigenvalue of S gives a rescaled system that follows the same
curve and extends continuously (indeed differentiably) to rank-deficit-one
boundary points, where its Jacobian exposes a single positive escape
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import _runner
from .manifold import (
    FactoredPoint,
    GroundTruth,
    TAU_GAP,
    TAU_ORTH,
    TAU_RANK,
    _finite,
    _real,
    factored_blocks,
    frob,
    mT,
    orth_defect,
    relative_spectrum,
    sym,
)
from .spurious import SpuriousTuple


class SingularCoreError(RuntimeError):
    """The plain flow was evaluated at a numerically singular core."""


class ExtensionError(ValueError):
    """Continuous extension undefined (zero eigenvalue is not simple)."""


class EigenGapError(ValueError):
    """Eigenvalues too close for differentiable eigenvector calculus."""


class StepSizeError(RuntimeError):
    """Integrator step produced excessive orthonormality drift."""


@dataclass(frozen=True)
class FlowState:
    """A point on the manifold together with flow time."""

    point: FactoredPoint
    t: float = 0.0


@dataclass(frozen=True)
class FlowDerivative:
    """Factored velocity (dU, dS); U^T dU = 0 under the gauge constraint."""

    dU: np.ndarray
    dS: np.ndarray

    def gauge_defect(self, U: np.ndarray) -> float:
        return frob(U.T @ self.dU)


@dataclass
class StepControls:
    """Fixed-step RK4 controls.

    ``tau_conv`` <= 0 disables the gradient-norm stopping test.  The plain system halts at
    ``SIGMA_FLOOR`` on X / c; drift beyond ``MAX_DRIFT`` rejects a step (dt too large).
    """

    dt: float = 1e-2
    tau_conv: float = 0.0

    def __post_init__(self):
        _real("dt", self.dt)
        if not self.tau_conv < np.inf:    # +inf would stop every run at its start as converged
            raise ValueError("tau_conv must not be NaN or +inf")


@dataclass
class FlowResult:
    records: np.ndarray          # columns: t, dist, sigma_r, grad_norm
    status: str
    columns: ClassVar[tuple[str, ...]] = ("t", "dist", "sigma_r", "grad_norm")
    _init: FactoredPoint | None = field(default=None, repr=False)
    _factors: list = field(default_factory=list, repr=False)    # (U, S) after each step

    @cached_property
    def states(self) -> list[FlowState]:
        """The logged points as validated states, built on first access."""
        points = [self._init] + [FactoredPoint(U, S) for U, S in self._factors]
        return [FlowState(p, float(t)) for p, t in zip(points, self.records[:, 0])]


def scaled_inverse(S: np.ndarray) -> np.ndarray:
    """The matrix S^-1 * sigma_min(S), extended continuously to singular S.

    In the eigenbasis the entries are sigma_min / sigma_i, which stay finite
    as sigma_min -> 0; at a singular S with simple zero eigenvalue the value
    is the rank-one projector onto the null direction.  The extension is
    undefined when the zero eigenvalue is not simple (rank deficit two or
    more), and the inverse does not exist when some other eigenvalue
    vanishes; both cases raise, and so does a non-finite S.
    """
    return _scaled_from_eigh(*np.linalg.eigh(_finite("S", sym(np.asarray(S, dtype=float)))))[0]


def _extension_guards(w: np.ndarray) -> None:
    """Raise where the rescaled core map is undefined, from S's ascending eigenvalues w.

    Both errors need some |w_j|, j >= 1, at most TAU_GAP (>= TAU_RANK) times its run's
    max(1, max|w|), so one screen of the whole stack, with a factor 2 over rounding, proves
    that neither can fire; the exact tests run only when it does not pass (NaN included).
    """
    a = np.abs(w)
    if not a[..., 1:].min(initial=np.inf) > 2 * TAU_GAP * a.max(initial=1.0):
        size = np.abs(relative_spectrum(w))
        if ((size[..., :1] <= TAU_RANK) & (size[..., 1:2] <= TAU_GAP)).any():
            raise ExtensionError("zero eigenvalue is not simple; no continuous extension")
        if (size[..., 1:] <= TAU_RANK).any():
            raise ExtensionError("a non-minimal eigenvalue vanishes; inverse undefined")


def _scaled_from_eigh(w: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rescaled core map: :func:`scaled_inverse` and sigma_min(S) from S's ascending eigh."""
    _extension_guards(w)
    ratios = np.ones_like(w)               # sigma_min / sigma_min, exact
    ratios[..., 1:] = w[..., :1] / w[..., 1:]
    return sym((P * ratios[..., None, :]) @ mT(P)), w[..., 0]


def scaled_inverse_gradient(S: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Directional derivative of :func:`scaled_inverse` along ``direction``.

    For nonsingular S this equals

        -S^-1 D S^-1 sigma_min(S) + S^-1 (p^T D p)

    with p the eigenvector of the smallest eigenvalue.  Written in the
    eigenbasis, the divergent parts cancel algebraically, so the same
    expression evaluates stably down to (and at) a singular S with simple
    zero eigenvalue, where it reproduces the boundary limits:

      * both basis indices away from the null slot      -> 0,
      * one index on the null slot (eigenvalue sigma_i) -> -1/sigma_i,
      * null slot twice -> the pseudo-inverse of S on its nonzero spectrum.

    Requires all eigenvalues pairwise separated by ``TAU_GAP`` (eigenvector
    differentiability) and finite S and direction; returns a general
    (possibly nonsymmetric) matrix for a general direction.
    """
    S = _finite("S", sym(np.asarray(S, dtype=float)))
    D = _finite("direction", direction, S.shape)
    w, P = np.linalg.eigh(S)
    rel = relative_spectrum(w)
    if (np.diff(rel) <= TAU_GAP).any():
        raise EigenGapError("eigenvalues are not well separated")
    if (np.abs(rel[1:]) <= TAU_RANK).any():
        raise ExtensionError("a non-minimal eigenvalue vanishes; derivative undefined")
    C = P.T @ D @ P
    K = np.zeros_like(C)                   # at r = 1 every slice below is empty
    K[1:, 1:] = -w[0] / np.outer(w[1:], w[1:])
    K[0, 1:] = -1.0 / w[1:]
    K[1:, 0] = -1.0 / w[1:]
    out = P @ (K * C) @ P.T
    out += C[0, 0] * (P[:, 1:] * (1.0 / w[1:])) @ P[:, 1:].T
    return out


# sigma_r below which the plain system halts: its core inverse can no longer be stepped through.
SIGMA_FLOOR = 1e-12
# Orthonormality drift of an RK4 step, before re-orthonormalization, that rejects the step.
MAX_DRIFT = 1e-6
# Below SIGMA_FLOOR, which integrate tests on logged points only:
# an RK4 stage may dip under that floor first, and must not raise for it.
_PLAIN_SIGMA_FLOOR = 1e-14


# Rescaled cores with w[0] > _INTERIOR w[-1] (ascending w) take the core map from inv.  On seeded
# cores below condition number 1e3 (r = 2-10) it differed from the eigen form by at most 4.4e-13
# relative, and both from an extended-precision inverse by about the condition number times eps
# (3e-10 at 1e6): the cut bounds that, and leaves singular and indefinite cores to the eigen form.
_INTERIOR = 1e-3


def _core_map(system: str, S: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(phi, c)`` of ``system`` at cores S of ascending spectrum w, after its guards on all w.

    The plain map is (S^-1, 1) from one stacked inv: past its floor every core is positive
    definite.  Interior rescaled runs (see _INTERIOR) take (c S^-1, c) from one stacked inv, the
    others the eigen form on eigh; no run's bits depend on the others.
    """
    if system == "dlra":
        if (w[..., 0] <= _PLAIN_SIGMA_FLOOR).any():
            raise SingularCoreError("core is numerically singular; switch to the rescaled system")
        return np.linalg.inv(S), np.ones(w.shape[:-1])
    _extension_guards(w)
    inner = w[..., 0] > _INTERIOR * w[..., -1]        # NaN is not interior
    if not inner.any():
        return _scaled_from_eigh(*np.linalg.eigh(S))
    c = w[..., 0].copy()
    if inner.all():
        return np.linalg.inv(S) * c[..., None, None], c
    phi = np.empty_like(S)
    phi[inner] = np.linalg.inv(S[inner]) * c[inner, None, None]
    phi[~inner], c[~inner] = _scaled_from_eigh(*np.linalg.eigh(S[~inner]))
    return phi, c


def _raw(system: str, U: np.ndarray, S: np.ndarray, gt: GroundTruth, known: tuple | None = None
         ) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side dU = B phi, dS = (A - S) c on raw factors (stacks give stacks).

    ``(phi, c)`` is :func:`_core_map` at S.  ``known`` is the runner's (A, B, w), w the ascending
    eigenvalues of S; without it they come from :func:`factored_blocks` and ``eigvalsh``.
    """
    if known is None:
        known = (*factored_blocks(U, gt)[:2], np.linalg.eigvalsh(S))
    A, B, w = known
    phi, c = _core_map(system, S, w)
    return B @ phi, (A - S) * c[..., None, None]


def _raw_rescaled(U: np.ndarray, S: np.ndarray, gt: GroundTruth) -> tuple[np.ndarray, np.ndarray]:
    """The rescaled right-hand side on raw factors; S may be singular."""
    return _raw("rescaled", U, S, gt)


def dlra_rhs(state: FlowState, gt: GroundTruth) -> FlowDerivative:
    """Factored velocity of the projected gradient flow at an interior point.

    The reconstruction dU S U^T + U dS U^T + U S dU^T equals the negative
    projected gradient exactly.  Raises on a (numerically) singular core.
    """
    return FlowDerivative(*_raw("dlra", state.point.U, state.point.S, gt))


def rescaled_rhs(state: FlowState, gt: GroundTruth) -> FlowDerivative:
    """Velocity of the rescaled flow; defined up to rank-deficit-one boundary points.

    Equals the plain velocity times sigma_min(S) on the interior and
    vanishes at stationary boundary tuples.
    """
    return FlowDerivative(*_raw_rescaled(state.point.U, state.point.S, gt))


def reorthonormalize(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Re-orthonormalize in place runs with ||U^T U - I||_F > TAU_ORTH; return all drifts."""
    drift = orth_defect(U)
    redo = drift > TAU_ORTH
    if redo.any():
        redo = ... if redo.all() else redo    # the whole stack: no gather and scatter
        U[redo], R = np.linalg.qr(U[redo])
        S[redo] = sym(R @ S[redo] @ mT(R))
    return drift


def integrate(system: str, init: FactoredPoint, gt: GroundTruth, t_end: float,
              controls: StepControls | None = None) -> FlowResult:
    """Fixed-step classical RK4 integration of either flow system.

    The factor U is re-orthonormalized by QR (with the core transformed
    congruently, leaving Z unchanged) whenever its drift exceeds the stored
    tolerance.  Per-step records hold (t, ||Z - X||_F, sigma_r(Z),
    ||grad||_F), including the initial and final states.  This is a batch of one through
    :func:`_integrate_batch`, whose observer keeps the states; it steps on X / c, c the power of
    two nearest d[-1], where the rescaled flow's time is c t.
    """
    seen = []                              # (U, S) of each logged point
    status, records, _, _ = next(_integrate_batch(
        system, 1, lambda lo, hi: _runner.stack([init]), gt, t_end, controls,
        lambda t, ids, U, S: seen.append((U[0], S[0]))))
    return FlowResult(records, status, _init=init, _factors=seen[1:])


def _integrate_batch(system: str, count: int, build, gt: GroundTruth, t_end: float,
                     controls: StepControls | None = None, observe=None):
    """:func:`integrate` from ``count`` starts as one batch, whose runs share the flow time.

    Yields ``(status, records, U, S)`` per run from :func:`spsdflow._runner.run_blocks`.
    """
    if system not in ("dlra", "rescaled"):
        raise ValueError(f"unknown system {system!r}")
    _real("t_end", t_end, zero=True)
    ctl = controls or StepControls()
    c = _runner.unit(gt.d)
    clock = c if system == "rescaled" else 1.0     # time on X / c per flow time

    def stop(t, dist, sigma, grad):
        return [(not clock * t < clock * t_end - 1e-12, "t_end"),
                (ctl.tau_conv > 0 and c * grad < ctl.tau_conv, "converged"),   # else never holds
                (system == "dlra" and sigma < SIGMA_FLOOR, "sigma_floor")]

    def advance(t, U, S, A, B, w, gt_m):
        dt = min(ctl.dt, t_end - t)
        h = clock * dt                              # the step at unit scale
        # a step that overflows leaves inf or NaN in U, whose drift rejects it: no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            kU1, kS1 = _raw(system, U, S, gt_m, (A, B, w))  # the runner's blocks, spectrum
            kU2, kS2 = _raw(system, U + 0.5 * h * kU1, S + 0.5 * h * kS1, gt_m)
            kU3, kS3 = _raw(system, U + 0.5 * h * kU2, S + 0.5 * h * kS2, gt_m)
            kU4, kS4 = _raw(system, U + h * kU3, S + h * kS3, gt_m)
            U = U + (h / 6.0) * (kU1 + 2 * kU2 + 2 * kU3 + kU4)
            # S stays exactly symmetric, as the right-hand sides assume: sums of symmetric terms
            S = S + (h / 6.0) * (kS1 + 2 * kS2 + 2 * kS3 + kS4)
            drift = reorthonormalize(U, S)
        if not (drift <= MAX_DRIFT).all():    # NaN drift fails too
            raise StepSizeError(f"orthonormality drift {drift.max():.2e} at t={t + dt:.4g}; "
                                "reduce dt")
        return t + dt, U, S, np.linalg.eigvalsh(S)

    return _runner.run_blocks(count, build, gt, stop, advance, observe)


@dataclass
class SpectrumReport:
    """Eigenvalues of a boundary Jacobian plus the escape-pair diagnostics."""

    eigenvalues: np.ndarray
    escape_eigenvalue: float
    escape_residual: float
    n_positive: int


class RescaledFlowJacobian:
    """Differential of the rescaled flow at a rank-deficit-one tuple.

    Assembled from the boundary limits of the derivatives: with p the null
    eigenvector of the tuple core,

        dF(xi_U, xi_S) = [ -(U xi_U^T + xi_U U^T) X U + Pperp X xi_U ] p p^T
        dH(xi_U, xi_S) = 0,

    acting on perturbations (xi_U, xi_S) of the factors.  Its only nonzero
    eigenvalue is the missing target eigenvalue, attained at
    xi_U = u_miss p^T, the escape direction.
    """

    def __init__(self, tup: SpuriousTuple, gt: GroundTruth):
        self.tup = tup
        self.gt = gt
        self.n, self.r = tup.n, tup.r
        p = tup.null_vec
        self._pp = np.outer(p, p)
        self._XU = gt.apply(tup.U)

    def apply(self, xi_U: np.ndarray, xi_S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        U = self.tup.U
        Xxi = self.gt.apply(xi_U)
        core = -(U @ xi_U.T + xi_U @ U.T) @ self._XU + (Xxi - U @ (U.T @ Xxi))
        return core @ self._pp, np.zeros((self.r, self.r))

    def escape_direction(self) -> tuple[np.ndarray, np.ndarray]:
        u_miss = self.tup.point.U_miss[:, 0]
        return np.outer(u_miss, self.tup.null_vec), np.zeros((self.r, self.r))

    def spectrum(self, positive_tol: float = 1e-8) -> SpectrumReport:
        """Eigenvalues of the operator, sorted by descending real part, from an n x n compression.

        Every image dF = [...] p p^T (see the class docstring) lies in the n-dimensional
        subspace {y p^T}, and with u = U p the operator maps it as dF(y p^T) = (M y) p^T,

            M = (I - U U^T) X - (u^T X u) I - u (X u)^T.

        Against that invariant subspace the operator is block upper-triangular, and its
        quotient block is zero (every image lies in the subspace; dH is zero too).
        The spectrum is therefore exactly eig(M) plus n(r-1) + r(r+1)/2 zeros.
        ``n_positive`` counts the real parts above ``positive_tol`` (nonnegative).
        """
        _real("positive_tol", positive_tol, zero=True)
        n, r = self.n, self.r
        U, X = self.tup.U, self.gt.dense()
        u = U @ self.tup.null_vec
        Xu = self._XU @ self.tup.null_vec
        M = X - U @ (U.T @ X) - (u @ Xu) * np.eye(n) - np.outer(u, Xu)
        eig = np.linalg.eigvals(M)
        eig = np.concatenate([eig, np.zeros(n * (r - 1) + r * (r + 1) // 2, eig.dtype)])
        eig = eig[np.argsort(-eig.real)]
        xi_U, xi_S = self.escape_direction()
        dF, dH = self.apply(xi_U, xi_S)
        d_miss = float(self.tup.point.d_miss[0])
        resid = np.sqrt(frob(dF - d_miss * xi_U) ** 2 + frob(dH) ** 2)
        resid /= d_miss * np.sqrt(frob(xi_U) ** 2 + frob(xi_S) ** 2)
        return SpectrumReport(
            eigenvalues=eig,
            escape_eigenvalue=d_miss,
            escape_residual=float(resid),
            n_positive=int(np.sum(eig.real > positive_tol)),
        )


def rescaled_jacobian(tup: SpuriousTuple, gt: GroundTruth) -> RescaledFlowJacobian:
    """Boundary Jacobian of the rescaled flow at a rank-deficit-one tuple."""
    return RescaledFlowJacobian(tup, gt)
