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
    _overlap_blocks,
    _real,
    factored_blocks,
    frob,
    mT,
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

    ``tau_conv`` <= 0 disables the gradient-norm stopping test.  The plain
    system halts at ``SIGMA_FLOOR``; drift beyond ``MAX_DRIFT`` rejects a step (dt too large).
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
    return _scaled_inverse(_finite("S", sym(np.asarray(S, dtype=float))))[0]


def _scaled_inverse(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scaled_inverse` and sigma_min(S) from one eigh, per core of a stack."""
    return _scaled_from_eigh(*np.linalg.eigh(S))


def _scaled_from_eigh(w: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_scaled_inverse` from the ascending eigh (w, P) of S: its checks and assembly."""
    size = np.abs(relative_spectrum(w))
    if ((size[..., :1] <= TAU_RANK) & (size[..., 1:2] <= TAU_GAP)).any():
        raise ExtensionError("zero eigenvalue is not simple; no continuous extension")
    if (size[..., 1:] <= TAU_RANK).any():
        raise ExtensionError("a non-minimal eigenvalue vanishes; inverse undefined")
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


def _raw_plain(U: np.ndarray, S: np.ndarray, gt: GroundTruth, known: tuple | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Plain right-hand side on raw factors (stacks give stacks), ``known`` (A, B, eigvalsh(S))."""
    A, B, w = known or (*factored_blocks(U, gt)[:2], np.linalg.eigvalsh(S))
    if (w[..., 0] <= _PLAIN_SIGMA_FLOOR).any():
        raise SingularCoreError("core is numerically singular; switch to the rescaled system")
    dU = mT(np.linalg.solve(S, mT(B)))
    return dU, A - S


def _raw_rescaled(U: np.ndarray, S: np.ndarray, gt: GroundTruth, known: tuple | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled right-hand side, as :func:`_raw_plain` from (A, B, *eigh(S)); S may be singular.

    Without ``known``, dU = B phi is V (D C phi) - U (A phi): neither X U nor B is built.
    """
    if known is None:
        _, DC, A = _overlap_blocks(U, gt)
        phi, smin = _scaled_inverse(S)
        dU = gt.U @ (DC @ phi) - U @ (A @ phi)
    else:
        A, B, w, P = known
        phi, smin = _scaled_from_eigh(w, P)
        dU = B @ phi
    return dU, (A - S) * smin[..., None, None]


def dlra_rhs(state: FlowState, gt: GroundTruth) -> FlowDerivative:
    """Factored velocity of the projected gradient flow at an interior point.

    The reconstruction dU S U^T + U dS U^T + U S dU^T equals the negative
    projected gradient exactly.  Raises on a (numerically) singular core.
    """
    dU, dS = _raw_plain(state.point.U, state.point.S, gt)
    return FlowDerivative(dU, dS)


def rescaled_rhs(state: FlowState, gt: GroundTruth) -> FlowDerivative:
    """Velocity of the rescaled flow; defined up to rank-deficit-one boundary points.

    Equals the plain velocity times sigma_min(S) on the interior and
    vanishes at stationary boundary tuples.
    """
    dU, dS = _raw_rescaled(state.point.U, state.point.S, gt)
    return FlowDerivative(dU, dS)


_SYSTEMS = {"dlra": _raw_plain, "rescaled": _raw_rescaled}


def integrate(system: str, init: FactoredPoint, gt: GroundTruth, t_end: float,
              controls: StepControls | None = None) -> FlowResult:
    """Fixed-step classical RK4 integration of either flow system.

    The factor U is re-orthonormalized by QR (with the core transformed
    congruently, leaving Z unchanged) whenever its drift exceeds the stored
    tolerance.  Per-step records hold (t, ||Z - X||_F, sigma_r(Z),
    ||grad||_F), including the initial and final states.  This is a batch of
    one through :func:`_integrate_batch`, whose observer keeps the states.
    """
    seen = []                              # (U, S) of each point before it steps
    status, records, U, S = next(_integrate_batch(
        system, 1, lambda lo, hi: _runner.stack([init]), gt, t_end, controls,
        lambda t, ids, U, S: seen.append((U[0], S[0]))))
    return FlowResult(records, status, _init=init, _factors=(seen + [(U, S)])[1:])


def _integrate_batch(system: str, count: int, build, gt: GroundTruth, t_end: float,
                     controls: StepControls | None = None, observe=None):
    """:func:`integrate` from ``count`` starts as one batch, whose runs share the flow time.

    Yields ``(status, records, U, S)`` per run from :func:`spsdflow._runner.run_blocks`.
    """
    if system not in _SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    _real("t_end", t_end, zero=True)
    rhs = _SYSTEMS[system]
    ctl = controls or StepControls()

    def stop(t, dist, sigma, grad):
        return [(not t < t_end - 1e-12, "t_end"), (grad < ctl.tau_conv, "converged"),
                (system == "dlra" and sigma < SIGMA_FLOOR, "sigma_floor")]

    def advance(t, U, S, A, B, eig):
        h = min(ctl.dt, t_end - t)
        kU1, kS1 = rhs(U, S, gt, (A, B, *eig))    # the runner's blocks and core decomposition
        kU2, kS2 = rhs(U + 0.5 * h * kU1, S + 0.5 * h * kS1, gt)
        kU3, kS3 = rhs(U + 0.5 * h * kU2, S + 0.5 * h * kS2, gt)
        kU4, kS4 = rhs(U + h * kU3, S + h * kS3, gt)
        U = U + (h / 6.0) * (kU1 + 2 * kU2 + 2 * kU3 + kU4)
        # S stays exactly symmetric, as the right-hand sides assume: sums of symmetric terms
        S = S + (h / 6.0) * (kS1 + 2 * kS2 + 2 * kS3 + kS4)
        drift = _runner.reorthonormalize(U, S, TAU_ORTH)
        if (drift > MAX_DRIFT).any():
            raise StepSizeError(f"orthonormality drift {drift.max():.2e} at t={t + h:.4g}; "
                                "reduce dt")
        return t + h, U, S

    core = np.linalg.eigh if system == "rescaled" else np.linalg.eigvalsh
    return _runner.run_blocks(count, build, gt, core, stop, advance, observe)


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
