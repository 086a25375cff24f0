"""Independent verification machinery.

Central-difference directional derivatives (the oracle every analytic
Jacobian in this package is checked against), the derivative of the
smallest eigenvalue along a matrix path, a numerical checker for the
Davis-Kahan subspace perturbation bound, and an explicit chart map for the
Stiefel manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import TAU_GAP, TAU_ORTH, TAU_RANK, _finite, orth_defect, relative_spectrum, sym


class SeparationError(ValueError):
    """No positive spectral separation between the compared blocks."""


class ChartDomainError(ValueError):
    """Input outside the chart domain (near-singular leading block sum)."""


def _leafwise(f, x, *rest):
    """f over matching leaves: arrays and scalars, or the items of tuples of them."""
    if isinstance(x, np.ndarray) or np.isscalar(x):
        return f(x, *rest)
    return tuple(_leafwise(f, *items) for items in zip(x, *rest))


def _max_abs(x) -> float:
    return float(np.max(_leafwise(lambda v: np.max(np.abs(v)), x)))


def fd_directional(fun, x, direction, h: float):
    """Central-difference directional derivative (f(x + h d) - f(x - h d)) / 2h.

    ``x`` and ``direction`` may be single arrays or tuples of arrays (for
    functions of several matrix arguments); the output mirrors the structure
    of ``fun``'s value.  O(h^2) accurate for twice-differentiable maps, and
    exact for linear ones.  ``h`` must be positive and finite.
    """
    if not 0 < h < np.inf:
        raise ValueError("step size h must be positive and finite")
    fp, fm = (fun(_leafwise(lambda xi, di: xi + a * di, x, direction)) for a in (h, -h))
    return _leafwise(lambda p, m: (p - m) / (2.0 * h), fp, fm)


@dataclass
class FDReport:
    """Agreement of an analytic derivative with its central-difference estimates."""

    max_abs_err: float
    max_rel_err: float
    h_used: float
    convergence_order: float
    errors: tuple[float, ...]
    hs: tuple[float, ...]


def fd_report(fun, x, direction, reference, hs) -> FDReport:
    """Compare central differences at several step sizes against a reference.

    The observed order is the least-squares slope of log error against
    log h; at least three distinct step sizes are required for the fit.
    """
    hs = tuple(sorted((float(h) for h in hs), reverse=True))
    if len(set(hs)) < 3:
        raise ValueError("need at least three step sizes to estimate the order")
    errors = []
    for h in hs:
        est = fd_directional(fun, x, direction, h)
        errors.append(_max_abs(_leafwise(lambda e, ref: e - ref, est, reference)))
    slope = np.polyfit(np.log(hs), np.log(np.maximum(errors, 1e-30)), 1)[0]
    ref_scale = max(_max_abs(reference), 1e-30)
    return FDReport(
        max_abs_err=float(min(errors)),
        max_rel_err=float(min(errors) / ref_scale),
        h_used=hs[-1],
        convergence_order=float(slope),
        errors=tuple(float(e) for e in errors),
        hs=hs,
    )


@dataclass
class EigMinSlope:
    """Derivative of the smallest eigenvalue along a symmetric direction.

    ``mode`` is ``"simple"`` (p^T dS p for the minimal eigenvector) or
    ``"cluster"`` when the smallest eigenvalue is numerically multiple, in
    which case the value is the derivative of the cluster sum, the trace of
    dS on the cluster's invariant subspace.
    """

    value: float
    mode: str
    multiplicity: int


def eig_min_derivative(S: np.ndarray, dS: np.ndarray) -> EigMinSlope:
    """d/dt of sigma_min(S + t dS) at t = 0, with a flagged cluster fallback."""
    S = _finite("S", sym(np.asarray(S, dtype=float)))
    dS = _finite("dS", sym(np.asarray(dS, dtype=float)))
    if dS.shape != S.shape:
        raise ValueError("dS has wrong shape")
    w, P = np.linalg.eigh(S)
    rel = relative_spectrum(w)
    cluster = np.flatnonzero(rel - rel[0] <= TAU_GAP)
    E = P[:, cluster]
    value = float(np.trace(E.T @ dS @ E))
    mode = "simple" if cluster.size == 1 else "cluster"
    return EigMinSlope(value, mode, int(cluster.size))


@dataclass
class SinThetaReport:
    """Both sides of the subspace perturbation bound delta * ||sin Theta|| <= ||R||."""

    delta: float
    lhs_fro: float
    rhs_fro: float
    lhs_two: float
    rhs_two: float
    holds: bool


def sin_theta_check(A: np.ndarray, Delta: np.ndarray, subspace_dim: int
                    ) -> SinThetaReport:
    """Evaluate the invariant-subspace perturbation bound numerically.

    Compares the leading ``subspace_dim``-dimensional invariant subspaces of
    A and B = A + Delta.  ``delta`` is the spectral separation between the
    leading eigenvalues of A and the trailing spectrum of B; principal
    angles come from the singular values of the basis overlap, clamped to
    [0, 1].  Raises :class:`SeparationError` when no positive separation
    exists.  ``A`` must be a finite square matrix and ``Delta`` a finite
    matrix of the same shape, with a finite sum.
    """
    A = _finite("A", A)
    Delta = np.asarray(Delta, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    if Delta.shape != A.shape:
        raise ValueError(f"Delta must have A's shape {A.shape}, got {Delta.shape}")
    A = sym(A)
    B = sym(A + Delta)
    if not np.isfinite(B).all():          # A is finite: Delta is not, or the sums overflow
        raise ValueError("Delta has non-finite entries, or A + Delta overflows")
    k = subspace_dim
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 < k < A.shape[0]:
        raise ValueError(f"subspace_dim must be an integer in [1, {A.shape[0] - 1}], got {k!r}")
    wa, Va = np.linalg.eigh(A)
    wb, Vb = np.linalg.eigh(B)
    E0, a0 = Va[:, ::-1][:, :k], wa[::-1][:k]
    F0 = Vb[:, ::-1][:, :k]
    b1 = wb[::-1][k:]
    lo, hi = float(a0.min()), float(a0.max())
    delta = float(np.min(np.maximum(lo - b1, b1 - hi)))
    if delta <= 0:
        raise SeparationError("no positive spectral separation between the blocks")
    cos = np.clip(np.linalg.svd(E0.T @ F0, compute_uv=False), 0.0, 1.0)
    sines = np.sqrt(np.clip(1.0 - cos**2, 0.0, None))
    R = B @ E0 - E0 @ np.diag(a0)
    lhs_f, rhs_f = delta * float(np.linalg.norm(sines)), float(np.linalg.norm(R))
    lhs_2, rhs_2 = delta * float(sines.max()), float(np.linalg.norm(R, 2))
    slack = 1e-10
    holds = lhs_f <= rhs_f + slack * max(1.0, rhs_f) and lhs_2 <= rhs_2 + slack * max(1.0, rhs_2)
    return SinThetaReport(delta, lhs_f, rhs_f, lhs_2, rhs_2, bool(holds))


def stiefel_chart(U: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart coordinates of U on the Stiefel manifold, centered at Q.

    With the row split U = (U1; U2), Q = (Q1; Q2) at the column count k,

        Omega11 = (U1 + Q1)^-T (Q1^T U1 + U2^T Q2 - U1^T Q1 - Q2^T U2) (U1 + Q1)^-1
        Omega21 = (U2 - Q2) (U1 + Q1)^-1.

    Omega11 is skew-symmetric by construction (the middle factor is skew).
    The chart covers everything except the zero-measure set where U1 + Q1
    is singular, which raises :class:`ChartDomainError`.
    """
    U = np.asarray(U, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if U.shape != Q.shape or U.ndim != 2 or not orth_defect(np.stack([U, Q])).max() <= TAU_ORTH:
        raise ValueError("U and Q must be orthonormal blocks of identical shape")
    n, k = U.shape                                     # n >= k, as U is orthonormal
    U1, U2 = U[:k, :], U[k:, :]
    Q1, Q2 = Q[:k, :], Q[k:, :]
    Msum = U1 + Q1
    svals = np.linalg.svd(Msum, compute_uv=False)
    if relative_spectrum(svals)[-1] <= TAU_RANK:
        raise ChartDomainError("U1 + Q1 is numerically singular; point outside the chart")
    # The middle factor is (Q1^T U1 + U2^T Q2) minus its own transpose, so
    # the sandwich is evaluated once and antisymmetrized: exactly skew in
    # floating point and algebraically identical to the two-sided form.
    half = Q1.T @ U1 + U2.T @ Q2
    G = np.linalg.solve(Msum.T, half)                  # (U1+Q1)^-T * half
    G = np.linalg.solve(Msum.T, G.T).T                 # ... * (U1+Q1)^-1
    omega11 = G - G.T
    omega21 = np.linalg.solve(Msum.T, (U2 - Q2).T).T
    return omega11, omega21
