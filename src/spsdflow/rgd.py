"""Projected (Riemannian) gradient descent for the least-squares loss.

Each step retracts Z - alpha_k * P_T(Z - X) back onto the rank-r SPSD
manifold.  The stepsize is either fixed (alpha_k = alpha) or proportional
to the smallest retained eigenvalue (alpha_k = alpha * sigma_r(Z_k)); the
varying rule keeps the linearized iteration map well defined up to
rank-deficit-one boundary points, where it has exactly one expanding
eigendirection.

Steps run on the factors.  Every iterate stays in the span of the start and
the target's eigenvectors, and in a basis of it, of m = min(n, 2r) rows, the
shifted matrix is m-by-m: one m-by-m eigendecomposition per step, at O(r^3),
replaces a dense n-by-n one.  Runs step in that basis on the block runner;
:func:`rgd_step` and the finite-difference oracle's step compress to it the
same way and lift back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

import numpy as np

from . import _runner
from .manifold import (
    EigenFrame,
    FactoredPoint,
    GroundTruth,
    RetractionResult,
    TAU_GRAD,
    TangentParam,
    _int,
    _real,
    complement_basis,
    factored_blocks,
    manifold_dim,
    mT,
    retract,  # noqa: F401 - perfbench/tracer.py wraps rgd.retract
    sym,
    truncate,
)
from .oracles import fd_directional
from .spurious import SpuriousTuple


class RankDropError(RuntimeError):
    """An iterate left the rank-r manifold (retraction dropped rank)."""


@dataclass(frozen=True)
class GDConfig:
    """Descent configuration.

    ``alpha`` is the stepsize in fixed mode and the proportionality
    coefficient in varying mode.  Fixed mode is empirically stable up to
    about alpha = 0.9 on well-conditioned targets.  Varying mode converges
    to the target when alpha * sigma_r(X) < 2: on the retained eigenvalue
    the step is s -> s + alpha s (sigma_r(X) - s), whose fixed point loses
    its attraction at alpha * sigma_r(X) = 2 (multiplier -1, where the
    error decays only like 1/sqrt(k)).
    """

    alpha: float
    mode: str = "fixed"
    max_iters: int = 1000
    tol_dist: float = 1e-6

    def __post_init__(self):
        _real("alpha", self.alpha)
        if self.mode not in ("fixed", "varying"):
            raise ValueError("mode must be 'fixed' or 'varying'")
        _int("max_iters", self.max_iters, 0)
        _real("tol_dist", self.tol_dist)


def _stepsizes(cfg: GDConfig, sigma: np.ndarray) -> np.ndarray:
    """Per-run stepsize: alpha, or alpha * sigma_r(Z_k) (clamped at 0) in varying mode."""
    if cfg.mode == "varying":
        return cfg.alpha * np.maximum(sigma, 0.0)
    return np.full(sigma.shape, cfg.alpha)


def _step(U: np.ndarray, S: np.ndarray, A: np.ndarray, B: np.ndarray,
          stepsize: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One retracted descent step for a stack of runs, from precomputed blocks.

    ``U`` and ``B`` are (R, m, r) in a run's m-row basis (:func:`spsdflow._runner.compress`),
    ``S`` and ``A`` (R, r, r), ``stepsize`` (R,).  There the shifted matrix
    Z - a * grad = U (S - a (S - A)) U^T + a (U B^T + B U^T) is m x m, and the retraction
    truncates one batched ``eigh`` of it, whose result for a run does not depend on the others.
    Returns the new factors, each run's rank-deficiency flag and the new cores' ascending
    eigenvalues: the values that ``truncate`` puts on their diagonals.
    """
    a = stepsize[:, None, None]
    M = U @ (S - a * (S - A)) @ mT(U) + a * (U @ mT(B) + B @ mT(U))
    w, V = np.linalg.eigh(M)
    r = S.shape[-1]
    return (*truncate(w, V, r), np.maximum(w[..., -r:], 0.0))


def rgd_step(point: FactoredPoint, gt: GroundTruth, cfg: GDConfig) -> RetractionResult:
    """One projected gradient step; flags a rank-deficient retraction.

    Equivalent to ``retract(Z - alpha_k * riem_gradient(Z), r)`` but runs in
    O(n r^2) on the factors: a batch of one, compressed and stepped like a run.
    """
    Phi, U, gt_m = _runner.compress(point.U[None], gt)
    S = point.S[None]
    A, B, _ = factored_blocks(U, gt_m)
    sigma = np.linalg.eigvalsh(S)[:, 0] if cfg.mode == "varying" else np.zeros(1)
    U, S, deficient, _ = _step(U, S, A, B, _stepsizes(cfg, sigma))
    return RetractionResult(FactoredPoint(Phi[0] @ U[0], S[0]), bool(deficient[0]))


@dataclass
class RgdRun:
    """Iteration log and terminal state of a descent run.

    ``records`` holds one row per executed iteration with the pre-step
    metrics (k, ||Z_k - X||_F, sigma_r(Z_k), ||grad||_F); the terminal
    iterate's metrics are exposed separately so a run stopped at iteration
    zero has an empty log.
    """

    records: np.ndarray
    status: str
    point: FactoredPoint
    iters: int
    terminal_dist: float
    terminal_sigma_r: float
    terminal_grad_norm: float
    columns: ClassVar[tuple[str, ...]] = ("step", "dist", "sigma_r", "grad_norm")


def run_rgd(init: FactoredPoint, gt: GroundTruth, cfg: GDConfig) -> RgdRun:
    """Iterate descent until the target, a stationary boundary point, or the cap.

    Statuses: ``converged_to_X`` when ||Z - X||_F < tol_dist; ``near_spurious`` when the
    gradient norm over c (runs step on X / c, c the power of two nearest d[-1]) falls under
    ``TAU_GRAD`` at least ``d[-1] / 2`` from X, half the least distance of a rank-deficient
    critical point (a run stationary nearer steps on); ``max_iters`` otherwise.  A
    rank-deficient retraction raises :class:`RankDropError`.  In varying mode, runs reach the
    target only when alpha * sigma_r(X) < 2 (see :class:`GDConfig`).  Distances come from
    :func:`~spsdflow.manifold.residual_norms`, which stays accurate near the target, so
    ``converged_to_X`` means the dense ||Z - X||_F is below ``tol_dist`` up to rounding.
    This is :func:`run_rgd_batch` with a batch of one.
    """
    return next(run_rgd_batch(1, lambda lo, hi: _runner.stack([init]), gt, cfg))


def run_rgd_batch(count: int, build: Callable, gt: GroundTruth, cfg: GDConfig,
                  observe: Callable | None = None) -> Iterator[RgdRun]:
    """Run descent from ``count`` starts together against the shared target.

    Yields each run in start order, bit for bit its :func:`run_rgd` run, on the block runner
    (``build``, ``observe(k, ids, U, S)`` at each step k, whose columns follow the four records
    columns); a rank drop raises :class:`RankDropError`.
    """
    c = _runner.unit(gt.d)                # runs step on X / c; c dist and c sigma_r: caller units

    def stop(k, dist, sigma, grad):
        spurious = (grad < TAU_GRAD) & (c * dist >= 0.5 * gt.d[-1])
        return [(c * dist < cfg.tol_dist, "converged_to_X"), (spurious, "near_spurious"),
                (k >= cfg.max_iters, "max_iters")]

    def advance(k, U, S, A, B, w, _):
        U, S, deficient, w = _step(U, S, A, B, _stepsizes(cfg, c * w[:, 0]))
        if deficient.any():
            raise RankDropError(f"iterate left the manifold at step {k}")
        return k + 1, U, S, w

    runs = _runner.run_blocks(count, build, gt, stop, advance, observe)
    for status, rows, U, S in runs:
        yield RgdRun(rows[:-1], status, FactoredPoint(U, S), len(rows) - 1, *rows[-1, 1:4].tolist())


def tangent_coordinate_basis(frame: EigenFrame) -> list[TangentParam]:
    """Coordinate basis of the tangent space at a frame.

    Enumerates the symmetric M-block entries (diagonal, then strict upper
    triangle as E_ij + E_ji) followed by the N-block entries in row-major
    order; :func:`tangent_coordinates` inverts the enumeration.
    """
    dim = manifold_dim(frame.n, frame.n, frame.r, hermitian=True)
    return [_from_coordinates(frame, e) for e in np.eye(dim)]


def tangent_coordinates(xi: TangentParam) -> np.ndarray:
    """Coordinates in :func:`tangent_coordinate_basis` order, one row per vector of a stack."""
    i, j = np.triu_indices(xi.frame.r, k=1)
    N = xi.N.reshape(xi.N.shape[:-2] + (-1,))
    return np.concatenate([np.diagonal(xi.M, axis1=-2, axis2=-1), xi.M[..., i, j], N], axis=-1)


def _from_coordinates(frame: EigenFrame, c: np.ndarray) -> TangentParam:
    """Inverse of :func:`tangent_coordinates`; rows of ``c`` give a stack of tangent vectors."""
    r, m = frame.r, frame.r * (frame.r + 1) // 2
    M = np.zeros(c.shape[:-1] + (r, r))
    M[..., range(r), range(r)] = c[..., :r]
    M[(...,) + np.triu_indices(r, k=1)] = c[..., r:m]
    N = c[..., m:].reshape(c.shape[:-1] + (r, frame.n - r))
    return TangentParam(M + mT(np.triu(M, 1)), N, frame)


def boundary_frame(tup: SpuriousTuple) -> EigenFrame:
    """Eigen-frame of a rank-deficit-one tuple with a pinned complement order.

    Columns of U are the kept target eigenvectors followed by the fill-in
    direction (eigenvalues d_kept, then 0); the first complement column is
    the missing target eigenvector, which carries the escape coordinate.
    """
    if tup.s != tup.r - 1:
        raise ValueError("boundary frame requires rank deficit one")
    U_z = np.hstack([tup.point.U_kept, tup.U_fill])
    u_miss = tup.point.U_miss
    sigma = np.concatenate([tup.point.d_kept, [0.0]])
    return EigenFrame(U_z, sigma, complement_basis(U_z, leading=u_miss))


@dataclass
class IterationJacobianReport:
    """Spectrum of the varying-stepsize iteration map at a boundary tuple.

    The limit of the map's differential is the identity plus a rank-one
    update supported on one N-coordinate: row = the core's null slot (last),
    column = the missing eigenvector (first complement column), so ``matrix``
    is I + alpha * kron(e e^T, K^T) on the N-block.  Its spectrum is a single
    escape eigenvalue 1 + alpha * d_miss, every other eigenvalue one.
    """

    eigenvalues: np.ndarray
    escape_eigenvalue: float
    d_miss: float
    frame: EigenFrame
    matrix: np.ndarray

    def escape_tangent(self) -> TangentParam:
        r, n = self.frame.r, self.frame.n
        N = np.zeros((r, n - r))
        N[-1, 0] = 1.0                     # the core's null slot, the missing eigenvector
        return TangentParam(np.zeros((r, r)), N, self.frame)


def iteration_jacobian(tup: SpuriousTuple, gt: GroundTruth, alpha: float
                       ) -> IterationJacobianReport:
    """Assemble the varying-stepsize iteration differential at a boundary tuple.

    Built from the boundary limits: the vanishing stepsize kills the
    identity-times-sigma and gradient terms, and the curvature term of the
    Hessian survives as

        xi -> xi + alpha * (X_m Up N^T e e^T U^T + transpose),

    with e the core null slot and X_m = U_m d_m U_m^T the missing spectral
    block.  As U^T X_m = 0, M stays fixed and N -> N + alpha e e^T N K with
    K = Up^T X_m Up: on the coordinates of :func:`boundary_frame` (N row-major)
    the matrix is I plus alpha * kron(e e^T, K^T) on the N-block.
    """
    _real("alpha", alpha)
    frame = boundary_frame(tup)
    r, n = frame.r, frame.n
    d_miss = float(tup.point.d_miss[0])
    w = frame.U_perp.T @ tup.point.U_miss      # missing eigenvector in the complement
    K = (w * d_miss) @ w.T                     # Up^T X_m Up
    mat = np.eye(manifold_dim(n, n, r, hermitian=True))
    mat[-(n - r):, -(n - r):] += alpha * K.T   # kron(e e^T, K^T), e the core's null slot (last)

    eig = np.sort(np.linalg.eigvals(mat).real)[::-1]
    return IterationJacobianReport(
        eigenvalues=eig,
        escape_eigenvalue=1.0 + alpha * d_miss,
        d_miss=d_miss,
        frame=frame,
        matrix=mat,
    )


def _direction_factors(frame: EigenFrame) -> tuple[np.ndarray, np.ndarray]:
    """Tables (a, b), each (dim, n): coordinate k's ambient direction is a_k b_k^T + b_k a_k^T.

    (u_i, u_i / 2) on M's diagonal, (u_i, u_j) above it, (u_i, p_j) on N: ``to_ambient``'s bits
    except above M's diagonal, where its matmul may fuse one of two products into their sum.
    """
    i, j = np.triu_indices(frame.r, k=1)
    Ut, Pt = frame.U.T, frame.U_perp.T
    a = np.concatenate([Ut, Ut[i], np.repeat(Ut, len(Pt), axis=0)])
    return a, np.concatenate([Ut / 2, Ut[j], np.tile(Pt, (frame.r, 1))])


def fd_iteration_matrix(tup: SpuriousTuple, gt: GroundTruth, alpha: float,
                        eps: float = 1e-5, h: float = 1e-8) -> np.ndarray:
    """Finite-difference matrix of the iteration map near a boundary tuple.

    The map is only differentiable on the manifold interior, so the
    differential is sampled at the full-rank point Z(eps), the tuple core
    inflated by eps.  Central differences run through the dense retraction
    and :func:`rgd_step`'s arithmetic, in stacks of ``dense_stack(n)``
    columns, and are expressed in the tangent coordinates of
    :func:`iteration_jacobian` (the eigen-frame that the tuple and Z(eps)
    share).  A stack's dense directions are outer products
    (:func:`_direction_factors`), and a step returns the new point's frame
    coordinates [M | N] = H[:, :r]^T S H, H = U^T [U_f, U_perp], which are
    differenced.  ``eps`` must be positive and finite.
    """
    _real("eps", eps)
    frame = boundary_frame(tup)
    cfg = GDConfig(alpha=alpha, mode="varying", max_iters=1)
    Z0 = sym(tup.U @ (tup.S + eps * np.eye(tup.r)) @ tup.U.T)
    F = np.hstack([frame.U, frame.U_perp])
    gt_m = None                           # the m-row target: the first stack builds it

    def step_coordinates(W):
        nonlocal gt_m
        w, V = np.linalg.eigh(W)
        U, S, _ = truncate(w, V, tup.r)
        Phi, U, gt_m = _runner.compress(U, gt, gt_m)
        A, B, _ = factored_blocks(U, gt_m)
        U, S, _, _ = _step(U, S, A, B, _stepsizes(cfg, w[:, -tup.r]))   # S's least, unclamped
        H = mT(Phi @ U) @ F
        return mT(H[..., :tup.r]) @ S @ H

    a, b = _direction_factors(frame)
    size = _runner.dense_stack(tup.n)
    cols = []
    for lo in range(0, len(a), size):
        D = a[lo:lo + size, :, None] * b[lo:lo + size, None, :]
        diff = fd_directional(step_coordinates, Z0, D + mT(D), h)
        cols.append(tangent_coordinates(TangentParam(diff[..., :tup.r], diff[..., tup.r:], frame)))
    return np.concatenate(cols).T
