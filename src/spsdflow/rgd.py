"""Projected (Riemannian) gradient descent for the least-squares loss.

Each step retracts Z - alpha_k * P_T(Z - X) back onto the rank-r SPSD
manifold.  The stepsize is either fixed (alpha_k = alpha) or proportional
to the smallest retained eigenvalue (alpha_k = alpha * sigma_r(Z_k)); the
varying rule keeps the linearized iteration map well defined up to
rank-deficit-one boundary points, where it has exactly one expanding
eigendirection.

Steps run on the factors: the shifted matrix lives in the span of the
current columns plus the projected target columns, so one (2r)-by-(2r)
eigendecomposition per step replaces a dense n-by-n one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .manifold import (
    EigenFrame,
    FactoredPoint,
    GroundTruth,
    TAU_GRAD,
    TAU_ORTH,
    TangentParam,
    complement_basis,
    factored_blocks,
    inner,
    mT,
    residual_norms,
    retract,
    sym,
)
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
    grad_tol: float = TAU_GRAD

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.mode not in ("fixed", "varying"):
            raise ValueError("mode must be 'fixed' or 'varying'")
        if self.max_iters < 0 or self.tol_dist <= 0:
            raise ValueError("invalid iteration controls")


class StepResult(NamedTuple):
    point: FactoredPoint
    rank_deficient: bool


def _stepsizes(cfg: GDConfig, sigma: np.ndarray) -> np.ndarray:
    """Per-run stepsize: alpha, or alpha * sigma_r(Z_k) (clamped at 0) in varying mode."""
    if cfg.mode == "varying":
        return cfg.alpha * np.maximum(sigma, 0.0)
    return np.full(sigma.shape, cfg.alpha)


def _step(U: np.ndarray, S: np.ndarray, A: np.ndarray, B: np.ndarray,
          stepsize: np.ndarray, rank_tol: float = 1e-12
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One retracted descent step for a stack of runs, from precomputed blocks.

    Z - a * grad = U (S - a (S - A)) U^T + a B U^T + a U B^T is supported on
    [U, Q] with Q an orthonormal basis for B, so the retraction reduces to
    an eigendecomposition of a small core.  ``U`` and ``B`` are (R, n, r),
    ``S`` and ``A`` (R, r, r), ``stepsize`` (R,); every factorization is one
    batched call whose result for a run does not depend on the others.
    Returns the new factors and each run's rank-deficiency flag.
    """
    R, r = S.shape[0], S.shape[-1]
    B = B - U @ (mT(U) @ B)               # guard against orthogonality drift
    Q, Rb = np.linalg.qr(B)
    a = stepsize[:, None, None]
    K = np.zeros((R, 2 * r, 2 * r))
    K[:, :r, :r] = S - a * (S - A)
    K[:, r:, :r] = a * Rb
    K[:, :r, r:] = mT(K[:, r:, :r])
    w, V = np.linalg.eigh(K)              # ascending: keep the last r, largest first
    lam = np.maximum(0.0, w[:, ::-1][:, :r])   # clamped at +0.0, like np.clip
    scale = np.maximum(1.0, np.abs(w).max(axis=1))
    deficient = lam[:, -1] <= rank_tol * scale
    U_new = np.concatenate([U, Q], axis=2) @ V[:, :, ::-1][:, :, :r]
    S_new = np.zeros((R, r, r))
    S_new.reshape(R, r * r)[:, ::r + 1] = lam  # diag(lam) per run
    G = mT(U_new) @ U_new - np.eye(r)
    redo = np.sqrt(inner(G, G)) > 0.1 * TAU_ORTH   # drift control over long runs
    if redo.any():
        U_new[redo], Rq = np.linalg.qr(U_new[redo])
        S_new[redo] = sym(Rq @ S_new[redo] @ mT(Rq))
    return U_new, S_new, deficient


def rgd_step(point: FactoredPoint, gt: GroundTruth, cfg: GDConfig) -> StepResult:
    """One projected gradient step; flags a rank-deficient retraction.

    Equivalent to ``retract(Z - alpha_k * riem_gradient(Z), r)`` but runs in
    O(n r^2) on the factors: a batch of one through the descent kernel.
    """
    U, S = point.U[None], point.S[None]
    A, B, _ = factored_blocks(U, gt)
    U, S, deficient = _step(U, S, A, B, _stepsizes(cfg, np.linalg.eigvalsh(S)[:, 0]))
    return StepResult(FactoredPoint(U[0], S[0]), bool(deficient[0]))


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
    columns: tuple[str, ...] = ("step", "dist", "sigma_r", "grad_norm")


def run_rgd(init: FactoredPoint, gt: GroundTruth, cfg: GDConfig) -> RgdRun:
    """Iterate descent until the target, a stationary boundary point, or the cap.

    Statuses: ``converged_to_X`` when ||Z - X||_F < tol_dist;
    ``near_spurious`` when the gradient norm falls under ``grad_tol`` while
    still far from the target (the other family of fixed points);
    ``max_iters`` otherwise.  A rank-deficient retraction raises
    :class:`RankDropError`.  In varying mode, runs reach the target only
    when alpha * sigma_r(X) < 2 (see :class:`GDConfig`).  Distances come
    from :func:`~spsdflow.manifold.residual_norms`, which stays accurate
    near the target, so ``converged_to_X`` means the dense ||Z - X||_F is
    below ``tol_dist`` up to rounding.  This is :func:`run_rgd_batch` with a
    batch of one.
    """
    return next(run_rgd_batch([init], gt, cfg))


# Factor entries per stacked block of runs (32 runs at n=100, r=5).  A step
# holds about ten (R, n, r) temporaries: at n=100, r=5 one block of 400 runs
# raised peak memory by 15 MB over the serial loop, blocks of 32 runs by
# about 1 MB, at the same speed.
BLOCK_ENTRIES = 2**14


def run_rgd_batch(inits: Iterable[FactoredPoint], gt: GroundTruth, cfg: GDConfig
                  ) -> Iterator[RgdRun]:
    """Run descent from every start together against the shared target.

    Yields the runs in start order, each bit for bit the :func:`run_rgd`
    run of its start: runs are stepped as stacked factors, in blocks of at
    most ``BLOCK_ENTRIES`` factor entries, and no run's arithmetic depends
    on the others.  Starts are taken in and runs handed out one block at a
    time, so a caller that builds starts lazily keeps one block alive.  A
    rank-deficient retraction in any run raises :class:`RankDropError`
    naming the step.
    """
    size = max(1, BLOCK_ENTRIES // (gt.n * gt.r))
    starts = iter(inits)
    while block := list(islice(starts, size)):
        runs = _descend(block, gt, cfg)
        # Free the starts before the next block is sampled: holding them
        # then raised peak RSS by 8 MB at n=1000 (heap fragmentation around
        # the sampler's dense temporaries; live memory was the same).
        del block
        yield from runs


def _descend(inits: list[FactoredPoint], gt: GroundTruth, cfg: GDConfig
             ) -> list[RgdRun]:
    """Step a stack of runs together; a run leaves the stack at its terminal status."""
    U = np.stack([p.U for p in inits])
    S = np.stack([p.S for p in inits])
    ids = np.arange(len(inits))           # start index of each stacked run
    ends: list[tuple] = [()] * len(inits)
    log = []                              # rows (id, step, dist, sigma, grad) per step
    k = 0
    while True:
        A, B, C = factored_blocks(U, gt)
        dist, grad = residual_norms(U, S, A, B, C, gt.d)
        sigma = np.linalg.eigvalsh(S)[:, 0]
        converged = dist < cfg.tol_dist
        stationary = grad < cfg.grad_tol
        done = converged | stationary | (k >= cfg.max_iters)
        for j in np.flatnonzero(done):
            status = ("converged_to_X" if converged[j] else
                      "near_spurious" if stationary[j] else "max_iters")
            ends[ids[j]] = (status, FactoredPoint(U[j], S[j]), k,
                            float(dist[j]), float(sigma[j]), float(grad[j]))
        if done.all():
            break
        if done.any():
            go = ~done
            U, S, A, B, ids, dist, sigma, grad = (
                x[go] for x in (U, S, A, B, ids, dist, sigma, grad))
        log.append(np.column_stack([ids, np.full(ids.size, k), dist, sigma, grad]))
        U, S, deficient = _step(U, S, A, B, _stepsizes(cfg, sigma))
        if deficient.any():
            raise RankDropError(f"iterate left the manifold at step {k}")
        k += 1
    rows = np.concatenate(log) if log else np.zeros((0, 5))
    return [RgdRun(rows[rows[:, 0] == i, 1:], *end) for i, end in enumerate(ends)]


def tangent_coordinate_basis(frame: EigenFrame) -> list[TangentParam]:
    """Coordinate basis of the tangent space at a frame.

    Enumerates the symmetric M-block entries (diagonal, then strict upper
    triangle as E_ij + E_ji) followed by the N-block entries in row-major
    order; :func:`tangent_coordinates` inverts the enumeration.
    """
    r, n = frame.r, frame.n
    basis = []
    for i in range(r):
        M = np.zeros((r, r))
        M[i, i] = 1.0
        basis.append(TangentParam(M, np.zeros((r, n - r)), frame))
    for i in range(r):
        for j in range(i + 1, r):
            M = np.zeros((r, r))
            M[i, j] = M[j, i] = 1.0
            basis.append(TangentParam(M, np.zeros((r, n - r)), frame))
    for a in range(r):
        for b in range(n - r):
            N = np.zeros((r, n - r))
            N[a, b] = 1.0
            basis.append(TangentParam(np.zeros((r, r)), N, frame))
    return basis


def tangent_coordinates(xi: TangentParam) -> np.ndarray:
    """Coordinates of a tangent vector in the :func:`tangent_coordinate_basis` order."""
    r = xi.frame.r
    diag = np.diag(xi.M)
    upper = xi.M[np.triu_indices(r, k=1)]
    return np.concatenate([diag, upper, xi.N.ravel()])


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
    column = the missing eigenvector (first complement column).  Its
    spectrum is a single escape eigenvalue 1 + alpha * d_miss with every
    other eigenvalue equal to one.
    """

    eigenvalues: np.ndarray
    escape_eigenvalue: float
    escape_row: int
    escape_col: int
    d_miss: float
    alpha: float
    frame: EigenFrame
    matrix: np.ndarray

    def escape_tangent(self) -> TangentParam:
        r, n = self.frame.r, self.frame.n
        N = np.zeros((r, n - r))
        N[self.escape_row, self.escape_col] = 1.0
        return TangentParam(np.zeros((r, r)), N, self.frame)


def iteration_jacobian(tup: SpuriousTuple, gt: GroundTruth, alpha: float
                       ) -> IterationJacobianReport:
    """Assemble the varying-stepsize iteration differential at a boundary tuple.

    Built from the boundary limits: the vanishing stepsize kills the
    identity-times-sigma and gradient terms, and the curvature term of the
    Hessian survives as

        xi -> xi + alpha * (U_m d_m U_m^T Up N^T e e^T U^T + transpose),

    with e the core null slot and U_m the missing eigenvector block.  The
    operator is matrixized on the tangent coordinates of
    :func:`boundary_frame` and its spectrum returned.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    frame = boundary_frame(tup)
    r, n = frame.r, frame.n
    u_miss = tup.point.U_miss
    d_miss = float(tup.point.d_miss[0])
    Xm = (u_miss * d_miss) @ u_miss.T          # missing spectral block of the target
    e = np.zeros((r, 1))
    e[-1, 0] = 1.0                             # null slot of the core

    basis = tangent_coordinate_basis(frame)
    mat = np.zeros((len(basis), len(basis)))
    for col, xi in enumerate(basis):
        low = Xm @ frame.U_perp @ xi.N.T @ (e @ e.T) @ frame.U.T
        out_ambient = xi.to_ambient() + alpha * (low + low.T)
        mat[:, col] = tangent_coordinates(TangentParam.from_ambient(frame, out_ambient))

    eig = np.sort(np.linalg.eigvals(mat).real)[::-1]
    return IterationJacobianReport(
        eigenvalues=eig,
        escape_eigenvalue=1.0 + alpha * d_miss,
        escape_row=r - 1,
        escape_col=0,
        d_miss=d_miss,
        alpha=alpha,
        frame=frame,
        matrix=mat,
    )


def fd_iteration_matrix(tup: SpuriousTuple, gt: GroundTruth, alpha: float,
                        eps: float = 1e-5, h: float = 1e-8) -> np.ndarray:
    """Finite-difference matrix of the iteration map near a boundary tuple.

    The map is only differentiable on the manifold interior, so the
    differential is sampled at the full-rank point Z(eps) obtained by
    inflating the tuple core by eps and letting eps -> 0; central
    differences run through the retraction in ambient space and the result
    is expressed in the same tangent coordinates as
    :func:`iteration_jacobian` (the shared eigen-frame of the tuple and of
    Z(eps)).
    """
    frame = boundary_frame(tup)
    cfg = GDConfig(alpha=alpha, mode="varying", max_iters=1)
    Z0 = sym(tup.U @ (tup.S + eps * np.eye(tup.r)) @ tup.U.T)

    def step_dense(W):
        pt = retract(W, tup.r).point
        return rgd_step(pt, gt, cfg).point.dense()

    cols = []
    for xi in tangent_coordinate_basis(frame):
        d = xi.to_ambient()
        diff = (step_dense(Z0 + h * d) - step_dense(Z0 - h * d)) / (2.0 * h)
        cols.append(tangent_coordinates(TangentParam.from_ambient(frame, diff)))
    return np.array(cols).T
