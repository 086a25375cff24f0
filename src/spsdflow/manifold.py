"""Core operations on the manifold of fixed-rank symmetric PSD matrices.

Points are kept in factored form Z = U S U^T with U an n-by-r matrix with
orthonormal columns and S a symmetric r-by-r core.  Dense n-by-n symmetric
matrices only appear at module boundaries; the iterative drivers in
:mod:`spsdflow.rgd` and :mod:`spsdflow.flows` work on the factors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Orthonormality drift tolerance for stored factors.
TAU_ORTH = 1e-10
# Gradient norm below which a point is treated as stationary.
TAU_GRAD = 1e-8
# Relative size (see relative_spectrum) at or below which a value counts as zero.
TAU_RANK = 1e-12
# Relative gap (same array) at or below which two values count as one repeated value.
TAU_GAP = 1e-8


def mT(A: np.ndarray) -> np.ndarray:
    """Matrix transpose over the last two axes (A^T for each matrix of a stack)."""
    return A.swapaxes(-1, -2)


def sym(A: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T) / 2, per matrix of a stack."""
    return 0.5 * (A + mT(A))


def inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Frobenius inner product <X, Y> per matrix of a stack.

    One dot product of the flattened matrices, as ``np.vdot`` computes for a
    single pair, so each matrix's value does not depend on the stack it sits
    in.
    """
    k = X.shape[-2] * X.shape[-1]
    return (X.reshape(X.shape[:-2] + (1, k)) @ Y.reshape(Y.shape[:-2] + (k, 1)))[..., 0, 0]


def relative_spectrum(w: np.ndarray) -> np.ndarray:
    """Values over max(1, max|w|) along the last axis, signs kept, per vector of a stack."""
    return w / np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))


def frob(A: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(A))


def orth_defect(U: np.ndarray) -> np.ndarray:
    """Frobenius distance of U^T U from the identity, per matrix of a stack (NaN stays NaN)."""
    G = mT(U) @ U - _eye(U.shape[-1])
    return np.sqrt(inner(G, G))


def _freeze(A: np.ndarray) -> np.ndarray:
    out = np.array(A, dtype=float)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _eye(k: int) -> np.ndarray:
    """The k x k identity, read-only and shared: the per-step drift and residual terms use it."""
    return _freeze(np.eye(k))


def _finite(name: str, A, shape: tuple | None = None) -> np.ndarray:
    """A as a finite float array (of ``shape``, if given); else raises a ValueError naming it."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None and A.shape != shape:
        raise ValueError(f"{name} has wrong shape {A.shape}, expected {shape}")
    return A


def _real(name: str, x, zero: bool = False):
    """x when it is a real number with 0 < x < inf (0 <= x < inf where ``zero``); not a bool."""
    if isinstance(x, (bool, np.bool_)) or not (0 <= x if zero else 0 < x) or not x < math.inf:
        raise ValueError(f"{name} must be {'nonnegative' if zero else 'positive'} and finite, "
                         f"got {x!r}")
    return x


def _int(name: str, x, lo: int, hi: float = math.inf):
    """x when it is a Python or numpy int with lo <= x <= hi; not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not lo <= x <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {x!r}")
    return x


def target_spectrum(eigenvalues, r: int) -> np.ndarray:
    """The eigenvalues sorted in decreasing order; raises unless r, finite, positive, distinct."""
    d = np.asarray(eigenvalues, dtype=object)
    if d.ndim != 1 or not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in d):
        raise ValueError("eigenvalues must be a one-dimensional sequence of real numbers")
    d = np.sort(d.astype(float))[::-1]
    if d.shape != (r,):
        raise ValueError("need exactly r eigenvalues")
    if not (np.all(np.isfinite(d)) and np.all(d > 0) and np.all(np.diff(d) < 0)):
        raise ValueError("eigenvalues must be finite, positive and pairwise distinct")
    if not math.hypot(*d) < np.sqrt(np.finfo(float).max):   # ||X||_F^2; hypot scales, no warning
        raise ValueError("eigenvalues too large: their squared norm overflows")
    return d


class _Columns:
    """Shape of a record whose ``U`` is n-by-r."""

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class GroundTruth(_Columns):
    """Rank-r SPSD target X = U diag(d) U^T in eigenfactored form.

    ``U`` is n-by-r with orthonormal columns, ``d`` holds r finite, strictly
    positive, strictly decreasing eigenvalues.  Distinct eigenvalues are
    required; several spectral constructions downstream rely on simple
    eigenvalues.
    """

    U: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        U = _freeze(self.U)
        d = _freeze(self.d)
        if U.ndim != 2:
            raise ValueError("U must be n-by-r")
        if not orth_defect(U) <= TAU_ORTH:           # also fails for NaN and for n < r
            raise ValueError("U does not have orthonormal columns")
        if np.any(target_spectrum(d, U.shape[1]) != d):
            raise ValueError("eigenvalues must be in decreasing order")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "d", d)

    def dense(self) -> np.ndarray:
        """Materialize X as a dense n-by-n symmetric matrix."""
        return sym((self.U * self.d) @ self.U.T)

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Compute X @ V without forming X (O(n r) per column)."""
        return self.U @ (self.d[:, None] * (self.U.T @ V))


@dataclass(frozen=True)
class FactoredPoint(_Columns):
    """Candidate point Z = U S U^T with orthonormal U and symmetric S.

    Membership in the rank-r manifold additionally requires S to be
    nonsingular; that is checked by callers (``sigma_min``), not enforced
    here, so boundary points can be represented too.
    """

    U: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=float)
        S = _finite("S", sym(np.asarray(self.S, dtype=float)))
        if U.ndim != 2 or S.shape != (U.shape[1], U.shape[1]):
            raise ValueError("U must be n-by-r and S r-by-r")
        if not orth_defect(U) <= TAU_ORTH:           # also fails for NaN
            raise ValueError("U does not have orthonormal columns")
        object.__setattr__(self, "U", _freeze(U))
        object.__setattr__(self, "S", _freeze(S))

    def dense(self) -> np.ndarray:
        return sym(self.U @ self.S @ self.U.T)

    def sigma_min(self) -> float:
        """Smallest eigenvalue of the core S (equals the r-th eigenvalue of Z)."""
        return float(np.linalg.eigvalsh(self.S)[0])

    def in_manifold(self) -> bool:
        """True when the represented matrix has full rank r."""
        return bool(np.abs(relative_spectrum(np.linalg.eigvalsh(self.S))).min() > TAU_RANK)


def factored_blocks(U: np.ndarray, gt: GroundTruth
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (A, B, C) with A = U^T X U, B = (I - U U^T) X U and C = V^T U.

    Here X = V D V^T is the target.  These blocks drive every factored
    computation: gradient, descent step, flow right-hand sides, distance
    and gradient norms.  C is the one length-n product; A = sym(C^T D C) and
    B = V (D C) - U A.  A stack of factors (..., n, r) gives stacked blocks.
    """
    if U.shape[-2] != gt.n:
        raise ValueError("dimension mismatch between point and target")
    C = gt.U.T @ U
    DC = gt.d[:, None] * C
    A = sym(mT(C) @ DC)
    return A, gt.U @ DC - U @ A, C


def residual_norms(U: np.ndarray, S: np.ndarray, A: np.ndarray, B: np.ndarray,
                   C: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance ||Z - X||_F and projected gradient norm from the blocks.

    Splitting Z - X against col(U) gives the sum of squares

        ||Z - X||_F^2 = ||S - A||^2 + 2 ||B||^2 + ||D^1/2 (I - C C^T) D^1/2||^2,

    whose first two terms are the squared gradient norm and whose last is
    ||(I - U U^T) X (I - U U^T)||^2.  No term cancels, so the distance keeps
    its accuracy next to the target, where the expanded form
    ||S||^2 - 2 <S, A> + ||d||^2 loses every digit to rounding.  The split
    assumes orthonormal U; stored factors drift from that by up to
    ``TAU_ORTH``, which shifts S - A by about drift * ||S||, above the
    rounding floor near the target, so that block is corrected to first
    order in F = U^T U - I (the blocks of the orthonormal U (I + F)^-1/2).
    The ranks may differ: F is r_U-by-r_U and C = V^T U is r_X-by-r_U.
    Stacked inputs give one pair of norms per point.
    """
    T = S - A + sym((mT(U) @ U - _eye(U.shape[-1])) @ (S + A))
    grad2 = inner(T, T) + 2.0 * inner(B, B)
    DE = d[:, None] * (_eye(d.shape[0]) - C @ mT(C))   # ||D^1/2 E D^1/2||^2 = tr(D E D E)
    return np.sqrt(grad2 + inner(DE, mT(DE))), np.sqrt(grad2)


def distance_to_target(point: FactoredPoint, gt: GroundTruth) -> float:
    """Frobenius distance ||Z - X||_F from the factors.

    Sums the squares of :func:`residual_norms` instead of expanding
    ||S||^2 - 2 <S, A> + ||d||^2: the expansion's rounding error,
    eps ||X||_F^2 / dist, swamps distances near 1e-6, while the sum of
    squares is off by a few eps ||X||_F, like the dense ||Z - X||_F.  The
    point and the target may differ in rank.
    """
    return float(residual_norms(point.U, point.S, *factored_blocks(point.U, gt), gt.d)[0])


def gradient_norm(point: FactoredPoint, gt: GroundTruth) -> float:
    """Frobenius norm of the projected gradient, from the factors."""
    return float(residual_norms(point.U, point.S, *factored_blocks(point.U, gt), gt.d)[1])


def tangent_project(point: FactoredPoint, Y: np.ndarray) -> np.ndarray:
    """Project an ambient symmetric matrix onto the tangent space at Z.

    Returns P_U Y + Y P_U - P_U Y P_U with P_U = U U^T.  The projection is
    idempotent and self-adjoint; the result is symmetric.
    """
    Y = sym(_finite("Y", Y, (point.n, point.n)))
    B = point.U.T @ Y                      # r x n
    C = B @ point.U                        # r x r
    out = point.U @ B + B.T @ point.U.T - point.U @ C @ point.U.T
    return sym(out)


class RetractionResult(NamedTuple):
    point: FactoredPoint
    rank_deficient: bool


def truncate(w: np.ndarray, V: np.ndarray, r: int) -> tuple:
    """Keep the r largest pairs of an ascending ``eigh`` (one matrix or a stack), largest first.

    Returns (V_r, S, deficient): a view of V, the diagonal core of the values clamped at +0.0,
    and whether the r-th largest value's ``relative_spectrum(w)`` entry is at most ``TAU_RANK``.
    """
    S = np.zeros(w.shape[:-1] + (r, r))
    S.reshape(-1, r * r)[:, ::r + 1] = np.maximum(w[..., ::-1][..., :r], 0.0)   # diag per matrix
    deficient = relative_spectrum(w)[..., -r] <= TAU_RANK
    return V[..., ::-1][..., :r], S, deficient


# Bounds over max(1, max|w|): on a Ritz pair's share of _top_pairs' truncation error after one
# shift-invert step and on its Ritz value's distance from w's top r, which is also the
# contraction its power steps reach; and on a pair's residual after two steps.
_RITZ_TOL = 2e-14
_RESIDUAL_TOL = 1e-12
# Most power steps _top_pairs takes; a slower contraction goes to eigh.  The steps cost what
# eigh saves from about 26 steps on at n = 100 (stacks of six, one shift) and 66 at n = 1000.
_POWER_STEPS_MAX = 16


def _top_pairs(W: np.ndarray, r: int, Y: np.ndarray, k: int, rate: float) -> tuple:
    """:func:`truncate` of a stack W's top r eigenpairs, certified per matrix, without its eigh.

    Y's power iterates under W contract onto the top s = r - k eigenvectors by at most ``rate``
    per step (Weyl's bound); if that takes over ``_POWER_STEPS_MAX`` steps to reach
    ``_RITZ_TOL``, this is one ``eigh``.  Else one ``eigvalsh`` gives the spectrum w, and each
    matrix takes the QR-normalized power steps from Y that its own contraction
    max(|w[-s-1]|, |w[0]|) / w[-s] needs, at most as many as ``rate`` needs (a matrix whose
    steps are done keeps its iterate while its stack steps on).  They resolve the top s pairs,
    and a shift-invert step at each of the k smallest of w's top r values, from Y's last k
    columns, the others; a Rayleigh-Ritz ``eigh`` on the span of both gives the pairs.  Every
    Ritz value must lie within ``_RITZ_TOL max(1, max|w|)`` of w's.  After one step a pair's
    residual ||W v - theta v|| times |theta| over theta's gap to the values below w's top r
    (Davis-Kahan: its share of the truncation error) must too.  A matrix whose pairs fail
    takes a second step from the first, which leaves them as exact as eigh's: then its
    residuals must be at most ``_RESIDUAL_TOL max(1, max|w|)`` and no shifted matrix singular.
    A matrix that fails again goes through ``eigh``.
    """
    steps = math.ceil(math.log(_RITZ_TOL) / math.log(rate)) if 0 < rate < 1 else math.inf
    if steps > _POWER_STEPS_MAX:
        return truncate(*np.linalg.eigh(W), r)
    w = np.linalg.eigvalsh(W)
    own = np.maximum(np.abs(w[..., k - r - 1]), np.abs(w[..., 0])) / w[..., k - r]
    count = np.ceil(math.log(_RITZ_TOL) / np.log(np.clip(own, _RITZ_TOL, rate)))
    for i in range(int(count.max())):
        Y = np.where((i < count)[:, None, None], np.linalg.qr(W @ Y)[0], Y)
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    X, V, ok = Y[..., r - k:], None, np.zeros(len(W), dtype=bool)
    for second in (False, True):          # the second step keeps the first's certified pairs
        X = _shift_invert(W, w[..., -r:k - r], X)
        Q = np.linalg.qr(np.concatenate([Y, np.where(np.isnan(X), 0.0, X)], axis=-1))[0]
        WQ = W @ Q
        theta, G = np.linalg.eigh(mT(Q) @ WQ)
        theta, G = theta[..., k:], G[..., k:]          # the top r Ritz pairs, ascending
        Vi = Q @ G
        resid = np.linalg.norm(WQ @ G - Vi * theta[..., None, :], axis=-2)
        if second:                        # and no shift was singular, which leaves a NaN
            passed = resid.max(axis=-1) <= _RESIDUAL_TOL * scale
            passed &= ~np.isnan(X).any(axis=(-2, -1))
        else:
            gap = theta - w[..., -r - 1, None]
            passed = (resid * np.abs(theta) <= _RITZ_TOL * scale[..., None] * gap).all(axis=-1)
        passed &= np.abs(theta - w[..., -r:]).max(axis=-1) <= _RITZ_TOL * scale
        V = Vi if V is None else np.where(ok[:, None, None], V, Vi)
        ok |= passed
        if ok.all():
            break
    V, S, deficient = truncate(w, V, r)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        V[bad], S[bad], deficient[bad] = truncate(*np.linalg.eigh(W[bad] if ok.any() else W), r)
    return V, S, deficient


def _shift_invert(W: np.ndarray, shifts: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Unit columns solve(W - shifts[j] I, X[:, j]) per matrix; NaN where W - shift is singular.

    W's diagonal is shifted in place for each stacked solve and then restored.
    """
    i = np.arange(W.shape[-1])
    diag = W[..., i, i]
    out = []
    for j in range(X.shape[-1]):
        W[..., i, i] = diag - shifts[..., j, None]
        out.append(_solve(W, X[..., j:j + 1]))
    W[..., i, i] = diag
    X = np.concatenate(out, axis=-1)
    # a column whose squared entries overflow comes out 0 or NaN: the certificate sends it to eigh
    with np.errstate(over="ignore", invalid="ignore"):
        return X / np.linalg.norm(X, axis=-2, keepdims=True)


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` per matrix of a stack, NaN for a matrix that is exactly singular."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            return np.full(b.shape, np.nan)
        return np.stack([_solve(a, c) for a, c in zip(A, b)])


def retract(W: np.ndarray, r: int) -> RetractionResult:
    """Best Frobenius rank-<=r SPSD approximation of a symmetric matrix.

    Eigendecomposes W and applies :func:`truncate`; the stored core is diagonal.
    ``rank_deficient`` is truncate's :func:`relative_spectrum` test: fewer than
    r retained eigenvalues are positive (the minimizer then leaves the rank-r
    manifold; ties at zero are broken by the eigensolver's ordering).
    """
    W = sym(_finite("W", W))
    _int("r", r, 1, W.shape[0])
    U, S, deficient = truncate(*np.linalg.eigh(W), r)
    return RetractionResult(FactoredPoint(U, S), bool(deficient))


def riem_gradient(point: FactoredPoint, gt: GroundTruth) -> np.ndarray:
    """Projected gradient P_T(Z - X) of f(Z) = ||Z - X||_F^2 / 2, dense."""
    if point.n != gt.n:
        raise ValueError("dimension mismatch between point and target")
    return tangent_project(point, point.dense() - gt.dense())


@dataclass(frozen=True)
class EigenFrame(_Columns):
    """Eigenbasis of a point: Z = U diag(sigma) U^T with sigma descending.

    ``U_perp`` is an orthonormal basis of the complement of col(U); tangent
    vectors are parameterized against this frame.
    """

    U: np.ndarray
    sigma: np.ndarray
    U_perp: np.ndarray


def complement_basis(U: np.ndarray, leading: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of col(U)^perp, optionally with prescribed leading columns.

    ``leading`` must itself be orthonormal and orthogonal to U; it is placed
    first and completed deterministically.
    """
    n, r = U.shape
    cols = [U] if leading is None else [U, leading]
    M = np.hstack(cols)
    if not orth_defect(M) <= 1e-8:                 # also fails for NaN
        raise ValueError("U and the leading columns must be orthonormal and mutually orthogonal")
    Q = np.linalg.qr(M, mode="complete")[0]
    rest = Q[:, M.shape[1]:]
    return rest if leading is None else np.hstack([leading, rest])


def eigen_frame(point: FactoredPoint) -> EigenFrame:
    """Eigen-frame of a factored point (descending core eigenvalues)."""
    w, P = np.linalg.eigh(point.S)
    Uz = point.U @ P[:, ::-1]
    return EigenFrame(Uz, w[::-1].copy(), complement_basis(Uz))


@dataclass(frozen=True)
class TangentParam:
    """Tangent vector in (M, N) coordinates relative to an eigen-frame.

    The ambient form is xi = U M U^T + U N U_perp^T + U_perp N^T U^T, which
    is symmetric for symmetric M.  The coordinate count r(r+1)/2 + r(n-r)
    equals the manifold dimension.  Stacked blocks (..., r, r) and
    (..., r, n - r) hold a stack of tangent vectors, each bit for bit its own.
    """

    M: np.ndarray
    N: np.ndarray
    frame: EigenFrame

    def __post_init__(self):
        r, n = self.frame.r, self.frame.n
        M = sym(np.array(self.M, dtype=float))
        N = np.array(self.N, dtype=float)
        if M.shape[-2:] != (r, r) or N.shape != M.shape[:-2] + (r, n - r):
            raise ValueError("coordinate blocks have wrong shapes")
        object.__setattr__(self, "M", _freeze(M))
        object.__setattr__(self, "N", _freeze(N))

    def to_ambient(self) -> np.ndarray:
        U, Up = self.frame.U, self.frame.U_perp
        cross = U @ self.N @ Up.T
        return sym(U @ self.M @ U.T + cross + mT(cross))

    @classmethod
    def from_ambient(cls, frame: EigenFrame, xi: np.ndarray) -> "TangentParam":
        """Tangent coordinates of an ambient symmetric matrix or a stack (projects)."""
        xi = sym(np.asarray(xi, dtype=float))
        M = frame.U.T @ xi @ frame.U         # symmetrized by the constructor
        N = frame.U.T @ xi @ frame.U_perp
        return cls(M, N, frame)


def riem_hessian_apply(point: FactoredPoint, gt: GroundTruth,
                       xi: "TangentParam | np.ndarray",
                       frame: EigenFrame | None = None) -> np.ndarray:
    """Action of the Riemannian Hessian of f(Z) = ||Z - X||_F^2 / 2.

    For a tangent vector xi = U M U^T + U N U_perp^T + U_perp N^T U^T in the
    point's eigen-frame (U, sigma, U_perp),

        Hess[xi] = xi + Pperp G U_perp N^T Sigma^-1 U^T
                      + U Sigma^-1 N U_perp^T G Pperp,

    with G = Z - X and Pperp = I - U U^T.  The returned matrix is symmetric
    and the map is linear and self-adjoint on the tangent space.  A singular
    core is rejected: the curvature term blows up on the manifold boundary.
    """
    if point.n != gt.n:
        raise ValueError("dimension mismatch between point and target")
    if frame is None:
        frame = eigen_frame(point)
    if isinstance(xi, np.ndarray):
        xi = TangentParam.from_ambient(frame, _finite("xi", xi))
    elif frob(xi.frame.U - frame.U) > 1e-8:
        raise ValueError("tangent vector expressed in a different frame")
    sigma = frame.sigma
    if np.abs(relative_spectrum(sigma)).min() <= TAU_RANK:
        raise ValueError("singular core: Hessian is not defined on the manifold boundary")
    G = point.dense() - gt.dense()
    W = frame.U_perp @ (xi.N.T / sigma[None, :])   # U_perp N^T Sigma^-1, n x r
    GW = G @ W
    GW -= frame.U @ (frame.U.T @ GW)               # left-project onto the complement
    term = GW @ frame.U.T
    return sym(xi.to_ambient() + term + term.T)


def manifold_dim(m: int, n: int, r: int, field: str = "real",
                 hermitian: bool = False) -> int:
    """Local dimension of the set of m-by-n rank-r matrices.

    Real non-Hermitian: (m + n - r) r.  Complex non-Hermitian:
    (2m + 2n - r) r.  Real Hermitian (symmetric): (2m - r + 1) r / 2.
    Complex Hermitian: (4m - r + 1) r / 2.
    """
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    _int("m", m, 0)
    _int("n", n, 0)
    if hermitian and m != n:
        raise ValueError("Hermitian case requires m == n")
    _int("r", r, 0, min(m, n))
    if hermitian:
        return (2 * m - r + 1) * r // 2 if field == "real" else (4 * m - r + 1) * r // 2
    return (m + n - r) * r if field == "real" else (2 * m + 2 * n - r) * r
