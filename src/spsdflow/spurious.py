"""Spurious critical points of the least-squares loss on the fixed-rank SPSD manifold.

For a rank-r target X with distinct eigenvalues, every subset of its
eigenpairs (other than all of them) defines a rank-deficient fixed point of
projected gradient descent.  This module enumerates those points, builds
parameterized orthonormal tuples (U, S) representing them, and samples
nearby full-rank starting points for escape experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _runner
from .manifold import (
    FactoredPoint,
    GroundTruth,
    TAU_ORTH,
    _Columns,
    _freeze,
    _int,
    _real,
    _top_pairs,
    frob,
    mT,
    retract,  # noqa: F401 - perfbench/tracer.py wraps spurious.retract
    sym,
    target_spectrum,
)


class DegenerateRadiusError(ValueError):
    """No draw of a perturbation of this radius gave a full-rank start: the radius is too small."""


def haar_orthonormal(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Haar-distributed n-by-m orthonormal columns via sign-fixed QR (m defaults to n)."""
    _int("n", n, 0)
    return _sign_fixed_qr(rng.standard_normal((n, n if m is None else _int("m", m, 0, n))))


def _sign_fixed_qr(G: np.ndarray) -> np.ndarray:
    """Orthonormal factor of G's QR with the signs that make diag(R) nonnegative, per matrix."""
    Q, R = np.linalg.qr(G)
    s = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    s[s == 0] = 1.0
    return Q * s[..., None, :]


def _tagged_rng(seed: int, tag: int) -> np.random.Generator:
    # Domain-separated stream: the same integer seed fed to different
    # samplers must not replay identical Gaussian draws (a shared seed with
    # the target constructor would otherwise produce degenerate geometry).
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(_int("seed", seed, 0)), tag)))


def make_ground_truth(n: int, r: int, eigenvalues, seed: int) -> GroundTruth:
    """Random rank-r SPSD target with the given spectrum, deterministic per seed.

    The eigenvalues must be positive and pairwise distinct; they are sorted
    in decreasing order.  The eigenvector block is Haar-distributed.
    """
    d = target_spectrum(eigenvalues, r)
    return GroundTruth(haar_orthonormal(np.random.default_rng(_int("seed", seed, 0)), n, r), d)


@dataclass(frozen=True)
class SpuriousPoint:
    """A rank-deficient critical point Z = U_kept diag(d_kept) U_kept^T.

    ``mask[i]`` says whether the target's i-th eigenpair is retained.  The
    missing block (``U_miss``, ``d_miss``) is what gradient descent must
    recover to escape.
    """

    mask: tuple[bool, ...]
    U_kept: np.ndarray
    d_kept: np.ndarray
    U_miss: np.ndarray
    d_miss: np.ndarray

    def __post_init__(self):
        if all(self.mask):
            raise ValueError("the full mask is the target itself, not a spurious point")
        for name in ("U_kept", "d_kept", "U_miss", "d_miss"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def s(self) -> int:
        """Rank of the point."""
        return int(self.d_kept.shape[0])

    @property
    def n(self) -> int:
        return self.U_kept.shape[0]

    @property
    def r(self) -> int:
        return self.s + int(self.d_miss.shape[0])

    def dense(self) -> np.ndarray:
        return sym((self.U_kept * self.d_kept) @ self.U_kept.T)

    def objective_value(self) -> float:
        """Loss value at the point: half the squared norm of the missing block."""
        return 0.5 * float(np.sum(self.d_miss**2))


def spurious_point(gt: GroundTruth, mask) -> SpuriousPoint:
    """The spurious point retaining exactly the masked eigenpairs of the target."""
    mask = tuple(bool(b) for b in mask)
    if len(mask) != gt.r:
        raise ValueError("mask length must equal the target rank")
    keep = np.flatnonzero(mask)
    drop = np.flatnonzero([not b for b in mask])
    return SpuriousPoint(mask, gt.U[:, keep], gt.d[keep], gt.U[:, drop], gt.d[drop])


def enumerate_spurious(gt: GroundTruth) -> list[SpuriousPoint]:
    """All 2^r - 1 spurious critical points (every mask except all-ones)."""
    r = gt.r
    points = []
    for bits in range(2**r - 1):
        mask = tuple(bool((bits >> i) & 1) for i in range(r))
        points.append(spurious_point(gt, mask))
    return points


@dataclass(frozen=True)
class SpuriousTuple(_Columns):
    """Orthonormal parameterization (U, S) of a spurious point.

    U = (U_kept, U_fill) P^T and S = P diag(d_kept, 0) P^T with P orthogonal
    and U_fill orthogonal to every eigenvector of the target; that
    orthogonality is exactly the stationarity constraint.
    """

    point: SpuriousPoint
    U: np.ndarray
    S: np.ndarray
    P: np.ndarray
    U_fill: np.ndarray

    def __post_init__(self):
        for name in ("U", "S", "P", "U_fill"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def s(self) -> int:
        return self.point.s

    def factored(self) -> FactoredPoint:
        """The tuple as a (boundary) factored point."""
        return FactoredPoint(self.U, self.S)

    @property
    def null_vec(self) -> np.ndarray:
        """Eigenvector of the core's zero eigenvalue (rank-deficit one only)."""
        if self.s != self.r - 1:
            raise ValueError("null_vec is only defined for rank-deficit-one tuples")
        return self.P[:, -1]


def sample_spurious_tuple(sp: SpuriousPoint, gt: GroundTruth, seed: int) -> SpuriousTuple:
    """Random parameterized tuple for a spurious point, deterministic per seed.

    The fill-in directions are drawn in the orthogonal complement of the
    target's eigenvector span (Gaussian then QR); the mixing matrix P is
    Haar-distributed.
    """
    if sp.n - sp.r < sp.r - sp.s:
        raise ValueError("complement too small to fill the missing rank")
    fill, P = _haar_fill(sp, gt, [_tagged_rng(seed, tag=1)])
    return SpuriousTuple(sp, *(v[0] for v in _tuples(sp, gt, fill, P)))


def _haar_fill(sp: SpuriousPoint, gt: GroundTruth, rngs: list) -> tuple:
    """Stacked fill columns and Haar P, one each from the generators: the columns, then P."""
    n, r, k = sp.n, sp.r, sp.r - sp.s
    draws = [(rng.standard_normal((n, k)), rng.standard_normal((r, r))) for rng in rngs]
    G = np.stack([g for g, _ in draws])
    G -= gt.U @ (gt.U.T @ G)
    return _sign_fixed_qr(G), _sign_fixed_qr(np.stack([p for _, p in draws]))


def _tuples(sp: SpuriousPoint, gt: GroundTruth, fill: np.ndarray, P: np.ndarray) -> tuple:
    """Stacked (U, S, P, U_fill) with U = (U_kept, U_fill) P^T and S = P diag(d_kept, 0) P^T."""
    if (np.linalg.norm(mT(fill) @ gt.U, axis=(-2, -1)) > TAU_ORTH).any():
        raise RuntimeError("fill-in block failed the orthogonality constraint")
    U = np.concatenate([np.broadcast_to(sp.U_kept, fill.shape[:-1] + (sp.s,)), fill], -1) @ mT(P)
    Ps = P[..., :sp.s]
    return U, sym((Ps * sp.d_kept) @ mT(Ps)), P, fill


def perturb_near(tup: SpuriousTuple, epsilon: float, seed: int) -> FactoredPoint:
    """Full-rank point at Frobenius distance about ``epsilon`` from the tuple.

    Adds a random symmetric unit-norm perturbation and retracts back to rank
    r.  Retraction is nonexpansive here, so the result stays within
    2 * epsilon of the spurious point.  Rank-deficient draws (a measure-zero
    event unless epsilon is near the rank tolerance) are resampled, up to 16
    draws in all; then :class:`DegenerateRadiusError` is raised.
    """
    U, S = _perturbed(tup.U[None], tup.S[None], tup.point.d_kept, epsilon,
                      [_tagged_rng(seed, tag=2)])
    return FactoredPoint(U[0], S[0])


def _escape_starts(sp: SpuriousPoint, gt: GroundTruth, epsilon: float, seeds: list) -> tuple:
    """Stacked (U, S): ``perturb_near(sample_spurious_tuple(sp, gt, s1), epsilon, s2)`` per seed."""
    pairs = [(int(g.integers(2**63)), int(g.integers(2**63)))     # (s1, s2) of each run seed
             for g in map(np.random.default_rng, seeds)]
    U, S = _tuples(sp, gt, *_haar_fill(sp, gt, [_tagged_rng(s1, tag=1) for s1, _ in pairs]))[:2]
    return _perturbed(U, S, sp.d_kept, epsilon, [_tagged_rng(s2, tag=2) for _, s2 in pairs])


def _perturbed(U: np.ndarray, S: np.ndarray, d_kept: np.ndarray, epsilon: float, rngs: list,
               draws: int = 16) -> tuple:
    """Stacked (U, S) of :func:`perturb_near` at the tuples (U, S), one generator each.

    Sub-stacks of ``dense_stack(n)`` dense W = sym(U S U^T) + epsilon E are built in place in
    one buffer for one retraction; W is exactly symmetric, so ``retract``'s ``sym`` would change
    no bit.  E = sym(G) / ||sym(G)||_F, bit for bit, from each generator's next draw G: one
    n x n scratch takes the draw and is symmetrized and scaled in place, so no other n x n
    array is alive beside the buffer, and it is freed before the eigensolver copies the buffer.
    The retraction starts from the tuples' U, whose power iterates converge to W's top
    ``len(d_kept)`` eigenvectors; Weyl's bound ||epsilon E||_2 <= epsilon puts those values
    above min(d_kept) - epsilon and the others at most epsilon in size, which bounds their
    contraction for ``_top_pairs``' choice of ``eigh``.
    """
    _real("epsilon", epsilon)
    if not draws:
        norm = math.hypot(*d_kept)        # ||Z_sp||_F; 0 at a rank-0 point
        why = (f"radius {epsilon:.3g} = {epsilon / norm:.3g} ||Z_sp||_F, ||Z_sp||_F = {norm:.3g}"
               if norm else "||Z_sp||_F = 0")
        raise DegenerateRadiusError(f"no full-rank perturbation of radius {epsilon:.3g} found in "
                                    f"16 draws; epsilon is degenerate ({why})")
    R, n, r = U.shape
    size = _runner.dense_stack(n)
    low = min(d_kept, default=0.0) - epsilon
    rate = epsilon / low if low > 0 else 1.0
    US = U @ S
    buf = np.empty((min(size, R), n, n))
    U_out, S_out, deficient = np.empty((R, n, r)), np.empty((R, r, r)), np.empty(R, dtype=bool)
    for lo in range(0, R, size):
        hi = min(lo + size, R)
        W = np.matmul(US[lo:hi], mT(U[lo:hi]), out=buf[:hi - lo])
        E = np.empty((n, n))
        for w, rng in zip(W, rngs[lo:hi]):
            _sym_in_place(w)
            _sym_in_place(rng.standard_normal(out=E))
            E /= frob(E)
            E *= epsilon
            w += E
        del E
        U_out[lo:hi], S_out[lo:hi], deficient[lo:hi] = _top_pairs(W, r, U[lo:hi],
                                                                   r - len(d_kept), rate)
    del buf, W, w                         # before a redraw's own buffer
    if deficient.any():                   # such a start draws again from its generator
        redo = np.flatnonzero(deficient)
        U_out[redo], S_out[redo] = _perturbed(U[redo], S[redo], d_kept, epsilon,
                                              [rngs[i] for i in redo], draws - 1)
    return U_out, S_out


# Rows of the blocks that _sym_in_place pairs: a temporary of at most 128 KB.
_SYM_BLOCK = 128


def _sym_in_place(A: np.ndarray) -> None:
    """A <- sym(A) bit for bit, for a square A, one pair of blocks at a time."""
    n = len(A)
    for i in range(0, n, _SYM_BLOCK):
        for j in range(i, n, _SYM_BLOCK):
            I, J = slice(i, i + _SYM_BLOCK), slice(j, j + _SYM_BLOCK)
            T = A[J, I].T.copy()          # C order: the sum below needs no iteration buffers
            T += A[I, J]
            T *= 0.5
            A[I, J] = T
            A[J, I] = T.T
