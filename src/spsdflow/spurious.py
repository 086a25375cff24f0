"""Spurious critical points of the least-squares loss on the fixed-rank SPSD manifold.

For a rank-r target X with distinct eigenvalues, every subset of its
eigenpairs (other than all of them) defines a rank-deficient fixed point of
projected gradient descent.  This module enumerates those points, builds
parameterized orthonormal tuples (U, S) representing them, and samples
nearby full-rank starting points for escape experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .manifold import (
    FactoredPoint,
    GroundTruth,
    TAU_ORTH,
    _Columns,
    _freeze,
    complement_basis,
    frob,
    retract,
    sym,
    target_spectrum,
)


def haar_orthonormal(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Haar-distributed n-by-m orthonormal columns via sign-fixed QR (m defaults to n)."""
    if m is not None and m > n:
        raise ValueError("R^n holds at most n orthonormal columns")
    return _sign_fixed_qr(rng.standard_normal((n, n if m is None else m)))


def _sign_fixed_qr(G: np.ndarray) -> np.ndarray:
    """Orthonormal factor of G's QR with the signs that make diag(R) nonnegative."""
    Q, R = np.linalg.qr(G)
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return Q * s


def _tagged_rng(seed: int, tag: int) -> np.random.Generator:
    # Domain-separated stream: the same integer seed fed to different
    # samplers must not replay identical Gaussian draws (a shared seed with
    # the target constructor would otherwise produce degenerate geometry).
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), tag)))


def make_ground_truth(n: int, r: int, eigenvalues, seed: int) -> GroundTruth:
    """Random rank-r SPSD target with the given spectrum, deterministic per seed.

    The eigenvalues must be positive and pairwise distinct; they are sorted
    in decreasing order.  The eigenvector block is Haar-distributed.
    """
    d = target_spectrum(eigenvalues, r)
    return GroundTruth(haar_orthonormal(np.random.default_rng(seed), n, r), d)


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

    def descriptor(self) -> dict:
        """JSON-serializable provenance record."""
        return {
            "mask": [int(b) for b in self.mask],
            "rank": self.s,
            "kept_eigenvalues": [float(v) for v in self.d_kept],
            "missing_eigenvalues": [float(v) for v in self.d_miss],
        }

    def to_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


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


def sample_spurious_tuple(sp: SpuriousPoint, gt: GroundTruth, seed: int,
                          haar: bool = True) -> SpuriousTuple:
    """Random parameterized tuple for a spurious point, deterministic per seed.

    The fill-in directions are drawn in the orthogonal complement of the
    target's eigenvector span (Gaussian then QR); the mixing matrix P is
    Haar-distributed, or the identity when ``haar`` is false.
    """
    n, r, s = sp.n, sp.r, sp.s
    k = r - s
    if n - r < k:
        raise ValueError("complement too small to fill the missing rank")
    rng = _tagged_rng(seed, tag=1)
    if haar:
        G = rng.standard_normal((n, k))
        G -= gt.U @ (gt.U.T @ G)
        U_fill = _sign_fixed_qr(G)
        P = haar_orthonormal(rng, r)
    else:
        U_fill = complement_basis(gt.U)[:, :k]
        P = np.eye(r)
    U = np.hstack([sp.U_kept, U_fill]) @ P.T
    S = sym((P[:, :s] * sp.d_kept) @ P[:, :s].T)
    if frob(U_fill.T @ gt.U) > TAU_ORTH:
        raise RuntimeError("fill-in block failed the orthogonality constraint")
    return SpuriousTuple(sp, U, S, P, U_fill)


def perturb_near(tup: SpuriousTuple, epsilon: float, seed: int,
                 max_tries: int = 16) -> FactoredPoint:
    """Full-rank point at Frobenius distance about ``epsilon`` from the tuple.

    Adds a random symmetric unit-norm perturbation and retracts back to rank
    r.  Retraction is nonexpansive here, so the result stays within
    2 * epsilon of the spurious point.  Rank-deficient draws (a measure-zero
    event) are resampled.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    Z = tup.factored().dense()
    rng = _tagged_rng(seed, tag=2)
    for _ in range(max_tries):
        E = sym(rng.standard_normal((tup.n, tup.n)))
        E /= frob(E)
        res = retract(Z + epsilon * E, tup.r)
        if not res.rank_deficient:
            return res.point
    raise RuntimeError(
        f"no full-rank perturbation found in {max_tries} draws; epsilon is degenerate")
