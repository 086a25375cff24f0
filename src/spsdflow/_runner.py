"""The block runner that descent and both flows step on, and the stack sizes it shares."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .manifold import (
    GroundTruth,
    factored_blocks,
    mT,
    orth_defect,
    residual_norms,
    sym,
)

# Factor entries per stacked block of runs (131 at n=100, r=5), and dense n x n
# entries per stacked call (dense_stack).  The 400 escape runs at n=100, r=5 took
# 1.48, 1.54, 1.39 and 1.48 reference s at 2**14, 2**15, 2**16 and 2**17 (medians of
# 8 interleaved rounds, two-core VM, one BLAS thread) and peaked at 42, 44, 46, 50 MB.
BLOCK_ENTRIES = 2**16


def dense_stack(n: int) -> int:
    """Dense n x n matrices per stacked call: escape starts' retractions, FD-oracle columns."""
    return max(1, BLOCK_ENTRIES // n**2)


def stack(points) -> tuple[np.ndarray, np.ndarray]:
    """The stacked factors (U, S) of the points, as a block builder returns them."""
    return np.stack([p.U for p in points]), np.stack([p.S for p in points])


def reorthonormalize(U: np.ndarray, S: np.ndarray, tol: float) -> np.ndarray:
    """Re-orthonormalize in place the runs whose ||U^T U - I||_F exceeds tol; return all drifts."""
    drift = orth_defect(U)
    redo = drift > tol
    if redo.any():
        U[redo], R = np.linalg.qr(U[redo])
        S[redo] = sym(R @ S[redo] @ mT(R))
    return drift


def run_blocks(count: int, build: Callable, gt: GroundTruth, core: Callable, stop: Callable,
               advance: Callable, observe: Callable | None) -> Iterator[tuple]:
    """Step the runs from ``count`` starts as stacked factors: the runner of descent and flows.

    Runs go in blocks of ``cap = BLOCK_ENTRIES // (n r)``, a tail of at most ``cap / 2`` joining
    the last; ``build(lo, hi)`` gives a block's stacked starts (U, S) when it is taken in, and no
    run's arithmetic depends on the others.  A run ends at the first (mask, status) of ``stop``
    whose mask holds; the rest go to ``observe`` (with indices among all starts), then on by
    ``advance``.  ``core`` is the system's one decomposition of each logged core S
    (``np.linalg.eigvalsh`` or ``np.linalg.eigh``): sigma_r is logged from its ascending
    eigenvalues, and ``advance(x, U, S, A, B, eig)`` gets it as a tuple, ``(w,)`` or ``(w, P)``.
    Yields per run its status, its rows (x from 0 in each block, dist, sigma_r, grad_norm) to
    the terminal point, and its factors.
    """
    cap = max(1, BLOCK_ENTRIES // (gt.n * gt.r))
    lo = 0                                # index of the block's first start
    while lo < count:
        hi = count if 2 * (count - lo) <= 3 * cap else lo + cap
        U, S = build(lo, hi)
        ids = np.arange(lo, hi)           # start index of each stacked run
        lo = hi
        ends = {}
        log = []                          # rows (id, x, dist, sigma, grad) per point
        x = 0
        while True:
            A, B, C = factored_blocks(U, gt)
            dist, grad = residual_norms(U, S, A, B, C, gt.d)
            eig = core(S)
            eig = (eig,) if isinstance(eig, np.ndarray) else tuple(eig)
            sigma = eig[0][:, 0]
            log.append(np.column_stack([ids, np.full(ids.size, x), dist, sigma, grad]))
            done = np.zeros(ids.size, dtype=bool)
            for mask, status in stop(x, dist, sigma, grad):
                for j in np.flatnonzero(mask & ~done):
                    ends[ids[j]] = (status, U[j], S[j])
                done |= mask
            if done.all():
                break
            if done.any():
                U, S, A, B, ids = (v[~done] for v in (U, S, A, B, ids))
                eig = tuple(v[~done] for v in eig)
            if observe is not None:
                observe(x, ids, U, S)
            x, U, S = advance(x, U, S, A, B, eig)
        rows = np.concatenate(log)
        for i, (status, U, S) in sorted(ends.items()):
            yield status, rows[rows[:, 0] == i, 1:], U, S
