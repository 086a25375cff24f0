"""The block runner that descent and both flows step on, and the stack sizes it shares."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .manifold import GroundTruth, factored_blocks, residual_norms

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


def compress(U: np.ndarray, gt: GroundTruth, gt_m: GroundTruth | None = None
             ) -> tuple[np.ndarray, np.ndarray, GroundTruth]:
    """Stacked factors (R, n, r) in the span of each run's columns and the target's eigenvectors.

    With X = V D V^T, one QR [V, U] = Phi T per run gives its basis Phi (n x m, m = min(n, 2r)),
    its m-row factors T[:, r:] and the m-row target T[:, :r], which depends on V alone: the
    same bits in every run and every call.  Returns (Phi, T[:, r:], the m-row target); Phi @ U
    lifts back.  A caller that compresses again against gt passes the target it got as
    ``gt_m``, which is returned instead of being built and validated again.
    """
    V = np.broadcast_to(gt.U, U.shape[:-1] + (gt.r,))
    Phi, T = np.linalg.qr(np.concatenate([V, U], axis=-1))
    return Phi, T[..., gt.r:], GroundTruth(T[0, :, :gt.r], gt.d) if gt_m is None else gt_m


def run_blocks(count: int, build: Callable, gt: GroundTruth, core: Callable, stop: Callable,
               advance: Callable, observe: Callable | None) -> Iterator[tuple]:
    """Step the runs from ``count`` starts as stacked factors: the runner of descent and flows.

    Runs go in blocks of ``cap = BLOCK_ENTRIES // (n r)``, a tail of at most ``cap / 2`` joining
    the last; ``build(lo, hi)`` gives a block's stacked starts (U, S) when it is taken in, and no
    run's arithmetic depends on the others.  Descent steps and flow velocities from U lie in
    span(U, V), X = V D V^T, so a run stays in span(U_0, V): :func:`compress` gives each run its
    basis Phi, its m-row start and the block's one m-row target ``gt_m``.  Steps work on m-row U,
    lifted to Phi U only where it leaves: terminal factors and observer calls.  At each logged
    point ``observe(x, ids, U, S)`` sees every live run (``ids`` among all starts), terminal ones
    too, and returns ``None`` or a list of per-run arrays logged as extra columns, at every call
    or at none.  Then a run ends at the first (mask, status) of ``stop`` whose mask holds; the
    rest go on by ``advance``.  ``core`` is the one decomposition of each logged core S as a
    tuple, for descent and both flows ``(w,)``, its ascending eigenvalues with ``eigvalsh``'s
    bits: sigma_r is logged from w, and ``advance(x, U, S, A, B, eig, gt_m)`` gets the tuple.
    Yields per run its status, its rows (x from 0 in each block, dist, sigma_r, grad_norm,
    observed columns) to the terminal point, and factors.
    """
    cap = max(1, BLOCK_ENTRIES // (gt.n * gt.r))
    lo = 0                                # index of the block's first start
    while lo < count:
        hi = count if 2 * (count - lo) <= 3 * cap else lo + cap
        U, S = build(lo, hi)
        Phi, U, gt_m = compress(U, gt)
        ids = np.arange(lo, hi)           # start index of each stacked run
        lo = hi
        ends = {}
        log = []                          # rows (id, x, dist, sigma, grad, *observed) per point
        x = 0
        while True:
            A, B, C = factored_blocks(U, gt_m)
            dist, grad = residual_norms(U, S, A, B, C, gt.d)
            eig = core(S)
            sigma = eig[0][:, 0]
            extra = [] if observe is None else observe(x, ids, Phi @ U, S) or []
            row = np.empty((ids.size, 5 + len(extra)))
            for k, column in enumerate((ids, x, dist, sigma, grad, *extra)):
                row[:, k] = column
            log.append(row)
            done = None                   # a mask that holds nowhere costs one test
            for mask, status in stop(x, dist, sigma, grad):
                if mask is not False and np.any(mask):
                    if done is None:
                        done = np.zeros(ids.size, dtype=bool)
                    for j in np.flatnonzero(mask & ~done):
                        ends[ids[j]] = (status, Phi[j] @ U[j], S[j])
                    done |= mask
            if done is not None:          # only then: the filter copies every per-run array
                if done.all():
                    break
                ids, U, S, A, B, Phi, *eig = (v[~done] for v in (ids, U, S, A, B, Phi, *eig))
            x, U, S = advance(x, U, S, A, B, eig, gt_m)
        rows = np.concatenate(log)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]      # by run, each in step order
        runs = np.split(rows[:, 1:], np.flatnonzero(np.diff(rows[:, 0])) + 1)
        for (_, (status, U, S)), run in zip(sorted(ends.items()), runs):
            yield status, run, U, S
