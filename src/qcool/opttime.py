"""Optimal cycle times.

The protocol works best when the vacuum stays put: the cycle time should
maximise |lambda_{0,d}^k(t)|, the modulus of the effective-operator entry
that multiplies the vacuum.  For k <= 2 the maximum is exact and known in
closed form; for larger k it is found numerically on a search window, a
grid search whose peaks are refined by bracketed Newton steps.  The grid
is walked in increasing t, and the search stops at the first admissible
optimum; only a search that finds none scans the whole window.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from .errors import SearchFailureError
from .hilbert import ladder_block

ANALYTIC_TOPT = {
    0: np.pi / 2,
    1: np.pi,
    2: 2 * np.pi / np.sqrt(3),
}
# grid peaks tested per |lambda_0| evaluation in the search; with one
# neighbour on each side the temporary is (_CHUNK + 2) x ceil((k+1)/2)
# doubles, 8194 x 2 at k = 3 and 8194 x 3 at k = 4
_CHUNK = 8192


@dataclass
class OptTimeResult:
    t_opt: float
    residual: float            # 1 - |lambda_0| at t_opt (`vacuum_residual`)
    search_window: Tuple[float, float]
    method: str                # "analytic" or "numeric"


@lru_cache(maxsize=64)
def _vacuum_modes(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenfrequencies w_j and weights c_j with
    lambda_0(t) = exp(-i k t) * sum_j c_j exp(-i w_j t).

    The excitation block containing |0>|k> is tridiagonal with zero
    diagonal and off-diagonal sqrt(k), ..., sqrt(1); the weights are the
    squared |k>-components of its eigenvectors.  The cached arrays are
    read-only."""
    w, v = ladder_block(k, k + 1)
    return _read_only(w, v[k] ** 2)


@lru_cache(maxsize=64)
def _folded_modes(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The modes of `_vacuum_modes` with each +-w pair folded into one
    cosine: frequencies w_j >= 0 and weights c_j + c_{-j}.

    eigh's ascending order pairs w[i] with w[-1-i]; the zero mode of an
    odd-sized block (k even) is kept as it is."""
    w, c = _vacuum_modes(k)
    n = len(w)
    i = np.arange(n // 2)
    wf, cf = w[n - 1 - i], c[i] + c[n - 1 - i]
    if n % 2:
        wf, cf = np.append(wf, w[n // 2]), np.append(cf, c[n // 2])
    return _read_only(wf, cf)


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, flagged read-only: a cached result is shared by every
    caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def vacuum_lambda(d: int, k: int, t) -> np.ndarray:
    """|lambda_{0,d}^k(t)|, vectorised over t.  Independent of d for
    0 <= k <= d-1 (the block only reaches regulator level k).

    The block's zero diagonal makes its spectrum symmetric, w_j and -w_j
    with equal weights, so sum_j c_j exp(-i w_j t) = sum_j c_j cos(w_j t),
    summed over ceil((k+1)/2) folded cosines (`_folded_modes`)."""
    if not (0 <= k <= d - 1):
        raise ValueError(f"need 0 <= k <= d-1, got k={k}, d={d}")
    t = np.asarray(t, dtype=float)
    w, c = _folded_modes(k)
    return np.abs(np.cos(np.outer(t, w)) @ c).reshape(t.shape)


def vacuum_residual(k: int, t) -> np.ndarray:
    """1 - |lambda_0^k(t)|, vectorised over t, without cancellation.

    With sum_j c_j = 1, 1 - |lambda_0|^2 = 2 sum_{j,l} c_j c_l
    sin^2((w_j - w_l) t / 2), a sum of non-negative terms; dividing by
    1 + |lambda_0| gives the residual to full relative precision near an
    optimum, where 1 - |lambda_0| itself cancels."""
    t = np.asarray(t, dtype=float)
    dw, cc = _mode_pairs(k)
    s2 = (np.sin(0.5 * np.outer(t, dw)) ** 2 @ cc).reshape(t.shape)
    return 2.0 * s2 / (1.0 + vacuum_lambda(k + 1, k, t))


@lru_cache(maxsize=64)
def _mode_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gaps w_j - w_l and weights c_j c_l over all mode pairs (j, l), the
    terms of s2(t) = sum c_j c_l sin^2((w_j - w_l) t / 2)."""
    w, c = _vacuum_modes(k)
    return _read_only((w[:, None] - w[None, :]).ravel(),
                      (c[:, None] * c[None, :]).ravel())


def _refine_optimum(k: int, a: float, b: float, t: float) -> float:
    """Minimiser of s2(t) in the bracket (a, b), from the guess t.

    s2 = (1 - |lambda_0|^2) / 2 shares its minimiser with the residual.
    Newton steps on the analytic s2' = sum c_j c_l dw sin(dw t) / 2 and
    s2'' = sum c_j c_l dw^2 cos(dw t) / 2, dw = w_j - w_l; the sign of
    s2' shrinks the bracket, and a step that would leave it, or a
    non-positive s2'', bisects instead."""
    dw, cc = _mode_pairs(k)
    g1, g2 = 0.5 * cc * dw, 0.5 * cc * dw * dw
    for _ in range(100):
        grad = float(g1 @ np.sin(dw * t))
        if grad == 0.0:
            return t
        if grad > 0.0:
            b = t
        else:
            a = t
        curv = float(g2 @ np.cos(dw * t))
        step = -grad / curv if curv > 0.0 else np.inf
        nxt = t + step if a < t + step < b else 0.5 * (a + b)
        if abs(nxt - t) <= 1e-12:
            return nxt
        t = nxt
    return t


def analytic_topt(k: int) -> OptTimeResult:
    """Closed-form optimum, available for k <= 2."""
    if k not in ANALYTIC_TOPT:
        raise ValueError(f"no closed-form optimal time for k={k}")
    t = ANALYTIC_TOPT[k]
    res = float(vacuum_residual(k, t))
    return OptTimeResult(t, res, (t, t), "analytic")


def local_optima(d: int, k: int, window: Tuple[float, float] = (0.0, 250.0),
                 grid_step: float = 1e-3) -> List[Tuple[float, float]]:
    """(t, residual) at every refined local maximum of |lambda_0| in the
    window, in increasing t order.  Each grid peak t[p] is refined inside
    its neighbours (t[p-1], t[p+1])."""
    return list(_optima(d, k, window, grid_step))


def _optima(d: int, k: int, window: Tuple[float, float],
            grid_step: float) -> Iterator[Tuple[float, float]]:
    """The optima of `local_optima`, lazily; the window is checked now."""
    lo, hi = window
    if not (hi > lo >= 0.0):
        raise ValueError("bad search window")
    return _walk_grid(d, k, np.arange(lo, hi + grid_step, grid_step))


def _walk_grid(d: int, k: int, t: np.ndarray) -> Iterator[Tuple[float, float]]:
    """Yield the refined grid peaks of |lambda_0| on t, in increasing t.

    The grid is evaluated _CHUNK candidate peaks at a time, each piece
    widened by one neighbour on either side, so every interior point is
    tested exactly once, against the same neighbours as in one pass."""
    for s in range(0, len(t), _CHUNK):
        a = max(s - 1, 0)
        mag = vacuum_lambda(d, k, t[a:s + _CHUNK + 1])
        peaks = np.nonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:]))[0]
        for p in peaks + a + 1:
            x = _refine_optimum(k, t[p - 1], t[p + 1], t[p])
            yield float(x), float(vacuum_residual(k, x))


def solve_topt(d: int, k: int, window: Tuple[float, float] = (0.0, 250.0),
               residual_tol: float = 1e-4,
               grid_step: float = 1e-3) -> OptTimeResult:
    """Smallest in-window time with 1 - |lambda_0| below residual_tol.

    The search stops at the first admissible optimum.  Raises
    SearchFailureError carrying the best optimum found when no candidate
    is admissible."""
    best = None
    for t, res in _optima(d, k, window, grid_step):
        if res <= residual_tol:
            return OptTimeResult(t, res, window, "numeric")
        if best is None or res < best[1]:
            best = (t, res)
    if best is None:
        raise SearchFailureError(
            f"no local optimum of |lambda_0| in window {window}",
            best_t=None, best_residual=None)
    raise SearchFailureError(
        f"no optimum with residual <= {residual_tol:g} in window {window}; "
        f"best residual {best[1]:.3e} at t = {best[0]:.6f}",
        best_t=best[0], best_residual=best[1])
