"""Optimal cycle times.

The protocol works best when the vacuum stays put: the cycle time should
maximise |lambda_{0,d}^k(t)|, the modulus of the effective-operator entry
that multiplies the vacuum.  For k <= 2 the maximum is exact and known in
closed form.  For larger k it is found numerically on a search window: a
grid search at step h = _GRID_STEP whose peaks are refined by bracketed
Newton steps, and the answer is the first optimum with residual
1 - |lambda_0| <= _RESIDUAL_TOL.

The grid is evaluated only where such an optimum can lie.  With
|lambda_0| = |g(t)|, g(t) = sum_j c_j cos(w_j t), w_j >= 0, c_j >= 0 and
sum_j c_j = 1 (`_folded_modes`):

* an optimum refined inside (t[p-1], t[p+1]) with residual <= tau has a
  grid peak with 1 - |g(t[p])| <= tau' = tau + h sum_j c_j w_j + 1e-12,
  since |g'| <= sum_j c_j w_j;
* 1 - |g| >= c_* (1 - |cos(w_* t)|), * the positive-frequency mode of
  largest weight, so |w_* t[p] - m pi| <= arccos(1 - tau'/c_*) for some
  integer m.

The walk at tau (`_walk_grid`) evaluates |lambda_0| only in the windows
around m pi / w_*, padded by two grid points (`_windows`), and refines
only the grid peaks within tau' of 1, in increasing t.  When tau'/c_* >=
1, or no w_j > 0, the windows are the whole grid; `local_optima` is the
walk at tau = inf, every grid peak.

`solve_topt` walks at tau = _RESIDUAL_TOL and stops at the first
admissible optimum.  When there is none, it walks again at a larger tau
until some refined peak has residual <= tau; that walk holds every such
peak, so the least residual among them (earliest t on ties) is the
global best.  The next tau is the least residual the last walk found,
whose peak the new walk must hold, so a failing search walks twice once
it has seen any peak; a walk that finds none doubles tau.  At tau >= 1
the walk covers every peak, so a search that finds none there fails
with no optimum at all.
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
_GRID_STEP = 1e-3      # search grid step
_RESIDUAL_TOL = 1e-4   # largest admissible 1 - |lambda_0| of a numeric optimum


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
    odd-sized block (k even) is kept, at exactly w = 0 (eigh returns it
    at about 1e-16, whose cosine rounds to 1 at any t below 1e7)."""
    w, c = _vacuum_modes(k)
    n = len(w)
    i = np.arange(n // 2)
    wf, cf = w[n - 1 - i], c[i] + c[n - 1 - i]
    if n % 2:
        wf, cf = np.append(wf, 0.0), np.append(cf, c[n // 2])
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
    _check_level(d, k)
    t = np.asarray(t, dtype=float)
    w, c = _folded_modes(k)
    return np.abs(np.cos(np.outer(t, w)) @ c).reshape(t.shape)


def _check_level(d: int, k: int) -> None:
    if not (0 <= k <= d - 1):
        raise ValueError(f"need 0 <= k <= d-1, got k={k}, d={d}")


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


def local_optima(d: int, k: int, window: Tuple[float, float] = (0.0, 250.0)
                 ) -> List[Tuple[float, float]]:
    """(t, residual) at every refined local maximum of |lambda_0| in the
    window, in increasing t order.  Each grid peak t[p] is refined inside
    its neighbours (t[p-1], t[p+1])."""
    return list(_walk_grid(d, k, _grid(d, k, window), np.inf))


def _grid(d: int, k: int, window: Tuple[float, float]) -> np.ndarray:
    """The search grid on the window, once k and the window are checked."""
    _check_level(d, k)
    lo, hi = window
    if not (hi > lo >= 0.0):
        raise ValueError("bad search window")
    return np.arange(lo, hi + _GRID_STEP, _GRID_STEP)


def _grid_tol(k: int, tau: float) -> float:
    """tau' of the module docstring: the largest 1 - |lambda_0| at the
    grid peak of an optimum with residual <= tau."""
    w, c = _folded_modes(k)
    return tau + _GRID_STEP * float(c @ w) + 1e-12


def _windows(k: int, t: np.ndarray, tau: float) -> np.ndarray:
    """Sorted indices of the grid points of t that can be, or neighbour,
    the grid peak of an optimum with residual <= tau: the grid points of
    each window |w_* t - m pi| <= delta of the module docstring, padded by
    two points and merged with any window they overlap.  Every index when
    the bound excludes nothing."""
    w, c = _folded_modes(k)
    tau_grid = _grid_tol(k, tau)
    pos = np.flatnonzero(w > 0)
    j = pos[np.argmax(c[pos])] if len(pos) else None
    if j is None or tau_grid >= c[j]:
        return np.arange(len(t))
    delta = np.arccos(1.0 - tau_grid / c[j])
    m = np.arange(np.floor((w[j] * t[0] - delta) / np.pi),
                  np.ceil((w[j] * t[-1] + delta) / np.pi) + 1)
    lo = np.searchsorted(t, (m * np.pi - delta) / w[j])
    hi = np.searchsorted(t, (m * np.pi + delta) / w[j], "right")
    keep = hi > lo                          # windows holding a grid point
    lo, hi = np.maximum(lo[keep] - 2, 0), np.minimum(hi[keep] + 2, len(t))
    # lo and hi both rise with m, so a window overlaps an earlier one
    # exactly when it overlaps the one just before it
    new = np.ones(len(lo), dtype=bool)
    new[1:] = lo[1:] > hi[:-1]
    lo, hi = lo[new], hi[np.roll(new, -1)]
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


def _walk_grid(d: int, k: int, t: np.ndarray,
               tau: float) -> Iterator[Tuple[float, float]]:
    """Yield, in increasing t, the refined grid peaks t[p] of |lambda_0|
    that can hold an optimum with residual <= tau: those in tau's windows
    with 1 - |lambda_0(t[p])| <= tau'.  At tau = inf, every grid peak.

    A point of the windows is a candidate peak when both its grid
    neighbours are in them too.  |lambda_0| is evaluated _CHUNK
    candidates at a time, each piece widened by one point on either
    side, so every candidate is tested exactly once, against the same
    neighbours as in one pass over the whole grid."""
    floor = 1.0 - _grid_tol(k, tau)
    idx = _windows(k, t, tau)
    for s in range(0, len(idx), _CHUNK):
        piece = idx[max(s - 1, 0):s + _CHUNK + 1]
        mag = vacuum_lambda(d, k, t[piece])
        mid = mag[1:-1]
        peak = ((mid >= mag[:-2]) & (mid > mag[2:]) & (mid >= floor)
                & (piece[2:] - piece[:-2] == 2))
        for p in piece[1:-1][peak]:
            x = _refine_optimum(k, t[p - 1], t[p + 1], t[p])
            yield float(x), float(vacuum_residual(k, x))


def solve_topt(d: int, k: int, window: Tuple[float, float] = (0.0, 250.0)
               ) -> OptTimeResult:
    """Smallest in-window time with 1 - |lambda_0| below _RESIDUAL_TOL.

    Walks the windows of tau = _RESIDUAL_TOL and stops at the first
    admissible optimum.  Otherwise tau grows until some refined peak in
    its windows has residual <= tau, and SearchFailureError carries the
    best of them, the global best (module docstring)."""
    t = _grid(d, k, window)
    tau = _RESIDUAL_TOL
    while True:
        found = []
        for x, res in _walk_grid(d, k, t, tau):
            if res <= _RESIDUAL_TOL:
                return OptTimeResult(x, res, window, "numeric")
            found.append((x, res))
        if tau >= 1.0 or any(res <= tau for _, res in found):
            break
        tau = min(res for _, res in found) if found else 2.0 * tau
    if not found:
        raise SearchFailureError(
            f"no local optimum of |lambda_0| in window {window}",
            best_t=None, best_residual=None)
    best = min(found, key=lambda o: o[1])      # the earliest on ties
    raise SearchFailureError(
        f"no optimum with residual <= {_RESIDUAL_TOL:g} in window {window}; "
        f"best residual {best[1]:.3e} at t = {best[0]:.6f}",
        best_t=best[0], best_residual=best[1])
