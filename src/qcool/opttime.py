"""Optimal cycle times.

The protocol works best when the vacuum stays put: the cycle time should
maximise |lambda_0(t)|, the modulus of the effective-operator entry
that multiplies the vacuum |0...0>|k>.  The block holding that state
(`protocol.vacuum_modes`) gives lambda_0(t) = exp(-i phi t) sum_j c_j
exp(-i w_j t), with eigenvalues w_j and vacuum weights c_j >= 0,
sum_j c_j = 1 (`VacuumModes`); this module searches any such sum.  A
symmetric spectrum (w_j and -w_j with equal weights) gives |lambda_0| =
|g(t)|, g(t) = sum_j c_j cos(w_j t) over the folded modes w_j >= 0.
With one positive folded frequency w, g = c_0 + c_1 cos(w t), whose
optima are exact: m pi/w, m >= 1, with g = 1 at even m and |g| =
|c_0 - c_1| at odd m, admissible when 1 - |c_0 - c_1| is; the answer is
the first admissible one in the window (pi/w or 2 pi/w from t = 0).

Any other sum is searched on a window: a grid search at step
h = _GRID_STEP whose peaks are refined by bracketed Newton steps, and
the answer is the first optimum with residual 1 - |lambda_0| <=
_RESIDUAL_TOL.  The grid is evaluated only where such an optimum can
lie:

* an optimum refined inside (t[p-1], t[p+1]) with residual <= tau has a
  grid peak with 1 - |lambda_0(t[p])| <= tau' = tau + h sum_j c_j |w_j|
  + 1e-12, since |lambda_0| changes no faster than sum_j c_j |w_j|;
* for folded modes, 1 - |g| >= c_* (1 - |cos(w_* t)|), * the
  positive-frequency mode of largest weight, so |w_* t[p] - m pi| <=
  arccos(1 - tau'/c_*) for some integer m.

The walk at tau (`_walk_grid`) evaluates |lambda_0| only in the windows
around m pi / w_*, padded by two grid points (`_windows`), and refines
only the grid peaks within tau' of 1, in increasing t.  The windows are
the whole grid when tau'/c_* >= 1, no w_j > 0 or the modes are not
folded; `local_optima` is the walk at tau = inf, every grid peak.

The grid is never built: it is np.arange(lo, hi + h, h) held as its
first point, step and length (`_grid`), point i being lo + i * step
bit for bit, and the windows are index ranges found by arithmetic
(`_searchsorted`).  A walk holds one piece of at most _CHUNK + 2
points at a time, so its memory is O(_CHUNK x modes + windows),
whatever the window's length.

`solve_topt` walks at tau = _RESIDUAL_TOL and stops at the first
admissible optimum.  Failing that, a second walk at the least residual
the first found (tau = inf if none), reusing its refined peaks, holds
every peak of that residual or less; the least (earliest t on ties) is
the global best, the "fallback".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import SearchFailureError

# grid peaks tested per |lambda_0| evaluation in the search: a piece of
# _CHUNK + 2 grid points and a temporary of (_CHUNK + 2) x (folded modes)
# doubles, 8194 x 2 for one oscillator at k = 3; with two edges per
# window, that is all a walk holds
_CHUNK = 8192
_GRID_STEP = 1e-3      # search grid step
_RESIDUAL_TOL = 1e-4   # largest admissible 1 - |lambda_0| of a numeric optimum
_ZERO_TOL = 1e-12      # frequencies below this times the largest are zero
_WEIGHT_TOL = 1e-20    # weights at or below this are rounding noise

Grid = Tuple[float, float, int]     # (first point, step, length): `_grid`


@dataclass
class OptTimeResult:
    t_opt: float
    residual: float     # 1 - |lambda_0| at t_opt (`vacuum_residual`)
    method: str         # "fixed" (k = 0), "analytic", "numeric", "fallback"


class VacuumModes:
    """The modes of lambda_0, from the eigenvalues w (ascending, as eigh
    returns them) and vacuum weights c of the block holding the vacuum.

    folded: the spectrum is symmetric, so w[i] pairs with w[-1-i], and
    w, c hold the folded cosines (w[-1-i] >= 0 with weight c[i] + c[-1-i],
    and the middle mode of an odd block); else the modes themselves.
    Frequencies within _ZERO_TOL of the largest |w| are set to 0, and
    modes of weight <= _WEIGHT_TOL (rounding noise, such as a dark
    mode's) are dropped.  dw, cc: the gaps w_j - w_l and weights c_j c_l
    over all pairs of the kept unfolded modes (`vacuum_residual`).  The
    arrays are read-only: a cached instance is shared."""

    def __init__(self, w: np.ndarray, c: np.ndarray, folded: bool):
        keep = c > _WEIGHT_TOL
        self.dw = (w[keep, None] - w[None, keep]).ravel()
        self.cc = (c[keep, None] * c[None, keep]).ravel()
        if folded:
            n = len(w)
            i, mid = np.arange(n // 2), slice(n // 2, n - n // 2)
            w = np.append(w[n - 1 - i], w[mid])
            c = np.append(c[i] + c[n - 1 - i], c[mid])
        w = np.where(np.abs(w) <= _ZERO_TOL * np.abs(w).max(), 0.0, w)
        keep = c > _WEIGHT_TOL
        self.w, self.c, self.folded = w[keep], c[keep], folded
        for a in (self.w, self.c, self.dw, self.cc):
            a.setflags(write=False)


def vacuum_lambda(modes: VacuumModes, t) -> np.ndarray:
    """|lambda_0(t)|, vectorised over t: the folded cosines, or the
    complex exponentials of unfolded modes."""
    t = np.asarray(t, dtype=float)
    phase = np.outer(t, modes.w)
    # in place: a search piece's (8194 x modes) doubles pass glibc's
    # 128 KiB mmap threshold, and a second such temporary costs fresh pages
    terms = np.cos(phase, out=phase) if modes.folded else np.exp(-1j * phase)
    return np.abs(terms @ modes.c).reshape(t.shape)


def vacuum_residual(modes: VacuumModes, t) -> np.ndarray:
    """1 - |lambda_0(t)|, vectorised over t, without cancellation.

    With sum_j c_j = 1, 1 - |lambda_0|^2 = 2 sum_{j,l} c_j c_l
    sin^2((w_j - w_l) t / 2), a sum of non-negative terms; dividing by
    1 + |lambda_0| gives the residual to full relative precision near an
    optimum, where 1 - |lambda_0| itself cancels."""
    t = np.asarray(t, dtype=float)
    s2 = (np.sin(0.5 * np.outer(t, modes.dw)) ** 2 @ modes.cc).reshape(t.shape)
    return 2.0 * s2 / (1.0 + vacuum_lambda(modes, t))


def _refine_optimum(modes: VacuumModes, a: float, b: float, t: float) -> float:
    """Minimiser of s2(t) in the bracket (a, b), from the guess t.

    s2 = (1 - |lambda_0|^2) / 2 shares its minimiser with the residual.
    Newton steps on the analytic s2' = sum c_j c_l dw sin(dw t) / 2 and
    s2'' = sum c_j c_l dw^2 cos(dw t) / 2, dw = w_j - w_l; the sign of
    s2' shrinks the bracket, and a step that would leave it, or a
    non-positive s2'', bisects instead."""
    dw, cc = modes.dw, modes.cc
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
        if t + step == t:               # converged to the last bit
            return t
        nxt = t + step if a < t + step < b else 0.5 * (a + b)
        if abs(nxt - t) <= 1e-12:
            return nxt
        t = nxt
    return t


def local_optima(modes: VacuumModes, window: Tuple[float, float] = (0.0, 250.0)
                 ) -> List[Tuple[float, float]]:
    """(t, residual) at every refined local maximum of |lambda_0| in the
    window, in increasing t order.  Each grid peak t[p] is refined inside
    its neighbours (t[p-1], t[p+1])."""
    return list(_walk_grid(modes, _grid(window), np.inf, {}))


def _grid(window: Tuple[float, float]) -> Grid:
    """The search grid on the window, once the window is checked:
    np.arange(lo, hi + h, h) as (lo, step, n), its first point, the
    step np.arange fills it with, (lo + h) - lo, and its length."""
    lo, hi = float(window[0]), float(window[1])
    if not (hi > lo >= 0.0 and math.isfinite(hi)):
        raise ValueError("bad search window")
    return (lo, (lo + _GRID_STEP) - lo,
            math.ceil((hi + _GRID_STEP - lo) / _GRID_STEP))


def _points(grid: Grid, i) -> np.ndarray:
    """Grid points i, lo + i * step: np.arange's, bit for bit."""
    lo, step, _ = grid
    return lo + i * step


def _searchsorted(grid: Grid, x: np.ndarray, side: str = "left"
                  ) -> np.ndarray:
    """np.searchsorted(points, x, side) over the whole grid: the index
    (x - lo) / step, rounded up, moved a point at a time until it is the
    first point >= x ("left") or > x ("right")."""
    n = grid[2]
    i = np.clip(np.ceil((x - grid[0]) / grid[1]), 0, n).astype(np.intp)
    past = np.greater if side == "right" else np.greater_equal
    while True:
        down = (i > 0) & past(_points(grid, i - 1), x)
        up = (i < n) & ~past(_points(grid, i), x)
        if not (down.any() or up.any()):
            return i
        i = i - down + up


def _grid_tol(modes: VacuumModes, tau: float) -> float:
    """tau' of the module docstring: the largest 1 - |lambda_0| at the
    grid peak of an optimum with residual <= tau."""
    return tau + _GRID_STEP * float(modes.c @ np.abs(modes.w)) + 1e-12


def _windows(modes: VacuumModes, grid: Grid, tau: float
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted, disjoint index ranges [start, stop) of the grid points
    that can be, or neighbour, the grid peak of an optimum with residual
    <= tau: the grid points of each window |w_* t - m pi| <= delta of the
    module docstring, padded by two points and merged with any window
    they overlap.  The one range [0, n) when the bound excludes nothing."""
    w, c = modes.w, modes.c
    n = grid[2]
    tau_grid = _grid_tol(modes, tau)
    pos = np.flatnonzero(w > 0)
    j = pos[np.argmax(c[pos])] if len(pos) and modes.folded else None
    if j is None or tau_grid >= c[j]:
        return np.array([0]), np.array([n])
    delta = np.arccos(1.0 - tau_grid / c[j])
    m = np.arange(np.floor((w[j] * grid[0] - delta) / np.pi),
                  np.ceil((w[j] * _points(grid, n - 1) + delta) / np.pi) + 1)
    lo = _searchsorted(grid, (m * np.pi - delta) / w[j])
    hi = _searchsorted(grid, (m * np.pi + delta) / w[j], "right")
    keep = hi > lo                          # windows holding a grid point
    lo, hi = np.maximum(lo[keep] - 2, 0), np.minimum(hi[keep] + 2, n)
    # lo and hi both rise with m, so a window overlaps an earlier one
    # exactly when it overlaps the one just before it
    new = np.ones(len(lo), dtype=bool)
    new[1:] = lo[1:] > hi[:-1]
    return lo[new], hi[np.roll(new, -1)]


def _walk_grid(modes: VacuumModes, grid: Grid, tau: float,
               refined: Dict[int, Tuple[float, float]]
               ) -> Iterator[Tuple[float, float]]:
    """Yield, in increasing t, the refined grid peaks t[p] of |lambda_0|
    that can hold an optimum with residual <= tau: those in tau's windows
    with 1 - |lambda_0(t[p])| <= tau'.  At tau = inf, every grid peak.
    `refined` maps each grid peak already refined to its (t, residual),
    and gains the ones this walk refines.

    A point of the windows is a candidate peak when both its grid
    neighbours are in them too.  The windows' points, taken in order
    across windows, are evaluated _CHUNK candidates at a time, each
    piece widened by one point on either side, so every candidate is
    tested exactly once, against the same neighbours as in one pass
    over the whole grid."""
    floor = 1.0 - _grid_tol(modes, tau)
    start, stop = _windows(modes, grid, tau)
    ends = np.cumsum(stop - start)      # window points up to each range's end
    shift = stop - ends                 # grid index - position, per range
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, _CHUNK):
        at = np.arange(max(s - 1, 0), min(s + _CHUNK + 1, total))
        piece = at + shift[np.searchsorted(ends, at, "right")]
        t = _points(grid, piece)
        mag = vacuum_lambda(modes, t)
        mid = mag[1:-1]
        peak = ((mid >= mag[:-2]) & (mid > mag[2:]) & (mid >= floor)
                & (piece[2:] - piece[:-2] == 2))
        for q in np.flatnonzero(peak) + 1:
            p = int(piece[q])
            if p not in refined:
                x = _refine_optimum(modes, t[q - 1], t[q + 1], t[q])
                refined[p] = float(x), float(vacuum_residual(modes, x))
            yield refined[p]


def solve_topt(modes: VacuumModes, window: Tuple[float, float] = (0.0, 250.0)
               ) -> OptTimeResult:
    """First optimum of |lambda_0| in the window with 1 - |lambda_0|
    below _RESIDUAL_TOL: exact when the folded modes have one positive
    frequency, else searched, with the best in the window as a
    "fallback" (module docstring).  ValueError for a bad window;
    SearchFailureError when the window holds no optimum (no admissible
    one, for the exact optima)."""
    grid = _grid(window)
    pos = modes.w > 0
    if modes.folded and np.count_nonzero(pos) == 1:
        # g = c_0 + c_1 cos(w t): optima at m pi / w, g = 1 at even m and
        # |c_0 - c_1| at odd m; the first admissible one in the window
        w = float(modes.w[pos][0])
        res = 1.0 - abs(float(modes.c[~pos].sum() - modes.c[pos][0]))
        lo, hi = grid[0], float(window[1])
        m = max(1, math.floor(lo * w / np.pi))
        while m * np.pi / w < lo:
            m += 1
        if res > _RESIDUAL_TOL:
            m += m % 2
        t_opt = m * np.pi / w
        if t_opt > hi:
            raise SearchFailureError(
                f"no admissible optimum of |lambda_0| in window {window}")
        return OptTimeResult(t_opt, float(vacuum_residual(modes, t_opt)),
                             "analytic")
    refined = {}        # grid peak -> its refined (t, residual), both walks
    found = []
    for x, res in _walk_grid(modes, grid, _RESIDUAL_TOL, refined):
        if res <= _RESIDUAL_TOL:
            return OptTimeResult(x, res, "numeric")
        found.append((x, res))
    tau = min(res for _, res in found) if found else np.inf
    found = list(_walk_grid(modes, grid, tau, refined))
    if not found:
        raise SearchFailureError(
            f"no local optimum of |lambda_0| in window {window}")
    x, res = min(found, key=lambda o: o[1])     # the earliest on ties
    return OptTimeResult(x, res, "fallback")
