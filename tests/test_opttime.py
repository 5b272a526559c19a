import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from qcool import opttime
from qcool.errors import SearchFailureError
from qcool.hamiltonians import CouplingParams, Topology
from qcool.opttime import (_CHUNK, _refine_optimum, local_optima, solve_topt,
                           vacuum_lambda, vacuum_residual)
from qcool.protocol import vacuum_modes

import oracle
from oracle import ANALYTIC_TOPT


def _modes(k):
    """The package's vacuum modes of one oscillator at level k."""
    return vacuum_modes(Topology("single", k + 2), CouplingParams(), k)


def test_analytic_times():
    # one positive folded frequency w: the exact first optimum, bit for
    # bit the closed form; k = 1 has no zero mode, so |g(pi/w)| = 1, and
    # k = 2 has |g(pi/w)| = |2/3 - 1/3|, so it takes 2 pi/w
    for k in (1, 2):
        r = solve_topt(_modes(k))
        assert r.t_opt == ANALYTIC_TOPT[k]
        assert r.method == "analytic"
        assert abs(r.residual) < 1e-12
        assert r.residual == float(vacuum_residual(_modes(k), r.t_opt))
    assert len(_modes(2).w) == 2 and 0.0 in _modes(2).w
    # two positive frequencies: searched
    assert solve_topt(_modes(3)).method == "numeric"


def test_single_modes_are_the_ladder_block():
    # the joint block of one oscillator is the tridiagonal ladder block
    # bit for bit; folding pairs w[i] with w[-1-i] and keeps the zero mode
    # of an odd block at exactly 0
    for k in range(1, 9):
        w, c = oracle.single_modes(k)
        m = _modes(k)
        assert np.array_equal(m.dw, (w[:, None] - w[None, :]).ravel())
        assert np.array_equal(m.cc, (c[:, None] * c[None, :]).ravel())
        n, i = k + 1, np.arange((k + 1) // 2)
        wf, cf = w[n - 1 - i], c[i] + c[n - 1 - i]
        if n % 2:
            wf, cf = np.append(wf, 0.0), np.append(cf, c[n // 2])
        assert m.folded
        assert np.array_equal(m.w, wf) and np.array_equal(m.c, cf)


def test_vacuum_lambda_closed_forms():
    t = np.linspace(0.0, 12.0, 301)
    # k = 0: nothing to exchange, amplitude is 1 at all times
    assert np.max(np.abs(vacuum_lambda(_modes(0), t) - 1.0)) < 1e-14
    # k = 1: two-level exchange, |cos t|
    assert np.max(np.abs(vacuum_lambda(_modes(1), t) - np.abs(np.cos(t)))) < 1e-12
    # k = 2: 2/3 + cos(sqrt(3) t)/3
    ref = np.abs(2.0 / 3.0 + np.cos(np.sqrt(3) * t) / 3.0)
    assert np.max(np.abs(vacuum_lambda(_modes(2), t) - ref)) < 1e-12


def test_vacuum_lambda_range_check():
    # the block of |0...0>|k> needs a regulator level k
    for k in (3, -1):
        with pytest.raises(ValueError):
            vacuum_modes(Topology("single", 3), CouplingParams(), k)


def test_unfolded_modes_search_the_whole_grid():
    # detuned: no symmetric spectrum, so the exponentials are summed and
    # searched on the whole grid; the Rabi formula |lambda_0|^2 =
    # 1 - (4 lambda^2 / W^2) sin^2(W t / 2), W = sqrt(delta^2 + 4 lambda^2),
    # returns to 1 at 2 pi / W
    coupling = CouplingParams(detuning=0.3)
    m = vacuum_modes(Topology("single", 3), coupling, 1)
    assert not m.folded and len(m.w) == 2
    t = np.linspace(0.0, 12.0, 301)
    big_w = np.sqrt(0.3 ** 2 + 4)
    ref = np.sqrt(1.0 - 4.0 / big_w ** 2 * np.sin(big_w * t / 2) ** 2)
    assert np.max(np.abs(vacuum_lambda(m, t) - ref)) < 1e-12
    windows = opttime._windows(m, opttime._grid((0.0, 250.0)), 1e-4)
    assert np.array_equal(_expand(windows), np.arange(len(_grid())))
    r = solve_topt(m)
    assert r.method == "numeric"
    assert r.t_opt == pytest.approx(2 * np.pi / big_w, abs=1e-9)
    assert abs(oracle.vacuum_amplitude(Topology("single", 3), coupling, 1,
                                       r.t_opt) - 1.0) <= 1e-4


def _grid_peaks(mag):
    return np.nonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:]))[0]


def test_vacuum_lambda_cosines_match_exponentials():
    # the oracle sums the complex exponentials of the block's modes
    t = np.arange(0.0, 250.0 + 1e-3, 1e-3)
    for k in range(9):
        w, c = oracle.single_modes(k)
        ref = np.concatenate([np.abs(np.exp(-1j * np.outer(t[i:i + 8192], w))
                                     @ c) for i in range(0, len(t), 8192)])
        mag = vacuum_lambda(_modes(k), t)
        assert np.max(np.abs(mag - ref)) <= 1e-12
        if 3 <= k <= 6:
            assert np.array_equal(_grid_peaks(mag), _grid_peaks(ref))


def test_vacuum_lambda_in_place_cosines_are_bit_exact():
    # the folded path takes its cosines in place of the phases: the same
    # numbers as the two-temporary form, on a search piece's length
    t = np.random.default_rng(5).uniform(0.0, 250.0, _CHUNK + 2)
    for k in range(3, 9):
        m = vacuum_modes(Topology("single", 9), CouplingParams(), k)
        assert m.folded
        ref = np.abs(np.cos(np.outer(t, m.w)) @ m.c)
        assert np.array_equal(vacuum_lambda(m, t), ref)


def test_vacuum_residual_is_cancellation_free():
    # a sum of non-negative terms: never below 0, equal to 1 - |lambda_0|
    # wherever that difference does not cancel
    t = np.linspace(0.05, 60.0, 2001)
    for k in range(1, 7):
        res = vacuum_residual(_modes(k), t)
        assert np.all(res >= 0.0)
        far = res > 1e-3
        assert far.sum() > 1000
        assert np.max(np.abs(res[far] - (1.0 - vacuum_lambda(_modes(k), t[far])))) < 1e-12
    assert vacuum_residual(_modes(0), t).max() == 0.0
    assert float(vacuum_residual(_modes(1), np.pi)) < 1e-30


# full-precision optima of the search on [0, 250] at grid step 1e-3, as
# found by a bounded Brent minimisation of the residual (xatol 1e-12);
# k = 5 has no admissible optimum and lists its best one
FROZEN_OPTIMA = {3: (173.60264690654418, 2.2618112447505726e-06),
                 4: (129.77312750480198, 3.4469948865896715e-05),
                 5: (157.95200772167505, 8.752140308708051e-04),
                 6: (108.85278069340552, 2.6800162676392987e-05)}


@pytest.mark.parametrize("k", sorted(FROZEN_OPTIMA))
def test_newton_refinement_frozen_optima(k):
    t_ref, res_ref = FROZEN_OPTIMA[k]
    m = _modes(k)
    r = solve_topt(m)
    assert r.method == ("fallback" if k == 5 else "numeric")
    t_opt, res = r.t_opt, r.residual
    assert abs(t_opt - t_ref) <= 1e-8
    assert res == pytest.approx(res_ref, rel=1e-9, abs=0.0)
    assert res == float(vacuum_residual(m, t_opt))
    # a minimum of the residual, to well below the grid step
    assert res <= float(vacuum_residual(m, t_opt - 1e-7))
    assert res <= float(vacuum_residual(m, t_opt + 1e-7))
    # inside the bracket (t[p-1], t[p+1]) of its grid peak t[p]
    grid = np.arange(0.0, 250.0 + 1e-3, 1e-3)
    near = np.nonzero(np.abs(grid - t_opt) < 0.01)[0]
    p = near[np.argmax(vacuum_lambda(m, grid[near]))]
    assert grid[p - 1] < t_opt < grid[p + 1]


def test_local_optima_find_shallow_peaks():
    # the first deep near-revival for k=3 sits near t = 59.25
    opts = local_optima(_modes(3), window=(55.0, 62.0))
    t_best, res_best = min(opts, key=lambda c: c[1])
    assert t_best == pytest.approx(59.25, abs=0.05)
    assert res_best == pytest.approx(5.150e-4, rel=0.01)


def test_local_optima_window_validation():
    with pytest.raises(ValueError):
        local_optima(_modes(3), window=(5.0, 5.0))
    with pytest.raises(ValueError):
        local_optima(_modes(3), window=(-1.0, 5.0))


@pytest.mark.parametrize("window", [
    (0.0, np.inf), (np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan),
    (-1.0, 2.0), (3.0, 3.0)])
def test_bad_windows_are_rejected(window):
    # 0 <= lo < hi, both finite: an infinite window has no grid to walk;
    # the exact optima of k = 1, 2 check their window the same way
    for k in (1, 2, 3):
        for search in (solve_topt, local_optima):
            with pytest.raises(ValueError, match="bad search window"):
                search(_modes(k), window)


def test_analytic_times_read_the_window():
    # the first admissible m pi / w in the window: every multiple of pi
    # at k = 1 (w = 1, |g(m pi)| = 1), only even m at k = 2
    # (w = sqrt 3, |g(pi/w)| = 1/3), so 4 pi and 6 pi / sqrt 3 in (10, 20)
    r = solve_topt(_modes(1), (10.0, 20.0))
    assert r.t_opt == 4 * np.pi and r.method == "analytic"
    assert r.residual == float(vacuum_residual(_modes(1), r.t_opt))
    assert solve_topt(_modes(2), (10.0, 20.0)).t_opt == 6 * np.pi / np.sqrt(3)
    # a window that starts on an optimum holds it; one that ends before
    # the first admissible optimum holds none
    assert solve_topt(_modes(2), (ANALYTIC_TOPT[2], 5.0)).t_opt \
        == ANALYTIC_TOPT[2]
    for k, window in ((1, (0.0, 1.0)), (2, (1.0, 3.0)), (2, (3.7, 7.2))):
        with pytest.raises(SearchFailureError):
            solve_topt(_modes(k), window)


def test_hermite_structure_small_d():
    for d in range(2, 7):
        res = oracle.hermite_structure_check(d)
        assert res < 1e-6
    with pytest.raises(ValueError):
        oracle.hermite_structure_check(9)
    with pytest.raises(ValueError):
        oracle.hermite_structure_check(1)


def test_hermite_check_d5_tight():
    assert oracle.hermite_structure_check(5) < 1e-12


def test_hermite_check_raises_on_impossible_tolerance():
    with pytest.raises(oracle.CheckFailedError):
        oracle.hermite_structure_check(8, residual_tol=0.0)


def _unfolded_lambda(k, t):
    """|lambda_0| as the plain sum over all k+1 cosines, one per mode."""
    w, c = oracle.single_modes(k)
    return np.concatenate([np.abs(np.cos(np.outer(t[i:i + 8192], w)) @ c)
                           for i in range(0, len(t), 8192)])


def _grid(window=(0.0, 250.0)):
    return np.arange(window[0], window[1] + 1e-3, 1e-3)


def _expand(windows):
    """The grid indices in the index ranges [start, stop) of `_windows`."""
    return np.concatenate([np.arange(a, b) for a, b in zip(*windows)]
                          + [np.zeros(0, dtype=int)])


def _ranges(mask):
    """The runs of True in mask, as index ranges [start, stop)."""
    edges = np.diff(np.concatenate(([0], mask.astype(int), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


@lru_cache(maxsize=None)
def _one_pass_peaks(k, window=(0.0, 250.0)):
    """(p, t, residual) at every grid peak t[p] of the unfolded
    |lambda_0|, refined, all in one scan."""
    t = _grid(window)
    w, c = oracle.single_modes(k)
    mag = np.abs(np.cos(np.outer(t, w)) @ c)
    out = []
    for p in _grid_peaks(mag) + 1:
        x = _refine_optimum(_modes(k), t[p - 1], t[p + 1], t[p])
        out.append((int(p), x, float(vacuum_residual(_modes(k), x))))
    return tuple(out)


def _one_pass_optima(k, window=(0.0, 250.0)):
    """Refined grid peaks of the unfolded |lambda_0|, all in one scan."""
    return [(x, res) for _, x, res in _one_pass_peaks(k, window)]


def _in_windows(k, tau, window=(0.0, 250.0)):
    """The one-pass peaks that a walk at tau refines: grid peak and both
    its neighbours in tau's windows, and 1 - |lambda_0| at the grid peak
    at most tau' = tau + h sum_j c_j |w_j| + 1e-12."""
    t = _grid(window)
    inside = np.zeros(len(t), dtype=bool)
    inside[_expand(opttime._windows(_modes(k), opttime._grid(window),
                                    tau))] = True
    w, c = oracle.single_modes(k)
    tau_grid = tau + 1e-3 * float(c @ np.abs(w)) + 1e-12
    return [(p, x, res) for p, x, res in _one_pass_peaks(k, window)
            if inside[p - 1:p + 2].all()
            and 1.0 - _unfolded_lambda(k, t[p:p + 1])[0] <= tau_grid]


def _assert_same_optima(got, ref):
    assert len(got) == len(ref)
    for (t, res), (t_ref, res_ref) in zip(got, ref):
        assert abs(t - t_ref) <= 1e-12
        assert res == res_ref


def test_folded_cosines_keep_grid_peaks():
    t = np.arange(0.0, 250.0 + 1e-3, 1e-3)
    for k in range(3, 9):
        assert len(_modes(k).w) == (k + 2) // 2
        assert np.array_equal(_grid_peaks(vacuum_lambda(_modes(k), t)),
                              _grid_peaks(_unfolded_lambda(k, t)))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_local_optima_match_one_pass_scan(k):
    _assert_same_optima(local_optima(_modes(k)), _one_pass_optima(k))


def _border_windows():
    """The windows of `test_chunk_border_peak_found_once`: a grid peak
    is the last candidate of the first piece, or the first of the next."""
    first = _one_pass_optima(3, (10.0, 20.0))[0][0]
    return [(first - offset * 1e-3, first + 12.0)
            for offset in (_CHUNK - 1, _CHUNK)]


def test_chunk_border_peak_found_once(monkeypatch):
    # real chunks, a window placed so that a grid peak is the last
    # candidate of the first piece or the first of the second one
    first = _one_pass_optima(3, (10.0, 20.0))[0][0]
    for offset, window in zip((_CHUNK - 1, _CHUNK), _border_windows()):
        grid = _grid(window)
        assert offset in _grid_peaks(_unfolded_lambda(3, grid)) + 1
        assert np.argmin(np.abs(grid - first)) == offset
        got = local_optima(_modes(3), window)
        _assert_same_optima(got, _one_pass_optima(3, window))
        assert sum(abs(t - first) < 1e-3 for t, _ in got) == 1
    # tiny chunks put many peaks on chunk borders
    monkeypatch.setattr(opttime, "_CHUNK", 5)
    _assert_same_optima(local_optima(_modes(4), (0.0, 20.0)),
                        _one_pass_optima(4, (0.0, 20.0)))
    # and on the borders of pieces that span gaps between search windows
    grid = opttime._grid((0.0, 20.0))
    idx = _expand(opttime._windows(_modes(4), grid, 0.1))
    assert np.count_nonzero(np.diff(idx) > 1) >= 5
    ref = [(x, res) for _, x, res in _in_windows(4, 0.1, (0.0, 20.0))]
    assert len(ref) >= 3
    _assert_same_optima(list(opttime._walk_grid(_modes(4), grid, 0.1, {})), ref)


def test_implicit_grid_is_arange():
    # length, every point, and both insertion indices of the grid points,
    # their neighbouring doubles and random values, bit for bit
    rng = np.random.default_rng(0)
    for window in [(0.0, 250.0), (0.0, 20.0), (0.0, 30.0), (1.3, 77.7)
                   ] + _border_windows():
        ref = _grid(window)
        grid = opttime._grid(window)
        assert grid[2] == len(ref)
        assert np.array_equal(opttime._points(grid, np.arange(grid[2])), ref)
        x = np.concatenate([ref, np.nextafter(ref, -np.inf),
                            np.nextafter(ref, np.inf),
                            rng.uniform(window[0] - 1, window[1] + 1, 10000)])
        for side in ("left", "right"):
            assert np.array_equal(opttime._searchsorted(grid, x, side),
                                  np.searchsorted(ref, x, side))


def _traced_peak(search, modes, window=(0.0, 250.0)):
    """Peak bytes that tracemalloc sees while the search runs."""
    tracemalloc.start()
    try:
        search(modes, window)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_does_not_grow_with_the_grid():
    # a walk holds one piece of the grid, its windows' edges and the
    # peaks it refines, never the 250,001-point grid (2 MB) itself
    single = [vacuum_modes(Topology("single", 9), CouplingParams(), k)
              for k in range(3, 9)]
    detuned = vacuum_modes(Topology("single", 3), CouplingParams(detuning=0.3), 1)
    cases = [(m, (0.0, 250.0)) for m in single + [detuned]]
    cases += [(single[0], (0.0, 1000.0)), (single[4], (0.0, 1000.0))]
    assert solve_topt(single[2]).method == "fallback"
    for modes, window in cases:
        for search in (solve_topt, local_optima):
            assert _traced_peak(search, modes, window) <= 1.5 * 2 ** 20


def test_walk_tests_only_points_with_both_neighbours(monkeypatch):
    # a point next to a gap in the windows is no candidate: with the right
    # neighbour of every other grid peak left out, and no floor, only the
    # other peaks remain, tested as in one pass
    grid = opttime._grid((0.0, 30.0))
    for k in (3, 4):
        peaks = _one_pass_peaks(k, (0.0, 30.0))
        keep = np.ones(len(_grid((0.0, 30.0))), dtype=bool)
        keep[[p + 1 for p, _, _ in peaks[::2]]] = False
        monkeypatch.setattr(opttime, "_windows",
                            lambda modes, grid, tau: _ranges(keep))
        ref = [(x, res) for _, x, res in peaks[1::2]]
        assert ref
        _assert_same_optima(
            list(opttime._walk_grid(_modes(k), grid, np.inf, {})), ref)


@pytest.mark.parametrize("k", [3, 4])
def test_solve_topt_stops_at_first_admissible(k, monkeypatch):
    guesses = []

    def spy(modes, a, b, t):
        guesses.append(t)
        return _refine_optimum(modes, a, b, t)

    monkeypatch.setattr(opttime, "_refine_optimum", spy)
    r = solve_topt(_modes(k))
    t_ref, res_ref = FROZEN_OPTIMA[k]
    assert abs(r.t_opt - t_ref) <= 1e-8
    assert r.residual == pytest.approx(res_ref, rel=1e-9, abs=0.0)
    # only the peaks up to t_opt that a walk at the tolerance refines
    grid = _grid()
    refined = [(grid[p], x) for p, x, _ in _in_windows(k, 1e-4)
               if x <= r.t_opt]
    assert guesses == [g for g, _ in refined]
    assert refined[-1][1] == r.t_opt
    assert guesses[-1] < 0.7 * 250.0       # well short of the window end


@pytest.mark.parametrize("k", [5, 8])
def test_failing_search_refines_each_peak_once(k, monkeypatch):
    # the second walk takes the first walk's refined peaks as they are,
    # and the failure's best is still the one-pass best
    guesses = []

    def spy(modes, a, b, t):
        guesses.append(t)
        return _refine_optimum(modes, a, b, t)

    best = min(_one_pass_optima(k), key=lambda o: o[1])
    monkeypatch.setattr(opttime, "_refine_optimum", spy)
    r = solve_topt(_modes(k))
    assert guesses and len(set(guesses)) == len(guesses)
    assert r.method == "fallback" and (r.t_opt, r.residual) == best


@pytest.mark.parametrize("k", range(3, 9))
def test_windows_hold_every_peak_below_tau(k):
    grid = _grid()
    for tau in (1e-4, 1e-3, 1e-2):
        start, stop = opttime._windows(_modes(k), opttime._grid((0.0, 250.0)),
                                       tau)
        # non-empty, sorted, and merged wherever two windows would touch
        assert np.all(start < stop) and np.all(stop[:-1] < start[1:])
        idx = _expand((start, stop))
        assert np.all(np.diff(idx) > 0)
        assert len(idx) < len(grid) // 4
        inside = np.zeros(len(grid), dtype=bool)
        inside[idx] = True
        below = [p for p, _, res in _one_pass_peaks(k) if res <= tau]
        assert all(inside[p - 1:p + 2].all() for p in below)
        assert {p for p, _, _ in _in_windows(k, tau)} >= set(below)
    assert below                           # tau = 1e-2 holds some peak
    # tau = inf, the walk of local_optima: the whole grid
    windows = opttime._windows(_modes(k), opttime._grid((0.0, 250.0)), np.inf)
    assert np.array_equal(_expand(windows), np.arange(len(grid)))


@pytest.mark.parametrize("k", range(3, 9))
def test_solve_topt_matches_one_pass_scan(k):
    opts = _one_pass_optima(k)
    admissible = [o for o in opts if o[1] <= opttime._RESIDUAL_TOL]
    r = solve_topt(_modes(k))
    if admissible:
        assert r.method == "numeric"
        assert (r.t_opt, r.residual) == admissible[0]
    else:
        assert r.method == "fallback"
        assert (r.t_opt, r.residual) == min(opts, key=lambda o: o[1])


def test_search_without_a_peak_fails(monkeypatch):
    # k = 0: |lambda_0| = 1 everywhere and no mode with w > 0, so every
    # window is the whole grid; k = 3 on (1.0, 1.5): no grid peak, and the
    # second walk, after a first that saw no peak, covers the whole grid
    walks = []

    def spy(modes, grid, tau):
        ranges = windows(modes, grid, tau)
        walks.append(np.array_equal(_expand(ranges), np.arange(grid[2])))
        return ranges

    windows = opttime._windows
    monkeypatch.setattr(opttime, "_windows", spy)
    for k, window in ((0, (0.0, 10.0)), (3, (1.0, 1.5))):
        walks.clear()
        with pytest.raises(SearchFailureError, match="no local optimum"):
            solve_topt(_modes(k), window)
        assert walks[-1] and walks[0] == (k == 0) and len(walks) == 2


def test_cached_modes_are_read_only():
    # one instance per block, shared by every caller
    first = _modes(4)
    assert vacuum_modes(Topology("single", 6), CouplingParams(), 4) is first
    for a in (first.w, first.c, first.dw, first.cc):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
