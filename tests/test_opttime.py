import numpy as np
import pytest

from qcool import opttime
from qcool.errors import SearchFailureError
from qcool.opttime import (ANALYTIC_TOPT, _CHUNK, _refine_optimum,
                           _vacuum_modes, analytic_topt, local_optima,
                           solve_topt, vacuum_lambda, vacuum_residual)

import oracle


def test_analytic_times():
    assert ANALYTIC_TOPT[0] == pytest.approx(np.pi / 2)
    assert ANALYTIC_TOPT[1] == pytest.approx(np.pi)
    assert ANALYTIC_TOPT[2] == pytest.approx(2 * np.pi / np.sqrt(3))
    for k in range(3):
        r = analytic_topt(k)
        assert r.method == "analytic"
        assert abs(r.residual) < 1e-12
    with pytest.raises(ValueError):
        analytic_topt(3)


def test_vacuum_lambda_closed_forms():
    t = np.linspace(0.0, 12.0, 301)
    # k = 0: nothing to exchange, amplitude is 1 at all times
    assert np.max(np.abs(vacuum_lambda(2, 0, t) - 1.0)) < 1e-14
    # k = 1: two-level exchange, |cos t|
    assert np.max(np.abs(vacuum_lambda(3, 1, t) - np.abs(np.cos(t)))) < 1e-12
    # k = 2: 2/3 + cos(sqrt(3) t)/3
    ref = np.abs(2.0 / 3.0 + np.cos(np.sqrt(3) * t) / 3.0)
    assert np.max(np.abs(vacuum_lambda(3, 2, t) - ref)) < 1e-12


def _grid_peaks(mag):
    return np.nonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:]))[0]


def test_vacuum_lambda_cosines_match_exponentials():
    # the oracle sums the complex exponentials of the block's modes
    t = np.arange(0.0, 250.0 + 1e-3, 1e-3)
    for k in range(9):
        w, c = _vacuum_modes(k)
        ref = np.concatenate([np.abs(np.exp(-1j * np.outer(t[i:i + 8192], w))
                                     @ c) for i in range(0, len(t), 8192)])
        mag = vacuum_lambda(k + 1, k, t)
        assert np.max(np.abs(mag - ref)) <= 1e-12
        if 3 <= k <= 6:
            assert np.array_equal(_grid_peaks(mag), _grid_peaks(ref))


def test_vacuum_residual_is_cancellation_free():
    # a sum of non-negative terms: never below 0, equal to 1 - |lambda_0|
    # wherever that difference does not cancel
    t = np.linspace(0.05, 60.0, 2001)
    for k in range(1, 7):
        res = vacuum_residual(k, t)
        assert np.all(res >= 0.0)
        far = res > 1e-3
        assert far.sum() > 1000
        assert np.max(np.abs(res[far] - (1.0 - vacuum_lambda(k + 1, k, t[far])))) < 1e-12
    assert vacuum_residual(0, t).max() == 0.0
    assert float(vacuum_residual(1, np.pi)) < 1e-30


def test_vacuum_lambda_range_check():
    with pytest.raises(ValueError):
        vacuum_lambda(3, 3, 1.0)
    with pytest.raises(ValueError):
        vacuum_lambda(3, -1, 1.0)


def test_solve_topt_frozen_numeric():
    cases = {3: (173.6026, 1e-5), 4: (129.7731, 1e-4), 6: (108.8528, 1e-4)}
    for k, (t_ref, res_cap) in cases.items():
        r = solve_topt(7, k)
        assert r.method == "numeric"
        assert r.t_opt == pytest.approx(t_ref, abs=5e-4)
        assert r.residual <= res_cap


def test_solve_topt_k5_fails_with_best():
    with pytest.raises(SearchFailureError) as err:
        solve_topt(7, 5)
    assert err.value.best_t == pytest.approx(157.9520, abs=5e-4)
    assert err.value.best_residual == pytest.approx(8.75e-4, rel=0.01)


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
    if k == 5:
        with pytest.raises(SearchFailureError) as err:
            solve_topt(7, k)
        t_opt, res = err.value.best_t, err.value.best_residual
    else:
        r = solve_topt(7, k)
        t_opt, res = r.t_opt, r.residual
    assert abs(t_opt - t_ref) <= 1e-8
    assert res == pytest.approx(res_ref, rel=1e-9, abs=0.0)
    assert res == float(vacuum_residual(k, t_opt))
    # a minimum of the residual, to well below the grid step
    assert res <= float(vacuum_residual(k, t_opt - 1e-7))
    assert res <= float(vacuum_residual(k, t_opt + 1e-7))
    # inside the bracket (t[p-1], t[p+1]) of its grid peak t[p]
    grid = np.arange(0.0, 250.0 + 1e-3, 1e-3)
    near = np.nonzero(np.abs(grid - t_opt) < 0.01)[0]
    p = near[np.argmax(vacuum_lambda(7, k, grid[near]))]
    assert grid[p - 1] < t_opt < grid[p + 1]


def test_local_optima_find_shallow_peaks():
    # the first deep near-revival for k=3 sits near t = 59.25
    opts = local_optima(7, 3, window=(55.0, 62.0))
    t_best, res_best = min(opts, key=lambda c: c[1])
    assert t_best == pytest.approx(59.25, abs=0.05)
    assert res_best == pytest.approx(5.150e-4, rel=0.01)


def test_local_optima_window_validation():
    with pytest.raises(ValueError):
        local_optima(7, 3, window=(5.0, 5.0))
    with pytest.raises(ValueError):
        local_optima(7, 3, window=(-1.0, 5.0))


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
    w, c = _vacuum_modes(k)
    return np.concatenate([np.abs(np.cos(np.outer(t[i:i + 8192], w)) @ c)
                           for i in range(0, len(t), 8192)])


def _one_pass_optima(k, window=(0.0, 250.0), step=1e-3):
    """Refined grid peaks of the unfolded |lambda_0|, all in one scan."""
    t = np.arange(window[0], window[1] + step, step)
    w, c = _vacuum_modes(k)
    mag = np.abs(np.cos(np.outer(t, w)) @ c)
    out = []
    for p in _grid_peaks(mag) + 1:
        x = _refine_optimum(k, t[p - 1], t[p + 1], t[p])
        out.append((x, float(vacuum_residual(k, x))))
    return out


def _assert_same_optima(got, ref):
    assert len(got) == len(ref)
    for (t, res), (t_ref, res_ref) in zip(got, ref):
        assert abs(t - t_ref) <= 1e-12
        assert res == res_ref


def test_folded_cosines_keep_grid_peaks():
    t = np.arange(0.0, 250.0 + 1e-3, 1e-3)
    for k in range(3, 9):
        assert len(opttime._folded_modes(k)[0]) == (k + 2) // 2
        assert np.array_equal(_grid_peaks(vacuum_lambda(k + 1, k, t)),
                              _grid_peaks(_unfolded_lambda(k, t)))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_local_optima_match_one_pass_scan(k):
    _assert_same_optima(local_optima(7, k), _one_pass_optima(k))


def test_chunk_border_peak_found_once(monkeypatch):
    # real chunks, a window placed so that a grid peak is the last
    # candidate of the first piece or the first of the second one
    first = _one_pass_optima(3, (10.0, 20.0))[0][0]
    for offset in (_CHUNK - 1, _CHUNK):
        window = (first - offset * 1e-3, first + 12.0)
        grid = np.arange(window[0], window[1] + 1e-3, 1e-3)
        assert offset in _grid_peaks(_unfolded_lambda(3, grid)) + 1
        assert np.argmin(np.abs(grid - first)) == offset
        got = local_optima(7, 3, window)
        _assert_same_optima(got, _one_pass_optima(3, window))
        assert sum(abs(t - first) < 1e-3 for t, _ in got) == 1
    # tiny chunks put many peaks on chunk borders
    monkeypatch.setattr(opttime, "_CHUNK", 5)
    _assert_same_optima(local_optima(7, 4, (0.0, 20.0)),
                        _one_pass_optima(4, (0.0, 20.0)))


@pytest.mark.parametrize("k", [3, 4])
def test_solve_topt_stops_at_first_admissible(k, monkeypatch):
    guesses = []

    def spy(kk, a, b, t):
        guesses.append(t)
        return _refine_optimum(kk, a, b, t)

    monkeypatch.setattr(opttime, "_refine_optimum", spy)
    r = solve_topt(5, k)
    t_ref, res_ref = FROZEN_OPTIMA[k]
    assert abs(r.t_opt - t_ref) <= 1e-8
    assert r.residual == pytest.approx(res_ref, rel=1e-9, abs=0.0)
    refined = [t for t, _ in _one_pass_optima(k) if t <= r.t_opt]
    assert len(guesses) == len(refined)
    assert refined[-1] == r.t_opt
    assert guesses[-1] < 0.7 * 250.0       # well short of the window end


def test_failed_search_reports_the_one_pass_best():
    with pytest.raises(SearchFailureError) as err:
        solve_topt(7, 5)
    best_t, best_res = min(_one_pass_optima(5), key=lambda c: c[1])
    assert err.value.best_t == best_t
    assert err.value.best_residual == best_res


def test_cached_modes_are_read_only():
    # each cache hands the same arrays to every caller
    for fn in (opttime._vacuum_modes, opttime._folded_modes,
               opttime._mode_pairs):
        first = fn(4)
        assert all(a is b for a, b in zip(first, fn(4)))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    dw, cc = opttime._mode_pairs(3)
    w, c = opttime._vacuum_modes(3)
    assert np.array_equal(dw, (w[:, None] - w[None, :]).ravel())
    assert np.array_equal(cc, (c[:, None] * c[None, :]).ravel())
