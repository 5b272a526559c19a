import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from qcool import protocol, states
from qcool.errors import TruncationError
from qcool.hamiltonians import Topology
from qcool.hilbert import expm_hermitian, lowering
from qcool.protocol import (ProtocolConfig, ReportRule, max_coolable_nbar,
                            run_protocol, sweep_energy)
from qcool.states import (DSTParams, depolarized_qudit, displacement_op,
                          displaced_squeezed_thermal, dst_mean_energy,
                          dst_populations, squeezing_op)

import oracle
from conftest import C00_NETWORK, C00_TABLE, NETWORK_STATE, TABLE_STATE


def _quad_vars(rho):
    n = rho.shape[0]
    a = np.zeros((n, n), dtype=complex)
    a[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    x = (a + a.conj().T) / np.sqrt(2)
    p = -1j * (a - a.conj().T) / np.sqrt(2)
    vx = np.real(np.trace(rho @ x @ x) - np.trace(rho @ x) ** 2)
    vp = np.real(np.trace(rho @ p @ p) - np.trace(rho @ p) ** 2)
    return vx, vp


def test_squeezing_orientation():
    # real positive z squeezes x: Var(x) = e^{-2r}/2, Var(p) = e^{2r}/2
    r = 0.2
    s = squeezing_op(r, 40)
    psi = s[:, 0]
    rho = np.outer(psi, psi.conj())
    vx, vp = _quad_vars(rho)
    assert vx == pytest.approx(np.exp(-2 * r) / 2, abs=1e-10)
    assert vp == pytest.approx(np.exp(2 * r) / 2, abs=1e-10)


def test_displacement_and_squeezing_unitary():
    for u in (displacement_op(0.7 + 0.3j, 25), squeezing_op(0.3 * np.exp(0.5j), 25)):
        assert np.max(np.abs(u @ u.conj().T - np.eye(25))) < 1e-12


def test_thermal_state_normalized_geometric():
    rho = oracle.thermal_state(0.4, 60)
    d = np.real(np.diag(rho))
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    # geometric ratio nbar/(1+nbar)
    assert np.allclose(d[1:20] / d[:19], 0.4 / 1.4, atol=1e-12)
    vac = oracle.thermal_state(0.0, 10)
    assert vac[0, 0] == 1.0 and np.trace(vac) == 1.0


def test_dst_vacuum_overlap_frozen():
    rho = displaced_squeezed_thermal(TABLE_STATE, 50)
    assert np.real(rho[0, 0]) == pytest.approx(C00_TABLE, abs=1e-9)
    rho = displaced_squeezed_thermal(NETWORK_STATE, 50)
    assert np.real(rho[0, 0]) == pytest.approx(C00_NETWORK, abs=1e-9)
    # same magnitudes displaced along the anti-squeezed axis instead
    rot = DSTParams(0.5, np.pi / 2, 0.2, nbar=0.5)
    rho = displaced_squeezed_thermal(rot, 50)
    assert np.real(rho[0, 0]) == pytest.approx(0.5777134716, abs=1e-9)


def test_dst_mean_energy_closed_form():
    for p, ref in ((TABLE_STATE, 0.57806008), (NETWORK_STATE, 0.83107237)):
        assert dst_mean_energy(p) == pytest.approx(ref, abs=1e-7)
        rho = displaced_squeezed_thermal(p, 60)
        assert oracle.mean_energy(rho) == pytest.approx(dst_mean_energy(p), abs=1e-8)


def test_dst_is_valid_density_matrix():
    rho = displaced_squeezed_thermal(NETWORK_STATE, 40)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_dst_truncation_guard():
    with pytest.raises(TruncationError) as err:
        displaced_squeezed_thermal(DSTParams(alpha_mag=2.5), 4)
    assert err.value.leakage > 1e-6


def test_dst_rejects_negative_params():
    # each message names its field
    for name, value in (("alpha_mag", -0.1), ("r", -0.2), ("nbar", -1.0)):
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= 0, got {value}$"):
            DSTParams(**{name: value})


@pytest.mark.parametrize("name", ["alpha_mag", "alpha_phase", "r", "theta",
                                  "nbar"])
@pytest.mark.parametrize("value", [True, np.True_, "1", None, 1j,
                                   float("nan"), float("inf")])
def test_dst_fields_must_be_finite_reals(name, value):
    # a bool only compares like a number; a string or None is no number
    with pytest.raises(ValueError, match=f"^{name} must be a finite real "
                                         f"number, got "):
        DSTParams(**{name: value})


def test_dst_accepts_numpy_reals():
    assert DSTParams(np.float64(0.5), nbar=np.int64(1)) == \
        DSTParams(0.5, nbar=1.0)


def test_depolarized_qudit():
    rho = depolarized_qudit(4)
    assert np.real(rho[0, 0]) == pytest.approx(0.5 + 1 / 8)
    assert np.allclose(np.diag(rho)[1:], 1 / 8)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        depolarized_qudit(1)


# ------------------------------------ closed-form states vs D S rho S^dag D^dag

@pytest.mark.parametrize("p,cutoff", [
    (DSTParams(0.4, 1.3, 0.1, 0.8, nbar=0.0), 40),
    (DSTParams(0.5, -0.7, 0.2, 2.1, nbar=0.5), 40),
    (DSTParams(0.4, np.pi / 2, 0.1, nbar=6.0), 300)],
    ids=["nbar0", "phases", "cutoff300"])
def test_dst_matches_direct_product(p, cutoff):
    build = cutoff + 30
    u = displacement_op(p.alpha, build) @ squeezing_op(p.z, build)
    ref = (u @ oracle.thermal_state(p.nbar, build) @ u.conj().T)[:cutoff, :cutoff]
    ref = 0.5 * (ref + ref.conj().T)
    ref /= np.real(np.trace(ref))
    rho = displaced_squeezed_thermal(p, cutoff)
    assert np.max(np.abs(rho - ref)) <= 1e-14


def _called_from_states():
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_globals.get("__name__") == states.__name__:
            return True
        frame = frame.f_back
    return False


@pytest.mark.parametrize("nbar_scan", [
    lambda cfg: sweep_energy(cfg, list(np.linspace(0.1, 2.0, 12))),
    lambda cfg: max_coolable_nbar(cfg, nbar_hi=2.0, iters=6)],
    ids=["sweep-energy-12", "bisection"])
def test_unitary_built_once_per_nbar_scan(nbar_scan, monkeypatch):
    # the closed-form states take no matrix exponential and no eigh
    real_expm, real_eigh = states.expm_hermitian, np.linalg.eigh
    builds, eighs = [], []

    def spy_expm(h, *args, **kw):
        builds.append(h.shape)
        return real_expm(h, *args, **kw)

    def spy_eigh(h, *args, **kw):
        if _called_from_states():
            eighs.append(h.shape)
        return real_eigh(h, *args, **kw)

    monkeypatch.setattr(states, "expm_hermitian", spy_expm)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    nbar_scan(ProtocolConfig(Topology("single", 4), TABLE_STATE, cutoff=60,
                             n_max=20))
    assert builds == [] and eighs == []


def test_leak_guard_with_warm_cache():
    cold = DSTParams(alpha_mag=0.4, r=0.1, nbar=0.2)
    displaced_squeezed_thermal(cold, 20)
    with pytest.raises(TruncationError) as err:
        displaced_squeezed_thermal(replace(cold, nbar=5.0), 20)
    assert err.value.leakage > 1e-6


# ------------------------------- phase-gauged D, S and the populations

PHASES = [0.0, np.pi / 2, 1.3, -2.2, np.pi]


@pytest.mark.parametrize("dim", [25, 90, 330])
@pytest.mark.parametrize("phase", PHASES)
def test_gauged_ops_match_complex_generators(dim, phase):
    # the oracle exponentiates the complex anti-Hermitian generators
    a = lowering(dim)
    ad = a.conj().T
    for mag in (0.3, 1.1):
        alpha = mag * np.exp(1j * phase)
        ref = expm_hermitian(-1j * (alpha * ad - np.conj(alpha) * a), -1.0)
        assert np.max(np.abs(displacement_op(alpha, dim) - ref)) <= 1e-12
    for r in (0.1, 0.5):
        z = r * np.exp(1j * phase)
        ref = expm_hermitian(-1j * 0.5 * (np.conj(z) * (a @ a) - z * (ad @ ad)),
                             -1.0)
        assert np.max(np.abs(squeezing_op(z, dim) - ref)) <= 1e-12


@pytest.mark.parametrize("p,cutoff", [
    (DSTParams(0.4, 1.3, 0.1, 0.8, nbar=0.0), 40),
    (DSTParams(0.5, -0.7, 0.2, 2.1, nbar=0.5), 40),
    (DSTParams(0.5, np.pi / 2, 0.2, np.pi / 2, nbar=0.3), 40),
    (DSTParams(0.4, np.pi / 2, 0.1, nbar=6.0), 300)],
    ids=["nbar0", "phases", "right-angles", "cutoff300"])
def test_dst_populations_match_density_diagonal(p, cutoff):
    ref = np.real(np.diag(displaced_squeezed_thermal(p, cutoff)))
    pops = dst_populations(p, cutoff)
    assert pops.shape == (cutoff,)
    assert np.max(np.abs(pops - ref)) <= 1e-14


@pytest.mark.parametrize("p,cutoff", [
    (DSTParams(alpha_mag=2.5), 4),
    (DSTParams(alpha_mag=0.4, r=0.1, nbar=5.0), 20),
    (DSTParams(nbar=50.0), 300)],
    ids=["displaced", "warm", "grid-doubles"])
def test_dst_populations_leak_guard(p, cutoff):
    with pytest.raises(TruncationError) as full:
        displaced_squeezed_thermal(p, cutoff)
    with pytest.raises(TruncationError) as pops:
        dst_populations(p, cutoff)
    assert str(pops.value) == str(full.value)
    assert pops.value.leakage == pytest.approx(full.value.leakage, abs=1e-14)


def test_fft_grid_doubles_until_unaliased(monkeypatch):
    # nbar 50 keeps (50/51)^1024 ~ 2e-9 in [1024, 2048), the upper half of
    # the first grid, and (50/51)^2048 ~ 3e-18 in that of the second
    real, sizes = np.fft.irfft, []

    def spy(g, n, *args, **kw):
        sizes.append(n)
        return real(g, n, *args, **kw)

    monkeypatch.setattr(np.fft, "irfft", spy)
    with pytest.raises(TruncationError) as err:
        dst_populations(DSTParams(nbar=50.0), 300)
    assert sizes == [2048, 4096]
    assert err.value.leakage == pytest.approx((50 / 51) ** 300, rel=1e-12)


def test_fft_grid_is_capped(monkeypatch):
    # a far too hot state stops the doubling at the cap and still fails
    real, sizes = np.fft.irfft, []

    def spy(g, n, *args, **kw):
        sizes.append(n)
        return real(g, n, *args, **kw)

    monkeypatch.setattr(np.fft, "irfft", spy)
    with pytest.raises(TruncationError) as err:
        dst_populations(DSTParams(nbar=1e7), 4)
    assert max(sizes) == states._FFT_MAX
    assert err.value.leakage > 0.99


def test_fft_populations_match_recursion_diagonal():
    # seeded states of the energy-sweep box at the sweeps' cutoff
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(40):
        p = DSTParams(rng.uniform(0, 0.6), rng.uniform(-np.pi, np.pi),
                      rng.uniform(0, 0.3), rng.uniform(-np.pi, np.pi),
                      rng.uniform(0, 12))
        ref = np.real(np.diag(displaced_squeezed_thermal(p, 300)))
        worst = max(worst, np.max(np.abs(dst_populations(p, 300) - ref)))
    assert worst <= 1e-14


@pytest.mark.parametrize("p,cutoff,leak", [
    (DSTParams(nbar=5.0), 20, (5 / 6) ** 20),
    (DSTParams(nbar=0.4), 8, (0.4 / 1.4) ** 8),
    (DSTParams(alpha_mag=2.0, alpha_phase=0.9), 6,
     1 - math.exp(-4.0) * sum(4.0 ** n / math.factorial(n) for n in range(6)))],
    ids=["thermal", "thermal-cold", "coherent"])
def test_leakage_is_the_analytic_tail(p, cutoff, leak):
    for build in (dst_populations, displaced_squeezed_thermal):
        with pytest.raises(TruncationError) as err:
            build(p, cutoff)
        assert err.value.leakage == pytest.approx(leak, rel=1e-12)


def _trace_values(trace):
    return (list(trace.fidelity), list(trace.probability),
            ReportRule().converged(trace.fidelity))


def test_population_paths_build_no_density_matrix(monkeypatch):
    # single and star bright-mode runs read populations only
    star = ProtocolConfig(Topology("star", 3, modes=3), DSTParams(
        alpha_mag=0.1, alpha_phase=0.7, r=0.03, theta=1.1, nbar=0.03),
        cutoff=20, n_max=30)
    single = ProtocolConfig(Topology("single", 4), TABLE_STATE, cutoff=60,
                            n_max=20)
    runs = [
        lambda: sweep_energy(single, [0.1, 0.7, 2.0]),
        lambda: max_coolable_nbar(single, nbar_hi=2.0, iters=4),
        lambda: _trace_values(run_protocol(star))]
    before = [run() for run in runs]

    def refuse(*args, **kw):
        raise AssertionError("density matrix built")

    monkeypatch.setattr(protocol, "displaced_squeezed_thermal", refuse)
    for run, ref in zip(runs, before):
        assert run() == ref


def test_max_coolable_nbar_warns_at_upper_bound():
    # nbar = 0.3 cools, so the bisection has no upper bracket
    cfg = ProtocolConfig(Topology("single", 4), TABLE_STATE, cutoff=60,
                         n_max=60)
    with pytest.warns(RuntimeWarning, match=r"at or above nbar_hi = 0\.3"):
        assert max_coolable_nbar(cfg, nbar_hi=0.3, iters=4) == 0.3
