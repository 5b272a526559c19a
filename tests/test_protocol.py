from dataclasses import replace

import numpy as np
import pytest

from qcool import opttime, protocol
from qcool.errors import ConfigError
from qcool.errors import TruncationError
from qcool.hamiltonians import CouplingParams, Topology
from qcool.hilbert import ladder_block
from qcool.protocol import (EnergyRecord, ProtocolConfig, ProtocolTrace,
                            default_cycle_time, effective_lambdas,
                            max_coolable_nbar, n_cooled, n_settled,
                            report_cycles, run_protocol, sweep_dimension,
                            sweep_energy)
from qcool.states import DSTParams, displaced_squeezed_thermal, \
    dst_mean_energy, dst_populations

import oracle
from conftest import C00_TABLE, NETWORK_STATE, STAR_STATE, TABLE_STATE


def _single_cfg(d, k, **kw):
    return ProtocolConfig(Topology("single", d), TABLE_STATE,
                          regulator_level=k, **kw)


def test_evolution_is_unitary():
    sp, h = oracle.hamiltonian(Topology("single", 3), CouplingParams(), 6)
    u = oracle.evolve(h, 1.3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(18))) < 1e-12


def test_evolve_rejects_non_hermitian():
    with pytest.raises(ValueError):
        oracle.evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_effective_operator_is_diagonal_for_single_oscillator():
    sp, h = oracle.hamiltonian(Topology("single", 3), CouplingParams(), 12)
    v = oracle.compress(oracle.evolve(h, np.pi / 2), 0, sp)
    off = v - np.diag(np.diag(v))
    assert np.max(np.abs(off)) < 1e-12
    # interior entries match the cutoff-free lambdas (edge rows feel truncation)
    lams = effective_lambdas(3, 0, np.pi / 2, 12)
    assert np.max(np.abs(np.diag(v)[:9] - lams[:9])) < 1e-12
    # a contraction, block-diagonal in the system excitation
    assert np.linalg.norm(v, 2) <= 1.0 + 1e-9
    assert oracle.offblock(v, (12,)) <= 1e-10


@pytest.mark.parametrize("d,k,count,coupling", [
    (2, 0, 50, ()), (4, 0, 3, ()), (4, 2, 1, ()), (6, 2, 300, ()),
    (5, 4, 40, ()), (6, 1, 60, (1.3, 1.2, 0.9))],
    ids=["qubit", "head-only", "k-single", "cutoff300", "k-top", "detuned"])
def test_effective_lambdas_match_block_loop(d, k, count, coupling):
    # one ladder block per Fock level, as the stacked blocks must give
    lam, omega_a, omega_f = coupling or (1.0, 1.0, 1.0)
    t = 2.1
    ref = np.empty(count, dtype=complex)
    for i in range(count):
        e = i + k
        w, v = ladder_block(e, d, lam, omega_a - omega_f)
        ref[i] = np.exp(-1j * e * omega_f * t) * (v[k] * np.exp(-1j * w * t) @ v[k])
    got = effective_lambdas(d, k, t, count, *coupling)
    assert got.shape == (count,)
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_effective_lambdas_vacuum_entry():
    # |lambda_0| = 1 at the optimal times, for every d and k <= 2
    for d, k, t in ((2, 0, np.pi / 2), (4, 1, np.pi), (5, 2, 2 * np.pi / np.sqrt(3))):
        lam = effective_lambdas(d, k, t, 1)[0]
        assert abs(abs(lam) - 1.0) < 1e-12


def test_trace_matches_dense_joint_iteration():
    # fast path against an explicit <0|U|0> iteration on the joint space
    cutoff, d, k = 25, 3, 0
    sp, h = oracle.hamiltonian(Topology("single", d), CouplingParams(), cutoff)
    v = oracle.compress(oracle.evolve(h, np.pi / 2), k, sp)
    rho = displaced_squeezed_thermal(TABLE_STATE, cutoff)
    cfg = _single_cfg(d, k, cycle_time=np.pi / 2, n_max=8, cutoff=cutoff)
    tr = run_protocol(cfg)
    cur = rho.copy()
    for n in range(9):
        pn = float(np.real(np.trace(cur)))
        fn = float(np.real(cur[0, 0])) / pn
        assert tr.probability[n] == pytest.approx(pn, abs=1e-10)
        assert tr.fidelity[n] == pytest.approx(fn, abs=1e-10)
        cur = v @ cur @ v.conj().T


def test_fidelity_probability_product_constant_at_topt():
    # F_n P_n equals the initial vacuum weight whenever |lambda_0(t)| = 1
    for d, k in ((4, 0), (4, 1), (5, 2)):
        tr = run_protocol(_single_cfg(d, k, n_max=40))
        fp = tr.fidelity * tr.probability
        assert np.max(np.abs(fp - C00_TABLE)) < 1e-9


def test_probability_non_increasing():
    tr = run_protocol(_single_cfg(5, 1, n_max=60))
    assert np.all(np.diff(tr.probability) <= 1e-12)
    assert tr.probability[0] == pytest.approx(1.0, abs=1e-12)


def test_single_frozen_cells():
    # regression values, stated to six decimals
    tr = run_protocol(_single_cfg(3, 0))
    n = n_cooled(tr.fidelity)
    assert n == 61
    assert tr.fidelity[n] == pytest.approx(0.999799, abs=1e-6)
    assert tr.probability[n] == pytest.approx(0.643455, abs=1e-6)
    tr = run_protocol(_single_cfg(2, 0))
    assert tr.fidelity[100] == pytest.approx(0.981038, abs=1e-6)
    assert tr.probability[100] == pytest.approx(0.655760, abs=1e-6)
    tr = run_protocol(_single_cfg(4, 1))
    n = n_cooled(tr.fidelity)
    assert n == 21
    assert tr.fidelity[n] == pytest.approx(0.999788, abs=1e-6)


def test_default_cycle_times():
    assert default_cycle_time(Topology("single", 4), 0) == pytest.approx(np.pi / 2)
    assert default_cycle_time(Topology("single", 4), 1) == pytest.approx(np.pi)
    assert default_cycle_time(Topology("single", 4), 2) == pytest.approx(2 * np.pi / np.sqrt(3))
    # k = 5 has no admissible optimum; the best-found time is used instead
    with pytest.warns(RuntimeWarning):
        t = default_cycle_time(Topology("single", 7), 5)
    assert t == pytest.approx(157.952, abs=1e-3)
    assert default_cycle_time(Topology("hybrid", 3), 0) == pytest.approx(np.pi / np.sqrt(2))
    assert default_cycle_time(Topology("hybrid", 3), 1) == pytest.approx(np.sqrt(2) * np.pi)
    # a star's regulator sees the bright mode at lambda sqrt(M)
    for m in range(2, 7):
        for k in range(3):
            assert default_cycle_time(Topology("star", 4, modes=m), k) \
                == pytest.approx(opttime.ANALYTIC_TOPT[k] / np.sqrt(m),
                                 rel=0, abs=1e-12)


def test_default_cycle_time_reads_the_closed_form(monkeypatch):
    # k <= 2 is the tabulated optimum itself: no residual is evaluated
    def refuse(*args):
        raise AssertionError("residual evaluated")

    monkeypatch.setattr(opttime, "analytic_topt", refuse)
    monkeypatch.setattr(opttime, "vacuum_residual", refuse)
    for k in range(3):
        assert default_cycle_time(Topology("single", 4), k) \
            == opttime.ANALYTIC_TOPT[k]


def test_inadmissible_default_time_warns():
    with pytest.warns(RuntimeWarning, match=r"d=7, k=5.*t=157\.95"):
        t = default_cycle_time(Topology("single", 7), 5)
    assert t == pytest.approx(157.952, abs=1e-3)


def test_config_validation():
    with pytest.raises(ConfigError):
        run_protocol(_single_cfg(3, 3))
    with pytest.raises(ConfigError):
        run_protocol(_single_cfg(3, 0, n_max=0))
    cfg = ProtocolConfig(Topology("hybrid", 4), TABLE_STATE, regulator_level=2)
    with pytest.raises(ConfigError):
        cfg.validate()
    # explicit cycle time lifts the hybrid k >= 2 restriction
    cfg2 = ProtocolConfig(Topology("hybrid", 4), TABLE_STATE, regulator_level=2,
                          cycle_time=1.0)
    cfg2.validate()



@pytest.mark.parametrize("field,bad", [
    ("n_max", 10.5), ("n_max", True), ("cutoff", 30.0), ("cutoff", True),
    ("e_max", 8.0), ("e_max", False), ("regulator_level", 0.5),
    ("regulator_level", np.True_)])
def test_integer_fields_rejected(field, bad):
    # a float or a bool is no count, even where it compares like one
    kw = dict(regulator_level=0, n_max=10, cutoff=30)
    kw[field] = bad
    cfg = ProtocolConfig(Topology("single", 3), TABLE_STATE, **kw)
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        run_protocol(cfg)


@pytest.mark.parametrize("topo", [Topology("single", 3),
                                  Topology("linear", 3, modes=2)],
                         ids=["single", "linear"])
def test_numpy_integer_fields_accepted(topo):
    def run(cast):
        return run_protocol(ProtocolConfig(
            topo, DSTParams(alpha_mag=0.2, alpha_phase=0.3, r=0.05, nbar=0.05),
            regulator_level=cast(1), cycle_time=2.1, n_max=cast(10),
            cutoff=cast(20), e_max=cast(10)))

    assert np.array_equal(run(np.int64).fidelity, run(int).fidelity)
    assert np.array_equal(run(np.int32).probability, run(int).probability)

def test_converged_at_semantics():
    tr = run_protocol(_single_cfg(6, 0, convergence_tol=1e-4))
    c = tr.converged_at
    assert c is not None
    f = tr.fidelity
    assert f[c] >= 0.999 and abs(f[c] - f[c - 1]) < 1e-4
    assert all(not (abs(f[n] - f[n - 1]) < 1e-4 and f[n] >= 0.999)
               for n in range(1, c))


def test_qubit_asymptotic_limits():
    rho = displaced_squeezed_thermal(TABLE_STATE, 50)
    for k in (0, 1):
        tr = run_protocol(_single_cfg(2, k, n_max=2000))
        assert tr.fidelity[-1] == pytest.approx(
            oracle.qubit_asymptotic_fidelity(rho, k), abs=1e-8)
    with pytest.raises(ValueError):
        oracle.qubit_asymptotic_fidelity(rho, 2)


def test_report_cycle_rules():
    f = np.array([0.5, 0.9, 0.99, 0.9999, 0.99991, 0.99992, 0.999925, 0.999926,
                  0.9999262, 0.9999263, 0.9999264])
    assert n_cooled(f, stop=0.9998) == 2
    assert n_cooled(f, stop=0.99999) == len(f) - 1       # never crossed
    assert n_cooled(np.full(6, 0.9999), stop=0.9998) == 5  # crossed at n=0
    assert n_settled(f, settle_tol=1.2e-5) == 4
    assert n_settled(np.linspace(0, 1, 8), settle_tol=1e-3) is None
    tr = ProtocolTrace(f, np.ones_like(f), converged_at=None)
    assert report_cycles(tr, "converged") == len(f) - 1
    assert report_cycles(tr, "cooled") == 2
    assert report_cycles(tr, "auto") == 2
    low = ProtocolTrace(f * 0.5, np.ones_like(f), None)
    assert report_cycles(low, "auto") == 4   # stop unreachable, settles
    with pytest.raises(ConfigError):
        report_cycles(tr, "median")


def test_sweep_dimension_skips_invalid_levels():
    base = _single_cfg(2, 0, n_max=5)
    recs = sweep_dimension(base, [2, 3], [0, 1, 2], report="converged")
    assert [(r.d, r.k) for r in recs] == [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def test_sweep_energy_contract():
    base = _single_cfg(4, 0, n_max=30)
    recs = sweep_energy(base, [0.0, 0.4])
    assert len(recs) == 2
    assert recs[1].energy > recs[0].energy
    assert recs[0].cycles is not None and recs[0].fidelity >= 0.999
    with pytest.raises(ConfigError):
        sweep_energy(base, [])
    bad = ProtocolConfig(Topology("single", 4), np.eye(4) / 4)
    with pytest.raises(ConfigError):
        sweep_energy(bad, [0.1])


# (base config, nbar grid): single-mode and star sweeps take the bright
# mode, whose weights on the star follow an adaptive e_cap that moves
# with nbar; the linear chain takes the blocked engine
ENERGY_CASES = {
    "single": (ProtocolConfig(Topology("single", 4), TABLE_STATE, cutoff=60,
                              n_max=60), [0.05, 0.4, 1.3, 3.0]),
    "single-e-max": (ProtocolConfig(
        Topology("single", 5), TABLE_STATE, regulator_level=1, cutoff=60,
        n_max=60, e_max=40), [0.05, 0.4, 1.3, 2.0]),
    "star-m2": (ProtocolConfig(Topology("star", 3, modes=2), STAR_STATE,
                               cutoff=20, n_max=40), [0.01, 0.05, 0.1]),
    "star-m3-k1": (ProtocolConfig(
        Topology("star", 4, modes=3), STAR_STATE, regulator_level=1,
        cycle_time=2.1, cutoff=30, n_max=40), [0.0, 0.02, 0.08, 0.2]),
    "linear-m2": (ProtocolConfig(
        Topology("linear", 3, modes=2), NETWORK_STATE, cycle_time=np.pi / 2,
        cutoff=20, n_max=30), [0.02, 0.1]),
}
# bright-mode weight lengths per nbar: the full cutoff, e_max + 1, or
# the star's e_cap + 1
ENERGY_WEIGHTS = {"single": [60] * 4, "single-e-max": [41] * 4,
                  "star-m2": [5, 7, 9], "star-m3-k1": [5, 6, 9, 12],
                  "linear-m2": []}


@pytest.mark.parametrize("case", list(ENERGY_CASES))
def test_sweep_energy_matches_runs(case, monkeypatch):
    # one _run_cells call for the grid gives each nbar's run alone, bit
    # for bit; a bright-mode sweep takes one effective_lambdas call and
    # one power table, a blocked sweep one _blocked_run per state
    base, grid = ENERGY_CASES[case]
    states = [replace(base.initial_system, nbar=nb) for nb in grid]
    alone = [run_protocol(replace(base, initial_system=p)) for p in states]
    calls = {name: [] for name in ("effective_lambdas", "_power_table",
                                   "_trace_single", "_blocked_run")}
    for name, seen in calls.items():
        def spy(*args, _fn=getattr(protocol, name), _seen=seen):
            _seen.append(args)
            return _fn(*args)
        monkeypatch.setattr(protocol, name, spy)
    runs, run_cells = [], protocol._run_cells

    def cells_spy(*args):
        runs.append(run_cells(*args))
        return runs[-1]

    monkeypatch.setattr(protocol, "_run_cells", cells_spy)
    recs = sweep_energy(base, grid)
    bright = bool(ENERGY_WEIGHTS[case])
    assert len(runs) == 1
    assert len(calls["effective_lambdas"]) == len(calls["_power_table"]) \
        == int(bright)
    assert [len(a[1]) for a in calls["_trace_single"]] == ENERGY_WEIGHTS[case]
    assert len(calls["_blocked_run"]) == (0 if bright else len(grid))
    for p, rec, one, tr in zip(states, recs, alone, runs[0]):
        assert np.array_equal(one.fidelity, tr.fidelity)
        assert np.array_equal(one.probability, tr.probability)
        assert one.converged_at == tr.converged_at
        ok = np.nonzero((one.fidelity[1:] >= base.fidelity_target)
                        & (one.probability[1:] >= base.probability_floor))[0]
        n = int(ok[0]) + 1 if len(ok) else None
        at = base.n_max if n is None else n
        assert rec == EnergyRecord(dst_mean_energy(p), n,
                                   float(one.fidelity[at]),
                                   float(one.probability[at]))


@pytest.mark.parametrize("grid", [[0.1, -0.5], [0.1, np.nan], [np.inf],
                                  [True], [0.2, False], ["0.5"], [None],
                                  [1 + 0j]])
def test_sweep_energy_rejects_bad_grid_before_running(grid, monkeypatch):
    def refuse(*args):
        raise AssertionError("cells ran")

    monkeypatch.setattr(protocol, "_run_cells", refuse)
    with pytest.raises(ConfigError, match="nbar_grid: nbar must be"):
        sweep_energy(_single_cfg(4, 0), grid)


@pytest.mark.parametrize("kw", [
    {"nbar_lo": 0.5, "nbar_hi": 0.1}, {"nbar_lo": 0.3, "nbar_hi": 0.3},
    {"nbar_lo": -0.1}, {"nbar_lo": np.nan}, {"nbar_hi": np.inf},
    {"nbar_hi": True}, {"iters": 0}, {"iters": -2}, {"iters": 2.5},
    {"iters": True}], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_max_coolable_nbar_rejects_bad_bracket(kw, monkeypatch):
    def refuse(*args):
        raise AssertionError("cells ran")

    monkeypatch.setattr(protocol, "_run_cells", refuse)
    with pytest.raises(ConfigError):
        max_coolable_nbar(_single_cfg(4, 0), **kw)


def test_matrix_initial_state_accepted():
    rho = displaced_squeezed_thermal(TABLE_STATE, 20)
    cfg = ProtocolConfig(Topology("single", 4), rho, cutoff=20, n_max=10)
    tr = run_protocol(cfg)
    ref = run_protocol(_single_cfg(4, 0, cutoff=20, n_max=10))
    assert np.max(np.abs(tr.fidelity - ref.fidelity)) < 1e-12


@pytest.mark.parametrize("coupling", [CouplingParams(lam=2.0),
                                      CouplingParams(omega_a=1.3)])
def test_single_path_honours_coupling(coupling):
    # the tridiagonal bright-mode path against the blocked engine on the
    # same one-mode physics
    state = DSTParams(alpha_mag=0.3, r=0.1, nbar=0.2)
    kw = dict(regulator_level=1, cycle_time=2.0, n_max=10, cutoff=40,
              coupling=coupling, e_max=25)
    single = run_protocol(ProtocolConfig(Topology("single", 4), state, **kw))
    blocked = run_protocol(ProtocolConfig(Topology("linear", 4, modes=1),
                                          state, **kw))
    np.testing.assert_allclose(single.fidelity, blocked.fidelity, atol=1e-12)
    np.testing.assert_allclose(single.probability, blocked.probability,
                               atol=1e-12)
    default = run_protocol(ProtocolConfig(Topology("single", 4), state,
                                          **{**kw, "coupling": CouplingParams()}))
    assert abs(single.probability[10] - default.probability[10]) > 1e-3


def test_default_cycle_time_needs_default_coupling():
    with pytest.raises(ConfigError, match=r"\[protocol\] t"):
        run_protocol(_single_cfg(4, 0, coupling=CouplingParams(lam=2.0)))
    with pytest.raises(ConfigError):
        run_protocol(ProtocolConfig(Topology("hybrid", 4), TABLE_STATE,
                                    coupling=CouplingParams(omega_a=1.3)))
    run_protocol(_single_cfg(4, 0, n_max=3, cycle_time=1.0,
                             coupling=CouplingParams(lam=2.0)))


@pytest.mark.parametrize("field,value", [
    ("cycle_time", float("nan")), ("cycle_time", float("inf")),
    ("cycle_time", -1.0), ("fidelity_target", 2.0),
    ("fidelity_target", 0.0), ("convergence_tol", -1.0),
    ("convergence_tol", float("inf")), ("e_max", -1)])
def test_bad_inputs_rejected(field, value):
    with pytest.raises(ConfigError):
        run_protocol(_single_cfg(4, 0, **{field: value}))


@pytest.mark.parametrize("e_max", [2, 16])
def test_single_e_max_leak_guard(e_max):
    # the state holds 8.7e-2 above two excitations, 2.0e-6 above 16
    cfg = ProtocolConfig(Topology("single", 4), NETWORK_STATE, cutoff=50,
                         e_max=e_max)
    with pytest.raises(TruncationError, match=f"excitation cap {e_max}$"):
        run_protocol(cfg)


def test_single_e_max_cuts_the_weights():
    # 9.9e-7 of the state lies above 17 excitations: the cut run loses at
    # most that much P, and F rises by at most that over P
    tail = 1.0 - dst_populations(NETWORK_STATE, 50)[:18].sum()
    assert 9e-7 < tail <= 1e-6
    cfg = ProtocolConfig(Topology("single", 4), NETWORK_STATE, cutoff=50)
    full = run_protocol(cfg)
    cut = run_protocol(replace(cfg, e_max=17))
    assert not np.array_equal(cut.probability, full.probability)
    dp = full.probability - cut.probability
    assert np.all(dp >= -1e-15) and np.all(dp <= tail + 1e-15)
    df = cut.fidelity - full.fidelity
    assert np.all(df >= -1e-15)
    assert np.all(df <= tail / cut.probability + 1e-15)
    # an e_max at or above the cutoff keeps every level
    whole = run_protocol(replace(cfg, e_max=60))
    assert np.array_equal(whole.fidelity, full.fidelity)
    assert np.array_equal(whole.probability, full.probability)


def _cycle_loop(lams, cdiag, n_max):
    """F_n, P_n one cycle at a time."""
    mags = np.abs(lams[:len(cdiag)]) ** 2
    fp, pp = np.empty(n_max + 1), np.empty(n_max + 1)
    pw = np.ones_like(cdiag)
    for n in range(n_max + 1):
        w = pw * cdiag
        tot = w.sum()
        pp[n] = tot
        fp[n] = w[0] / tot
        pw = pw * mags
    return fp, pp


def test_trace_single_matches_cycle_loop(monkeypatch):
    seen, power_table = [], protocol._power_table
    trace_single = protocol._trace_single

    def table_spy(lams, n_max):
        seen.append([lams, n_max])
        return power_table(lams, n_max)

    def spy(pw, w):
        seen[-1].append(w)
        return trace_single(pw, w)

    monkeypatch.setattr(protocol, "_power_table", table_spy)
    monkeypatch.setattr(protocol, "_trace_single", spy)
    # cutoff-300 states of the energy sweeps, and star bright-mode weights
    for nbar in (0.4, 12.0):
        run_protocol(ProtocolConfig(
            Topology("single", 5), DSTParams(0.4, np.pi / 2, 0.1, nbar=nbar),
            regulator_level=2, cutoff=300))
    run_protocol(ProtocolConfig(Topology("star", 3, modes=3), NETWORK_STATE,
                                regulator_level=1, cutoff=30))
    assert [len(w) for _, _, w in seen[:2]] == [300, 300]
    assert len(seen) == 3
    assert not np.array_equal(seen[2][2], dst_populations(
        NETWORK_STATE, 30)[:len(seen[2][2])])    # star weights, not c_n
    for lams, n_max, w in seen:
        fid, prob = trace_single(power_table(lams, n_max), w)
        fid_ref, prob_ref = _cycle_loop(lams, w, n_max)
        assert n_max == 100
        assert np.array_equal(fid, fid_ref)
        assert np.array_equal(prob, prob_ref)
