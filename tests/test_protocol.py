import re
from dataclasses import fields, replace

import numpy as np
import pytest

from qcool import opttime, protocol
from qcool.errors import ConfigError, QcoolError, TruncationError
from qcool.hamiltonians import CouplingParams, Topology
from qcool.hilbert import ladder_block
from qcool.protocol import (EnergyRecord, ProtocolConfig, ProtocolTrace,
                            ReportRule, default_cycle_time, effective_lambdas,
                            vacuum_modes, max_coolable_nbar, report_cycles,
                            run_protocol, sweep_dimension, sweep_energy)
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
    (5, 4, 40, ()), (6, 1, 60, (1.3, 0.3))],
    ids=["qubit", "head-only", "k-single", "cutoff300", "k-top", "detuned"])
def test_effective_lambdas_match_block_loop(d, k, count, coupling):
    # one ladder block per Fock level, as the stacked blocks must give
    lam, detuning = coupling or (1.0, 0.0)
    t = 2.1
    ref = np.empty(count, dtype=complex)
    for i in range(count):
        w, v = ladder_block(i + k, d, lam, detuning)
        ref[i] = v[k] * np.exp(-1j * w * t) @ v[k]
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
    n = ReportRule().cooled(tr.fidelity)
    assert n == 61
    assert tr.fidelity[n] == pytest.approx(0.999799, abs=1e-6)
    assert tr.probability[n] == pytest.approx(0.643455, abs=1e-6)
    tr = run_protocol(_single_cfg(2, 0))
    assert tr.fidelity[100] == pytest.approx(0.981038, abs=1e-6)
    assert tr.probability[100] == pytest.approx(0.655760, abs=1e-6)
    tr = run_protocol(_single_cfg(4, 1))
    n = ReportRule().cooled(tr.fidelity)
    assert n == 21
    assert tr.fidelity[n] == pytest.approx(0.999788, abs=1e-6)


def test_default_cycle_times():
    assert default_cycle_time(Topology("single", 4), 0).t_opt == pytest.approx(np.pi / 2)
    assert default_cycle_time(Topology("single", 4), 1).t_opt == pytest.approx(np.pi)
    assert default_cycle_time(Topology("single", 4), 2).t_opt == pytest.approx(2 * np.pi / np.sqrt(3))
    # k = 5 has no admissible optimum; the best-found time is used instead
    r = default_cycle_time(Topology("single", 7), 5)
    assert r.method == "fallback"
    assert r.t_opt == pytest.approx(157.952, abs=1e-3)
    assert default_cycle_time(Topology("hybrid", 3), 0).t_opt == pytest.approx(np.pi / np.sqrt(2))
    assert default_cycle_time(Topology("hybrid", 3), 1).t_opt == pytest.approx(np.sqrt(2) * np.pi)
    # a star's regulator sees the bright mode at lambda sqrt(M)
    for m in range(2, 7):
        for k in range(3):
            assert default_cycle_time(Topology("star", 4, modes=m), k).t_opt \
                == pytest.approx(oracle.ANALYTIC_TOPT[k] / np.sqrt(m),
                                 rel=0, abs=1e-12)


def test_default_cycle_time_reads_the_closed_form(monkeypatch):
    # k <= 2 is the closed-form optimum itself: no grid is searched, and
    # the residual is the one vacuum_residual gives there; k = 0 is fixed
    def refuse(*args):
        raise AssertionError("grid walked")

    monkeypatch.setattr(opttime, "_walk_grid", refuse)
    for k in range(3):
        r = default_cycle_time(Topology("single", 4), k)
        assert r.t_opt == oracle.ANALYTIC_TOPT[k]
        assert r.method == ("fixed" if k == 0 else "analytic")
        modes = vacuum_modes(Topology("single", 4), CouplingParams(), k)
        assert r.residual == float(opttime.vacuum_residual(modes, r.t_opt))
    assert default_cycle_time(Topology("hybrid", 3), 0).t_opt == np.pi / np.sqrt(2)
    assert default_cycle_time(Topology("hybrid", 3), 1).t_opt == np.sqrt(2) * np.pi


# (topology, k, coupling, expected default time); the linear chain and
# the oscillator regulator are in test_networks
SEARCHED_TIMES = {
    "single-lam2-k1": (Topology("single", 3), 1, CouplingParams(lam=2.0),
                       np.pi / 2),
    "single-detuned-k1": (Topology("single", 3), 1,
                          CouplingParams(detuning=0.3),
                          2 * np.pi / np.sqrt(0.3 ** 2 + 4)),
    "hybrid-k2": (Topology("hybrid", 3), 2, CouplingParams(), 83.516),
    "star-m3-lam2-k1": (Topology("star", 3, modes=3), 1,
                        CouplingParams(lam=2.0), np.pi / (2 * np.sqrt(3))),
}


@pytest.mark.parametrize("case", sorted(SEARCHED_TIMES))
def test_default_time_of_the_runs_own_block(case):
    # every k >= 1 time comes from the run's own vacuum block, for any
    # topology and coupling; each keeps the dense oracle's |lambda_0|
    # within 1e-4 of 1
    topo, k, coupling, t_ref = SEARCHED_TIMES[case]
    t = default_cycle_time(topo, k, coupling).t_opt
    assert t == pytest.approx(t_ref, abs=1e-3 if case == "hybrid-k2" else 1e-9)
    assert abs(oracle.vacuum_amplitude(topo, coupling, k, t) - 1.0) <= 1e-4


@pytest.mark.parametrize("topo,k", [
    (Topology("single", 5), 1), (Topology("single", 5), 2),
    (Topology("single", 5), 3), (Topology("single", 5), 4),
    (Topology("single", 7), 6), (Topology("hybrid", 3), 1),
    (Topology("hybrid", 3, system_levels=3), 1)]
    + [(Topology("star", 3, modes=m), 1) for m in range(2, 7)]
    + [(Topology("star", 3, modes=m), 2) for m in range(2, 5)])
def test_admissible_default_times_keep_the_vacuum(topo, k):
    t = default_cycle_time(topo, k).t_opt
    assert abs(oracle.vacuum_amplitude(topo, CouplingParams(), k, t) - 1.0) \
        <= 1e-4


@pytest.mark.parametrize("regulator_kind", ["qudit", "oscillator"])
@pytest.mark.parametrize("coupling", [CouplingParams(),
                                      CouplingParams(lam=0.7, detuning=0.3)],
                         ids=["resonant", "detuned"])
def test_star_vacuum_modes_are_the_bright_oscillator(regulator_kind, coupling):
    # the star's whole e = k block, built here as the blocked engine
    # builds it, has the |lambda_0| of the one oscillator at lam sqrt(M)
    # that vacuum_modes builds
    t = np.linspace(0.0, 40.0, 801)
    for m in range(2, 5):
        for k in range(1, 5):
            topo = Topology("star", k + 1, modes=m, regulator_kind=regulator_kind)
            caps, bos = protocol._sub_caps(topo, k)
            joint, rows, hops = protocol._joint_block(
                k, k, caps, bos, topo.coupling_edges(coupling))
            w, v = np.linalg.eigh(protocol._block_hamiltonian(
                joint, hops, coupling.detuning, topo.modes))
            ref = np.abs(np.exp(-1j * np.outer(t, w)) @ v[rows.start] ** 2)
            got = opttime.vacuum_lambda(vacuum_modes(topo, coupling, k), t)
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_uniform_star_builds_the_bright_block(monkeypatch):
    # k + 1 rows where the star's whole block holds C(k + M, M), and no
    # block at all for the fixed k = 0 time
    sizes = []
    joint_block = protocol._joint_block

    def spy(*args):
        out = joint_block(*args)
        sizes.append(len(out[0]))
        return out

    monkeypatch.setattr(protocol, "_joint_block", spy)
    protocol._vacuum_block.cache_clear()
    for k in (0, 1, 5, 8):
        default_cycle_time(Topology("star", k + 2, modes=8), k)
    assert sizes == [2, 6, 9]


def test_star_default_time_is_the_single_time_over_sqrt_m():
    for k in range(1, 7):
        single = default_cycle_time(Topology("single", k + 1), k)
        for m in range(2, 9):
            star = default_cycle_time(Topology("star", k + 1, modes=m), k)
            assert star.method == single.method
            assert star.t_opt == pytest.approx(single.t_opt / np.sqrt(m),
                                               rel=0, abs=1e-12)
    assert single.method == "numeric"
    assert default_cycle_time(Topology("single", 6), 5).method == "fallback"


def test_vacuum_block_is_built_once_per_k():
    # the block is the same at every d > k: a d = 3..6 sweep builds it
    # once, and so do direct calls at each d
    protocol._vacuum_block.cache_clear()
    sweep_dimension(_single_cfg(3, 2, n_max=5, cutoff=20), [3, 4, 5, 6], [2])
    assert protocol._vacuum_block.cache_info().misses == 1
    first = vacuum_modes(Topology("hybrid", 3), CouplingParams(), 2)
    for d in (4, 5, 6):
        assert vacuum_modes(Topology("hybrid", d), CouplingParams(), 2) is first
    assert protocol._vacuum_block.cache_info().misses == 2


def test_inadmissible_default_time_warns():
    # the time itself is a quiet fallback result; the run that uses it warns
    r = default_cycle_time(Topology("single", 7), 5)
    assert r.method == "fallback"
    assert r.t_opt == pytest.approx(157.952, abs=1e-3)
    with pytest.warns(RuntimeWarning,
                      match=r"single at k=5.*t=157\.95.*residual 0\.000875") \
            as caught:
        run_protocol(_single_cfg(7, 5, n_max=3))
    assert len(caught) == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        run_protocol(_single_cfg(3, 3))
    with pytest.raises(ConfigError):
        run_protocol(_single_cfg(3, 0, n_max=0))
    # the hybrid at k >= 2 has a default time now (SEARCHED_TIMES)
    ProtocolConfig(Topology("hybrid", 4), TABLE_STATE,
                   regulator_level=2).validate()



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
    tr = run_protocol(_single_cfg(6, 0))
    c = ReportRule(convergence_tol=1e-4).converged(tr.fidelity)
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


def test_qubit_cools_off_the_trap_times():
    # at d = 2, k = 0 level i is kept for ever iff t sqrt(i) is in pi Z;
    # t = 0.5 and 1.0 trap no level i >= 1 below the cutoff, so F -> 1
    cfg = _single_cfg(2, 0, cycle_time=0.5, cutoff=300, n_max=1000)
    assert 1.0 - run_protocol(cfg).fidelity[1000] <= 1e-9
    tr = run_protocol(replace(cfg, cycle_time=1.0))
    assert ReportRule(fidelity_target=0.999,
                      probability_floor=0.1).first_admissible(tr) == 7
    assert tr.probability[7] == pytest.approx(0.6439, abs=1e-4)


@pytest.mark.parametrize("k,t", [(0, np.pi / 2), (1, np.pi)])
def test_qubit_trapped_levels_are_the_oracles(k, t):
    # the levels with |lambda_i| = 1 at the default times are the sets the
    # oracle's large-N fidelity keeps: i = 4 m^2 at k = 0, m^2 - 1 at k = 1
    lams = effective_lambdas(2, k, t, 301)
    trapped = np.nonzero(np.abs(np.abs(lams) - 1.0) <= 1e-12)[0]
    kept = [i for i in range(1, 301) if oracle.qubit_asymptotic_fidelity(
        np.diag(np.eye(301)[0] + np.eye(301)[i]), k) == 0.5]
    assert trapped.tolist() == [0] + kept
    assert kept == ([4 * m * m for m in range(1, 9)] if k == 0
                    else [m * m - 1 for m in range(2, 18)])


def test_report_cycle_rules():
    f = np.array([0.5, 0.9, 0.99, 0.9999, 0.99991, 0.99992, 0.999925, 0.999926,
                  0.9999262, 0.9999263, 0.9999264])
    assert ReportRule(stop=0.9998).cooled(f) == 2
    assert ReportRule(stop=0.99999).cooled(f) == len(f) - 1     # never crossed
    assert ReportRule(stop=0.9998).cooled(np.full(6, 0.9999)) == 5  # at n=0
    # the cycle before F first reaches stop, not the last one below it
    assert ReportRule(stop=0.9998).cooled(
        np.array([0.5, 0.9999, 0.9, 0.9999])) == 0
    assert ReportRule(settle_tol=1.2e-5).settled(f) == 4
    assert ReportRule(settle_tol=1e-3).settled(np.linspace(0, 1, 8)) is None
    # two quiet increments at the end are not a window of five
    assert ReportRule().settled(np.array([0.1, 0.3, 0.6, 0.9, 0.95, 0.96,
                                          0.96, 0.96])) is None
    assert ReportRule().settled(np.array([0.1, 0.3, 0.6, 0.9, 0.95, 0.96,
                                          0.96, 0.96, 0.96, 0.96, 0.96])) == 6
    tr = ProtocolTrace(f, np.ones_like(f))
    # converged: the first quiet cycle at the target, n_max when none is
    assert report_cycles(tr, ReportRule("converged")) == 4
    assert report_cycles(tr, ReportRule("converged", fidelity_target=1.0)) \
        == len(f) - 1
    assert report_cycles(tr, ReportRule("cooled")) == 2
    assert report_cycles(tr, ReportRule("auto")) == 2
    low = ProtocolTrace(f * 0.5, np.ones_like(f))
    assert report_cycles(low, ReportRule("auto")) == 4   # stop unreachable, settles
    with pytest.raises(ConfigError):
        report_cycles(tr, ReportRule("median"))


def test_sweep_dimension_skips_invalid_levels():
    base = _single_cfg(2, 0, n_max=5)
    recs = sweep_dimension(base, [2, 3], [0, 1, 2], ReportRule("converged"))
    assert [(r.d, r.k) for r in recs] == [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("d_list,k_list,message", [
    ([3], [5], "measured levels k"), ([2, 3], [3], "measured levels k"),
    ([3], [-1, 0], "measured levels k"), ([], [0], "empty grid"),
    ([3], [], "empty grid"), ([1], [0], "d_list: a regulator needs d >= 2"),
    ([1, 3], [0], "d_list: a regulator needs d >= 2"),
    ([2.5, 3], [0], "d_list entries must be integers, got 2.5"),
    ([True, 3], [0], "d_list entries must be integers, got True"),
    ([3], [0.0], "k_list entries must be integers, got 0.0"),
    ([3], [1, False], "k_list entries must be integers, got False"),
    ([3], ["0"], "k_list entries must be integers, got '0'")],
    ids=["k-above-d", "k-equal-max-d", "k-negative", "no-d", "no-k",
         "d-below-2", "one-d-below-2", "d-float", "d-bool", "k-float",
         "k-bool", "k-str"])
def test_sweep_dimension_rejects_unrunnable_grid(d_list, k_list, message,
                                                 monkeypatch):
    # a grid with no runnable cell, a cell no regulator can measure, or
    # an entry that is not an integer is refused before any cell runs
    runs = []
    monkeypatch.setattr(protocol, "_run_cells",
                        lambda *args: runs.append(args) or [])
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        sweep_dimension(_single_cfg(3, 0), d_list, k_list)
    assert runs == []


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
    rule = ReportRule()
    bright = bool(ENERGY_WEIGHTS[case])
    assert len(runs) == 1
    assert len(calls["effective_lambdas"]) == len(calls["_power_table"]) \
        == int(bright)
    assert [len(a[1]) for a in calls["_trace_single"]] == ENERGY_WEIGHTS[case]
    assert len(calls["_blocked_run"]) == (0 if bright else len(grid))
    for p, rec, one, tr in zip(states, recs, alone, runs[0]):
        assert np.array_equal(one.fidelity, tr.fidelity)
        assert np.array_equal(one.probability, tr.probability)
        assert rule.converged(one.fidelity) == rule.converged(tr.fidelity)
        ok = np.nonzero((one.fidelity[1:] >= rule.fidelity_target)
                        & (one.probability[1:] >= rule.probability_floor))[0]
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
                                      CouplingParams(detuning=0.3)])
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


@pytest.mark.parametrize("topo,coupling", [
    (Topology("single", 3), CouplingParams(lam_tilde=3.0)),
    (Topology("star", 3, modes=2), CouplingParams(lam_tilde=3.0)),
    (Topology("hybrid", 3), CouplingParams(lam_tilde=0.5)),
    (Topology("linear", 3, modes=1), CouplingParams(lam_tilde=3.0)),
    (Topology("single", 3, system_levels=3), CouplingParams()),
    (Topology("star", 3, modes=2, system_levels=7), CouplingParams()),
    (Topology("linear", 3, modes=2, system_levels=3), CouplingParams())],
    ids=["single-lam-tilde", "star-lam-tilde", "hybrid-lam-tilde",
         "linear-m1-lam-tilde", "single-system-levels", "star-system-levels",
         "linear-system-levels"])
def test_settings_a_run_ignores_are_rejected(topo, coupling):
    # lam_tilde acts only on a linear chain's hops, system_levels only on
    # the hybrid's qudit; elsewhere either would be silently ignored
    cfg = ProtocolConfig(topo, NETWORK_STATE, regulator_level=1,
                         cycle_time=1.0, coupling=coupling)
    with pytest.raises(ConfigError, match="lambda_tilde|system_levels"):
        cfg.validate()
    if coupling != CouplingParams():
        replace(cfg, coupling=CouplingParams()).validate()
    else:
        replace(cfg, topology=replace(topo, system_levels=2)).validate()


def test_settings_a_run_uses_are_accepted():
    ProtocolConfig(Topology("linear", 3, modes=2), NETWORK_STATE,
                   cycle_time=1.0,
                   coupling=CouplingParams(lam_tilde=0.7)).validate()
    ProtocolConfig(Topology("hybrid", 3, system_levels=4), NETWORK_STATE,
                   regulator_level=1).validate()


def test_default_cycle_time_needs_default_coupling():
    with pytest.raises(ConfigError, match=r"\[protocol\] t"):
        run_protocol(_single_cfg(4, 0, coupling=CouplingParams(lam=2.0)))
    with pytest.raises(ConfigError):
        run_protocol(ProtocolConfig(Topology("hybrid", 4), TABLE_STATE,
                                    coupling=CouplingParams(detuning=0.3)))
    run_protocol(_single_cfg(4, 0, n_max=3, cycle_time=1.0,
                             coupling=CouplingParams(lam=2.0)))
    # k >= 1 derives its time from the coupling itself
    run_protocol(_single_cfg(4, 1, n_max=3, coupling=CouplingParams(lam=2.0)))


def test_zero_coupling_needs_a_time(monkeypatch):
    # lambda = 0: the vacuum never moves, so there is no optimum to take
    def refuse(*args, **kw):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(protocol, "effective_lambdas", refuse)
    monkeypatch.setattr(protocol, "_blocked_run", refuse)
    for topo in (Topology("single", 4), Topology("linear", 3, modes=2)):
        for coupling in (CouplingParams(lam=0.0),
                         CouplingParams(lam=0.0, detuning=0.3)):
            cfg = ProtocolConfig(topo, NETWORK_STATE, regulator_level=1,
                                 coupling=coupling, cutoff=20, n_max=3)
            with pytest.raises(ConfigError, match=r"set \[protocol\] t"):
                run_protocol(cfg)


@pytest.mark.parametrize("kw", [
    dict(mode="bogus"), dict(stop=2.0), dict(stop=-1.0), dict(stop=0.0),
    dict(stop=float("nan")), dict(settle_tol=float("nan")),
    dict(settle_tol=-1.0)], ids=lambda kw: "-".join(map(str, kw.items())))
def test_report_rule_checked_before_any_run(kw, monkeypatch):
    # the rule is checked when made, so no call that takes it starts
    trace = run_protocol(_single_cfg(3, 0, n_max=10))
    with pytest.raises(ConfigError):
        report_cycles(trace, ReportRule(**{"mode": "auto", **kw}))
    runs = []
    monkeypatch.setattr(protocol, "_run_cells",
                        lambda *args: runs.append(args) or [])
    with pytest.raises(ConfigError):
        sweep_dimension(_single_cfg(3, 0), [3, 4], [0, 1],
                        ReportRule(**{"mode": "auto", **kw}))
    assert runs == []


def test_rule_fields_a_call_does_not_read_are_rejected(monkeypatch):
    # a rule field its call would ignore is a ConfigError, before any run
    trace = run_protocol(_single_cfg(3, 0, n_max=10))
    base = _single_cfg(4, 0, n_max=30)
    with pytest.raises(ConfigError, match="first_admissible rule reads no"):
        sweep_energy(base, [0.4, 3.0], ReportRule(
            "cooled", stop=0.5, settle_tol=0.3, convergence_tol=0.5))
    with pytest.raises(ConfigError, match="cooled rule reads no probab"):
        report_cycles(trace, ReportRule("cooled", probability_floor=0.9))
    runs = []
    monkeypatch.setattr(protocol, "_run_cells",
                        lambda *args: runs.append(args) or [])
    with pytest.raises(ConfigError, match="converged rule reads no stop"):
        sweep_dimension(base, [3, 4], [0, 1], ReportRule(stop=0.5))
    with pytest.raises(ConfigError, match="first_admissible rule reads no"):
        max_coolable_nbar(base, rule=ReportRule(settle_tol=0.3))
    with pytest.raises(ConfigError, match="reads no mode, got 'auto'"):
        sweep_energy(base, [0.4], ReportRule("auto"))
    assert runs == []


# a non-default value of every threshold, each in its range
OFF_DEFAULT = dict(fidelity_target=0.5, convergence_tol=0.5,
                   probability_floor=0.9, stop=0.5, settle_tol=0.3)


@pytest.mark.parametrize("rule", list(protocol.RULE_READS))
def test_each_rule_takes_exactly_the_thresholds_it_reads(rule):
    # a threshold the rule reads may take any value, and every other one
    # only its default
    trace = run_protocol(_single_cfg(3, 0, n_max=10))
    base = _single_cfg(4, 0, n_max=10)

    def call(**kw):
        if rule == "first_admissible":
            return sweep_energy(base, [0.4], ReportRule(**kw))
        return report_cycles(trace, ReportRule(rule, **kw))

    reads = protocol.RULE_READS[rule]
    call(**{name: OFF_DEFAULT[name] for name in reads})
    for name in set(OFF_DEFAULT) - set(reads):
        with pytest.raises(ConfigError, match=f"reads no {name}"):
            call(**{name: OFF_DEFAULT[name]})


@pytest.mark.parametrize("field,value", [
    ("cycle_time", float("nan")), ("cycle_time", float("inf")),
    ("cycle_time", -1.0), ("fidelity_target", 2.0),
    ("fidelity_target", 0.0), ("convergence_tol", -1.0),
    ("convergence_tol", float("inf")), ("e_max", -1)])
def test_bad_inputs_rejected(field, value):
    # the report thresholds are checked by the ReportRule that holds them
    with pytest.raises(ConfigError):
        if hasattr(ReportRule, field):
            ReportRule(**{field: value})
        else:
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


# every ProtocolConfig field -> non-default values: each is rejected by
# validate or changes the run's F_n or P_n
AIM3_BASE = ProtocolConfig(Topology("single", 3), TABLE_STATE,
                           regulator_level=1, cycle_time=2.0, n_max=10,
                           cutoff=20)
AIM3_VALUES = {
    "topology": [Topology("single", 4), Topology("star", 3, modes=2),
                 Topology("linear", 3, modes=2),
                 Topology("single", 3, system_levels=3),
                 Topology("single", 3, regulator_kind="oscillator")],
    "initial_system": [replace(TABLE_STATE, nbar=0.1),
                       displaced_squeezed_thermal(NETWORK_STATE, 20)],
    "regulator_level": [0, 2, 3],
    "cycle_time": [None, 1.0, 0.0],
    "n_max": [12, 0],
    "coupling": [CouplingParams(lam=2.0), CouplingParams(detuning=0.3),
                 CouplingParams(detuning=-0.2), CouplingParams(lam_tilde=0.5)],
    "cutoff": [30],
    "e_max": [15, 2],
}


def test_every_config_field_changes_the_run_or_is_rejected():
    # a field a run ignores would be a setting that silently does nothing
    assert [f.name for f in fields(ProtocolConfig)] == list(AIM3_VALUES)
    base = run_protocol(AIM3_BASE)
    for name, values in AIM3_VALUES.items():
        changed = 0
        for value in values:
            cfg = replace(AIM3_BASE, **{name: value})
            try:
                cfg.validate()
            except ConfigError:
                continue
            try:
                tr = run_protocol(cfg)
            except TruncationError:     # e_max = 2 leaves too much above it
                continue
            assert not (np.array_equal(tr.fidelity, base.fidelity)
                        and np.array_equal(tr.probability, base.probability)), \
                f"{name} = {value!r} runs and changes nothing"
            changed += 1
        assert changed, f"no accepted value of {name} changes the run"


@pytest.mark.parametrize("value", [True, np.True_, "1", 1 + 0j, [1.0]],
                         ids=repr)
def test_non_real_values_rejected(value):
    # a bool or a non-real is no time or threshold, even where it would
    # compare like one
    with pytest.raises(ConfigError, match="cycle time must be a real number"):
        _single_cfg(3, 0, cycle_time=value).validate()
    for f in fields(ReportRule)[1:]:
        with pytest.raises(ConfigError, match=f"{f.name} must be a real number"):
            ReportRule(**{f.name: value})
    with pytest.raises(ConfigError, match="fidelity_target must be a real"):
        ReportRule(fidelity_target=None)


def test_numpy_and_integer_reals_accepted():
    for t in (None, 1, np.float64(1.0), np.float32(1.0), np.int64(1)):
        _single_cfg(3, 0, cycle_time=t).validate()
    rule = ReportRule("auto", fidelity_target=1, convergence_tol=np.float32(0.5),
                      probability_floor=np.int64(0), stop=np.float64(0.5),
                      settle_tol=0)
    assert rule.stop == 0.5


# (topology, k, t, the first cycle whose P_n is below the smallest normal
# double, an n_max short of it): the bright-mode path, then the blocked one
UNDERFLOW_CASES = {
    "bright-single": (Topology("single", 4), 1, 0.8, 1061, 1000),
    "blocked-linear-m2": (Topology("linear", 3, modes=2), 1, 1.0, 1568, 1500),
}


@pytest.mark.parametrize("case", list(UNDERFLOW_CASES))
def test_underflowing_probability_raises(case):
    # past that cycle P_n loses its digits and then reaches 0, where F_n
    # would be NaN: a numeric error (exit code 3), not a config error
    topo, k, t, cycle, short = UNDERFLOW_CASES[case]
    cfg = ProtocolConfig(topo, DSTParams(alpha_mag=0.4, nbar=0.4),
                         regulator_level=k, cycle_time=t, cutoff=20,
                         n_max=3000)
    with pytest.raises(QcoolError,
                       match=f"^P_n underflows at cycle {cycle} ") as err:
        run_protocol(cfg)
    assert not isinstance(err.value, ConfigError)
    tr = run_protocol(replace(cfg, n_max=short))
    assert np.all(np.isfinite(tr.fidelity))
    assert tr.probability.min() >= np.finfo(float).tiny
