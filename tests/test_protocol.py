import numpy as np
import pytest

from qcool import protocol
from qcool.errors import ConfigError
from qcool.hamiltonians import CouplingParams, Topology, free_hamiltonian, \
    interaction_linear
from qcool.hilbert import Oscillator, Qudit, SpaceSpec, ladder_block
from qcool.protocol import (EffectiveOperator, ProtocolConfig, ProtocolTrace,
                            default_cycle_time, effective_lambdas,
                            effective_operator, evolve_unitary, n_cooled,
                            n_settled, qubit_asymptotic_fidelity,
                            report_cycles, run_protocol, sweep_dimension,
                            sweep_energy)
from qcool.states import DSTParams, displaced_squeezed_thermal, \
    dst_populations

from conftest import C00_TABLE, NETWORK_STATE, TABLE_STATE


def _single_cfg(d, k, **kw):
    return ProtocolConfig(Topology("single", d), TABLE_STATE,
                          regulator_level=k, **kw)


def test_evolution_is_unitary():
    sp = SpaceSpec((Oscillator(6), Qudit(3)))
    h = free_hamiltonian(sp, CouplingParams()) + interaction_linear(sp, CouplingParams())
    u = evolve_unitary(h, 1.3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(sp.dim))) < 1e-12


def test_evolve_rejects_non_hermitian():
    with pytest.raises(ValueError):
        evolve_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_effective_operator_is_diagonal_for_single_oscillator():
    sp = SpaceSpec((Oscillator(12), Qudit(3)))
    h = free_hamiltonian(sp, CouplingParams()) + interaction_linear(sp, CouplingParams())
    u = evolve_unitary(h, np.pi / 2)
    v = effective_operator(u, 0, sp, np.pi / 2)
    off = v.matrix - np.diag(np.diag(v.matrix))
    assert np.max(np.abs(off)) < 1e-12
    # interior entries match the cutoff-free lambdas (edge rows feel truncation)
    lams = effective_lambdas(3, 0, np.pi / 2, 12)
    assert np.max(np.abs(np.diag(v.matrix)[:9] - lams[:9])) < 1e-12
    v.validate(system_levels=np.arange(12))


def test_effective_operator_level_range():
    sp = SpaceSpec((Oscillator(4), Qudit(3)))
    u = np.eye(sp.dim)
    with pytest.raises(IndexError):
        effective_operator(u, 3, sp)
    with pytest.raises(ValueError):
        effective_operator(u, 0, None)


def test_effective_operator_validate_flags_expansion():
    v = EffectiveOperator(np.diag([1.0, 1.2]), level=0, dimension=2)
    with pytest.raises(ValueError):
        v.validate()
    v2 = EffectiveOperator(np.array([[0.5, 0.4], [0.4, 0.5]]), 0, 2)
    with pytest.raises(ValueError):
        v2.validate(system_levels=np.array([0, 1]))


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
    sp = SpaceSpec((Oscillator(cutoff), Qudit(d)))
    p = CouplingParams()
    h = free_hamiltonian(sp, p) + interaction_linear(sp, p)
    u = evolve_unitary(h, np.pi / 2)
    v = effective_operator(u, k, sp).matrix
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
    assert default_cycle_time(Topology("single", 7), 5) == pytest.approx(157.952, abs=1e-3)
    assert default_cycle_time(Topology("hybrid", 3), 0) == pytest.approx(np.pi / np.sqrt(2))
    assert default_cycle_time(Topology("hybrid", 3), 1) == pytest.approx(np.sqrt(2) * np.pi)


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
            qubit_asymptotic_fidelity(rho, k), abs=1e-8)
    with pytest.raises(ValueError):
        qubit_asymptotic_fidelity(rho, 2)


def test_report_cycle_rules():
    f = np.array([0.5, 0.9, 0.99, 0.9999, 0.99991, 0.99992, 0.999925, 0.999926,
                  0.9999262, 0.9999263, 0.9999264])
    assert n_cooled(f, stop=0.9998) == 2
    assert n_cooled(f, stop=0.99999) == len(f) - 1       # never crossed
    assert n_cooled(np.full(6, 0.9999), stop=0.9998) == 5  # crossed at n=0
    assert n_settled(f, settle_tol=1.2e-5, window=5) == 4
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


def test_matrix_initial_state_accepted():
    rho = displaced_squeezed_thermal(TABLE_STATE, 20)
    cfg = ProtocolConfig(Topology("single", 4), rho, cutoff=20, n_max=10)
    tr = run_protocol(cfg)
    ref = run_protocol(_single_cfg(4, 0, cutoff=20, n_max=10))
    assert np.max(np.abs(tr.fidelity - ref.fidelity)) < 1e-12


@pytest.mark.parametrize("coupling", [CouplingParams(lam=2.0),
                                      CouplingParams(omega_a=1.3)])
def test_single_path_honours_coupling(coupling):
    # the tridiagonal single-mode path against the blocked engine on the
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
    seen, trace_single = [], protocol._trace_single

    def spy(lams, w, n_max):
        seen.append((lams, w, n_max))
        return trace_single(lams, w, n_max)

    monkeypatch.setattr(protocol, "_trace_single", spy)
    # cutoff-300 states of the energy sweeps, and star bright-mode weights
    for nbar in (0.4, 12.0):
        run_protocol(ProtocolConfig(
            Topology("single", 5), DSTParams(0.4, np.pi / 2, 0.1, nbar=nbar),
            regulator_level=2, cutoff=300))
    run_protocol(ProtocolConfig(Topology("star", 3, modes=3), NETWORK_STATE,
                                regulator_level=1, cutoff=30))
    assert [len(w) for _, w, _ in seen[:2]] == [300, 300]
    assert len(seen) == 3
    assert not np.array_equal(seen[2][1], dst_populations(
        NETWORK_STATE, 30)[:len(seen[2][1])])    # star weights, not c_n
    for lams, w, n_max in seen:
        fid, prob = trace_single(lams, w, n_max)
        fid_ref, prob_ref = _cycle_loop(lams, w, n_max)
        assert n_max == 100
        assert np.array_equal(fid, fid_ref)
        assert np.array_equal(prob, prob_ref)
