import re

import numpy as np
import pytest

from qcool import protocol
from qcool.hamiltonians import CouplingParams, Topology
from qcool.states import DSTParams, depolarized_qudit, displaced_squeezed_thermal

import oracle

FREE = dict(lam=0.0, lam_tilde=0.0)     # the free terms alone


def _index(space, levels):
    return np.ravel_multi_index(levels, space)


def test_free_hamiltonian_small_example():
    # oscillator (omega_f = 2) then qudit regulator (omega_a = 1): in the
    # oscillator's frame only the regulator's level costs -1
    _, h = oracle.hamiltonian(Topology("single", 2),
                              CouplingParams(detuning=-1.0, **FREE), 2)
    assert np.allclose(np.diag(h), [0.0, -1.0, 0.0, -1.0])
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_coupling_edges_layouts():
    p = CouplingParams(lam=1.5, lam_tilde=0.5)
    assert Topology("single", 3).coupling_edges(p) == [(0, 1, 1.5)]
    lin = Topology("linear", 3, modes=3).coupling_edges(p)
    assert lin == [(0, 3, 1.5), (1, 0, 0.5), (2, 1, 0.5)]
    star = Topology("star", 3, modes=3).coupling_edges(p)
    assert star == [(0, 3, 1.5), (1, 3, 1.5), (2, 3, 1.5)]
    hyb = Topology("hybrid", 3, system_levels=4).coupling_edges(p)
    assert hyb == [(0, 1, 1.5), (0, 2, 1.5)]


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("ring", 3)
    with pytest.raises(ValueError):
        Topology("single", 1)
    with pytest.raises(ValueError):
        Topology("single", 3, modes=2)
    with pytest.raises(ValueError):
        Topology("linear", 3, modes=0)


@pytest.mark.parametrize("args,kw,name", [
    (("single", 3.5), {}, "regulator_levels"),
    (("single", True), {}, "regulator_levels"),
    (("linear", 3), dict(modes=True), "modes"),
    (("star", 3), dict(modes=2.0), "modes"),
    (("hybrid", 3), dict(system_levels=2.5), "system_levels"),
    (("hybrid", 3), dict(system_levels=np.float64(3.0)), "system_levels")],
    ids=["d-float", "d-bool", "modes-bool", "modes-float", "ds-float",
         "ds-numpy-float"])
def test_topology_sizes_must_be_integers(args, kw, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        Topology(*args, **kw)


@pytest.mark.parametrize("kw,name", [
    (dict(lam=True), "lam"), (dict(lam_tilde="1"), "lam_tilde"),
    (dict(detuning=None), "detuning"), (dict(detuning=float("nan")), "detuning"),
    (dict(detuning=np.True_), "detuning"), (dict(detuning="1"), "detuning")],
    ids=["lam-bool", "lam-tilde-str", "detuning-none", "detuning-nan",
         "detuning-numpy-bool", "detuning-str"])
def test_coupling_fields_must_be_finite_reals(kw, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a "
                                         f"finite real number, got "):
        CouplingParams(**kw)


def test_topology_accepts_numpy_integers():
    topo = Topology("linear", np.int64(3), modes=np.int64(2))
    assert topo == Topology("linear", 3, modes=2)


OSC = (True, None)      # an oscillator: bosonic, capped by the run


@pytest.mark.parametrize("regulator_kind", ["qudit", "oscillator"])
@pytest.mark.parametrize("kind,kw,system", [
    ("single", {}, [OSC]),
    ("linear", dict(modes=3), [OSC] * 3),
    ("star", dict(modes=3), [OSC] * 3),
    ("hybrid", dict(system_levels=3), [OSC, (False, 3)])],
    ids=["single", "linear-m3", "star-m3", "hybrid-ds3"])
def test_subsystem_layout(kind, kw, system, regulator_kind):
    # the system's subsystems, then the regulator: 4 levels, bosonic only
    # as an oscillator; the engine's caps and free term read this layout
    topo = Topology(kind, 4, regulator_kind=regulator_kind, **kw)
    regulator = (regulator_kind == "oscillator", 4)
    assert topo.subsystems == system + [regulator]
    caps, bos = protocol._sub_caps(topo, 5)
    assert caps == [5 if n is None else n - 1 for _, n in topo.subsystems]
    assert bos == [b for b, _ in topo.subsystems]
    p = CouplingParams(lam=1.5, lam_tilde=0.5, detuning=-1.0)
    # the free term: detuning times the levels on every bounded subsystem
    joint = protocol._level_tuples(3, caps)
    none = np.array([], dtype=np.int64)
    h = protocol._block_hamiltonian(joint, (none, none, none.astype(float)),
                                    p.detuning, topo.modes)
    bounded = [n is not None for _, n in topo.subsystems]
    assert np.array_equal(np.diag(h), -joint[:, bounded].sum(axis=1))
    # the regulator is the last subsystem, each of its edges at lam
    edges = topo.coupling_edges(p)
    reg = len(topo.subsystems) - 1
    assert max(max(i, j) for i, j, _ in edges) == reg
    to_reg = [(i, w) for i, j, w in edges if reg in (i, j)]
    assert to_reg and all(w == 1.5 and i < reg for i, w in to_reg)


def test_single_mode_exchange_elements():
    # <n-1, k+1|H_int|n, k> = lam sqrt(n)
    sp, h = oracle.hamiltonian(Topology("single", 3),
                               CouplingParams(lam=2.0), 4)
    for n in range(1, 4):
        for k in range(2):
            i = _index(sp, (n - 1, k + 1))
            j = _index(sp, (n, k))
            assert h[i, j] == pytest.approx(2.0 * np.sqrt(n))
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_total_hamiltonian_hermitian_and_conserving():
    cases = [
        (Topology("single", 4), 6),
        (Topology("linear", 3, modes=2), 4),
        (Topology("star", 3, modes=3), 3),
        (Topology("hybrid", 2, system_levels=3), 5),
        (Topology("single", 3, regulator_kind="oscillator"), 5),
    ]
    p = CouplingParams(lam=1.0, lam_tilde=0.7)
    for topo, cutoff in cases:
        space, h = oracle.hamiltonian(topo, p, cutoff)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert oracle.offblock(h, space) <= 1e-10


def test_star_has_no_oscillator_hopping():
    topo = Topology("star", 3, modes=2)
    space, h = oracle.hamiltonian(topo, CouplingParams(), 3)
    # oscillator 0 lowered, oscillator 1 raised, regulator unchanged
    i = _index(space, (0, 1, 0))
    j = _index(space, (1, 0, 0))
    assert h[i, j] == 0.0


def test_linear_chain_hopping_present():
    topo = Topology("linear", 3, modes=2)
    space, h = oracle.hamiltonian(topo, CouplingParams(lam_tilde=0.7), 3)
    i = _index(space, (1, 0, 0))
    j = _index(space, (0, 1, 0))
    assert h[i, j] == pytest.approx(0.7)


def test_hybrid_couples_oscillator_to_both_qudits():
    space, h = oracle.hamiltonian(Topology("hybrid", 3, system_levels=3),
                                  CouplingParams(lam=1.0), 4)
    osc, qudit, reg = (_index(space, x) for x in ((1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1)))
    # oscillator photon converts into a system-qudit excitation...
    assert h[qudit, osc] == pytest.approx(1.0)
    # ...or into a regulator excitation
    assert h[reg, osc] == pytest.approx(1.0)
    # but the two qudits do not talk directly
    assert h[reg, qudit] == 0.0


def test_excitation_levels_match_free_energy_at_unit_frequencies():
    # omega_f = 1, omega_a = 1.5: the lab frame's free energy, oscillator
    # levels plus 1.5 times the regulator's, is the rotating frame's
    # detuning term plus the excitation level
    topo = Topology("linear", 3, modes=2)
    space, h0 = oracle.hamiltonian(topo, CouplingParams(detuning=0.5, **FREE), 4)
    lev = np.indices(space).reshape(len(space), -1)
    lab = lev[0] + lev[1] + 1.5 * lev[2]
    assert np.array_equal(np.diag(h0).real + oracle.levels(space), lab)


def _dense_trace(v: np.ndarray, rho: np.ndarray, n_max: int) -> tuple:
    """F_n, P_n of n kept cycles, by iterating rho -> V rho V^dag."""
    fid, prob = [], []
    for _ in range(n_max + 1):
        prob.append(np.real(np.trace(rho)))
        fid.append(np.real(rho[0, 0]) / prob[-1])
        rho = v @ rho @ v.conj().T
    return np.array(fid), np.array(prob)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("topo,cutoff", [
    (Topology("single", 3), 9), (Topology("linear", 3, modes=2), 8),
    (Topology("hybrid", 3, system_levels=2), 9)],
    ids=["single", "linear-m2", "hybrid-ds2"])
def test_common_frequency_is_invisible(topo, cutoff, k):
    # H conserves the total excitation N, so omega N adds one phase per
    # excitation block: no F_n, P_n or |lambda_0| can see it, which is
    # why a coupling states only the detuning
    coupling = CouplingParams(lam=1.3, lam_tilde=0.7, detuning=0.3)
    omega, t = 0.7, 2.1
    state = DSTParams(alpha_mag=0.3, alpha_phase=0.4, r=0.1, nbar=0.1)
    rho = np.eye(1)
    for m, size in enumerate(oracle.dims(topo, cutoff)[:-1]):
        rho = np.kron(rho, displaced_squeezed_thermal(state, size)
                      if m < topo.modes else depolarized_qudit(size))
    space, h = oracle.hamiltonian(topo, coupling, cutoff)
    traces = [_dense_trace(oracle.compress(oracle.evolve(
        h + w * np.diag(oracle.levels(space)), t), k, space), rho, 12)
        for w in (0.0, omega)]
    for plain, shifted in zip(*traces):
        assert np.max(np.abs(plain - shifted)) <= 1e-12
    space, h = oracle.hamiltonian(topo, coupling, k + 1)
    vac = np.ravel_multi_index((0,) * (len(space) - 1) + (k,), space)
    u = oracle.evolve(h + omega * np.diag(oracle.levels(space)), t)
    assert abs(abs(u[vac, vac]) - oracle.vacuum_amplitude(topo, coupling, k, t)) \
        <= 1e-12
