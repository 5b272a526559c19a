import numpy as np
import pytest

from qcool.hamiltonians import CouplingParams, Topology

import oracle

FREE = dict(lam=0.0, lam_tilde=0.0)     # the free terms alone


def _index(space, levels):
    return np.ravel_multi_index(levels, space)


def test_free_hamiltonian_small_example():
    # oscillator (omega_f = 2) then qudit regulator (omega_a = 1)
    _, h = oracle.hamiltonian(Topology("single", 2),
                              CouplingParams(omega_a=1.0, omega_f=2.0, **FREE), 2)
    assert np.allclose(np.diag(h), [0.0, 1.0, 2.0, 3.0])
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_omega_f_list_validation():
    p = CouplingParams(omega_f=[1.0, 2.0])
    assert p.omega_f_list(2) == [1.0, 2.0]
    with pytest.raises(ValueError):
        p.omega_f_list(3)
    assert CouplingParams(omega_f=3.0).omega_f_list(2) == [3.0, 3.0]


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


def test_single_mode_exchange_elements():
    # <n-1, k+1|H_int|n, k> = lam sqrt(n)
    sp, h = oracle.hamiltonian(Topology("single", 3),
                               CouplingParams(lam=2.0, omega_a=0.0, omega_f=0.0), 4)
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
    p = CouplingParams(lam=1.0, lam_tilde=0.7, omega_a=1.0, omega_f=1.0)
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
                                  CouplingParams(lam=1.0, omega_a=0.0,
                                                 omega_f=0.0), 4)
    osc, qudit, reg = (_index(space, x) for x in ((1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1)))
    # oscillator photon converts into a system-qudit excitation...
    assert h[qudit, osc] == pytest.approx(1.0)
    # ...or into a regulator excitation
    assert h[reg, osc] == pytest.approx(1.0)
    # but the two qudits do not talk directly
    assert h[reg, qudit] == 0.0


def test_excitation_levels_match_free_energy_at_unit_frequencies():
    topo = Topology("linear", 3, modes=2)
    space, h0 = oracle.hamiltonian(
        topo, CouplingParams(omega_a=1.0, omega_f=1.0, **FREE), 4)
    assert np.allclose(np.diag(h0).real, oracle.levels(space))
