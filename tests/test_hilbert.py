import numpy as np
import pytest

from qcool.hamiltonians import Topology
from qcool.hilbert import ladder_block, lowering

import oracle


def test_space_dims_and_indexing():
    # oscillators, then the hybrid system qudit, then the regulator
    space = oracle.dims(Topology("single", 3), 4)
    assert space == (4, 3)
    assert int(np.prod(space)) == 12
    assert np.ravel_multi_index((2, 1), space) == 2 * 3 + 1
    for flat in range(12):
        assert np.ravel_multi_index(np.unravel_index(flat, space), space) == flat
    assert oracle.dims(Topology("linear", 5, modes=3), 4) == (4, 4, 4, 5)
    assert oracle.dims(Topology("hybrid", 3, system_levels=2), 6) == (6, 2, 3)


def test_annihilation_matrix_elements():
    a = lowering(5)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), np.arange(5))
    assert abs(a[2, 3] - np.sqrt(3)) < 1e-12


def test_excitation_levels_row_major():
    lev = oracle.levels((3, 2))
    expect = [n + q for n in range(3) for q in range(2)]
    assert lev.tolist() == expect


def test_conservation_check_flags_violation():
    space = (4, 2)
    lev = oracle.levels(space)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    h[lev[:, None] != lev[None, :]] = 0.0
    assert oracle.offblock(h, space) == 0.0
    bad = np.zeros((6, 6))
    bad[0, 5] = bad[5, 0] = 0.5  # couples E=0 to E=3
    assert oracle.offblock(bad, (3, 2)) == pytest.approx(0.5)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    space = (3, 4)
    joint = np.kron(rho_a, rho_b)
    assert np.max(np.abs(oracle.partial_trace(joint, space, keep=[0])
                         - rho_a)) < 1e-12
    assert np.max(np.abs(oracle.partial_trace(joint, space, keep=[1])
                         - rho_b)) < 1e-12


@pytest.mark.parametrize("e,levels,lam,detuning", [
    (0, 3, 1.0, 0.0), (4, 1, 1.0, 0.3), (1, 2, 1.0, 0.0), (5, 4, 1.0, 0.0),
    (2, 7, 0.7, 0.0), (9, 7, 1.3, -0.4), (6, 3, 1.0, 2.5)],
    ids=["q0-e0", "q0-levels1", "qubit", "resonant", "e-below-levels",
         "detuned", "strongly-detuned"])
def test_ladder_block_matches_dense_eigh(e, levels, lam, detuning):
    q = min(levels - 1, e)
    h = np.zeros((q + 1, q + 1))
    for j in range(q + 1):
        h[j, j] = j * detuning
        if j < q:
            h[j, j + 1] = h[j + 1, j] = lam * np.sqrt(e - j)
    w_ref, v_ref = np.linalg.eigh(h)
    w, v = ladder_block(e, levels, lam, detuning)
    assert w.shape == (q + 1,) and v.shape == (q + 1, q + 1)
    assert np.max(np.abs(w - w_ref)) < 1e-12
    # columns agree up to sign; no caller depends on the sign
    signs = np.sign(np.sum(v * v_ref, axis=0))
    assert np.all(signs != 0)
    assert np.max(np.abs(v * signs - v_ref)) < 1e-12
    assert np.max(np.abs((v * w) @ v.T - h)) < 1e-12


@pytest.mark.parametrize("levels,lam,detuning", [
    (1, 1.0, 0.0), (2, 1.0, 0.0), (6, 1.0, 0.0), (5, 1.3, -0.4)],
    ids=["levels1", "qubit", "resonant", "detuned"])
def test_ladder_block_stack_matches_single_blocks(levels, lam, detuning):
    e = np.arange(levels + 40)
    w, v = ladder_block(e, levels, lam, detuning)
    assert w.shape == (len(e), levels) and v.shape == (len(e), levels, levels)
    for j, ej in enumerate(e):
        w1, v1 = ladder_block(int(ej), levels, lam, detuning)
        if ej >= levels - 1:
            assert np.max(np.abs(w[j] - w1)) <= 1e-14
            assert np.max(np.abs(np.abs(v[j]) - np.abs(v1))) <= 1e-14
        # a padded block (e < levels - 1) keeps the propagator's q <= e
        # diagonal, also where the padding is degenerate with the block
        for t in (0.7, 2.1):
            u = (v[j] * np.exp(-1j * w[j] * t)) @ v[j].T
            u1 = (v1 * np.exp(-1j * w1 * t)) @ v1.T
            assert np.max(np.abs(np.diag(u)[:len(w1)] - np.diag(u1))) <= 1e-14

