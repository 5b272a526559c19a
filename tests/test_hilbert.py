import numpy as np
import pytest

from qcool.errors import ConservationError
from qcool.hilbert import (BlockedOperator, Oscillator, Qudit, SpaceSpec,
                           annihilation, block_diag, ladder_block, block_decompose, excitation_levels,
                           excitation_number, partial_trace, qudit_transition)


def test_space_dims_and_indexing():
    sp = SpaceSpec((Oscillator(4), Qudit(3)))
    assert sp.dims == (4, 3)
    assert sp.dim == 12
    assert sp.index((2, 1)) == 2 * 3 + 1
    assert sp.multi(7) == (2, 1)
    for flat in range(sp.dim):
        assert sp.index(sp.multi(flat)) == flat
    ket = sp.basis_ket((1, 2))
    assert ket[sp.index((1, 2))] == 1.0 and np.sum(np.abs(ket)) == 1.0


def test_annihilation_matrix_elements():
    sp = SpaceSpec((Oscillator(5),))
    a = annihilation(sp, 0)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), np.arange(5))
    assert abs(a[2, 3] - np.sqrt(3)) < 1e-12


def test_annihilation_rejects_qudit():
    sp = SpaceSpec((Oscillator(4), Qudit(3)))
    with pytest.raises(TypeError):
        annihilation(sp, 1)


def test_qudit_transition_and_range():
    sp = SpaceSpec((Qudit(3),))
    t = qudit_transition(sp, 0, 0, 2)
    assert t[2, 0] == 1.0 and np.count_nonzero(t) == 1
    with pytest.raises(IndexError):
        qudit_transition(sp, 0, 0, 3)


def test_excitation_levels_row_major():
    sp = SpaceSpec((Oscillator(3), Qudit(2)))
    lev = excitation_levels(sp)
    expect = [n + q for n in range(3) for q in range(2)]
    assert lev.tolist() == expect
    assert np.allclose(np.diag(excitation_number(sp)), lev)


def test_block_decompose_roundtrip():
    sp = SpaceSpec((Oscillator(4), Qudit(2)))
    lev = excitation_levels(sp)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(sp.dim, sp.dim)) + 1j * rng.normal(size=(sp.dim, sp.dim))
    h = h + h.conj().T
    h[lev[:, None] != lev[None, :]] = 0.0
    blocked = block_decompose(sp, h)
    assert isinstance(blocked, BlockedOperator)
    assert np.max(np.abs(blocked.reassemble() - h)) < 1e-12
    sizes = {e: len(b.indices) for e, b in blocked.blocks.items()}
    assert sizes[0] == 1 and sum(sizes.values()) == sp.dim


def test_block_decompose_flags_violation():
    sp = SpaceSpec((Oscillator(3), Qudit(2)))
    bad = np.zeros((6, 6))
    bad[0, 5] = bad[5, 0] = 0.5  # couples E=0 to E=3
    with pytest.raises(ConservationError) as err:
        block_decompose(sp, bad)
    assert err.value.max_offblock == pytest.approx(0.5)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    sp = SpaceSpec((Qudit(3), Oscillator(4)))
    joint = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(sp, joint, keep=[0]) - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(sp, joint, keep=[1]) - rho_b)) < 1e-12


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


def test_block_diag_direct_sum():
    a = np.arange(4.0).reshape(2, 2)
    b = np.array([[1j]])
    c = np.ones((3, 3))
    out = block_diag(a, b, c)
    assert out.shape == (6, 6) and out.dtype == complex
    assert np.array_equal(out[:2, :2], a) and out[2, 2] == 1j
    assert np.array_equal(out[3:, 3:], c)
    mask = np.zeros((6, 6), dtype=bool)
    mask[:2, :2] = mask[2, 2] = mask[3:, 3:] = True
    assert np.count_nonzero(out[~mask]) == 0
