import math

import numpy as np
import pytest

from qcool import stateprep
from qcool.errors import TruncationError
from qcool.stateprep import (conditional_displacement, hadamard_qudit,
                             make_cat, make_hybrid_entangled, make_noon,
                             make_odd_cat, parity_expectation,
                             subspace_rotation)

import oracle


def test_hadamard_unitary_and_order():
    for d in (2, 3, 5):
        h = hadamard_qudit(d)
        assert np.max(np.abs(h @ h.conj().T - np.eye(d))) < 1e-12
        # fourth power of the Fourier gate is the identity
        h4 = np.linalg.matrix_power(h, 4)
        assert np.max(np.abs(h4 - np.eye(d))) < 1e-12
    assert np.allclose(hadamard_qudit(2) * np.sqrt(2), [[1, 1], [1, -1]])
    with pytest.raises(ValueError):
        hadamard_qudit(1)


def test_conditional_displacement_structure():
    cutoff = 40
    dc = conditional_displacement(2, 0.8, 2, cutoff)
    assert dc.shape == (2, cutoff, cutoff)
    for blk in dc:
        assert np.max(np.abs(blk @ blk.conj().T - np.eye(cutoff))) < 1e-12
    # identity when nothing is displaced
    dc0 = conditional_displacement(3, 0.0, 2, 20)
    assert np.max(np.abs(dc0 - np.eye(20))) < 1e-12
    # level-1 block displaces by alpha * omega = -alpha for two components
    assert np.max(np.abs(dc[1] - stateprep.displacement_op(-0.8, cutoff))) \
        < 1e-12


def test_conditional_displacement_keeps_a_ket_array_normalised():
    rng = np.random.default_rng(7)
    d, cutoff = 4, 30
    ket = rng.normal(size=(d, cutoff)) + 1j * rng.normal(size=(d, cutoff))
    ket /= np.linalg.norm(ket)
    stack = conditional_displacement(d, 0.9, 4, cutoff)
    out = (stack @ ket[..., None])[..., 0]
    assert out.shape == (d, cutoff)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_cat_builds_each_displacement_once(n, monkeypatch):
    calls = []
    displacement_op = stateprep.displacement_op

    def spy(alpha, cutoff):
        calls.append(alpha)
        return displacement_op(alpha, cutoff)

    monkeypatch.setattr(stateprep, "displacement_op", spy)
    make_cat(1.2, n)
    assert len(calls) == n
    # the odd cat takes |alpha> and |-alpha> from the even cat's branches
    calls.clear()
    make_odd_cat(make_cat(1.2, n))
    assert len(calls) == n


def test_conditional_displacement_tail_guard():
    with pytest.raises(TruncationError):
        conditional_displacement(2, 3.0, 2, cutoff=10)


def test_coherent_tail_guard_is_the_poisson_tail():
    # the guard is dst_populations' leak check of the coherent state: on
    # a 0.01 grid at cutoff 20 it first refuses the |alpha| whose Poisson
    # tail 1 - sum_{n<20} e^{-|alpha|^2} |alpha|^{2n}/n! first exceeds 1e-6
    def tail(a):
        return 1.0 - sum(math.exp(-a * a + 2 * n * math.log(a)
                                  - math.lgamma(n + 1)) for n in range(20))

    def leakage(a):
        try:
            conditional_displacement(2, a * np.exp(0.7j), 2, cutoff=20)
        except TruncationError as err:
            return err.leakage
        return None

    grid = [i / 100 for i in range(1, 400)]
    first = next(a for a in grid if tail(a) > 1e-6)
    refused = next(a for a in grid if leakage(a) is not None)
    assert refused == first == 2.32
    assert leakage(first) == pytest.approx(tail(first), rel=1e-6)


def test_even_cat():
    res = make_cat(1.2, 2)
    assert res.kind == "cat" and res.d == 2
    assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-12)
    assert res.target_fidelity == pytest.approx(1.0, abs=1e-10)
    assert res.success_prob == pytest.approx(0.528067, abs=1e-6)
    assert res.extra["parity"] == pytest.approx(1.0, abs=1e-10)
    # even component only
    assert np.max(np.abs(res.state[1::2])) < 1e-12


def test_cat_of_zero_amplitude_is_vacuum():
    res = make_cat(0.0, 2)
    assert res.success_prob == pytest.approx(1.0, abs=1e-12)
    assert abs(res.state[0]) == pytest.approx(1.0, abs=1e-12)


def test_four_component_cat_support():
    res = make_cat(1.2, 4)
    idx = np.nonzero(np.abs(res.state) > 1e-10)[0]
    assert np.all(idx % 4 == 0)
    assert res.target_fidelity == pytest.approx(1.0, abs=1e-10)


def test_cat_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        make_cat(1.0, 3)                 # odd component count


def test_odd_cat():
    even = make_cat(1.2, 2)
    odd = make_odd_cat(even)
    assert odd.kind == "odd-cat"
    assert np.max(np.abs(odd.state[0::2])) < 1e-12       # odd component only
    assert odd.extra["parity"] == pytest.approx(-1.0, abs=1e-10)
    assert odd.success_prob == pytest.approx(0.494939, abs=1e-6)
    assert odd.target_fidelity == pytest.approx(0.704563, abs=1e-6)
    assert odd.extra["odd_cat_gap"] == pytest.approx(1 - odd.target_fidelity,
                                                     abs=1e-12)
    # heralding weight chains through <n> + 1
    rho = np.diag(np.abs(even.state) ** 2)
    expect = even.success_prob * (oracle.mean_energy(rho) + 1) / (1.2 ** 2 + 1)
    assert odd.success_prob == pytest.approx(expect, abs=1e-10)


def test_odd_cat_keeps_the_phase_of_alpha():
    # the reference |alpha> - |-alpha> rotates with alpha, as the state does
    real = make_odd_cat(make_cat(1.2, 2))
    for alpha in (1.2j, -1.2, 1.2 * np.exp(0.7j)):
        odd = make_odd_cat(make_cat(alpha, 2))
        assert odd.target_fidelity == pytest.approx(real.target_fidelity,
                                                    abs=1e-12)


def test_odd_cat_input_check():
    he = make_hybrid_entangled(2)
    with pytest.raises(ValueError):
        make_odd_cat(he)


def test_hybrid_entangled_unsqueezed():
    # success (1/d) sum_k k!/(d-1)! = 1, 2/3, 5/12 for d = 2, 3, 4
    for d, succ in ((2, 1.0), (3, 2 / 3), (4, 5 / 12)):
        res = make_hybrid_entangled(d)
        assert res.success_prob == pytest.approx(succ, abs=1e-10)
        assert res.target_fidelity == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-10)
    # amplitudes carry the sqrt(k!) photon-addition weights
    res = make_hybrid_entangled(3)
    rows = res.state.reshape(3, -1)
    diag = np.array([rows[k, k] for k in range(3)])
    assert np.abs(diag[1] / diag[0]) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(diag[2] / diag[0]) == pytest.approx(np.sqrt(2), abs=1e-10)
    # d = 2 branches are uniform: maximally entangled, entropy ln 2
    res2 = make_hybrid_entangled(2)
    assert res2.extra["fidelity_uniform"] == pytest.approx(1.0, abs=1e-10)
    assert res2.extra["entropy"] == pytest.approx(np.log(2), abs=1e-10)


def test_hybrid_entangled_success_decreases_with_d():
    succ = [make_hybrid_entangled(d).success_prob for d in range(2, 6)]
    assert all(a > b for a, b in zip(succ, succ[1:]))


def test_hybrid_entangled_squeezed():
    res = make_hybrid_entangled(2, r=0.3)
    s = res.extra["schmidt"]
    assert s[0] / s[1] == pytest.approx(np.cosh(0.3), abs=1e-11)
    res3 = make_hybrid_entangled(3, r=0.3)
    assert res3.target_fidelity == pytest.approx(0.818943, abs=1e-6)
    # entropy recomputed from the stored spectrum matches the reported value
    p = res3.extra["schmidt"] ** 2
    p = p[p > 1e-15]
    assert res3.extra["entropy"] == pytest.approx(float(-(p * np.log(p)).sum()),
                                                  abs=1e-12)


def test_hybrid_entangled_validation():
    with pytest.raises(ValueError):
        make_hybrid_entangled(4, cutoff=8)
    with pytest.raises(ValueError):
        make_hybrid_entangled(3, r=-0.1)


def test_subspace_rotation():
    for d in (2, 4, 6):
        u = subspace_rotation(d)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12
        col = u[:, 0]
        assert col[0] == pytest.approx(1 / np.sqrt(2))
        assert col[d - 1] == pytest.approx(1 / np.sqrt(2))


def test_noon():
    for d, succ in ((2, 1.0), (3, 3 / 4), (4, 7 / 12)):
        res = make_noon(d)
        assert res.success_prob == pytest.approx(succ, abs=1e-10)
        assert res.target_fidelity == pytest.approx(1.0, abs=1e-10)
        rows = res.state.reshape(d, -1)
        marg = rows @ rows.conj().T        # qudit reduced density matrix
        ref = np.zeros(d)
        ref[0] = ref[d - 1] = 0.5
        assert np.max(np.abs(np.diag(marg).real - ref)) < 1e-10
        # the two branches hold 0 and d-1 oscillator quanta
        assert abs(rows[0, d - 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        assert abs(rows[d - 1, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)


def test_noon_cutoff_validation():
    with pytest.raises(ValueError):
        make_noon(4, cutoff=5)


def test_parity_expectation_basics():
    ket = np.zeros(6)
    ket[3] = 1.0
    assert parity_expectation(ket) == -1.0
