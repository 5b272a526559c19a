import numpy as np
import pytest

from qcool import gaussian
from qcool.cli import main
from qcool.errors import ConfigError, ConstructionError
from qcool.gaussian import (_condition, _vacuum_weight, dst_moments,
                            oneshot_stack, symplectic_from_hamiltonian)
from qcool.states import DSTParams, displaced_squeezed_thermal

import oracle


# two resonant modes exchange-coupled at 1, as oneshot_stack evolves them
SWAP = np.array([[1.0, 1.0], [1.0, 1.0]])


def _omega(m):
    return np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_single_mode_free_rotation():
    for wt in (0.3, 1.0, 2.5):
        s = symplectic_from_hamiltonian(np.array([[1.0]]), wt)
        ref = np.array([[np.cos(wt), np.sin(wt)], [-np.sin(wt), np.cos(wt)]])
        assert np.max(np.abs(s - ref)) < 1e-12


def test_swap_at_quarter_period():
    s = symplectic_from_hamiltonian(SWAP, np.pi / 2)
    ref = np.zeros((4, 4))
    ref[0, 2] = ref[1, 3] = ref[2, 0] = ref[3, 1] = -1.0  # a1 <-> -a2
    assert np.max(np.abs(s - ref)) < 1e-12


def test_symplectic_condition(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = a + a.conj().T
    s = symplectic_from_hamiltonian(a, 0.8)
    om = _omega(3)
    assert np.max(np.abs(s @ om @ s.T - om)) < 1e-12


def test_rejects_non_hermitian_coupling():
    with pytest.raises(ConstructionError):
        symplectic_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_state_validation():
    with pytest.raises(ConfigError, match="nbar must be >= 0"):
        dst_moments(0.0, 0.0, 0.0, -0.5)
    with pytest.raises(ConfigError, match="finite"):
        dst_moments(0.0, 0.0, np.inf, 0.0)


def test_vacuum_projection_of_vacuum():
    mean, cov = np.zeros(4), 0.5 * np.eye(4)
    assert _vacuum_weight(mean, cov, [0, 1, 2, 3]) == pytest.approx(1.0)
    assert _vacuum_weight(mean, cov, [2, 3]) == pytest.approx(1.0)


def test_coherent_state_projection():
    # |<0|alpha>|^2 = exp(-|alpha|^2)
    mean, cov = dst_moments(0.7, 0.2, 0.0, 0.0)
    assert _vacuum_weight(mean, cov, [0, 1]) == pytest.approx(
        np.exp(-(0.7 ** 2 + 0.2 ** 2)), abs=1e-12)


def test_oneshot_cools_to_exact_vacuum():
    for a1, a2, r, nb in ((0.0, 0.0, 0.0, 0.0), (0.4, 0.0, 0.1, 0.4),
                          (1.0, 0.5, 0.5, 1.0), (0.3, -0.2, 0.25, 0.7)):
        res = oneshot_stack([a1], [a2], [r], [nb])
        assert np.max(np.abs(res.mean[0])) < 1e-9
        assert np.max(np.abs(res.cov[0] - 0.5 * np.eye(2))) < 1e-9
        assert res.fidelity[0] == pytest.approx(1.0, abs=1e-9)


def test_oneshot_formula_matches_projector_over_pi():
    for a1, a2, r, nb in ((0.0, 0.0, 0.0, 0.0), (0.4, 0.0, 0.1, 0.4),
                          (1.0, 0.5, 0.5, 1.0), (0.2, 0.3, 0.45, 0.9)):
        res = oneshot_stack([a1], [a2], [r], [nb])
        ref = oracle.oneshot_probability_formula(a1, a2, r, nb)
        assert res.prob_formula[0] == pytest.approx(ref, rel=1e-12)
        assert res.prob_formula[0] == pytest.approx(
            res.prob_projector[0] / np.pi, rel=1e-12)


def test_oneshot_probability_equals_initial_vacuum_population():
    # at t = pi/2 the regulator carries exactly the initial system state
    p = DSTParams(0.4, np.pi / 2, 0.1, theta=np.pi, nbar=0.4)
    rho = displaced_squeezed_thermal(p, 60)
    res = oneshot_stack([0.0], [0.4], [0.1], [0.4])
    assert res.prob_projector[0] == pytest.approx(
        float(np.real(rho[0, 0])), abs=1e-9)


def test_partial_swap_leaves_thermal_noise():
    res = oneshot_stack([0.5], [0.0], [0.2], [0.5], t=0.7)
    assert res.fidelity[0] < 0.999


def test_moments_match_fock_engine():
    # dst_moments widens x; the Fock builder does that at theta = pi
    for alpha, r, nb in ((0.4 + 0.0j, 0.1, 0.4), (0.3 + 0.5j, 0.3, 0.0),
                         (0.0, 0.45, 0.8)):
        p = DSTParams(abs(alpha), float(np.angle(alpha)) if alpha else 0.0,
                      r, theta=np.pi, nbar=nb)
        rho = displaced_squeezed_thermal(p, 80)
        got = oracle.moments_from_density(rho)
        ref = dst_moments(alpha.real, alpha.imag, r, nb)
        assert np.max(np.abs(got[0] - ref[0])) < 1e-6
        assert np.max(np.abs(got[1] - ref[1])) < 1e-6


def test_conditioning_consistency_random(rng):
    # the Schur-complement moments, stacked, equal the information form:
    # the vacuum projector adds precision 2 I on the measured quadratures,
    # and the kept moments are the marginal of (V^-1 + 2 E E^T)^-1
    n = 5
    mean = rng.normal(size=(n, 4))
    cov = rng.normal(size=(n, 4, 4))
    cov = cov @ np.swapaxes(cov, -1, -2) + 2.0 * np.eye(4)
    c_mean, c_cov, prob = _condition(mean, cov, [2, 3], [0, 1])
    assert c_mean.shape == (n, 2) and c_cov.shape == (n, 2, 2)
    for i in range(n):
        prec = np.linalg.inv(cov[i])
        joint = np.linalg.inv(prec + np.diag([0.0, 0.0, 2.0, 2.0]))
        assert np.allclose(c_cov[i], joint[:2, :2], rtol=0, atol=1e-12)
        assert np.allclose(c_mean[i], (joint @ prec @ mean[i])[:2], rtol=0,
                           atol=1e-12)
        assert prob[i] == _vacuum_weight(mean[i], cov[i], [2, 3])


def test_evolve_preserves_purity_class():
    # symplectic evolution preserves det(cov) (purity of the Gaussian state)
    cov = 0.5 * np.eye(4)
    cov[:2, :2] = dst_moments(0.3, 0.0, 0.2, 0.0)[1]
    s = symplectic_from_hamiltonian(SWAP, 0.9)
    assert np.linalg.det(s @ cov @ s.T) == pytest.approx(np.linalg.det(cov),
                                                         rel=1e-10)


def test_oneshot_grid_builds_the_swap_once(tmp_path, monkeypatch):
    calls = []

    def spy(a_mat, t):
        calls.append(t)
        return symplectic_from_hamiltonian(a_mat, t)

    monkeypatch.setattr(gaussian, "symplectic_from_hamiltonian", spy)
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[experiment]\nkind = gaussian\n[gaussian]\n"
                   "alpha1 = 0,0.3\nalpha2 = 0.1,0.4\nr = 0.1,0.2\n"
                   "nbar = 0,0.5\n")
    assert main(["run", str(cfg)]) == 0
    assert calls == [np.pi / 2]


@pytest.mark.parametrize("t", [np.pi / 2, 0.7])
def test_oneshot_stack_matches_points(t, rng, monkeypatch):
    # every stacked point is its length-1 run bit for bit, with one
    # transfer-matrix build per call, for the whole grid
    calls = []

    def spy(a_mat, t):
        calls.append(t)
        return symplectic_from_hamiltonian(a_mat, t)

    monkeypatch.setattr(gaussian, "symplectic_from_hamiltonian", spy)
    n = 40
    a1, a2 = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    r, nbar = rng.uniform(-0.6, 0.6, n), rng.uniform(0.0, 2.0, n)
    nbar[:4] = 0.0
    res = oneshot_stack(a1, a2, r, nbar, t)
    assert calls == [t]
    assert res.mean.shape == (n, 2) and res.cov.shape == (n, 2, 2)
    for i in range(n):
        one = oneshot_stack(a1[i:i + 1], a2[i:i + 1], r[i:i + 1],
                            nbar[i:i + 1], t)
        for name in ("fidelity", "prob_formula", "prob_projector", "mean",
                     "cov"):
            assert np.array_equal(getattr(res, name)[i],
                                  getattr(one, name)[0])
    assert calls == [t] * (n + 1)


@pytest.mark.parametrize("args", [
    (np.nan, 0.0, 0.0, 0.0), (0.0, np.inf, 0.0, 0.0), (0.0, 0.0, np.nan, 0.0),
    (0.0, 0.0, 0.0, np.nan), (0.0, 0.0, 0.0, -0.5), (0.0, 0.0, 0.0, 0.0, -1.0),
    (0.0, 0.0, 0.0, 0.0, np.nan), (0.0, 0.0, 0.0, 0.0, np.inf)],
    ids=["alpha1-nan", "alpha2-inf", "r-nan", "nbar-nan", "nbar-negative",
         "t-negative", "t-nan", "t-inf"])
def test_oneshot_rejects_bad_inputs(args, monkeypatch):
    def refuse(a_mat, t):
        raise AssertionError("evolved")

    monkeypatch.setattr(gaussian, "symplectic_from_hamiltonian", refuse)
    point, t = args[:4], args[4:]
    with pytest.raises(ConfigError):
        oneshot_stack(*[[x] for x in point], *t)
    with pytest.raises(ConfigError):
        oneshot_stack(*[[0.1, x] for x in point], *t)


def test_oneshot_stack_rejects_unequal_lengths():
    with pytest.raises(ConfigError, match="equal lengths"):
        oneshot_stack([0.1, 0.2], [0.0], [0.0], [0.0])
