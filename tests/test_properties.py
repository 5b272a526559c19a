"""Randomized invariant checks."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcool.cli import EXPERIMENTS, canonical_form, load_config
from qcool.gaussian import dst_moments, symplectic_from_hamiltonian
from qcool.hamiltonians import CouplingParams, Topology
from qcool.protocol import ProtocolConfig, run_protocol
from qcool.states import DSTParams, displaced_squeezed_thermal
from qcool.stateprep import make_cat, make_hybrid_entangled, make_noon, \
    make_odd_cat

import oracle

UNIT = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def dk_pairs(draw, d_max=6):
    d = draw(st.integers(2, d_max))
    k = draw(st.integers(0, d - 1))
    return d, k


@settings(max_examples=40, deadline=None)
@given(dk_pairs(), st.floats(0.05, 8.0), st.floats(0.0, 0.8), st.floats(0.0, 0.3))
def test_product_identity_against_independent_lambda(dk, t, nbar, alpha):
    # F_n P_n must equal C00 |lambda_0|^{2n}, with |lambda_0| taken from the
    # oracle's independent tridiagonal evaluation
    d, k = dk
    p = DSTParams(alpha_mag=alpha, nbar=nbar)
    cfg = ProtocolConfig(Topology("single", d), p, regulator_level=k,
                         cycle_time=t, n_max=15, cutoff=40)
    tr = run_protocol(cfg)
    c00 = float(np.real(displaced_squeezed_thermal(p, 40)[0, 0]))
    mag = float(np.abs(oracle.vacuum_series(k, np.array([t]))[0]))
    ref = c00 * mag ** (2 * np.arange(16))
    assert np.max(np.abs(tr.fidelity * tr.probability - ref)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(dk_pairs(), st.floats(0.05, 8.0), st.floats(0.0, 1.2))
def test_probability_never_increases(dk, t, nbar):
    d, k = dk
    cfg = ProtocolConfig(Topology("single", d), DSTParams(nbar=nbar),
                         regulator_level=k, cycle_time=t, n_max=12, cutoff=35)
    tr = run_protocol(cfg)
    assert np.all(np.diff(tr.probability) <= 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.floats(0.05, 6.0))
def test_compression_is_blockdiagonal_contraction(d, k, t):
    if k >= d:
        k = d - 1
    topo = Topology("single", d)
    space, h = oracle.hamiltonian(topo, CouplingParams(), cutoff=12)
    v = oracle.compress(oracle.evolve(h, t), k, space)
    assert np.linalg.norm(v, 2) <= 1.0 + 1e-9
    assert oracle.offblock(v, (12,)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.floats(0.05, 6.0), st.integers(0, 10 ** 6))
def test_symplectic_condition_random_hamiltonian(m, t, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    a = a + a.conj().T
    s = symplectic_from_hamiltonian(a, t)
    om = np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.max(np.abs(s @ om @ s.T - om)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["single", "linear", "star", "hybrid"]),
       st.integers(2, 4), st.floats(0.1, 4.0))
def test_hamiltonians_conserve_and_evolve_unitarily(kind, d, t):
    modes = 2 if kind in ("linear", "star") else 1
    topo = Topology(kind, d, modes=modes)
    space, h = oracle.hamiltonian(topo, CouplingParams(lam_tilde=0.7), cutoff=4)
    assert np.max(np.abs(h - h.conj().T)) < 1e-10
    assert oracle.offblock(h, space) <= 1e-10
    u = oracle.evolve(h, t)
    assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(UNIT, st.floats(0.0, 2 * np.pi), st.floats(0.0, 0.5), UNIT)
def test_gaussian_fock_moment_agreement(amag, phase, r, nbar):
    p = DSTParams(amag, phase, r, theta=np.pi, nbar=nbar)
    # at the domain corner (|alpha| = 1, r = 0.5, nbar = 1) the Fock tail
    # past level 80 shifts Var(x) by 2e-6; past level 120 by 4e-10
    rho = displaced_squeezed_thermal(p, 120)
    got = oracle.moments_from_density(rho)
    ref = dst_moments(amag * np.cos(phase), amag * np.sin(phase), r, nbar)
    assert np.max(np.abs(got[0] - ref[0])) < 1e-6
    assert np.max(np.abs(got[1] - ref[1])) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 1.5), st.sampled_from([2, 4]))
def test_cat_parity_and_normalization(alpha, n_comp):
    res = make_cat(alpha, n_comp)
    assert abs(np.linalg.norm(res.state) - 1.0) < 1e-8
    assert abs(res.extra["parity"] - 1.0) < 1e-8
    assert 0.0 < res.success_prob <= 1.0
    if n_comp == 2:
        odd = make_odd_cat(res)
        assert abs(np.linalg.norm(odd.state) - 1.0) < 1e-8
        assert abs(odd.extra["parity"] + 1.0) < 1e-8
        assert 0.0 < odd.success_prob <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.floats(0.0, 0.4))
def test_prep_success_and_norm_invariants(d, r):
    for res in (make_hybrid_entangled(d, r), make_noon(d)):
        assert abs(np.linalg.norm(res.state) - 1.0) < 1e-8
        assert 0.0 < res.success_prob <= 1.0
        assert 0.0 <= res.target_fidelity <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(UNIT, st.floats(0.0, 0.5), UNIT, dk_pairs(5),
       st.integers(3, 30), st.booleans())
def test_config_roundtrip(alpha, r, nbar, dk, n_max, explicit_t):
    d, k = dk
    text = (
        "[experiment]\nkind = cool\n"
        f"[state]\nalpha = {alpha!r}\nr = {r!r}\nnbar = {nbar!r}\n"
        f"[regulator]\nd = {d}\nk = {k}\n"
        f"[protocol]\nn_max = {n_max}\n"
    )
    if explicit_t:
        text += "t = 2.5\n"
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        canon = canonical_form(load_config(path))
        with open(path, "w") as fh:
            fh.write(canon)
        assert canonical_form(load_config(path)) == canon
    finally:
        os.unlink(path)


# a minimal config of every experiment kind
MINIMAL = {
    "cool": "",
    "sweep-energy": "[sweep]\nnbar_grid = 0.5,1\n",
    "sweep-dim": "[sweep]\nd_list = 2,3\nk_list = 0\n",
    "network": "[topology]\nkind = star\nmodes = 2\n[sweep]\nd_list = 3\n",
    "hybrid": "[topology]\nkind = hybrid\n[sweep]\nds_list = 2,3\n",
    "gaussian": "[gaussian]\nr = 0.1,0.2\n",
    "opt-time": "[regulator]\nd = 3\n",
    "prep": "[prep]\nkinds = cat,noon\n",
}
COMMITTED = sorted((Path(__file__).resolve().parent.parent
                    / "experiments").glob("*.cfg"))


def test_minimal_configs_cover_every_kind():
    assert set(MINIMAL) == set(EXPERIMENTS)
    assert len(COMMITTED) == 14


@pytest.mark.parametrize("source", [f"kind:{k}" for k in MINIMAL]
                         + [c.name for c in COMMITTED])
def test_config_roundtrip_every_kind(tmp_path, source):
    # canonical_form is a fixed point for each kind's read set
    if source.startswith("kind:"):
        kind = source[len("kind:"):]
        text = f"[experiment]\nkind = {kind}\n" + MINIMAL[kind]
    else:
        text = (COMMITTED[0].parent / source).read_text()
    first = tmp_path / "a.cfg"
    first.write_text(text)
    cfg = load_config(first)
    canon = canonical_form(cfg)
    again = tmp_path / "b.cfg"
    again.write_text(canon)
    assert load_config(again) == cfg
    assert canonical_form(load_config(again)) == canon
