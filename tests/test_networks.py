"""Blocked-engine checks: networks, hybrid system, oscillator regulator,
the star bright-mode path against the blocked engine, and the chiral
resonant blocks against the full eigh."""
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from qcool import protocol
from qcool.errors import ConfigError, TruncationError
from qcool.hamiltonians import CouplingParams, Topology
from qcool.hilbert import expm_hermitian
from qcool.protocol import (ProtocolConfig, SweepRecord, _blocked_run,
                            _choose_e_cap, _resolve_factors,
                            default_cycle_time, report_cycles, run_protocol,
                            sweep_dimension)
from qcool.states import DSTParams, depolarized_qudit, \
    displaced_squeezed_thermal

import oracle
from conftest import C00_NETWORK, NETWORK_STATE, STAR_STATE


def _net_cfg(kind, d, modes, **kw):
    kw.setdefault("cycle_time", np.pi / 2)
    kw.setdefault("cutoff", 30)
    return ProtocolConfig(Topology(kind, d, modes=modes), NETWORK_STATE,
                          regulator_level=0, **kw)


def test_linear_m2_frozen():
    tr = run_protocol(_net_cfg("linear", 4, 2))
    n = report_cycles(tr, "auto", stop=0.999998, settle_tol=1.2e-5)
    assert n == 9
    assert tr.fidelity[n] == pytest.approx(0.9999958005, abs=1e-9)
    assert tr.probability[n] == pytest.approx(0.2798342634, abs=1e-9)


def test_star_m2_frozen():
    tr = run_protocol(_net_cfg("star", 6, 2))
    n = report_cycles(tr, "auto", stop=0.999998, settle_tol=1.2e-5)
    assert n == 12
    assert tr.fidelity[n] == pytest.approx(0.6549682599, abs=1e-9)
    assert tr.probability[n] == pytest.approx(0.4272467925, abs=1e-9)
    # the star never cools fully: fidelity stays near its saturation value
    assert tr.fidelity.max() < 0.66


def test_network_product_identity():
    # joint vacuum weight F_n P_n is C00^M at k=0, t=pi/2
    for kind, modes in (("linear", 2), ("star", 2), ("linear", 3)):
        tr = run_protocol(_net_cfg(kind, 3, modes, n_max=12, cutoff=25))
        fp = tr.fidelity * tr.probability
        assert np.max(np.abs(fp - fp[0])) < 1e-12
        assert fp[0] == pytest.approx(C00_NETWORK ** modes, abs=1e-8)


def test_block_vs_dense_small_network():
    # blocked engine against literal joint-space evolution (dim 50 <= 64)
    cutoff, d, modes = 5, 2, 2
    topo = Topology("linear", d, modes=modes)
    rng = np.random.default_rng(11)

    def small_rho():
        psi = np.zeros(cutoff, dtype=complex)
        psi[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        diag = np.zeros(cutoff)
        diag[:2] = rng.uniform(0.2, 1.0, size=2)
        diag /= diag.sum()
        return 0.6 * np.diag(diag).astype(complex) + 0.4 * np.outer(psi, psi.conj())

    f1, f2 = small_rho(), small_rho()
    cfg = ProtocolConfig(topo, [f1, f2], regulator_level=0, cycle_time=np.pi / 2,
                         cutoff=cutoff, n_max=5, e_max=4)
    tr = run_protocol(cfg)

    space, h = oracle.hamiltonian(topo, CouplingParams(), cutoff)
    v = oracle.compress(oracle.evolve(h, np.pi / 2), 0, space)
    cur = np.kron(f1, f2)
    for n in range(6):
        pn = float(np.real(np.trace(cur)))
        fn = float(np.real(cur[0, 0])) / pn
        assert tr.probability[n] == pytest.approx(pn, abs=1e-9)
        assert tr.fidelity[n] == pytest.approx(fn, abs=1e-9)
        cur = v @ cur @ v.conj().T


def test_hybrid_frozen_cells():
    cfg = ProtocolConfig(Topology("hybrid", 4, system_levels=2), NETWORK_STATE,
                         regulator_level=1, cutoff=35)
    tr = run_protocol(cfg)
    assert tr.fidelity[85] == pytest.approx(0.9997878914, abs=1e-9)
    assert tr.probability[85] == pytest.approx(0.3968285621, abs=1e-9)

    cfg = ProtocolConfig(Topology("hybrid", 2, system_levels=2), NETWORK_STATE,
                         regulator_level=0, cutoff=35)
    tr = run_protocol(cfg)
    n = report_cycles(tr, "auto", stop=0.9998, settle_tol=1.2e-5)
    assert n == 58
    assert tr.fidelity[n] == pytest.approx(0.6645655933, abs=1e-9)
    assert tr.probability[n] == pytest.approx(0.5969980922, abs=1e-9)


def test_hybrid_auto_appends_depolarized_qudit():
    topo = Topology("hybrid", 3, system_levels=2)
    implicit = ProtocolConfig(topo, NETWORK_STATE, regulator_level=0,
                              cutoff=25, n_max=10)
    explicit = ProtocolConfig(topo, [NETWORK_STATE, depolarized_qudit(2)],
                              regulator_level=0, cutoff=25, n_max=10)
    ti, te = run_protocol(implicit), run_protocol(explicit)
    assert np.max(np.abs(ti.fidelity - te.fidelity)) < 1e-14


def test_factor_count_mismatch():
    cfg = ProtocolConfig(Topology("linear", 3, modes=3),
                         [NETWORK_STATE, NETWORK_STATE], regulator_level=0,
                         cutoff=20, n_max=3)
    with pytest.raises(ConfigError):
        run_protocol(cfg)


def test_explicit_e_max_leak_guard():
    # a cap of 1 discards far more than the allowed 1e-6 of population
    cfg = _net_cfg("linear", 3, 2, n_max=3, e_max=1)
    with pytest.raises(TruncationError):
        run_protocol(cfg)


def test_oscillator_regulator_matches_qudit_saturation():
    # high-cutoff bosonic regulator reproduces the d=6 qudit plateau
    cfg = ProtocolConfig(Topology("star", 12, modes=2, regulator_kind="oscillator"),
                         NETWORK_STATE, regulator_level=0, cycle_time=np.pi / 2,
                         cutoff=30, n_max=20)
    tr = run_protocol(cfg)
    assert tr.fidelity[12] == pytest.approx(0.654968, abs=2e-4)
    assert tr.probability[12] == pytest.approx(0.427247, abs=2e-4)


# ------------------------------------------------ star bright-mode route

ODD_COUPLING = CouplingParams(lam=1.3, omega_a=1.2, omega_f=0.9)


@pytest.fixture
def blocked_calls(monkeypatch):
    """Topologies that reached the blocked engine through run_protocol."""
    calls = []

    def spy(topologies, *args):
        calls.extend(topologies)
        return _blocked_run(topologies, *args)

    monkeypatch.setattr(protocol, "_blocked_run", spy)
    return calls


def _oracle(cfg):
    """The blocked engine on the inputs run_protocol would give it."""
    k = cfg.regulator_level
    t = cfg.cycle_time
    if t is None:
        t = default_cycle_time(cfg.topology, k)
    factors = _resolve_factors(cfg)
    e_cap = _choose_e_cap([np.real(np.diag(f)) for f in factors], cfg.e_max)
    return _blocked_run([cfg.topology], cfg.coupling, k, t, factors, e_cap,
                        cfg.n_max)[0]


def _assert_matches_oracle(cfg, f_tol, p_tol=1e-9):
    tr = run_protocol(cfg)
    fid, prob = _oracle(cfg)
    assert np.max(np.abs(tr.fidelity - fid)) <= f_tol
    assert np.max(np.abs(tr.probability - prob)) <= p_tol


@pytest.mark.parametrize("e_max", ["pinned", None])
@pytest.mark.parametrize("coupling", [None, ODD_COUPLING])
@pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3, 5)
                                 for k in range(min(d, 3))])
@pytest.mark.parametrize("modes", [2, 3, 4])
def test_star_reduction_matches_blocked_engine(modes, d, k, coupling, e_max,
                                               blocked_calls):
    kw = {}
    if coupling is not None:
        kw = dict(coupling=coupling, cycle_time=2.1)
    if e_max == "pinned":     # adaptive caps are 5, 6, 6
        e_max = {2: 7, 3: 5, 4: 5}[modes]
    cfg = ProtocolConfig(Topology("star", d, modes=modes), STAR_STATE,
                         regulator_level=k, cutoff=20, n_max=30, e_max=e_max,
                         **kw)
    _assert_matches_oracle(cfg, 1e-9)
    assert blocked_calls == []


def test_star_reduction_k1_top_blocks(blocked_calls):
    # at k = 1 the top blocks hold oscillators above e_cap (adaptive 24);
    # P keeps a ~2e-11 gap from renormalizing each factor at the cutoff
    cfg = ProtocolConfig(Topology("star", 4, modes=2), NETWORK_STATE,
                         regulator_level=1, cycle_time=2.1, cutoff=30)
    _assert_matches_oracle(cfg, 1e-12)
    assert blocked_calls == []


@pytest.mark.parametrize("kind,regulator", [
    ("linear", "qudit"), ("star", "qudit"),
    ("linear", "oscillator"), ("star", "oscillator")],
    ids=["linear", "star", "linear-oscillator", "star-oscillator"])
def test_block_vs_dense_k1_tight_cap(kind, regulator):
    # e_max = 2 holds the whole state, but at k = 1 a mode reaches level 3;
    # a bosonic regulator stops at level d - 1 = 2 like the dense space
    cutoff, d, modes = 4, 3, 2
    topo = Topology(kind, d, modes=modes, regulator_kind=regulator)
    rng = np.random.default_rng(5)

    def small_rho():
        psi = np.zeros(cutoff, dtype=complex)
        psi[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    f1, f2 = small_rho(), small_rho()
    cfg = ProtocolConfig(topo, [f1, f2], regulator_level=1, cycle_time=1.3,
                         cutoff=cutoff, n_max=5, e_max=2)
    tr = run_protocol(cfg)

    space, h = oracle.hamiltonian(topo, CouplingParams(), cutoff)
    v = oracle.compress(oracle.evolve(h, 1.3), 1, space)
    cur = np.kron(f1, f2)
    for n in range(6):
        pn = float(np.real(np.trace(cur)))
        assert tr.probability[n] == pytest.approx(pn, abs=1e-12)
        assert tr.fidelity[n] == pytest.approx(np.real(cur[0, 0]) / pn,
                                               abs=1e-12)
        cur = v @ cur @ v.conj().T


def test_oscillator_regulator_size_matters():
    # with e_max 5 the regulator caps at min(5, d - 1): d = 6 and d = 30
    # share one basis, d = 3 cuts it
    def f20(d):
        cfg = ProtocolConfig(
            Topology("star", d, modes=2, regulator_kind="oscillator"),
            STAR_STATE, cycle_time=np.pi / 2, cutoff=12, n_max=20, e_max=5)
        return run_protocol(cfg).fidelity[20]

    assert f20(6) == f20(30)
    assert f20(6) - f20(3) > 1e-5


@pytest.mark.parametrize("case", ["density-matrix", "unequal-factors",
                                  "omega-f-list", "oscillator-regulator",
                                  "cap-beyond-cutoff"])
def test_star_fallbacks_reach_blocked_engine(case, blocked_calls):
    kw = dict(cutoff=20, n_max=10, cycle_time=np.pi / 2)
    topo = Topology("star", 3, modes=2)
    init = STAR_STATE
    if case == "density-matrix":
        init = displaced_squeezed_thermal(STAR_STATE, 20)
    elif case == "unequal-factors":
        init = [STAR_STATE, replace(STAR_STATE, nbar=0.06)]
    elif case == "omega-f-list":
        kw["coupling"] = CouplingParams(omega_f=[1.0, 1.1])
    elif case == "oscillator-regulator":
        topo = replace(topo, regulator_kind="oscillator")
    else:                     # e_cap 5 above cutoff - 1 = 4
        kw.update(cutoff=5, e_max=5)
    run_protocol(ProtocolConfig(topo, init, **kw))
    assert blocked_calls == [topo]


@pytest.mark.parametrize("modes,f_inf", [(2, 0.6549711), (3, 0.4289871)])
def test_star_saturates_at_dark_vacuum(modes, f_inf):
    # only the bright mode cools: F -> p_vac(dark)^(M-1)
    p_vac = displaced_squeezed_thermal(replace(NETWORK_STATE, alpha_mag=0.0),
                                       30)[0, 0].real
    assert p_vac ** (modes - 1) == pytest.approx(f_inf, abs=1e-7)
    tr = run_protocol(_net_cfg("star", 6, modes))
    assert tr.fidelity[100] == pytest.approx(p_vac ** (modes - 1), abs=1e-7)


# ------------------------------------------------ chiral resonant blocks

def _layout(name, d):
    kind, _, rest = name.partition("-")
    if kind == "hybrid":
        return Topology("hybrid", d, system_levels=int(rest))
    if rest == "oscillator":
        return Topology(kind, d, modes=2, regulator_kind="oscillator")
    return Topology(kind, d, modes=int(rest))


@pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3, 5)
                                 for k in range(min(d, 3))])
@pytest.mark.parametrize("layout", ["linear-2", "linear-3", "linear-4",
                                    "star-oscillator", "hybrid-3",
                                    "linear-oscillator"])
def test_chiral_matches_full_eigh(layout, d, k, monkeypatch):
    cfg = ProtocolConfig(_layout(layout, d), STAR_STATE, regulator_level=k,
                         cycle_time=2.1, cutoff=20, n_max=30)
    chiral = run_protocol(cfg)
    # no sublattices, as for a non-bipartite graph: every block takes eigh
    monkeypatch.setattr(protocol, "_sublattices", lambda edges, n_sub: None)
    full = run_protocol(cfg)
    assert np.max(np.abs(chiral.fidelity - full.fidelity)) <= 1e-11
    assert np.max(np.abs(chiral.probability - full.probability)) <= 1e-11


@pytest.mark.parametrize("omega_a", [1.0, 1.2], ids=["resonant", "detuned"])
def test_resonant_blocks_skip_full_eigh(omega_a, monkeypatch):
    # a block's joint build and its eigh run in one worker thread, so the
    # thread's last joint size pairs each eigh with its block
    joint_block, eigh, chiral_block = (protocol._joint_block, protocol.eigh,
                                       protocol._chiral_block)
    last = threading.local()
    cfg = ProtocolConfig(Topology("linear", 3, modes=2), STAR_STATE,
                         cycle_time=2.1, coupling=CouplingParams(omega_a=omega_a),
                         cutoff=20, n_max=10)
    for workers in (1, 2):
        blocks, pairs, chiral = [], [], []

        def joint_spy(*args):
            out = joint_block(*args)
            last.size = len(out[0])
            blocks.append(last.size)
            return out

        def eigh_spy(a, *args, **kwargs):
            pairs.append((last.size, len(a)))
            return eigh(a, *args, **kwargs)

        def chiral_spy(*args):
            chiral.append(1)
            return chiral_block(*args)

        monkeypatch.setattr(protocol, "_block_workers", lambda: workers)
        monkeypatch.setattr(protocol, "_joint_block", joint_spy)
        monkeypatch.setattr(protocol, "eigh", eigh_spy)
        monkeypatch.setattr(protocol, "_chiral_block", chiral_spy)
        run_protocol(cfg)
        assert len(blocks) == len(pairs) > 3
        if omega_a == 1.0:
            assert len(chiral) == len(blocks)
            assert all(m < n for n, m in pairs if n > 1)
        else:
            assert chiral == []
            assert all(m == n for n, m in pairs)


WORKER_CASES = {
    "linear-m3-chiral": ProtocolConfig(
        Topology("linear", 4, modes=3), DSTParams(
            alpha_mag=0.25, alpha_phase=0.4, r=0.05, theta=0.3, nbar=0.15),
        cycle_time=np.pi / 2, cutoff=20, n_max=40, e_max=12),
    "linear-detuned": ProtocolConfig(
        Topology("linear", 3, modes=2), NETWORK_STATE, cycle_time=2.1,
        coupling=CouplingParams(omega_a=1.2), cutoff=20, n_max=40),
    "hybrid": ProtocolConfig(
        Topology("hybrid", 4, system_levels=3), NETWORK_STATE,
        regulator_level=1, cutoff=30, n_max=40),
    "oscillator-regulator": ProtocolConfig(
        Topology("linear", 20, modes=2, regulator_kind="oscillator"),
        NETWORK_STATE, cycle_time=np.pi / 2, cutoff=25, n_max=40),
}


@pytest.mark.parametrize("case", list(WORKER_CASES))
def test_two_workers_bit_identical(case, monkeypatch):
    cfg = WORKER_CASES[case]
    monkeypatch.setattr(protocol, "_block_workers", lambda: 1)
    one = run_protocol(cfg)
    threads = set()
    joint_block = protocol._joint_block
    caller, helper_took = threading.get_ident(), threading.Event()

    def spy(*args):
        # the caller waits for the helper's first block, so both run some
        if threading.get_ident() == caller:
            helper_took.wait(timeout=30)
        else:
            helper_took.set()
        threads.add(threading.get_ident())
        return joint_block(*args)

    monkeypatch.setattr(protocol, "_block_workers", lambda: 2)
    monkeypatch.setattr(protocol, "_joint_block", spy)
    two = run_protocol(cfg)
    assert len(threads) == 2
    assert np.array_equal(one.fidelity, two.fidelity)
    assert np.array_equal(one.probability, two.probability)


class _BlockFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [1, 8], ids=["small-block", "top-block"])
def test_block_error_reaches_caller(failing, monkeypatch):
    # linear M = 3 block e_s holds (e_s + 1)(e_s + 2)/2 system states
    size = (failing + 1) * (failing + 2) // 2
    powers = protocol._block_trace_powers

    def fail(v, *args):
        if v.shape[0] == size:
            raise _BlockFailure(f"block {failing}")
        return powers(v, *args)

    monkeypatch.setattr(protocol, "_block_workers", lambda: 2)
    monkeypatch.setattr(protocol, "_block_trace_powers", fail)
    before = threading.active_count()
    cfg = replace(WORKER_CASES["linear-m3-chiral"], initial_system=STAR_STATE,
                  e_max=8)
    with pytest.raises(_BlockFailure, match=f"block {failing}"):
        run_protocol(cfg)
    assert threading.active_count() == before


# ------------------------------------------- regulator-dimension sweeps

M3_STATE = DSTParams(alpha_mag=0.25, alpha_phase=0.4, r=0.05, theta=0.3,
                     nbar=0.15)

SWEEP_CASES = {
    "linear-m3-chiral": (ProtocolConfig(
        Topology("linear", 3, modes=3), M3_STATE, cycle_time=np.pi / 2,
        cutoff=20, n_max=40, e_max=12), [3, 4, 5, 6], [0, 1]),
    "linear-detuned": (ProtocolConfig(
        Topology("linear", 3, modes=2), NETWORK_STATE, cycle_time=2.1,
        coupling=CouplingParams(omega_a=1.2), cutoff=20, n_max=40),
        [2, 3, 4], [0, 1]),
    "hybrid": (ProtocolConfig(
        Topology("hybrid", 2, system_levels=3), NETWORK_STATE, cutoff=30,
        n_max=40), [2, 3, 4, 5, 6], [0, 1]),
    "oscillator-regulator": (ProtocolConfig(
        Topology("linear", 3, modes=2, regulator_kind="oscillator"),
        NETWORK_STATE, cycle_time=np.pi / 2, cutoff=25, n_max=40),
        [3, 6, 20], [0, 1]),
    "star-unequal-factors": (ProtocolConfig(
        Topology("star", 3, modes=2),
        [STAR_STATE, replace(STAR_STATE, nbar=0.06)], cycle_time=2.1,
        cutoff=20, n_max=40), [2, 3, 5], [0, 1, 2]),
    "unsorted-d-list": (ProtocolConfig(
        Topology("linear", 3, modes=2), NETWORK_STATE, cycle_time=np.pi / 2,
        cutoff=25, n_max=40), [5, 2, 4], [0, 1]),
    "repeated-d-list": (ProtocolConfig(
        Topology("linear", 3, modes=2), NETWORK_STATE, cycle_time=np.pi / 2,
        cutoff=25, n_max=40), [4, 3, 4, 3], [0]),
    "single": (ProtocolConfig(
        Topology("single", 2), NETWORK_STATE, cutoff=50, n_max=40),
        [2, 3, 4, 5, 6], [0, 1, 2]),
    "star-m3-bright": (ProtocolConfig(
        Topology("star", 3, modes=3), STAR_STATE, cycle_time=2.1,
        cutoff=20, n_max=40), [2, 3, 5], [0, 1, 2]),
}
# populations a sweep builds: one state for a single oscillator; the
# factors, bright and dark modes for a star; none on the blocked engine
SWEEP_DST_CALLS = {"single": 1, "star-m3-bright": 3}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_matches_cell_runs(case, workers, monkeypatch):
    # one pass over the blocks for every d gives each cell's run alone,
    # bit for bit, record by record in d_list order
    base, d_list, k_list = SWEEP_CASES[case]
    monkeypatch.setattr(protocol, "_block_workers", lambda: 1)
    cells = [(d, k) for d in d_list for k in k_list if k < d]
    alone = [run_protocol(replace(base, topology=replace(
        base.topology, regulator_levels=d), regulator_level=k))
        for d, k in cells]
    runs, dst_calls = [], []
    run_cells, dst_populations = protocol._run_cells, protocol.dst_populations

    def spy(*args):
        runs.append(run_cells(*args))
        return runs[-1]

    def dst_spy(*args):
        dst_calls.append(args)
        return dst_populations(*args)

    monkeypatch.setattr(protocol, "_block_workers", lambda: workers)
    monkeypatch.setattr(protocol, "_run_cells", spy)
    monkeypatch.setattr(protocol, "dst_populations", dst_spy)
    recs = sweep_dimension(base, d_list, k_list, report="auto")
    assert len(runs) == 1 and len(runs[0]) == len(alone)
    assert len(dst_calls) == SWEEP_DST_CALLS.get(case, 0)
    for (d, k), rec, one, tr in zip(cells, recs, alone, runs[0]):
        assert np.array_equal(one.fidelity, tr.fidelity)
        assert np.array_equal(one.probability, tr.probability)
        assert one.converged_at == tr.converged_at
        n = report_cycles(one, "auto")
        assert rec == SweepRecord(d, k, n, float(one.fidelity[n]),
                                  float(one.probability[n]))


def test_sweep_shares_blocks_across_dimensions(monkeypatch):
    # linear M = 3, k = 0: block e_s holds regulator levels 0..e_s, so
    # dimension d sees the prefix of levels below min(d, e_s + 1); each
    # distinct prefix takes one chiral V, each block one joint build
    d_list, e_max, k = [3, 4, 5, 6], 16, 0
    counts = {"joint": 0, "chiral": 0}
    joint_block, chiral_block = protocol._joint_block, protocol._chiral_block

    def joint_spy(*args):
        counts["joint"] += 1
        return joint_block(*args)

    def chiral_spy(*args):
        counts["chiral"] += 1
        return chiral_block(*args)

    monkeypatch.setattr(protocol, "_joint_block", joint_spy)
    monkeypatch.setattr(protocol, "_chiral_block", chiral_spy)
    base = ProtocolConfig(Topology("linear", 3, modes=3), M3_STATE,
                          cycle_time=np.pi / 2, cutoff=30, n_max=10,
                          e_max=e_max)
    sweep_dimension(base, d_list, [k])
    prefixes = sum(len({min(d, e_s + k + 1) for d in d_list})
                   for e_s in range(e_max + 1))
    assert prefixes == 56
    assert counts == {"joint": e_max + 1, "chiral": prefixes}


@pytest.mark.parametrize("failing", [4, 8], ids=["small-block", "top-block"])
def test_sweep_error_in_one_dimension_reaches_caller(failing, monkeypatch):
    # the d = 4 prefix of block e_s = failing fails; d = 3 and 5 do not
    chiral_block = protocol._chiral_block

    def fail(joint, *args):
        if joint[:, -1].max() == 3 and joint[0].sum() == failing:
            raise _BlockFailure(f"block {failing}")
        return chiral_block(joint, *args)

    monkeypatch.setattr(protocol, "_block_workers", lambda: 2)
    monkeypatch.setattr(protocol, "_chiral_block", fail)
    before = threading.active_count()
    base = replace(SWEEP_CASES["linear-m3-chiral"][0],
                   initial_system=STAR_STATE, e_max=8)
    with pytest.raises(_BlockFailure, match=f"block {failing}"):
        sweep_dimension(base, [3, 4, 5], [0])
    assert threading.active_count() == before


def test_sweep_validates_every_cell_first(monkeypatch):
    # hybrid default times exist for k <= 1: the (3, 2) cell is invalid,
    # and no block of the valid (3, 0) cell before it runs
    calls = []
    powers = protocol._block_trace_powers
    monkeypatch.setattr(protocol, "_block_trace_powers",
                        lambda *args: calls.append(1) or powers(*args))
    base = ProtocolConfig(Topology("hybrid", 3), NETWORK_STATE, cutoff=30,
                          n_max=10)
    with pytest.raises(ConfigError, match="k=0,1 only"):
        sweep_dimension(base, [3, 4], [0, 2])
    assert calls == []


def test_star_default_time_keeps_the_vacuum():
    # the bright mode couples at sqrt(3): at the single-oscillator time pi
    # its vacuum amplitude would be |cos(sqrt(3) pi)| = 0.67 per cycle,
    # and F would end near 1e-14
    state = DSTParams(alpha_mag=0.1, r=0.03, nbar=0.2)
    tr = run_protocol(ProtocolConfig(Topology("star", 4, modes=3), state,
                                     regulator_level=1, cutoff=30, n_max=40))
    assert tr.fidelity[-1] > 0.5


@pytest.mark.parametrize("topo,k", [
    (Topology("linear", 3, modes=2), 1), (Topology("linear", 3, modes=3), 1),
    (Topology("single", 3, regulator_kind="oscillator"), 2),
    (Topology("single", 4, regulator_kind="oscillator"), 3)],
    ids=["linear-m2-k1", "linear-m3-k1", "oscillator-k2", "oscillator-k3"])
def test_default_time_rejected_where_it_empties_the_vacuum(topo, k,
                                                           monkeypatch):
    # the single-oscillator optimum leaves |lambda_0| at 0.37, 0.16, 0.78
    # and 0.32 on these runs; each k = 0 cell before the bad one is valid
    def refuse(*args, **kw):
        raise AssertionError("a block ran")

    monkeypatch.setattr(protocol, "_blocked_run", refuse)
    monkeypatch.setattr(protocol, "effective_lambdas", refuse)
    base = ProtocolConfig(topo, NETWORK_STATE, cutoff=20, n_max=10)
    with pytest.raises(ConfigError, match=r"set \[protocol\] t"):
        sweep_dimension(base, [topo.regulator_levels], [0, k])
    with pytest.raises(ConfigError, match=r"set \[protocol\] t"):
        run_protocol(replace(base, regulator_level=k))


def test_map_blocks_takes_each_block_once():
    # a short switch interval interleaves the two workers' takes; a block
    # taken twice or lost breaks the call list or the result
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = protocol._map_blocks(lambda i: calls.append(i) or i * i, 3000, 2)
    finally:
        sys.setswitchinterval(interval)
    assert out == [i * i for i in range(3000)]
    assert sorted(calls) == list(range(3000))


@pytest.mark.parametrize("openblas,omp,cpus,workers", [
    (None, None, 2, 1),
    ("1", None, 2, 2),
    ("2", None, 2, 1),
    (None, "1", 2, 2),
    ("2", "1", 2, 1),       # OPENBLAS_NUM_THREADS wins over OMP_NUM_THREADS
    ("0", "1", 2, 2),       # a non-positive value falls through, as in OpenBLAS
    ("1", None, 1, 1),
], ids=["unset", "openblas-1", "openblas-2", "omp-1", "openblas-over-omp",
        "openblas-0", "one-cpu"])
def test_block_workers_rule(openblas, omp, cpus, workers, monkeypatch):
    for var, value in (("OPENBLAS_NUM_THREADS", openblas),
                       ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(protocol.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    assert protocol._block_workers() == workers


def test_chiral_zero_modes():
    # linear M = 2, block E = 2: |A| = 4 > |B| = 2, so B B^T has two zero
    # modes; the real-gauge V still matches the full exponential
    topo = Topology("linear", 3, modes=2)
    caps, bos = protocol._sub_caps(topo, 4)
    edges = topo.coupling_edges(CouplingParams())
    joint, rows, hops = protocol._joint_block(2, 0, caps, bos, edges)
    colour = protocol._sublattices(edges, len(caps))
    n_b = np.count_nonzero(joint[:, colour == 1].sum(axis=1) % 2)
    assert (len(joint) - n_b, n_b) == (4, 2)
    t = 2.1
    w, dph = protocol._chiral_block(joint, hops, colour, rows, t)
    h = protocol._block_hamiltonian(joint, hops, [1.0] * len(caps))
    # the free part is 2 omega on this block: an outer phase
    v = expm_hermitian(h, t, rows=rows) * np.exp(2j * t)
    assert np.max(np.abs(dph[:, None] * v / dph[None, :] - w)) < 1e-13


def _iterated_traces(v, rho, n_max):
    cur, out = rho.astype(complex), []
    for _ in range(n_max + 1):
        out.append(np.real(np.trace(cur)))
        cur = v @ cur @ v.conj().T
    return np.array(out)


@pytest.mark.parametrize("lower", [1e-18, 0.01], ids=["defective", "diagonalisable"])
def test_block_trace_powers_2x2(lower):
    # [[a, 1], [1e-18, a]] has eigenvectors parallel to ~1e-9; products
    # need no eigenvectors, so both blocks match iteration alike
    v = np.array([[0.3, 1.0], [lower, 0.3]], dtype=complex)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    tr = np.zeros(41)
    protocol._block_trace_powers(v, rho, 40, tr)
    assert np.max(np.abs(tr - _iterated_traces(v, rho, 40))) <= 1e-12


@pytest.mark.parametrize("n_max", [1, 2, 3, 7, 100, 101, 250])
@pytest.mark.parametrize("dtype", [float, complex])
def test_block_trace_powers_random(dtype, n_max):
    # n_max 1..3 and 100/101 sit on the edges of the baby/giant split;
    # spectral radius 1.01 with a norm above 1, so V is no contraction
    rng = np.random.default_rng(n_max)
    v, g = rng.normal(size=(2, 9, 9)) + (
        1j * rng.normal(size=(2, 9, 9)) if dtype is complex else 0)
    v *= 1.01 / np.max(np.abs(np.linalg.eigvals(v)))
    assert np.linalg.norm(v, 2) > 1.0
    rho = g @ g.conj().T / np.linalg.norm(g) ** 2
    tr = np.zeros(n_max + 1)
    protocol._block_trace_powers(v, rho, n_max, tr)
    ref = _iterated_traces(v, rho, n_max)
    assert np.max(np.abs(tr - ref) / ref) <= 1e-13


def test_block_trace_powers_one_state():
    v, rho = np.array([[0.6 - 0.7j]]), np.array([[0.37 + 0j]])
    tr = np.zeros(31)
    protocol._block_trace_powers(v, rho, 30, tr)
    mag = np.abs(v[0, 0]) ** 2
    assert np.array_equal(tr, 0.37 * mag ** np.arange(31))


@pytest.mark.parametrize("case", list(WORKER_CASES))
def test_blocked_run_takes_one_trace_path(case, monkeypatch):
    # no eigendecomposition of V anywhere, and chiral blocks reach the
    # trace kernel real; the thread's last block kind pairs each call
    calls, kinds = [], []
    last = threading.local()
    for mod, name in ((np.linalg, "eig"), (np.linalg, "inv"), (np, "vander")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=getattr(mod, name),
                            **kw: calls.append(_n) or _f(*a, **kw))
    joint_block, chiral_block, powers = (protocol._joint_block,
                                         protocol._chiral_block,
                                         protocol._block_trace_powers)

    def joint_spy(*args):
        last.chiral = False
        return joint_block(*args)

    def chiral_spy(*args):
        last.chiral = True
        return chiral_block(*args)

    def powers_spy(v, rho, *args):
        kinds.append((last.chiral, np.isrealobj(v), np.isrealobj(rho)))
        return powers(v, rho, *args)

    monkeypatch.setattr(protocol, "_joint_block", joint_spy)
    monkeypatch.setattr(protocol, "_chiral_block", chiral_spy)
    monkeypatch.setattr(protocol, "_block_trace_powers", powers_spy)
    run_protocol(WORKER_CASES[case])
    assert calls == []
    assert len(kinds) > 3
    chiral = case != "linear-detuned"
    assert all(kind == (chiral, chiral, chiral) for kind in kinds)
