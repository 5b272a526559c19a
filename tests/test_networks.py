"""Blocked-engine checks: networks, hybrid system, oscillator regulator,
the star bright-mode path against the blocked engine, and the chiral
resonant blocks against the full eigh."""
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from qcool import protocol
from qcool.errors import ConfigError, TruncationError
from qcool.hamiltonians import TOPOLOGY_KINDS, CouplingParams, Topology
from qcool.hilbert import expm_hermitian
from qcool.protocol import (ProtocolConfig, ReportRule, SweepRecord,
                            _blocked_run, _choose_e_cap, _resolve_factors,
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
    n = report_cycles(tr, ReportRule("auto", stop=0.999998, settle_tol=1.2e-5))
    assert n == 9
    assert tr.fidelity[n] == pytest.approx(0.9999958005, abs=1e-9)
    assert tr.probability[n] == pytest.approx(0.2798342634, abs=1e-9)


def test_star_m2_frozen():
    tr = run_protocol(_net_cfg("star", 6, 2))
    n = report_cycles(tr, ReportRule("auto", stop=0.999998, settle_tol=1.2e-5))
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
    n = report_cycles(tr, ReportRule("auto", stop=0.9998, settle_tol=1.2e-5))
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
        t = default_cycle_time(cfg.topology, k, cfg.coupling).t_opt
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
    # no colouring, as off resonance: every block takes the full eigh
    monkeypatch.setattr(protocol, "_chiral_colours", lambda topo, params: None)
    full = run_protocol(cfg)
    assert np.max(np.abs(chiral.fidelity - full.fidelity)) <= 1e-11
    assert np.max(np.abs(chiral.probability - full.probability)) <= 1e-11


@pytest.mark.parametrize("layout", ["linear-2", "linear-3", "linear-4",
                                    "hybrid-3", "linear-oscillator"])
def test_chiral_block_matches_per_dimension_oracle(layout, monkeypatch):
    # each (block, d) V and the phased rho equal those built from scratch
    # at that d alone (hop filter, B by np.add.at), bit for bit
    preps, seen = {}, []
    chiral_prep, chiral_block = protocol._chiral_prep, protocol._chiral_block

    def prep_spy(*args):
        blk = chiral_prep(*args)
        preps[id(blk)] = blk, args
        return blk

    def chiral_spy(blk, corner, t):
        w = chiral_block(blk, corner, t)
        joint, rows, hops, colour, rho, ends = preps[id(blk)][1]
        end = ends[blk.corners.index(corner)]
        w_ref, dph = oracle.chiral_block(joint, hops, colour, rows, end, t)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(blk.rho, np.real(
            dph[:, None] * rho * dph.conj()[None, :]))
        seen.append((id(blk), end))
        return w

    monkeypatch.setattr(protocol, "_block_workers", lambda: 1)
    monkeypatch.setattr(protocol, "_chiral_prep", prep_spy)
    monkeypatch.setattr(protocol, "_chiral_block", chiral_spy)
    cfg = ProtocolConfig(_layout(layout, 2), STAR_STATE, cycle_time=2.1,
                         cutoff=20, n_max=10)
    sweep_dimension(cfg, [2, 3, 4, 5, 6], [0, 1, 2])
    # every distinct prefix of every block, over the three k
    assert len(preps) > 3 * 3
    assert sorted(seen) == sorted({(key, end) for key, (_, args) in
                                   preps.items() for end in args[5]})


@pytest.mark.parametrize("omega_a", [1.0, 1.2], ids=["resonant", "detuned"])
def test_resonant_blocks_skip_full_eigh(omega_a, monkeypatch):
    # a block's joint build and its eigh run in one worker thread, so the
    # thread's last joint size pairs each eigh with its block
    joint_block, eigh, chiral_prep, chiral_block = (
        protocol._joint_block, protocol.eigh, protocol._chiral_prep,
        protocol._chiral_block)
    last = threading.local()
    cfg = ProtocolConfig(Topology("linear", 3, modes=2), STAR_STATE,
                         cycle_time=2.1, coupling=CouplingParams(omega_a=omega_a),
                         cutoff=20, n_max=10)
    for workers in (1, 2):
        blocks, pairs, preps, chiral = [], [], [], []

        def joint_spy(*args):
            out = joint_block(*args)
            last.size = len(out[0])
            blocks.append(last.size)
            return out

        def eigh_spy(a, *args, **kwargs):
            pairs.append((last.size, len(a)))
            return eigh(a, *args, **kwargs)

        def prep_spy(*args):
            preps.append(1)
            return chiral_prep(*args)

        def chiral_spy(*args):
            chiral.append(1)
            return chiral_block(*args)

        monkeypatch.setattr(protocol, "_block_workers", lambda: workers)
        monkeypatch.setattr(protocol, "_joint_block", joint_spy)
        monkeypatch.setattr(protocol, "eigh", eigh_spy)
        monkeypatch.setattr(protocol, "_chiral_prep", prep_spy)
        monkeypatch.setattr(protocol, "_chiral_block", chiral_spy)
        run_protocol(cfg)
        assert len(blocks) == len(pairs) > 3
        if omega_a == 1.0:
            assert len(preps) == len(chiral) == len(blocks)
            assert all(m < n for n, m in pairs if n > 1)
        else:
            assert preps == chiral == []
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
        # the caller waits for the helper's first block, so both run some;
        # not at the vacuum block (e_tot = k), built before the helper starts
        if threading.get_ident() == caller:
            if args[0] != args[1]:
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
    rule = ReportRule("auto")
    recs = sweep_dimension(base, d_list, k_list, rule)
    assert len(runs) == 1 and len(runs[0]) == len(alone)
    assert len(dst_calls) == SWEEP_DST_CALLS.get(case, 0)
    for (d, k), rec, one, tr in zip(cells, recs, alone, runs[0]):
        assert np.array_equal(one.fidelity, tr.fidelity)
        assert np.array_equal(one.probability, tr.probability)
        assert rule.converged(one.fidelity) == rule.converged(tr.fidelity)
        n = report_cycles(one, rule)
        assert rec == SweepRecord(d, k, n, float(one.fidelity[n]),
                                  float(one.probability[n]))


def test_sweep_shares_blocks_across_dimensions(monkeypatch):
    # linear M = 3, k = 0: block e_s holds regulator levels 0..e_s, so
    # dimension d sees the prefix of levels below min(d, e_s + 1); each
    # distinct prefix takes one chiral V, and with one worker each block
    # one joint build and one build of its d-independent chiral data
    d_list, e_max, k = [3, 4, 5, 6], 16, 0
    counts = {"_joint_block": 0, "_chiral_prep": 0, "_chiral_block": 0}
    monkeypatch.setattr(protocol, "_block_workers", lambda: 1)

    def counted(name):
        fn = getattr(protocol, name)

        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    for name in counts:
        monkeypatch.setattr(protocol, name, counted(name))
    base = ProtocolConfig(Topology("linear", 3, modes=3), M3_STATE,
                          cycle_time=np.pi / 2, cutoff=30, n_max=10,
                          e_max=e_max)
    sweep_dimension(base, d_list, [k])
    prefixes = sum(len({min(d, e_s + k + 1) for d in d_list})
                   for e_s in range(e_max + 1))
    assert prefixes == 56
    assert counts == {"_joint_block": e_max + 1, "_chiral_prep": e_max + 1,
                      "_chiral_block": prefixes}


def test_sweep_runs_one_task_per_block_and_dimension(monkeypatch):
    # the top block's four prefixes are four tasks, so two workers can
    # share its work; the vacuum block 0 runs before the map, not in it
    counts = []
    map_blocks = protocol._map_blocks
    monkeypatch.setattr(protocol, "_map_blocks", lambda fn, count, workers:
                        counts.append(count) or map_blocks(fn, count, workers))
    monkeypatch.setattr(protocol, "_block_workers", lambda: 2)
    base = ProtocolConfig(Topology("linear", 3, modes=3), STAR_STATE,
                          cycle_time=np.pi / 2, cutoff=30, n_max=10, e_max=8)
    sweep_dimension(base, [3, 4, 5, 6], [0])
    assert counts == [8 * 4]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_worker_builds_a_block_once(workers, monkeypatch):
    # a worker keeps only its current block, and a block's tasks are
    # contiguous in either worker's order: no thread builds a block twice,
    # and only the block where two workers meet is built by both
    builds = []
    joint_block = protocol._joint_block
    caller, helper_took = threading.get_ident(), threading.Event()

    def spy(*args):
        # as in test_two_workers_bit_identical: both threads take work
        if workers == 2 and args[0] != args[1]:
            if threading.get_ident() == caller:
                helper_took.wait(timeout=30)
            else:
                helper_took.set()
        builds.append((threading.get_ident(), args[0]))
        return joint_block(*args)

    monkeypatch.setattr(protocol, "_block_workers", lambda: workers)
    monkeypatch.setattr(protocol, "_joint_block", spy)
    e_max, k = 8, 1
    base = ProtocolConfig(Topology("linear", 3, modes=3), STAR_STATE,
                          cycle_time=np.pi / 2, cutoff=30, n_max=10,
                          e_max=e_max)
    sweep_dimension(base, [3, 4, 5, 6], [k])
    assert len(set(builds)) == len(builds)
    blocks = [e_tot for _, e_tot in builds]
    assert sorted(set(blocks)) == list(range(k, k + e_max + 1))
    assert len({thread for thread, _ in builds}) == workers
    assert len(blocks) - len(set(blocks)) <= workers - 1


@pytest.mark.parametrize("failing", [4, 8], ids=["small-block", "top-block"])
def test_sweep_error_in_one_dimension_reaches_caller(failing, monkeypatch):
    # the d = 4 prefix of block e_s = failing fails; d = 3 and 5 do not.
    # Block e_s holds (e_s + 1)(e_s + 2)/2 system states, and its prefixes
    # at d = 3, 4, 5 differ for e_s >= 4
    chiral_block = protocol._chiral_block
    size = (failing + 1) * (failing + 2) // 2

    def fail(blk, corner, t):
        if len(blk.rho) == size and corner == blk.corners[1]:
            raise _BlockFailure(f"block {failing}")
        return chiral_block(blk, corner, t)

    monkeypatch.setattr(protocol, "_block_workers", lambda: 2)
    monkeypatch.setattr(protocol, "_chiral_block", fail)
    before = threading.active_count()
    base = replace(SWEEP_CASES["linear-m3-chiral"][0],
                   initial_system=STAR_STATE, e_max=8)
    with pytest.raises(_BlockFailure, match=f"block {failing}"):
        sweep_dimension(base, [3, 4, 5], [0])
    assert threading.active_count() == before


def test_sweep_validates_every_cell_first(monkeypatch):
    # the k = 0 default time needs the default coupling: the (3, 0) cell
    # is invalid, and no block of the valid (3, 1) cell before it runs
    calls = []
    powers = protocol._block_trace_powers
    monkeypatch.setattr(protocol, "_block_trace_powers",
                        lambda *args: calls.append(1) or powers(*args))
    base = ProtocolConfig(Topology("hybrid", 3), NETWORK_STATE, cutoff=30,
                          n_max=10, coupling=CouplingParams(lam=2.0))
    with pytest.raises(ConfigError, match=r"k = 0 .*set \[protocol\] t"):
        sweep_dimension(base, [3, 4], [1, 0])
    assert calls == []


def test_star_default_time_keeps_the_vacuum():
    # the bright mode couples at sqrt(3): at the single-oscillator time pi
    # its vacuum amplitude would be |cos(sqrt(3) pi)| = 0.67 per cycle,
    # and F would end near 1e-14
    state = DSTParams(alpha_mag=0.1, r=0.03, nbar=0.2)
    tr = run_protocol(ProtocolConfig(Topology("star", 4, modes=3), state,
                                     regulator_level=1, cutoff=30, n_max=40))
    assert tr.fidelity[-1] > 0.5


@pytest.mark.parametrize("topo,k,t_ref", [
    (Topology("linear", 3, modes=2), 1, np.sqrt(2) * np.pi),
    (Topology("linear", 3, modes=3), 1, 106.777),
    (Topology("single", 3, regulator_kind="oscillator"), 2, np.pi),
    (Topology("single", 4, regulator_kind="oscillator"), 3, np.pi)],
    ids=["linear-m2-k1", "linear-m3-k1", "oscillator-k2", "oscillator-k3"])
def test_default_time_rejected_where_it_empties_the_vacuum(topo, k, t_ref):
    # the single-oscillator optimum leaves the dense oracle's |lambda_0| at
    # 0.37, 0.16, 0.78 and 0.32 on these runs; each takes the optimum of
    # its own vacuum block instead.  Linear M = 3 has the golden-ratio
    # frequencies 1.618 and 0.618, so no exact revival: it takes its best
    # optimum, residual 1.7e-4, and a run at that time warns once
    coupling = CouplingParams()
    single = default_cycle_time(Topology("single", topo.regulator_levels), k)
    assert oracle.vacuum_amplitude(topo, coupling, k, single.t_opt) < 0.8
    r = default_cycle_time(topo, k)
    t = r.t_opt
    if topo.modes == 3:
        assert r.method == "fallback" and f"{r.residual:.3g}" == "0.000171"
        assert t == pytest.approx(t_ref, abs=1e-3)
        tol = 2e-4
        with pytest.warns(RuntimeWarning, match=r"linear at k=1.*t=106\.777.*"
                          r"residual 0\.000171") as caught:
            run_protocol(ProtocolConfig(topo, DSTParams(alpha_mag=0.1),
                                        regulator_level=k, cutoff=8, n_max=2))
        assert len(caught) == 1
    else:
        assert r.method != "fallback"
        assert t == pytest.approx(t_ref, rel=0, abs=1e-12 if k == 1 else 1e-9)
        tol = 1e-4
    assert abs(oracle.vacuum_amplitude(topo, coupling, k, t) - 1.0) <= tol
    ProtocolConfig(topo, NETWORK_STATE, regulator_level=k).validate()


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


@pytest.mark.parametrize("topo", [
    Topology(kind, 3, modes=m, regulator_kind=reg)
    for kind in TOPOLOGY_KINDS for reg in ("qudit", "oscillator")
    for m in ((1, 2, 3, 4) if kind in ("linear", "star") else (1,))],
    ids=lambda topo: f"{topo.kind}-{topo.modes}-{topo.regulator_kind}")
def test_coupling_graph_is_a_coloured_tree(topo):
    # every layout couples all its subsystems by n_sub - 1 edges, a tree,
    # so the walk from the regulator colours each subsystem and splits
    # every edge
    params = CouplingParams()
    n_sub = len(protocol._frequencies(topo, params))
    edges = topo.coupling_edges(params)
    assert len(edges) == n_sub - 1
    colour = protocol._chiral_colours(topo, params)
    assert colour[-1] == 0 and set(colour) == {0, 1}     # none left at -1
    assert all(colour[i] != colour[j] for i, j, _ in edges)


def test_chiral_zero_modes():
    # linear M = 2, block E = 2: |A| = 4 > |B| = 2, so B B^T has two zero
    # modes; the real-gauge V still matches the full exponential
    topo = Topology("linear", 3, modes=2)
    caps, bos = protocol._sub_caps(topo, 4)
    edges = topo.coupling_edges(CouplingParams())
    joint, rows, hops = protocol._joint_block(2, 0, caps, bos, edges)
    colour = protocol._chiral_colours(topo, CouplingParams())
    on_b = joint[:, colour == 1].sum(axis=1) % 2 == 1
    n = rows.stop - rows.start
    blk = protocol._chiral_prep(joint, rows, hops, colour, np.eye(n),
                                np.array([len(joint)]))
    assert blk.corners == [(4, 2)]
    t = 2.1
    w = protocol._chiral_block(blk, blk.corners[0], t)
    dph = np.where(on_b[rows], 1j, 1.0)
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


# ------------------------------------------------ early exit of a block

EXIT_CASES = {
    **WORKER_CASES,
    "hybrid-k0": ProtocolConfig(
        Topology("hybrid", 3, system_levels=2), NETWORK_STATE, cutoff=30,
        n_max=100),
    "hybrid-k1": ProtocolConfig(
        Topology("hybrid", 4, system_levels=2), NETWORK_STATE,
        regulator_level=1, cutoff=30, n_max=100),
    "detuned-m3": ProtocolConfig(
        Topology("linear", 3, modes=3), STAR_STATE, cycle_time=2.1,
        coupling=CouplingParams(omega_a=1.2), cutoff=20, n_max=100),
    # off the k = 1 optimum the vacuum term decays 1e-23-fold: the floor
    # is its least value, not its first
    "linear-k1-decaying-vacuum": ProtocolConfig(
        Topology("linear", 4, modes=2), NETWORK_STATE, regulator_level=1,
        cycle_time=0.7, cutoff=30, n_max=100),
    "star-unequal-leaves": ProtocolConfig(
        Topology("star", 3, modes=2),
        [STAR_STATE, replace(STAR_STATE, nbar=0.06)], cycle_time=2.1,
        cutoff=20, n_max=100),
}
# the leaves' dark mode never cools, so no block of that star decays
NO_EXIT = {"star-unequal-leaves"}


def _kernel_calls(monkeypatch, floor=None, steps=None):
    """Spy on the trace kernel: (states, floor, cycles evaluated) per
    call; `floor` replaces the floor the engine passes, `steps` the
    baby-step rule."""
    calls = []
    powers = protocol._block_trace_powers

    def spy(v, rho, n_max, out, given):
        used = given if floor is None else floor
        calls.append((v.shape[0], used, powers(v, rho, n_max, out, used)))
        return calls[-1][2]

    monkeypatch.setattr(protocol, "_block_trace_powers", spy)
    if steps is not None:
        monkeypatch.setattr(protocol, "_baby_steps", steps)
    return calls


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_early_exit_keeps_every_bit(case, monkeypatch):
    # the same kernel with floor 0 runs every block out to n_max
    cfg = EXIT_CASES[case]
    calls = _kernel_calls(monkeypatch)
    fast = run_protocol(cfg)
    stopped = [c for c in calls if c[2] < cfg.n_max + 1]
    assert (stopped == []) == (case in NO_EXIT)
    assert all(floor > 0 for n, floor, _ in calls if n > 1)
    monkeypatch.undo()
    full_calls = _kernel_calls(monkeypatch, floor=0.0)
    full = run_protocol(cfg)
    assert all(c[2] == cfg.n_max + 1 for c in full_calls)
    assert np.array_equal(fast.fidelity, full.fidelity)
    assert np.array_equal(fast.probability, full.probability)
    rule = ReportRule()
    assert rule.converged(fast.fidelity) == rule.converged(full.fidelity)


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_early_exit_near_earlier_kernel(case, monkeypatch):
    # A = isqrt(n_max) + 1 with no exit is the kernel this one replaced;
    # the new baby-step count only regroups the products' rounding
    cfg = EXIT_CASES[case]
    fast = run_protocol(cfg)
    _kernel_calls(monkeypatch, floor=0.0, steps=lambda n: math.isqrt(n) + 1)
    old = run_protocol(cfg)
    assert np.max(np.abs(fast.fidelity / old.fidelity - 1)) <= 1e-14
    assert np.max(np.abs(fast.probability / old.probability - 1)) <= 1e-14


def test_empty_vacuum_never_exits(monkeypatch):
    # p0 = 0 leaves no floor under P_n, so every block runs to n_max
    rho = np.zeros((6, 6), dtype=complex)
    rho[1, 1], rho[2, 2], rho[1, 2], rho[2, 1] = 0.7, 0.3, 0.1, 0.1
    cfg = ProtocolConfig(Topology("linear", 3, modes=2), [rho, rho],
                         cycle_time=np.pi / 2, cutoff=6, n_max=60)
    calls = _kernel_calls(monkeypatch)
    prob = run_protocol(cfg).probability
    assert prob[0] == pytest.approx(1.0) and prob[-1] < 0.1
    assert len(calls) > 3
    assert all(floor == 0.0 and cycles == 61 for _, floor, cycles in calls)


def test_linear_m3_sweep_makes_fewer_products(monkeypatch):
    # network-m3's linear half: each multi-state prefix took 38 products
    # (A = 11) before the exit; now no prefix takes more, and the high
    # blocks stop after two giant steps
    calls = _kernel_calls(monkeypatch)
    base = ProtocolConfig(Topology("linear", 3, modes=3), M3_STATE,
                          cycle_time=np.pi / 2, cutoff=30, n_max=100,
                          e_max=16)
    sweep_dimension(base, [3, 4, 5, 6], [0])
    steps = protocol._baby_steps(100)
    products = [2 * (steps - 1) + 2 * (-(-cycles // steps) - 1)
                for n, _, cycles in calls if n > 1]
    assert steps == 8 and len(products) == 55
    assert max(products) <= 38
    assert sum(products) < 0.6 * 38 * len(products)


def test_baby_steps_rule():
    def cost(a, n_max):
        return 2 * (a - 1) + 2 * (-(-(n_max + 1) // a) - 1)

    for n_max in range(1, 600):
        best = min(range(2, n_max + 2), key=lambda a: cost(a, n_max))
        assert protocol._baby_steps(n_max) == best
    assert protocol._baby_steps(100) == 8 and cost(8, 100) == 38


@pytest.mark.parametrize("n_max", [40, 101, 250])
def test_block_trace_powers_floor_stop(n_max):
    # a contraction: the kernel stops at the end of a giant step once
    # |c| < floor 2^-58, the cycles before it as without a floor, the
    # rest left 0, and every skipped value of a full run below that bound
    rng = np.random.default_rng(n_max)
    v = rng.normal(size=(7, 7))
    v *= 0.4 / np.linalg.norm(v, 2)
    g = rng.normal(size=(7, 7))
    rho = g @ g.T / np.linalg.norm(g) ** 2
    full, cut = np.zeros(n_max + 1), np.zeros(n_max + 1)
    assert protocol._block_trace_powers(v, rho, n_max, full) == n_max + 1
    floor = 0.5
    done = protocol._block_trace_powers(v, rho, n_max, cut, floor)
    steps = protocol._baby_steps(n_max)
    assert done < n_max + 1 and done % steps == 0
    assert np.array_equal(cut[:done], full[:done]) and not cut[done:].any()
    assert abs(full[done - 1]) < floor * 2.0 ** -58
    assert np.all(np.abs(full[done:]) < floor * 2.0 ** -58)
    assert np.all(np.abs(full[:done - steps]) >= floor * 2.0 ** -58)
