"""Beam splitters, analytic propagation and the Fock-space unitary."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsqkd import fock, optics
from dpsqkd.optics import (InterferometerConfig, PulseTrain,
                           apply_interferometer, bs1_transform, bs2_transform,
                           coherent_wire_state, fock_output_amplitudes,
                           fock_unitary, interferometer_coefficients,
                           mean_mode_amplitudes, propagate_analytic,
                           sector_dim, sector_lift, sector_occupations,
                           single_particle_unitary, wire_registry)


def test_compensation_condition_enforced():
    with pytest.raises(ValueError):
        InterferometerConfig(phi1=0.3, phi2=0.2, phi_delta=0.0)
    cfg = InterferometerConfig.compensated(phi2=0.4, phi_delta=1.1)
    assert abs(cfg.phi1 + cfg.phi2 - cfg.phi_delta) < 1e-15
    # NaN passes the compensation comparison, so it is refused by name
    for bad in ({"phi2": math.nan}, {"phi_delta": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            InterferometerConfig.compensated(**bad)


@pytest.mark.parametrize("phi2,phi_delta", [(0.0, 0.0), (0.7, 0.2), (2.1, -0.4)])
def test_beam_splitters_unitary(phi2, phi_delta):
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    for u in (bs1_transform(cfg), bs2_transform(cfg)):
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


def test_composition_reproduces_mode_map():
    cfg = InterferometerConfig.compensated(phi2=0.6, phi_delta=0.15)
    c = interferometer_coefficients(cfg)
    expect = 0.5 * np.array([1.0, -np.exp(1j * 0.6), 1.0, np.exp(1j * 0.6)])
    assert np.max(np.abs(c - expect)) < 1e-14


def test_composition_phase_free():
    c = interferometer_coefficients(InterferometerConfig.compensated())
    assert np.allclose(c, [0.5, -0.5, 0.5, 0.5])


def test_propagate_constant_phase():
    # equal consecutive phases: all light reaches D0's path
    cfg = InterferometerConfig.compensated()
    o4, o5 = propagate_analytic(PulseTrain(0, [0.45, 0.45, 0.45]), cfg)
    assert np.allclose(o4.amplitudes[1:-1], 0.45)
    assert np.all(o5.amplitudes[1:-1] == 0.0)


def test_propagate_phase_flip():
    # a flip sends the full amplitude to D1's path, phase e^{i phi2}
    cfg = InterferometerConfig.compensated(phi2=0.8)
    o4, o5 = propagate_analytic(PulseTrain(0, [0.45, -0.45]), cfg)
    assert abs(o4.amplitudes[1]) < 1e-15
    assert abs(o5.amplitudes[1] - 0.45 * np.exp(0.8j)) < 1e-14


def test_propagate_zero_train_and_empty():
    cfg = InterferometerConfig.compensated()
    o4, o5 = propagate_analytic(PulseTrain(0, np.zeros(4)), cfg)
    assert np.all(o4.amplitudes == 0) and np.all(o5.amplitudes == 0)
    with pytest.raises(ValueError):
        propagate_analytic(PulseTrain(0, []), cfg)


def test_energy_conservation_with_boundaries():
    rng = np.random.default_rng(1)
    cfg = InterferometerConfig.compensated(phi2=1.2, phi_delta=0.5)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        tr = PulseTrain(0, amps)
        o4, o5 = propagate_analytic(tr, cfg)
        assert o4.bin_count == n + 1
        assert abs(o4.total_energy() + o5.total_energy() - tr.total_energy()) \
            < 1e-12 * max(tr.total_energy(), 1.0)


PHASES = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi,
                                           allow_nan=False))


@settings(max_examples=30, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 3),
                       st.integers(1, 8)),
       phi2=PHASES, phi_delta=PHASES, seed=st.integers(0, 2 ** 32 - 1))
def test_propagate_batched_rows_and_energy(shape, phi2, phi_delta, seed):
    # the batched kernel equals the row-by-row calls and conserves the
    # energy of every train, boundary half-pulses included
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    c = interferometer_coefficients(cfg)
    b4, b5 = optics.propagate(amps, c)
    assert b4.shape == b5.shape == shape[:-1] + (shape[-1] + 1,)
    for idx in np.ndindex(shape[:-1]):
        r4, r5 = optics.propagate(amps[idx], c)
        assert np.array_equal(b4[idx], r4) and np.array_equal(b5[idx], r5)
    e_in = np.sum(np.abs(amps) ** 2, axis=-1)
    e_out = np.sum(np.abs(b4) ** 2 + np.abs(b5) ** 2, axis=-1)
    assert np.allclose(e_out, e_in, rtol=1e-12, atol=0)


def test_boundary_bins_carry_half_pulses():
    cfg = InterferometerConfig.compensated()
    o4, o5 = propagate_analytic(PulseTrain(0, [0.6]), cfg)
    assert np.allclose(o4.amplitudes, [0.3, 0.3])
    assert np.allclose(o5.amplitudes, [-0.3, 0.3])


def test_single_particle_unitary_is_unitary():
    cfg = InterferometerConfig.compensated(phi2=0.9, phi_delta=0.3)
    u = single_particle_unitary(cfg, 5)
    assert np.max(np.abs(u.conj().T @ u - np.eye(10))) < 1e-14


def test_fock_unitary_properties():
    cfg = InterferometerConfig.compensated()
    U = fock_unitary(cfg, 3, 2)
    M = U.matrix
    assert np.linalg.norm(M.conj().T @ M - np.eye(M.shape[0])) < 1e-10
    vac = fock.vacuum(U.registry)
    out = U @ vac
    assert abs(out.amplitudes[0] - 1.0) < 1e-14
    n_tot = fock.number_operator(U.registry)
    assert fock.commutator_norm(U, n_tot) < 1e-10


def test_fock_unitary_single_photon_sector_matches_mode_map():
    cfg = InterferometerConfig.compensated(phi2=0.35, phi_delta=0.1)
    U = fock_unitary(cfg, 3, 2)
    usp = single_particle_unitary(cfg, 3)
    reg = U.registry
    for k in range(reg.n_modes):
        occ = [0] * reg.n_modes
        occ[k] = 1
        out = (U @ fock.basis_state(reg, occ)).amplitudes
        got = np.array([out[reg.basis_index([1 if j == m else 0
                                             for j in range(reg.n_modes)])]
                        for m in range(reg.n_modes)])
        assert np.max(np.abs(got - usp[:, k])) < 1e-13


def test_fock_unitary_size_guard():
    cfg = InterferometerConfig.compensated()
    with pytest.raises(ValueError, match="exceeds the dense-unitary bound"):
        fock_unitary(cfg, 6, 5)


def test_apply_matches_dense_unitary():
    cfg = InterferometerConfig.compensated(phi2=0.5, phi_delta=0.2)
    U = fock_unitary(cfg, 2, 3)
    rng = np.random.default_rng(2)
    reg = U.registry
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    state = fock.FockVector(reg, v)
    out1 = apply_interferometer(state, cfg)
    out2 = U @ state
    assert np.max(np.abs(out1.amplitudes - out2.amplitudes)) < 1e-12


def test_coherent_closure_fidelity():
    # Fock evolution of a coherent input stays coherent up to truncation
    # (cutoff chosen so the tail sits below the truncation tolerance)
    cfg = InterferometerConfig.compensated()
    amps = np.array([0.25, -0.25])
    state = coherent_wire_state(amps, 3, 6)
    out = apply_interferometer(state, cfg)
    o4, o5 = propagate_analytic(PulseTrain(0, amps), cfg)
    from dpsqkd.fock import coherent_amplitudes
    vecs = [coherent_amplitudes(a, 6) for a in o4.amplitudes] + \
           [coherent_amplitudes(a, 6) for a in o5.amplitudes]
    ref = vecs[0]
    for v in vecs[1:]:
        ref = np.kron(ref, v)
    ref_state = fock.FockVector(out.registry, ref)
    assert fock.fidelity(out, ref_state) >= 1.0 - fock.TRUNCATION_TOL


def test_fock_output_amplitudes_vs_analytic_small():
    cfg = InterferometerConfig.compensated(phi2=1.0, phi_delta=0.4)
    amps = np.array([0.25, -0.25, 0.25])
    got = fock_output_amplitudes(amps, 4, 5, cfg)[0]
    o4, o5 = propagate_analytic(PulseTrain(0, amps), cfg)
    expect = np.concatenate([o4.amplitudes, o5.amplitudes])
    assert np.max(np.abs(got - expect)) < 1e-8


def test_fock_output_amplitudes_matches_generic_route():
    cfg = InterferometerConfig.compensated()
    amps = np.array([0.3, -0.3])
    fast = fock_output_amplitudes(amps, 3, 4, cfg)[0]
    state = coherent_wire_state(amps, 3, 4)
    slow = mean_mode_amplitudes(apply_interferometer(state, cfg))
    assert np.max(np.abs(fast - slow)) < 1e-13


def test_wire_registry_guard():
    bad = fock.ModeRegistry([(0, 0), (1, 1)], 2)
    with pytest.raises(ValueError, match="wire registry"):
        apply_interferometer(fock.vacuum(bad), InterferometerConfig.compensated())


def test_interference_determinism_exact_zeros():
    # exact zeros at the (real-arithmetic) default phases
    cfg = InterferometerConfig.compensated()
    same = propagate_analytic(PulseTrain(0, [0.7, 0.7]), cfg)
    assert same[1].amplitudes[1] == 0.0
    flipped = propagate_analytic(PulseTrain(0, [0.7, -0.7]), cfg)
    assert flipped[0].amplitudes[1] == 0.0
    # general phases: zero to rounding of the phase factors
    cfg2 = InterferometerConfig.compensated(phi2=0.3, phi_delta=0.0)
    flipped2 = propagate_analytic(PulseTrain(0, [0.7, -0.7]), cfg2)
    assert abs(flipped2[0].amplitudes[1]) < 1e-15


def test_sector_occupations_enumerate_in_kronecker_order():
    occ = sector_occupations(6, 4)
    assert occ.shape == (sector_dim(6, 4), 6)
    assert np.all(occ.sum(axis=1) == 4) and np.all(occ >= 0)
    reg = wire_registry(3, 4)
    idx = [reg.basis_index(o) for o in occ]
    assert idx == sorted(set(idx))


@settings(max_examples=20, deadline=None)
@given(phi2=PHASES, phi_delta=PHASES)
def test_sector_lift_matches_dense_oracle(phi2, phi_delta):
    # on sectors n <= 2 the cutoff-2 dense unitary is exact
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    U = fock_unitary(cfg, 3, 2).matrix
    reg = wire_registry(3, 2)
    real = not np.any(single_particle_unitary(cfg, 3).imag)
    for outputs, inputs, block in sector_lift(cfg, 3, 2):
        assert np.array_equal(outputs, inputs)
        assert (block.dtype == np.float64) == real
        idx = [reg.basis_index(o) for o in outputs]
        assert np.max(np.abs(block - U[np.ix_(idx, idx)])) < 1e-12
        assert np.max(np.abs(block.conj().T @ block
                             - np.eye(len(idx)))) < 1e-12
        outside = np.delete(U[:, idx], idx, axis=0)
        assert np.max(np.abs(outside), initial=0.0) < 1e-12


def test_sector_lift_bound():
    cfg = InterferometerConfig.compensated()
    with pytest.raises(ValueError, match="sector 40 block .* exceeds the "
                                         "sector bound 300000000"):
        sector_lift(cfg, 3, 40)
    with pytest.raises(ValueError, match="sector 10000000000000000000000 "
                                         "of .* exceeds the sector bound"):
        sector_lift(cfg, 3, 10 ** 22)
    # sectors above the summed occupation bounds hold no input
    caps = [1, 1, 1, 0, 0, 0]
    sizes = [block.shape for _, _, block in sector_lift(cfg, 3, 10, caps)]
    assert sizes == [(1, 1), (6, 3), (21, 3), (56, 1)]
