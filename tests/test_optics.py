"""Beam splitters, analytic propagation and the exact sector lift."""

import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpsqkd import optics
from dpsqkd.entangled import coherent_amplitudes
from dpsqkd.optics import (InterferometerConfig, bs1_transform,
                           bs2_transform, interferometer_coefficients,
                           propagate, sector_dim, sector_lift,
                           single_particle_unitary)
from fock_oracle import (basis_index, dense_unitary, sector_mean_amplitudes,
                         total_energy, vacuum, wire_registry)


def _propagate(amps, cfg):
    """D0 and D1 output trains of one pulse train behind `cfg`."""
    return propagate(amps, interferometer_coefficients(cfg))


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
    o4, o5 = _propagate([0.45, 0.45, 0.45], cfg)
    assert np.allclose(o4[1:-1], 0.45)
    assert np.all(o5[1:-1] == 0.0)


def test_propagate_phase_flip():
    # a flip sends the full amplitude to D1's path, phase e^{i phi2}
    cfg = InterferometerConfig.compensated(phi2=0.8)
    o4, o5 = _propagate([0.45, -0.45], cfg)
    assert abs(o4[1]) < 1e-15
    assert abs(o5[1] - 0.45 * np.exp(0.8j)) < 1e-14


def test_propagate_zero_train_and_empty():
    # an empty train has no key bin: it gives one empty output bin
    cfg = InterferometerConfig.compensated()
    o4, o5 = _propagate(np.zeros(4), cfg)
    assert np.all(o4 == 0) and np.all(o5 == 0)
    o4, o5 = _propagate(np.zeros(0), cfg)
    assert o4.shape == o5.shape == (1,) and o4[0] == o5[0] == 0


def test_energy_conservation_with_boundaries():
    rng = np.random.default_rng(1)
    cfg = InterferometerConfig.compensated(phi2=1.2, phi_delta=0.5)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        o4, o5 = _propagate(amps, cfg)
        assert o4.size == o5.size == n + 1
        assert abs(total_energy(o4) + total_energy(o5) - total_energy(amps)) \
            < 1e-12 * max(total_energy(amps), 1.0)


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


def _all_complex_propagate(amps, coeffs):
    """The route every train took while pulse trains were always
    complex128: complex amplitudes and coefficients, complex outputs."""
    amps = np.asarray(amps, dtype=complex)
    out = []
    for direct, delayed in (coeffs[0::2], coeffs[1::2]):
        b = np.zeros(amps.shape[:-1] + (amps.shape[-1] + 1,), dtype=complex)
        b[..., :-1] = direct * amps
        b[..., 1:] += delayed * amps
        out.append(b)
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 9)),
       real_amps=st.booleans(), phi2=PHASES, phi_delta=PHASES,
       seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(2, 5), real_amps=True, phi2=0.0, phi_delta=0.0, seed=1)
@example(shape=(2, 5), real_amps=True, phi2=0.7, phi_delta=0.0, seed=2)
@example(shape=(2, 5), real_amps=False, phi2=0.0, phi_delta=0.0, seed=3)
def test_propagate_dtype_follows_inputs(shape, real_amps, phi2, phi_delta,
                                        seed):
    # a real train behind a real mode map stays float64; the outputs equal
    # the all-complex route's, so |b|^2 and every click draw are unchanged
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape)
    if not real_amps:
        amps = amps + 1j * rng.normal(size=shape)
    c = interferometer_coefficients(
        InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta))
    real = real_amps and not np.any(c.imag)
    if phi2 == phi_delta == 0.0:
        assert real == real_amps
    for got, old in zip(optics.propagate(amps, c),
                        _all_complex_propagate(amps, c)):
        assert got.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(got, old)
        assert np.array_equal(np.abs(got) ** 2, np.abs(old) ** 2)


def test_boundary_bins_carry_half_pulses():
    cfg = InterferometerConfig.compensated()
    o4, o5 = _propagate([0.6], cfg)
    assert np.allclose(o4, [0.3, 0.3])
    assert np.allclose(o5, [-0.3, 0.3])


def test_single_particle_unitary_is_unitary():
    cfg = InterferometerConfig.compensated(phi2=0.9, phi_delta=0.3)
    u = single_particle_unitary(cfg, 5)
    assert np.max(np.abs(u.conj().T @ u - np.eye(10))) < 1e-14


def test_interference_determinism_exact_zeros():
    # exact zeros at the (real-arithmetic) default phases
    cfg = InterferometerConfig.compensated()
    same = _propagate([0.7, 0.7], cfg)
    assert same[1][1] == 0.0
    flipped = _propagate([0.7, -0.7], cfg)
    assert flipped[0][1] == 0.0
    # general phases: zero to rounding of the phase factors
    cfg2 = InterferometerConfig.compensated(phi2=0.3, phi_delta=0.0)
    flipped2 = _propagate([0.7, -0.7], cfg2)
    assert abs(flipped2[0][1]) < 1e-15


def test_sectors_enumerate_in_kronecker_order():
    *_, occ = optics._sectors(6, 4)
    assert occ.shape == (sector_dim(6, 4), 6)
    assert np.all(occ.sum(axis=1) == 4) and np.all(occ >= 0)
    reg = wire_registry(3, 4)
    idx = [basis_index(reg, o) for o in occ]
    assert idx == sorted(set(idx))


@pytest.mark.parametrize("n_modes", range(1, 8))
def test_sectors_match_the_brute_force_filter(n_modes):
    # every sector 0..8, in ascending Kronecker order, from the filter of
    # all occupations up to n per mode: the one sector at a time
    # enumeration the lifts use gives the same rows
    stream = optics._sectors(n_modes, 8)
    for n in range(9):
        occ = np.indices((n + 1,) * n_modes, dtype=np.int8)
        occ = occ.reshape(n_modes, -1)
        expected = occ[:, occ.sum(axis=0) == n].T
        got = next(stream)
        assert got.shape == expected.shape == (sector_dim(n_modes, n),
                                               n_modes)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert next(stream, None) is None


# sha256 of every sector's image rows, recorded while the lift still
# enumerated each sector on its own and looped over the terms of a wire
PINNED_LIFT_IMAGES = [
    ((0.0, 0.0), (3, 12, [4, 4, 4, 0, 0, 0]),
     "e861cf80f039126b09db3265cb4cec7e05e82551450709976ba1870a1101c133"),
    ((0.3, 1.1), (3, 12, [4, 4, 4, 0, 0, 0]),
     "440e83fc4c473ca8e8f3899096f8fe388f05925845d9e11258e02807f1448dbb"),
    ((0.3, 1.1), (3, 4),
     "7bce8e0842364ad1e6f268a542ad011c82a3971047f9aa2fc6746570c54ce06a"),
]


@pytest.mark.parametrize("phases, args, digest", PINNED_LIFT_IMAGES)
def test_sector_lift_images_keep_their_bytes(phases, args, digest):
    # real and complex images, signal and wire inputs: the same bytes,
    # sector after sector
    h = hashlib.sha256()
    for _, _, images in sector_lift(InterferometerConfig.compensated(*phases),
                                    *args):
        h.update(images.T.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("args, needle", [
    ((0, 3), "bins must be >= 1, got 0"),
    ((3, -1), "n_max must be >= 0, got -1"),
    ((1.5, 3), "bins must be an integer, got 1.5"),
    ((3, 2.0), "n_max must be an integer, got 2.0"),
    ((3, 3, [3, 3, True, 0, 0, 0]),
     "max_occupation[2] must be an integer, got True"),
    ((3, 3, [3, 3, 3, 0, 0.5, 0]),
     "max_occupation[4] must be an integer, got 0.5"),
    ((3, 3, [3, 3, 3, 0, 0, -1]),
     "max_occupation bounds must be >= 0, got [3, 3, 3, 0, 0, -1]"),
])
def test_sector_lift_refuses_malformed_input(args, needle):
    # each is refused when the lift is asked for, before any sector
    with pytest.raises(ValueError, match=re.escape(needle)) as info:
        sector_lift(InterferometerConfig.compensated(), *args)
    assert "\n" not in str(info.value)


@settings(max_examples=20, deadline=None)
@given(phi2=PHASES, phi_delta=PHASES)
def test_sector_lift_matches_dense_oracle(phi2, phi_delta):
    # on sectors n <= 2 the cutoff-2 dense unitary is exact
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    U = dense_unitary(cfg, 3, 2).matrix
    reg = wire_registry(3, 2)
    real = not np.any(single_particle_unitary(cfg, 3).imag)
    for outputs, inputs, block in sector_lift(cfg, 3, 2):
        assert np.array_equal(outputs, inputs)
        assert (block.dtype == np.float64) == real
        idx = [basis_index(reg, o) for o in outputs]
        assert np.max(np.abs(block - U[np.ix_(idx, idx)])) < 1e-12
        assert np.max(np.abs(block.conj().T @ block
                             - np.eye(len(idx)))) < 1e-12
        outside = np.delete(U[:, idx], idx, axis=0)
        assert np.max(np.abs(outside), initial=0.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(span=st.integers(1, 12), chunk=st.integers(1, 40), phi2=PHASES,
       phi_delta=PHASES)
def test_sector_lift_tiles_match_dense_oracle(span, chunk, phi2, phi_delta):
    # tiles of any shape, a partial last one included, give the blocks of
    # the dense unitary on sectors n <= 2 (1, 6 and 21 states)
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    U = dense_unitary(cfg, 3, 2).matrix
    reg = wire_registry(3, 2)
    with mock.patch.multiple(optics, _LIFT_SPAN=span, _LIFT_CHUNK=chunk):
        for outputs, inputs, block in sector_lift(cfg, 3, 2):
            idx = [basis_index(reg, o) for o in outputs]
            assert np.max(np.abs(block - U[np.ix_(idx, idx)])) < 1e-12


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
    with pytest.raises(ValueError, match="one bound per wire"):
        sector_lift(cfg, 3, 2, [1, 1])


def test_dense_oracle_lifts_the_mode_map():
    # unitary, vacuum to vacuum, and the mode map on the one-photon sector
    cfg = InterferometerConfig.compensated(phi2=0.35, phi_delta=0.1)
    U = dense_unitary(cfg, 3, 2)
    reg = U.registry
    assert np.max(np.abs(U.matrix.conj().T @ U.matrix
                         - np.eye(reg.dim))) < 1e-12
    assert abs((U @ vacuum(reg)).amplitudes[0] - 1.0) < 1e-14
    one = [basis_index(reg, np.eye(reg.n_modes, dtype=int)[k])
           for k in range(reg.n_modes)]
    assert np.max(np.abs(U.matrix[np.ix_(one, one)]
                         - single_particle_unitary(cfg, 3))) < 1e-13


@pytest.mark.parametrize("phi2, phi_delta, amps", [
    (0.0, 0.0, [0.3, -0.3]),
    (1.0, 0.4, [0.25, -0.25, 0.25]),
    (0.7, 0.3, [0.3, 0.3j]),
])
def test_sector_mean_amplitudes_match_analytic(phi2, phi_delta, amps):
    # <a_w> read off the exact sector blocks of a cutoff-6 coherent input
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    got = sector_mean_amplitudes(cfg, len(amps) + 1, amps, 6, 8)[0]
    expect = np.concatenate(_propagate(amps, cfg))
    assert np.max(np.abs(got - expect)) < 1e-8


def test_sector_route_coherent_closure_fidelity():
    # a coherent product input leaves as the analytically propagated
    # coherent product, up to the cutoff-6 input truncation
    cfg = InterferometerConfig.compensated()
    amps = [0.25, -0.25]
    beta = np.concatenate(_propagate(amps, cfg))
    overlap, norm = 0.0, 0.0
    for outputs, inputs, block in sector_lift(cfg, 3, 12, [6, 6, 0, 0, 0, 0]):
        c = np.prod([coherent_amplitudes(a, 6)[inputs[:, i]]
                     for i, a in enumerate(amps)], axis=0)
        ref = np.prod([coherent_amplitudes(b, 12)[outputs[:, w]]
                       for w, b in enumerate(beta)], axis=0)
        psi = block @ c
        overlap += ref.conj() @ psi
        norm += np.sum(np.abs(psi) ** 2)
    assert abs(overlap) ** 2 / norm >= 1.0 - 1e-9
