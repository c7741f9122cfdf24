"""Beam splitters and the delay interferometer, in two representations.

Analytic route: coherent amplitudes per (path, time-bin), propagated in
closed form.  Fock route: the same mode map lifted to a unitary on a
truncated Fock space, either materialized as a dense operator at desk
scale or applied gate-by-gate to state vectors at larger dimensions.
Sector route: the mode map lifted exactly, one photon-number sector at a
time, with no per-mode truncation (:func:`sector_lift`).

Wire convention
---------------
The Fock-space registry uses 2B "wires" for B time bins, labelled
``(0, i)`` and ``(1, i)``, path-major.  Before the optics wire ``(0, i)``
carries input path 0 (Alice's pulse in bin i) and wire ``(1, i)`` carries
input path 1 (vacuum).  After the optics wire ``(0, i)`` carries output
path 4 (detector D0, bin i) and wire ``(1, i)`` carries output path 5
(detector D1, bin i).  The delay arm shifts path-1-wire content
cyclically by one bin; the wrap-around slot only ever receives vacuum
when the final input bin is unpopulated, which is how the padded
(non-cyclic) physical arrangement is represented on a square mode set.

The mode map is the literal composition of the two beam-splitter
transforms with the delay phase, which also matches the detection table;
the expanded per-bin product formula in the source material carries an
inconsequential sign discrepancy on the D1 amplitudes and is not used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (FockOperator, FockVector, ModeRegistry, _readonly,
                   coherent_amplitudes)

_COMPENSATION_TOL = 1e-12

#: refuse to materialize dense unitaries above this dimension
DEFAULT_MAX_UNITARY_DIM = 8192

#: refuse to evolve state batches, or lift photon-number sector blocks,
#: above this many entries
DEFAULT_MAX_STATE_ENTRIES = 3 * 10 ** 8


@dataclass(frozen=True)
class InterferometerConfig:
    """Phase configuration of the delay interferometer.

    ``phi1`` (first beam splitter), ``phi2`` (second beam splitter) and
    ``phi_delta`` (phase picked up in the delay arm) must satisfy the
    compensation condition ``phi1 + phi2 == phi_delta``.  ``delta_t`` is
    the delay in time bins and is fixed at one bin.
    """

    phi1: float = 0.0
    phi2: float = 0.0
    phi_delta: float = 0.0
    delta_t: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.phi1, self.phi2, self.phi_delta))):
            raise ValueError("interferometer phases must be finite: "
                             f"{self.phi1}, {self.phi2}, {self.phi_delta}")
        if abs(self.phi1 + self.phi2 - self.phi_delta) > _COMPENSATION_TOL:
            raise ValueError(
                "compensation condition phi1 + phi2 = phi_delta violated: "
                f"{self.phi1} + {self.phi2} != {self.phi_delta}")
        if self.delta_t != 1:
            raise ValueError("the delay is fixed at one time bin")

    @classmethod
    def compensated(cls, phi2: float = 0.0, phi_delta: float = 0.0):
        """Config with ``phi1`` chosen to satisfy the compensation condition."""
        return cls(phi1=phi_delta - phi2, phi2=phi2, phi_delta=phi_delta)


@dataclass(frozen=True)
class PulseTrain:
    """Complex coherent amplitude per time bin on one path.

    ``abs(amplitude)**2`` is the mean photon number of the bin.
    """

    path: object
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def bin_count(self) -> int:
        return self.amplitudes.size

    def total_energy(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def bs1_transform(config: InterferometerConfig) -> np.ndarray:
    """2x2 coupling of the first beam splitter, columns = input paths
    (0, 1), rows = output paths (2, 3)."""
    s = 1.0 / math.sqrt(2.0)
    e = np.exp(-1j * config.phi1)
    return np.array([[s, s], [e * s, -e * s]])


def bs2_transform(config: InterferometerConfig) -> np.ndarray:
    """2x2 coupling of the second beam splitter, columns = input paths
    (2, 3), rows = output paths (4, 5)."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([[s, np.exp(-1j * config.phi2) * s],
                     [-np.exp(1j * config.phi2) * s, s]])


def interferometer_coefficients(config: InterferometerConfig) -> np.ndarray:
    """Coefficients of the composed per-pulse mode map: input bin i maps to
    (4,i), (5,i), (4,i+1), (5,i+1) with these four weights."""
    u1 = bs1_transform(config)
    u2 = bs2_transform(config)
    delay = np.exp(1j * config.phi_delta)
    direct = u2[:, 0] * u1[0, 0]
    delayed = u2[:, 1] * (delay * u1[1, 0])
    return np.array([direct[0], direct[1], delayed[0], delayed[1]])


def propagate(amps: np.ndarray, coeffs: np.ndarray):
    """D0 and D1 amplitudes of path-0 pulse trains ``amps[..., P]`` (any
    leading batch axes) behind the mode map with coefficients `coeffs`
    (:func:`interferometer_coefficients`).

    Returns two ``(..., P + 1)`` arrays: bin j carries the direct part of
    pulse j and the delayed part of pulse j - 1, so bins 1..P-1 are the
    key bins and bins 0 and P the unmatched half-pulses.
    """
    amps = np.asarray(amps)
    out = []
    for direct, delayed in (coeffs[0::2], coeffs[1::2]):
        b = np.zeros(amps.shape[:-1] + (amps.shape[-1] + 1,), dtype=complex)
        b[..., :-1] = direct * amps
        b[..., 1:] += delayed * amps
        out.append(b)
    return tuple(out)


def propagate_analytic(train: PulseTrain, config: InterferometerConfig):
    """Propagate a path-0 pulse train through the interferometer.

    Returns the two output trains on paths 4 and 5 with ``bin_count + 1``
    bins (:func:`propagate`).
    """
    if train.bin_count == 0:
        raise ValueError("cannot propagate an empty pulse train")
    out4, out5 = propagate(train.amplitudes,
                           interferometer_coefficients(config))
    return PulseTrain(4, out4), PulseTrain(5, out5)


# ---------------------------------------------------------------------------
# Fock representation


def wire_registry(bins: int, cutoff: int) -> ModeRegistry:
    """Canonical 2B-wire registry: path-0 wires then path-1 wires."""
    modes = [(0, i) for i in range(bins)] + [(1, i) for i in range(bins)]
    return ModeRegistry(modes, cutoff)


def single_particle_unitary(config: InterferometerConfig, bins: int) -> np.ndarray:
    """2B x 2B one-photon mode map in wire order (path-major), with the
    cyclic delay shift on the path-1 wires."""
    B = bins
    u1 = bs1_transform(config)
    u2 = bs2_transform(config)
    U1 = np.zeros((2 * B, 2 * B), dtype=complex)
    Ud = np.zeros_like(U1)
    U2 = np.zeros_like(U1)
    for i in range(B):
        w0, w1 = i, B + i
        U1[np.ix_([w0, w1], [w0, w1])] = u1
        U2[np.ix_([w0, w1], [w0, w1])] = u2
        Ud[w0, w0] = 1.0
        Ud[B + (i + 1) % B, w1] = np.exp(1j * config.phi_delta)
    return U2 @ Ud @ U1


def _quadratic_lift(A: np.ndarray, d: int) -> np.ndarray:
    """exp(sum_mn A[m,n] adag_m a_n) on the truncated two-mode space."""
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    ad = a.T
    eye = np.eye(d)
    X = (A[0, 0] * np.kron(ad @ a, eye) + A[0, 1] * np.kron(ad, a)
         + A[1, 0] * np.kron(a, ad) + A[1, 1] * np.kron(eye, ad @ a))
    if np.max(np.abs(X.imag)) == 0.0:
        # real antisymmetric generator: exponentiate in the reals
        from scipy.linalg import expm
        return expm(X.real)
    evals, evecs = np.linalg.eigh(-1j * X)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def _pair_gate(u2: np.ndarray, local_dim: int) -> np.ndarray:
    """Lift a 2x2 single-particle unitary to the (d x d) two-mode truncated
    Fock space; exactly unitary, photon-number conserving, and real
    whenever the mode map is real.

    A real map with determinant -1 has no real matrix logarithm, so it is
    factored into a rotation (real generator) times a sign flip on the
    second mode, both of which lift to real orthogonal gates.
    """
    d = local_dim
    u2 = np.asarray(u2)
    if np.max(np.abs(u2.imag)) == 0.0:
        r = u2.real
        det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        flip = det < 0.0
        if flip:
            r = r @ np.diag([1.0, -1.0])
        theta = math.atan2(r[1, 0], r[0, 0])
        gate = _quadratic_lift(np.array([[0.0, -theta], [theta, 0.0]]), d)
        if flip:
            parity = (-1.0) ** np.arange(d)
            gate = gate * np.kron(np.ones(d), parity)[None, :]
        return np.ascontiguousarray(gate)
    w, V = np.linalg.eig(u2)
    A = (V * np.log(w)) @ np.linalg.inv(V)      # matrix log, anti-hermitian
    return _quadratic_lift(A.astype(complex), d)


def _apply_pair_gate(arr: np.ndarray, gate: np.ndarray, pair: int,
                     d: int) -> np.ndarray:
    """Apply a two-mode gate to adjacent pair axes (1 + 2*pair, 2 + 2*pair)
    of a batch-first tensor of shape (batch, d, d, ..., d) and the gate's
    dtype (:func:`_gate_setup`)."""
    dd = d * d
    pre = arr.shape[0] * dd ** pair
    post = arr.size // (pre * dd)
    view = arr.reshape(pre, dd, post)
    if post == 1:
        out = view[:, :, 0] @ gate.T
    elif pre == 1:
        out = gate @ view[0]
    else:
        out = np.matmul(gate, view)
    return np.ascontiguousarray(out).reshape(arr.shape)


def _gate_setup(config: InterferometerConfig, d: int, inputs_real: bool):
    """The BS1 and BS2 pair gates and the per-photon delay phase, all of
    one dtype: float64 when the inputs and every stage are real, complex
    otherwise."""
    g1 = _pair_gate(bs1_transform(config), d)
    g2 = _pair_gate(bs2_transform(config), d)
    phase = np.exp(1j * config.phi_delta * np.arange(d))
    if np.max(np.abs(phase.imag)) < 1e-15:
        phase = phase.real
    real = inputs_real and all(x.dtype == np.float64 for x in (g1, g2, phase))
    dtype = np.float64 if real else complex
    return g1.astype(dtype), g2.astype(dtype), phase.astype(dtype)


def _delay_and_bs2(t: np.ndarray, g2: np.ndarray, phase: np.ndarray,
                   bins: int) -> np.ndarray:
    """The delay and the second beam splitter on a batch-first tensor in
    pair layout (A0, B0, A1, B1, ...): the content of path-1 wire i moves
    to path-1 wire (i+1) mod B, picking up phi_delta per photon."""
    d = phase.size
    src = [2 + 2 * i for i in range(bins)]
    dst = [2 + 2 * ((i + 1) % bins) for i in range(bins)]
    t = np.ascontiguousarray(np.moveaxis(t, src, dst))
    if not np.all(phase == 1.0):
        for i in range(bins):
            shape = [1] * t.ndim
            shape[2 + 2 * i] = d
            t = t * phase.reshape(shape)
    for i in range(bins):
        t = _apply_pair_gate(t, g2, i, d)
    return t


def _evolve_wire_batch(batch: np.ndarray, bins: int, d: int,
                       config: InterferometerConfig) -> np.ndarray:
    """Evolve a batch of wire-registry states through the interferometer.

    `batch` has shape (n_states, dim) in the path-major Kronecker layout;
    the result has the same shape.  Works in float64 throughout when the
    configuration phases make every stage real.
    """
    B = bins
    n = batch.shape[0]
    batch_is_real = not np.iscomplexobj(batch) or not np.any(batch.imag)
    g1, g2, phase = _gate_setup(config, d, batch_is_real)
    work = np.ascontiguousarray(batch.real if g1.dtype == np.float64
                                else batch, dtype=g1.dtype)

    # path-major -> batch-first pair layout (A0, B0, A1, B1, ...)
    t = work.reshape((n,) + (d,) * (2 * B))
    pair_axes = [0] + [1 + (i % B) * 2 + (0 if i < B else 1) for i in range(2 * B)]
    t = np.ascontiguousarray(t.transpose(np.argsort(pair_axes)))

    for i in range(B):
        t = _apply_pair_gate(t, g1, i, d)
    t = _delay_and_bs2(t, g2, phase, B)

    # pair layout -> path-major
    t = np.ascontiguousarray(t.transpose(pair_axes))
    return t.reshape(n, -1)


def apply_interferometer(state: FockVector,
                         config: InterferometerConfig) -> FockVector:
    """Evolve a wire-registry state through the interferometer unitary,
    gate by gate.  Scales to dimensions where the dense operator cannot be
    materialized."""
    reg = state.registry
    bins = reg.n_modes // 2
    if reg.modes != wire_registry(bins, reg.cutoff).modes:
        raise ValueError("registry is not a canonical wire registry; "
                         "build it with wire_registry()")
    if reg.dim > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"dimension {reg.dim} exceeds the evolution bound "
            f"{DEFAULT_MAX_STATE_ENTRIES} "
            f"({reg.n_modes} modes at cutoff {reg.cutoff})")
    out = _evolve_wire_batch(state.amplitudes[None, :], bins, reg.local_dim,
                             config)
    return FockVector(reg, out[0])


def fock_unitary(config: InterferometerConfig, bins: int,
                 cutoff: int) -> FockOperator:
    """Dense interferometer unitary on the 2B-wire truncated Fock space.

    Satisfies ``norm(U^* U - I) <= 1e-10`` (each constituent gate is
    exactly unitary), maps vacuum to vacuum and commutes with total photon
    number.
    """
    reg = wire_registry(bins, cutoff)
    if reg.dim > DEFAULT_MAX_UNITARY_DIM:
        raise ValueError(
            f"registry dimension {reg.dim} = {reg.local_dim}^{reg.n_modes} "
            f"exceeds the dense-unitary bound {DEFAULT_MAX_UNITARY_DIM}; "
            "use apply_interferometer for state evolution instead")
    eye = np.eye(reg.dim)
    cols = _evolve_wire_batch(eye, bins, reg.local_dim, config)
    return FockOperator(reg, cols.T)


def coherent_wire_state(train_amplitudes: np.ndarray, bins: int,
                        cutoff: int) -> FockVector:
    """Product coherent state on a wire registry: path-0 wires carry the
    given per-bin amplitudes (zero-padded to `bins`), path-1 wires vacuum."""
    amps = np.asarray(train_amplitudes, dtype=complex)
    if amps.size > bins:
        raise ValueError("more pulse amplitudes than wire bins")
    reg = wire_registry(bins, cutoff)
    d = reg.local_dim
    vecs = [coherent_amplitudes(amps[i] if i < amps.size else 0.0, cutoff)
            for i in range(bins)]
    vecs += [coherent_amplitudes(0.0, cutoff)] * bins
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return FockVector(reg, out)


def mean_mode_amplitudes(state: FockVector) -> np.ndarray:
    """``<a_m> / <1>`` for every registry mode: the coherent amplitude of
    each mode when the state is (close to) a coherent product."""
    reg = state.registry
    amps = state.amplitudes
    if not np.any(amps.imag):
        amps = np.ascontiguousarray(amps.real)
    t = amps.reshape((reg.local_dim,) * reg.n_modes)
    return _batched_mean_amplitudes(t[None, ...])[0] / state.norm2()


def _batched_mean_amplitudes(t: np.ndarray) -> np.ndarray:
    """Unnormalized ``<a_m>`` per mode for a batch-first state tensor of
    shape (n, d, d, ..., d); reshape windows keep the inner axis
    contiguous."""
    n = t.shape[0]
    d = t.shape[1]
    nmodes = t.ndim - 1
    w = np.sqrt(np.arange(1, d))
    flat = t.reshape(n, -1)
    dim = flat.shape[1]
    out = np.empty((n, nmodes), dtype=complex)
    for ax in range(nmodes):
        pre = d ** ax
        post = dim // (pre * d)
        v = flat.reshape(n, pre, d, post)
        prod = v[:, :, :-1, :].conj() * v[:, :, 1:, :]
        out[:, ax] = prod.sum(axis=(1, 3)) @ w
    return out


def fock_output_amplitudes(amp_rows: np.ndarray, bins: int, cutoff: int,
                           config: InterferometerConfig) -> np.ndarray:
    """Mean output amplitude of every wire after evolving product coherent
    inputs through the truncated Fock space.

    `amp_rows` is (n_states, n_pulses): per state, the path-0 per-bin
    coherent amplitudes (zero-padded to `bins`; path 1 starts in vacuum).
    Returns (n_states, 2 * bins) mean amplitudes ``<a_w>/<1>`` in wire
    order.

    Because path 1 enters in vacuum, the state after the first beam
    splitter is an exact product of per-bin two-wire vectors, which is
    built directly; only the delay shift and the second beam splitter act
    on the full tensor.  The pipeline stays in float64 when the inputs and
    the configuration phases are real.
    """
    amp_rows = np.atleast_2d(np.asarray(amp_rows))
    n, npulse = amp_rows.shape
    if npulse > bins:
        raise ValueError("more pulse amplitudes than wire bins")
    d = cutoff + 1
    dim = d ** (2 * bins)
    if n * dim > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"batch {n} x dimension {dim} exceeds the "
                         f"evolution bound {DEFAULT_MAX_STATE_ENTRIES}")
    inputs_real = not np.iscomplexobj(amp_rows) or not np.any(amp_rows.imag)
    g1, g2, phase = _gate_setup(config, d, inputs_real)

    # post-BS1 product state, pair layout (A0, B0, A1, B1, ...)
    g1_on_vac = g1[:, ::d]            # columns (x, n_B=0)
    t = None
    for i in range(bins):
        amps = amp_rows[:, i] if i < npulse else np.zeros(n, dtype=amp_rows.dtype)
        cohs = np.stack([coherent_amplitudes(a, cutoff) for a in amps])
        if g1.dtype == np.float64:
            cohs = np.ascontiguousarray(cohs.real)
        pair = cohs @ g1_on_vac.T      # (n, d*d)
        t = pair if t is None else \
            (t[:, :, None] * pair[:, None, :]).reshape(n, -1)
    t = _delay_and_bs2(t.reshape((n,) + (d, d) * bins), g2, phase, bins)

    amps_pair = _batched_mean_amplitudes(t)
    norms = np.sum(np.abs(t.reshape(n, -1)) ** 2, axis=1)
    # pair layout (A0, B0, A1, B1, ...) -> wire order (A0..A_{B-1}, B0..)
    order = [2 * i for i in range(bins)] + [2 * i + 1 for i in range(bins)]
    return amps_pair[:, order] / norms[:, None]


# ---------------------------------------------------------------------------
# exact photon-number sectors


def sector_dim(n_modes: int, n: int) -> int:
    """Number of n-photon basis states of `n_modes` modes."""
    return math.comb(n + n_modes - 1, n_modes - 1)


def sector_occupations(n_modes: int, n: int) -> np.ndarray:
    """Occupations of every n-photon basis state of `n_modes` modes, one
    row per state, in ascending Kronecker order (the order any registry
    holding these states lists them in)."""
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes - 1):
        reps = n + 1 - occ.sum(axis=1)
        nxt = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        occ = np.column_stack([np.repeat(occ, reps, axis=0), nxt])
    return np.column_stack([occ, n - occ.sum(axis=1)])


def sector_lift(config: InterferometerConfig, bins: int, n_max: int,
                max_occupation=None):
    """Exact interferometer images of wire basis states, one photon-number
    sector at a time, with nothing truncated.

    The interferometer conserves photon number and maps input creation
    operators through the mode map ``u`` (:func:`single_particle_unitary`):
    ``U |x + e_k> = sum_j u[j, k] b_j^dag U |x> / sqrt(x_k + 1)``, a sparse
    creation map from sector n - 1 to sector n.  Stays in float64 when
    ``u`` is real.

    The inputs are the wire basis states with at most `n_max` photons and
    occupations at most `max_occupation` (one bound per wire, in wire
    order; default unbounded).  Returns an iterator of
    ``(outputs, inputs, images)`` over the sectors n that hold inputs:
    the occupation rows of the sector basis (dim_n x 2B) and of its inputs
    (m_n x 2B), and ``images[:, i] = U |inputs[i]>`` (dim_n x m_n).

    Raises ValueError, before allocating anything, when the largest block
    (dim_n x m_n entries) exceeds ``DEFAULT_MAX_STATE_ENTRIES``.
    """
    n_modes = 2 * bins
    caps = [n_max] * n_modes if max_occupation is None else \
        [min(int(c), n_max) for c in max_occupation]
    if len(caps) != n_modes:
        raise ValueError(f"max_occupation needs one bound per wire "
                         f"({n_modes}), got {len(caps)}")
    # sectors above sum(caps) hold no input; the top sector holds one, and
    # sector dimensions grow with n, so its size alone can refuse at once
    n_max = min(n_max, sum(caps))
    if sector_dim(n_modes, n_max) > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"photon-number sector {n_max} of "
                         f"{sector_dim(n_modes, n_max)} states exceeds the "
                         f"sector bound {DEFAULT_MAX_STATE_ENTRIES}")
    counts = [1] + [0] * n_max            # inputs per sector
    for cap in caps:
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[n + 1] - prefix[max(0, n - cap)]
                  for n in range(n_max + 1)]
    n = max(range(n_max + 1),
            key=lambda n: sector_dim(n_modes, n) * counts[n])
    dim, m = sector_dim(n_modes, n), counts[n]
    if dim * m > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"photon-number sector {n} block of {dim} states x {m} inputs "
            f"= {dim * m} entries exceeds the sector bound "
            f"{DEFAULT_MAX_STATE_ENTRIES}")
    u = single_particle_unitary(config, bins)
    if not np.any(u.imag):
        u = np.ascontiguousarray(u.real)
    return _lift_sectors(u, n_max, np.array(caps))


def _lift_sectors(u: np.ndarray, n_max: int, caps: np.ndarray):
    n_modes = u.shape[0]
    # base-(n_max + 1) codes sort like the rows of sector_occupations
    strides = (n_max + 1) ** np.arange(n_modes - 1, -1, -1)
    outputs = np.zeros((1, n_modes), dtype=np.int64)
    images = np.ones((1, 1), dtype=u.dtype)
    input_codes = np.zeros(1, dtype=np.int64)
    yield outputs, outputs, images
    for n in range(1, n_max + 1):
        new_outputs = sector_occupations(n_modes, n)
        codes = new_outputs @ strides
        inputs = new_outputs[np.all(new_outputs <= caps, axis=1)]
        cols = np.arange(len(inputs))
        # each input comes from its parent one photon down, taken off its
        # last occupied wire k
        k = n_modes - 1 - np.argmax(inputs[:, ::-1] > 0, axis=1)
        parents = np.searchsorted(input_codes,
                                  inputs @ strides - strides[k])
        src = images[:, parents]
        coef = u[:, k] / np.sqrt(inputs[cols, k])
        new_images = np.zeros((len(new_outputs), len(inputs)), dtype=u.dtype)
        old_codes = outputs @ strides
        for j in range(n_modes):
            # b_j^dag: sector state s -> s + e_j with weight sqrt(s_j + 1)
            tgt = np.searchsorted(codes, old_codes + strides[j])
            new_images[tgt] += (np.sqrt(outputs[:, j] + 1.0)[:, None]
                                * src * coef[j])
        outputs, images = new_outputs, new_images
        input_codes = inputs @ strides
        yield outputs, inputs, images
