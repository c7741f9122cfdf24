"""Beam splitters and the delay interferometer, in two representations.

Analytic route: coherent amplitudes per (path, time-bin), propagated in
closed form (:func:`propagate`); it serves the protocol statistics.
Sector route: the one-photon mode map lifted exactly to the Fock space,
one photon-number sector at a time, with no per-mode truncation
(:func:`sector_lift`); it serves the measurement structure.

Wire convention
---------------
The Fock-space route uses 2B "wires" for B time bins, labelled
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
import numbers
from dataclasses import dataclass

import numpy as np

_COMPENSATION_TOL = 1e-12

#: refuse to lift photon-number sector blocks, or build other arrays,
#: above this many entries
DEFAULT_MAX_STATE_ENTRIES = 3 * 10 ** 8

#: entries, and outputs, per tile of a sector lift's images
_LIFT_CHUNK = 2 ** 16
_LIFT_SPAN = 2 ** 12


def _require_integers(**values):
    """Refuse, by name, the first value that is not an integer (a bool
    included) with a one-line ValueError."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class InterferometerConfig:
    """Phase configuration of the delay interferometer.

    ``phi1`` (first beam splitter), ``phi2`` (second beam splitter) and
    ``phi_delta`` (phase picked up in the delay arm) must satisfy the
    compensation condition ``phi1 + phi2 == phi_delta``.  The delay is one
    time bin.
    """

    phi1: float = 0.0
    phi2: float = 0.0
    phi_delta: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.phi1, self.phi2, self.phi_delta))):
            raise ValueError("interferometer phases must be finite: "
                             f"{self.phi1}, {self.phi2}, {self.phi_delta}")
        if abs(self.phi1 + self.phi2 - self.phi_delta) > _COMPENSATION_TOL:
            raise ValueError(
                "compensation condition phi1 + phi2 = phi_delta violated: "
                f"{self.phi1} + {self.phi2} != {self.phi_delta}")

    @classmethod
    def compensated(cls, phi2: float = 0.0, phi_delta: float = 0.0):
        """Config with ``phi1`` chosen to satisfy the compensation condition."""
        return cls(phi1=phi_delta - phi2, phi2=phi2, phi_delta=phi_delta)


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
    key bins and bins 0 and P the unmatched half-pulses.  They are float64
    for real `amps` behind real `coeffs` (zero imaginary parts), complex
    otherwise.
    """
    amps = np.asarray(amps)
    if not np.any(np.imag(coeffs)):
        coeffs = np.real(coeffs)
    out = []
    for direct, delayed in (coeffs[0::2], coeffs[1::2]):
        b = np.zeros(amps.shape[:-1] + (amps.shape[-1] + 1,),
                     dtype=np.result_type(amps, coeffs))
        b[..., :-1] = direct * amps
        b[..., 1:] += delayed * amps
        out.append(b)
    return tuple(out)


# ---------------------------------------------------------------------------
# Fock representation


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


# ---------------------------------------------------------------------------
# exact photon-number sectors


def sector_dim(n_modes: int, n: int) -> int:
    """Number of n-photon basis states of `n_modes` modes."""
    return math.comb(n + n_modes - 1, n_modes - 1)


def _capped_counts(caps, n_max: int):
    """Number of basis states with n = 0..n_max photons in all and at most
    ``caps[i]`` in mode i, as a list indexed by n."""
    counts = [1] + [0] * n_max
    for cap in caps:
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[n + 1] - prefix[max(0, n - cap)]
                  for n in range(n_max + 1)]
    return counts


def _sectors(n_modes: int, n_max: int):
    """Occupations, one row per state in ascending Kronecker order, of the
    n-photon states of `n_modes` modes for n = 0..n_max in turn, each
    built from the one before, so only sectors n - 1 and n are held.

    In ascending Kronecker order, the n-photon states of m modes are those
    of the last m - 1 modes behind an empty first mode, then the (n-1)-
    photon states of all m modes with one more photon in the first.  Each
    sector is held transposed, one row per mode, and handed out as the
    (states x modes) view.
    """
    # the sector just built of the last 1, 2, .., n_modes modes
    last = [np.zeros((m, 1), dtype=np.int64) for m in range(1, n_modes + 1)]
    yield last[-1].T
    for n in range(1, n_max + 1):
        below = np.full((1, 1), n, dtype=np.int64)
        last[0] = below
        for m in range(1, n_modes):
            d = below.shape[1]
            occ = np.empty((m + 1, d + last[m].shape[1]), np.int64)
            occ[0, :d], occ[1:, :d] = 0, below
            occ[:, d:] = last[m]
            occ[0, d:] += 1
            last[m] = below = occ
        yield below.T


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
    (m_n x 2B), and ``images[:, i] = U |inputs[i]>`` (dim_n x m_n), the
    transposed view of a C-ordered array with one image per row.  The
    sector bases are enumerated one sector at a time, each from the one
    before, so the lift holds no sector above the one it is on.

    Raises ValueError, before allocating anything, when `bins` is not an
    integer >= 1, `n_max` not one >= 0, an entry of `max_occupation` not
    one >= 0, or the largest block (dim_n x m_n entries, with m_n counted
    by :func:`_capped_counts`) exceeds ``DEFAULT_MAX_STATE_ENTRIES``.
    """
    _require_integers(bins=bins, n_max=n_max)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n_modes = 2 * bins
    caps = [n_max] * n_modes if max_occupation is None else \
        list(max_occupation)
    if len(caps) != n_modes:
        raise ValueError(f"max_occupation needs one bound per wire "
                         f"({n_modes}), got {len(caps)}")
    _require_integers(**{f"max_occupation[{i}]": c
                         for i, c in enumerate(caps)})
    if min(caps) < 0:
        raise ValueError(f"max_occupation bounds must be >= 0, got {caps}")
    caps = [min(c, n_max) for c in caps]
    # sectors above sum(caps) hold no input; the top sector holds one, and
    # sector dimensions grow with n, so its size alone can refuse at once
    n_max = min(n_max, sum(caps))
    if sector_dim(n_modes, n_max) > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"photon-number sector {n_max} of "
                         f"{sector_dim(n_modes, n_max)} states exceeds the "
                         f"sector bound {DEFAULT_MAX_STATE_ENTRIES}")
    counts = _capped_counts(caps, n_max)  # inputs per sector
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
    # base-(n_max + 1) codes sort like the rows of _sectors
    strides = (n_max + 1) ** np.arange(n_modes - 1, -1, -1)
    # the output wires each input wire reaches, and their amplitudes
    reach = [np.flatnonzero(u[:, k]) for k in range(n_modes)]
    amplitudes = [u[r, k][:, None] for k, r in enumerate(reach)]
    # images are built and kept transposed, one input's image per row, and
    # handed out as the (outputs x inputs) view
    images = np.ones((1, 1), dtype=u.dtype)
    input_codes = np.zeros(1, dtype=np.int64)
    sectors = _sectors(n_modes, n_max)
    vacuum = next(sectors)
    yield vacuum, vacuum, images.T
    for new_outputs in sectors:
        occupied = new_outputs.T
        inputs = new_outputs[np.all(occupied <= caps[:, None], axis=0)]
        # each input comes from its parent one photon down, taken off its
        # last occupied wire k: U|x> = sum_j u[j, k] b_j^dag U|x - e_k>
        # / sqrt(x_k), gathered for every output t from t - e_j with weight
        # sqrt(t_j).  s -> s + e_j keeps the order, so the outputs with
        # t_j > 0 are sector n - 1 in order; where t_j = 0 the weight is
        # zero and the (clipped) gather index immaterial
        k = n_modes - 1 - np.argmax(inputs[:, ::-1] > 0, axis=1)
        parents = np.searchsorted(input_codes, inputs @ strides - strides[k])
        scale = 1.0 / np.sqrt(inputs[np.arange(len(inputs)), k])
        low = np.cumsum(occupied > 0, axis=1) - 1
        root = np.sqrt(occupied)
        new_images = np.empty((len(inputs), len(new_outputs)), dtype=u.dtype)
        # tiles of about _LIFT_CHUNK entries, inputs x outputs, one plane
        # per output wire reached, stay in cache together with their gather
        # indices and weights
        span = min(len(new_outputs), _LIFT_SPAN)
        width = max(1, _LIFT_CHUNK // span)
        # the inputs grouped by their last occupied wire, one wire at a time
        by_wire = np.argsort(k, kind="stable")
        ends = np.searchsorted(k[by_wire], np.arange(n_modes + 1))
        for wire in np.flatnonzero(np.diff(ends)):
            rows = by_wire[ends[wire]:ends[wire + 1]]
            # a row per output wire j it reaches: t - e_j, u[j, k] sqrt(t_j)
            lows = low[reach[wire]]
            weights = root[reach[wire]] * amplitudes[wire]
            for c in range(0, len(rows), width):
                chunk = rows[c:c + width]
                src = images[parents[chunk]]
                src *= scale[chunk, None]
                for a in range(0, len(new_outputs), span):
                    cut = slice(a, a + span)
                    part = np.take(src, lows[:, cut], axis=1, mode="clip")
                    part *= weights[:, cut]
                    acc = part[:, 0]
                    for j in range(1, len(lows)):
                        acc += part[:, j]
                    new_images[chunk, cut] = acc
        images = new_images
        input_codes = inputs @ strides
        yield new_outputs, inputs, images.T
