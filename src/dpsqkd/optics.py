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

#: entries per tile of a sector lift's images
_LIFT_CHUNK = 2 ** 16


def _require_integers(**values):
    """Refuse, by name, the first value that is not an integer (a bool
    included) with a one-line ValueError."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _printable(n: int) -> str:
    """A count in full below 10^30, else as 10^log10(n): Python prints no
    integer of over 4300 digits."""
    return str(n) if n < 10 ** 30 else f"10^{math.log10(n):.2f}"


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


def _wires(bins: int) -> int:
    """The 2B wires of `bins` time bins, refused in one line before any list
    of B items when the mode map's (2B)^2 entries exceed the bound."""
    if 4 * bins * bins > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"{_printable(bins)} bins need a mode map of "
                         f"{_printable(4 * bins * bins)} entries, which "
                         f"exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}")
    return 2 * bins


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


def sector_lift(config: InterferometerConfig, bins: int, n_max: int):
    """Exact interferometer images of the wire basis states with at most
    `n_max` photons, one photon-number sector at a time, with nothing
    truncated.

    The interferometer conserves photon number and maps input creation
    operators through the mode map ``u`` (:func:`single_particle_unitary`):
    ``U |x + e_k> = sum_j u[j, k] b_j^dag U |x> / sqrt(x_k + 1)``, a sparse
    creation map from sector n - 1 to sector n.  Stays in float64 when
    ``u`` is real.

    Returns an iterator of ``(outputs, inputs, images)`` over sectors
    0..n_max: the occupation rows of the sector basis (dim_n x 2B), which
    are also its inputs, and ``images[:, i] = U |inputs[i]>``, the
    transposed view of a C-ordered array with one image per row.  The
    sector bases are enumerated one sector at a time, each from the one
    before, so the lift holds no sector above the one it is on.

    Raises ValueError, before allocating anything, when `bins` is not an
    integer >= 1, `n_max` not one >= 0, or the mode map or the top
    sector's block exceeds ``DEFAULT_MAX_STATE_ENTRIES``.
    """
    _require_integers(bins=bins, n_max=n_max)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return _lift(config, bins, n_max, [n_max] * _wires(bins), n_max)


def _lift(config: InterferometerConfig, bins: int, n_max: int, caps,
          full: int):
    """The bound check and lift of :func:`sector_lift` and every reduction,
    over sectors 0..n_max: sectors 0..`full` take every wire state as input,
    the sectors above the states with at most ``caps[i]`` photons on wire i,
    so every input's parent, one photon down, is one of the sector below.
    The top sector must hold an input, and no block exceed the bound."""
    n_modes = 2 * bins
    # sector sizes grow with n: the top sector's size refuses at once, and
    # sector `full`'s block (its states are its inputs) before any count;
    # the top one's C(a + b, b), the product of (a + j) / j over j <= b, is
    # summed in log10 first, and counted exactly only below 10^31
    b, a = sorted((n_max, n_modes - 1))
    digits = math.fsum(math.log10(a + j) - math.log10(j)
                       for j in range(1, b + 1))
    top = sector_dim(n_modes, n_max) if digits < 31 else math.inf
    if top > DEFAULT_MAX_STATE_ENTRIES:
        size = _printable(top) if digits < 31 else f"10^{digits:.2f}"
        raise ValueError(f"photon-number sector {_printable(n_max)} of "
                         f"{size} states exceeds the sector bound "
                         f"{DEFAULT_MAX_STATE_ENTRIES}")
    n, m = full, sector_dim(n_modes, full)
    if full < n_max and m * m <= DEFAULT_MAX_STATE_ENTRIES:
        counts = _capped_counts(caps, n_max)          # inputs per sector
        n = max(range(full + 1, n_max + 1),
                key=lambda n: sector_dim(n_modes, n) * counts[n])
        m = counts[n]
    dim = sector_dim(n_modes, n)
    if dim * m > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"photon-number sector {n} block of {dim} states x {m} inputs "
            f"= {dim * m} entries exceeds the sector bound "
            f"{DEFAULT_MAX_STATE_ENTRIES}")
    return _lift_sectors(config, bins, n_max, np.array(caps), full)


def _lift_sectors(config: InterferometerConfig, bins: int, n_max: int,
                  caps: np.ndarray, full: int):
    """The images of :func:`_lift`'s inputs under the `bins`-bin mode map,
    as :func:`sector_lift` hands them out.

    Each entry of an image is built from its parent's image alone, by the
    same operations in the same order whatever else shares its sector or
    tile; so an input gets the same image, bit for bit, from any lift in
    which it is an input.
    """
    u = single_particle_unitary(config, bins)
    if not np.any(u.imag):
        u = np.ascontiguousarray(u.real)
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
    for n, new_outputs in enumerate(sectors, 1):
        occupied = new_outputs.T
        inputs = new_outputs if n <= full else \
            new_outputs[np.all(occupied <= caps[:, None], axis=0)]
        # each input comes from its parent one photon down, taken off its
        # last occupied wire k: U|x> = sum_j u[j, k] b_j^dag U|x - e_k>
        # / sqrt(x_k), gathered for every output t from t - e_j with weight
        # sqrt(t_j).  s -> s + e_j keeps the order, so the outputs with
        # t_j > 0 are sector n - 1 in order; where t_j = 0 the weight is
        # zero and the (clipped) gather index immaterial
        k = n_modes - 1 - np.argmax(inputs[:, ::-1] > 0, axis=1)
        codes = inputs @ strides
        parents = np.searchsorted(input_codes, codes - strides[k])
        scale = 1.0 / np.sqrt(inputs[np.arange(len(inputs)), k])
        low = np.cumsum(occupied > 0, axis=1) - 1
        root = np.sqrt(occupied)
        new_images = np.empty((len(inputs), len(new_outputs)), dtype=u.dtype)
        # the inputs grouped by their last occupied wire, each wire's rows in
        # tiles of at most _LIFT_CHUNK entries or one row, inputs x outputs,
        # one plane per output wire the wire reaches
        by_wire = np.argsort(k, kind="stable")
        ends = np.searchsorted(k[by_wire], np.arange(n_modes + 1)).tolist()
        parents, scale = parents[by_wire], scale[by_wire, None]
        width = max(1, _LIFT_CHUNK // len(new_outputs))
        for wire in np.flatnonzero(np.diff(ends)):
            # a row per output wire j it reaches: t - e_j and u[j, k] sqrt(t_j)
            lows = low[reach[wire]]
            weights = root[reach[wire]] * amplitudes[wire]
            for c in range(ends[wire], ends[wire + 1], width):
                rows = slice(c, min(c + width, ends[wire + 1]))
                part = np.take(images[parents[rows]] * scale[rows], lows,
                               axis=1, mode="clip")
                part *= weights
                acc = part[:, 0]
                for j in range(1, len(lows)):
                    acc += part[:, j]
                new_images[by_wire[rows]] = acc
        images, input_codes = new_images, codes
        yield new_outputs, inputs, images.T
