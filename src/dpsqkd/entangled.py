"""Entanglement-based form of the protocol.

Instead of preparing pulse trains, a bipartite state is distributed whose
Alice half is a register of qubits and whose Bob half is the photonic
train; Alice's projective measurement in the computational basis prepares
Bob's signal remotely.  The state factorizes per time bin as
``(|0>|alpha> + |1>|-alpha>)/sqrt(2)``, and only the per-bin factors are
stored.

``compare_statistics`` certifies that the click statistics Bob sees are
the same whichever way the signal was prepared.  Both flows run through
the protocol's own click kernel (:func:`~dpsqkd.optics.propagate`, then
``DetectorModel.click_probabilities``, clicks drawn in the order of
``DetectorModel.sample``) and :func:`~dpsqkd.povm.click_pattern_ids`.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fock
from .fock import FockVector, ModeRegistry, _require_integers
from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     interferometer_coefficients, propagate)
from .povm import click_pattern_ids
from .protocol import DetectorModel


@dataclass(frozen=True)
class EbState:
    """The distributed bipartite state, one factor per time bin.

    ``factors[i]`` is a (2, cutoff+1) array: row b holds the (unnormalized)
    photonic amplitudes paired with Alice outcome b in bin i.  The state
    is the tensor product of the factors.
    """

    registry: ModeRegistry
    alpha: complex
    factors: tuple

    @property
    def n_pulses(self) -> int:
        return len(self.factors)

    def factor_born_probabilities(self, i: int) -> np.ndarray:
        """Born probabilities of Alice's two outcomes in bin i."""
        f = self.factors[i]
        w = np.sum(np.abs(f) ** 2, axis=1)
        return w / w.sum()

    def collapsed_bin_state(self, i: int, bit: int) -> np.ndarray:
        """Normalized photonic state of bin i given Alice outcome `bit`."""
        row = self.factors[i][bit]
        return row / np.linalg.norm(row)

    def norm2(self) -> float:
        out = 1.0
        for i in range(self.n_pulses):
            out *= float(np.sum(np.abs(self.factors[i]) ** 2))
        return out


def build_eb_state(n_key_bins: int, alpha: complex, cutoff: int) -> EbState:
    """Construct the distributed state for N key bins (N+1 pulses)."""
    n_pulses = n_key_bins + 1
    alpha = complex(alpha)
    reg = ModeRegistry([(0, i) for i in range(n_pulses)], cutoff)
    row0 = fock.coherent_amplitudes(alpha, cutoff) / math.sqrt(2.0)
    row1 = fock.coherent_amplitudes(-alpha, cutoff) / math.sqrt(2.0)
    factor = np.stack([row0, row1])
    factors = tuple(factor.copy() for _ in range(n_pulses))
    return EbState(reg, alpha, factors)


def alice_measure(state: EbState, rng: np.random.Generator):
    """Project Alice's register in the computational basis.

    Returns ``(s_prime, collapsed)``: the sampled bit string (uniform by
    construction) and the post-measurement photonic state, which is the
    corresponding pulse-train vector.
    """
    bits = np.empty(state.n_pulses, dtype=np.uint8)
    vec = None
    for i in range(state.n_pulses):
        p = state.factor_born_probabilities(i)
        b = int(rng.random() < p[1])
        bits[i] = b
        row = state.collapsed_bin_state(i, b)
        vec = row if vec is None else np.kron(vec, row)
    return bits, FockVector(state.registry, vec, normalized=True)


def pulse_train_vector(state: EbState, s_prime: np.ndarray) -> FockVector:
    """The P&M pulse-train vector for a given S', on the same registry and
    cutoff as the EB state (normalized)."""
    vec = None
    for b in np.asarray(s_prime, dtype=int):
        row = fock.coherent_amplitudes((-1) ** b * state.alpha, state.registry.cutoff)
        row = row / np.linalg.norm(row)
        vec = row if vec is None else np.kron(vec, row)
    return FockVector(state.registry, vec, normalized=True)


def alice_reduced_density(state: EbState) -> np.ndarray:
    """Alice's reduced density matrix: the Kronecker product of every
    factor's normalized 2x2 Gram matrix, exact because the state is a
    product over bins.

    Raises ValueError, before allocating, when the 2^(N+1) x 2^(N+1)
    result exceeds ``optics.DEFAULT_MAX_STATE_ENTRIES``.
    """
    entries = 4 ** state.n_pulses
    if entries > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"reduced density of {state.n_pulses} qubits has "
                         f"{entries} entries, above the bound "
                         f"{DEFAULT_MAX_STATE_ENTRIES}")
    rho = np.ones((1, 1))
    for f in state.factors:
        gram = f @ f.conj().T
        rho = np.kron(rho, gram / np.trace(gram).real)
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits of a density matrix."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def factor_schmidt_values(state: EbState, i: int) -> np.ndarray:
    """Schmidt coefficients of factor i (both nonzero iff entangled)."""
    f = state.factors[i]
    s = np.linalg.svd(f, compute_uv=False)
    return s / np.linalg.norm(f)


def collapsed_mean_amplitude(state: EbState, i: int, bit: int) -> complex:
    """Coherent amplitude of bin i's collapsed state, from the state itself."""
    v = state.collapsed_bin_state(i, bit)
    w = np.sqrt(np.arange(1, v.size))
    return complex(np.sum(v[:-1].conj() * v[1:] * w))


# ---------------------------------------------------------------------------
# statistical equivalence of the two preparations

#: largest analytic distance that certifies the two preparations equivalent
ANALYTIC_DISTANCE_GATE = 1e-8

#: Monte Carlo trial rows per chunk; even, so that the S' bits of every
#: chunk start on a whole 64-bit output of the stream
_MC_CHUNK_ROWS = 1 << 15
#: threads that run the chunks; NumPy releases the GIL in RNG fills and ufuncs
_MC_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@dataclass(frozen=True)
class EbComparisonReport:
    """Total-variation distance between Bob's click-pattern distributions
    under the two preparations."""

    n_key_bins: int
    alpha2: float
    analytic_distance: float
    empirical_distance: Optional[float]
    trials: int
    sigma: float

    def to_text(self) -> str:
        lines = [f"keyBins = {self.n_key_bins}",
                 f"alphaSquared = {self.alpha2!r}",
                 f"analyticDistance = {self.analytic_distance!r}"]
        if self.empirical_distance is None:
            lines.append("empiricalDistance = absent (no trials requested)")
        else:
            lines += [f"empiricalDistance = {self.empirical_distance!r}",
                      f"trials = {self.trials}",
                      f"sigma = {self.sigma!r}  (bounded-differences scale)"]
        return "\n".join(lines)


def _click_table(amps: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Click probabilities (2, K, N) of ideal D0 and D1 on the key bins of
    the pulse trains ``amps`` (K, N+1) behind the mode map `c`."""
    return DetectorModel.ideal().click_probabilities(
        np.stack(propagate(amps, c))[..., 1:-1])


def _pattern_distribution(table: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """Bob's click-pattern distribution, indexed by
    :func:`~dpsqkd.povm.click_pattern_ids`, for the mixture with `weights`
    (K,) of the pulse trains with click `table` (:func:`_click_table`)."""
    p0, p1 = table
    # cells[k, i, x, y]: probability of the clicks (D0, D1) = (x, y) in
    # key bin i under pulse train k
    cells = (np.stack([1 - p0, p0], axis=-1)[..., :, None]
             * np.stack([1 - p1, p1], axis=-1)[..., None, :])
    mixture = 0.0
    for w, train_cells in zip(weights, cells):
        joint = w
        for cell in train_cells:
            joint = np.multiply.outer(joint, cell)
        mixture = mixture + joint
    # the axes of `mixture` are the (D0, D1) clicks of bin 1, of bin 2, ...
    clicks = np.indices(mixture.shape, dtype=bool).reshape(mixture.ndim, -1)
    dist = np.empty(mixture.size)
    dist[click_pattern_ids(clicks[0::2].T, clicks[1::2].T)] = mixture.ravel()
    return dist


def _positioned_rng(seed: int, outputs: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` after `outputs` 64-bit draws."""
    return np.random.Generator(np.random.PCG64(seed).advance(outputs))


def _chunk_pattern_ids(seed: int, trials: int, n_key_bins: int,
                       pair_tables: np.ndarray, born1: float, r0: int):
    """Click-pattern ids of both flows for the chunk of trial rows from r0
    (even), drawn as a sequential ``np.random.default_rng(seed)`` draws
    them: the P&M S' bits (trials, N+1) at 32 bits each, its D0, then D1
    uniforms (trials, N) as :meth:`DetectorModel.sample` draws them, the EB
    Born uniforms (trials, N+1), its D0, then D1 uniforms.  Key bin i clicks
    with the probability ``pair_tables[flow, detector, 2 s_i + s_(i+1)]``."""
    rows, n_pulses = min(_MC_CHUNK_ROWS, trials - r0), n_key_bins + 1
    s = _positioned_rng(seed, r0 * n_pulses // 2).integers(
        0, 2, (rows, n_pulses))
    at = -(-trials * n_pulses // 2)          # the first uniform's output
    ids = []
    for tables in pair_tables:
        if ids:                              # the EB flow draws its S'
            s = _positioned_rng(seed, at + r0 * n_pulses).random(
                (rows, n_pulses)) < born1
            at += trials * n_pulses
        pair = 2 * s[:, :-1] + s[:, 1:]
        d0, d1 = (_positioned_rng(seed, at + (j * trials + r0) * n_key_bins)
                  .random(pair.shape) < tables[j][pair] for j in (0, 1))
        ids.append(click_pattern_ids(d0, d1))
        at += 2 * trials * n_key_bins
    return ids


def _sufficient_cutoff(mu: float, n_key_bins: int, cutoff: int):
    """Smallest cutoff >= `cutoff` that passes the truncation check of
    :func:`compare_statistics`, or None when it exceeds the size bound.
    The tail P(X > c) of X ~ Poisson(mu) exceeds 1/4 for every c < mu, so
    the search spans 12 sigma above max(cutoff, mu) in log space."""
    largest = DEFAULT_MAX_STATE_ENTRIES // (2 * n_key_bins + 2) - 1
    lo = max(cutoff, math.floor(mu))
    if lo > largest:
        return None
    n = np.arange(lo + 1, lo + 42 + math.ceil(12 * math.sqrt(mu)))
    tails = np.cumsum(np.exp(n * math.log(mu) - mu - math.lgamma(lo + 1)
                             - np.cumsum(np.log(n)))[::-1])[::-1]
    ok = 2 * n_key_bins * n * tails <= ANALYTIC_DISTANCE_GATE * (1 - tails)
    enough = int(n[np.argmax(ok)]) - 1        # tails[j] = P(X > n[j] - 1)
    return enough if ok.any() and enough <= largest else None


def compare_statistics(n_key_bins: int, alpha: complex, trials: int = 0,
                       cutoff: int = 10, seed: int = 0,
                       config: Optional[InterferometerConfig] = None,
                       eb_delay_defect: float = 0.0) -> EbComparisonReport:
    """Compare Bob's click-pattern distribution under P&M preparation with
    uniform S' against EB preparation plus Alice's measurement.

    For the analytic distance, each flow propagates its 2^(N+1) distinct
    pulse trains once, into a table of D0 and D1 click probabilities
    (:func:`_click_table`), and mixes its rows over all S' exactly.  The
    empirical distance (when ``trials > 0``) draws each trial's S' -- P&M
    uniformly, EB by Alice's Born probabilities -- and its clicks from the
    table of the four pulse pairs, in chunks of trials on up to
    ``_MC_WORKERS`` threads.  Each chunk draws, at their positions in the
    stream, the numbers that a sequential ``np.random.default_rng(seed)``
    draws for its trials in the order of :meth:`DetectorModel.sample`
    (:func:`_chunk_pattern_ids`), so the worker count changes no report.
    `eb_delay_defect` is a test hook: it injects an uncompensated phase
    into the delay arm of the EB flow only, an inconsistency the
    comparison must catch.  (Phases on the output paths would not do:
    ideal bucket detection is insensitive to them.)

    Raises ValueError, before any work, for a count (`n_key_bins`, `trials`,
    `cutoff`, `seed`) that is not an integer, for a non-finite `alpha` and when
    the enumeration (2^(N+1) preparations x 4^N patterns), the Monte Carlo
    arrays (trials x (N+2)) or the state's factors (2(N+1) x (cutoff+1))
    exceed ``optics.DEFAULT_MAX_STATE_ENTRIES``; and, once the state is built,
    when its truncation alone could fail ``ANALYTIC_DISTANCE_GATE``: the
    Poisson tail P(X > cutoff) it leaves out shrinks each collapsed
    amplitude by a fraction of at most (cutoff+1) tail / (mu (1 - tail)),
    which moves the distance by at most 2N (cutoff+1) tail / (1 - tail).
    """
    _require_integers(n_key_bins=n_key_bins, trials=trials, cutoff=cutoff,
                      seed=seed)
    if n_key_bins < 1:
        raise ValueError("need at least one key bin")
    if trials < 0 or seed < 0 or not math.isfinite(eb_delay_defect):
        raise ValueError(f"trials and seed must be >= 0 and eb_delay_defect "
                         f"finite, got {trials}, {seed}, {eb_delay_defect}")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n_pulses = n_key_bins + 1
    entries = max(2 ** n_pulses * 4 ** n_key_bins, trials * (n_key_bins + 2),
                  2 * n_pulses * (cutoff + 1))
    if entries > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"{n_key_bins} key bins, {trials} trials and cutoff {cutoff} need "
            f"{entries} entries (2^(N+1) x 4^N, trials x (N+2) or 2(N+1) x "
            f"(cutoff+1)), which exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}")
    state = build_eb_state(n_key_bins, alpha, cutoff)
    tail = 1.0 - float(np.sum(np.abs(state.factors[0]) ** 2))
    if 2 * n_key_bins * (cutoff + 1) * tail > ANALYTIC_DISTANCE_GATE * (1 - tail):
        enough = _sufficient_cutoff(abs(alpha) ** 2, n_key_bins, cutoff)
        raise ValueError(
            f"cutoff {cutoff} leaves out the Poisson tail P(X > {cutoff}) = "
            f"{tail:.3g} of each pulse, which alone could push the analytic "
            f"distance past its gate {ANALYTIC_DISTANCE_GATE}; " + (
                f"cutoff {enough} is the smallest that suffices"
                if enough is not None else
                "no cutoff within the size bound suffices"))
    c_pm = interferometer_coefficients(config or
                                       InterferometerConfig.compensated())
    # the test hook: an uncompensated phase in the EB flow's delay arm
    c_eb = c_pm * np.exp(1j * eb_delay_defect * np.array([0, 0, 1, 1]))

    # row k of each table is the pulse train of S' = the N+1 bits of k
    born = state.factor_born_probabilities(0)    # every factor is the same
    amp_of_bit = np.array([collapsed_mean_amplitude(state, 0, b)
                           for b in (0, 1)])
    s_primes = np.indices((2,) * n_pulses).reshape(n_pulses, -1).T
    table_pm = _click_table((1.0 - 2.0 * s_primes) * alpha, c_pm)
    table_eb = _click_table(amp_of_bit[s_primes], c_eb)
    dist_pm = _pattern_distribution(table_pm, np.full(len(s_primes),
                                                      0.5 ** n_pulses))
    dist_eb = _pattern_distribution(table_eb, np.prod(born[s_primes], axis=1))
    analytic = 0.5 * float(np.sum(np.abs(dist_pm - dist_eb)))

    empirical, sigma = None, 0.0
    if trials > 0:
        from concurrent.futures import ThreadPoolExecutor

        pairs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        pair_tables = np.stack([_click_table((1.0 - 2.0 * pairs) * alpha, c_pm),
                                _click_table(amp_of_bit[pairs], c_eb)])[..., 0]

        def histograms(r0):
            return np.stack([np.bincount(i, minlength=4 ** n_key_bins)
                             for i in _chunk_pattern_ids(
                                 seed, trials, n_key_bins, pair_tables,
                                 born[1], r0)])

        starts = range(0, trials, _MC_CHUNK_ROWS)
        with ThreadPoolExecutor(min(_MC_WORKERS, len(starts))) as pool:
            h_pm, h_eb = sum(pool.map(histograms, starts)) / trials
        empirical = 0.5 * float(np.sum(np.abs(h_pm - h_eb)))
        sigma = 1.0 / math.sqrt(2.0 * trials)

    return EbComparisonReport(n_key_bins, abs(alpha) ** 2, analytic,
                              empirical, trials, sigma)
