"""Entanglement-based form of the protocol.

Instead of preparing pulse trains, a bipartite state is distributed whose
Alice half is a register of qubits and whose Bob half is the photonic
train; Alice's projective measurement in the computational basis prepares
Bob's signal remotely.  The state factorizes per time bin as
``(|0>|alpha> + |1>|-alpha>)/sqrt(2)``, and only that one factor, the
truncated :func:`coherent_amplitudes` of +-alpha, is stored.

``compare_statistics`` certifies that the click statistics Bob sees are
the same whichever way the signal was prepared.  Each flow gathers, from
the sessions' table of the four pulse pairs (``protocol._pair_table``),
one row of key-bin click probabilities per preparation S': the analytic
distance mixes the rows, and the Monte Carlo draws each trial's clicks
from its S' row with the sessions' sampler (``protocol._sample_pairs``).
Preparations and click patterns are numbered by packing their bits
(:func:`~dpsqkd.povm.packed_ids`, as :func:`~dpsqkd.povm.click_pattern_ids`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     _printable, _require_integers, interferometer_coefficients)
from .povm import id_bits, packed_ids
from .protocol import (DetectorModel, _integer_bits, _pair_table,
                       _positioned_rng, _sample_pairs)


@dataclass(frozen=True)
class EbState:
    """The distributed bipartite state: one factor per time bin, all equal.

    ``factor`` is a (2, cutoff+1) array: row b holds the (unnormalized)
    photonic amplitudes paired with Alice outcome b in a bin.  The state
    is the tensor product of `n_pulses` copies of it.
    """

    alpha: complex
    factor: np.ndarray
    n_pulses: int

    def factor_born_probabilities(self) -> np.ndarray:
        """Born probabilities of Alice's two outcomes in any bin."""
        w = np.sum(np.abs(self.factor) ** 2, axis=1)
        return w / w.sum()

    def collapsed_bin_state(self, bit: int) -> np.ndarray:
        """Normalized photonic state of a bin given Alice outcome `bit`."""
        row = self.factor[bit]
        return row / np.linalg.norm(row)


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Length ``cutoff+1`` amplitude array of a truncated coherent state."""
    if alpha == 0:
        return np.eye(1, cutoff + 1, dtype=complex)[0]
    n = np.arange(cutoff + 1)
    logfact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff + 1))]))
    mag = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - logfact / 2)
    return mag * (alpha / abs(alpha)) ** n


#: the largest cutoff whose 2 x (cutoff+1) state factor is within the bound
_LARGEST_CUTOFF = DEFAULT_MAX_STATE_ENTRIES // 2 - 1


def _checked_alpha(alpha):
    """`alpha` as a complex, and its intensity |alpha|^2, refused in one
    line unless |alpha| < 1e154: the square overflows a float from 1.34e154."""
    alpha = complex(alpha)
    if not abs(alpha) < 1e154:
        raise ValueError(f"alpha must be finite, |alpha| < 1e154, got {alpha}")
    return alpha, abs(alpha) ** 2


def build_eb_state(n_key_bins: int, alpha: complex, cutoff: int) -> EbState:
    """The distributed state for N key bins (N+1 pulses).  Raises ValueError
    for a non-integer count, N < 0, a cutoff below 1 or above
    ``_LARGEST_CUTOFF``, or an alpha that :func:`_checked_alpha` refuses."""
    _require_integers(n_key_bins=n_key_bins, cutoff=cutoff)
    if n_key_bins < 0:
        raise ValueError(f"n_key_bins must be >= 0, got {n_key_bins}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if cutoff > _LARGEST_CUTOFF:
        raise ValueError(f"cutoff {_printable(cutoff)} needs a factor of "
                         f"{_printable(2 * (cutoff + 1))} entries, which "
                         f"exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}")
    alpha, _ = _checked_alpha(alpha)
    factor = np.stack([coherent_amplitudes(alpha, cutoff),
                       coherent_amplitudes(-alpha, cutoff)]) / math.sqrt(2.0)
    return EbState(alpha, factor, n_key_bins + 1)


def collapsed_mean_amplitude(state: EbState, bit: int) -> complex:
    """Coherent amplitude of a bin's collapsed state, from the state itself."""
    v = state.collapsed_bin_state(bit)
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
    under the two preparations, which pass as equivalent when the analytic
    distance is at most ``ANALYTIC_DISTANCE_GATE``."""

    n_key_bins: int
    alpha2: float
    analytic_distance: float
    empirical_distance: Optional[float]
    trials: int
    sigma: float

    @property
    def passed(self) -> bool:
        return self.analytic_distance <= ANALYTIC_DISTANCE_GATE

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


def _pattern_distribution(table: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """Bob's click-pattern distribution, indexed by
    :func:`~dpsqkd.povm.click_pattern_ids`, for the mixture with `weights`
    (K,) of the pulse trains with click probabilities `table` (2, K, N)
    of D0 and D1 in their key bins."""
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
    # the axes of `mixture` are the (D0, D1) clicks of bin 1, of bin 2, ...:
    # in C order, the bits that click_pattern_ids packs
    return mixture.ravel()


def _chunk_pattern_ids(seeded: dict, trials: int, n_key_bins: int,
                       tables: np.ndarray, born1: float, r0: int, work):
    """Click-pattern ids of both flows for the chunk of trial rows from r0
    (even), drawn as a generator at the PCG64 state `seeded` draws them in
    turn: the P&M S' bits (trials, N+1) at 32 bits each, its D0, then D1
    uniforms (trials, N) as :func:`_sample_pairs` draws them, the EB
    Born uniforms (trials, N+1), its D0, then D1 uniforms: the D1 uniforms
    by a new generator each, the rest by one of the chunk's own moved from
    draw to draw.  A trial clicks by row S'
    (big-endian) of ``tables[flow]`` (2, 2^(N+1), N).  The ids are fresh
    arrays; `work` holds the worker's: S' (rows, N+1), its :func:`id_bits`
    and intp ids, the clicks' :func:`id_bits`, and two rows of floats."""
    rows, n_pulses = min(_MC_CHUNK_ROWS, trials - r0), n_key_bins + 1
    s, s_bits, classes, clicks = (a[:rows] for a in work[:4])
    rng = _positioned_rng(seeded, r0 * n_pulses // 2)
    _integer_bits(rng, s, np.int64)
    at = -(-trials * n_pulses // 2)          # the first uniform's output
    out = clicks[:, -2 * n_key_bins::2], clicks[:, 1 - 2 * n_key_bins::2]
    ids = []
    for table in tables:
        if ids:                              # the EB flow draws its S'
            np.less(_positioned_rng(seeded, at + r0 * n_pulses, rng).random(
                out=work[4][0, :s.size].reshape(s.shape)), born1, out=s)
            at += trials * n_pulses
        # one copy of P-byte items, not of P bools each
        np.copyto(s_bits[:, -n_pulses:].view(f"V{n_pulses}"),
                  s.view(f"V{n_pulses}"))
        np.copyto(classes, packed_ids(s_bits))
        # the chunk's D0 uniforms, by `rng`, then its D1 uniforms
        first, stride = at + r0 * n_key_bins, trials * n_key_bins
        streams = [_positioned_rng(seeded, first, rng),
                   _positioned_rng(seeded, first + stride)]
        _sample_pairs(DetectorModel.ideal(), table, classes, streams, out,
                      work[4][:, :rows * n_key_bins].reshape(2, rows, -1))
        ids.append(packed_ids(clicks))
        at += 2 * stride
    return ids


def _sufficient_cutoff(mu: float, n_key_bins: int, cutoff: int):
    """Smallest cutoff >= `cutoff` that passes the truncation check of
    :func:`compare_statistics`, or None above ``_LARGEST_CUTOFF``, and the
    tail P(X > cutoff) of X ~ Poisson(mu > 0), or None when cutoff < floor(mu).
    That tail exceeds 1/4 for every cutoff < mu, so the search spans 12 sigma
    above max(cutoff, mu) in log space."""
    lo = max(cutoff, math.floor(mu))
    if lo > _LARGEST_CUTOFF:
        return None, None
    n = np.arange(lo + 1, lo + 42 + math.ceil(12 * math.sqrt(mu)))
    tails = np.cumsum(np.exp(n * math.log(mu) - mu - math.lgamma(lo + 1)
                             - np.cumsum(np.log(n)))[::-1])[::-1]
    ok = 2 * n_key_bins * n * tails <= ANALYTIC_DISTANCE_GATE * (1 - tails)
    enough = int(n[np.argmax(ok)]) - 1        # tails[j] = P(X > n[j] - 1)
    return (enough if ok.any() and enough <= _LARGEST_CUTOFF else None,
            float(tails[0]) if lo == cutoff else None)


def compare_statistics(n_key_bins: int, alpha: complex, trials: int = 0,
                       cutoff: int = 10, seed: int = 0,
                       config: Optional[InterferometerConfig] = None,
                       eb_delay_defect: float = 0.0) -> EbComparisonReport:
    """Compare Bob's click-pattern distribution under P&M preparation with
    uniform S' against EB preparation plus Alice's measurement.

    Each flow gathers from its table of the four pulse pairs the key-bin
    click probabilities of each of its 2^(N+1) preparations S'.  For the
    analytic distance it mixes the patterns over all S' exactly.  The
    empirical distance (when ``trials > 0``) draws each trial's S' -- P&M
    uniformly, EB by Alice's Born probabilities -- and its clicks from the
    row of that S', in chunks of trials on up to ``_MC_WORKERS`` threads,
    each with arrays of its own.  Each chunk draws, at their positions in
    the stream, the numbers that a sequential ``np.random.default_rng(seed)``
    draws for its trials in the order of :func:`_sample_pairs`
    (:func:`_chunk_pattern_ids`), so neither the worker count nor the chunk
    size changes a report.
    `eb_delay_defect` is a test hook: it injects an uncompensated phase
    into the delay arm of the EB flow only, an inconsistency the
    comparison must catch.  (Phases on the output paths would not do:
    ideal bucket detection is insensitive to them.)

    Raises ValueError, before any work, for a count (`n_key_bins`, `trials`,
    `cutoff`, `seed`) that is not an integer, for an `alpha` not finite and
    below 1e154 in size, and when the enumeration (2^(N+1) preparations x
    4^N patterns), trials x (N+2) for the Monte Carlo (which holds one chunk
    of rows per worker) or the state's factor (2 x (cutoff+1)) exceed
    ``optics.DEFAULT_MAX_STATE_ENTRIES``; and when the truncation alone could
    fail ``ANALYTIC_DISTANCE_GATE``, judged on the exact Poisson tail
    P(X > cutoff) it leaves out, which the refusal names (or its bound 1/4
    below mu) without building the state: that tail shrinks each collapsed
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
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    alpha, mu = _checked_alpha(alpha)
    # the enumeration's 2^(N+1) x 4^N entries, 2^exponent, exceed the bound
    # exactly when the exponent reaches the bound's bit length
    n_pulses, exponent = n_key_bins + 1, 3 * n_key_bins + 1
    if (exponent >= DEFAULT_MAX_STATE_ENTRIES.bit_length()
            or trials * (n_key_bins + 2) > DEFAULT_MAX_STATE_ENTRIES
            or cutoff > _LARGEST_CUTOFF):
        raise ValueError(
            f"{_printable(n_key_bins)} key bins, {_printable(trials)} trials "
            f"and cutoff {_printable(cutoff)} need 2^{_printable(exponent)}, "
            f"{_printable(trials * (n_key_bins + 2))} and "
            f"{_printable(2 * (cutoff + 1))} entries (2^(N+1) x 4^N, trials "
            f"x (N+2) and 2 x (cutoff+1)), "
            f"and the largest exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}")
    enough, tail = (_sufficient_cutoff(mu, n_key_bins, cutoff) if mu
                    else (cutoff, 0.0))
    if enough != cutoff:
        raise ValueError(
            f"cutoff {cutoff} leaves out the Poisson tail P(X > {cutoff}) "
            f"{'> 1/4' if tail is None else f'= {tail:.3g}'} of each pulse, "
            f"which alone could push the analytic distance past its gate "
            f"{ANALYTIC_DISTANCE_GATE}; " + (
                f"cutoff {enough} is the smallest that suffices"
                if enough is not None else
                "no cutoff within the size bound suffices"))
    state = build_eb_state(n_key_bins, alpha, cutoff)
    c_pm = interferometer_coefficients(config or
                                       InterferometerConfig.compensated())
    # the test hook: an uncompensated phase in the EB flow's delay arm
    c_eb = c_pm * np.exp(1j * eb_delay_defect * np.array([0, 0, 1, 1]))

    born = state.factor_born_probabilities()
    amp_of_bit = np.array([collapsed_mean_amplitude(state, b) for b in (0, 1)])
    ideal = DetectorModel.ideal()
    pair_tables = np.stack([
        _pair_table(ideal, np.array([1.0, -1.0]) * alpha, c_pm),
        _pair_table(ideal, amp_of_bit, c_eb)])

    # row k of S' holds the N+1 bits of k; tables[flow, detector, k] the
    # click probabilities of its key bins
    s_primes = np.indices((2,) * n_pulses).reshape(n_pulses, -1).T
    tables = pair_tables.take(2 * s_primes[:, :-1] + s_primes[:, 1:], axis=2)
    dist_pm = _pattern_distribution(tables[0], np.full(len(s_primes),
                                                       0.5 ** n_pulses))
    dist_eb = _pattern_distribution(tables[1], np.prod(born[s_primes], axis=1))
    analytic = 0.5 * float(np.sum(np.abs(dist_pm - dist_eb)))

    empirical, sigma = None, 0.0
    if trials > 0:
        from concurrent.futures import ThreadPoolExecutor

        seeded = np.random.default_rng(seed).bit_generator.state
        starts = iter(range(0, trials, _MC_CHUNK_ROWS))

        def histograms(_):
            # each worker takes the shared iterator's next chunk until none
            # is left, with arrays of its own; integer sums in any order are
            # exact
            rows, total = _MC_CHUNK_ROWS, 0
            work = (np.empty((rows, n_pulses), bool),
                    id_bits((rows,), n_pulses), np.empty(rows, np.intp),
                    id_bits((rows,), 2 * n_key_bins),
                    np.empty((2, rows * n_pulses)))
            for r0 in starts:
                total += np.stack([np.bincount(i, minlength=4 ** n_key_bins)
                                   for i in _chunk_pattern_ids(
                                       seeded, trials, n_key_bins, tables,
                                       born[1], r0, work)])
            return total

        workers = min(_MC_WORKERS, -(-trials // _MC_CHUNK_ROWS))
        with ThreadPoolExecutor(workers) as pool:
            h_pm, h_eb = sum(pool.map(histograms, range(workers))) / trials
        empirical = 0.5 * float(np.sum(np.abs(h_pm - h_eb)))
        sigma = 1.0 / math.sqrt(2.0 * trials)

    return EbComparisonReport(n_key_bins, mu, analytic,
                              empirical, trials, sigma)
