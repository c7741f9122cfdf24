"""Whole-array session pipeline, numpy only: the sequential oracle for the
chunked pair-table one of ``protocol.run_session``.

Every stage runs once over all N key bins on the pulse amplitudes:
propagate the whole train, take each key bin's click probabilities,
draw the clicks (:func:`detect`), turn them into Bob's bits
(:func:`extract_bob_bits`) and restrict both keys to the disclosed bins
(:func:`sift`).  One generator draws in order: Alice's S', Eve's tap
uniforms, her D0 and D1 uniforms and her resend bits, then Bob's D0, D1,
dark D0 and dark D1 uniforms.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dpsqkd.optics import (InterferometerConfig, interferometer_coefficients,
                           propagate)
from dpsqkd.protocol import DetectorModel, SessionStats, _symbols


class EveTranscript(NamedTuple):
    """What the intercept-resend attacker did and learned."""

    intercepted: np.ndarray        # per pulse 0..N
    known_bins: np.ndarray         # 1-based key bins whose s_i Eve learned
    known_bits: np.ndarray


@dataclass(frozen=True)
class ClickRecord:
    """Detection events at D0 and D1 for key bins 1..N."""

    d0: np.ndarray
    d1: np.ndarray

    def __post_init__(self):
        d0 = np.asarray(self.d0, dtype=bool).ravel()
        d1 = np.asarray(self.d1, dtype=bool).ravel()
        if d0.size != d1.size:
            raise ValueError("click arrays differ in length")
        d0.setflags(write=False)
        d1.setflags(write=False)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)

    @property
    def n_bins(self) -> int:
        return self.d0.size


def detect(out4, out5, model, rng):
    """Sample bucket-detector clicks on the key bins of the two output
    trains of amplitudes (as ``propagate`` gives them; the boundary
    half-pulse bins at both ends are outside the detection window).
    `rng` draws, each over all key bins: the D0 uniforms, the D1 uniforms,
    then, with dark counts, the dark uniforms of D0 and of D1."""
    if out4.size != out5.size:
        raise ValueError("output trains differ in bin count")
    p0 = model.click_probabilities(out4[1:-1])
    p1 = model.click_probabilities(out5[1:-1])
    d0 = rng.random(p0.shape) < p0
    d1 = rng.random(p1.shape) < p1
    if model.dark_click_prob > 0.0:
        d0 |= rng.random(d0.shape) < model.dark_click_prob
        d1 |= rng.random(d1.shape) < model.dark_click_prob
    return ClickRecord(d0, d1)


def extract_bob_bits(clicks):
    """Turn clicks into key material: bins with exactly one click yield a
    bit (D0 -> 0, D1 -> 1) and are disclosed; double-click bins are
    discarded and counted.

    Returns ``(bits, disclosed_bins, n_double)`` where `bits` holds -1 for
    bins contributing nothing and `disclosed_bins` uses 1-based indices.
    """
    single = clicks.d0 ^ clicks.d1
    double = clicks.d0 & clicks.d1
    bits = np.where(single, clicks.d1.view(np.int8), np.int8(-1))
    disclosed = np.flatnonzero(single) + 1
    return bits, disclosed, int(np.count_nonzero(double))


def sift(s, bob_bits, disclosed_bins):
    """Restrict both keys, Alice's potential key bits `s` (s_1..s_N) and
    Bob's bits, to the disclosed bins.

    Returns ``(alice_key, bob_key, qber)``; `qber` is None when nothing
    was disclosed.
    """
    disclosed_bins = np.asarray(disclosed_bins, dtype=int)
    if disclosed_bins.size and not (
            disclosed_bins.min() >= 1 and disclosed_bins.max() <= s.size):
        raise ValueError("disclosed bins outside 1..N")
    alice_key = s[disclosed_bins - 1] if disclosed_bins.size else \
        np.empty(0, dtype=np.uint8)
    bob_key = np.asarray(bob_bits, dtype=np.int8)[disclosed_bins - 1].astype(np.uint8) \
        if disclosed_bins.size else np.empty(0, dtype=np.uint8)
    if alice_key.size == 0:
        return alice_key, bob_key, None
    qber = float(np.count_nonzero(alice_key != bob_key)) / alice_key.size
    return alice_key, bob_key, qber


def intercept_resend(train, eve_fraction, rng, config=None):
    """Eve's intercept-resend (``protocol._eve_chunks``) over the whole
    train of amplitudes: it returns the resent train, whose pulses' sign
    bits are the bits Bob receives, and her transcript."""
    n_pulses = train.size
    if eve_fraction == 0.0 or n_pulses == 0:
        empty = np.empty(0, dtype=int)
        return train, EveTranscript(np.zeros(n_pulses, dtype=bool), empty,
                                    empty.astype(np.uint8))
    config = config or InterferometerConfig.compensated()
    tapped = rng.random(n_pulses) < eve_fraction
    out4, out5 = propagate(np.where(tapped, train, 0.0),
                           interferometer_coefficients(config))
    clicks = detect(out4, out5, DetectorModel.ideal(), rng)
    bits, disclosed, _ = extract_bob_bits(clicks)
    both = tapped[:-1] & tapped[1:]
    usable = disclosed[both[disclosed - 1]]
    known_bits = bits[usable - 1].astype(np.uint8)
    alpha = np.max(np.abs(train))
    s_eve = rng.integers(0, 2, size=n_pulses, dtype=np.uint8)
    anchor = np.arange(n_pulses)
    anchor[usable] = 0
    anchor = np.maximum.accumulate(anchor)
    prefix = np.zeros(n_pulses, dtype=np.uint8)
    prefix[usable] = known_bits
    prefix = np.bitwise_xor.accumulate(prefix)
    s_eve = s_eve[anchor] ^ prefix ^ prefix[anchor]
    resent = (1.0 - 2.0 * s_eve.astype(float)) * alpha
    out = np.where(tapped, resent, train)
    return out, EveTranscript(tapped, usable, known_bits)


def run_session(config):
    """``protocol.run_session`` with every stage over the whole session:
    its stats, and Bob's clicks of key bins 1..N."""
    rng = np.random.default_rng(config.seed)
    if config.n_bins == 0:
        return SessionStats(0, 0, 0.0, None, 0, 0, config), ClickRecord([], [])
    s_prime = rng.integers(0, 2, config.n_bins + 1, dtype=np.uint8)
    train = _symbols(complex(config.alpha))[s_prime]
    interf = config.interferometer()
    if config.eve_fraction > 0.0:
        train, _ = intercept_resend(train, config.eve_fraction, rng, interf)
    out4, out5 = propagate(train, interferometer_coefficients(interf))
    clicks = detect(out4, out5, config.detector(), rng)
    bits, disclosed, n_double = extract_bob_bits(clicks)
    alice_key, bob_key, qber = sift(s_prime[:-1] ^ s_prime[1:], bits,
                                    disclosed)
    return SessionStats(
        n_bins=config.n_bins,
        sifted_length=int(alice_key.size),
        sifted_rate=alice_key.size / config.n_bins,
        qber=qber,
        double_clicks=n_double,
        errors=int(np.count_nonzero(alice_key != bob_key)),
        config=config,
    ), clicks
