"""Whole-array session pipeline, numpy only: the sequential oracle for the
chunked one of ``protocol.run_session``.

Every stage runs once over all N key bins, and one generator draws in
order: Alice's S', Eve's tap uniforms, her D0 and D1 uniforms and her
resend bits, then Bob's D0, D1, dark D0 and dark D1 uniforms.
"""

import numpy as np

from dpsqkd.optics import InterferometerConfig, PulseTrain, propagate_analytic
from dpsqkd.protocol import (AliceRecord, DetectorModel, EveTranscript,
                             SessionStats, detect, extract_bob_bits,
                             prepare_pulse_train, sift)


def intercept_resend(train, eve_fraction, rng, config=None):
    """``protocol.intercept_resend`` over the whole train."""
    n_pulses = train.bin_count
    if eve_fraction == 0.0 or n_pulses == 0:
        empty = np.empty(0, dtype=int)
        return train, EveTranscript(np.zeros(n_pulses, dtype=bool), empty,
                                    empty.astype(np.uint8))
    config = config or InterferometerConfig.compensated()
    tapped = rng.random(n_pulses) < eve_fraction
    eve_in = PulseTrain(0, np.where(tapped, train.amplitudes, 0.0))
    out4, out5 = propagate_analytic(eve_in, config)
    clicks = detect(out4, out5, DetectorModel.ideal(), rng)
    bits, disclosed, _ = extract_bob_bits(clicks)
    both = tapped[:-1] & tapped[1:]
    usable = disclosed[both[disclosed - 1]]
    known_bits = bits[usable - 1].astype(np.uint8)
    alpha = np.max(np.abs(train.amplitudes))
    s_eve = rng.integers(0, 2, size=n_pulses, dtype=np.uint8)
    anchor = np.arange(n_pulses)
    anchor[usable] = 0
    anchor = np.maximum.accumulate(anchor)
    prefix = np.zeros(n_pulses, dtype=np.uint8)
    prefix[usable] = known_bits
    prefix = np.bitwise_xor.accumulate(prefix)
    s_eve = s_eve[anchor] ^ prefix ^ prefix[anchor]
    resent = (1.0 - 2.0 * s_eve.astype(float)) * alpha
    out = np.where(tapped, resent, train.amplitudes)
    return PulseTrain(0, out), EveTranscript(tapped, usable, known_bits)


def run_session(config):
    """``protocol.run_session`` with every stage over the whole session."""
    rng = np.random.default_rng(config.seed)
    if config.n_bins == 0:
        return SessionStats(0, 0, 0.0, None, 0, np.empty(0, dtype=int), 0,
                            config)
    alice = AliceRecord.random(config.n_bins, config.alpha, rng)
    train = prepare_pulse_train(alice)
    interf = config.interferometer()
    if config.eve_fraction > 0.0:
        train, _ = intercept_resend(train, config.eve_fraction, rng, interf)
    out4, out5 = propagate_analytic(train, interf)
    clicks = detect(out4, out5, config.detector(), rng)
    bits, disclosed, n_double = extract_bob_bits(clicks)
    alice_key, bob_key, qber = sift(alice, bits, disclosed)
    return SessionStats(
        n_bins=config.n_bins,
        sifted_length=int(alice_key.size),
        sifted_rate=alice_key.size / config.n_bins,
        qber=qber,
        double_clicks=n_double,
        disclosed_bins=disclosed,
        errors=int(np.count_nonzero(alice_key != bob_key)),
        config=config,
    )
