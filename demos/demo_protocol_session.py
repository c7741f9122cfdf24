#!/usr/bin/env python3
"""Walk through one prepare-and-measure session, then sweep the knobs.

Alice encodes a random bit string in the phases of weak coherent pulses;
Bob interferes consecutive pulses and records which of his two detectors
clicked.  Announcing the click bins over the classical channel leaves both
sides with an identical key, error-free in the ideal case.
"""

import math

import numpy as np

from dpsqkd.protocol import (AliceRecord, DetectorModel, SessionConfig,
                             run_session)
from dpsqkd.optics import (InterferometerConfig, interferometer_coefficients,
                           propagate)

rng = np.random.default_rng(7)

# --- one tiny session, step by step -----------------------------------

alice = AliceRecord.random(16, math.sqrt(0.2), rng)
print("Alice's raw bits S':", "".join(map(str, alice.s_prime)))
print("potential key  S  : ", "".join(map(str, alice.s)))

# pulse i carries amplitude (-1)^{s'_i} alpha
train = (1.0 - 2.0 * alice.s_prime) * alice.alpha.real
print("pulse amplitudes  :", np.round(train, 3))

config = InterferometerConfig.compensated()
out4, out5 = propagate(train, interferometer_coefficients(config))
# the two edge bins carry unmatched half-pulses, outside the window
feed0, feed1 = out4[1:-1], out5[1:-1]
print("detector D0 feed  :", np.round(np.abs(feed0) ** 2, 3))
print("detector D1 feed  :", np.round(np.abs(feed1) ** 2, 3))

detector = DetectorModel.ideal()
# one uniform per bin at each detector, D0's first; a bin's detector clicks
# when its uniform falls below the click probability (no dark counts here)
d0 = rng.random(feed0.shape) < detector.click_probabilities(feed0)
d1 = rng.random(feed1.shape) < detector.click_probabilities(feed1)
# a bin with exactly one click is disclosed and carries Bob's bit (D1 -> 1);
# both keep their bits of the disclosed bins
single = d0 ^ d1
disclosed = np.flatnonzero(single) + 1
alice_key = alice.s[single]
bob_key = d1[single].astype(np.uint8)
print("disclosed bins i* :", disclosed)
print("Alice's sifted key:", "".join(map(str, alice_key)))
print("Bob's sifted key  :", "".join(map(str, bob_key)))
print("QBER              :", np.mean(alice_key != bob_key) if single.any()
      else None)

# --- the key-rate law --------------------------------------------------

# the per-bin detection rate follows 1 - exp(-|alpha|^2); attenuating the
# source trades key rate for security margin
print("\nkey rate vs pulse energy (N = 100000 bins each):")
print("alpha^2   measured   1-exp(-alpha^2)")
for alpha2 in (0.05, 0.1, 0.2, 0.5, 1.0):
    stats = run_session(SessionConfig(n_bins=100000, alpha2=alpha2, seed=1))
    print(f"  {alpha2:4.2f}    {stats.sifted_rate:.5f}    "
          f"{1 - math.exp(-alpha2):.5f}")

# --- detector imperfections --------------------------------------------

print("\nlossy detector (eta = 0.5) folds into the exponent:")
stats = run_session(SessionConfig(n_bins=100000, alpha2=0.2,
                                  efficiency=0.5, seed=2))
print(f"  rate {stats.sifted_rate:.5f} vs {1 - math.exp(-0.1):.5f}")

print("\ndark clicks produce double clicks (discarded) and errors:")
stats = run_session(SessionConfig(n_bins=100000, alpha2=0.2,
                                  dark_click_prob=0.01, seed=3))
print(f"  doubles {stats.double_clicks}, QBER {stats.qber:.4f}")

# --- the intercept-resend attacker -------------------------------------

# Eve measures with a copy of Bob's apparatus, so she resolves a bin's
# relative phase only when her detector fires (~18% of bins at
# alpha^2 = 0.2); every unresolved bin she re-prepares at random and is
# wrong half the time.  The QBER she causes approaches 0.5*exp(-alpha^2).
print("\nintercept-resend attack:")
print("tap fraction   QBER")
for frac in (0.0, 0.25, 0.5, 1.0):
    stats = run_session(SessionConfig(n_bins=100000, alpha2=0.2,
                                      eve_fraction=frac, seed=4))
    print(f"   {frac:4.2f}       {stats.qber:.4f}")
print(f"full-attack prediction: {0.5 * math.exp(-0.2):.4f}")
