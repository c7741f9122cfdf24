#!/usr/bin/env python3
"""The delay interferometer in both representations.

The same optical arrangement is described two ways: closed-form coherent
amplitudes (exact for laser pulses, fast) and the exact lift of its
one-photon mode map to the Fock space, one photon-number sector at a time
(exact for any input, nothing truncated).  The sector blocks are unitary,
keep the vacuum and, on one photon, reproduce the per-pulse coefficients
of the analytic route.
"""

import math

import numpy as np

from dpsqkd.optics import (InterferometerConfig, interferometer_coefficients,
                           propagate, sector_lift, single_particle_unitary)

config = InterferometerConfig.compensated()

# --- the mode map -------------------------------------------------------

# each input pulse splits over four output slots: same-bin D0/D1 and
# next-bin D0/D1
c = interferometer_coefficients(config)
print("per-pulse output coefficients (D0 i, D1 i, D0 i+1, D1 i+1):")
print(" ", np.round(c, 4))

u = single_particle_unitary(config, 4)
print("one-photon mode map unitary?",
      np.allclose(u.conj().T @ u, np.eye(8)))

# --- consecutive pulses interfere ---------------------------------------

for s_prime, label in (((0, 0), "equal phases"), ((0, 1), "flipped phase")):
    amps = np.array([(-1.0) ** b * 0.45 for b in s_prime])
    o4, o5 = propagate(amps, c)
    print(f"{label}: key-bin amplitude at D0 = {o4[1]:+.3f}, "
          f"at D1 = {o5[1]:+.3f}")

# --- the Fock-space route: exact photon-number sectors -----------------

# 4 time bins = 8 wires; (0, i) is Alice's pulse in bin i before the optics
# and detector D0 in bin i after it, (1, i) vacuum before and D1 after
bins = 4
sectors = list(sector_lift(config, bins, 3))
print("\nsector dimensions for n = 0..3 photons on", 2 * bins, "wires:",
      [block.shape[0] for _, _, block in sectors])
print("vacuum is preserved:", sectors[0][2][0, 0] == 1.0)
# U conserves photon number, so U*U - I is block-diagonal in n too
print("||U*U - I|| over the blocks =", math.sqrt(sum(
    np.linalg.norm(b.conj().T @ b - np.eye(len(b))) ** 2
    for _, _, b in sectors)))

# one photon in wire (0, i) leaves in D0/D1 of bins i and i+1 with the
# analytic route's four per-pulse coefficients
outputs, _, block = sectors[1]
in_wire_order = np.argsort(np.argmax(outputs, axis=1))
images = block[np.ix_(in_wire_order, in_wire_order)]
gap = max(float(np.max(np.abs(
    images[[i, bins + i, i + 1, bins + i + 1], i] - c)))
    for i in range(bins - 1))
print("one-photon images equal the per-pulse coefficients, max gap:", gap)
