#!/usr/bin/env python3
"""The delay interferometer in both representations.

The same optical arrangement is propagated two ways: closed-form coherent
amplitudes (exact for laser pulses, fast) and a unitary on a truncated
multimode Fock space (exact for any input, desk scale).  They must agree
wherever both apply; this cross-check is the backbone of the test suite.
"""

import itertools
import math

import numpy as np

from dpsqkd import fock
from dpsqkd.optics import (InterferometerConfig, PulseTrain,
                           apply_interferometer, coherent_wire_state,
                           fock_output_amplitudes, fock_unitary,
                           interferometer_coefficients, mean_mode_amplitudes,
                           propagate_analytic, single_particle_unitary)

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
    o4, o5 = propagate_analytic(PulseTrain(0, amps), config)
    print(f"{label}: key-bin amplitude at D0 = {o4.amplitudes[1]:+.3f}, "
          f"at D1 = {o5.amplitudes[1]:+.3f}")

# --- the Fock-space route ----------------------------------------------

# materialized unitary at desk scale
U = fock_unitary(config, bins=3, cutoff=3)
print("\ndense unitary on", U.registry.n_modes, "wires, dim", U.registry.dim)
vac = fock.vacuum(U.registry)
print("vacuum is preserved:", abs((U @ vac).amplitudes[0]) == 1.0)
# the total number operator N is diagonal, so [U, N] = U_ij (n_j - n_i)
n = sum(U.registry.occupations(m) for m in U.registry.modes)
print("photon number conserved, ||[U, N]|| =",
      float(np.linalg.norm(U.matrix * (n[None, :] - n[:, None]))))
# so U is block-diagonal in total photon number, and U*U - I is too
blocks = [U.matrix[np.ix_(idx, idx)]
          for idx in (np.flatnonzero(n == k) for k in np.unique(n))]
print("||U*U - I|| =", math.sqrt(sum(
    np.linalg.norm(b.conj().T @ b - np.eye(len(b))) ** 2 for b in blocks)))

# gate-wise evolution scales past the dense regime; a coherent product
# input must come out as the analytically propagated coherent product
state = coherent_wire_state(np.array([0.3, -0.3]), 3, 4)
out = apply_interferometer(state, config)
got = mean_mode_amplitudes(out)
o4, o5 = propagate_analytic(PulseTrain(0, [0.3, -0.3]), config)
expect = np.concatenate([o4.amplitudes, o5.amplitudes])
print("\ngate evolution vs analytic amplitudes at cutoff 4, max gap:",
      float(np.max(np.abs(got - expect))))

# the same cross-validation at cutoff 6, every 3-pulse phase pattern;
# the remaining gap is the coherent-state truncation tail, which shrinks
# fast with the cutoff
alpha = np.sqrt(0.04)
rows = np.array([[(-1.0) ** b * alpha for b in sp]
                 for sp in itertools.product((0, 1), repeat=3)])
got = fock_output_amplitudes(rows, 4, 6, config)
worst = 0.0
for k in range(8):
    o4, o5 = propagate_analytic(PulseTrain(0, rows[k]), config)
    expect = np.concatenate([o4.amplitudes, o5.amplitudes])
    worst = max(worst, float(np.max(np.abs(got[k] - expect))))
print(f"cutoff-6 sweep over all 8 phase patterns, max gap: {worst:.2e}")
