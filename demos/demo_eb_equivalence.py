#!/usr/bin/env python3
"""The entanglement-based reading of the protocol.

Instead of choosing bits and sending pulses, Alice could share the
entangled state (|0>|alpha> + |1>|-alpha>)/sqrt(2) per time bin and
measure her half: her outcomes are uniform random bits and Bob's half
collapses onto exactly the pulse train those bits would have prepared.
Nothing Bob can measure distinguishes the two pictures, which is what
makes the entanglement-based form a legitimate analysis tool.
"""

import math

import numpy as np

from dpsqkd.entangled import (build_eb_state, coherent_amplitudes,
                              compare_statistics)


def norm2(state):
    """Squared norm of the state: the product of its factors' norms."""
    return math.prod(float(np.sum(np.abs(state.factor) ** 2))
                     for _ in range(state.n_pulses))


def schmidt_values(factor):
    """Schmidt coefficients of one bin's (2, cutoff+1) factor."""
    return np.linalg.svd(factor, compute_uv=False) / np.linalg.norm(factor)


def alice_density(state):
    """Alice's reduced density matrix: the Kronecker product of every
    factor's normalized 2x2 Gram matrix, exact because the state is a
    product over bins."""
    rho = np.ones((1, 1))
    for _ in range(state.n_pulses):
        gram = state.factor @ state.factor.conj().T
        rho = np.kron(rho, gram / np.trace(gram).real)
    return rho


def entropy_bits(rho):
    """Von Neumann entropy in bits of a density matrix."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def measure_alice(state, rng):
    """Alice's outcomes, bin by bin with their Born probabilities, and the
    photonic vector Bob's half collapses onto."""
    bits, vec = [], np.ones(1)
    for _ in range(state.n_pulses):
        bits.append(int(rng.random() < state.factor_born_probabilities()[1]))
        vec = np.kron(vec, state.collapsed_bin_state(bits[-1]))
    return bits, vec


def prepared_train(alpha, bits, cutoff):
    """The pulse train Alice would prepare for `bits`, as one vector."""
    vec = np.ones(1)
    for b in bits:
        row = coherent_amplitudes((-1) ** b * alpha, cutoff)
        vec = np.kron(vec, row / np.linalg.norm(row))
    return vec


def fidelity(a, b):
    """|<a|b>|^2 of two state vectors after normalizing both."""
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a) * np.vdot(b, b)).real)


alpha = 0.45
state = build_eb_state(2, alpha, cutoff=12)
print("distributed state over", state.n_pulses, "time bins,",
      "norm^2 =", round(norm2(state), 12))

# each factor is genuinely entangled for alpha != 0: two nonzero Schmidt
# coefficients, limited by the overlap <alpha|-alpha> = exp(-2 alpha^2)
print("per-bin Schmidt coefficients:", np.round(schmidt_values(state.factor), 6))
pair = build_eb_state(0, alpha, cutoff=20)
S = entropy_bits(alice_density(pair))
g = math.exp(-2 * alpha ** 2)
lam = np.array([(1 + g) / 2, (1 - g) / 2])
print("single-pair entanglement entropy:", round(S, 9), "bits",
      "(Gram-matrix value", round(float(-np.sum(lam * np.log2(lam))), 9), ")")

# Alice measures: uniform outcomes, collapsed train matches preparation
rng = np.random.default_rng(3)
bits, collapsed = measure_alice(state, rng)
reference = prepared_train(alpha, bits, cutoff=12)
print("\nAlice measured S' =", "".join(map(str, bits)))
print("collapsed state vs prepared train, fidelity:",
      round(fidelity(collapsed, reference), 12))

# the statistics Bob sees are identical under both preparations
report = compare_statistics(3, math.sqrt(0.2), trials=100000, seed=5)
print("\nclick-pattern distributions, P&M vs EB (N = 3):")
print(report.to_text())

# sanity: an actual inconsistency would be caught
broken = compare_statistics(3, math.sqrt(0.2), eb_delay_defect=0.4)
print("\nwith a deliberately broken delay phase in the EB flow:")
print("analytic distance =", round(broken.analytic_distance, 6), "(nonzero)")
