#!/usr/bin/env python3
"""Why the protocol is not trivially insecure: the commutation story.

Bob's raw record is photon counting: projectors onto click patterns, all
mutually commuting, and still commuting after the interferometer unitary
is absorbed into them.  Commuting measurements cannot certify
entanglement, so at first sight no key could be distilled.  The escape is
the unused second input port: taking its vacuum expectation turns the
projectors into effects on the signal path alone, and those effects stop
commuting.  This script certifies each step numerically.
"""

import math

import numpy as np

from dpsqkd.povm import (E2_PATTERN, E3_PATTERN, all_click_patterns,
                         build_e2_e3, certify_noncommutativity,
                         reduced_effect_set, t_term)


def projector_diagonal(pattern, cutoff):
    """0/1 diagonal of the projector onto a click pattern, over the
    occupation basis of the detection wires (D0's of every key bin, then
    D1's): a wire clicks when it holds one or more photons."""
    clicks = np.array(pattern).T.reshape(-1, 1)
    occ = np.indices((cutoff + 1,) * len(clicks)).reshape(len(clicks), -1)
    return np.all((occ > 0) == clicks, axis=0).astype(float)


def commutator_norm(a_blocks, b_blocks):
    """||[A, B]||_F of two block-diagonal operators given block by block:
    the squared norms of the blocks add."""
    return math.sqrt(sum(np.linalg.norm(a @ b - b @ a) ** 2
                         for a, b in zip(a_blocks, b_blocks)))


def vacuum_contraction(n, m, cutoff=5):
    """<0| (a0+a1)^n (A1-A2)^m |0> by applying ladder matrices to the
    vacuum of three truncated modes."""
    d = cutoff + 1
    lower = np.diag(np.sqrt(np.arange(1, d)), k=1)
    eye = np.eye(d)

    def on(mode, op):
        mats = [eye, eye, eye]
        mats[mode] = op
        return np.kron(np.kron(mats[0], mats[1]), mats[2])

    v = np.zeros(d ** 3)
    v[0] = 1.0
    for _ in range(m):
        v = (on(1, lower.T) - on(2, lower.T)) @ v
    for _ in range(n):
        v = (on(0, lower) + on(1, lower)) @ v
    return float(v[0])


# --- the raw projector effects all commute ------------------------------

diags = [projector_diagonal(p, 3) for p in all_click_patterns(2)]
worst = max(np.linalg.norm(a * b - b * a)
            for i, a in enumerate(diags) for b in diags[i + 1:])
print("raw projector effects: 16 click patterns over 2 key bins")
print("  (diagonal 0/1 projectors on", len(diags[0]), "detection-wire states)")
print("  worst pairwise commutator norm:", worst)
print("  completeness defect:", np.max(np.abs(sum(diags) - 1.0)))

# --- reduction onto the signal path breaks commutativity ----------------

closed = build_e2_e3(3)
E2, E3 = closed[E2_PATTERN], closed[E3_PATTERN]
print("\nreduced effects for 'D0 clicks in bin 1' and 'D1 clicks in bin 2',")
print("held as", len(closed.states), "photon-number blocks:")
print("  ||[E2, E3]||_F =", commutator_norm(E2, E3), " (nonzero!)")

# the same operators out of the generic reduction machinery
red = reduced_effect_set(2, 3, boundary="vacuum",
                         patterns=(E2_PATTERN, E3_PATTERN))
gap = max(np.max(np.abs(a - b))
          for p, q in ((E2_PATTERN, E2), (E3_PATTERN, E3))
          for a, b in zip(red[p], q))
print("  closed form vs generic reduction, max entry gap:", gap)

# the central scalar in the hand evaluation of the commutator: the vacuum
# contraction of ladder-operator powers collapses to n! on the diagonal
print("\nvacuum contraction table (n! delta_nm):")
for n in range(1, 5):
    row = [round(vacuum_contraction(n, m), 9) for m in range(1, 5)]
    print(f"  n={n}:", row, " closed form:", [t_term(n, m) for m in range(1, 5)])

# --- the full certification --------------------------------------------

print("\nfull certification at 2 key bins, cutoff 3:")
report = certify_noncommutativity(3)
print(report.to_text())
