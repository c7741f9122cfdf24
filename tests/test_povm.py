"""Projector effects, their reduction, and the commutation structure."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsqkd import fock
from dpsqkd.fock import FockOperator, FockVector
from dpsqkd.optics import InterferometerConfig
from dpsqkd.povm import (E2_PATTERN, E3_PATTERN, all_click_patterns,
                         build_e2_e3, build_projector_effects,
                         certify_noncommutativity, click_pattern_ids,
                         conjugated_commutator_norm, detection_registry,
                         pattern_diagonal, pattern_index, reduced_effect_set,
                         signal_registry, t_term, t_term_numeric)
from fock_oracle import (basis_index, basis_state, dagger, dense_unitary,
                         embed, wire_registry)

# frozen by the pre-build dense oracle (multinomial-expansion route)
COMM_SILENT_C3 = 0.154605219372170
COMM_SILENT_C4 = 0.154605603393748
COMM_MARGINAL_C3 = 0.193111115979741
COMM_SILENT_C2 = 0.154580929198511
COMM_MARGINAL_C2 = 0.186778649145374


def closed_form_e2_e3(cutoff):
    """Test-local independent construction of the two explicit effects."""
    reg = signal_registry(2, cutoff)
    vac = np.zeros(reg.dim, dtype=complex)
    vac[0] = 1.0
    a0 = fock.ladder_operator(reg, (0, 0), "creation").matrix
    a1 = fock.ladder_operator(reg, (0, 1), "creation").matrix
    a2 = fock.ladder_operator(reg, (0, 2), "creation").matrix

    def one(raiser):
        E = np.zeros((reg.dim, reg.dim), dtype=complex)
        v = vac.copy()
        for n in range(1, 2 * cutoff + 1):
            v = raiser @ v
            if not np.any(v):
                break
            E += np.outer(v, v.conj()) / (4 ** n * math.factorial(n))
        return E

    return one(a0 + a1), one(a1 - a2), reg


def test_effect_family_structure():
    effects = build_projector_effects(2, 3)
    assert list(effects) == list(all_click_patterns(2))
    mats = [E.matrix for E in effects.values()]
    assert len(mats) == 16
    eye = np.eye(detection_registry(2, 3).dim)
    assert np.max(np.abs(sum(mats) - eye)) <= 1e-10
    for m in mats:
        assert np.max(np.abs(m @ m - m)) <= 1e-12
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.max(np.abs(mats[i] @ mats[j])) <= 1e-12
            comm = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            assert comm <= 1e-12


def test_all_vacuum_effect_fixes_vacuum():
    g1 = build_projector_effects(2, 3)[all_click_patterns(2)[0]]
    vac = fock.vacuum(g1.registry)
    assert abs(fock.expectation(vac, g1).real - 1.0) < 1e-14


def test_pattern_indexing():
    pats = all_click_patterns(2)
    assert pats[0] == ((False, False), (False, False))
    assert pats[-1] == ((True, True), (True, True))
    assert pattern_index(pats[0]) == 0
    assert pattern_index(pats[-1]) == 15
    assert len({pattern_index(p) for p in pats}) == 16


def test_click_pattern_ids_match_pattern_index():
    # every pattern's index is its position in the enumeration, for one
    # pattern at a time and for batches with extra leading axes
    for n in (1, 2, 3):
        pats = all_click_patterns(n)
        clicks = np.array(pats, dtype=bool).reshape(len(pats), n, 2)
        ids = click_pattern_ids(clicks[..., 0], clicks[..., 1])
        assert ids.tolist() == [pattern_index(p) for p in pats] \
            == list(range(4 ** n))
        batched = clicks.reshape(4, -1, n, 2)
        assert np.array_equal(
            click_pattern_ids(batched[..., 0], batched[..., 1]),
            ids.reshape(4, -1))


def test_probability_consistency_random_states():
    # <psi|E_j|psi> equals the joint-state expectation of the conjugated
    # effect under the dense oracle, for random signal states at cutoff 2.
    # The oracle runs at wire cutoff (N+1)*2 = 4, where it holds every
    # state the cutoff-2 signal block reaches without truncation.
    cutoff, wire_cutoff = 2, 4
    wreg = wire_registry(2, wire_cutoff)
    silent = ((wreg.occupations((0, 0)) == 0)
              & (wreg.occupations((1, 0)) == 0))
    sreg = signal_registry(1, cutoff)
    embed_cols = [basis_index(wreg, [x0, x1, 0, 0])
                  for x0, x1 in itertools.product(range(cutoff + 1), repeat=2)]
    rng = np.random.default_rng(17)
    psis = rng.normal(size=(20, sreg.dim)) + 1j * rng.normal(size=(20, sreg.dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    joints = np.zeros((20, wreg.dim), dtype=complex)
    joints[:, embed_cols] = psis
    effects = build_projector_effects(1, wire_cutoff)
    for phi2, phi_delta in ((0.0, 0.0), (0.7, 0.3)):
        cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
        U = dense_unitary(cfg, 2, wire_cutoff).matrix
        for boundary, mask in (("marginal", 1.0), ("vacuum", silent)):
            red = reduced_effect_set(1, cutoff, cfg, boundary=boundary)
            for p, G in effects.items():
                g = np.diag(embed(G, wreg).matrix).real
                M = U.conj().T @ ((g * mask)[:, None] * U)
                for psi, joint in zip(psis, joints):
                    assert abs(psi.conj() @ red[p].matrix @ psi
                               - joint.conj() @ M @ joint) < 1e-10


PHASES = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=15, deadline=None)
@given(n_bins=st.sampled_from([1, 2]), phi2=PHASES, phi_delta=PHASES)
def test_reduced_family_complete_and_positive(n_bins, phi2, phi_delta):
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    red = reduced_effect_set(n_bins, 2, cfg)
    total = sum(E.matrix for E in red.values())
    assert np.max(np.abs(total - np.eye(total.shape[0]))) <= 1e-9
    for E in red.values():
        assert np.linalg.eigvalsh(E.matrix)[0] >= -1e-10


def test_reduced_effect_low_block_matches_closed_form():
    # the reduction is exact in photon number: the cutoff-3 effects,
    # restricted to signal states with at most 2 photons per bin, are the
    # cutoff-2 closed forms
    E2c, E3c, _ = closed_form_e2_e3(2)
    red = reduced_effect_set(2, 3, boundary="vacuum",
                             patterns=(E2_PATTERN, E3_PATTERN))
    reg = signal_registry(2, 3)
    low = np.flatnonzero(np.all([reg.occupations(m) <= 2
                                 for m in reg.modes], axis=0))
    for E, closed in ((red[E2_PATTERN], E2c), (red[E3_PATTERN], E3c)):
        assert np.max(np.abs(E.matrix[np.ix_(low, low)] - closed)) < 1e-12


def test_reduced_effect_set_cutoff_4():
    red = reduced_effect_set(2, 4)
    total = sum(E.matrix for E in red.values())
    assert np.max(np.abs(total - np.eye(total.shape[0]))) <= 1e-9
    silent = reduced_effect_set(2, 4, boundary="vacuum",
                                patterns=(E2_PATTERN, E3_PATTERN))
    comm = fock.commutator_norm(silent[E2_PATTERN], silent[E3_PATTERN])
    assert abs(comm - COMM_SILENT_C4) < 1e-12


def test_reduced_effect_set_bounds():
    # both refusals come before any allocation
    with pytest.raises(ValueError, match="16 reduced effects .* exceed"):
        reduced_effect_set(2, 40)
    with pytest.raises(ValueError, match="sector 45 block .* exceeds"):
        reduced_effect_set(2, 21, patterns=(E2_PATTERN,))


def test_reduced_effect_set_exact_block_matches_closed_form():
    cutoff = 2
    E2c, E3c, _ = closed_form_e2_e3(cutoff)
    red = reduced_effect_set(2, cutoff, boundary="vacuum",
                             patterns=(E2_PATTERN, E3_PATTERN))
    assert np.max(np.abs(red[E2_PATTERN].matrix - E2c)) < 1e-12
    assert np.max(np.abs(red[E3_PATTERN].matrix - E3c)) < 1e-12
    comm = fock.commutator_norm(red[E2_PATTERN], red[E3_PATTERN])
    assert abs(comm - COMM_SILENT_C2) < 1e-12


def test_marginal_reduction_regression_value():
    red = reduced_effect_set(2, 2, boundary="marginal",
                             patterns=(E2_PATTERN, E3_PATTERN))
    comm = fock.commutator_norm(red[E2_PATTERN], red[E3_PATTERN])
    assert abs(comm - COMM_MARGINAL_C2) < 1e-12


def test_build_e2_e3_matches_oracle_values():
    E2, E3 = build_e2_e3(3)
    assert abs(fock.commutator_norm(E2, E3) - COMM_SILENT_C3) < 1e-12
    E2c, E3c, _ = closed_form_e2_e3(3)
    assert np.max(np.abs(E2.matrix - E2c)) < 1e-14
    assert np.max(np.abs(E3.matrix - E3c)) < 1e-14


def test_e2_examples():
    E2, E3 = build_e2_e3(3)
    reg = E2.registry
    vac = fock.vacuum(reg)
    assert fock.expectation(vac, E2) == 0.0
    sym = FockVector(reg, (basis_state(reg, [1, 0, 0]).amplitudes
                           + basis_state(reg, [0, 1, 0]).amplitudes)
                     / math.sqrt(2))
    assert abs(fock.expectation(sym, E2).real - 0.5) < 1e-12
    assert fock.commutator_norm(E2, E2) == 0.0


def test_commutator_converges_with_cutoff():
    E2a, E3a = build_e2_e3(3)
    E2b, E3b = build_e2_e3(4)
    va = fock.commutator_norm(E2a, E3a)
    vb = fock.commutator_norm(E2b, E3b)
    assert abs(vb - COMM_SILENT_C4) < 1e-12
    assert abs(vb - va) < 1e-6   # truncation-tail sized drift


def test_build_e2_e3_cutoff_guard():
    with pytest.raises(ValueError, match="cutoff too small"):
        build_e2_e3(2)


@pytest.mark.parametrize("kwargs, needle", [
    ({"cutoff": 2.5}, "cutoff must be an integer"),
    ({"cutoff": math.nan}, "cutoff must be an integer"),
    ({"cutoff": True}, "cutoff must be an integer"),
    ({"cutoff": 3, "n_bins": 2.0}, "n_bins must be an integer"),
])
def test_certify_refuses_non_integer_counts(kwargs, needle):
    with pytest.raises(ValueError, match=needle) as info:
        certify_noncommutativity(**kwargs)
    assert "\n" not in str(info.value)


def test_t_term_table():
    for n in range(1, 5):
        for m in range(1, 5):
            expect = math.factorial(n) if n == m else 0
            assert t_term(n, m) == expect
            assert abs(t_term_numeric(n, m, 5) - expect) < 1e-9
    assert t_term(1, 1) == 1
    assert t_term(3, 3) == 6
    assert t_term(2, 3) == 0
    with pytest.raises(ValueError):
        t_term(0, 1)
    with pytest.raises(ValueError):
        t_term_numeric(3, 3, 2)


def test_conjugated_commutator_gram_matches_dense():
    cfg = InterferometerConfig.compensated()
    U = dense_unitary(cfg, 2, 2)
    wreg = U.registry
    pats = all_click_patterns(1)
    for pi, pj in itertools.combinations(pats, 2):
        di = pattern_diagonal(wreg, pi)
        dj = pattern_diagonal(wreg, pj)
        fast = conjugated_commutator_norm(U.matrix, di, dj)
        Mi = dagger(U).matrix @ np.diag(di) @ U.matrix
        Mj = dagger(U).matrix @ np.diag(dj) @ U.matrix
        direct = np.linalg.norm(Mi @ Mj - Mj @ Mi)
        assert abs(fast - direct) < 1e-10
        assert fast <= 1e-10   # unitary conjugation preserves commutation


def test_enumeration_guard():
    with pytest.raises(ValueError):
        build_projector_effects(4, 2)
