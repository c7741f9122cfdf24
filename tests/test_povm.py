"""Projector effects, their reduction, and the commutation structure."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsqkd import povm
from dpsqkd.optics import InterferometerConfig
from dpsqkd.povm import (E2_PATTERN, E3_PATTERN, all_click_patterns,
                         build_e2_e3, certify_noncommutativity,
                         click_pattern_ids, conjugated_commutator_norm,
                         pattern_index, reduced_effect_set, t_term)
from fock_oracle import (basis_index, basis_state, build_projector_effects,
                         dagger, dense_certification, dense_e2_e3,
                         dense_effects, dense_unitary, detection_registry,
                         embed, pattern_diagonal, signal_registry,
                         t_term_numeric, wire_registry)

# frozen by the pre-build dense oracle (multinomial-expansion route)
COMM_SILENT_C3 = 0.154605219372170
COMM_SILENT_C4 = 0.154605603393748
COMM_MARGINAL_C3 = 0.193111115979741
COMM_SILENT_C2 = 0.154580929198511
COMM_MARGINAL_C2 = 0.186778649145374


def comm(a, b):
    return float(np.linalg.norm(a @ b - b @ a))


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


@settings(max_examples=120, deadline=None)
@given(shape=st.lists(st.integers(0, 4), max_size=3), n=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_click_pattern_ids_match_the_weighted_digit_sum(shape, n, seed):
    # Horner's rule on uint8 digits gives the ids of the int64 product of
    # the digits with the powers of 4 that it replaced
    rng = np.random.default_rng(seed)
    d0, d1 = rng.random((2, *shape, n)) < 0.5
    digits = 2 * np.asarray(d0, dtype=np.int64) + np.asarray(d1, dtype=np.int64)
    want = digits @ 4 ** np.arange(digits.shape[-1] - 1, -1, -1)
    got = click_pattern_ids(d0, d1)
    assert got.dtype == want.dtype == np.int64
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


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
            red = dense_effects(reduced_effect_set(1, cutoff, cfg,
                                                   boundary=boundary))
            for p, G in effects.items():
                g = np.diag(embed(G, wreg).matrix).real
                M = U.conj().T @ ((g * mask)[:, None] * U)
                for psi, joint in zip(psis, joints):
                    assert abs(psi.conj() @ red[p] @ psi
                               - joint.conj() @ M @ joint) < 1e-10


PHASES = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=15, deadline=None)
@given(n_bins=st.sampled_from([1, 2]), phi2=PHASES, phi_delta=PHASES)
def test_reduced_family_complete_and_positive(n_bins, phi2, phi_delta):
    # block by block: every sector's effects sum to its identity and are
    # positive, and the sectors tile the signal registry
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    red = reduced_effect_set(n_bins, 2, cfg)
    assert len(red.patterns) == 4 ** n_bins
    assert np.array_equal(np.sort(np.concatenate(red.states)),
                          np.arange(3 ** (n_bins + 1)))
    for states, block in zip(red.states, red.blocks):
        assert block.shape == (4 ** n_bins, len(states), len(states))
        assert np.max(np.abs(block.sum(axis=0) - np.eye(len(states)))) <= 1e-9
        assert np.max(np.abs(block - block.conj().transpose(0, 2, 1))) <= 1e-14
        assert np.min(np.linalg.eigvalsh(block)) >= -1e-10


def test_reduced_effect_low_block_matches_closed_form():
    # the reduction is exact in photon number: the cutoff-3 effects,
    # restricted to signal states with at most 2 photons per bin, are the
    # cutoff-2 closed forms
    E2c, E3c = dense_e2_e3(2)
    red = dense_effects(reduced_effect_set(2, 3, boundary="vacuum",
                                           patterns=(E2_PATTERN, E3_PATTERN)))
    reg = signal_registry(2, 3)
    low = np.flatnonzero(np.all([reg.occupations(m) <= 2
                                 for m in reg.modes], axis=0))
    for E, closed in ((red[E2_PATTERN], E2c), (red[E3_PATTERN], E3c)):
        assert np.max(np.abs(E[np.ix_(low, low)] - closed)) < 1e-12


def test_reduced_effect_set_cutoff_4():
    red = reduced_effect_set(2, 4)
    for block in red.blocks:
        assert np.max(np.abs(block.sum(axis=0)
                             - np.eye(block.shape[1]))) <= 1e-9
    silent = dense_effects(reduced_effect_set(
        2, 4, boundary="vacuum", patterns=(E2_PATTERN, E3_PATTERN)))
    assert abs(comm(silent[E2_PATTERN], silent[E3_PATTERN])
               - COMM_SILENT_C4) < 1e-12


def test_reduced_effect_set_bounds():
    # every refusal comes before any allocation: the top sector alone, the
    # largest sector block, and the stored blocks of 4^8 effects
    with pytest.raises(ValueError, match="sector 135 of .* exceeds"):
        reduced_effect_set(2, 45)
    with pytest.raises(ValueError, match="sector 45 block .* exceeds"):
        reduced_effect_set(2, 21, patterns=(E2_PATTERN,))
    with pytest.raises(ValueError, match="65536 reduced effects of 48620 "
                                         "block entries each exceed"):
        reduced_effect_set(8, 1)


@pytest.mark.parametrize("pattern", [((True, False),), (True, False),
                                     ((False, False),) * 3, ()])
def test_reduced_effect_set_refuses_malformed_patterns(pattern):
    # at N = 2, one (D0, D1) pair, bare or in a one-bin pattern, once gave
    # the effect of ((False, False), (True, False)), and three bins a zero
    # effect; each is refused before the lift
    with pytest.raises(ValueError, match=r"need 2 \(D0, D1\) pairs, got") \
            as info:
        reduced_effect_set(2, 2, patterns=(E2_PATTERN, pattern))
    assert "\n" not in str(info.value)


def test_reduced_effect_set_exact_block_matches_closed_form():
    cutoff = 2
    E2c, E3c = dense_e2_e3(cutoff)
    red = dense_effects(reduced_effect_set(2, cutoff, boundary="vacuum",
                                           patterns=(E2_PATTERN, E3_PATTERN)))
    assert np.max(np.abs(red[E2_PATTERN] - E2c)) < 1e-12
    assert np.max(np.abs(red[E3_PATTERN] - E3c)) < 1e-12
    assert abs(comm(red[E2_PATTERN], red[E3_PATTERN]) - COMM_SILENT_C2) < 1e-12


def test_marginal_reduction_regression_value():
    red = dense_effects(reduced_effect_set(2, 2, boundary="marginal",
                                           patterns=(E2_PATTERN, E3_PATTERN)))
    assert abs(comm(red[E2_PATTERN], red[E3_PATTERN])
               - COMM_MARGINAL_C2) < 1e-12


def test_build_e2_e3_matches_oracle_values():
    closed = build_e2_e3(3)
    assert closed.patterns == (E2_PATTERN, E3_PATTERN)
    E2, E3 = dense_effects(closed).values()
    assert abs(comm(E2, E3) - COMM_SILENT_C3) < 1e-12
    E2c, E3c = dense_e2_e3(3)
    assert np.max(np.abs(E2 - E2c)) < 1e-14
    assert np.max(np.abs(E3 - E3c)) < 1e-14
    # the blocks sit on the same sectors as the lifted ones
    red = reduced_effect_set(2, 3, patterns=(E2_PATTERN,))
    assert all(np.array_equal(a, b) for a, b in zip(closed.states, red.states))


def test_e2_examples():
    E2, E3 = dense_effects(build_e2_e3(3)).values()
    reg = signal_registry(2, 3)
    assert E2[0, 0] == 0.0
    sym = (basis_state(reg, [1, 0, 0]).amplitudes
           + basis_state(reg, [0, 1, 0]).amplitudes) / math.sqrt(2)
    assert abs((sym.conj() @ E2 @ sym).real - 0.5) < 1e-12
    assert comm(E2, E2) == 0.0


def test_commutator_converges_with_cutoff():
    va = comm(*dense_effects(build_e2_e3(3)).values())
    vb = comm(*dense_effects(build_e2_e3(4)).values())
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


@pytest.mark.parametrize("n_bins", [1, 2, 3])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_pattern_diagonals_match_registry_route(n_bins, cutoff):
    # oracle: one occupation test per detection wire on the registry, D0's
    # wires first; a D0/D1 swap in the library's rows fails here, though
    # every projector field of the report is blind to it
    diags = povm._pattern_diagonals(n_bins, cutoff)
    reg = detection_registry(n_bins, cutoff)
    pats = all_click_patterns(n_bins)
    assert diags.shape == (len(pats), reg.dim)
    for k, p in enumerate(pats):
        want = pattern_diagonal(reg, p)
        assert diags[k].dtype == want.dtype
        assert diags[k].tobytes() == want.tobytes()


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


@settings(max_examples=8, deadline=None)
@given(cutoff=st.sampled_from([3, 4]), phi2=PHASES, phi_delta=PHASES)
def test_block_certification_matches_dense_oracle(cutoff, phi2, phi_delta):
    # every number of the report, block route against dense operators
    cfg = InterferometerConfig.compensated(phi2=phi2, phi_delta=phi_delta)
    report = certify_noncommutativity(cutoff, config=cfg)
    dense = dense_certification(cutoff, cfg)
    fields = {f.name for f in dataclasses.fields(report)}
    assert set(dense) <= fields
    assert report.internal_cutoff == 3 * cutoff
    for name, value in dense.items():
        assert abs(getattr(report, name) - value) <= 1e-12, name


def test_certification_lifts_the_signal_once(monkeypatch):
    # two lifts in all: the wire sectors and the signal block, which
    # serves both boundary conventions
    calls = []
    lift = povm.sector_lift

    def counted(config, bins, n_max, max_occupation=None):
        calls.append(max_occupation)
        return lift(config, bins, n_max, max_occupation)

    monkeypatch.setattr(povm, "sector_lift", counted)
    report = certify_noncommutativity(3)
    assert report.passed
    assert calls == [None, [3, 3, 3, 0, 0, 0]]


def test_blocks_of_one_effect():
    red = reduced_effect_set(2, 3, patterns=(E3_PATTERN, E2_PATTERN))
    e2 = red[E2_PATTERN]
    assert len(e2) == len(red.states) == 10
    assert all(np.array_equal(b, stack[1]) for b, stack in zip(e2, red.blocks))


def test_report_fields_follow_perturbed_blocks(monkeypatch):
    # completeness, the least eigenvalue and the reduction gap are read off
    # every block: perturb blocks well above rounding noise and compare
    # with dense evaluations of the same perturbed operators
    delta = 1e-3
    reduce, seen = povm._reduce, []

    def perturbed(*args):
        states, blocks = reduce(*args)
        blocks = [b.copy() for b in blocks]
        blocks[-1][15] += 2 * delta           # all-click effect, top sector
        low = np.linalg.eigh(blocks[4][0])[1][:, 0]
        blocks[4][0] -= delta * np.outer(low, low)
        blocks[4][16] += delta * np.eye(len(states[4]))   # silent E2
        seen.append((states, blocks))
        return states, tuple(blocks)

    monkeypatch.setattr(povm, "_reduce", perturbed)
    report = certify_noncommutativity(3)
    states, blocks = seen[0]
    pats = all_click_patterns(2)
    marginal = dense_effects(povm.BlockEffects(
        pats, states, tuple(b[:16] for b in blocks)))
    silent = dense_effects(povm.BlockEffects(
        (E2_PATTERN, E3_PATTERN), states, tuple(b[16:] for b in blocks)))
    eye = np.eye(len(marginal[pats[0]]))
    e_sum = np.max(np.abs(sum(marginal.values()) - eye))
    e_min = min(np.linalg.eigvalsh(m)[0] for m in marginal.values())
    gap2 = np.linalg.norm(dense_e2_e3(3)[0] - silent[E2_PATTERN], 2)
    assert abs(e_sum - 2 * delta) < 1e-12
    assert abs(report.e_sum_defect - e_sum) < 1e-12
    assert e_min < -delta / 2
    assert abs(report.e_min_eigenvalue - e_min) < 1e-12
    assert abs(gap2 - delta) < 1e-12
    assert abs(report.e2_reduction_gap - gap2) < 1e-12
    assert not report.passed
