"""EB translation and its statistical equivalence with the P&M flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsqkd import entangled as eb
from dpsqkd import fock


def test_state_norm_and_factorization():
    st = eb.build_eb_state(2, 0.45, 12)
    assert abs(st.norm2() - 1.0) < 1e-10
    assert st.n_pulses == 3
    assert len(st.factors) == 3
    assert all(f.shape == (2, 13) for f in st.factors)
    # the reduced density works at any size below the entry bound
    rho = eb.alice_reduced_density(eb.build_eb_state(5, 0.45, 8))
    assert rho.shape == (64, 64)
    assert abs(np.trace(rho) - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(n_key_bins=st.integers(0, 1), alpha=st.complex_numbers(
    max_magnitude=1.5, allow_nan=False, allow_infinity=False))
def test_alice_reduced_density_matches_joint_oracle(n_key_bins, alpha):
    # oracle: the joint (Alice x photon) vector J, built here from the
    # per-bin factors, and Alice's reduced state J J* / |J|^2
    state = eb.build_eb_state(n_key_bins, alpha, 8)
    joint = np.ones((1, 1))
    for f in state.factors:
        joint = np.einsum("ap,bq->abpq", joint, f).reshape(
            2 * joint.shape[0], -1)
    oracle = joint @ joint.conj().T / np.vdot(joint, joint).real
    assert np.allclose(eb.alice_reduced_density(state), oracle,
                       rtol=0, atol=1e-12)


def test_alpha_zero_is_product_state():
    st = eb.build_eb_state(1, 0.0, 5)
    rho = eb.alice_reduced_density(st)
    # Alice's outcome distribution is uniform; the pre-measurement reduced
    # state is pure (|alpha> = |-alpha> at alpha = 0, so nothing entangles)
    assert np.allclose(np.diag(rho).real, 0.25)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    for i in range(2):
        s = eb.factor_schmidt_values(st, i)
        assert s[1] < 1e-12   # Schmidt rank one per factor
    rng = np.random.default_rng(0)
    _, collapsed = eb.alice_measure(st, rng)
    # collapsed photonic state is vacuum whatever the outcome
    assert abs(abs(collapsed.amplitudes[0]) - 1.0) < 1e-12


def test_single_pair_entropy_matches_gram_oracle():
    # oracle: eigenvalues (1 +- g)/2 of the 2x2 Gram of {|a>, |-a>},
    # overlap g = exp(-2|a|^2)
    alpha = 0.45
    st = eb.build_eb_state(0, alpha, 20)
    S = eb.von_neumann_entropy(eb.alice_reduced_density(st))
    g = math.exp(-2 * alpha ** 2)
    lam = np.array([(1 + g) / 2, (1 - g) / 2])
    S_oracle = float(-np.sum(lam * np.log2(lam)))
    assert abs(S - S_oracle) < 1e-10


def test_factor_schmidt_rank_two_for_nonzero_alpha():
    st = eb.build_eb_state(2, 0.45, 12)
    for i in range(3):
        s = eb.factor_schmidt_values(st, i)
        assert s[0] > 0 and s[1] > 0.01


def test_alice_measure_uniform_distribution():
    rng = np.random.default_rng(123)
    st = eb.build_eb_state(1, 0.45, 8)
    counts = np.zeros(4)
    draws = 10000
    for _ in range(draws):
        bits, _ = eb.alice_measure(st, rng)
        counts[bits[0] * 2 + bits[1]] += 1
    expect = draws / 4
    sigma = math.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 3 * sigma)


def test_collapse_matches_pulse_train():
    st = eb.build_eb_state(1, 0.45, 12)
    rng = np.random.default_rng(7)
    for _ in range(8):
        bits, collapsed = eb.alice_measure(st, rng)
        ref = eb.pulse_train_vector(st, bits)
        assert fock.fidelity(collapsed, ref) >= 1.0 - 1e-9


def test_collapsed_specific_outcome():
    # outcome (0,1) collapses onto |alpha> x |-alpha>
    st = eb.build_eb_state(1, 0.45, 12)
    ref = eb.pulse_train_vector(st, np.array([0, 1]))
    v0 = st.collapsed_bin_state(0, 0)
    v1 = st.collapsed_bin_state(1, 1)
    direct = fock.FockVector(st.registry, np.kron(v0, v1), normalized=True)
    assert fock.fidelity(direct, ref) >= 1.0 - 1e-9
    amp0 = eb.collapsed_mean_amplitude(st, 0, 0)
    amp1 = eb.collapsed_mean_amplitude(st, 1, 1)
    assert abs(amp0 - 0.45) < 1e-9 and abs(amp1 + 0.45) < 1e-9


def test_analytic_distance_vanishes():
    for n in (1, 2, 3):
        rep = eb.compare_statistics(n, math.sqrt(0.2))
        assert rep.analytic_distance <= 1e-10


def test_alpha_zero_point_mass():
    rep = eb.compare_statistics(3, 0.0, trials=2000, seed=4)
    assert rep.analytic_distance == 0.0
    assert rep.empirical_distance == 0.0  # nobody ever clicks


def test_monte_carlo_distance_consistent_with_zero():
    # threshold frozen from a pre-build two-path oracle: mean TV 0.0048
    # over 12 seeds at 1e5 trials, plus 3x the bounded-difference scale
    rep = eb.compare_statistics(3, math.sqrt(0.2), trials=100000, seed=2)
    assert rep.empirical_distance <= 0.0115
    assert abs(rep.sigma - 1 / math.sqrt(2e5)) < 1e-12


def test_delay_defect_hook_is_caught():
    rep = eb.compare_statistics(3, math.sqrt(0.2), eb_delay_defect=0.4)
    assert rep.analytic_distance > 1e-4


def test_report_text():
    rep = eb.compare_statistics(2, math.sqrt(0.2), trials=500, seed=0)
    text = rep.to_text()
    assert "analyticDistance" in text and "empiricalDistance" in text
    rep2 = eb.compare_statistics(2, math.sqrt(0.2))
    assert "absent" in rep2.to_text()


def test_input_validation():
    with pytest.raises(ValueError):
        eb.compare_statistics(0, 0.4)
    for kwargs in ({"trials": -5}, {"seed": -1},
                   {"eb_delay_defect": math.nan}):
        with pytest.raises(ValueError, match=">= 0"):
            eb.compare_statistics(2, 0.4, **kwargs)
    # 4^15 entries of Alice's 15-qubit reduced density
    st = eb.build_eb_state(14, 0.45, 2)
    with pytest.raises(ValueError, match="above the bound"):
        eb.alice_reduced_density(st)


def test_size_bounds_refuse_before_any_work(monkeypatch):
    # 2^13 preparations x 4^12 patterns, 10^8 trials x 5 Monte Carlo
    # entries, and 4 x 10^9 coherent amplitudes: each is refused before
    # the state is built
    def unreachable(*args):
        raise AssertionError("state built before the bound check")
    monkeypatch.setattr(fock, "coherent_amplitudes", unreachable)
    for n, kwargs in ((12, {}), (3, {"trials": 10 ** 8}),
                      (1, {"cutoff": 10 ** 9})):
        with pytest.raises(ValueError, match="exceeds the bound 300000000"):
            eb.compare_statistics(n, 0.4, **kwargs)
