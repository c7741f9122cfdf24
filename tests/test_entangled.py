"""EB translation and its statistical equivalence with the P&M flow."""

import dataclasses
import inspect
import math
import re
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from dpsqkd import entangled as eb
from dpsqkd.optics import (InterferometerConfig, interferometer_coefficients,
                           propagate)
from dpsqkd.povm import click_pattern_ids
from dpsqkd.protocol import DetectorModel
from fock_oracle import (FockVector, alice_measure, alice_reduced_density,
                         eb_norm2, eb_registry, factor_schmidt_values,
                         fidelity, pulse_train_vector, von_neumann_entropy)


def test_state_norm_and_factorization():
    st = eb.build_eb_state(2, 0.45, 12)
    assert abs(eb_norm2(st) - 1.0) < 1e-10
    assert st.n_pulses == 3
    assert st.factor.shape == (2, 13)
    # the reduced density works at any size below the entry bound
    rho = alice_reduced_density(eb.build_eb_state(5, 0.45, 8))
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
    for _ in range(state.n_pulses):
        joint = np.einsum("ap,bq->abpq", joint, state.factor).reshape(
            2 * joint.shape[0], -1)
    oracle = joint @ joint.conj().T / np.vdot(joint, joint).real
    assert np.allclose(alice_reduced_density(state), oracle,
                       rtol=0, atol=1e-12)


def test_alpha_zero_is_product_state():
    st = eb.build_eb_state(1, 0.0, 5)
    rho = alice_reduced_density(st)
    # Alice's outcome distribution is uniform; the pre-measurement reduced
    # state is pure (|alpha> = |-alpha> at alpha = 0, so nothing entangles)
    assert np.allclose(np.diag(rho).real, 0.25)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    assert factor_schmidt_values(st)[1] < 1e-12   # Schmidt rank one
    rng = np.random.default_rng(0)
    _, collapsed = alice_measure(st, rng)
    # collapsed photonic state is vacuum whatever the outcome
    assert abs(abs(collapsed.amplitudes[0]) - 1.0) < 1e-12


def test_single_pair_entropy_matches_gram_oracle():
    # oracle: eigenvalues (1 +- g)/2 of the 2x2 Gram of {|a>, |-a>},
    # overlap g = exp(-2|a|^2)
    alpha = 0.45
    st = eb.build_eb_state(0, alpha, 20)
    S = von_neumann_entropy(alice_reduced_density(st))
    g = math.exp(-2 * alpha ** 2)
    lam = np.array([(1 + g) / 2, (1 - g) / 2])
    S_oracle = float(-np.sum(lam * np.log2(lam)))
    assert abs(S - S_oracle) < 1e-10


def test_factor_schmidt_rank_two_for_nonzero_alpha():
    s = factor_schmidt_values(eb.build_eb_state(2, 0.45, 12))
    assert s[0] > 0 and s[1] > 0.01


def test_alice_measure_uniform_distribution():
    rng = np.random.default_rng(123)
    st = eb.build_eb_state(1, 0.45, 8)
    counts = np.zeros(4)
    draws = 10000
    for _ in range(draws):
        bits, _ = alice_measure(st, rng)
        counts[bits[0] * 2 + bits[1]] += 1
    expect = draws / 4
    sigma = math.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 3 * sigma)


def test_collapse_matches_pulse_train():
    st = eb.build_eb_state(1, 0.45, 12)
    rng = np.random.default_rng(7)
    for _ in range(8):
        bits, collapsed = alice_measure(st, rng)
        ref = pulse_train_vector(st, bits)
        assert fidelity(collapsed, ref) >= 1.0 - 1e-9


def test_collapsed_specific_outcome():
    # outcome (0,1) collapses onto |alpha> x |-alpha>
    st = eb.build_eb_state(1, 0.45, 12)
    ref = pulse_train_vector(st, np.array([0, 1]))
    v0 = st.collapsed_bin_state(0)
    v1 = st.collapsed_bin_state(1)
    direct = FockVector(eb_registry(st), np.kron(v0, v1), normalized=True)
    assert fidelity(direct, ref) >= 1.0 - 1e-9
    amp0 = eb.collapsed_mean_amplitude(st, 0)
    amp1 = eb.collapsed_mean_amplitude(st, 1)
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


_SMALL_ALPHAS = st.one_of(
    st.sampled_from([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(-0.0, -0.0), 0.45j]),
    st.floats(-0.8, 0.8),
    st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                       allow_infinity=False))
_PHASES = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi))


@settings(max_examples=60, deadline=None)
@given(n_key_bins=st.integers(1, 6), alpha=_SMALL_ALPHAS, phi2=_PHASES,
       defect=_PHASES)
@example(n_key_bins=6, alpha=-0.0, phi2=0.7, defect=0.3)
@example(n_key_bins=1, alpha=complex(0.3, -0.4), phi2=0.0, defect=0.0)
@example(n_key_bins=3, alpha=-0.45, phi2=-2.0, defect=1.1)
def test_analytic_gather_matches_whole_train_propagation(n_key_bins, alpha,
                                                         phi2, defect):
    # oracle: the whole-train route the pair tables replaced, which
    # propagates each flow's 2^(N+1) pulse trains; the pair-table gather
    # gives its click probabilities and pattern distributions bit for bit
    n_pulses, cutoff = n_key_bins + 1, 16
    state = eb.build_eb_state(n_key_bins, alpha, cutoff)
    amp_of_bit = np.array([eb.collapsed_mean_amplitude(state, b)
                           for b in (0, 1)])
    born = state.factor_born_probabilities()
    s_primes = np.indices((2,) * n_pulses).reshape(n_pulses, -1).T
    c_pm = interferometer_coefficients(
        InterferometerConfig.compensated(phi2=phi2))
    c_eb = c_pm * np.exp(1j * defect * np.array([0, 0, 1, 1]))

    def click_table(amps, c):
        return DetectorModel.ideal().click_probabilities(
            np.stack(propagate(amps, c))[..., 1:-1])

    want = [(click_table((1.0 - 2.0 * s_primes) * complex(alpha), c_pm),
             np.full(len(s_primes), 0.5 ** n_pulses)),
            (click_table(amp_of_bit[s_primes], c_eb),
             np.prod(born[s_primes], axis=1))]

    distribution = eb._pattern_distribution
    got = []

    def recording(table, weights):
        got.append((np.array(table), distribution(table, weights)))
        return got[-1][1]

    with mock.patch.object(eb, "_pattern_distribution", recording):
        eb.compare_statistics(n_key_bins, alpha, cutoff=cutoff,
                              config=InterferometerConfig.compensated(
                                  phi2=phi2), eb_delay_defect=defect)
    assert len(got) == 2
    for (table, dist), (want_table, weights) in zip(got, want):
        assert table.dtype == want_table.dtype
        assert table.shape == want_table.shape == (2, 2 ** n_pulses,
                                                   n_key_bins)
        assert table.tobytes() == want_table.tobytes()
        assert dist.tobytes() == distribution(want_table, weights).tobytes()


def test_delay_defect_hook_is_caught():
    rep = eb.compare_statistics(3, math.sqrt(0.2), eb_delay_defect=0.4)
    assert rep.analytic_distance > 1e-4


def test_report_text():
    rep = eb.compare_statistics(2, math.sqrt(0.2), trials=500, seed=0)
    text = rep.to_text()
    assert "analyticDistance" in text and "empiricalDistance" in text
    rep2 = eb.compare_statistics(2, math.sqrt(0.2))
    assert "absent" in rep2.to_text()


def test_report_passes_up_to_the_gate():
    rep = eb.EbComparisonReport(3, 0.2, eb.ANALYTIC_DISTANCE_GATE, None, 0,
                                0.0)
    assert rep.passed
    above = math.nextafter(eb.ANALYTIC_DISTANCE_GATE, math.inf)
    assert not dataclasses.replace(rep, analytic_distance=above).passed


def test_input_validation():
    with pytest.raises(ValueError):
        eb.compare_statistics(0, 0.4)
    for kwargs in ({"trials": -5}, {"seed": -1},
                   {"eb_delay_defect": math.nan}):
        with pytest.raises(ValueError, match=">= 0"):
            eb.compare_statistics(2, 0.4, **kwargs)
    with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
        eb.build_eb_state(1, 0.4, 0)
    # build_eb_state refuses what compare_statistics refuses, in one line
    # and before any amplitude: an alpha whose square overflows, and a
    # factor of 2 x (cutoff+1) entries above the bound
    def unreachable(*args):
        raise AssertionError("state built before the bound check")
    with mock.patch.object(eb, "coherent_amplitudes", unreachable):
        for args, needle in (
                ((-1, 0.4, 3), "n_key_bins must be >= 0, got -1"),
                ((1, math.nan, 3), "alpha must be finite"),
                ((1, complex(1, math.inf), 3), "alpha must be"),
                ((1, 1e200, 3), r"alpha must be finite, \|alpha\| < 1e154"),
                ((1, 0.3, 10 ** 9), "cutoff 1000000000 needs a factor of "
                                    "2000000002 entries, which exceeds the "
                                    "bound 300000000"),
                ((True, 0.4, 3), "n_key_bins must be an integer"),
                ((1.5, 0.4, 3), "n_key_bins must be an integer"),
                ((1, 0.4, 3.0), "cutoff must be an integer")):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=needle) as info:
                eb.build_eb_state(*args)
            assert time.perf_counter() - t0 < 0.2, args
            assert "\n" not in str(info.value)
    # 4^15 entries of Alice's 15-qubit reduced density
    st = eb.build_eb_state(14, 0.45, 2)
    with pytest.raises(ValueError, match="above the bound"):
        alice_reduced_density(st)


@pytest.mark.parametrize("args, kwargs, field", [
    ((2.5, 0.3), {}, "n_key_bins"),
    ((True, 0.3), {}, "n_key_bins"),
    ((2, 0.3), {"trials": 2.5}, "trials"),
    ((2, 0.3), {"cutoff": 2.5}, "cutoff"),
    ((2, 0.3), {"seed": 2.5}, "seed"),
    ((2, 0.3), {"seed": True}, "seed"),
])
def test_compare_statistics_refuses_non_integer_counts(args, kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer") \
            as info:
        eb.compare_statistics(*args, **kwargs)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf,
                                   complex(0.4, math.nan),
                                   # |alpha|^2 overflows a float
                                   1e200, complex(1e308, 1e308)])
def test_non_finite_alpha_refused(alpha):
    with pytest.raises(ValueError, match="alpha must be finite") as info:
        eb.compare_statistics(2, alpha)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("n_key_bins", [1, 3])
@pytest.mark.parametrize("mu", [0.05, 0.1, 0.5, 1.0, 2.0, 4.0])
def test_truncation_refusal_guards_the_gate(n_key_bins, mu):
    # every cutoff the refusal lets through keeps the truncation-only
    # analytic distance within the gate, and every refusal names the
    # smallest cutoff it lets through
    accepted, named = [], set()
    for cutoff in range(1, 31):
        try:
            rep = eb.compare_statistics(n_key_bins, math.sqrt(mu),
                                        cutoff=cutoff)
        except ValueError as exc:
            assert f"P(X > {cutoff})" in str(exc)
            named.add(int(re.search(r"cutoff (\d+) is the smallest",
                                    str(exc)).group(1)))
            continue
        accepted.append(cutoff)
        assert rep.analytic_distance <= eb.ANALYTIC_DISTANCE_GATE
    assert accepted == list(range(accepted[0], 31))
    assert named == {accepted[0]}


def test_truncation_check_reads_the_exact_tail(monkeypatch):
    # at cutoff 3 x 10^6 the exact Poisson tail is nil, while 1 - sum |a|^2
    # measured on a state holds a few ulp of rounding, which the bound's
    # 2N (cutoff+1) factor would push past the gate.  A stand-in state at
    # cutoff 10, shrunk so that its measured tail is about 1e-15, passes:
    # the exact tail decides alone
    assert eb._sufficient_cutoff(0.2, 4, 3_000_000) == (3_000_000, 0.0)
    build = eb.build_eb_state

    def stand_in(n_key_bins, alpha, cutoff):
        state = build(n_key_bins, alpha, 10)
        return dataclasses.replace(state, factor=state.factor * (1 - 4e-16))

    monkeypatch.setattr(eb, "build_eb_state", stand_in)
    rep = eb.compare_statistics(4, math.sqrt(0.2), cutoff=3_000_000)
    assert rep.analytic_distance <= eb.ANALYTIC_DISTANCE_GATE
    # a cutoff too small is refused before any state is built
    monkeypatch.setattr(eb, "build_eb_state", None)
    monkeypatch.setattr(eb, "coherent_amplitudes", None)
    with pytest.raises(ValueError, match="cutoff 7 is the smallest"):
        eb.compare_statistics(2, math.sqrt(0.2), cutoff=3)


@pytest.mark.parametrize("mu, n_key_bins, cutoff, relation", [
    (0.2, 2, 3, "= 5.68e-05"), (1.0, 2, 10, "= 1e-08"),
    (1e7, 1, 10 ** 7, "= 0.5"), (1e5, 1, 10, "> 1/4")])
def test_truncation_refusal_prints_the_poisson_tail(mu, n_key_bins, cutoff,
                                                    relation):
    # the printed tail is scipy's Poisson survival function to its three
    # printed digits; below mu it is the bound 1/4 that the tail exceeds
    with pytest.raises(ValueError, match=re.escape(
            f"P(X > {cutoff}) {relation} of each pulse")):
        eb.compare_statistics(n_key_bins, math.sqrt(mu), cutoff=cutoff)
    tail = stats.poisson.sf(cutoff, mu)
    if relation.startswith("="):
        assert relation == f"= {tail:.3g}"
    else:
        assert cutoff < mu and tail > 0.25


def test_truncation_refusal_costs_no_state(monkeypatch):
    # a cutoff of 10^7 at mu 10^7 is refused from the Poisson tail's
    # window of about 42 + 12 sqrt(mu) terms: no 10^7-entry state, and no
    # coherent amplitudes
    monkeypatch.setattr(eb, "coherent_amplitudes", None)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="cutoff 10025395 is the "
                                             "smallest that suffices"):
            eb.compare_statistics(1, math.sqrt(1e7), cutoff=10 ** 7)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 ** 23


def test_size_bounds_refuse_before_any_work(monkeypatch):
    # 2^13 preparations x 4^12 patterns, 10^8 trials x 5 Monte Carlo
    # entries, and 4 x 10^9 coherent amplitudes: each is refused before
    # the state is built
    def unreachable(*args):
        raise AssertionError("state built before the bound check")
    monkeypatch.setattr(eb, "coherent_amplitudes", unreachable)
    for n, kwargs in ((12, {}), (3, {"trials": 10 ** 8}),
                      (1, {"cutoff": 10 ** 9})):
        with pytest.raises(ValueError, match="exceeds the bound 300000000"):
            eb.compare_statistics(n, 0.4, **kwargs)


@settings(max_examples=25, deadline=None)
@given(n_key_bins=st.integers(1, 5), mu=st.floats(0.0, 1.0),
       phi2=st.floats(-math.pi, math.pi),
       defect=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       trials=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1),
       chunk=st.integers(1, 60).map(lambda k: 2 * k))
# an odd trials x (N+1), so the last S' bit leaves half a 64-bit output
# unused, and a one-row last chunk
@example(n_key_bins=2, mu=0.3, phi2=0.7, defect=0.4, trials=1001, seed=5,
         chunk=10)
# the pattern id fills one byte (2N = 8), and the preparation id does
# (N+1 = 8, where trials x (N+1) is even whatever the trials)
@example(n_key_bins=4, mu=0.5, phi2=0.3, defect=0.2, trials=1001, seed=6,
         chunk=20)
@example(n_key_bins=7, mu=0.2, phi2=-1.1, defect=0.0, trials=999, seed=7,
         chunk=64)
def test_monte_carlo_table_gather_matches_per_trial_route(
        n_key_bins, mu, phi2, defect, trials, seed, chunk):
    # oracle: the sequential per-trial route, which draws every flow's
    # arrays from one generator in one piece, propagates every trial's own
    # (trials, N+1) pulse train and draws its clicks in that order
    cutoff = 16
    alpha = math.sqrt(mu)
    config = InterferometerConfig.compensated(phi2=phi2)
    state = eb.build_eb_state(n_key_bins, alpha, cutoff)
    born1 = state.factor_born_probabilities()[1]
    amp_of_bit = np.array([eb.collapsed_mean_amplitude(state, b)
                           for b in (0, 1)])
    ideal = DetectorModel.ideal()

    def per_trial_ids(amps, coeffs):
        b4, b5 = propagate(amps, coeffs)
        p0 = ideal.click_probabilities(b4[:, 1:-1])
        p1 = ideal.click_probabilities(b5[:, 1:-1])
        return click_pattern_ids(rng.random(p0.shape) < p0,
                                 rng.random(p1.shape) < p1)

    rng = np.random.default_rng(seed)
    c_pm = interferometer_coefficients(config)
    c_eb = c_pm.copy()
    c_eb[2:] *= np.exp(1j * defect)      # the delay-arm defect
    sp = rng.integers(0, 2, size=(trials, n_key_bins + 1))
    want_pm = per_trial_ids((1.0 - 2.0 * sp) * alpha, c_pm)
    sp = rng.random((trials, n_key_bins + 1)) < born1
    want_eb = per_trial_ids(amp_of_bit[sp.astype(int)], c_eb)

    # the chunked route inside compare_statistics, with every chunk's
    # pattern ids recorded under its first row, whatever thread ran it
    chunk_ids = eb._chunk_pattern_ids
    got = {}

    def recording_ids(*args):
        r0 = inspect.signature(chunk_ids).bind(*args).arguments["r0"]
        got[r0] = chunk_ids(*args)
        return got[r0]

    with mock.patch.object(eb, "_MC_CHUNK_ROWS", chunk), \
            mock.patch.object(eb, "_chunk_pattern_ids", recording_ids):
        rep = eb.compare_statistics(n_key_bins, alpha, trials=trials,
                                    cutoff=cutoff, seed=seed, config=config,
                                    eb_delay_defect=defect)
    assert sorted(got) == list(range(0, trials, chunk))
    for flow, want in enumerate((want_pm, want_eb)):
        assert np.array_equal(
            np.concatenate([got[r0][flow] for r0 in sorted(got)]), want)
    h_pm = np.bincount(want_pm, minlength=4 ** n_key_bins)
    h_eb = np.bincount(want_eb, minlength=4 ** n_key_bins)
    assert rep.empirical_distance == 0.5 * float(
        np.sum(np.abs(h_pm / trials - h_eb / trials)))


@pytest.mark.parametrize("shape", [(7, 5), (6, 4), (1,), (0, 3), (33,)])
@pytest.mark.parametrize("before", [0, 1, 2, 3])
def test_integer_bits_are_the_generators_bits(shape, before):
    # the Monte Carlo's P&M S' rows: bool arrays of (rows, N+1) int64 bits,
    # those that `integers(0, 2)` draws, and the next draw starts where it
    # would (the helper's own test is in test_protocol)
    for seed in (0, 5, 2 ** 40):
        want, got = (np.random.default_rng(seed) for _ in range(2))
        want.integers(0, 2, before), got.integers(0, 2, before)
        assert got.bit_generator.state["has_uint32"] == before % 2
        bits = np.ones(shape, dtype=bool)
        eb._integer_bits(got, bits, np.int64)
        assert np.array_equal(bits, want.integers(0, 2, shape))
        assert got.random() == want.random()


def test_monte_carlo_report_does_not_depend_on_workers():
    # 167 chunks of 6 rows; three workers on fewer cores, switching
    # threads every microsecond, must give the one-worker report
    kwargs = dict(alpha=0.5, trials=1001, seed=9, eb_delay_defect=0.3)
    reports = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3):
            with mock.patch.object(eb, "_MC_CHUNK_ROWS", 6), \
                    mock.patch.object(eb, "_MC_WORKERS", workers):
                reports.append(eb.compare_statistics(2, **kwargs))
    finally:
        sys.setswitchinterval(interval)
    assert reports[0].empirical_distance > 0
    assert reports[1] == reports[0] and reports[2] == reports[0]
