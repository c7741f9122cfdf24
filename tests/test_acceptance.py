"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values tagged "frozen" were computed by independent pre-build
oracles (dense brute force, multinomial expansion, straight-loop Monte
Carlo) and are regression-pinned here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dpsqkd.cli import main
from dpsqkd.entangled import compare_statistics
from dpsqkd.optics import (InterferometerConfig, interferometer_coefficients,
                           propagate)
from dpsqkd.povm import certify_noncommutativity, t_term
from dpsqkd.protocol import SessionConfig, run_session
from dpsqkd.witness import (DiagonalWitness, bb84_effect_family,
                            bell_state_density,
                            diagonal_positivity_theorem_check,
                            qubit_projective_effects, witness_search)
from fock_oracle import sector_mean_amplitudes, t_term_numeric

# frozen regression values (pre-build oracles)
COMM_SILENT_C3 = 0.154605219372170
COMM_MARGINAL_C3 = 0.193111115979741
EVE_QBER = 0.409365          # 0.5 * exp(-0.2), confirmed by loop-MC oracle
EB_TV_THRESHOLD = 0.0115     # oracle mean 0.0048 + 3 / sqrt(2 * trials)


@pytest.fixture(scope="module")
def certification():
    t0 = time.time()
    report = certify_noncommutativity(3)
    return report, time.time() - t0


def _announce(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_detection_table_rates():
    t0 = time.time()
    n = 100000
    stats = run_session(SessionConfig(n_bins=n, alpha2=0.2, seed=101))
    elapsed = time.time() - t0
    p = 1.0 - math.exp(-0.2)
    sigma = math.sqrt(p * (1 - p) / n)
    rate_ok = abs(stats.sifted_rate - p) <= 3 * sigma
    # ideal detectors: any wrong-detector click would surface as a sifted
    # error or a double click
    silent_ok = stats.errors == 0 and stats.double_clicks == 0
    _announce(1, rate_ok and silent_ok and elapsed < 5.0,
              f"rate {stats.sifted_rate:.5f} vs {p:.5f} (3 sigma "
              f"{3 * sigma:.5f}), wrong-detector clicks 0, {elapsed:.1f}s")


def test_criterion_2_analytic_vs_fock_unitary():
    t0 = time.time()
    cfg = InterferometerConfig.compensated()
    cutoff, bins, n_max = 6, 4, 8
    # mean photon number chosen so the cutoff-6 truncation bias on <a>
    # sits far below the 1e-8 comparison tolerance
    alpha = math.sqrt(0.04)
    rows = np.array([[(-1.0) ** b * alpha for b in sp]
                     for sp in itertools.product((0, 1), repeat=3)])
    # <a_w> from the exact sector_lift blocks of sectors n <= n_max; the
    # input's Poisson weight above them (3 pulses, mean 3 alpha^2) is left out
    got = sector_mean_amplitudes(cfg, bins, rows, cutoff, n_max)
    mu = 3 * alpha ** 2
    left_out = sum(math.exp(-mu) * mu ** n / math.factorial(n)
                   for n in range(n_max + 1, n_max + 40))
    worst = 0.0
    for k in range(rows.shape[0]):
        expect = np.concatenate(propagate(rows[k],
                                          interferometer_coefficients(cfg)))
        worst = max(worst, float(np.max(np.abs(got[k] - expect))))
    elapsed = time.time() - t0
    _announce(2, worst <= 1e-8 and left_out <= 1e-12 and elapsed < 10.0,
              f"all 8 S' agree amplitude-wise to {worst:.2e} (tol 1e-8) on "
              f"the exact sector route (sector_lift) over sectors n <= "
              f"{n_max} of cutoff-6 inputs, leaving out input Poisson "
              f"weight {left_out:.1e} (<= 1e-12), {elapsed:.1f}s")


def test_criterion_3_commutation_certification(certification):
    report, elapsed = certification
    ok = (report.g_comm_max <= 1e-12
          and report.conjugated_comm_max <= 1e-10
          and report.e2e3_comm_norm >= report.nonzero_floor
          and abs(report.e2e3_comm_norm - COMM_SILENT_C3) <= 1e-9
          and abs(report.e2e3_comm_norm_marginal - COMM_MARGINAL_C3) <= 1e-9
          and report.passed
          and elapsed < 60.0)
    _announce(3, ok,
              f"[G,G] max {report.g_comm_max:.1e} <= 1e-12, conjugated max "
              f"{report.conjugated_comm_max:.1e} <= 1e-10, ||[E2,E3]|| = "
              f"{report.e2e3_comm_norm:.12f} >= {report.nonzero_floor} "
              f"(frozen {COMM_SILENT_C3}), {elapsed:.1f}s")


def test_criterion_4_t_term():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 5):
        for m in range(1, 5):
            expect = math.factorial(n) if n == m else 0
            assert t_term(n, m) == expect
            worst = max(worst, abs(t_term_numeric(n, m, 5) - expect))
    elapsed = time.time() - t0
    _announce(4, worst <= 1e-9 and elapsed < 10.0,
              f"numeric contraction equals n! delta_nm to {worst:.1e} "
              f"(tol 1e-9) for n,m <= 4 at cutoff 5, {elapsed:.1f}s")


def test_criterion_5_completeness_and_positivity(certification):
    report, _ = certification
    ok = (report.g_sum_defect <= 1e-10
          and report.e_sum_defect <= 1e-9
          and report.e_min_eigenvalue >= -1e-10)
    _announce(5, ok,
              f"sum G defect {report.g_sum_defect:.1e} <= 1e-10, sum E "
              f"defect {report.e_sum_defect:.1e} <= 1e-9, min E eigenvalue "
              f"{report.e_min_eigenvalue:.1e} >= -1e-10")


def test_criterion_6_eb_equivalence():
    t0 = time.time()
    rep = compare_statistics(3, math.sqrt(0.2), trials=100000, seed=33)
    elapsed = time.time() - t0
    ok = (rep.analytic_distance <= 1e-8
          and rep.empirical_distance <= EB_TV_THRESHOLD
          and elapsed < 30.0)
    _announce(6, ok,
              f"analytic TV {rep.analytic_distance:.2e} <= 1e-8, Monte Carlo "
              f"TV {rep.empirical_distance:.4f} <= {EB_TV_THRESHOLD} "
              f"(frozen oracle mean + 3 sigma), {elapsed:.1f}s")


def test_criterion_7_key_rate_law():
    details = []
    ok = True
    for i, alpha2 in enumerate((0.1, 0.2, 0.5)):
        n = 100000
        stats = run_session(SessionConfig(n_bins=n, alpha2=alpha2,
                                          seed=200 + i))
        p = 1.0 - math.exp(-alpha2)
        sigma = math.sqrt(p * (1 - p) / n)
        ok = ok and abs(stats.sifted_rate - p) <= 3 * sigma
        details.append(f"alpha2={alpha2}: {stats.sifted_rate:.5f} vs {p:.5f}")
    _announce(7, ok, "; ".join(details) + " (3 sigma each)")


def test_criterion_8_appendix_theorem():
    t0 = time.time()
    rng = np.random.default_rng(77)

    psd_ok = True
    for _ in range(100):
        dA, dB = rng.integers(2, 5, size=2)
        lam = rng.uniform(0.0, 1.0, size=(dA, dB))
        W = DiagonalWitness(lam).assemble()
        psd_ok = psd_ok and np.linalg.eigvalsh(W)[0] >= -1e-12

    violation_ok = True
    for _ in range(20):
        dA, dB = rng.integers(2, 5, size=2)
        lam = rng.uniform(0.1, 1.0, size=(dA, dB))
        lam[rng.integers(dA), rng.integers(dB)] = -rng.uniform(0.1, 1.0)
        res = diagonal_positivity_theorem_check(DiagonalWitness(lam))
        violation_ok = violation_ok and res.violating_pair is not None \
            and res.violating_expectation < 0.0

    bb84 = bb84_effect_family()
    found = witness_search(bb84, bb84, bell_state_density())
    commuting = qubit_projective_effects()
    none_found = witness_search(commuting, commuting, bell_state_density())
    search_ok = found.found and not none_found.found
    elapsed = time.time() - t0
    _announce(8, psd_ok and violation_ok and search_ok and elapsed < 60.0,
              f"100 nonnegative diagonal witnesses PSD (>= -1e-12), 20 "
              f"negative-entry draws exhibit violating basis states, Bell "
              f"witness found for the conjugate-bases family and none for "
              f"the commuting family, {elapsed:.1f}s")


def test_criterion_9_byte_identical_csv(tmp_path):
    argv = ["simulate", "--alpha2", "0.2", "--bins", "50000", "--seed", "17",
            "--eve-fraction", "0.2", "--dark-click-prob", "0.0001"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    _announce(9, same, "two simulate runs with identical config and seed "
                       "produced byte-identical CSV")
