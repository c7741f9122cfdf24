"""Projector effects, their reduction, and the commutation structure."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsqkd import povm
from dpsqkd.optics import InterferometerConfig, sector_lift
from dpsqkd.povm import (E2_PATTERN, E3_PATTERN, NoncommutativityReport,
                         all_click_patterns, build_e2_e3,
                         certify_noncommutativity, click_pattern_ids,
                         conjugated_commutator_norm, pattern_index,
                         reduced_effect_set, t_term)
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
    # the packed bits give the ids of the int64 product of the digits with
    # the powers of 4
    rng = np.random.default_rng(seed)
    d0, d1 = rng.random((2, *shape, n)) < 0.5
    digits = 2 * np.asarray(d0, dtype=np.int64) + np.asarray(d1, dtype=np.int64)
    want = digits @ 4 ** np.arange(digits.shape[-1] - 1, -1, -1)
    got = click_pattern_ids(d0, d1)
    assert got.dtype == want.dtype == np.int64
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 11))
def test_packing_at_every_width_boundary(n):
    # the Monte Carlo's two packings: the N+1 bits of a preparation S'
    # right-aligned (big-endian), and the D0 and D1 clicks interleaved
    # after them; the widths change at 2N = 8, 16 and 18 bits and at
    # N+1 = 8 and 9 bits
    width = lambda bits: 1 if bits <= 8 else 2 if bits <= 16 else 4
    s_bits = povm.id_bits((2 ** (n + 1),), n + 1)
    s_bits[:, -(n + 1):] = np.indices((2,) * (n + 1)).reshape(n + 1, -1).T
    ids = povm.packed_ids(s_bits)
    assert ids.dtype == np.dtype(f">u{width(n + 1)}")
    assert ids.tolist() == list(range(2 ** (n + 1)))

    rng = np.random.default_rng(n)
    d0, d1 = rng.random((2, 500, n)) < 0.5
    d0[:2], d1[:2] = [[False], [True]], [[False], [True]]   # 0 and 4^N - 1
    clicks = povm.id_bits((500,), 2 * n)
    clicks[:, -2 * n::2], clicks[:, 1 - 2 * n::2] = d0, d1
    ids = povm.packed_ids(clicks)
    digits = 2 * d0.astype(np.int64) + d1
    assert ids.dtype == np.dtype(f">u{width(2 * n)}")
    assert np.array_equal(ids, digits @ 4 ** np.arange(n - 1, -1, -1))
    assert np.array_equal(ids, click_pattern_ids(d0, d1))
    assert ids[:2].tolist() == [0, 4 ** n - 1]


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


def mask_reduce(n_bins, cutoff, config, requests):
    """The per-pattern mask reduction that ``povm._reduce`` replaced, kept
    as its oracle: `requests` are ``(pattern, silent)`` pairs, and every
    request builds a boolean mask over its whole sector."""
    bins = n_bins + 1
    strides = (cutoff + 1) ** np.arange(bins - 1, -1, -1)
    targets = [pattern_index(p) for p, _ in requests]
    states, blocks = [], []
    for outputs, inputs, images in sector_lift(
            config, bins, bins * cutoff, [cutoff] * bins + [0] * bins):
        pids = povm._pattern_ids(outputs, n_bins)
        quiet = (outputs[:, 0] == 0) & (outputs[:, bins] == 0)
        block = np.empty((len(requests), len(inputs), len(inputs)),
                         dtype=images.dtype)
        for k, (target, (_, silent)) in enumerate(zip(targets, requests)):
            rows = pids == target
            if silent:
                rows &= quiet
            W = images.T[:, rows]
            block[k] = W.conj() @ W.T
        states.append(inputs[:, :bins] @ strides)
        blocks.append(block)
    return tuple(states), tuple(blocks)


@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.4, 1.3)])
@pytest.mark.parametrize("n_bins, cutoff", [(2, 3), (2, 4), (2, 5), (3, 1),
                                            (3, 2), (3, 3)])
def test_sorted_reduction_matches_the_mask_oracle_bytes(n_bins, cutoff,
                                                        phases):
    # marginal and silent requests of every pattern, in shuffled order and
    # with repeats, on real and on complex images: the same states and
    # blocks, byte for byte
    config = InterferometerConfig.compensated(*phases)
    rng = random.Random(10 * n_bins + cutoff)
    requests = [(p, silent) for p in all_click_patterns(n_bins)
                for silent in (False, True)]
    requests += rng.choices(requests, k=len(requests) // 2)
    rng.shuffle(requests)
    got = povm._reduce(n_bins, cutoff, config,
                       [(pattern_index(p), silent) for p, silent in requests])
    want = mask_reduce(n_bins, cutoff, config, requests)
    for got_arrays, want_arrays in zip(got, want):
        sectors = (n_bins + 1) * cutoff + 1
        assert len(got_arrays) == len(want_arrays) == sectors
        for a, b in zip(got_arrays, want_arrays):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


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
])
def test_certify_refuses_non_integer_counts(kwargs, needle):
    with pytest.raises(ValueError, match=needle) as info:
        certify_noncommutativity(**kwargs)
    assert "\n" not in str(info.value)


def test_certify_takes_no_key_bin_count():
    # the certification lives at N = 2 alone: a count where n_bins stood
    # is refused, not read as a config
    for args, kwargs in (((3, 2), {}), ((3,), {"n_bins": 2})):
        with pytest.raises(TypeError):
            certify_noncommutativity(*args, **kwargs)


def test_certify_refuses_cutoff_16_before_allocating():
    # the sector bound admits cutoff 15 at two key bins and no more: both
    # lifts accept 15 (an unstarted lift holds nothing), and certifying at
    # 16 refuses, naming the wire lift's sector 16, before any allocation
    cfg = InterferometerConfig.compensated()
    sector_lift(cfg, 3, 15)
    sector_lift(cfg, 3, 45, max_occupation=[15] * 3 + [0] * 3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            certify_noncommutativity(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(
        "photon-number sector 16 block of 20349 states x 20349 inputs")
    assert "\n" not in str(info.value)
    assert peak < 2 ** 20


def test_report_thresholds_are_constants_that_every_row_carries():
    report = certify_noncommutativity(3)
    fields = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report)}
    assert len(fields) == 18
    assert NoncommutativityReport(**fields) == report
    for name in NoncommutativityReport.THRESHOLDS:
        assert name not in fields
        with pytest.raises(TypeError, match=name):
            NoncommutativityReport(**fields, **{name: 1.0})
    R = NoncommutativityReport
    assert [c.threshold for c in report.checks()] == \
        [R.g_zero_tol] * 4 + [R.conj_zero_tol] + [R.nonzero_floor] * 3 \
        + [R.reduction_agreement_tol] * 2 + [R.completeness_tol, -R.psd_tol]
    # the JSON report carries each threshold after the values, before the
    # verdict
    keys = list(json.loads(report.to_json()))
    assert keys == [*fields, *R.THRESHOLDS, "passed"]


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


#: the report field each row of the verdict table reads, in printed order
CHECKED_FIELDS = ("g_comm_max", "g_idempotency_max", "g_orthogonality_max",
                  "g_sum_defect", "conjugated_comm_max", "e2e3_comm_norm",
                  "e2e3_comm_norm_reduced", "e2e3_comm_norm_marginal",
                  "e2_reduction_gap", "e3_reduction_gap", "e_sum_defect",
                  "e_min_eigenvalue")


def row_passes(row):
    return (row.value <= row.threshold if row.relation == "<="
            else row.value >= row.threshold)


def test_every_check_decides_the_verdict():
    # one ulp past its threshold, any one checked field fails its row, the
    # verdict and the printed verdict; at the threshold it passes
    report = certify_noncommutativity(3)
    rows = report.checks()
    assert [getattr(report, f) for f in CHECKED_FIELDS] == \
        [c.value for c in rows]
    assert all(map(row_passes, rows)) and report.passed
    # every printed check line is a row's, with the threshold it is held to
    lines = report.to_text().splitlines()[2:-1]
    assert [line.split(" = ")[0].rstrip() for line in lines] == \
        [c.label for c in rows]
    assert [line.endswith(f"({c.note} {c.threshold:g})")
            for line, c in zip(lines, rows)] == [bool(c.note) for c in rows]
    for k, (field, row) in enumerate(zip(CHECKED_FIELDS, rows)):
        past = math.nextafter(row.threshold, math.inf if row.relation == "<="
                              else -math.inf)
        failing = dataclasses.replace(report, **{field: past})
        assert [row_passes(c) for c in failing.checks()] == \
            [j != k for j in range(len(rows))], field
        assert not failing.passed, field
        assert failing.to_text().endswith("\nverdict: FAIL"), field
        assert dataclasses.replace(report, **{field: row.threshold}).passed
