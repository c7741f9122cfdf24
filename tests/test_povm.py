"""Projector effects, their reduction, and the commutation structure."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dpsqkd import optics, povm
from dpsqkd.entangled import _pattern_distribution, coherent_amplitudes
from dpsqkd.optics import (InterferometerConfig, _lift,
                           interferometer_coefficients, sector_lift)
from dpsqkd.povm import (E2_PATTERN, E3_PATTERN, NoncommutativityReport,
                         all_click_patterns, build_e2_e3,
                         certify_noncommutativity, click_pattern_ids,
                         conjugated_commutator_norm, pattern_index,
                         reduced_effect_set, t_term)
from dpsqkd.protocol import DetectorModel, _pair_table
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


def test_reduced_effect_set_bounds(monkeypatch):
    # every refusal comes in one line, before any allocation, mode map or
    # pattern: the boundary, the mode map, the top sector alone, the
    # largest sector block, and the returned blocks of 4^N effects with
    # their N (D0, D1) pairs, which size cutoff 0 too
    def unreachable(*args):
        raise AssertionError("built before the bound check")
    for module, name in ((povm, "all_click_patterns"),
                         (povm, "pattern_index"),
                         (optics, "single_particle_unitary")):
        monkeypatch.setattr(module, name, unreachable)
    bound = "exceed the bound 300000000, counted with the"
    for args, kwargs, needle in [
            ((1, 1), {"boundary": "edge"},
             "boundary must be 'marginal' or 'vacuum', got 'edge'"),
            ((10 ** 4, 0), {}, "10001 bins need a mode map of 400080004 "
                               "entries, which exceeds the bound 300000000"),
            ((10 ** 30, 1), {}, r"10\^30\.00 bins need a mode map of "
                                r"10\^60\.60 entries, which exceeds the bound"),
            ((2, 45), {}, "sector 135 of .* exceeds"),
            ((2, 21), {"patterns": (E2_PATTERN,)}, "sector 45 block .* exceeds"),
            ((8, 1), {}, "65536 reduced effects of 48620 block entries each "
                         + bound + " 8 "),
            ((9, 1), {}, "262144 reduced effects of 184756 block entries "
                         "each " + bound + " 9 "),
            ((13, 0), {}, "67108864 reduced effects of 1 block entries each "
                          + bound + " 13 ")]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=needle) as info:
            reduced_effect_set(*args, **kwargs)
        assert time.perf_counter() - t0 < 0.2, args
        assert "\n" not in str(info.value)


# sha256 of the states and blocks of reduced_effect_set, both boundaries,
# at phases (0, 0) and (0.3, 1.1), recorded while it read its own capped
# public lift apart from the certification's
PINNED_REDUCED_EFFECTS = [
    (1, 1, "0ccb980cf8aeda5f9c9781b375d471f23681421288ea1d1a7e4cffd970aed7b2"),
    (1, 4, "289ddb92f3b41a54669699b50879f13991642d49734c792ccd3bbd8b80962566"),
    (2, 2, "33eb42bb27b901ba5e2f277f010b749edf1f2fdb7bb35e2b7c5e17d8031525cb"),
    (2, 3, "966fa07291cace03f5e5eab477266989476db194a08f6d1ad3b8f1c2375a2e08"),
    (3, 2, "3ac92f9be47f6527a6ef4e6131e5dabc861fe926bb4766e89da8e1ae9554484a"),
    (4, 1, "456e72682ab89f4e180f913b7abd5378a8380192045e906e0c8a3e14b8be354a"),
]


@pytest.mark.parametrize("n_bins, cutoff, digest", PINNED_REDUCED_EFFECTS)
def test_reduced_effect_set_keeps_its_bytes(n_bins, cutoff, digest):
    h = hashlib.sha256()
    for phases in [(0.0, 0.0), (0.3, 1.1)]:
        for boundary in ("marginal", "vacuum"):
            red = reduced_effect_set(
                n_bins, cutoff, InterferometerConfig.compensated(*phases),
                boundary=boundary)
            for a in red.states + red.blocks:
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n_bins, cutoff, needle", [
    (2.5, 3, "n_bins must be an integer, got 2.5"),
    (True, 3, "n_bins must be an integer, got True"),
    (2, 2.5, "cutoff must be an integer, got 2.5"),
    (2, True, "cutoff must be an integer, got True"),
    (-1, 3, "n_bins and cutoff must be >= 0, got -1, 3"),
    (2, -1, "n_bins and cutoff must be >= 0, got 2, -1"),
    (0, 3, "need at least one key bin"),
])
def test_reduced_effect_set_refuses_bad_counts_by_name(n_bins, cutoff,
                                                       needle):
    # each is refused under its own name before any work, not by itertools
    # or under the name of an internal bound
    with pytest.raises(ValueError) as info:
        reduced_effect_set(n_bins, cutoff)
    assert str(info.value) == needle


def mask_reduce(n_bins, cutoff, config, requests):
    """The per-pattern mask reduction that ``povm._reduce`` replaced, kept
    as its oracle: `requests` are ``(pattern, silent)`` pairs, and every
    request builds a boolean mask over its whole sector."""
    bins = n_bins + 1
    strides = (cutoff + 1) ** np.arange(bins - 1, -1, -1)
    targets = [pattern_index(p) for p, _ in requests]
    states, blocks = [], []
    for outputs, inputs, images in _lift(
            config, bins, bins * cutoff, [cutoff] * bins + [0] * bins, 0):
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
    got = povm._reduce(povm._signal_sectors(config, n_bins, cutoff, 0),
                       n_bins, cutoff,
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


def test_build_e2_e3_refuses_in_one_line_before_any_work(monkeypatch):
    # the blocks' entries, 2 sum_n m_n^2 over the sectors' signal state
    # counts m_n, in closed form: equal to the count at every cutoff to 60,
    # within the bound up to 47.  Above it, or for a non-integer, the
    # refusal comes before any array is built
    for c in range(61):
        counts = optics._capped_counts([c] * 3, 3 * c)
        entries = (c + 1) * (11 * c ** 4 + 44 * c ** 3 + 71 * c ** 2
                             + 54 * c + 20) // 10
        assert entries == 2 * sum(m * m for m in counts), c
        assert (entries <= optics.DEFAULT_MAX_STATE_ENTRIES) == (c <= 47)

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the bound check")
    monkeypatch.setattr(np, "indices", unreachable)
    for cutoff, needle in [
            (48, "cutoff 48 needs closed-form blocks of 310781618 entries, "
                 "which exceeds the bound 300000000"),
            (10 ** 30, r"cutoff 10\^30\.00 needs closed-form blocks of "
                       r"10\^150\.04 entries"),
            (23.0, "cutoff must be an integer, got 23.0"),
            (math.inf, "cutoff must be an integer, got inf"),
            (False, "cutoff must be an integer, got False")]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=needle) as info:
            build_e2_e3(cutoff)
        assert time.perf_counter() - t0 < 0.2, cutoff
        assert "\n" not in str(info.value)


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
    # the sector bound admits cutoff 15 at two key bins and no more: the
    # wire, signal and certification lifts accept 15 (an unstarted lift
    # holds nothing), and certifying at 16 refuses, naming the wire
    # sector 16, before any allocation
    cfg = InterferometerConfig.compensated()
    sector_lift(cfg, 3, 15)
    _lift(cfg, 3, 45, [15] * 3 + [0] * 3, 0)
    _lift(cfg, 3, 45, [15] * 3 + [0] * 3, 15)
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
    # wires first; a D0/D1 swap in the library's pattern ids fails here,
    # though every projector row of the report is blind to it
    ids = povm._detection_ids(n_bins, cutoff)
    reg = detection_registry(n_bins, cutoff)
    assert ids.shape == (reg.dim,)
    for k, p in enumerate(all_click_patterns(n_bins)):
        want = pattern_diagonal(reg, p)
        assert want.dtype == np.float64
        assert (ids == k).astype(np.float64).tobytes() == want.tobytes()


def test_projector_rows_hold_no_pattern_by_state_matrix():
    # at N = 4 and cutoff 3 a dense (4^N, (cutoff+1)^(2N)) float matrix of
    # the diagonals takes 256 x 65,536 x 8 B = 134 MB; the rows hold an id
    # and a count per detection state.  Bound fixed before the first run.
    tracemalloc.start()
    try:
        rows = povm._projector_checks(4, 3, range(4 ** 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == dict.fromkeys(CHECKED_FIELDS[:4], 0.0)
    assert peak < 16 * 2 ** 20


def floor_formula(cutoff):
    """||[E2, E3]||_F of the closed forms at `cutoff`, as derived in
    ``build_e2_e3``'s docstring."""
    return math.sqrt(2 * sum(64.0 ** -n - 256.0 ** -n
                             for n in range(1, cutoff + 1)))


#: agreement of the derived floor formula with the computed norms, fixed
#: before the first run
FLOOR_FORMULA_TOL = 1e-12


def test_floor_formula_clears_the_floor_from_cutoff_3():
    floor = povm.NONCOMMUTATIVITY_FLOOR
    assert floor_formula(2) < floor < floor_formula(3)
    # every term 2 (64^-n - 256^-n) is positive: f rises with the cutoff,
    # towards sqrt(2 (1/63 - 1/255)), which doubles reach at cutoff 10
    limit = math.sqrt(384 / 16065)
    values = [floor_formula(c) for c in range(1, 10)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] <= limit
    assert abs(floor_formula(60) - limit) < 1e-15


# from cutoff 23 the binomials C(n, k) of the blocks pass int64
@pytest.mark.parametrize("cutoff", [*range(3, 16), 23, 30])
def test_closed_form_norm_matches_the_floor_formula(cutoff):
    norm = povm._commutator_norm(build_e2_e3(cutoff).blocks)
    assert abs(norm - floor_formula(cutoff)) <= FLOOR_FORMULA_TOL


@pytest.mark.parametrize("n_bins, cutoff", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_silent_adjacent_pairs_match_the_floor_formula(n_bins, cutoff):
    # D0 alone in key bin i and D1 alone in bin i + 1, vacuum elsewhere and
    # on the boundary bin 0: every adjacent pair has the closed forms' norm
    quiet = ((False, False),) * n_bins
    for i in range(n_bins - 1):
        pair = (quiet[:i] + ((True, False),) + quiet[i + 1:],
                quiet[:i + 1] + ((False, True),) + quiet[i + 2:])
        red = reduced_effect_set(n_bins, cutoff, patterns=pair,
                                 boundary="vacuum")
        assert abs(povm._commutator_norm(red.blocks)
                   - floor_formula(cutoff)) <= FLOOR_FORMULA_TOL, i


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


def test_certification_lifts_once(monkeypatch):
    # one lift in all: every wire state up to the cutoff, the signal states
    # above it; it serves the conjugated checks and both boundary
    # conventions.  A reduction alone lifts once too, with no whole sector
    # above the vacuum
    calls = []
    lift_sectors = optics._lift_sectors

    def counted(config, bins, n_max, caps, full):
        calls.append((bins, n_max, caps.tolist(), full))
        return lift_sectors(config, bins, n_max, caps, full)

    monkeypatch.setattr(optics, "_lift_sectors", counted)
    report = certify_noncommutativity(3)
    assert report.passed
    assert calls == [(3, 9, [3, 3, 3, 0, 0, 0], 3)]
    calls.clear()
    reduced_effect_set(3, 2)
    assert calls == [(4, 8, [2, 2, 2, 2, 0, 0, 0, 0], 0)]


def same_bytes(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.3, 1.1)])
@pytest.mark.parametrize("cutoff", [3, 4, 5])
def test_certification_lift_matches_the_wire_and_signal_lifts_bytes(
        cutoff, phases):
    # sector by sector, the certification's whole sectors 0..cutoff are the
    # wire lift's, and its signal columns are the reduction's, byte for byte
    cfg = InterferometerConfig.compensated(*phases)
    wire = sector_lift(cfg, 3, cutoff)
    signal = povm._signal_sectors(cfg, 2, cutoff, 0)
    n = -1
    for n, (got, want) in enumerate(zip(
            povm._signal_sectors(cfg, 2, cutoff, cutoff), signal)):
        outputs, pids, inputs, images, whole = got
        if n <= cutoff:
            for a, b in zip((outputs, outputs, whole), next(wire)):
                assert same_bytes(a, b)
        else:
            assert whole is None
        assert (want[4] is None) == (n > 0)
        for a, b in zip((outputs, pids, inputs, images), want):
            assert same_bytes(a, b)
    assert n == 3 * cutoff
    assert next(wire, None) is None and next(signal, None) is None


#: tracemalloc peak of certify_noncommutativity(8), in bytes, when it ran
#: the wire and the signal lift one after the other, each a sector at a time
CERTIFY_C8_PEAK = 52_623_306


def test_certification_streams_its_lift():
    # the one lift is read a sector at a time: holding it whole took
    # about 151 MB at cutoff 8
    certify_noncommutativity(3)
    tracemalloc.start()
    try:
        assert certify_noncommutativity(8).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * CERTIFY_C8_PEAK


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


@pytest.mark.parametrize("family, failing", [
    ([*range(16), 5], {"g_orthogonality_max", "g_sum_defect"}),
    ([k for k in range(16) if k != 5], {"g_sum_defect"}),
], ids=["duplicated", "missing"])
def test_projector_rows_fail_a_duplicated_or_missing_pattern(
        monkeypatch, family, failing):
    # a pattern requested twice overlaps itself and covers its states
    # twice; a pattern left out leaves its states uncovered
    g = NoncommutativityReport.g_zero_tol
    assert povm._projector_checks(2, 3, range(16)) == \
        dict.fromkeys(CHECKED_FIELDS[:4], 0.0)
    rows = povm._projector_checks(2, 3, family)
    assert {f for f, v in rows.items() if v > g} == failing
    checks = povm._projector_checks
    monkeypatch.setattr(povm, "_projector_checks",
                        lambda n_bins, cutoff, _: checks(n_bins, cutoff,
                                                         family))
    report = certify_noncommutativity(3)
    assert {f for f, c in zip(CHECKED_FIELDS, report.checks())
            if not row_passes(c)} == failing
    assert not report.passed


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


@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.7, 0.3)])
@pytest.mark.parametrize("n_bins, cutoff", [(1, 4), (2, 4), (3, 3)])
def test_certified_effects_give_the_session_statistics(n_bins, cutoff,
                                                       phases):
    # Bob's pattern distribution two ways: the complete-POVM reduced
    # effects on each normalized truncated +-alpha train, and the sessions'
    # pair table gathered as compare_statistics gathers it; for every
    # preparation S' and for their uniform mixture, which alone cannot see
    # a global D0/D1 swap.  At N = 2 the vacuum boundary gives e^-mu times
    # the marginal distribution: bin 0 holds both edge half-pulses, of
    # intensity mu in all, and no key bin's light.
    # Bound, derived before the first run: the normalized truncation of N+1
    # coherent pulses overlaps the full train by (1 - t)^(N+1), t = P(X >
    # cutoff) for X ~ Poisson(mu), so their trace distance, which bounds
    # the TV distance of any measurement's outcomes, is sqrt(1 - (1 -
    # t)^(N+1)); the mixture's follows by convexity
    mu, n_pulses = 0.2, n_bins + 1
    alpha = math.sqrt(mu)
    bound = math.sqrt(1.0 - (1.0 - stats.poisson.sf(cutoff, mu)) ** n_pulses)
    cfg = InterferometerConfig.compensated(*phases)
    s_primes = np.indices((2,) * n_pulses).reshape(n_pulses, -1).T
    tables = _pair_table(DetectorModel.ideal(), np.array([1.0, -1.0]) * alpha,
                         interferometer_coefficients(cfg)).take(
        2 * s_primes[:, :-1] + s_primes[:, 1:], axis=1)
    for boundary, silent in [("marginal", 1.0), ("vacuum", math.exp(-mu))][
            :1 + (n_bins == 2)]:
        red = reduced_effect_set(n_bins, cutoff, cfg, boundary=boundary)
        mixture = 0.0
        for k, bits in enumerate(s_primes):
            psi = functools.reduce(np.kron, [coherent_amplitudes(
                (-1) ** b * alpha, cutoff) for b in bits])
            psi = psi / np.linalg.norm(psi)
            got = sum(np.einsum("x,jxy,y->j", psi[s].conj(), b, psi[s]).real
                      for s, b in zip(red.states, red.blocks))
            want = silent * _pattern_distribution(tables[:, [k]], [1.0])
            assert 0.5 * np.sum(np.abs(got - want)) <= bound, (boundary, k)
            mixture = mixture + got / len(s_primes)
        want = silent * _pattern_distribution(
            tables, np.full(len(s_primes), 0.5 ** n_pulses))
        assert 0.5 * np.sum(np.abs(mixture - want)) <= bound, boundary
