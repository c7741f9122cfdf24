"""P&M session: encoding, detection, sifting, the attacker."""

import contextlib
import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import session_oracle
from dpsqkd import protocol
from dpsqkd.optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                           interferometer_coefficients, propagate)
from dpsqkd.protocol import (AliceRecord, DetectorModel, SessionConfig,
                             _symbols, intercept_resend, load_session_config,
                             run_session, SessionStats)
# the whole-array oracle route, whose pieces the tests below also check
from session_oracle import ClickRecord, detect, extract_bob_bits, sift


def _train(rec):
    """Alice's pulse train: pulse i carries ``(-1)^{s'_i} alpha``."""
    return _symbols(rec.alpha)[rec.s_prime]


def _feeds(rec, cfg):
    """The D0 and D1 output trains of Alice's train behind `cfg`."""
    return propagate(_train(rec), interferometer_coefficients(cfg))


def _stream(rng):
    """What a PCG64 generator's later draws read of its state: its
    ``uinteger`` only while ``has_uint32`` holds it (numpy leaves a stale
    one after consuming it)."""
    st = rng.bit_generator.state
    return st["state"], st["has_uint32"], \
        st["uinteger"] if st["has_uint32"] else None


def test_alice_record_key_relation():
    rec = AliceRecord(np.array([0, 1, 1, 0, 1]), 0.45)
    assert list(rec.s) == [1, 0, 1, 1]
    assert rec.n_key_bins == 4
    with pytest.raises(ValueError):
        AliceRecord(np.array([0, 2]), 0.45)
    with pytest.raises(ValueError):
        AliceRecord(np.array([], dtype=np.uint8), 0.45)


@pytest.mark.parametrize("s_prime", [[0.5, 1], [1.7, 0], ["1", "0"],
                                     [-1, 0], [0, 2], [np.nan, 1],
                                     [1 + 0j, 0], [None, 1]])
def test_alice_record_refuses_non_bits_before_the_cast(s_prime):
    # a uint8 cast would store 0.5 as 0 and "1" as 1, and overflow on -1
    with pytest.raises(ValueError, match="S' must be a bit string") as info:
        AliceRecord(s_prime, 0.45)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("s_prime", [[0, 1, 1], [0.0, 1.0, 1.0],
                                     [False, True, True],
                                     np.array([0, 1, 1], np.int8)])
def test_alice_record_takes_exact_bits_of_any_numeric_dtype(s_prime):
    sp = AliceRecord(s_prime, 0.45).s_prime
    assert sp.dtype == np.uint8 and sp.tolist() == [0, 1, 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("before", [0, 1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 3, 5, 4095, 4097, 10 ** 6 + 1])
def test_integer_bits_are_the_generators_bits(size, before, dtype):
    # from a whole output (an even number of bits drawn before) and from a
    # buffered half-word (an odd number), the bits are those that
    # `integers(0, 2, size, dtype)` draws, and the generator ends where
    # that draw leaves it: its state and buffered half-word, and so the
    # draws that follow
    for seed in (0, 5, 2 ** 40):
        want, got = (np.random.default_rng(seed) for _ in range(2))
        want.integers(0, 2, before), got.integers(0, 2, before)
        assert got.bit_generator.state["has_uint32"] == before % 2
        bits = np.full(size, 7, dtype=np.uint8)
        assert protocol._integer_bits(got, bits, dtype) is bits
        assert np.array_equal(bits, want.integers(0, 2, size, dtype))
        assert _stream(got) == _stream(want)
        assert got.random() == want.random()
        assert np.array_equal(got.integers(0, 2, 9, dtype),
                              want.integers(0, 2, 9, dtype))


def test_alice_record_needs_a_pcg64_generator():
    # the raw-bit route reads PCG64's words, so another bit generator is
    # refused in one line, as intercept_resend refuses it
    philox = np.random.Generator(np.random.Philox(0))
    for draw in (lambda: AliceRecord.random(10, 0.45, philox),
                 lambda: intercept_resend(AliceRecord([0, 1, 0], 0.45), 0.5,
                                          philox)):
        with pytest.raises(ValueError, match="PCG64") as info:
            draw()
        assert "\n" not in str(info.value)


def test_prepare_real_alpha_gives_float64_train():
    # a real train stays float64 through propagation, and so does the pair
    # table built from its symbols; a cast back to complex would double
    # the bytes
    rec = AliceRecord(np.array([0, 1, 1, 0]), 0.45)
    tr = _train(rec)
    assert tr.dtype == np.float64
    o4, o5 = _feeds(rec, InterferometerConfig.compensated())
    assert o4.dtype == o5.dtype == np.float64
    tr_c = _train(AliceRecord(rec.s_prime, 0.45j))
    assert tr_c.dtype == np.complex128
    assert np.array_equal(tr_c, 1j * tr)


SIGNED_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                         st.floats(-0.7, 0.7, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
       re=SIGNED_PARTS, im=SIGNED_PARTS)
@example(bits=[0, 1], re=0.0, im=-0.45)
@example(bits=[1, 0], re=-0.0, im=0.45)
@example(bits=[0, 1, 1], re=-0.0, im=0.0)
def test_prepare_matches_the_sign_array_product_bit_for_bit(bits, re, im):
    # Alice's symbol lookup gives the bytes of the sign-array product it
    # replaced, signed zeros included, for real and complex alpha alike
    rec = AliceRecord(np.array(bits), complex(re, im))
    signs = 1.0 - 2.0 * rec.s_prime.astype(float)
    alpha = rec.alpha if rec.alpha.imag else rec.alpha.real
    expect = signs * alpha
    got = _train(rec)
    assert got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("tap", [0.0, 0.5])
def test_sessions_warn_once_above_one_photon(tap):
    # an honest session builds no pulse train, and warns all the same
    with pytest.warns(UserWarning, match="above 1") as record:
        run_session(SessionConfig(n_bins=10, alpha2=1.5, eve_fraction=tap))
    assert len(record) == 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), eve=st.booleans(),
       alpha=st.one_of(st.sampled_from([0.0, -0.0, 0.45j, 0.3 + 0.4j,
                                        -0.6 - 0.0j]),
                       st.floats(0.0, 1.0)),
       phi2=st.sampled_from([0.0, 0.7]), eta=st.sampled_from([1.0, 0.35]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, eve=True, alpha=0.0, phi2=0.7, eta=0.35, seed=1)
@example(n=5, eve=False, alpha=-0.0, phi2=0.0, eta=1.0, seed=2)
def test_pair_table_gather_matches_the_propagated_train(n, eve, alpha, phi2,
                                                        eta, seed):
    # every key bin's click probabilities are its pulse pair's table entry,
    # byte for byte: Bob's symbols (alpha, -alpha) on Alice's train, and
    # Eve's (vacuum, a, -a) on her input, the train times the taps
    rng = np.random.default_rng(seed)
    model = DetectorModel(efficiency=eta)
    coeffs = interferometer_coefficients(
        InterferometerConfig.compensated(phi2=phi2))
    bits = rng.integers(0, 2, n + 1)
    train = _train(AliceRecord(bits, alpha))
    if eve:
        tap = rng.random(n + 1) < 0.6
        symbols = np.array([0, 1, -1]) * train[0]
        x = ((train != train[0]) + 1) * tap
        train = train * tap
    else:
        symbols = _symbols(complex(alpha))
        x = bits
    want = [model.click_probabilities(b[1:-1])
            for b in propagate(train, coeffs)]
    table = protocol._pair_table(model, symbols, coeffs)
    got = table.take(len(symbols) * x[:-1] + x[1:], axis=1)
    for w, g in zip(want, got):
        assert w.dtype == g.dtype and w.tobytes() == g.tobytes()


def test_sessions_propagate_pulse_pairs_only():
    # the per-bin route must not come back: each propagation holds at most
    # the 9 two-pulse trains of a pair table, at any session length
    shapes = []

    def guarded(amps, coeffs):
        shapes.append(np.shape(amps))
        return propagate(amps, coeffs)

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dpsqkd" and \
                    getattr(module, "propagate", None) is propagate:
                stack.enter_context(
                    mock.patch.object(module, "propagate", guarded))
        for tap in (0.0, 0.5):
            run_session(SessionConfig(n_bins=10 ** 5, eve_fraction=tap,
                                      dark_click_prob=0.01, phi2=0.7))
        rng = np.random.default_rng(4)
        intercept_resend(AliceRecord.random(10 ** 5, 0.45, rng), 0.7, rng)
    assert len(shapes) == 4         # Bob; Eve and Bob; Eve
    for shape in shapes:
        assert shape[-1] == 2 and math.prod(shape[:-1]) <= 9, shape


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorModel(dark_click_prob=-0.1)
    m = DetectorModel(efficiency=0.5)
    p = m.click_probabilities(np.array([0.45]))
    assert abs(p[0] - (1 - math.exp(-0.5 * 0.2025))) < 1e-14
    assert m.click_probabilities(0.45) == p[0]
    assert np.array_equal(m.click_probabilities(np.array([1, 0])),
                          [1 - math.exp(-0.5), 0.0])


def test_detect_table_rows():
    # constant phases: D0 clicks at rate 1-exp(-|alpha|^2), D1 never
    cfg = InterferometerConfig.compensated()
    rng = np.random.default_rng(0)
    n = 40000
    rec = AliceRecord(np.zeros(n + 1, dtype=np.uint8), math.sqrt(0.2))
    o4, o5 = _feeds(rec, cfg)
    clicks = detect(o4, o5, DetectorModel.ideal(), rng)
    p = 1 - math.exp(-0.2)
    rate = clicks.d0.mean()
    assert abs(rate - p) < 3 * math.sqrt(p * (1 - p) / n)
    assert not clicks.d1.any()

    # alternating phases: all bits 1, only D1 clicks
    rec2 = AliceRecord(np.arange(n + 1) % 2, math.sqrt(0.2))
    o4, o5 = _feeds(rec2, cfg)
    clicks2 = detect(o4, o5, DetectorModel.ideal(), rng)
    assert not clicks2.d0.any()
    assert abs(clicks2.d1.mean() - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_click_probability_phase_independent():
    # alpha -> -alpha leaves |amplitudes|^2, hence the click law, unchanged
    cfg = InterferometerConfig.compensated(phi2=0.4, phi_delta=0.1)
    model = DetectorModel(efficiency=0.7)
    rec = AliceRecord(np.array([0, 1, 1, 0]), 0.45)
    neg = AliceRecord(rec.s_prime, -0.45)
    for a, b in ((rec, neg),):
        for ta, tb in zip(_feeds(a, cfg), _feeds(b, cfg)):
            pa = model.click_probabilities(ta)
            pb = model.click_probabilities(tb)
            assert np.allclose(pa, pb, atol=1e-15)


def test_extract_bob_bits_cases():
    clicks = ClickRecord(d0=[True, False, True, False],
                         d1=[False, False, True, True])
    bits, disclosed, n_double = extract_bob_bits(clicks)
    assert list(bits) == [0, -1, -1, 1]
    assert list(disclosed) == [1, 4]
    assert n_double == 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 50), real=st.booleans(), eta=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_click_probabilities_match_out_of_place_formula(n, real, eta, seed):
    # the in-place evaluation makes the same operations in the same order
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) if real else \
        rng.normal(size=n) + 1j * rng.normal(size=n)
    kept = amps.copy()
    p = DetectorModel(efficiency=eta).click_probabilities(amps)
    assert np.array_equal(p, 1.0 - np.exp(-eta * np.abs(amps) ** 2))
    assert np.array_equal(amps, kept)


def _masked_bob_bits(d0, d1):
    """The extraction route replaced by one ``np.where``: fill with -1,
    then assign D1's click to the single-click bins."""
    single = d0 ^ d1
    bits = np.full(d0.size, -1, dtype=np.int8)
    bits[single] = d1[single]
    return bits, np.flatnonzero(single) + 1, int(np.count_nonzero(d0 & d1))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 300), p=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_extract_bob_bits_matches_masked_assignment(n, p, seed):
    rng = np.random.default_rng(seed)
    d0, d1 = rng.random(n) < p, rng.random(n) < p
    bits, disclosed, n_double = extract_bob_bits(ClickRecord(d0, d1))
    old_bits, old_disclosed, old_double = _masked_bob_bits(d0, d1)
    assert bits.dtype == np.int8 and np.array_equal(bits, old_bits)
    assert np.array_equal(disclosed, old_disclosed)
    assert n_double == old_double


def test_sift_cases():
    rec = AliceRecord(np.array([0, 1, 1, 0, 1]), 0.45)  # s = 1,0,1,1
    bits = np.array([1, -1, 1, 0], dtype=np.int8)
    ak, bk, qber = sift(rec, bits, np.array([1, 3, 4]))
    assert list(ak) == [1, 1, 1]
    assert list(bk) == [1, 1, 0]
    assert abs(qber - 1 / 3) < 1e-15

    ak, bk, qber = sift(rec, bits, np.array([], dtype=int))
    assert qber is None and ak.size == 0

    with pytest.raises(ValueError):
        sift(rec, bits, np.array([5]))


def test_sift_constructed_error_rate():
    rng = np.random.default_rng(8)
    rec = AliceRecord.random(100, 0.45, rng)
    bits = rec.s.astype(np.int8).copy()
    bits[41] ^= 1  # one flipped bin out of 100 disclosed
    ak, bk, qber = sift(rec, bits, np.arange(1, 101))
    assert qber == 0.01


def test_intercept_resend_refuses_other_amplitudes():
    # Alice's bits fix every pulse to +-alpha; a non-finite alpha would
    # fill Eve's table with nan, and a tap probability lies in [0, 1]
    rng = np.random.default_rng(0)
    for alpha in (math.nan, math.inf, complex(0.3, math.nan)):
        with pytest.raises(ValueError, match="finite alpha") as info:
            intercept_resend(AliceRecord([0, 1, 0], alpha), 0.5, rng)
        assert "\n" not in str(info.value)
    for fraction in (-0.1, 1.5):
        with pytest.raises(ValueError, match="eve_fraction"):
            intercept_resend(AliceRecord([0, 1, 0], 0.45), fraction, rng)


def test_intercept_resend_noop_at_zero():
    rng = np.random.default_rng(1)
    rec = AliceRecord(np.array([0, 1, 0]), 0.45)
    state = rng.bit_generator.state
    out, transcript = intercept_resend(rec, 0.0, rng)
    assert out is rec.s_prime
    assert not transcript.intercepted.any()
    assert rng.bit_generator.state == state


def test_intercept_resend_full_knowledge_zero_qber():
    # amplified pulses: Eve resolves every interval, resend is faithful
    rng = np.random.default_rng(2)
    rec = AliceRecord.random(500, 6.0, rng)
    out, transcript = intercept_resend(rec, 1.0, rng)
    assert transcript.known_bins.size == 500
    o4, o5 = _feeds(AliceRecord(out, rec.alpha),
                    InterferometerConfig.compensated())
    clicks = detect(o4, o5, DetectorModel.ideal(), rng)
    bits, disclosed, _ = extract_bob_bits(clicks)
    _, _, qber = sift(rec, bits, disclosed)
    assert qber == 0.0


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 41), mode=st.sampled_from(["random", "all", "none"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, mode="random", seed=1)
@example(n=41, mode="all", seed=2)
@example(n=41, mode="none", seed=3)
def test_intercept_resend_chain_matches_loop(n, mode, seed):
    # the sequential phase chain over n pulses, as an oracle for the
    # vectorized one: bright pulses make every interval known, faint ones
    # none
    rng = np.random.default_rng(seed)
    alpha = {"random": rng.uniform(0.2, 1.5), "all": 6.0, "none": 1e-9}[mode]
    fraction = rng.uniform(0.05, 1.0) if mode == "random" else 1.0
    rec = AliceRecord(rng.integers(0, 2, n), alpha)
    out, transcript = intercept_resend(rec, fraction,
                                       np.random.default_rng(seed))
    known_bins = {"random": transcript.known_bins,
                  "all": np.arange(1, n), "none": np.empty(0, dtype=int)}[mode]
    assert np.array_equal(transcript.known_bins, known_bins)

    # her resend bits follow the tap, D0 and D1 uniforms in her stream
    eve_rng = np.random.default_rng(seed)
    eve_rng.random(3 * n - 2)
    s = eve_rng.integers(0, 2, n, dtype=np.uint8)
    bit_of = dict(zip(transcript.known_bins.tolist(),
                      transcript.known_bits.tolist()))
    for i in range(1, n):
        if i in bit_of:
            s[i] = s[i - 1] ^ bit_of[i]
    expected = np.where(transcript.intercepted, s, rec.s_prime)
    assert out.dtype == np.uint8 and np.array_equal(out, expected)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200, 4095, 4097, 300001])
def test_xor_runs_matches_loop(n):
    # the packed doubling scan, its carry across 64-bit words and the
    # carry's own scan over 64 and 4096 words, against the sequential loop
    rng = np.random.default_rng(n)
    for p in (0.0, 0.4, 0.95, 1.0):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        cont = rng.random(n) < p
        want, prev = np.empty(n, dtype=np.uint8), 0
        for i, (xi, ci) in enumerate(zip(x.tolist(), cont.tolist())):
            prev = want[i] = xi ^ (prev if ci else 0)
        got = protocol._xor_runs(x, cont)
        assert got.dtype == np.uint8 and np.array_equal(got, want)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(0, 300), chunk=st.integers(1, 64),
       tap=st.sampled_from([0.0, 0.4, 1.0]),
       dark=st.sampled_from([0.0, 0.05]), phi2=st.sampled_from([0.0, 0.7]),
       alpha2=st.sampled_from([0.0, 0.2, 0.9]),
       seed=st.integers(0, 2 ** 32 - 1))
# Alice's ceil(9 / 4) = 3 uint32 draws leave a buffered half-word that
# Eve's resend bits consume first
@example(n=8, chunk=3, tap=0.4, dark=0.05, phi2=0.0, alpha2=0.9, seed=1)
@example(n=64, chunk=16, tap=1.0, dark=0.05, phi2=0.7, alpha2=0.9, seed=2)
@example(n=17, chunk=16, tap=0.4, dark=0.0, phi2=0.0, alpha2=0.9, seed=3)
# alpha = 0: no clicks but dark ones, and every pulse is +-0.0
@example(n=33, chunk=16, tap=1.0, dark=0.05, phi2=0.7, alpha2=0.0, seed=4)
@example(n=16, chunk=16, tap=0.4, dark=0.0, phi2=0.0, alpha2=0.0, seed=5)
# one bin either side of a chunk boundary
@example(n=31, chunk=32, tap=1.0, dark=0.0, phi2=0.0, alpha2=0.9, seed=6)
@example(n=33, chunk=32, tap=0.4, dark=0.05, phi2=0.7, alpha2=0.2, seed=7)
def test_chunked_session_matches_whole_array_oracle(n, chunk, tap, dark, phi2,
                                                    alpha2, seed):
    cfg = SessionConfig(n_bins=n, alpha2=alpha2, phi2=phi2,
                        dark_click_prob=dark, eve_fraction=tap, seed=seed)
    with mock.patch.object(protocol, "_CHUNK_BINS", chunk):
        got = run_session(cfg)
        rng = np.random.default_rng(seed)
        alice = AliceRecord.random(n, cfg.alpha, rng)
        eve = intercept_resend(alice, tap, rng, cfg.interferometer())
    want = session_oracle.run_session(cfg)
    for field in dataclasses.fields(SessionStats):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name
    assert got.csv_row() == want.csv_row()

    # Eve alone: the bits of the oracle's resent amplitude train, the same
    # transcript, and the generator she was passed ends where the
    # sequential draws leave it
    oracle_rng = np.random.default_rng(seed)
    s_prime = oracle_rng.integers(0, 2, n + 1, dtype=np.uint8)
    assert np.array_equal(alice.s_prime, s_prime)
    want_eve = session_oracle.intercept_resend(
        _train(AliceRecord(s_prime, cfg.alpha)), tap, oracle_rng,
        cfg.interferometer())
    amps = want_eve[0]
    assert eve[0].dtype == np.uint8
    if alpha2 > 0:
        assert np.array_equal(eve[0], amps != cfg.alpha)
    # every pulse is +-alpha, so its sign bit is its bit, also at alpha = 0,
    # where the oracle's +-0.0 compare equal
    assert np.array_equal(eve[0], np.signbit(amps))
    for a, b in zip(dataclasses.astuple(eve[1]),
                    dataclasses.astuple(want_eve[1])):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert _stream(rng) == _stream(oracle_rng)


def test_attacked_session_memory_is_bits_per_key_bin():
    # an attacked session holds no amplitude train: under tracemalloc its
    # peak stays within the bound of the bit route.  Per key bin: Alice's
    # S', Eve's resend bits and her tap and known-bin masks, one byte
    # each, and per known bin (at most 1 - exp(-mu) of the bins, where one
    # of her ideal detectors clicks) an 8-byte index and 2 bytes of bits;
    # plus 32 bytes per bin of a chunk for the chunks' temporaries.  Two
    # float64 trains (16 bytes per bin) alone break it: at this size the
    # float route peaked at 27.7 bytes per bin, the bit route at 9.3
    import tracemalloc
    mu, n = 0.5, 1 << 18
    cfg = SessionConfig(n_bins=n, alpha2=mu, eve_fraction=1.0, seed=3)
    bound = (4 + 10 * (1 - math.exp(-mu))) * n + 32 * protocol._CHUNK_BINS
    tracemalloc.start()
    try:
        run_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak / n, bound / n)


def test_intercept_resend_full_attack_qber():
    # frozen from an independent straight-loop Monte Carlo oracle:
    # QBER -> 0.5*exp(-|alpha|^2) = 0.40937 at |alpha|^2 = 0.2 (sd 0.0037)
    stats = run_session(SessionConfig(n_bins=100000, alpha2=0.2,
                                      eve_fraction=1.0, seed=20))
    sigma = 0.003652
    assert abs(stats.qber - 0.409365) < 3 * sigma


def test_run_session_examples():
    p = 1 - math.exp(-0.2)
    sigma = math.sqrt(p * (1 - p) / 100000)
    st = run_session(SessionConfig(n_bins=100000, alpha2=0.2, seed=5))
    assert abs(st.sifted_rate - p) < 3 * sigma
    assert st.qber == 0.0 and st.double_clicks == 0 and st.errors == 0

    p2 = 1 - math.exp(-0.1)
    st2 = run_session(SessionConfig(n_bins=100000, alpha2=0.2,
                                    efficiency=0.5, seed=6))
    assert abs(st2.sifted_rate - p2) < 3 * math.sqrt(p2 * (1 - p2) / 100000)

    st3 = run_session(SessionConfig(n_bins=0))
    assert st3.sifted_length == 0 and st3.qber is None


@pytest.mark.parametrize("tap, dark", [(0.0, 1e-4), (0.6, 1e-4), (1.0, 0.0)])
def test_each_stream_is_positioned_once_per_session(tap, dark):
    # a session positions each of its draw streams once and then draws
    # from it chunk after chunk: chunks of 16 bins make as many jumps as
    # one chunk, and the same row
    cfg = SessionConfig(n_bins=1000, alpha2=0.5, efficiency=0.9,
                        dark_click_prob=dark, eve_fraction=tap, seed=17)
    calls, rows = [], []
    for chunk in (16, protocol._CHUNK_BINS):
        with mock.patch.object(protocol, "_CHUNK_BINS", chunk), \
                mock.patch.object(protocol, "_positioned_rng",
                                  wraps=protocol._positioned_rng) as jumps:
            rows.append(run_session(cfg).csv_row())
        calls.append(jumps.call_count)
    # Bob's D0, D1 and dark streams; Eve's resend bits, tap, D0 and D1
    assert calls == [(4 if dark else 2) + (4 if tap else 0)] * 2
    assert rows[0] == rows[1]


def test_seed_determinism_bitwise():
    cfg = SessionConfig(n_bins=20000, alpha2=0.3, efficiency=0.8,
                        dark_click_prob=1e-4, eve_fraction=0.35, seed=99)
    a = run_session(cfg)
    b = run_session(cfg)
    assert a.csv_row() == b.csv_row()
    assert np.array_equal(a.disclosed_bins, b.disclosed_bins)


@pytest.mark.parametrize("mu, eta, dark, tap, seed", [
    (0.2, 0.5, 1e-3, 0.0, 11), (0.5, 0.9, 1e-2, 0.0, 12),
    (0.1, 1.0, 0.05, 0.0, 13), (1.0, 0.3, 1e-4, 0.0, 14),
    (0.2, 1.0, 0.0, 0.3, 21), (0.5, 1.0, 0.0, 0.5, 22),
    (1.0, 1.0, 0.0, 0.25, 23)])
def test_session_rates_follow_closed_form_laws(mu, eta, dark, tap, seed):
    # laws derived by hand, not from the pair table; grid, seeds and 5
    # sigma bounds fixed before the first run.  Honest: the detector the
    # phase picks clicks with p = 1 - (1-d) exp(-eta mu), the other with
    # d alone.  Attacked, ideal detectors: Bob always gets +-alpha pulses;
    # a bin keeps its phase when neither pulse was tapped, or both were
    # and Eve saw a single click (she then knows the bin), and is random
    # otherwise.  Honest bins are independent; attacked bins that share a
    # tapped pulse are not, so those sigmas are widened by sqrt(3)
    n = 10 ** 6
    stats = run_session(SessionConfig(n_bins=n, alpha2=mu, efficiency=eta,
                                      dark_click_prob=dark, eve_fraction=tap,
                                      seed=seed))
    if tap == 0.0:
        p = 1 - (1 - dark) * math.exp(-eta * mu)
        rate = p * (1 - dark) + dark * (1 - p)
        laws = [("sifted rate", stats.sifted_rate, rate, n, 1),
                ("qber", stats.qber, dark * (1 - p) / rate, n * rate, 1),
                ("double-click rate", stats.double_clicks / n, p * dark, n, 1)]
    else:
        rng = np.random.default_rng(seed)
        _, eve = intercept_resend(AliceRecord.random(n, math.sqrt(mu), rng),
                                  tap, rng)
        e = math.exp(-mu)
        laws = [("sifted rate", stats.sifted_rate, 1 - e, n, 1),
                ("qber", stats.qber, (2 * tap * (1 - tap) + tap ** 2 * e) / 2,
                 n * (1 - e), 3),
                ("known-bin ratio", eve.known_bins.size / n,
                 tap ** 2 * (1 - e), n, 3)]
        assert stats.double_clicks == 0
    for name, got, law, trials, widen in laws:
        sigma = math.sqrt(widen * law * (1 - law) / trials)
        assert abs(got - law) < 5 * sigma, (name, got, law,
                                            (got - law) / sigma)


def test_dark_clicks_make_doubles_possible():
    st = run_session(SessionConfig(n_bins=50000, alpha2=0.2,
                                   dark_click_prob=0.05, seed=12))
    assert st.double_clicks > 0
    assert st.qber is not None and st.qber > 0.0


def test_session_config_file_roundtrip(tmp_path):
    p = tmp_path / "session.cfg"
    p.write_text("# demo\nN = 1000\nalphaSquared = 0.25\nphi2 = 0.1\n"
                 "efficiency = 0.9\ndarkClickProb = 0.001\n"
                 "eveFraction = 0.5\nseed = 42\n")
    cfg = load_session_config(p)
    assert cfg.n_bins == 1000 and cfg.alpha2 == 0.25 and cfg.seed == 42
    assert cfg.eve_fraction == 0.5


def test_session_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("N = 10\nbogusKey = 3\n")
    with pytest.raises(ValueError, match="bogusKey"):
        load_session_config(p)
    p.write_text("alphaSquared = 0.2\n")
    with pytest.raises(ValueError, match="'N'"):
        load_session_config(p)
    p.write_text("N = ten\n")
    with pytest.raises(ValueError, match="invalid value"):
        load_session_config(p)
    p.write_text("N = 5\n# N = 7 in a comment is no setting\n"
                 "seed = 1\nN = 6\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:4: config key 'N' is "
                                         r"set again, first on line 1"):
        load_session_config(p)


_FRACTIONS = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(fields=st.fixed_dictionaries(
           {"n_bins": st.integers(0, DEFAULT_MAX_STATE_ENTRIES - 1)},
           optional={"alpha2": st.floats(0.0, 1e6), "phi2": st.floats(-7, 7),
                     "efficiency": _FRACTIONS, "dark_click_prob": _FRACTIONS,
                     "eve_fraction": _FRACTIONS,
                     "seed": st.integers(0, 2 ** 63)}),
       order=st.randoms(use_true_random=False),
       pad=st.sampled_from(["", " ", "\t"]),
       comment=st.sampled_from(["", "  # note", "#"]))
def test_session_config_file_round_trip(fields, order, pad, comment,
                                        tmp_path_factory):
    # any valid config, written as text in any key order, with blank lines
    # and comments, reads back field for field; unset keys keep defaults
    names = {attr: key for key, (attr, _) in protocol._CONFIG_KEYS.items()}
    lines = [f"{pad}{names[attr]}{pad}={pad}{value!r}{comment}"
             for attr, value in fields.items()]
    order.shuffle(lines)
    p = tmp_path_factory.mktemp("cfg") / "session.cfg"
    p.write_text("# a session\n\n" + "\n".join(lines) + "\n")
    got = load_session_config(p)
    want = SessionConfig(**fields)
    for field in dataclasses.fields(SessionConfig):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b) and repr(a) == repr(b), field.name


@pytest.mark.parametrize("kwargs, needle", [
    ({"n_bins": 2.5}, "N must be an integer"),
    ({"n_bins": True}, "N must be an integer"),
    ({"n_bins": 10, "seed": 1.5}, "seed must be an integer"),
    ({"n_bins": 10, "seed": False}, "seed must be an integer"),
])
def test_session_config_refuses_non_integer_counts(kwargs, needle):
    with pytest.raises(ValueError, match=needle) as info:
        SessionConfig(**kwargs)
    assert "\n" not in str(info.value)


def test_session_config_refuses_more_pulses_than_the_bound():
    # refused before any draw; N + 1 = DEFAULT_MAX_STATE_ENTRIES is allowed
    bound = f"exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}"
    with pytest.raises(ValueError, match=bound) as info:
        SessionConfig(n_bins=DEFAULT_MAX_STATE_ENTRIES)
    assert "\n" not in str(info.value)
    assert SessionConfig(n_bins=DEFAULT_MAX_STATE_ENTRIES - 1).n_bins


def test_session_config_takes_numpy_integers():
    cfg = SessionConfig(n_bins=np.int64(10), seed=np.uint8(3))
    assert run_session(cfg).n_bins == 10


def test_csv_schema():
    st = run_session(SessionConfig(n_bins=100, seed=1))
    header = SessionStats.csv_header()
    row = st.csv_row()
    assert header.startswith("schema_version,")
    assert len(row.split(",")) == len(header.split(","))
    assert row.split(",")[0] == "1"
