"""P&M session: encoding, detection, sifting, the attacker."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import session_oracle
from dpsqkd import protocol
from dpsqkd.optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                           PulseTrain, propagate_analytic)
from dpsqkd.protocol import (AliceRecord, ClickRecord, DetectorModel,
                             SessionConfig, detect, extract_bob_bits,
                             intercept_resend, load_session_config,
                             prepare_pulse_train, run_session, sift,
                             SessionStats)


def test_alice_record_key_relation():
    rec = AliceRecord(np.array([0, 1, 1, 0, 1]), 0.45)
    assert list(rec.s) == [1, 0, 1, 1]
    assert rec.n_key_bins == 4
    with pytest.raises(ValueError):
        AliceRecord(np.array([0, 2]), 0.45)
    with pytest.raises(ValueError):
        AliceRecord(np.array([], dtype=np.uint8), 0.45)


def test_prepare_pulse_train_signs():
    tr = prepare_pulse_train(AliceRecord(np.array([0, 0, 0]), 0.45))
    assert np.allclose(tr.amplitudes, [0.45, 0.45, 0.45])
    tr2 = prepare_pulse_train(AliceRecord(np.array([0, 1, 0]), 0.45))
    assert np.allclose(tr2.amplitudes, [0.45, -0.45, 0.45])
    tr3 = prepare_pulse_train(AliceRecord(np.array([0, 1]), 0.0))
    assert np.all(tr3.amplitudes == 0.0)


def test_prepare_real_alpha_gives_float64_train():
    # a real session train stays float64 through propagation; a cast back
    # to complex would double the bytes every session stage moves
    rec = AliceRecord(np.array([0, 1, 1, 0]), 0.45)
    tr = prepare_pulse_train(rec)
    assert tr.amplitudes.dtype == np.float64
    o4, o5 = propagate_analytic(tr, InterferometerConfig.compensated())
    assert o4.amplitudes.dtype == o5.amplitudes.dtype == np.float64
    tr_c = prepare_pulse_train(AliceRecord(rec.s_prime, 0.45j))
    assert tr_c.amplitudes.dtype == np.complex128
    assert np.array_equal(tr_c.amplitudes, 1j * tr.amplitudes)


SIGNED_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                         st.floats(-0.7, 0.7, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
       re=SIGNED_PARTS, im=SIGNED_PARTS)
@example(bits=[0, 1], re=0.0, im=-0.45)
@example(bits=[1, 0], re=-0.0, im=0.45)
@example(bits=[0, 1, 1], re=-0.0, im=0.0)
def test_prepare_matches_the_sign_array_product_bit_for_bit(bits, re, im):
    # the lookup gives the bytes of the sign-array product it replaced,
    # signed zeros included, for real and complex alpha alike
    rec = AliceRecord(np.array(bits), complex(re, im))
    signs = 1.0 - 2.0 * rec.s_prime.astype(float)
    alpha = rec.alpha if rec.alpha.imag else rec.alpha.real
    expect = signs * alpha
    got = prepare_pulse_train(rec).amplitudes
    assert got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


def test_prepare_warns_above_one_photon():
    with pytest.warns(UserWarning):
        prepare_pulse_train(AliceRecord(np.array([0, 1]), 1.5))


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
    o4, o5 = propagate_analytic(prepare_pulse_train(rec), cfg)
    clicks = detect(o4, o5, DetectorModel.ideal(), rng)
    p = 1 - math.exp(-0.2)
    rate = clicks.d0.mean()
    assert abs(rate - p) < 3 * math.sqrt(p * (1 - p) / n)
    assert not clicks.d1.any()

    # alternating phases: all bits 1, only D1 clicks
    rec2 = AliceRecord(np.arange(n + 1) % 2, math.sqrt(0.2))
    o4, o5 = propagate_analytic(prepare_pulse_train(rec2), cfg)
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
        oa = propagate_analytic(prepare_pulse_train(a), cfg)
        ob = propagate_analytic(prepare_pulse_train(b), cfg)
        for ta, tb in zip(oa, ob):
            pa = model.click_probabilities(ta.amplitudes)
            pb = model.click_probabilities(tb.amplitudes)
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


def test_intercept_resend_noop_at_zero():
    rng = np.random.default_rng(1)
    tr = PulseTrain(0, np.array([0.45, -0.45, 0.45]))
    out, transcript = intercept_resend(tr, 0.0, rng)
    assert out is tr
    assert not transcript.intercepted.any()


def test_intercept_resend_full_knowledge_zero_qber():
    # amplified pulses: Eve resolves every interval, resend is faithful
    rng = np.random.default_rng(2)
    rec = AliceRecord.random(500, 6.0, rng)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr = prepare_pulse_train(rec)
    out, transcript = intercept_resend(tr, 1.0, rng)
    assert transcript.known_bins.size == 500
    cfg = InterferometerConfig.compensated()
    o4, o5 = propagate_analytic(out, cfg)
    clicks = detect(o4, o5, DetectorModel.ideal(), rng)
    bits, disclosed, _ = extract_bob_bits(clicks)
    _, _, qber = sift(rec, bits, disclosed)
    assert qber == 0.0


class _RecordingRng:
    """A Generator that also keeps the arrays its ``integers`` returned."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.integers_drawn = []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.integers_drawn.append(out.copy())
        return out


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 40), mode=st.sampled_from(["random", "all", "none"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=0, mode="random", seed=1)
@example(n=40, mode="all", seed=2)
@example(n=40, mode="none", seed=3)
def test_intercept_resend_chain_matches_loop(n, mode, seed):
    # the sequential phase chain, as an oracle for the vectorized one:
    # bright pulses make every interval known, faint ones none
    rng = np.random.default_rng(seed)
    alpha = {"random": rng.uniform(0.2, 1.5), "all": 6.0, "none": 1e-9}[mode]
    fraction = rng.uniform(0.05, 1.0) if mode == "random" else 1.0
    train = PulseTrain(0, alpha * (1 - 2 * rng.integers(0, 2, n)))
    eve_rng = _RecordingRng(seed)
    out, transcript = intercept_resend(train, fraction, eve_rng)
    if n == 0:
        assert out is train and eve_rng.integers_drawn == []
        return
    known_bins = {"random": transcript.known_bins,
                  "all": np.arange(1, n), "none": np.empty(0, dtype=int)}[mode]
    assert np.array_equal(transcript.known_bins, known_bins)

    (s,) = eve_rng.integers_drawn
    bit_of = dict(zip(transcript.known_bins.tolist(),
                      transcript.known_bits.tolist()))
    for i in range(1, n):
        if i in bit_of:
            s[i] = s[i - 1] ^ bit_of[i]
    resent = (1.0 - 2.0 * s.astype(float)) * np.max(np.abs(train.amplitudes))
    expected = np.where(transcript.intercepted, resent, train.amplitudes)
    assert np.array_equal(out.amplitudes, expected)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(0, 300), chunk=st.integers(1, 64),
       tap=st.sampled_from([0.0, 0.4, 1.0]),
       dark=st.sampled_from([0.0, 0.05]), phi2=st.sampled_from([0.0, 0.7]),
       alpha2=st.sampled_from([0.2, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
# Alice's ceil(9 / 4) = 3 uint32 draws leave a buffered half-word that
# Eve's resend bits consume first
@example(n=8, chunk=3, tap=0.4, dark=0.05, phi2=0.0, alpha2=0.9, seed=1)
@example(n=64, chunk=16, tap=1.0, dark=0.05, phi2=0.7, alpha2=0.9, seed=2)
@example(n=17, chunk=16, tap=0.4, dark=0.0, phi2=0.0, alpha2=0.9, seed=3)
def test_chunked_session_matches_whole_array_oracle(n, chunk, tap, dark, phi2,
                                                    alpha2, seed):
    cfg = SessionConfig(n_bins=n, alpha2=alpha2, phi2=phi2,
                        dark_click_prob=dark, eve_fraction=tap, seed=seed)
    with mock.patch.object(protocol, "_CHUNK_BINS", chunk):
        got = run_session(cfg)
        rng = np.random.default_rng(seed)
        train = prepare_pulse_train(AliceRecord.random(n, cfg.alpha, rng))
        eve = intercept_resend(train, tap, rng, cfg.interferometer())
    want = session_oracle.run_session(cfg)
    for field in dataclasses.fields(SessionStats):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name
    assert got.csv_row() == want.csv_row()

    # Eve alone: the same train and transcript, and the generator she was
    # passed ends where the sequential draws leave it
    oracle_rng = np.random.default_rng(seed)
    AliceRecord.random(n, cfg.alpha, oracle_rng)
    want_eve = session_oracle.intercept_resend(train, tap, oracle_rng,
                                               cfg.interferometer())
    assert np.array_equal(eve[0].amplitudes, want_eve[0].amplitudes)
    for a, b in zip(dataclasses.astuple(eve[1]),
                    dataclasses.astuple(want_eve[1])):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


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


def test_seed_determinism_bitwise():
    cfg = SessionConfig(n_bins=20000, alpha2=0.3, efficiency=0.8,
                        dark_click_prob=1e-4, eve_fraction=0.35, seed=99)
    a = run_session(cfg)
    b = run_session(cfg)
    assert a.csv_row() == b.csv_row()
    assert np.array_equal(a.disclosed_bins, b.disclosed_bins)


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
