"""Prepare-and-measure DPS key distribution sessions.

Alice encodes a random bit string into the phases of a train of weak
coherent pulses; Bob interferes consecutive pulses and watches two bucket
detectors; the classical channel discloses click bins; both sides keep the
corresponding potential-key bits.  An intercept-resend eavesdropper and a
lossy/dark detector model are included as channel plumbing.

Detection operates on the analytic coherent amplitudes, which is exact for
coherent states, through the click kernel shared with :mod:`dpsqkd.entangled`.

Key bin i depends on pulses i-1 and i alone, so a session runs in chunks of
``_CHUNK_BINS`` key bins, each with the pulse before it.  A chunk draws its
uniforms where one whole-session draw puts them, from a PCG64 jumped there
with the stream's buffered 32-bit half-word (:func:`_positioned_rng`); so
no output depends on the chunk size.

Bin indexing: pulses occupy bins 0..N, key bins (and disclosed intervals)
are 1-based indices 1..N.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .fock import _require_integers
from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     PulseTrain, propagate_analytic)

#: column order of the per-session CSV row; bump when the schema changes
CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = ("schema_version", "bins", "alphaSquared", "phi2", "efficiency",
               "darkClickProb", "eveFraction", "seed", "clicks",
               "doubleClicks", "siftedLength", "siftedRate", "errors", "qber")

#: key bins per session chunk, few enough for a chunk's arrays to stay in cache
_CHUNK_BINS = 1 << 15


def _positioned_rng(state: dict, outputs: int) -> np.random.Generator:
    """A generator at the PCG64 ``bit_generator.state`` dict `state` after
    `outputs` more 64-bit draws.  ``PCG64.advance`` clears the buffered
    32-bit half-word a uint8 draw can leave; the result keeps `state`'s,
    which ``random`` never reads and the next ``integers`` call consumes
    first, as in the sequential stream."""
    bits = np.random.PCG64(0)                  # its seed is replaced at once
    bits.state = state
    bits.advance(int(outputs))
    if state["has_uint32"]:
        bits.state = {**bits.state, "has_uint32": 1,
                      "uinteger": state["uinteger"]}
    return np.random.Generator(bits)


class _ChunkDraws:
    """Uniforms of the key bins from 0-based `offset` of `stride`: call k of
    ``random`` draws at output ``k * stride + offset`` after `state`, where
    whole-session calls of `stride` uniforms each put them."""

    def __init__(self, state: dict, offset: int, stride: int):
        self._state, self._at = state, itertools.count(offset, stride)

    def random(self, shape):
        return _positioned_rng(self._state, next(self._at)).random(shape)


@dataclass(frozen=True)
class AliceRecord:
    """Alice's raw string S' (length N+1), derived potential key S
    (``s[i] = s'[i] xor s'[i+1]``) and pulse amplitude."""

    s_prime: np.ndarray
    alpha: complex

    def __post_init__(self):
        sp = np.asarray(self.s_prime, dtype=np.uint8).ravel()
        if sp.size < 1:
            raise ValueError("S' must contain at least one bit")
        if np.any(sp > 1):
            raise ValueError("S' must be a bit string")
        sp.setflags(write=False)
        object.__setattr__(self, "s_prime", sp)
        object.__setattr__(self, "alpha", complex(self.alpha))

    @property
    def n_key_bins(self) -> int:
        return self.s_prime.size - 1

    @property
    def s(self) -> np.ndarray:
        """Potential key bits s_1..s_N."""
        return np.bitwise_xor(self.s_prime[:-1], self.s_prime[1:])

    @classmethod
    def random(cls, n_key_bins: int, alpha: complex, rng: np.random.Generator):
        bits = rng.integers(0, 2, size=n_key_bins + 1, dtype=np.uint8)
        return cls(bits, alpha)


@dataclass(frozen=True)
class DetectorModel:
    """Bucket detector with efficiency eta and a per-bin dark-click
    probability.  Click probability on amplitude beta is
    ``1 - exp(-eta |beta|^2)``, OR-ed with an independent dark draw."""

    efficiency: float = 1.0
    dark_click_prob: float = 0.0

    def __post_init__(self):
        for name in ("efficiency", "dark_click_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @classmethod
    def ideal(cls):
        return cls(1.0, 0.0)

    def click_probabilities(self, amplitudes: np.ndarray) -> np.ndarray:
        # a float array even for integer amplitudes, 0-d for a scalar
        p = np.asarray(np.abs(amplitudes), dtype=float)
        p **= 2
        p *= -self.efficiency
        return np.subtract(1.0, np.exp(p, out=p), out=p)

    def sample(self, p0: np.ndarray, p1: np.ndarray,
               rng: np.random.Generator):
        """Clicks ``(d0, d1)`` of D0 and D1, whose photon click
        probabilities (:meth:`click_probabilities`) are the arrays `p0` and
        `p1` of one shape.  Draws, each in C order: every D0 click, every
        D1 click, then the dark clicks of D0 and of D1."""
        d0 = rng.random(p0.shape) < p0
        d1 = rng.random(p1.shape) < p1
        if self.dark_click_prob > 0.0:
            d0 |= rng.random(d0.shape) < self.dark_click_prob
            d1 |= rng.random(d1.shape) < self.dark_click_prob
        return d0, d1


@dataclass(frozen=True)
class ClickRecord:
    """Detection events at D0 and D1 for key bins 1..N."""

    d0: np.ndarray
    d1: np.ndarray

    def __post_init__(self):
        d0 = np.asarray(self.d0, dtype=bool).ravel()
        d1 = np.asarray(self.d1, dtype=bool).ravel()
        if d0.size != d1.size:
            raise ValueError("click arrays differ in length")
        d0.setflags(write=False)
        d1.setflags(write=False)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)

    @property
    def n_bins(self) -> int:
        return self.d0.size


@dataclass(frozen=True)
class SessionStats:
    """Counts and rates of one Monte Carlo session."""

    n_bins: int
    sifted_length: int
    sifted_rate: float
    qber: Optional[float]
    double_clicks: int
    disclosed_bins: np.ndarray
    errors: int
    config: "SessionConfig"

    def csv_row(self) -> str:
        cfg = self.config
        vals = (CSV_SCHEMA_VERSION, self.n_bins, repr(cfg.alpha2),
                repr(cfg.phi2), repr(cfg.efficiency),
                repr(cfg.dark_click_prob), repr(cfg.eve_fraction), cfg.seed,
                self.disclosed_bins.size, self.double_clicks,
                self.sifted_length, repr(self.sifted_rate), self.errors,
                "" if self.qber is None else repr(self.qber))
        return ",".join(str(v) for v in vals)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)

    def to_text(self) -> str:
        lines = [f"bins = {self.n_bins}",
                 f"clicks = {self.disclosed_bins.size}",
                 f"doubleClicks = {self.double_clicks}  (discarded)",
                 f"siftedLength = {self.sifted_length}",
                 f"siftedRate = {self.sifted_rate!r}",
                 f"errors = {self.errors}",
                 f"qber = {'absent' if self.qber is None else repr(self.qber)}"]
        return "\n".join(lines)


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one session; maps 1:1 onto the config-file keys
    N, alphaSquared, phi2, efficiency, darkClickProb, eveFraction, seed."""

    n_bins: int
    alpha2: float = 0.2
    phi2: float = 0.0
    efficiency: float = 1.0
    dark_click_prob: float = 0.0
    eve_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_integers(N=self.n_bins, seed=self.seed)
        if self.n_bins < 0:
            raise ValueError("N must be >= 0")
        if self.n_bins + 1 > DEFAULT_MAX_STATE_ENTRIES:
            raise ValueError(f"N = {self.n_bins} needs N + 1 pulses, which "
                             f"exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}")
        if not 0.0 <= self.alpha2 < math.inf:
            raise ValueError(f"alphaSquared must be finite and >= 0, "
                             f"got {self.alpha2}")
        if not 0.0 <= self.eve_fraction <= 1.0:
            raise ValueError("eveFraction must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.detector()        # range checks
        self.interferometer()

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha2)

    def interferometer(self) -> InterferometerConfig:
        return InterferometerConfig.compensated(phi2=self.phi2)

    def detector(self) -> DetectorModel:
        return DetectorModel(self.efficiency, self.dark_click_prob)


_CONFIG_KEYS = {"N": ("n_bins", int), "alphaSquared": ("alpha2", float),
                "phi2": ("phi2", float), "efficiency": ("efficiency", float),
                "darkClickProb": ("dark_click_prob", float),
                "eveFraction": ("eve_fraction", float), "seed": ("seed", int)}


def load_session_config(path) -> SessionConfig:
    """Parse a plain-text session config: one ``key = value`` per line,
    ``#`` comments allowed.  Unknown keys are rejected by name."""
    kwargs = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
        attr, conv = _CONFIG_KEYS[key]
        try:
            kwargs[attr] = conv(value.strip())
        except ValueError:
            raise ValueError(
                f"{path}:{ln}: invalid value for {key!r}: {value.strip()!r}") from None
    if "n_bins" not in kwargs:
        raise ValueError(f"{path}: missing required key 'N'")
    return SessionConfig(**kwargs)


# ---------------------------------------------------------------------------
# protocol steps


def prepare_pulse_train(record: AliceRecord) -> PulseTrain:
    """Alice's train: bin i carries amplitude ``(-1)^{s'_i} alpha``."""
    if abs(record.alpha) ** 2 > 1.0:
        warnings.warn("mean photon number above 1 leaks phase information",
                      stacklevel=2)
    alpha = record.alpha if record.alpha.imag else record.alpha.real
    # one gather from the two amplitudes, each the product the sign
    # array times alpha would give, signed zeros included
    return PulseTrain(0, (np.array([1.0, -1.0]) * alpha)[record.s_prime])


def detect(out4: PulseTrain, out5: PulseTrain, model: DetectorModel,
           rng: np.random.Generator) -> ClickRecord:
    """Sample bucket-detector clicks on the key bins of the two output
    trains (as produced by ``propagate_analytic``; the boundary half-pulse
    bins at both ends are outside the detection window).  `rng` needs only
    the ``random`` method of a Generator."""
    if out4.bin_count != out5.bin_count:
        raise ValueError("output trains differ in bin count")
    return ClickRecord(*model.sample(
        model.click_probabilities(out4.amplitudes[1:-1]),
        model.click_probabilities(out5.amplitudes[1:-1]), rng))


def extract_bob_bits(clicks: ClickRecord):
    """Turn clicks into key material: bins with exactly one click yield a
    bit (D0 -> 0, D1 -> 1) and are disclosed; double-click bins are
    discarded and counted.

    Returns ``(bits, disclosed_bins, n_double)`` where `bits` holds -1 for
    bins contributing nothing and `disclosed_bins` uses 1-based indices.
    """
    single = clicks.d0 ^ clicks.d1
    double = clicks.d0 & clicks.d1
    bits = np.where(single, clicks.d1.view(np.int8), np.int8(-1))
    disclosed = np.flatnonzero(single) + 1
    return bits, disclosed, int(np.count_nonzero(double))


def sift(alice: AliceRecord, bob_bits: np.ndarray, disclosed_bins: np.ndarray):
    """Restrict both keys to the disclosed bins.

    Returns ``(alice_key, bob_key, qber)``; `qber` is None when nothing
    was disclosed.
    """
    disclosed_bins = np.asarray(disclosed_bins, dtype=int)
    if disclosed_bins.size and not (
            disclosed_bins.min() >= 1 and disclosed_bins.max() <= alice.n_key_bins):
        raise ValueError("disclosed bins outside 1..N")
    alice_key = alice.s[disclosed_bins - 1] if disclosed_bins.size else \
        np.empty(0, dtype=np.uint8)
    bob_key = np.asarray(bob_bits, dtype=np.int8)[disclosed_bins - 1].astype(np.uint8) \
        if disclosed_bins.size else np.empty(0, dtype=np.uint8)
    if alice_key.size == 0:
        return alice_key, bob_key, None
    qber = float(np.count_nonzero(alice_key != bob_key)) / alice_key.size
    return alice_key, bob_key, qber


@dataclass(frozen=True)
class EveTranscript:
    """What the intercept-resend attacker did and learned."""

    intercepted: np.ndarray        # per pulse 0..N
    known_bins: np.ndarray         # 1-based key bins whose s_i Eve learned
    known_bits: np.ndarray


def intercept_resend(train: PulseTrain, eve_fraction: float,
                     rng: np.random.Generator,
                     config: Optional[InterferometerConfig] = None):
    """Intercept-resend attack on a pulse train.

    Eve taps each pulse independently with probability `eve_fraction`,
    routes the tapped pulses through her own identical interferometer with
    ideal bucket detectors, and re-prepares them: bins whose relative
    phase she resolved are chained onto her own reference bit, the rest
    get uniformly random phases (the simplest unbiased strategy; the
    measurement/resend policy is deliberately pluggable).  Untapped pulses
    pass through untouched.

    Runs in chunks of key bins; the phase chain carries the last resent
    pulse across.  Each chunk draws its tap, D0 and D1 uniforms where one
    whole-train draw from `rng` puts them (so `rng` must run on PCG64);
    `rng` itself then draws the resend bits, after its buffered half-word,
    and ends where the whole-train draws leave it.

    Returns ``(train_out, EveTranscript)``.
    """
    if not 0.0 <= eve_fraction <= 1.0:
        raise ValueError("eve_fraction must lie in [0, 1]")
    n_pulses = train.bin_count
    if eve_fraction == 0.0 or n_pulses == 0:
        empty = np.empty(0, dtype=int)
        return train, EveTranscript(np.zeros(n_pulses, dtype=bool), empty,
                                    empty.astype(np.uint8))
    config = config or InterferometerConfig.compensated()
    # the stream holds the tap uniforms of pulses 0..N, then the D0 and the
    # D1 uniforms of key bins 1..N, then the resend bits, which `rng` draws
    start = rng.bit_generator.state
    rng.bit_generator.state = _positioned_rng(
        start, 3 * n_pulses - 2).bit_generator.state
    s_eve = rng.integers(0, 2, size=n_pulses, dtype=np.uint8)
    alpha = np.max(np.abs(train.amplitudes))
    tapped = np.empty(n_pulses, dtype=bool)
    out = np.empty(n_pulses, dtype=np.result_type(train.amplitudes, float))
    known_bins, known_bits, last = [], [], s_eve[0]
    for a in range(0, max(n_pulses - 1, 1), _CHUNK_BINS):
        b = min(a + _CHUNK_BINS, n_pulses - 1)     # key bins a+1..b
        amps = train.amplitudes[a:b + 1]
        tap = _positioned_rng(start, a).random(b + 1 - a) < eve_fraction
        # Eve's interferometer sees vacuum in the bins she did not tap
        out4, out5 = propagate_analytic(PulseTrain(0, amps * tap), config)
        clicks = detect(out4, out5, DetectorModel.ideal(),
                        _ChunkDraws(start, n_pulses + a, n_pulses - 1))
        bits, disclosed, _ = extract_bob_bits(clicks)

        # a click identifies s_i only when both interfering pulses were hers
        both = tap[:-1] & tap[1:]
        usable = disclosed[both[disclosed - 1]]
        bits = bits[usable - 1].astype(np.uint8)

        # re-prepare: random phase bits, then chain each run of known
        # pulses onto the unknown pulse before it (the chunk's first pulse,
        # resent by the chunk before, counts as unknown): known pulse i gets
        # s[i] = s[i - 1] ^ its bit, a prefix XOR over the run
        s = s_eve[a:b + 1].copy()
        s[0] = last
        run = np.flatnonzero(np.diff(usable, prepend=-1) != 1)
        run = np.repeat(run, np.diff(run, append=usable.size))
        xors = np.zeros(usable.size + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(bits, out=xors[1:])
        s[usable] = s[usable[run] - 1] ^ xors[1:] ^ xors[run]
        last = s[-1]
        tapped[a:b + 1] = tap
        out[a:b + 1] = np.where(tap, np.array([alpha, -alpha])[s], amps)
        known_bins.append(usable + a)
        known_bits.append(bits)
    return PulseTrain(0, out), EveTranscript(
        tapped, np.concatenate(known_bins), np.concatenate(known_bits))


def run_session(config: SessionConfig) -> SessionStats:
    """One full session: prepare, (attack), propagate, detect, extract,
    sift.  Deterministic given the config, which holds the seed.

    Propagation, detection, extraction and sifting run chunk by chunk; each
    chunk draws Bob's D0, D1, dark D0 and dark D1 uniforms where one
    whole-session draw puts them, so no stat depends on the chunk size."""
    rng = np.random.default_rng(config.seed)
    if config.n_bins == 0:
        return SessionStats(0, 0, 0.0, None, 0, np.empty(0, dtype=int), 0, config)
    alice = AliceRecord.random(config.n_bins, config.alpha, rng)
    train = prepare_pulse_train(alice)
    interf = config.interferometer()
    if config.eve_fraction > 0.0:
        train, _ = intercept_resend(train, config.eve_fraction, rng, interf)
    model, start = config.detector(), rng.bit_generator.state
    n = alice.n_key_bins
    disclosed, sifted, errors, n_double = [], 0, 0, 0
    for a in range(0, n, _CHUNK_BINS):
        b = min(a + _CHUNK_BINS, n)                # key bins a+1..b
        out4, out5 = propagate_analytic(
            PulseTrain(0, train.amplitudes[a:b + 1]), interf)
        bits, found, doubles = extract_bob_bits(
            detect(out4, out5, model, _ChunkDraws(start, a, n)))
        alice_key, bob_key, _ = sift(
            AliceRecord(alice.s_prime[a:b + 1], alice.alpha), bits, found)
        errors += int(np.count_nonzero(alice_key != bob_key))
        sifted += alice_key.size
        n_double += doubles
        disclosed.append(found + a)
    return SessionStats(
        n_bins=config.n_bins,
        sifted_length=sifted,
        sifted_rate=sifted / config.n_bins,
        qber=errors / sifted if sifted else None,
        double_clicks=n_double,
        disclosed_bins=np.concatenate(disclosed),
        errors=errors,
        config=config,
    )
