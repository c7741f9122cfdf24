"""Prepare-and-measure DPS key distribution sessions.

Alice encodes a random bit string into the phases of a train of weak
coherent pulses; Bob interferes consecutive pulses and watches two bucket
detectors; the classical channel discloses click bins; both sides keep the
corresponding potential-key bits.  An intercept-resend eavesdropper and a
lossy/dark detector model are included as channel plumbing.

Sessions work on bits end to end: Alice's S' fixes every pulse to
+-alpha, and Eve's intercept-resend (:func:`intercept_resend`) maps her
bits to those of the +-alpha train Bob receives.  Key bin i depends on
pulses i-1 and i alone, and a pulse carries one of S symbols (S = 2 for
Bob's +-alpha; S = 3 for Eve's interferometer, which also sees vacuum), so
every key bin's click probabilities are an entry of one table of the S^2
pulse pairs (:func:`_pair_table`): exact for coherent states, and the
floats a propagation of the whole train gives.  The table is the only
place in the package that turns amplitudes into click probabilities, and
:func:`_sample_pairs` the only place that draws clicks from it; Bob, Eve
and :mod:`dpsqkd.entangled` all go through the two.

A session runs in chunks of ``_CHUNK_BINS`` key bins, each with the pulse
before it.  A chunk draws its uniforms where one whole-session draw puts
them, from a PCG64 jumped there with the stream's buffered 32-bit
half-word (:func:`_positioned_rng`); so no output depends on the chunk
size.

Bin indexing: pulses occupy bins 0..N, key bins (and disclosed intervals)
are 1-based indices 1..N.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     _require_integers, interferometer_coefficients,
                     propagate)

#: column order of the per-session CSV row; bump when the schema changes
CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = ("schema_version", "bins", "alphaSquared", "phi2", "efficiency",
               "darkClickProb", "eveFraction", "seed", "clicks",
               "doubleClicks", "siftedLength", "siftedRate", "errors", "qber")

#: key bins per session chunk, few enough for a chunk's arrays to stay in cache
_CHUNK_BINS = 1 << 15


def _positioned_rng(state: dict, outputs: int,
                    rng: Optional[np.random.Generator] = None
                    ) -> np.random.Generator:
    """`rng` (a Generator on PCG64), or a new generator when None, moved to
    the ``bit_generator.state`` dict `state` after `outputs` more 64-bit
    draws.  ``PCG64.advance`` clears the buffered 32-bit half-word a uint8
    draw can leave; the result keeps `state`'s, which ``random`` never reads
    and the next ``integers`` call consumes first, as in the sequential
    stream."""
    if rng is None:                # its seed is replaced at once
        rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    bits.state = state
    bits.advance(int(outputs))
    if state["has_uint32"]:
        bits.state = {**bits.state, "has_uint32": 1,
                      "uinteger": state["uinteger"]}
    return rng


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
    ``#`` comments allowed.  Unknown keys are refused by name, and a key
    set twice with both line numbers."""
    kwargs, first_line = {}, {}
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
        if key in first_line:
            raise ValueError(f"{path}:{ln}: config key {key!r} is set again, "
                             f"first on line {first_line[key]}")
        first_line[key] = ln
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


def _symbols(alpha: complex) -> np.ndarray:
    """The amplitudes ``(alpha, -alpha)`` of bits 0 and 1, real for a real
    `alpha`, signed zeros included."""
    return np.array([1.0, -1.0]) * (alpha if alpha.imag else alpha.real)


def _pair_table(model: DetectorModel, symbols: np.ndarray,
                coeffs: np.ndarray) -> np.ndarray:
    """Click probabilities ``(2, S * S)`` of D0 and D1 in a key bin whose
    two pulses carry ``symbols[u]``, then ``symbols[v]`` (S symbols), at
    index ``S * u + v``: the floats that :func:`~dpsqkd.optics.propagate`
    and :meth:`DetectorModel.click_probabilities` give that key bin of any
    train, behind the mode map with coefficients `coeffs`."""
    symbols = np.asarray(symbols)
    pairs = symbols[np.indices((symbols.size,) * 2).reshape(2, -1).T]
    return model.click_probabilities(np.stack(propagate(pairs, coeffs))[..., 1])


def _sample_pairs(model: DetectorModel, table: np.ndarray, classes: np.ndarray,
                  state: dict, offset: int, stride: int,
                  rng: np.random.Generator, out=None, work=None):
    """Clicks ``(d0, d1)`` of `model` in the key bins of rows whose click
    probabilities are row ``classes[r]`` (intp) of ``table[0]`` (D0) and
    ``table[1]`` (D1), a ``(2, K, *width)`` table: for a session, the pair
    table, by pulse pair.  Draws the D0, then the D1 uniforms and, with
    dark counts, the dark uniforms of D0 and of D1, each in C order: draw
    k comes at output ``k * stride + offset`` after the PCG64 state
    `state`, where whole-session draws of `stride` uniforms each put it,
    from `rng` moved there.  Writes into the bool arrays `out`, and uses
    the floats `work` (uniforms, probabilities), when given."""
    shape = classes.shape + table.shape[2:]
    out = out or (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
    u, p = np.empty((2, *shape)) if work is None else work
    for k, d in enumerate(out):
        # mode="raise" would buffer `p`, at about three times the cost
        table[k].take(classes, axis=0, out=p, mode="clip")
        np.less(_positioned_rng(state, k * stride + offset, rng).random(out=u),
                p, out=d)
    if model.dark_click_prob > 0.0:
        for k, d in enumerate(out, 2):
            d |= _positioned_rng(state, k * stride + offset, rng).random(
                out=u) < model.dark_click_prob
    return out


@dataclass(frozen=True)
class EveTranscript:
    """What the intercept-resend attacker did and learned."""

    intercepted: np.ndarray        # per pulse 0..N
    known_bins: np.ndarray         # 1-based key bins whose s_i Eve learned
    known_bits: np.ndarray


def intercept_resend(alice: AliceRecord, eve_fraction: float,
                     rng: np.random.Generator,
                     config: Optional[InterferometerConfig] = None):
    """Intercept-resend attack on Alice's train, pulse i of amplitude
    ``(-1)^{s'_i} alpha``, run on her bits.

    Eve taps each pulse independently with probability `eve_fraction`,
    routes the tapped pulses through her own identical interferometer with
    ideal bucket detectors, and re-prepares them as pulses of amplitude
    alpha or -alpha: bins whose relative phase she resolved are chained
    onto her own reference bit, the rest get uniformly random phases (the
    simplest unbiased strategy, and the only policy implemented).
    Untapped pulses pass through untouched.

    Her interferometer sees each pulse as vacuum (untapped), or as pulse
    0's amplitude times +1 or -1 (bit ``s'_i ^ s'_0``), so her clicks come
    from the table of those 9 pulse pairs.  Runs in chunks of key bins;
    the phase chain carries the last resent pulse across.  Each chunk
    draws its tap, D0 and D1 uniforms where one whole-train draw from
    `rng` puts them (so `rng` must run on PCG64); `rng` itself then draws
    the resend bits, after its buffered half-word, and ends where the
    whole-train draws leave it.

    Returns ``(bits, EveTranscript)``, `bits` (uint8) those of the train
    Bob receives.  Raises ValueError for an `eve_fraction` outside [0, 1]
    or a non-finite alpha.
    """
    if not 0.0 <= eve_fraction <= 1.0:
        raise ValueError("eve_fraction must lie in [0, 1]")
    if not cmath.isfinite(alice.alpha):
        raise ValueError(f"intercept_resend needs a finite alpha, "
                         f"got {alice.alpha}")
    sp = alice.s_prime
    n_pulses = sp.size
    if eve_fraction == 0.0:
        empty = np.empty(0, dtype=int)
        return sp, EveTranscript(np.zeros(n_pulses, dtype=bool), empty,
                                 empty.astype(np.uint8))
    table = _pair_table(DetectorModel.ideal(),
                        np.array([0, 1, -1]) * _symbols(alice.alpha)[sp[0]],
                        interferometer_coefficients(
                            config or InterferometerConfig.compensated()))
    # the stream holds the tap uniforms of pulses 0..N, then the D0 and the
    # D1 uniforms of key bins 1..N, then the resend bits, which `rng` draws
    # into `out`; the chunks make them Bob's bits in place
    start = rng.bit_generator.state
    out = _positioned_rng(start, 3 * n_pulses - 2, rng).integers(
        0, 2, size=n_pulses, dtype=np.uint8)
    draws = _positioned_rng(start, 0)
    tapped = np.empty(n_pulses, dtype=bool)
    known = np.zeros(n_pulses, dtype=bool)
    known_bits = []
    for a in range(0, max(n_pulses - 1, 1), _CHUNK_BINS):
        b = min(a + _CHUNK_BINS, n_pulses - 1)     # key bins a+1..b
        chunk = sp[a:b + 1]
        tap = _positioned_rng(start, a, draws).random(b + 1 - a) < eve_fraction
        # Eve's symbol of each pulse: 0 untapped, else 1 + its bit
        # relative to pulse 0
        seen = ((chunk ^ sp[0]) + 1) * tap
        d0, d1 = _sample_pairs(DetectorModel.ideal(), table,
                               (3 * seen[:-1] + seen[1:]).astype(np.intp),
                               start, n_pulses + a, n_pulses - 1, draws)

        # a click identifies s_i only when both interfering pulses were hers
        usable = np.flatnonzero((d0 ^ d1) & tap[:-1] & tap[1:]) + 1
        bits = d1[usable - 1].view(np.uint8)

        # re-prepare: random phase bits, then chain each run of known
        # pulses onto the unknown pulse before it (the chunk's first pulse,
        # resent by the chunk before, counts as unknown): known pulse i gets
        # s[i] = s[i - 1] ^ its bit, a prefix XOR over the run (an untapped
        # first pulse starts none, so Alice's bit there is never read)
        s = out[a:b + 1]
        run = np.flatnonzero(np.diff(usable, prepend=-1) != 1)
        run = np.repeat(run, np.diff(run, append=usable.size))
        xors = np.zeros(usable.size + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(bits, out=xors[1:])
        s[usable] = s[usable[run] - 1] ^ xors[1:] ^ xors[run]
        # untapped pulses pass through: s = tap ? s : Alice's bit, as a
        # bitwise select (a copy masked by the random taps is 20x slower)
        s ^= chunk
        s &= tap.view(np.uint8)
        s ^= chunk
        tapped[a:b + 1] = tap
        known[usable + a] = True
        known_bits.append(bits)
    return out, EveTranscript(tapped, np.flatnonzero(known),
                              np.concatenate(known_bits))


def run_session(config: SessionConfig) -> SessionStats:
    """One full session: prepare, (attack), detect, extract, sift.
    Deterministic given the config, which holds the seed.

    Bob's side works on the bits of the pulses: each key bin's click
    probabilities come from the table of the four pulse pairs, and the
    sifted bits, errors and double clicks are counted from the clicks and
    Alice's bits.  No session builds pulse amplitudes: Eve's attack takes
    and gives bits too (:func:`intercept_resend`).  Bob's side runs chunk
    by chunk; each chunk draws Bob's D0, D1, dark D0 and dark D1
    uniforms where one whole-session draw puts them, so no stat depends on
    the chunk size."""
    rng = np.random.default_rng(config.seed)
    if config.n_bins == 0:
        return SessionStats(0, 0, 0.0, None, 0, np.empty(0, dtype=int), 0, config)
    alice = AliceRecord.random(config.n_bins, config.alpha, rng)
    if abs(alice.alpha) ** 2 > 1.0:
        warnings.warn("mean photon number above 1 leaks phase information",
                      stacklevel=2)
    interf = config.interferometer()
    # the bits of the train Bob receives: Eve resends +-alpha too
    pulses = alice.s_prime
    if config.eve_fraction > 0.0:
        # the transcript goes at once, before Bob's arrays are made
        pulses = intercept_resend(alice, config.eve_fraction, rng, interf)[0]
    model, start = config.detector(), rng.bit_generator.state
    table = _pair_table(model, _symbols(alice.alpha),
                        interferometer_coefficients(interf))
    draws = _positioned_rng(start, 0)
    n = config.n_bins
    single = np.empty(n, dtype=bool)       # per key bin: one click alone
    errors, n_double = 0, 0
    for a in range(0, n, _CHUNK_BINS):
        b = min(a + _CHUNK_BINS, n)                # key bins a+1..b
        pair = (2 * pulses[a:b] + pulses[a + 1:b + 1]).astype(np.intp)
        d0, d1 = _sample_pairs(model, table, pair, start, a, n, draws)
        # a single click discloses the bin, with Bob's bit d1; Alice's bit
        # is s_i = s'_(i-1) ^ s'_i
        one = np.bitwise_xor(d0, d1, out=single[a:b])
        key = alice.s_prime[a:b] ^ alice.s_prime[a + 1:b + 1]
        errors += int(np.count_nonzero(one & (d1 ^ key.view(bool))))
        n_double += int(np.count_nonzero(d0 & d1))
    disclosed = np.flatnonzero(single)
    disclosed += 1                         # 1-based, in place
    sifted = disclosed.size
    return SessionStats(
        n_bins=config.n_bins,
        sifted_length=sifted,
        sifted_rate=sifted / config.n_bins,
        qber=errors / sifted if sifted else None,
        double_clicks=n_double,
        disclosed_bins=disclosed,
        errors=errors,
        config=config,
    )
