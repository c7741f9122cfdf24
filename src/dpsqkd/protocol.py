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
before it; the chunks' uniforms, clicks and bits live in arrays allocated
once per session, and only masks and counts make chunk-sized temporaries.
Each of its draw streams gets one generator, jumped once to where one
whole-session draw puts that stream, with the buffered 32-bit half-word
(:func:`_positioned_rng`), which then draws chunk after chunk; so no
output depends on the chunk size.  Alice's S' and Eve's resend bits are
``integers(0, 2)`` draws, taken from the raw PCG64 words
(:func:`_integer_bits`).

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


def _integer_bits(rng: np.random.Generator, out: np.ndarray,
                  dtype=np.uint8) -> np.ndarray:
    """Write into the C-contiguous array `out` what
    ``rng.integers(0, 2, out.shape, dtype)`` draws on PCG64, for `dtype`
    uint8 or int64, and leave `rng` where that draw leaves it.  Lemire's
    method never rejects a range of 2: a uint8 is the top bit of a byte of
    a 32-bit half-word (4 per half-word), an int64 the top bit of the
    half-word, taken a buffered half-word first, then the low and the high
    half of each output.  `rng` itself draws the values of a buffered
    half-word and of the last, partly used, output, so its buffer ends as
    ``integers`` leaves it.  Raises ValueError for a generator that does
    not run on PCG64."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError(f"random bits need a Generator on PCG64, "
                         f"got {state['bit_generator']}")
    flat = out.reshape(-1)
    per_half = 4 if np.dtype(dtype) == np.uint8 else 1
    head = min(per_half, flat.size) if state["has_uint32"] else 0
    flat[:head] = rng.integers(0, 2, head, dtype)
    raw = rng.bit_generator.random_raw((flat.size - head) // (2 * per_half))
    raw = raw.astype("<u8", copy=False).view(f"<u{4 // per_half}")
    end = head + raw.size
    np.right_shift(raw, 8 * raw.itemsize - 1, out=flat[head:end],
                   casting="unsafe")
    flat[end:] = rng.integers(0, 2, flat.size - end, dtype)
    return out


@dataclass(frozen=True)
class AliceRecord:
    """Alice's raw string S' (length N+1), derived potential key S
    (``s[i] = s'[i] xor s'[i+1]``) and pulse amplitude."""

    s_prime: np.ndarray
    alpha: complex

    def __post_init__(self):
        sp = np.asarray(self.s_prime)
        # checked before the cast to uint8, which takes 0.5 for 0, "1" for 1
        if sp.dtype != np.uint8 and not (sp.dtype.kind in "biuf" and
                                         np.all((sp == 0) | (sp == 1))):
            raise ValueError("S' must be a bit string")
        sp = sp.astype(np.uint8, copy=False).ravel()
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
        """S' of `n_key_bins` + 1 bits as ``rng.integers(0, 2, dtype=np.uint8)``
        draws them, from `rng` on PCG64 (:func:`_integer_bits`)."""
        return cls(_integer_bits(rng, np.empty(n_key_bins + 1, np.uint8)),
                   alpha)


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
                  streams, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Clicks ``(d0, d1)`` of `model` in the key bins of rows whose click
    probabilities are row ``classes[r]`` (intp; bool for K = 2) of
    ``table[0]`` (D0) and ``table[1]`` (D1), a ``(2, K, *width)`` table:
    for Eve, the pair table by pulse pair; for Bob, its rows by key bit.
    Draws the D0, then the D1 uniforms and, with dark counts, the dark
    uniforms of D0 and of D1, each in C order, from the next of `streams`,
    a list of independent generators each already at its draw's position:
    a session's streams, positioned once, draw chunk after chunk.  Writes
    into the bool array `out` ``(2, *shape)`` and uses the floats `work`
    ``(2, *shape)`` (uniforms, probabilities); with two classes the select
    makes one bool mask per detector."""
    shape = classes.shape + table.shape[2:]
    u, p = work
    streams = iter(streams)
    for k, d in enumerate(out):
        next(streams).random(out=u)
        if table.shape[1:] == (2,):
            # two classes, Bob's key bits: d = u < table[k, bit] as a
            # select between two compares, at a third of a gather's cost
            below = u < table[k, 0]
            np.less(u, table[k, 1], out=d)
            d ^= below
            d &= classes
            d ^= below
        else:
            # mode="raise" would buffer `p`, at about three times the cost
            table[k].take(classes, axis=0, out=p, mode="clip")
            np.less(u, p, out=d)
    if model.dark_click_prob > 0.0:
        for d in out:
            d |= next(streams).random(out=u) < model.dark_click_prob
    return out


def _xor_runs(x: np.ndarray, cont: np.ndarray) -> np.ndarray:
    """The uint8 bits ``y[i] = x[i] ^ (y[i - 1] if cont[i] else 0)`` of the
    bits `x` (a prefix XOR that restarts wherever `cont` is 0), on the
    packed bits: a doubling scan within each 64-bit word, then the carry
    into each word, the same scan one level up over the words' top bits."""
    n, words = x.size, -(-x.size // 64)
    v, g = np.zeros((2, words), dtype="<u8")
    v.view(np.uint8)[:-(-n // 8)] = np.packbits(x, bitorder="little")
    g.view(np.uint8)[:-(-n // 8)] = np.packbits(cont, bitorder="little")
    for k in (1, 2, 4, 8, 16, 32):
        # v: the restarting XOR over the last 2k bits within the word; g:
        # no restart among them
        v ^= (v << k) & g
        g &= (g << k) | ((1 << k) - 1)
    if words > 1:
        carry = np.zeros(words, dtype="<u8")
        carry[1:] = _xor_runs(v[:-1] >> 63, g[:-1] >> 63)
        v ^= g & -carry
    return np.unpackbits(v.view(np.uint8), count=n, bitorder="little")


@dataclass(frozen=True)
class EveTranscript:
    """What the intercept-resend attacker did and learned."""

    intercepted: np.ndarray        # per pulse 0..N
    known_bins: np.ndarray         # 1-based key bins whose s_i Eve learned
    known_bits: np.ndarray


def _eve_clicks(sp: np.ndarray, eve_fraction: float, table: np.ndarray,
                out: np.ndarray, streams):
    """Eve's taps and clicks on the train of Alice's bits `sp`, chunk by
    chunk: `streams` are the generators of her tap, D0 and D1 uniforms,
    each at its stream's start, and `table` her pair table.  Writes her
    bit into `out` at each pulse whose key bin she learned, and returns the
    per-pulse bool arrays ``(tapped, known)``.  Its chunk arrays and
    their views go on return, before the transcript's are made: at 2^18
    bins that keeps an attacked session's peak at 11.6 bytes per key bin
    under tracemalloc, within the 11.9 of the bit route's memory test,
    where the loop inlined in :func:`intercept_resend` reaches 14.4."""
    taps, *clicks = streams
    n_pulses = sp.size
    tapped = np.empty(n_pulses, dtype=bool)
    tapped[0] = taps.random() < eve_fraction
    known = np.zeros(n_pulses, dtype=bool)
    m = min(_CHUNK_BINS, n_pulses - 1)
    work, pair = np.empty((2, m)), np.empty(m, dtype=np.intp)
    d, e = np.empty((2, m), dtype=bool), np.empty(m + 1, dtype=np.uint8)
    for a in range(0, n_pulses - 1, _CHUNK_BINS):
        b = min(a + _CHUNK_BINS, n_pulses - 1)     # key bins a+1..b
        tap, k = tapped[a:b + 1], pair[:b - a]
        np.less(taps.random(out=work[0, :b - a]), eve_fraction, out=tap[1:])
        # Eve's symbol of each pulse: 0 untapped, else 1 + its bit
        # relative to pulse 0
        sym = np.bitwise_xor(sp[a:b + 1], sp[0], out=e[:b + 1 - a])
        sym += 1
        sym *= tap
        np.multiply(sym[:-1], 3, out=k)
        k += sym[1:]
        d0, d1 = _sample_pairs(DetectorModel.ideal(), table, k, clicks,
                               d[:, :b - a], work[:, :b - a])
        # a click identifies s_i only when both interfering pulses were
        # hers; her bit there, d1, takes the place of her random one
        hit = np.bitwise_xor(d0, d1, out=known[a + 1:b + 1])
        hit &= tap[:-1]
        hit &= tap[1:]
        s, diff = out[a + 1:b + 1], e[:b - a]
        np.bitwise_xor(s, d1, out=diff)
        diff &= hit
        s ^= diff
    return tapped, known


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
    from the table of those 9 pulse pairs.  Runs in chunks of key bins,
    which draw the tap, D0 and D1 uniforms from one generator per stream,
    set once to where one whole-train draw from `rng` puts that stream;
    the phase chain then runs once over the whole train
    (:func:`_xor_runs`).  `rng` itself draws the resend bits, after its
    buffered half-word (:func:`_integer_bits`), and ends where the
    whole-train draws leave it.

    Returns ``(bits, EveTranscript)``, `bits` (uint8) those of the train
    Bob receives.  Raises ValueError for an `eve_fraction` outside [0, 1],
    a non-finite alpha or an `rng` that does not run on PCG64.
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
    # into `out`; one generator per stream draws them chunk after chunk
    start = rng.bit_generator.state
    out = _integer_bits(_positioned_rng(start, 3 * n_pulses - 2, rng),
                        np.empty(n_pulses, dtype=np.uint8))
    tapped, known = _eve_clicks(sp, eve_fraction, table, out, [
        _positioned_rng(start, k) for k in (0, n_pulses, 2 * n_pulses - 1)])
    known_bits = out[known]
    # re-prepare: random phase bits, then chain each run of known pulses
    # onto the unknown pulse before it, s[i] = s[i - 1] ^ her bit.  Then
    # untapped pulses pass through: s = tap ? s : Alice's bit, as a bitwise
    # select (a copy masked by the random taps is 20x slower); the pulse
    # before a known one is tapped, so no chain reads Alice's bit
    out = _xor_runs(out, known)
    out ^= sp
    out &= tapped.view(np.uint8)
    out ^= sp
    return out, EveTranscript(tapped, np.flatnonzero(known), known_bits)


def run_session(config: SessionConfig) -> SessionStats:
    """One full session: prepare, (attack), detect, extract, sift.
    Deterministic given the config, which holds the seed.

    Bob's side works on the bits of the pulses: each key bin's click
    probabilities come from the table of the four pulse pairs, by the
    bin's bit (a pair and its negation give equal ones), and the
    sifted bits, errors and double clicks are counted from the clicks and
    Alice's bits.  No session builds pulse amplitudes: Eve's attack takes
    and gives bits too (:func:`intercept_resend`).  Bob's side runs chunk
    by chunk, its uniforms, clicks and key bits in arrays allocated once
    per session, from one generator per stream of uniforms (D0, D1, dark
    D0, dark D1), each set once where one whole-session draw puts it, so
    no stat depends on the chunk size."""
    rng = np.random.default_rng(config.seed)
    if config.n_bins == 0:
        return SessionStats(0, 0, 0.0, None, 0, np.empty(0, dtype=int), 0, config)
    alice = AliceRecord.random(config.n_bins, config.alpha, rng)
    if abs(alice.alpha) ** 2 > 1.0:
        warnings.warn("mean photon number above 1 leaks phase information",
                      stacklevel=2)
    interf = config.interferometer()
    # the bits of the train Bob receives: Eve resends +-alpha too
    pulses = sp = alice.s_prime
    if config.eve_fraction > 0.0:
        # the transcript goes at once, before Bob's arrays are made
        pulses = intercept_resend(alice, config.eve_fraction, rng, interf)[0]
    model, start = config.detector(), rng.bit_generator.state
    # pulse pairs (u, v) and (1-u, 1-v) carry opposite amplitudes, so equal
    # click probabilities to the bit: those of pairs (0, 0) and (0, 1) are
    # a key bin's by its bit u ^ v
    table = _pair_table(model, _symbols(alice.alpha),
                        interferometer_coefficients(interf))[:, :2]
    n = config.n_bins
    streams = [_positioned_rng(start, k * n)
               for k in range(4 if model.dark_click_prob > 0.0 else 2)]
    m = min(n, _CHUNK_BINS)
    work, d = np.empty((2, m)), np.empty((2, m), dtype=bool)
    bits = np.empty((2, m), dtype=np.uint8)
    single = np.empty(n, dtype=bool)       # per key bin: one click alone
    errors, n_double = 0, 0
    for a in range(0, n, _CHUNK_BINS):
        b = min(a + _CHUNK_BINS, n)                # key bins a+1..b
        # each key bin's bit s_i = s'_(i-1) ^ s'_i: that of the pulses Bob
        # got, and Alice's, which differ only where Eve resent them
        key = np.bitwise_xor(pulses[a:b], pulses[a + 1:b + 1],
                             out=bits[0, :b - a]).view(bool)
        alice_key = np.bitwise_xor(sp[a:b], sp[a + 1:b + 1],
                                   out=bits[1, :b - a]).view(bool)
        d0, d1 = _sample_pairs(model, table, key, streams, d[:, :b - a],
                               work[:, :b - a])
        # a single click discloses the bin, with Bob's bit d1
        one = np.bitwise_xor(d0, d1, out=single[a:b])
        errors += int(np.count_nonzero(one & (d1 ^ alice_key)))
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
