"""Prepare-and-measure DPS key distribution sessions.

Alice encodes a random bit string into the phases of a train of weak
coherent pulses; Bob interferes consecutive pulses and watches two bucket
detectors; the classical channel discloses click bins; both sides keep the
corresponding potential-key bits.  An intercept-resend eavesdropper and a
lossy/dark detector model are included as channel plumbing.

Sessions work on bits end to end: Alice's S' fixes every pulse to
+-alpha, and Eve's intercept-resend (:func:`_eve_chunks`) maps her bits
to those of the +-alpha train Bob receives.  A session
(:func:`_session_chunks`) is the one caller of Alice's bits and of Eve's
attack, and there is no whole-train route beside it.  Key bin i depends on
pulses i-1 and i alone, and a pulse carries one of S symbols (S = 2 for
Bob's +-alpha; S = 3 for Eve's interferometer, which also sees vacuum), so
every key bin's click probabilities are an entry of one table of the S^2
pulse pairs (:func:`_pair_table`): exact for coherent states, and the
floats a propagation of the whole train gives.  The table is the only
place in the package that turns amplitudes into click probabilities, and
:func:`_sample_pairs` the only place that draws clicks from it; Bob, Eve
and :mod:`dpsqkd.entangled` all go through the two.

A session runs in chunks of ``_CHUNK_BINS`` pulses, cut at its multiples,
each after the first with the pulse before it, and holds no array longer
than a chunk and that pulse: Alice's bits, Eve's attack and Bob's clicks
are made chunk by chunk, and only counts outlive a chunk, so a session's
memory does not grow with N.  Each of its draw streams gets a generator,
jumped once to where one whole-session draw puts it (:func:`_bits_end`),
which then draws chunk after chunk; Alice's S' and Eve's resend bits are
read from raw PCG64 words (:func:`_integer_bits`) in whole 32-bit
half-words but the last, so no output depends on the chunk size.

Bin indexing: pulses occupy bins 0..N, key bins (and disclosed intervals)
are 1-based indices 1..N.
"""

from __future__ import annotations

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

#: pulses per session chunk, few enough for its arrays to stay in cache; a
#: multiple of 4, so that its uint8 bit reads end on 32-bit half-words
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
    if head:
        flat[:head] = rng.integers(0, 2, head, dtype)
    raw = rng.bit_generator.random_raw((flat.size - head) // (2 * per_half))
    raw = raw.astype("<u8", copy=False).view(f"<u{4 // per_half}")
    end = head + raw.size
    np.right_shift(raw, 8 * raw.itemsize - 1, out=flat[head:end],
                   casting="unsafe")
    if end < flat.size:
        flat[end:] = rng.integers(0, 2, flat.size - end, dtype)
    return out


def _bits_end(state: dict, n: int) -> dict:
    """The state in which ``integers(0, 2, n, np.uint8)`` leaves a PCG64
    generator at the ``bit_generator.state`` `state`, without drawing the
    bits: past a buffered half-word and n // 8 outputs, then the rest."""
    head = min(4, n) if state["has_uint32"] else 0
    end = _positioned_rng({**state, "has_uint32": 0} if head else state,
                          (n - head) // 8)
    end.integers(0, 2, (n - head) % 8, np.uint8)
    return end.bit_generator.state


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
    """Counts and rates of one Monte Carlo session, the only things that
    outlive its chunks: every single click is disclosed and sifted, so the
    ``clicks`` it reports are its sifted length."""

    n_bins: int
    sifted_length: int
    sifted_rate: float
    qber: Optional[float]
    double_clicks: int
    errors: int
    config: "SessionConfig"

    def csv_row(self) -> str:
        cfg = self.config
        vals = (CSV_SCHEMA_VERSION, self.n_bins, repr(cfg.alpha2),
                repr(cfg.phi2), repr(cfg.efficiency),
                repr(cfg.dark_click_prob), repr(cfg.eve_fraction), cfg.seed,
                self.sifted_length, self.double_clicks,
                self.sifted_length, repr(self.sifted_rate), self.errors,
                "" if self.qber is None else repr(self.qber))
        return ",".join(str(v) for v in vals)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)

    def to_text(self) -> str:
        lines = [f"bins = {self.n_bins}",
                 f"clicks = {self.sifted_length}",
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
    u, p = work
    streams = iter(streams)
    for k, d in enumerate(out):
        next(streams).random(out=u)
        if table.shape[1:] == (2,):
            # two classes, Bob's key bits: d = u < table[k, bit] as a
            # select between two compares, cheaper than a gather
            below = u < table[k, 0]
            np.less(u, table[k, 1], out=d)
            d ^= below
            d &= classes
            d ^= below
        else:
            # mode="raise" would buffer `p`
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


def _pulse_chunks(rng: np.random.Generator, n_bins: int):
    """Alice's bits ``rng.integers(0, 2, N + 1, np.uint8)``, cut at each
    multiple C of ``_CHUNK_BINS``, each chunk after the first behind the
    last pulse of the one before, so chunk c holds key bins max(1, c C)..
    min((c+1) C - 1, N): views of one buffer, which the next overwrites."""
    sp = np.empty(min(n_bins, _CHUNK_BINS) + 1, dtype=np.uint8)
    for a in range(0, n_bins + 1, _CHUNK_BINS):
        k = (a > 0) + min(_CHUNK_BINS, n_bins + 1 - a)
        _integer_bits(rng, sp[a > 0:k])
        yield sp[:k]
        sp[0] = sp[k - 1]


def _eve_streams(start: dict, n_bins: int):
    """Eve's generators, each at its stream's start in the stream that
    reaches the ``bit_generator.state`` `start` when she begins: her tap
    uniforms of pulses 0..N, her D0 and D1 uniforms of key bins 1..N, and
    after them her resend bits; and the state her draws end in."""
    streams = [_positioned_rng(start, k * n_bins + (k > 0)) for k in range(4)]
    return streams, _bits_end(streams[-1].bit_generator.state, n_bins + 1)


def _eve_chunks(trains, alpha: complex, eve_fraction: float,
                coeffs: np.ndarray, streams):
    """Eve's intercept-resend, chunk by chunk, on `trains`, Alice's bits
    as :func:`_pulse_chunks` cuts them; its one caller is a session
    (:func:`_session_chunks`).  She taps each pulse with probability
    `eve_fraction`, routes the tapped ones through her own copy of Bob's
    interferometer with ideal detectors, and resends +-alpha pulses: a bin
    whose phase she resolved chains onto the pulse before it, the rest
    take her random bits, and untapped pulses pass through.  `streams` are
    her generators (:func:`_eve_streams`).  Yields ``(sp, tapped, known,
    d1, bits)`` per chunk: Alice's bits, whether Eve tapped each pulse,
    whether she learned s_i in each key bin, her D1 clicks there, and the
    bits Bob receives; views of buffers that the next chunk overwrites,
    after its carried pulse takes the last one's tap and received bit."""
    taps, *clicks, resend = streams
    trains = iter(trains)
    sp = next(trains)
    # her interferometer sees each pulse as vacuum (untapped), or as pulse
    # 0's amplitude times +1 or -1: symbol 0, or 1 + its bit ^ s'_0
    s0, m = sp[0], sp.size
    table = _pair_table(DetectorModel.ideal(),
                        np.array([0, 1, -1]) * _symbols(alpha)[s0], coeffs)
    work, pair = np.empty((2, m)), np.empty(m, dtype=np.intp)
    d, tap = np.empty((2, m), dtype=bool), np.empty(m + 1, dtype=bool)
    # known[0] stays 0: each chunk's chain starts at its first pulse
    known = np.zeros(m + 1, dtype=bool)
    x, e = np.empty((2, m + 1), dtype=np.uint8)
    c = 0                  # where the chunk's new pulses start
    while sp is not None:
        n = sp.size - 1
        t = tap[:n + 1]
        np.less(taps.random(out=work[0, :n + 1 - c]), eve_fraction, out=t[c:])
        sym = np.bitwise_xor(sp, s0, out=e[:n + 1])
        sym += 1
        sym *= t
        k = np.multiply(sym[:-1], 3, out=pair[:n])
        k += sym[1:]
        d0, d1 = _sample_pairs(DetectorModel.ideal(), table, k, clicks,
                               d[:, :n], work[:, :n])
        # a click identifies s_i only when both interfering pulses were
        # hers; her bit there, d1, takes the place of her random one
        hit = np.bitwise_xor(d0, d1, out=known[1:n + 1])
        hit &= t[:-1]
        hit &= t[1:]
        _integer_bits(resend, x[c:n + 1])
        s = x[1:n + 1]
        diff = np.bitwise_xor(s, d1, out=e[:n])
        diff &= hit
        s ^= diff
        # re-prepare: chain each run of known pulses onto the pulse before
        # it, s[i] = s[i - 1] ^ her bit.  Then untapped pulses pass
        # through: s = tap ? s : Alice's bit, as a bitwise select; the
        # pulse before a known one is tapped, so no chain reads Alice's bit
        out = _xor_runs(x[:n + 1], known[:n + 1])
        out ^= sp
        out &= t.view(np.uint8)
        out ^= sp
        yield sp, t, hit, d1, out
        tap[0], x[0], c = t[-1], out[-1], 1
        sp = next(trains, None)


def _session_chunks(config: SessionConfig):
    """A session's clicks, chunk by chunk (:func:`_pulse_chunks`): yields
    ``((d0, d1), key)``, Bob's D0 and D1 clicks and Alice's key bits s_i
    (bool), views of buffers that the next chunk overwrites.

    Alice's S' comes first in the session's stream, then, if she attacks,
    Eve's draws (:func:`_eve_streams`), then Bob's D0, D1, dark D0 and
    dark D1 uniforms, one stream each.  Each key bin's click probabilities
    come from the table of the four pulse pairs, by the bin's bit in the
    train Bob receives (a pair and its negation give equal ones)."""
    n, alpha = int(config.n_bins), config.alpha
    coeffs = interferometer_coefficients(config.interferometer())
    rng = np.random.default_rng(config.seed)
    start = _bits_end(rng.bit_generator.state, n + 1)
    alice = _pulse_chunks(rng, n)
    if config.eve_fraction > 0.0:
        streams, start = _eve_streams(start, n)
        trains = ((sp, out) for sp, *_, out in _eve_chunks(
            alice, alpha, config.eve_fraction, coeffs, streams))
    else:
        trains = ((sp, sp) for sp in alice)
    model = config.detector()
    # pulse pairs (u, v) and (1-u, 1-v) carry opposite amplitudes, so equal
    # click probabilities to the bit: those of pairs (0, 0) and (0, 1) are
    # a key bin's by its bit u ^ v
    table = _pair_table(model, _symbols(alpha), coeffs)[:, :2]
    streams = [_positioned_rng(start, k * n)
               for k in range(4 if model.dark_click_prob > 0.0 else 2)]
    m = min(n, _CHUNK_BINS)
    work, d = np.empty((2, m)), np.empty((2, m), dtype=bool)
    keys = np.empty((2, m), dtype=np.uint8)
    for sp, pulses in trains:
        k = sp.size - 1
        # each key bin's bit s_i = s'_(i-1) ^ s'_i: that of the pulses Bob
        # got, and Alice's, which differ only where Eve resent them
        key = np.bitwise_xor(pulses[:-1], pulses[1:], out=keys[0, :k])
        alice_key = np.bitwise_xor(sp[:-1], sp[1:], out=keys[1, :k])
        yield (_sample_pairs(model, table, key.view(bool), streams,
                             d[:, :k], work[:, :k]), alice_key.view(bool))


def run_session(config: SessionConfig) -> SessionStats:
    """One full session: prepare, (attack), detect, extract, sift.
    Deterministic given the config, which holds the seed.

    No session builds pulse amplitudes: each chunk's clicks are drawn from
    the bits of the pulses (:func:`_session_chunks`), and a single click
    discloses its bin with Bob's bit d1, so the sifted bits, errors and
    double clicks are counted chunk by chunk and nothing else is kept."""
    if config.n_bins == 0:
        return SessionStats(0, 0, 0.0, None, 0, 0, config)
    if config.alpha ** 2 > 1.0:
        warnings.warn("mean photon number above 1 leaks phase information",
                      stacklevel=2)
    sifted = errors = n_double = 0
    for (d0, d1), alice_key in _session_chunks(config):
        one = d0 ^ d1
        sifted += int(np.count_nonzero(one))
        errors += int(np.count_nonzero(one & (d1 ^ alice_key)))
        n_double += int(np.count_nonzero(d0 & d1))
    return SessionStats(
        n_bins=config.n_bins,
        sifted_length=sifted,
        sifted_rate=sifted / config.n_bins,
        qber=errors / sifted if sifted else None,
        double_clicks=n_double,
        errors=errors,
        config=config,
    )
