"""Bob's measurement: projector effects, their reduction to POVM elements
on the signal path, and certification of the commutation structure.

On the full output space Bob's effects are products, over the two
detection wires of every key bin, of a vacuum projector (no click) or its
complement (one or more photons): mutually commuting orthogonal
projectors, and still commuting after conjugation with the interferometer
unitary.  Taking the vacuum expectation over the unpopulated second input
path reduces them to effects on the signal path alone, and that reduction
is what breaks commutativity: the certified positive lower bound on
``||[E2, E3]||_F`` is this package's headline check.

The interferometer conserves photon number, so a reduced effect is held
as its photon-number blocks alone (:class:`BlockEffects`), each the exact
Gram matrix of rows of one sector lift (:func:`_signal_sectors`): signal
states with at most `cutoff` photons per time bin reach sector
(N+1)*cutoff, and no output wire is truncated, so the signal cutoff is the
only approximation.  Sums and products act block by block, squared
Frobenius norms add over blocks, and a spectral norm is the largest block's.

Effects are indexed by click patterns: a tuple with one ``(d0, d1)`` bool
pair per key bin 1..N, numbered by :func:`click_pattern_ids`, which also
sorts the detection wires' occupation rows into the projectors' 0/1
diagonals.  (A printed enumeration of these effects elsewhere repeats a
factor in one row; the systematic one-factor-per-mode indexing used here
is the intended reading.)
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     _capped_counts, _lift, _printable, _require_integers,
                     _wires)

ClickPattern = Tuple[Tuple[bool, bool], ...]

#: pattern of the effect "click at D0 in bin 1, nothing else" (reduces to E2)
#: and "click at D1 in bin 2, nothing else" (reduces to E3), at N = 2
E2_PATTERN: ClickPattern = ((True, False), (False, False))
E3_PATTERN: ClickPattern = ((False, False), (False, True))

#: certified positive floor for ||[E2, E3]||_F at every cutoff >= 3: the
#: closed forms give f(c) = sqrt(2 sum_{n=1..c} (64^-n - 256^-n))
#: (:func:`build_e2_e3`), rising with c; f(2) = 0.1545809 is below it, so
#: 3 is the least cutoff, and f(3) = 0.1546052194 above.  The silent
#: reduction meets f within the agreement rows; the complete POVM exceeds it
NONCOMMUTATIVITY_FLOOR = 0.1546


def all_click_patterns(n_bins: int) -> Tuple[ClickPattern, ...]:
    """The 4^N patterns, all-vacuum first, all-click last."""
    per_bin = ((False, False), (False, True), (True, False), (True, True))
    return tuple(itertools.product(per_bin, repeat=n_bins))


def id_bits(shape: Tuple[int, ...], n_bits: int) -> np.ndarray:
    """Zeroed bool rows, 8, 16, 32 or 64 wide, whose last `n_bits` columns
    :func:`packed_ids` reads as numbers."""
    return np.zeros((*shape, 8 << max(0, (n_bits - 1).bit_length() - 3)), bool)


def packed_ids(bits: np.ndarray) -> np.ndarray:
    """The big-endian numbers that the rows of :func:`id_bits` spell."""
    return np.packbits(bits.reshape(-1)).view(
        f">u{bits.shape[-1] // 8}").reshape(bits.shape[:-1])


def click_pattern_ids(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Bin-major base-4 index (digit = 2*d0 + d1) of the click patterns
    given as bool arrays ``(..., N)`` of D0 and D1 clicks per key bin; the
    index of a pattern is its position in :func:`all_click_patterns`: the
    :func:`packed_ids` of D0 and D1 interleaved."""
    *shape, n = np.shape(d0)
    bits = id_bits(shape, 2 * n)
    pad = bits.shape[-1] - 2 * n
    bits[..., pad::2], bits[..., pad + 1::2] = d0, d1
    return packed_ids(bits).astype(np.int64)


def pattern_index(pattern: ClickPattern) -> int:
    """:func:`click_pattern_ids` of one pattern."""
    d0, d1 = np.array(pattern, dtype=bool).reshape(-1, 2).T
    return int(click_pattern_ids(d0, d1))


def _detection_ids(n_bins: int, cutoff: int) -> np.ndarray:
    """Pattern ids of the occupation basis of the detection wires in
    Kronecker order, the D0 wires of key bins 1..N, then their D1 wires:
    the projector onto pattern p is the 0/1 diagonal of ``ids == p``."""
    occ = np.indices((cutoff + 1,) * (2 * n_bins)).reshape(2 * n_bins, -1)
    return click_pattern_ids(occ[:n_bins].T > 0, occ[n_bins:].T > 0)


def _projector_checks(n_bins: int, cutoff: int, requested) -> dict:
    """The report's four projector rows over the projectors of the pattern
    ids `requested`, from the number of them that claim each detection
    state (:func:`_detection_ids`): there the first claimant's diagonal
    holds `a` (1 if there is one), a second's `b`, and every product of
    two, in either order, ``a * b`` or 0."""
    claims = np.bincount(requested, minlength=4 ** n_bins)[
        _detection_ids(n_bins, cutoff)]
    a, b = (claims > 0).astype(float), (claims > 1).astype(float)
    return dict(g_comm_max=float(np.linalg.norm(a * b - b * a)),
                g_idempotency_max=float(np.max(np.abs(a * a - a))),
                g_orthogonality_max=float(np.max(a * b)),
                g_sum_defect=float(np.max(np.abs(claims - 1.0))))


# ---------------------------------------------------------------------------
# reduction through the interferometer


@dataclass(frozen=True)
class BlockEffects:
    """Effects on the signal path (bins 0..N, at most `cutoff` photons
    each) as photon-number blocks: ``states[n]`` are the n-photon basis
    states, ascending, as base-(cutoff+1) indices (bin 0 most significant),
    and ``blocks[n][k]``, of a ``(len(patterns), m_n, m_n)`` stack, is the
    effect of ``patterns[k]`` on them.  All other entries are zero."""

    patterns: Tuple[ClickPattern, ...]
    states: Tuple[np.ndarray, ...]
    blocks: Tuple[np.ndarray, ...]

    def __getitem__(self, pattern: ClickPattern) -> Tuple[np.ndarray, ...]:
        """The blocks of one pattern's effect, sector by sector."""
        k = self.patterns.index(pattern)
        return tuple(b[k] for b in self.blocks)


def _pattern_ids(outputs: np.ndarray, n_bins: int) -> np.ndarray:
    """Click-pattern index (as :func:`pattern_index`) of every row of wire
    occupations, in wire order."""
    bins = n_bins + 1
    return click_pattern_ids(outputs[:, 1:bins] > 0, outputs[:, bins + 1:] > 0)


def _signal_sectors(config: InterferometerConfig, n_bins: int, cutoff: int,
                    full: int):
    """The one lift of a reduction at N = `n_bins`, a sector at a time: every
    wire state is an input up to `full` photons, the signal states (at most
    `cutoff` per bin, path-1 wires empty) above.  Yields ``(outputs, pattern
    ids, inputs, images, whole images)`` for sectors 0..(N+1)*cutoff: the
    signal columns, in order and bit for bit those of any lift they are
    inputs of (:func:`~dpsqkd.optics._lift_sectors`), and the whole
    sector's images up to `full` (its inputs are its outputs), None above.
    Raises ValueError, before allocating, where the lift's bound does.
    """
    bins = n_bins + 1
    caps = [cutoff if w < bins else 0 for w in range(_wires(bins))]
    lift = _lift(config, bins, bins * cutoff, caps, full)

    def sectors():
        for n, (outputs, inputs, images) in enumerate(lift):
            whole = images if n <= full else None
            if n <= full:
                signal = ~inputs[:, bins:].any(axis=1)
                inputs, images = inputs[signal], images.T[signal].T
            yield outputs, _pattern_ids(outputs, n_bins), inputs, images, whole
    return sectors()


def _reduce(sectors, n_bins: int, cutoff: int,
            requests: Sequence[Tuple[int, bool]]):
    """States and per-sector block stacks of the reduced effects named by
    `requests`, ``(pattern id, silent)`` pairs with ids as
    :func:`pattern_index`.  A silent request also demands vacuum on both
    output wires of bin 0.

    `sectors`, read one sector at a time, is :func:`_signal_sectors` at
    `cutoff`; its whole-sector images are ignored.

    Each sector's output rows are grouped by click pattern once: a stable
    sort of their pattern ids and one gather of the image columns in that
    order.  A request then takes its pattern's rows as one slice, and a
    silent one keeps the quiet ones among them: the rows, and their order,
    that a boolean mask over the sector picks."""
    bins = n_bins + 1
    strides = (cutoff + 1) ** np.arange(bins - 1, -1, -1)
    states, blocks = [], []
    for outputs, pids, inputs, images, _ in sectors:
        order = np.argsort(pids, kind="stable")
        starts = np.searchsorted(pids[order], np.arange(4 ** n_bins + 1))
        quiet = ((outputs[:, 0] == 0) & (outputs[:, bins] == 0))[order]
        # one gather of the image columns puts each pattern's rows side by
        # side, in ascending order
        grouped = images.T[:, order]
        # a pattern with no rows in the sector has a zero block
        block = np.zeros((len(requests), len(inputs), len(inputs)),
                         dtype=images.dtype)
        for k, (target, silent) in enumerate(requests):
            rows = slice(starts[target], starts[target + 1])
            if rows.start == rows.stop:
                continue
            W = grouped[:, rows]
            if silent:
                W = W[:, quiet[rows]]
            np.matmul(W.conj(), W.T, out=block[k])
        states.append(inputs[:, :bins] @ strides)
        blocks.append(block)
    return tuple(states), tuple(blocks)


def reduced_effect_set(n_bins: int, cutoff: int,
                       config: Optional[InterferometerConfig] = None,
                       patterns: Optional[Sequence[ClickPattern]] = None,
                       boundary: str = "marginal") -> BlockEffects:
    """Reduced effects E_j on the signal path at `cutoff`, one per click
    pattern: the operators with matrix elements ``<x,vac| U* G_j U |y,vac>``
    over the path-1 wires, as photon-number blocks (:func:`_reduce`).

    `boundary` fixes how the output wires of the edge bin 0 (outside the
    detection window) are treated: ``"marginal"`` (their outcomes are
    summed over, the convention under which the reduced family is a
    complete POVM) or ``"vacuum"`` (the event additionally demands
    silence there; the convention the explicit closed forms of the two
    illustrative effects correspond to).

    Raises ValueError for an `n_bins` that is not an integer >= 1 or a
    `cutoff` not one >= 0, for a pattern that is not N (D0, D1) pairs, and
    before allocating, or enumerating a pattern, when the lift's mode map
    or a sector block, or the returned blocks and patterns, exceed
    ``optics.DEFAULT_MAX_STATE_ENTRIES``.
    """
    _require_integers(n_bins=n_bins, cutoff=cutoff)
    if n_bins < 0 or cutoff < 0:
        raise ValueError(f"n_bins and cutoff must be >= 0, got {n_bins}, "
                         f"{cutoff}")
    if n_bins < 1:
        raise ValueError("need at least one key bin")
    if boundary not in ("marginal", "vacuum"):
        raise ValueError(f"boundary must be 'marginal' or 'vacuum', "
                         f"got {boundary!r}")
    config = config or InterferometerConfig.compensated()
    patterns = None if patterns is None else tuple(patterns)
    for p in patterns or ():
        if np.shape(p) != (n_bins, 2):
            raise ValueError(f"need {n_bins} (D0, D1) pairs, got {p!r}")
    # the lift's checks, then the size of the result, then the patterns
    sectors = _signal_sectors(config, n_bins, cutoff, 0)
    count = 4 ** n_bins if patterns is None else len(patterns)
    per_effect = sum(m * m for m in _capped_counts([cutoff] * (n_bins + 1),
                                                   (n_bins + 1) * cutoff))
    if count * (per_effect + n_bins) > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"{_printable(count)} reduced effects of {_printable(per_effect)} "
            f"block entries each exceed the bound {DEFAULT_MAX_STATE_ENTRIES},"
            f" counted with the {n_bins} (D0, D1) pairs of each")
    patterns = all_click_patterns(n_bins) if patterns is None else patterns
    states, blocks = _reduce(
        sectors, n_bins, cutoff,
        [(pattern_index(p), boundary == "vacuum") for p in patterns])
    return BlockEffects(patterns, states, blocks)


# ---------------------------------------------------------------------------
# the explicit reduced effects of the two illustrative click events


def build_e2_e3(cutoff: int) -> BlockEffects:
    """Closed forms of the two illustrative reduced effects on three
    signal time bins, as photon-number blocks:

    ``E2 = sum_n (1/(4^n n!)) (A0+A1)^n |0><0| (A0+A1)*^n`` (click at D0 in
    bin 1) and ``E3`` with ``(A1-A2)`` (click at D1 in bin 2), where ``Ak``
    is the creation operator of time bin k.  Term n is sector n's block:
    ``(A0+A1)^n |0> / sqrt(4^n n!)`` is ``sqrt(C(n,k)) / 2^n`` on
    ``|k, n-k, 0>``, and ``(A1-A2)^n |0>`` the same on ``|0, k, n-k>``
    times ``(-1)^(n-k)``.  Creation only raises occupations, so the cutoff
    just drops components; sector 0 is zero.  The sectors come from one
    enumeration of the (cutoff+1)^3 signal states, sorted by photon number.

    Sector n's blocks are rank one, ``u u^T`` and ``w w^T``, with ``|u|^2
    = |w|^2 = 2^-n`` and ``u.w = 4^-n`` (:func:`t_term` (n, n) / (4^n n!),
    on the one shared state ``|0, n, 0>``) up to the cutoff, 0 above.  As
    ``||[u u^T, w w^T]||_F^2 = 2 (u.w)^2 (|u|^2 |w|^2 - (u.w)^2)``, the
    commutator norm is the f of :data:`NONCOMMUTATIVITY_FLOOR`.  Refuses,
    before any work, all but an integer cutoff from 3 to 47.
    """
    _require_integers(cutoff=cutoff)
    if cutoff < 3:
        raise ValueError(f"cutoff too small: need cutoff >= 3, got {cutoff}")
    # sector n's two m_n x m_n blocks, m_n its signal states: 2 sum m_n^2
    # entries, a quintic in the cutoff (its Ehrhart polynomial)
    c = cutoff
    entries = (c + 1) * (11 * c**4 + 44 * c**3 + 71 * c**2 + 54 * c + 20) // 10
    if entries > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"cutoff {_printable(c)} needs closed-form blocks of "
                         f"{_printable(entries)} entries, which exceeds the "
                         f"bound {DEFAULT_MAX_STATE_ENTRIES}")
    # the signal box in ascending order, then stably by photon number: each
    # sector's states are one run, in ascending order
    occ = np.indices((cutoff + 1,) * 3).reshape(3, -1)
    n = occ.sum(axis=0)
    order = np.argsort(n, kind="stable")
    occ, n = occ[:, order], n[order]
    sectors = np.searchsorted(n, np.arange(3 * cutoff + 2))
    codes = (cutoff + 1) ** np.arange(2, -1, -1) @ occ
    # root[n, k] = sqrt(C(n, k)) / 2^n, each C(n, k) a float (exact to 22)
    top = np.arange(3 * cutoff + 1)
    root = np.sqrt([[float(math.comb(m, k)) for k in top] for m in top]) \
        / 2.0 ** top[:, None]
    v = (n > 0) * np.array([root[n, occ[0]] * (occ[2] == 0),
                            root[n, occ[1]] * (occ[0] == 0)
                            * (-1.0) ** occ[2]])
    states, blocks = [], []
    for a, b in zip(sectors[:-1], sectors[1:]):
        states.append(codes[a:b])
        blocks.append(v[:, a:b, None] * v[:, None, a:b])
    return BlockEffects((E2_PATTERN, E3_PATTERN), tuple(states), tuple(blocks))


def t_term(n: int, m: int) -> int:
    """The vacuum contraction ``<0| (a0+a1)^n (A1-A2)^m |0>``: photon
    bookkeeping forces it to ``n!`` when n == m and 0 otherwise."""
    if n < 1 or m < 1:
        raise ValueError("t_term is defined for n, m >= 1")
    return math.factorial(n) if n == m else 0


# ---------------------------------------------------------------------------
# certification


def conjugated_commutator_norm(U: np.ndarray, diag_i: np.ndarray,
                               diag_j: np.ndarray) -> float:
    """``||[U* G_i U, U* G_j U]||_F`` for a unitary matrix U and diagonal
    0/1 projectors G, via the Gram structure of the selected unitary rows
    (no conjugated operator is materialized).  For a block-diagonal U the
    squared norms of the blocks add."""
    Wi = U[np.flatnonzero(diag_i)]
    Wj = U[np.flatnonzero(diag_j)]
    X = Wi @ Wj.conj().T
    Pi = Wi @ Wi.conj().T
    Pj = Wj @ Wj.conj().T
    # tr(X* Pi X Pj) and tr((X* X)^2) = ||X X*||_F^2, with no nj^3 product
    t1 = np.vdot(X @ Pj, Pi @ X).real
    gram = X @ X.conj().T if len(Wi) <= len(Wj) else X.conj().T @ X
    t2 = np.vdot(gram, gram).real
    return math.sqrt(max(2.0 * (t1 - t2), 0.0))


def _commutator_norm(pairs) -> float:
    """``||[A, B]||_F`` from per-sector stacks ``(2, m, m)`` of A's and
    B's blocks."""
    return math.sqrt(sum(np.linalg.norm(a @ b - b @ a) ** 2
                         for a, b in pairs))


#: one row of a verdict table: `value` passes when it stands in `relation`
#: ("<=" or ">=") to `threshold`, and prints as `label` and the value in
#: format `fmt`, then, given a `note` such as "floor", the note and threshold
Check = collections.namedtuple(
    "Check", "label value fmt relation threshold note", defaults=("",))


@dataclass(frozen=True)
class NoncommutativityReport:
    """Outcome of the commutation certification, at N = 2 key bins.

    The thresholds are class constants that :meth:`checks` reads:
    `g_zero_tol` separates "commuting" from noise, `nonzero_floor` is the
    certified positive lower bound the reduced-effect commutator must
    clear.  `internal_cutoff`, (N+1) * cutoff, is the highest photon-number
    sector the reduction covers; `wire_dim` is the summed dimension of the
    wire sectors 0..cutoff the conjugated checks ran on (84 at cutoff 3).
    """

    n_bins: int
    cutoff: int
    internal_cutoff: int
    detection_dim: int
    wire_dim: int
    g_comm_max: float
    g_idempotency_max: float
    g_orthogonality_max: float
    g_sum_defect: float
    conjugated_pairs: tuple
    conjugated_comm_max: float
    e2e3_comm_norm: float              # closed forms
    e2e3_comm_norm_reduced: float      # silent-boundary reduction
    e2e3_comm_norm_marginal: float     # complete-POVM reduction
    e2_reduction_gap: float
    e3_reduction_gap: float
    e_sum_defect: float
    e_min_eigenvalue: float
    g_zero_tol: ClassVar[float] = 1e-12
    conj_zero_tol: ClassVar[float] = 1e-10
    completeness_tol: ClassVar[float] = 1e-9
    psd_tol: ClassVar[float] = 1e-10
    nonzero_floor: ClassVar[float] = NONCOMMUTATIVITY_FLOOR
    reduction_agreement_tol: ClassVar[float] = 1e-9
    THRESHOLDS: ClassVar[Tuple[str, ...]] = (
        "g_zero_tol", "conj_zero_tol", "completeness_tol", "psd_tol",
        "nonzero_floor", "reduction_agreement_tol")

    def checks(self) -> Tuple[Check, ...]:
        """The verdict table, one row per printed check line, in order."""
        g, floor = self.g_zero_tol, self.nonzero_floor
        return (
            Check("max ||[G_i, G_j]||_F", self.g_comm_max, ".3e", "<=", g,
                  "zero threshold"),
            Check("max |G^2 - G|", self.g_idempotency_max, ".3e", "<=", g),
            Check("max |G_i G_j| (i != j)", self.g_orthogonality_max, ".3e",
                  "<=", g),
            Check("|sum G - I|", self.g_sum_defect, ".3e", "<=", g),
            Check("max ||[U*G_iU, U*G_jU]||_F", self.conjugated_comm_max,
                  ".3e", "<=", self.conj_zero_tol, "zero threshold"),
            Check("||[E2, E3]||_F closed form", self.e2e3_comm_norm, ".15f",
                  ">=", floor),
            Check("||[E2, E3]||_F silent boundary",
                  self.e2e3_comm_norm_reduced, ".15f", ">=", floor, "floor"),
            Check("||[E2, E3]||_F complete POVM",
                  self.e2e3_comm_norm_marginal, ".15f", ">=", floor, "floor"),
            Check("|E2 closed - reduced|", self.e2_reduction_gap, ".3e", "<=",
                  self.reduction_agreement_tol, "threshold"),
            Check("|E3 closed - reduced|", self.e3_reduction_gap, ".3e", "<=",
                  self.reduction_agreement_tol),
            Check("|sum E - I|", self.e_sum_defect, ".3e", "<=",
                  self.completeness_tol, "threshold"),
            Check("min eigenvalue over E_j", self.e_min_eigenvalue, ".3e",
                  ">=", -self.psd_tol, "PSD threshold"),
        )

    @property
    def passed(self) -> bool:
        return all(c.value <= c.threshold if c.relation == "<="
                   else c.value >= c.threshold for c in self.checks())

    def to_text(self) -> str:
        return "\n".join([
            f"keyBins = {self.n_bins}, cutoff = {self.cutoff} "
            f"(reduction exact over photon-number sectors "
            f"0..{self.internal_cutoff})",
            f"detection dim = {self.detection_dim}, wire dim = {self.wire_dim}"
            f" (conjugated checks on wire sectors 0..{self.cutoff})",
            *(f"{c.label:<31}= {c.value:{c.fmt}}"
              + (f"   ({c.note} {c.threshold:g})" if c.note else "")
              for c in self.checks()),
            f"verdict: {'PASS' if self.passed else 'FAIL'}"])

    def to_json(self) -> str:
        """The fields, the thresholds and the verdict, as indented JSON."""
        import json
        pairs = [{"pattern_i": str(pi), "pattern_j": str(pj), "norm": v}
                 for pi, pj, v in self.conjugated_pairs]
        # a repeated key keeps its first place: the fields stay in order
        return json.dumps({**vars(self), "conjugated_pairs": pairs,
                           **{k: getattr(self, k) for k in self.THRESHOLDS},
                           "passed": self.passed}, indent=2)


def certify_noncommutativity(cutoff: int, *,
                             config: Optional[InterferometerConfig] = None
                             ) -> NoncommutativityReport:
    """Certify the commutation structure at desk scale, on the
    illustrative pair (E2, E3) at N = 2 key bins.

    Each check is a row of :meth:`NoncommutativityReport.checks`, with its
    threshold, and the report passes when every row does: the projector
    effects, read off the detection states' pattern ids, commute and are
    idempotent, orthogonal and complete; conjugation with the
    interferometer unitary keeps three sampled pairs commuting on every
    wire sector 0..cutoff; the closed forms of E2 and E3 agree with the
    reduction; the reduced effects are complete and positive; and E2 and
    E3 do NOT commute, by a norm above the floor in the closed forms and
    in both boundary conventions.  All of it reads one lift, a sector at a
    time (:func:`_signal_sectors`): its whole wire sectors 0..cutoff for
    the conjugated checks, its signal columns for the reduction.

    Raises ValueError, before any work, unless `cutoff` is an integer
    from 3 to 15: from 16 up, a sector block exceeds the sector bound.
    """
    _require_integers(cutoff=cutoff)
    if cutoff < 3:
        raise ValueError(f"cutoff too small: need cutoff >= 3, got {cutoff}")
    config = config or InterferometerConfig.compensated()
    n_bins = 2
    bins = n_bins + 1
    pats = all_click_patterns(n_bins)
    # a pattern's id is its position in `pats`
    e2, e3 = pattern_index(E2_PATTERN), pattern_index(E3_PATTERN)
    sectors = _signal_sectors(config, n_bins, cutoff, cutoff)
    pair_ids = ((e2, e3), (0, len(pats) - 1), (e2, len(pats) - 1))
    conj_sq = np.zeros(len(pair_ids))

    def checked_sectors():
        # the conjugated checks read each whole wire sector on the way
        for sector in sectors:
            _, pids, _, _, whole = sector
            if whole is not None:
                for k, (i, j) in enumerate(pair_ids):
                    # a pattern with no rows here adds exactly 0
                    conj_sq[k] += conjugated_commutator_norm(
                        whole, pids == i, pids == j) ** 2
            yield sector

    states, blocks = _reduce(
        checked_sectors(), n_bins, cutoff,
        [(k, False) for k in range(len(pats))] + [(e2, True), (e3, True)])
    conj_vals = [(pats[i], pats[j], math.sqrt(v))
                 for (i, j), v in zip(pair_ids, conj_sq)]
    conj_max = max(v for _, _, v in conj_vals)

    closed = build_e2_e3(cutoff).blocks
    marginal = [b[:len(pats)] for b in blocks]
    silent = [b[len(pats):] for b in blocks]
    e2e3_closed = _commutator_norm(closed)
    e2e3_silent = _commutator_norm(silent)
    e2e3_marginal = _commutator_norm([b[[e2, e3]] for b in marginal])
    gap2, gap3 = np.max([np.linalg.norm(c - s, 2, axis=(1, 2))
                         for c, s in zip(closed, silent)], axis=0)
    e_sum = max(float(np.max(np.abs(b.sum(axis=0) - np.eye(b.shape[1]))))
                for b in marginal)
    e_min = min(float(np.min(np.linalg.eigvalsh(b)[:, 0])) for b in marginal)

    return NoncommutativityReport(
        n_bins=n_bins, cutoff=cutoff, internal_cutoff=bins * cutoff,
        detection_dim=(cutoff + 1) ** (2 * n_bins),
        # wire sectors 0..cutoff of 2 * bins modes
        wire_dim=math.comb(cutoff + 2 * bins, 2 * bins),
        **_projector_checks(n_bins, cutoff, range(len(pats))),
        conjugated_pairs=tuple(conj_vals), conjugated_comm_max=conj_max,
        e2e3_comm_norm=e2e3_closed, e2e3_comm_norm_reduced=e2e3_silent,
        e2e3_comm_norm_marginal=e2e3_marginal,
        e2_reduction_gap=float(gap2), e3_reduction_gap=float(gap3),
        e_sum_defect=e_sum, e_min_eigenvalue=e_min,
    )
