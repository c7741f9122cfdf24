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
Gram matrix of rows of :func:`~dpsqkd.optics.sector_lift`: signal states
with at most `cutoff` photons per time bin reach sector (N+1)*cutoff, and
no output wire is truncated, so the signal cutoff is the only
approximation.  Sums and products act block by block, squared Frobenius
norms add over blocks, and a spectral norm is the largest block's.

Effects are indexed by click patterns: a tuple with one ``(d0, d1)`` bool
pair per key bin 1..N, numbered by :func:`click_pattern_ids`, which also
sorts the detection wires' occupation rows into the projectors' 0/1
diagonals.  (A printed enumeration of these effects elsewhere repeats a
factor in one row; the systematic one-factor-per-mode indexing used here
is the intended reading.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     _require_integers, sector_lift, sector_occupations)

ClickPattern = Tuple[Tuple[bool, bool], ...]

#: pattern of the effect "click at D0 in bin 1, nothing else" (reduces to E2)
#: and "click at D1 in bin 2, nothing else" (reduces to E3), at N = 2
E2_PATTERN: ClickPattern = ((True, False), (False, False))
E3_PATTERN: ClickPattern = ((False, False), (False, True))

#: certified positive floor for ||[E2, E3]||_F at any cutoff from 3 up to
#: the sector bound (15), fixed by a pre-build dense evaluation and run on
#: the photon-number blocks up to cutoff 15: the silent-boundary value is
#: 0.15460521937... at cutoff 3 and rises towards 0.1546056095; the
#: complete-POVM value is larger (0.19311... at cutoff 3, rising)
NONCOMMUTATIVITY_FLOOR = 0.1546

G_COMMUTE_TOL = 1e-12
CONJUGATED_COMMUTE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
PSD_TOL = 1e-10


def all_click_patterns(n_bins: int) -> Tuple[ClickPattern, ...]:
    """The 4^N patterns, all-vacuum first, all-click last."""
    per_bin = ((False, False), (False, True), (True, False), (True, True))
    return tuple(itertools.product(per_bin, repeat=n_bins))


def click_pattern_ids(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Bin-major base-4 index (digit = 2*d0 + d1) of the click patterns
    given as bool arrays ``(..., N)`` of D0 and D1 clicks per key bin; the
    index of a pattern is its position in :func:`all_click_patterns`."""
    digits = 2 * np.asarray(d0, dtype=np.uint8) + np.asarray(d1, dtype=np.uint8)
    ids = np.zeros(digits.shape[:-1], dtype=np.int64)
    for k in range(digits.shape[-1]):          # Horner's rule, bin by bin
        ids <<= 2
        ids += digits[..., k]
    return ids


def pattern_index(pattern: ClickPattern) -> int:
    """:func:`click_pattern_ids` of one pattern."""
    d0, d1 = np.array(pattern, dtype=bool).reshape(-1, 2).T
    return int(click_pattern_ids(d0, d1))


def _pattern_diagonals(n_bins: int, cutoff: int) -> np.ndarray:
    """Diagonals (0/1), one row per pattern of :func:`all_click_patterns`,
    of the projectors onto the click patterns, over the occupation basis
    of the 2N detection wires in Kronecker order: the D0 wires of key bins
    1..N, then their D1 wires."""
    occ = np.indices((cutoff + 1,) * (2 * n_bins)).reshape(2 * n_bins, -1)
    ids = click_pattern_ids(occ[:n_bins].T > 0, occ[n_bins:].T > 0)
    return (ids == np.arange(4 ** n_bins)[:, None]).astype(float)


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


def _reduce(n_bins: int, cutoff: int, config: InterferometerConfig,
            requests: Sequence[Tuple[ClickPattern, bool]]):
    """States and per-sector block stacks of the reduced effects named by
    `requests`, ``(pattern, silent)`` pairs, from one signal lift.  A
    silent request also demands vacuum on both output wires of bin 0."""
    bins = n_bins + 1
    sectors = sector_lift(config, bins, bins * cutoff,
                          max_occupation=[cutoff] * bins + [0] * bins)
    sizes = [1]                       # signal states per photon number
    for _ in range(bins):
        sizes = [sum(sizes[max(0, n - cutoff):n + 1])
                 for n in range(len(sizes) + cutoff)]
    per_effect = sum(m * m for m in sizes)
    if len(requests) * per_effect > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"{len(requests)} reduced effects of {per_effect} block entries "
            f"each exceed the bound {DEFAULT_MAX_STATE_ENTRIES}")
    targets = [pattern_index(p) for p, _ in requests]
    strides = (cutoff + 1) ** np.arange(bins - 1, -1, -1)
    states, blocks = [], []
    for outputs, inputs, images in sectors:
        pids = _pattern_ids(outputs, n_bins)
        quiet = (outputs[:, 0] == 0) & (outputs[:, bins] == 0)
        block = np.empty((len(requests), len(inputs), len(inputs)),
                         dtype=images.dtype)
        # one pattern's rows at a time, gathered from the lift's transposed
        # images: no copy of the whole image block
        for k, (target, (_, silent)) in enumerate(zip(targets, requests)):
            rows = pids == target
            if silent:
                rows &= quiet
            W = images.T[:, rows]
            block[k] = W.conj() @ W.T
        states.append(inputs[:, :bins] @ strides)
        blocks.append(block)
    return tuple(states), tuple(blocks)


def reduced_effect_set(n_bins: int, cutoff: int,
                       config: Optional[InterferometerConfig] = None,
                       patterns: Optional[Sequence[ClickPattern]] = None,
                       boundary: str = "marginal") -> BlockEffects:
    """Reduced effects E_j on the signal path at `cutoff`, one per click
    pattern: the operators with matrix elements ``<x,vac| U* G_j U |y,vac>``
    over the path-1 wires, as photon-number blocks.

    Each block is built exactly from :func:`~dpsqkd.optics.sector_lift` of
    the signal block (path-0 wires at most `cutoff`, path-1 wires in
    vacuum) over sectors 0..(N+1)*cutoff: it is the Gram matrix of the
    image rows whose output occupations form the click pattern.

    `boundary` fixes how the output wires of the edge bin 0 (outside the
    detection window) are treated: ``"marginal"`` (their outcomes are
    summed over, the convention under which the reduced family is a
    complete POVM) or ``"vacuum"`` (the event additionally demands
    silence there; the convention the explicit closed forms of the two
    illustrative effects correspond to).

    Raises ValueError for a pattern that is not N (D0, D1) pairs, and before
    allocating when a sector block or the returned blocks exceed
    ``optics.DEFAULT_MAX_STATE_ENTRIES``.
    """
    if boundary not in ("marginal", "vacuum"):
        raise ValueError(f"boundary must be 'marginal' or 'vacuum', "
                         f"got {boundary!r}")
    config = config or InterferometerConfig.compensated()
    patterns = tuple(all_click_patterns(n_bins) if patterns is None
                     else patterns)
    for p in patterns:
        if np.shape(p) != (n_bins, 2):
            raise ValueError(f"need {n_bins} (D0, D1) pairs, got {p!r}")
    states, blocks = _reduce(n_bins, cutoff, config,
                             [(p, boundary == "vacuum") for p in patterns])
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
    just drops components; sector 0 is zero.
    """
    if cutoff < 3:
        raise ValueError(f"cutoff too small: need cutoff >= 3, got {cutoff}")
    strides = (cutoff + 1) ** np.arange(2, -1, -1)
    states, blocks = [], []
    for n in range(3 * cutoff + 1):
        occ = sector_occupations(3, n)
        occ = occ[np.all(occ <= cutoff, axis=1)]
        root = np.sqrt([math.comb(n, k) for k in range(n + 1)]) / 2.0 ** n
        v = (n > 0) * np.array([root[occ[:, 0]] * (occ[:, 2] == 0),
                                root[occ[:, 1]] * (occ[:, 0] == 0)
                                * (-1.0) ** occ[:, 2]])
        states.append(occ @ strides)
        blocks.append(v[:, :, None] * v[:, None, :])
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


@dataclass(frozen=True)
class NoncommutativityReport:
    """Outcome of the commutation certification.

    Thresholds are part of the report: `g_zero_tol` separates "commuting"
    from noise, `nonzero_floor` is the certified positive lower bound the
    reduced-effect commutator must clear.  `internal_cutoff`, (N+1) *
    cutoff, is the highest photon-number sector the reduction covers;
    `wire_dim` is the summed dimension of the wire sectors 0..cutoff the
    conjugated checks ran on (84 at cutoff 3).
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
    g_zero_tol: float = G_COMMUTE_TOL
    conj_zero_tol: float = CONJUGATED_COMMUTE_TOL
    completeness_tol: float = COMPLETENESS_TOL
    psd_tol: float = PSD_TOL
    nonzero_floor: float = NONCOMMUTATIVITY_FLOOR
    reduction_agreement_tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.g_comm_max <= self.g_zero_tol
                and self.conjugated_comm_max <= self.conj_zero_tol
                and self.e2e3_comm_norm >= self.nonzero_floor
                and self.e2e3_comm_norm_reduced >= self.nonzero_floor
                and self.e2e3_comm_norm_marginal >= self.nonzero_floor
                and self.e2_reduction_gap <= self.reduction_agreement_tol
                and self.e3_reduction_gap <= self.reduction_agreement_tol
                and self.e_sum_defect <= self.completeness_tol
                and self.e_min_eigenvalue >= -self.psd_tol)

    def to_text(self) -> str:
        lines = [
            f"keyBins = {self.n_bins}, cutoff = {self.cutoff} "
            f"(reduction exact over photon-number sectors "
            f"0..{self.internal_cutoff})",
            f"detection dim = {self.detection_dim}, wire dim = {self.wire_dim}"
            f" (conjugated checks on wire sectors 0..{self.cutoff})",
            f"max ||[G_i, G_j]||_F           = {self.g_comm_max:.3e}"
            f"   (zero threshold {self.g_zero_tol:.0e})",
            f"max |G^2 - G|                  = {self.g_idempotency_max:.3e}",
            f"max |G_i G_j| (i != j)         = {self.g_orthogonality_max:.3e}",
            f"|sum G - I|                    = {self.g_sum_defect:.3e}",
            f"max ||[U*G_iU, U*G_jU]||_F     = {self.conjugated_comm_max:.3e}"
            f"   (zero threshold {self.conj_zero_tol:.0e})",
            f"||[E2, E3]||_F closed form     = {self.e2e3_comm_norm:.15f}",
            f"||[E2, E3]||_F silent boundary = {self.e2e3_comm_norm_reduced:.15f}"
            f"   (floor {self.nonzero_floor})",
            f"||[E2, E3]||_F complete POVM   = {self.e2e3_comm_norm_marginal:.15f}"
            f"   (floor {self.nonzero_floor})",
            f"|E2 closed - reduced|          = {self.e2_reduction_gap:.3e}"
            f"   (threshold {self.reduction_agreement_tol:.0e})",
            f"|E3 closed - reduced|          = {self.e3_reduction_gap:.3e}",
            f"|sum E - I|                    = {self.e_sum_defect:.3e}"
            f"   (threshold {self.completeness_tol:.0e})",
            f"min eigenvalue over E_j        = {self.e_min_eigenvalue:.3e}"
            f"   (PSD threshold -{self.psd_tol:.0e})",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        head = ("schema_version,keyBins,cutoff,internalCutoff,gCommMax,"
                "conjCommMax,e2e3CommClosed,e2e3CommSilentBoundary,"
                "e2e3CommCompletePovm,eSumDefect,eMinEigenvalue,passed")
        row = (f"1,{self.n_bins},{self.cutoff},{self.internal_cutoff},"
               f"{self.g_comm_max!r},{self.conjugated_comm_max!r},"
               f"{self.e2e3_comm_norm!r},{self.e2e3_comm_norm_reduced!r},"
               f"{self.e2e3_comm_norm_marginal!r},"
               f"{self.e_sum_defect!r},{self.e_min_eigenvalue!r},"
               f"{int(self.passed)}")
        return head + "\n" + row


def certify_noncommutativity(cutoff: int, n_bins: int = 2,
                             config: Optional[InterferometerConfig] = None
                             ) -> NoncommutativityReport:
    """Certify the commutation structure at desk scale.

    Checks, with every threshold recorded in the report: the projector
    effects commute pairwise (and are idempotent, orthogonal and
    complete), on their 0/1 diagonals; conjugation with the
    interferometer unitary preserves commutation on sampled pairs, on
    every wire sector 0..cutoff (the states a cutoff-`cutoff` wire box
    holds exactly); the vacuum-reduced effects are complete and positive;
    and the two illustrative reduced effects do NOT commute, with a
    commutator norm above the recorded floor, computed both from the
    closed forms and from the generic reduction.  One signal lift serves
    both boundary conventions; all of it runs on photon-number blocks.

    Raises ValueError, before any work, when a photon-number sector block
    exceeds ``optics.DEFAULT_MAX_STATE_ENTRIES``.
    """
    _require_integers(cutoff=cutoff, n_bins=n_bins)
    if cutoff < 3:
        raise ValueError(f"cutoff too small: need cutoff >= 3, got {cutoff}")
    if n_bins != 2:
        raise ValueError("the illustrative effects live at n_bins = 2")
    config = config or InterferometerConfig.compensated()
    bins = n_bins + 1
    pats = all_click_patterns(n_bins)
    wire_sectors = sector_lift(config, bins, cutoff)
    states, blocks = _reduce(
        n_bins, cutoff, config,
        [(p, False) for p in pats] + [(E2_PATTERN, True), (E3_PATTERN, True)])

    diags = _pattern_diagonals(n_bins, cutoff)
    i, j = np.triu_indices(len(pats), 1)
    prods = diags[i] * diags[j]
    g_orth = float(np.max(np.abs(prods)))
    g_comm = float(np.max(np.linalg.norm(prods - diags[j] * diags[i], axis=1)))
    g_idem = float(np.max(np.abs(diags * diags - diags)))
    g_sum = float(np.max(np.abs(diags.sum(axis=0) - 1.0)))

    pair_choice = ((E2_PATTERN, E3_PATTERN),
                   (pats[0], pats[-1]),
                   (E2_PATTERN, pats[-1]))
    conj_sq = np.zeros(len(pair_choice))
    wire_dim = 0
    for outputs, _, U in wire_sectors:
        wire_dim += len(outputs)
        pids = _pattern_ids(outputs, n_bins)
        for k, (pi, pj) in enumerate(pair_choice):
            conj_sq[k] += conjugated_commutator_norm(
                U, pids == pattern_index(pi), pids == pattern_index(pj)) ** 2
    conj_vals = [(pi, pj, math.sqrt(v))
                 for (pi, pj), v in zip(pair_choice, conj_sq)]
    conj_max = max(v for _, _, v in conj_vals)

    closed = build_e2_e3(cutoff).blocks
    marginal = [b[:len(pats)] for b in blocks]
    silent = [b[len(pats):] for b in blocks]
    e2e3_closed = _commutator_norm(closed)
    e2e3_silent = _commutator_norm(silent)
    e2e3_marginal = _commutator_norm(
        [b[[pattern_index(E2_PATTERN), pattern_index(E3_PATTERN)]]
         for b in marginal])
    gap2, gap3 = np.max([np.linalg.norm(c - s, 2, axis=(1, 2))
                         for c, s in zip(closed, silent)], axis=0)
    e_sum = max(float(np.max(np.abs(b.sum(axis=0) - np.eye(b.shape[1]))))
                for b in marginal)
    e_min = min(float(np.min(np.linalg.eigvalsh(b)[:, 0])) for b in marginal)

    return NoncommutativityReport(
        n_bins=n_bins, cutoff=cutoff, internal_cutoff=bins * cutoff,
        detection_dim=diags.shape[1], wire_dim=wire_dim,
        g_comm_max=g_comm, g_idempotency_max=g_idem,
        g_orthogonality_max=g_orth, g_sum_defect=g_sum,
        conjugated_pairs=tuple(conj_vals), conjugated_comm_max=conj_max,
        e2e3_comm_norm=e2e3_closed, e2e3_comm_norm_reduced=e2e3_silent,
        e2e3_comm_norm_marginal=e2e3_marginal,
        e2_reduction_gap=float(gap2), e3_reduction_gap=float(gap3),
        e_sum_defect=e_sum, e_min_eigenvalue=e_min,
    )
