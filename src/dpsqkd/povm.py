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

The interferometer conserves photon number, so every reduced effect is
block diagonal in it, and the reduction is evaluated exactly, one
photon-number sector at a time (:func:`~dpsqkd.optics.sector_lift`):
signal states with at most `cutoff` photons per time bin reach sector
(N+1)*cutoff, and no output wire is truncated.  The only approximation
left in the reduced effects is the signal cutoff itself.

Effects are indexed by click patterns: a tuple with one ``(d0, d1)`` bool
pair per key bin 1..N.  (A printed enumeration of these effects elsewhere
repeats a factor in one row; the systematic one-factor-per-mode indexing
used here is the intended reading.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import fock
from .fock import FockOperator, ModeRegistry, _require_integers
from .optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                     sector_lift)

ClickPattern = Tuple[Tuple[bool, bool], ...]

#: pattern of the effect "click at D0 in bin 1, nothing else" (reduces to E2)
#: and "click at D1 in bin 2, nothing else" (reduces to E3), at N = 2
E2_PATTERN: ClickPattern = ((True, False), (False, False))
E3_PATTERN: ClickPattern = ((False, False), (False, True))

#: certified positive floor for ||[E2, E3]||_F at any cutoff >= 3 (up to
#: the sector bound), fixed by a pre-build dense evaluation: the
#: silent-boundary value is 0.15460521937... at cutoff 3 and rises with
#: the cutoff towards 0.1546056095; the complete-POVM value is larger
#: (0.19311... at cutoff 3, rising)
NONCOMMUTATIVITY_FLOOR = 0.1546

G_COMMUTE_TOL = 1e-12
CONJUGATED_COMMUTE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
PSD_TOL = 1e-10


def detection_registry(n_bins: int, cutoff: int) -> ModeRegistry:
    """Registry of the 2N detection wires for key bins 1..N, path-major:
    wire (0, i) feeds detector D0 and wire (1, i) detector D1."""
    modes = [(0, i) for i in range(1, n_bins + 1)] + \
            [(1, i) for i in range(1, n_bins + 1)]
    return ModeRegistry(modes, cutoff)


def all_click_patterns(n_bins: int) -> Tuple[ClickPattern, ...]:
    """The 4^N patterns, all-vacuum first, all-click last."""
    per_bin = ((False, False), (False, True), (True, False), (True, True))
    return tuple(itertools.product(per_bin, repeat=n_bins))


def click_pattern_ids(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Bin-major base-4 index (digit = 2*d0 + d1) of the click patterns
    given as bool arrays ``(..., N)`` of D0 and D1 clicks per key bin; the
    index of a pattern is its position in :func:`all_click_patterns`."""
    digits = 2 * np.asarray(d0, dtype=np.int64) + np.asarray(d1, dtype=np.int64)
    return digits @ 4 ** np.arange(digits.shape[-1] - 1, -1, -1)


def pattern_index(pattern: ClickPattern) -> int:
    """:func:`click_pattern_ids` of one pattern."""
    d0, d1 = np.array(pattern, dtype=bool).reshape(-1, 2).T
    return int(click_pattern_ids(d0, d1))


def pattern_diagonal(registry: ModeRegistry, pattern: ClickPattern) -> np.ndarray:
    """Diagonal (0/1) of the projector onto a click pattern, on any registry
    containing the detection wires (identity on other modes)."""
    diag = np.ones(registry.dim)
    for i, (d0, d1) in enumerate(pattern, start=1):
        for path, clicked in ((0, d0), (1, d1)):
            occ = registry.occupations((path, i))
            diag = diag * ((occ >= 1) if clicked else (occ == 0))
    return diag


def build_projector_effects(n_bins: int,
                            cutoff: int) -> Dict[ClickPattern, FockOperator]:
    """The full 4^N family of projector effects on the detection wires,
    in :func:`all_click_patterns` order.

    Each effect is diagonal in the occupation basis; they are idempotent,
    mutually orthogonal and sum to the identity.
    """
    if n_bins > 3:
        raise ValueError("full enumeration is desk scale (N <= 3); "
                         "build single patterns via pattern_diagonal instead")
    reg = detection_registry(n_bins, cutoff)
    return {p: FockOperator(reg, np.diag(pattern_diagonal(reg, p)
                                         .astype(complex)), hermitian=True)
            for p in all_click_patterns(n_bins)}


def signal_registry(n_bins: int, cutoff: int) -> ModeRegistry:
    """Registry of the signal-path input modes, time bins 0..N."""
    return ModeRegistry([(0, i) for i in range(n_bins + 1)], cutoff)


# ---------------------------------------------------------------------------
# reduction through the interferometer


def _pattern_ids(outputs: np.ndarray, n_bins: int) -> np.ndarray:
    """Click-pattern index (as :func:`pattern_index`) of every row of wire
    occupations, in wire order."""
    bins = n_bins + 1
    return click_pattern_ids(outputs[:, 1:bins] > 0, outputs[:, bins + 1:] > 0)


def reduced_effect_set(n_bins: int, cutoff: int,
                       config: Optional[InterferometerConfig] = None,
                       patterns: Optional[Sequence[ClickPattern]] = None,
                       boundary: str = "marginal"
                       ) -> Dict[ClickPattern, FockOperator]:
    """Reduced effects E_j on the signal registry at `cutoff`, one per
    click pattern: the operators with matrix elements
    ``<x,vac| U* G_j U |y,vac>`` over the path-1 wires.

    Every E_j is block diagonal in total photon number.  Each block is
    built exactly from :func:`~dpsqkd.optics.sector_lift` of the signal
    block (path-0 wires at most `cutoff`, path-1 wires in vacuum) over
    sectors 0..(N+1)*cutoff: it is the Gram matrix of the image rows whose
    output occupations form the click pattern.

    `boundary` fixes how the output wires of the edge bin 0 (outside the
    detection window) are treated: ``"marginal"`` (their outcomes are
    summed over, the convention under which the reduced family is a
    complete POVM) or ``"vacuum"`` (the event additionally demands
    silence there; the convention the explicit closed forms of the two
    illustrative effects correspond to).

    Raises ValueError, before allocating, when a sector block or the
    returned operators exceed ``optics.DEFAULT_MAX_STATE_ENTRIES``.
    """
    if boundary not in ("marginal", "vacuum"):
        raise ValueError(f"boundary must be 'marginal' or 'vacuum', "
                         f"got {boundary!r}")
    config = config or InterferometerConfig.compensated()
    if patterns is None:
        patterns = all_click_patterns(n_bins)
    bins = n_bins + 1
    sreg = signal_registry(n_bins, cutoff)
    entries = len(patterns) * sreg.dim ** 2
    if entries > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(
            f"{len(patterns)} reduced effects of dimension {sreg.dim} "
            f"= {entries} entries exceed the bound "
            f"{DEFAULT_MAX_STATE_ENTRIES}")
    sectors = sector_lift(config, bins, bins * cutoff,
                          max_occupation=[cutoff] * bins + [0] * bins)
    mats = {p: np.zeros((sreg.dim, sreg.dim), dtype=complex)
            for p in patterns}
    targets = [pattern_index(p) for p in patterns]
    strides = (cutoff + 1) ** np.arange(bins - 1, -1, -1)
    for outputs, inputs, images in sectors:
        block = np.ix_(*2 * [inputs[:, :bins] @ strides])
        pids = _pattern_ids(outputs, n_bins)
        silent = (outputs[:, 0] == 0) & (outputs[:, bins] == 0)
        for p, target in zip(patterns, targets):
            rows = pids == target
            if boundary == "vacuum":
                rows &= silent
            W = images[rows]
            mats[p][block] = W.conj().T @ W
    return {p: FockOperator(sreg, m, hermitian=True) for p, m in mats.items()}


# ---------------------------------------------------------------------------
# the explicit reduced effects of the two illustrative click events


def build_e2_e3(cutoff: int) -> Tuple[FockOperator, FockOperator]:
    """Closed forms of the two illustrative reduced effects on three
    signal time bins:

    ``E2 = sum_n (1/(4^n n!)) (A0+A1)^n |0><0| (A0+A1)*^n`` (click at D0 in
    bin 1) and ``E3`` with ``(A1-A2)`` (click at D1 in bin 2), where ``Ak``
    is the creation operator of time bin k.  The sums run until the
    operator powers annihilate the truncated space identically (n beyond
    twice the cutoff); stopping at n = cutoff would visibly miss
    high-occupation matrix elements.
    """
    if cutoff < 3:
        raise ValueError(f"cutoff too small: need cutoff >= 3, got {cutoff}")
    reg = signal_registry(2, cutoff)
    vac = fock.vacuum(reg).amplitudes

    def effect(raiser: np.ndarray) -> FockOperator:
        E = np.zeros((reg.dim, reg.dim), dtype=complex)
        v = vac.copy()
        for n in range(1, 2 * cutoff + 1):
            v = raiser @ v
            if not np.any(v):
                break
            E += np.outer(v, v.conj()) / (4 ** n * math.factorial(n))
        return FockOperator(reg, E, hermitian=True)

    a0 = fock.ladder_operator(reg, (0, 0), "creation").matrix
    a1 = fock.ladder_operator(reg, (0, 1), "creation").matrix
    a2 = fock.ladder_operator(reg, (0, 2), "creation").matrix
    return effect(a0 + a1), effect(a1 - a2)


def t_term(n: int, m: int) -> int:
    """The vacuum contraction ``<0| (a0+a1)^n (A1-A2)^m |0>``: photon
    bookkeeping forces it to ``n!`` when n == m and 0 otherwise."""
    if n < 1 or m < 1:
        raise ValueError("t_term is defined for n, m >= 1")
    return math.factorial(n) if n == m else 0


def t_term_numeric(n: int, m: int, cutoff: int) -> float:
    """Same contraction evaluated by dense matrix application."""
    if cutoff < max(n, m):
        raise ValueError("cutoff must be at least max(n, m)")
    reg = signal_registry(2, cutoff)
    raise1 = fock.ladder_operator(reg, (0, 1), "creation").matrix
    raise2 = fock.ladder_operator(reg, (0, 2), "creation").matrix
    lower0 = fock.ladder_operator(reg, (0, 0), "annihilation").matrix
    lower1 = fock.ladder_operator(reg, (0, 1), "annihilation").matrix
    v = fock.vacuum(reg).amplitudes.copy()
    for _ in range(m):
        v = (raise1 - raise2) @ v
    for _ in range(n):
        v = (lower0 + lower1) @ v
    val = complex(v[0])
    if abs(val.imag) > 1e-12:
        raise AssertionError(f"contraction came out complex: {val}")
    return val.real


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
    XtX = X.conj().T @ X
    t1 = np.trace(X.conj().T @ Pi @ X @ Pj).real
    t2 = np.trace(XtX @ XtX).real
    return math.sqrt(max(2.0 * (t1 - t2), 0.0))


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
    closed forms and from the generic reduction.

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
    wire_sectors = sector_lift(config, bins, cutoff)
    marginal = reduced_effect_set(n_bins, cutoff, config)
    silent = reduced_effect_set(n_bins, cutoff, config,
                                patterns=(E2_PATTERN, E3_PATTERN),
                                boundary="vacuum")

    dreg = detection_registry(n_bins, cutoff)
    pats = all_click_patterns(n_bins)
    diags = [pattern_diagonal(dreg, p) for p in pats]
    g_comm = 0.0
    g_orth = 0.0
    for di, dj in itertools.combinations(diags, 2):
        prod = di * dj
        g_orth = max(g_orth, float(np.max(np.abs(prod))))
        g_comm = max(g_comm, float(np.linalg.norm(prod - dj * di)))
    g_idem = max(float(np.max(np.abs(d * d - d))) for d in diags)
    g_sum = float(np.max(np.abs(sum(diags) - 1.0)))

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

    E2c, E3c = build_e2_e3(cutoff)
    e2e3_closed = fock.commutator_norm(E2c, E3c)

    E2r, E3r = silent[E2_PATTERN], silent[E3_PATTERN]
    e2e3_silent = fock.commutator_norm(E2r, E3r)
    e2e3_marginal = fock.commutator_norm(marginal[E2_PATTERN],
                                         marginal[E3_PATTERN])
    gap2 = float(np.linalg.norm(E2c.matrix - E2r.matrix, 2))
    gap3 = float(np.linalg.norm(E3c.matrix - E3r.matrix, 2))
    e_sum = float(np.max(np.abs(
        sum(e.matrix for e in marginal.values()) - np.eye(E2r.registry.dim))))
    e_min = min(float(np.linalg.eigvalsh(e.matrix)[0])
                for e in marginal.values())

    return NoncommutativityReport(
        n_bins=n_bins, cutoff=cutoff, internal_cutoff=bins * cutoff,
        detection_dim=dreg.dim, wire_dim=wire_dim,
        g_comm_max=g_comm, g_idempotency_max=g_idem,
        g_orthogonality_max=g_orth, g_sum_defect=g_sum,
        conjugated_pairs=tuple(conj_vals), conjugated_comm_max=conj_max,
        e2e3_comm_norm=e2e3_closed, e2e3_comm_norm_reduced=e2e3_silent,
        e2e3_comm_norm_marginal=e2e3_marginal,
        e2_reduction_gap=gap2, e3_reduction_gap=gap3,
        e_sum_defect=e_sum, e_min_eigenvalue=e_min,
    )
