"""Entanglement witnesses built from local measurement effects.

The appendix argument of the source protocol analysis, as matrix checks:
a witness assembled from the outcomes of two projective local
measurements is diagonal in a product basis, and nonnegative diagonal
entries make it a positive operator, so it cannot detect anything;
detecting entanglement therefore needs effect families that do not all
commute.  ``witness_search`` demonstrates both directions at desk scale:
it finds a Bell-state witness over a non-commuting (BB84-style) effect
family and finds nothing over commuting projector families.

The search is a documented heuristic (coarse candidate grid over the
hermitian span of the effect products, plus deterministic refinement);
"none found" is always qualified by the resolution it was established at,
except in the diagonal case where the positivity theorem upgrades it to a
proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

DESK_DIM_LIMIT = 4
_SPAN_TOL = 1e-9


# ---------------------------------------------------------------------------
# small-dimensional helpers


def projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj()) / np.vdot(vec, vec).real


def qubit_projective_effects() -> list:
    """The commuting family: computational-basis projectors."""
    return [np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0 + 0j])]


def bb84_effect_family() -> list:
    """Non-commuting four-outcome family: halved projectors of the
    computational and conjugate bases (sums to the identity)."""
    s = 1.0 / math.sqrt(2.0)
    vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([s, s]), np.array([s, -s])]
    return [0.5 * projector(v) for v in vecs]


def bell_state_density() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def family_completeness_defect(effects: Sequence[np.ndarray]) -> float:
    total = sum(np.asarray(e, dtype=complex) for e in effects)
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))


def commutation_table(effects: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise Frobenius norms of the commutators of a family."""
    n = len(effects)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c = effects[i] @ effects[j] - effects[j] @ effects[i]
            out[i, j] = out[j, i] = np.linalg.norm(c)
    return out


def hermitian_product_basis(d: int) -> list:
    """Orthogonal hermitian basis of d x d matrices (identity, symmetric
    and antisymmetric pair matrices, diagonal differences), unit Frobenius
    norm."""
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / math.sqrt(2.0)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2.0)
            m[k, j] = 1j / math.sqrt(2.0)
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[:l, :l] = np.eye(l)
        m[l, l] = -l
        mats.append(m / np.linalg.norm(m))
    return mats


# ---------------------------------------------------------------------------
# separable minimum


@dataclass(frozen=True)
class SeparableMinimum:
    """Estimated minimum of <a,b|W|a,b> over product states, with the
    resolution it was computed at."""

    value: float
    state_a: np.ndarray
    state_b: np.ndarray
    grid_points: int
    refine_steps: int


def _qubit_grid(n_theta: int, n_phi: int) -> np.ndarray:
    th = np.linspace(0.0, np.pi, n_theta)
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    t, p = np.meshgrid(th, ph, indexing="ij")
    return np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)],
                    axis=-1).reshape(-1, 2)


def _unit_vector_grid(d: int, count: int, seed: int) -> np.ndarray:
    if d == 2:
        n_phi = max(8, int(math.sqrt(2 * count)))
        return _qubit_grid(max(4, count // n_phi), n_phi)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def min_separable_expectation(W: np.ndarray, dims: Tuple[int, int],
                              grid_points: int = 800, refine_steps: int = 200,
                              n_starts: int = 8, seed: int = 3
                              ) -> SeparableMinimum:
    """Minimize ``<a,b| W |a,b>`` over product states |a>|b>.

    Deterministic: a grid over side A (Bloch grid for qubits, seeded unit
    vectors above) with the exact eigen-minimum over side B, followed by
    alternating exact eigen-minimizations from the best starts.
    """
    dA, dB = dims
    if dA > DESK_DIM_LIMIT or dB > DESK_DIM_LIMIT:
        raise ValueError(f"desk scale is {DESK_DIM_LIMIT}x{DESK_DIM_LIMIT}, "
                         f"got {dA}x{dB}")
    if W.shape != (dA * dB, dA * dB):
        raise ValueError("witness shape does not match dims")
    if np.max(np.abs(W - W.conj().T)) > 1e-10:
        raise ValueError("witness operator is not hermitian")
    W4 = W.reshape(dA, dB, dA, dB)

    cands = _unit_vector_grid(dA, grid_points, seed)
    Ma = np.einsum("si,ijkl,sk->sjl", cands.conj(), W4, cands)
    Ma = 0.5 * (Ma + np.conj(np.swapaxes(Ma, 1, 2)))
    evals, evecs = np.linalg.eigh(Ma)
    order = np.argsort(evals[:, 0])[:n_starts]

    best = (np.inf, None, None)
    for s in order:
        a = cands[s]
        b = evecs[s][:, 0]
        val = evals[s, 0]
        for _ in range(refine_steps):
            Mb = np.einsum("j,ijkl,l->ik", b.conj(), W4, b)
            wa, va = np.linalg.eigh(0.5 * (Mb + Mb.conj().T))
            a = va[:, 0]
            Ma1 = np.einsum("i,ijkl,k->jl", a.conj(), W4, a)
            wb, vb = np.linalg.eigh(0.5 * (Ma1 + Ma1.conj().T))
            b = vb[:, 0]
            if abs(wb[0] - val) < 1e-14:
                val = wb[0]
                break
            val = wb[0]
        if val < best[0]:
            best = (float(val), a, b)
    return SeparableMinimum(best[0], best[1], best[2], len(cands), refine_steps)


# ---------------------------------------------------------------------------
# the diagonal (commuting projective) case


@dataclass(frozen=True)
class DiagonalWitness:
    """Operator diagonal in a product basis: ``sum_ab lambda[a,b]
    |a><a| x |b><b|`` with real lambdas; the shape of everything a
    commuting pair of projective measurements can assemble."""

    lambdas: np.ndarray
    basis_a: Optional[np.ndarray] = None
    basis_b: Optional[np.ndarray] = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 2:
            raise ValueError("lambdas must be a 2-d real matrix")
        object.__setattr__(self, "lambdas", lam)

    def _bases(self):
        dA, dB = self.lambdas.shape
        ba = self.basis_a if self.basis_a is not None else np.eye(dA, dtype=complex)
        bb = self.basis_b if self.basis_b is not None else np.eye(dB, dtype=complex)
        return ba, bb

    def assemble(self) -> np.ndarray:
        ba, bb = self._bases()
        dA, dB = self.lambdas.shape
        W = np.zeros((dA * dB, dA * dB), dtype=complex)
        for a in range(dA):
            for b in range(dB):
                W += self.lambdas[a, b] * np.kron(projector(ba[:, a]),
                                                  projector(bb[:, b]))
        return W


@dataclass(frozen=True)
class DiagonalCheckResult:
    verdict: str                       # "PASS" or "FAIL"
    min_lambda: float
    w_min_eigenvalue: float
    separable_min: float
    grid_tolerance: float
    violating_pair: Optional[Tuple[int, int]]
    violating_expectation: Optional[float]

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def diagonal_positivity_theorem_check(witness: DiagonalWitness,
                                      grid_tolerance: float = 1e-3
                                      ) -> DiagonalCheckResult:
    """Check the positivity chain on a concrete diagonal witness.

    PASS means the equivalence held: the separable minimum is nonnegative
    (up to the grid tolerance) exactly when all lambdas are, and in the
    nonnegative case the assembled operator is positive
    (min eigenvalue >= -1e-12), so its expectation is nonnegative on
    entangled states too and it witnesses nothing.
    """
    W = witness.assemble()
    lam = witness.lambdas
    min_lambda = float(lam.min())
    w_min = float(np.linalg.eigvalsh(W)[0])
    sep = min_separable_expectation(W, lam.shape)

    lam_nonneg = min_lambda >= 0.0
    sep_nonneg = sep.value >= -grid_tolerance
    ok = lam_nonneg == sep_nonneg
    violating_pair = None
    violating_val = None
    if not lam_nonneg:
        a, b = np.unravel_index(int(np.argmin(lam)), lam.shape)
        violating_pair = (int(a), int(b))
        ba, bb = witness._bases()
        prod = np.kron(ba[:, a], bb[:, b])
        violating_val = float(np.real(prod.conj() @ W @ prod))
        ok = ok and violating_val < 0.0 and sep.value <= violating_val + grid_tolerance
    else:
        ok = ok and w_min >= -1e-12
    return DiagonalCheckResult(
        verdict="PASS" if ok else "FAIL",
        min_lambda=min_lambda, w_min_eigenvalue=w_min,
        separable_min=sep.value, grid_tolerance=grid_tolerance,
        violating_pair=violating_pair, violating_expectation=violating_val)


# ---------------------------------------------------------------------------
# witness search over effect products


@dataclass(frozen=True)
class WitnessCandidate:
    """Real coefficients over an effect-product family, assembling to a
    hermitian operator nonnegative on every product state and negative on
    the target."""

    coefficients: np.ndarray
    alice_effects: tuple
    bob_effects: tuple
    separable_min: float
    target_expectation: float

    def operator(self) -> np.ndarray:
        W = sum(self.coefficients[a, b] * np.kron(self.alice_effects[a],
                                                  self.bob_effects[b])
                for a in range(len(self.alice_effects))
                for b in range(len(self.bob_effects)))
        if np.max(np.abs(W - W.conj().T)) > 1e-10:
            raise AssertionError("assembled witness is not hermitian")
        return W


@dataclass(frozen=True)
class WitnessSearchResult:
    candidate: Optional[WitnessCandidate]
    resolution: str
    coefficient_values: tuple
    max_terms: int
    candidates_tried: int
    candidates_screened: int
    span_dimension: int
    accept_margin: float
    warning: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.candidate is not None


_RESOLUTIONS = {
    "default": {"values": (1.0, -1.0, 0.5, -0.5), "max_terms": 3,
                "grid_points": 800},
    "coarse": {"values": (1.0, -1.0), "max_terms": 2, "grid_points": 200},
    "fine": {"values": (1.0, -1.0, 0.5, -0.5, 0.25, -0.25), "max_terms": 3,
             "grid_points": 2000},
}


def _flatten_real(M: np.ndarray) -> np.ndarray:
    return np.concatenate([M.real.ravel(), M.imag.ravel()])


def witness_search(alice_effects: Sequence[np.ndarray],
                   bob_effects: Sequence[np.ndarray],
                   target_state: np.ndarray,
                   resolution: str = "default",
                   accept_margin: float = 1e-4,
                   seed: int = 3) -> WitnessSearchResult:
    """Search for real coefficients c such that ``W = sum c_ab F_a x G_b``
    has nonnegative expectation on every product state but a negative
    trace against `target_state`.

    Candidate directions are drawn from a coarse grid over the hermitian
    product-operator basis restricted to the span of the effect products
    (with at most `max_terms` nonzero coefficients), refined by an
    identity shift when the family can express it.  Deterministic; returns
    the first acceptable candidate.  "None" means none at this resolution,
    which the diagonal-case theorem upgrades to a proof only for commuting
    projective families.
    """
    if resolution not in _RESOLUTIONS:
        raise ValueError(f"unknown resolution {resolution!r}; "
                         f"choose from {sorted(_RESOLUTIONS)}")
    params = _RESOLUTIONS[resolution]
    F = [np.asarray(f, dtype=complex) for f in alice_effects]
    G = [np.asarray(g, dtype=complex) for g in bob_effects]
    dA, dB = F[0].shape[0], G[0].shape[0]
    if dA > DESK_DIM_LIMIT or dB > DESK_DIM_LIMIT:
        raise ValueError("effect dimensions above desk scale")
    for fam, name in ((F, "alice"), (G, "bob")):
        defect = family_completeness_defect(fam)
        if defect > 1e-9:
            raise ValueError(f"{name} effect family is incomplete "
                             f"(sum deviates from identity by {defect:.3e})")
    rho = np.asarray(target_state, dtype=complex)

    # real span of the effect products, as an orthonormal basis
    prods = [np.kron(f, g) for f in F for g in G]
    A = np.stack([_flatten_real(p) for p in prods])
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0]))
    span = vt[:rank]

    def in_span(M):
        v = _flatten_real(M)
        resid = v - span.T @ (span @ v)
        return np.linalg.norm(resid) <= _SPAN_TOL * max(np.linalg.norm(v), 1.0)

    basis = [np.kron(pa, pb)
             for pa in hermitian_product_basis(dA)
             for pb in hermitian_product_basis(dB)]
    usable = [b for b in basis if in_span(b)]
    identity_dir = np.eye(dA * dB, dtype=complex)
    can_shift = in_span(identity_dir)

    tried = 0
    screened = 0
    values = params["values"]
    traces = np.array([np.trace(b @ rho).real for b in usable])

    def finish(cand, warning=None):
        return WitnessSearchResult(
            candidate=cand, resolution=resolution,
            coefficient_values=values, max_terms=params["max_terms"],
            candidates_tried=tried, candidates_screened=screened,
            span_dimension=rank, accept_margin=accept_margin,
            warning=warning)

    def accept(W):
        """Return (final W, separable min, target trace) or None."""
        sep = min_separable_expectation(W, (dA, dB),
                                        grid_points=params["grid_points"],
                                        seed=seed)
        t = float(np.trace(W @ rho).real)
        if sep.value >= -1e-9 and t < -accept_margin:
            return W, sep.value, t
        if can_shift and -0.75 <= sep.value < 0.0:
            # push the separable minimum back to zero with an identity term
            W2 = W - sep.value * identity_dir
            t2 = float(np.trace(W2 @ rho).real)
            if t2 < -accept_margin:
                sep2 = min_separable_expectation(
                    W2, (dA, dB), grid_points=max(params["grid_points"], 1500),
                    seed=seed + 1)
                if sep2.value >= -1e-9:
                    return W2, sep2.value, t2
        return None

    for k in range(1, params["max_terms"] + 1):
        for combo in itertools.combinations(range(len(usable)), k):
            for coeffs in itertools.product(values, repeat=k):
                tried += 1
                t_est = sum(c * traces[i] for c, i in zip(coeffs, combo))
                if t_est >= -accept_margin:
                    continue
                screened += 1
                W = sum(c * usable[i] for c, i in zip(coeffs, combo))
                res = accept(W)
                if res is None:
                    continue
                W, sep_val, t_val = res
                # coefficients over the actual effect products
                c_flat, *_ = np.linalg.lstsq(A.T, _flatten_real(W), rcond=None)
                cand = WitnessCandidate(
                    coefficients=c_flat.reshape(len(F), len(G)),
                    alice_effects=tuple(F), bob_effects=tuple(G),
                    separable_min=float(sep_val),
                    target_expectation=float(t_val))
                cand.operator()  # hermiticity assertion
                return finish(cand)

    warning = None
    if resolution == "coarse":
        warning = ("no witness at coarse resolution; this is not evidence "
                   "of absence for non-commuting families")
    return finish(None, warning)
