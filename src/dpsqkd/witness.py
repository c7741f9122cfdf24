"""Entanglement witnesses built from local measurement effects.

The appendix argument of the source protocol analysis, as matrix checks: a
witness assembled from the outcomes of two projective local measurements is
diagonal in a product basis, and nonnegative diagonal entries make it a
positive operator, so it cannot detect anything; detecting entanglement
therefore needs effect families that do not all commute.  ``witness_search``
demonstrates both directions at desk scale: it finds a Bell-state witness
over a non-commuting (BB84-style) effect family and none over commuting
projector families.

"Found" is proven: grid estimates only order the search, and a witness W
is accepted with W = P + Q^G, P and Q positive, G the partial transpose on
B, so <ab|W|ab> >= 0 (Horodecki, Horodecki and Horodecki, PLA 223, 1
(1996)); a rejection shows a product state of negative expectation.
"None found" is qualified by the resolution, except in the diagonal case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

DESK_DIM_LIMIT = 4
_TOL = 1e-9
#: complex entries in one chunk of the (operators, grid, dB, dB) block: 4 MB
_GRID_BLOCK_ENTRIES = 1 << 18
_DECOMPOSE_TOL, _DECOMPOSE_STEPS = 1e-10, 2000


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
    return [0.5 * projector(v) for v in ([1.0, 0.0], [0.0, 1.0], [s, s],
                                          [s, -s])]


def bell_state_density() -> np.ndarray:
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.outer(v, v.conj())


def family_completeness_defect(effects: Sequence[np.ndarray]) -> float:
    total = sum(np.asarray(e, dtype=complex) for e in effects)
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))


def commutation_table(effects: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise Frobenius norms of the commutators of a family."""
    E = np.asarray(effects)
    return np.linalg.norm(E[:, None] @ E[None] - E[None] @ E[:, None],
                          axis=(2, 3))


def hermitian_product_basis(d: int) -> list:
    """Orthonormal hermitian basis of d x d matrices: identity, symmetric
    and antisymmetric pair matrices, diagonal differences."""
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for (j, k), entry in itertools.product(
            itertools.combinations(range(d), 2), (1.0, -1j)):
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = entry / math.sqrt(2.0)
        m[k, j] = np.conj(m[j, k])
        mats.append(m)
    for l in range(1, d):
        m = np.diag([1.0] * l + [-l] + [0.0] * (d - l - 1)).astype(complex)
        mats.append(m / np.linalg.norm(m))
    return mats


def _partial_transpose(M: np.ndarray, dims: Tuple[int, int]) -> np.ndarray:
    dA, dB = dims
    return M.reshape(dA, dB, dA, dB).transpose(0, 3, 2, 1).reshape(M.shape)


def _psd_part(M: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(M)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


# ---------------------------------------------------------------------------
# separable minimum: an estimate from above, and a proven bound from below


@dataclass(frozen=True)
class SeparableMinimum:
    """Least <a,b|W|a,b> found, attained by ``state_a`` x ``state_b``."""

    value: float
    state_a: np.ndarray
    state_b: np.ndarray


def _unit_vector_grid(d: int, count: int, seed: int) -> np.ndarray:
    """Bloch grid for qubits, seeded unit vectors above."""
    if d == 2:
        n_phi = max(8, int(math.sqrt(2 * count)))
        t, p = np.meshgrid(np.linspace(0.0, np.pi, max(4, count // n_phi)),
                           np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False),
                           indexing="ij")
        return np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)],
                        axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _lowest_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each hermitian block ``M[..., d, d]`` (lower
    triangle, as ``eigvalsh`` reads it): closed form for 2x2."""
    if M.shape[-1] != 2:
        return np.linalg.eigvalsh(M)[..., 0]
    p, r = M[..., 0, 0].real, M[..., 1, 1].real
    return 0.5 * (p + r) - np.hypot(0.5 * (p - r), np.abs(M[..., 1, 0]))


def min_separable_expectation(W: np.ndarray, dims: Tuple[int, int],
                              grid_points: int = 800, refine_steps: int = 200,
                              n_starts: int = 8, seed: int = 3
                              ) -> SeparableMinimum:
    """Minimize ``<a,b| W |a,b>`` over product states, for one operator
    ``W`` (D, D) or each of a stack (K, D, D): a side-A grid with the exact
    side-B minimum, in chunks of ``_GRID_BLOCK_ENTRIES``, then alternating
    exact eigen-minimizations from the `n_starts` best points of all
    operators at once, each until a step moves it by less than 1e-14 or for
    `refine_steps` steps; the returned state attains the value."""
    (dA, dB), W = dims, np.asarray(W, dtype=complex)
    if max(dims) > DESK_DIM_LIMIT or W.shape[-2:] != (dA * dB, dA * dB) \
            or W.ndim not in (2, 3):
        raise ValueError(f"need dims up to the desk scale {DESK_DIM_LIMIT} "
                         f"and W of shape ([K,] D, D) with D = dA dB, got "
                         f"dims {dims} and shape {W.shape}")
    Ws = W.reshape(-1, dA * dB, dA * dB)
    if np.max(np.abs(Ws - np.swapaxes(Ws, 1, 2).conj()), initial=0.0) > 1e-10:
        raise ValueError("witness operator is not hermitian")
    K, W5 = len(Ws), Ws.reshape(-1, dA, dB, dA, dB)

    # side-B operators <a_s|W|a_s>: vec(conj(a_s) a_s^T) @ W as (AA, BB)
    cands = _unit_vector_grid(dA, grid_points, seed)
    S = len(cands)
    outer = (cands.conj()[:, :, None] * cands[:, None, :]).reshape(S, -1)
    W_ab = W5.transpose(0, 1, 3, 2, 4).reshape(K, dA * dA, dB * dB)
    chunk = max(1, _GRID_BLOCK_ENTRIES // (S * dB * dB))
    starts = np.empty((K, min(n_starts, S)), dtype=int)
    for lo in range(0, K, chunk):
        M = (outer @ W_ab[lo:lo + chunk]).reshape(-1, S, dB, dB)
        starts[lo:lo + chunk] = np.argsort(_lowest_eigenvalues(M),
                                           axis=1)[:, :starts.shape[1]]

    M = np.einsum("knp,kpq->knq", outer[starts], W_ab)
    wb, vb = np.linalg.eigh(M.reshape(starts.shape + (dB, dB)))
    a, b, val = cands[starts], vb[..., 0], wb[..., 0]
    live = np.ones(val.shape, dtype=bool)
    for _ in range(refine_steps):
        k, j = np.nonzero(live)
        if not k.size:
            break
        Wk, bk = W5[k], b[k, j]
        ak = np.linalg.eigh(np.einsum("mj,mijkl,ml->mik",
                                      bk.conj(), Wk, bk))[1][..., 0]
        wb, vb = np.linalg.eigh(np.einsum("mi,mijkl,mk->mjl",
                                          ak.conj(), Wk, ak))
        a[k, j], b[k, j] = ak, vb[..., 0]
        settled = np.abs(wb[:, 0] - val[k, j]) < 1e-14
        val[k, j] = wb[:, 0]
        live[k[settled], j[settled]] = False

    best = np.arange(K), np.argmin(val, axis=1)
    if W.ndim == 2:
        return SeparableMinimum(float(val[best][0]), a[best][0], b[best][0])
    return SeparableMinimum(val[best], a[best], b[best])


def _decompose(W: np.ndarray, dims: Tuple[int, int]
               ) -> Tuple[np.ndarray, float]:
    """``(Q, lower)``: Q positive and a lower bound of W on product states,
    ``lower = lambda_min(W - Q^G) + min(0, lambda_min(Q))``, as <ab|W|ab> =
    <ab|W - Q^G|ab> + <a b*|Q|a b*>.  Alternating exact projections from
    Q = 0 onto the positive cone and onto {Q : W - Q^G positive}."""
    Q = np.zeros_like(W)
    for _ in range(_DECOMPOSE_STEPS):
        Q = _psd_part(_partial_transpose(
            W - _psd_part(W - _partial_transpose(Q, dims)), dims))
        lower = (np.linalg.eigvalsh(W - _partial_transpose(Q, dims))[0]
                 + min(0.0, np.linalg.eigvalsh(Q)[0]))
        if lower >= -_DECOMPOSE_TOL:
            break
    return Q, float(lower)


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
        return (np.eye(dA) if self.basis_a is None else self.basis_a,
                np.eye(dB) if self.basis_b is None else self.basis_b)

    def assemble(self) -> np.ndarray:
        U = np.kron(*self._bases()).astype(complex)
        U = U / np.linalg.norm(U, axis=0)
        return (U * self.lambdas.ravel()) @ U.conj().T


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
    (up to the grid tolerance) exactly when all lambdas are, and then the
    operator is positive (min eigenvalue >= -1e-12), so it witnesses
    nothing."""
    W, lam = witness.assemble(), witness.lambdas
    min_lambda, w_min = float(lam.min()), float(np.linalg.eigvalsh(W)[0])
    sep = min_separable_expectation(W, lam.shape).value
    ok = (min_lambda >= 0.0) == (sep >= -grid_tolerance)
    pair = violating_val = None
    if min_lambda < 0.0:
        a, b = np.unravel_index(int(np.argmin(lam)), lam.shape)
        pair, (ba, bb) = (int(a), int(b)), witness._bases()
        prod = np.kron(ba[:, a], bb[:, b])
        violating_val = float(np.real(prod.conj() @ W @ prod))
        ok = ok and violating_val < 0.0 and sep <= violating_val + grid_tolerance
    else:
        ok = ok and w_min >= -1e-12
    return DiagonalCheckResult("PASS" if ok else "FAIL", min_lambda, w_min,
                               sep, grid_tolerance, pair, violating_val)


# ---------------------------------------------------------------------------
# witness search over effect products


@dataclass(frozen=True)
class WitnessCandidate:
    """Real coefficients over an effect-product family, assembling to a
    hermitian operator W negative on the target.  ``ppt_part`` Q and
    W - Q^G are positive, which proves ``separable_min`` (>= 0) a lower
    bound of W on product states; W already holds ``shift`` eps times I."""

    coefficients: np.ndarray
    alice_effects: tuple
    bob_effects: tuple
    separable_min: float
    shift: float
    ppt_part: np.ndarray
    target_expectation: float

    def operator(self) -> np.ndarray:
        F, G = np.asarray(self.alice_effects), np.asarray(self.bob_effects)
        return np.einsum("ab,aij,bkl->ikjl", self.coefficients, F, G
                         ).reshape(F.shape[1] * G.shape[1], -1)


@dataclass(frozen=True)
class WitnessSearchResult:
    candidate: Optional[WitnessCandidate]
    resolution: str
    coefficient_values: tuple
    max_terms: int
    candidates_tried: int
    candidates_screened: int
    accept_margin: float
    warning: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.candidate is not None


#: resolution -> (coefficient values, max terms, grid points)
_RESOLUTIONS = {"default": ((1.0, -1.0, 0.5, -0.5), 3, 800),
                "coarse": ((1.0, -1.0), 2, 200),
                "fine": ((1.0, -1.0, 0.5, -0.5, 0.25, -0.25), 3, 2000)}


def _flatten_real(M: np.ndarray) -> np.ndarray:
    return np.concatenate([M.real.ravel(), M.imag.ravel()])


def _checked_state(rho, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim) or not np.all(np.isfinite(rho)):
        raise ValueError(f"target state must be finite and {dim}x{dim}")
    if np.max(np.abs(rho - rho.conj().T)) > _TOL:
        raise ValueError("target state is not hermitian")
    if abs(np.trace(rho) - 1.0) > _TOL:
        raise ValueError("target state must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < -_TOL:
        raise ValueError("target state is not positive semidefinite")
    return rho


def witness_search(alice_effects: Sequence[np.ndarray],
                   bob_effects: Sequence[np.ndarray],
                   target_state: np.ndarray,
                   resolution: str = "default",
                   accept_margin: float = 1e-4,
                   seed: int = 3) -> WitnessSearchResult:
    """First real c, in ``itertools`` order over at most `max_terms`
    hermitian product-basis directions in the span of the effect products
    and a coarse coefficient grid, such that ``W = sum c_ab F_a x G_b`` is
    nonnegative on product states and negative on `target_state`.

    Each term count's candidates that pass the trace screen get one
    :func:`min_separable_expectation` call, plus one for those reading
    negative, shifted by the identity when the family can express it.
    Acceptance needs the :func:`_decompose` certificate and its shift eps:
    ``Tr(W rho) + eps < -accept_margin``.
    """
    if resolution not in _RESOLUTIONS:
        raise ValueError(f"unknown resolution {resolution!r}; "
                         f"choose from {sorted(_RESOLUTIONS)}")
    if not 0.0 <= accept_margin < math.inf:
        raise ValueError(f"accept_margin must be finite and >= 0, got "
                         f"{accept_margin}")
    values, max_terms, grid_points = _RESOLUTIONS[resolution]
    F = [np.asarray(f, dtype=complex) for f in alice_effects]
    G = [np.asarray(g, dtype=complex) for g in bob_effects]
    dims = dA, dB = F[0].shape[0], G[0].shape[0]
    if dA > DESK_DIM_LIMIT or dB > DESK_DIM_LIMIT:
        raise ValueError("effect dimensions above desk scale")
    for fam, name in ((F, "alice"), (G, "bob")):
        for k, e in enumerate(fam):
            if np.max(np.abs(e - e.conj().T)) > _TOL:
                raise ValueError(f"{name} effect {k} is not hermitian")
            lam = np.linalg.eigvalsh(e)[0]
            if lam < -_TOL:
                raise ValueError(f"{name} effect {k} is not positive "
                                 f"semidefinite (eigenvalue {lam:.3e})")
        if family_completeness_defect(fam) > 1e-9:
            raise ValueError(f"{name} effect family is incomplete (sum "
                             f"deviates from identity by "
                             f"{family_completeness_defect(fam):.3e})")
    rho = _checked_state(target_state, dA * dB)

    # real span of the effect products, as an orthonormal basis
    A = np.stack([_flatten_real(np.kron(f, g)) for f in F for g in G])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    span = vt[s > 1e-12 * s[0]]

    def in_span(M):
        v = _flatten_real(M)
        resid = v - span.T @ (span @ v)
        return np.linalg.norm(resid) <= _TOL * max(np.linalg.norm(v), 1.0)

    usable = np.array([np.kron(pa, pb)
                       for pa in hermitian_product_basis(dA)
                       for pb in hermitian_product_basis(dB)
                       if in_span(np.kron(pa, pb))])
    identity_dir = np.eye(dA * dB, dtype=complex)
    can_shift = in_span(identity_dir)
    traces = np.array([np.trace(b @ rho).real for b in usable])
    tried = screened = 0

    def finish(cand, tried, screened):
        warning = None if cand is not None or resolution != "coarse" else (
            "no witness at coarse resolution; this is not evidence of "
            "absence for non-commuting families")
        return WitnessSearchResult(cand, resolution, values, max_terms,
                                   tried, screened, accept_margin, warning)

    for k in range(1, min(max_terms, len(usable)) + 1):
        idx, cs = map(np.array, zip(*itertools.product(
            itertools.combinations(range(len(usable)), k),
            itertools.product(values, repeat=k))))
        keep = np.flatnonzero(sum(cs[:, i] * traces[idx[:, i]]
                                  for i in range(k)) < -accept_margin)
        Ws = sum(cs[keep, i, None, None] * usable[idx[keep, i]]
                 for i in range(k))
        sep = min_separable_expectation(Ws, dims, grid_points=grid_points,
                                        seed=seed).value
        # push a negative separable minimum back to zero with an identity term
        shifted = Ws - sep[:, None, None] * identity_dir
        t, t_shift = np.einsum("skij,ji->sk", np.stack([Ws, shifted]), rho).real
        direct = (sep >= -1e-9) & (t < -accept_margin)
        retry = (can_shift & ~direct & (-0.75 <= sep) & (sep < 0.0)
                 & (t_shift < -accept_margin))
        if retry.any():
            retry[retry] = min_separable_expectation(
                shifted[retry], dims, grid_points=max(grid_points, 1500),
                seed=seed + 1).value >= -1e-9
        for j in np.flatnonzero(direct | retry).tolist():
            W, t_j = (Ws[j], t[j]) if direct[j] else (shifted[j], t_shift[j])
            Q, lower = _decompose(W, dims)
            shift = max(0.0, -lower)
            if t_j + shift < -accept_margin:
                # coefficients over the actual effect products
                c_flat = np.linalg.lstsq(A.T, _flatten_real(
                    W + shift * identity_dir), rcond=None)[0]
                cand = WitnessCandidate(
                    c_flat.reshape(len(F), len(G)), tuple(F), tuple(G),
                    lower + shift, shift, Q, float(t_j + shift))
                return finish(cand, tried + int(keep[j]) + 1, screened + j + 1)
        tried, screened = tried + len(idx), screened + len(keep)
    return finish(None, tried, screened)
