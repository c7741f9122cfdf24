"""Independent Fock-space oracles for the delay interferometer and Bob's
measurement, numpy only.

:func:`dense_unitary` exponentiates ``G = sum_jk H_jk b_j^dag b_k``, the
second-quantized generator of the mode map ``u = exp(iH)``, block by block
in total photon number.  It is exact on every sector n <= cutoff and shares
no code with the creation-operator recursion of the sector lift
(``optics._lift``, and ``optics.sector_lift`` for whole sectors).

:func:`dense_certification` evaluates every field of the commutation
report on dense operators: the reduced effects scattered from the lifted
sectors into full matrices, the two illustrative effects built from
Kronecker-product ladder operators, and dense sums, eigenvalues,
commutators and spectral norms.  The library's photon-number-block route
shares only the lift and the click-pattern bookkeeping with it.

The oracle owns the mode registry (:class:`ModeRegistry`), the ordered
modes of a truncated multimode Fock space that every dense vector and
operator here lives on.  The projector diagonals it checks the library
against come from the registry route (:func:`detection_registry`,
:func:`pattern_diagonal`): one occupation test per detection wire, not
the library's click-pattern numbering of occupation rows.

The dense helpers below them (state vectors and operators, the wire and
signal registries, basis states and their indices, ladder and number
operators, coherent states, tensor products, expectations, fidelities,
pulse energies, mode permutation and embedding, the projector effects and
the numeric vacuum contraction) serve only tests, as do the views of the
entanglement-based state at the end (its registry, norm, Schmidt values,
entropy and Alice's reduced density, Alice's measurement and the
pulse-train vector she prepares).
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from dpsqkd.entangled import coherent_amplitudes
from dpsqkd.optics import (DEFAULT_MAX_STATE_ENTRIES, InterferometerConfig,
                           _lift, sector_lift, single_particle_unitary)
from dpsqkd.povm import (E2_PATTERN, E3_PATTERN, _pattern_ids,
                         all_click_patterns, conjugated_commutator_norm,
                         pattern_index)

#: norm tolerance of a vector flagged normalized
TRUNCATION_TOL = 1e-9


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered set of bosonic modes sharing one photon-number cutoff.

    Its basis is the occupation-number basis in registry order, laid out
    Kronecker style (first mode = most significant axis), so every reshape
    to ``(d, d, ..., d)`` puts one mode on one axis.  Mode labels are
    typically ``(path, time_bin)`` tuples, path-major, time-bin minor; the
    local dimension is ``cutoff + 1``.
    """

    modes: tuple
    cutoff: int

    def __init__(self, modes: Iterable, cutoff: int):
        modes = tuple(modes)
        if len(set(modes)) != len(modes):
            raise ValueError("mode labels must be unique")
        if not modes:
            raise ValueError("registry needs at least one mode")
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "cutoff", int(cutoff))

    @property
    def local_dim(self):
        return self.cutoff + 1

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def dim(self):
        return self.local_dim ** self.n_modes

    def axis(self, mode):
        """Tensor axis of a mode label."""
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode label {mode!r}") from None

    def occupations(self, mode):
        """Occupation of `mode` for every basis state, as a length-dim array."""
        ax = self.axis(mode)
        d = self.local_dim
        stride = d ** (self.n_modes - 1 - ax)
        return (np.arange(self.dim) // stride) % d


class FockVector:
    """State vector over a registry; ``amplitudes[i]`` indexes the
    occupation basis in Kronecker order."""

    def __init__(self, registry, amplitudes, normalized=False):
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if amps.size != registry.dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match registry "
                f"dimension {registry.dim}")
        amps.setflags(write=False)
        self.registry, self.amplitudes = registry, amps
        self.normalized = normalized
        if normalized and abs(self.norm2() - 1.0) > TRUNCATION_TOL:
            raise ValueError("vector flagged normalized is not normalized")

    def norm2(self):
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self):
        return math.sqrt(self.norm2())


class FockOperator:
    """Dense operator over a registry, optionally certified hermitian."""

    def __init__(self, registry, matrix, hermitian=False):
        m = np.array(matrix, dtype=complex)
        if m.shape != (registry.dim, registry.dim):
            raise ValueError(f"matrix shape {m.shape} does not match "
                             f"registry dimension {registry.dim}")
        if hermitian:
            dev = np.max(np.abs(m - m.conj().T))
            if dev > 1e-12:
                raise ValueError(f"operator flagged hermitian deviates by "
                                 f"{dev:.3e} (tolerance 1e-12)")
        m.setflags(write=False)
        self.registry, self.matrix, self.hermitian = registry, m, hermitian

    def __matmul__(self, other):
        _require_same_registry(self, other)
        if isinstance(other, FockOperator):
            return FockOperator(self.registry, self.matrix @ other.matrix)
        return FockVector(self.registry, self.matrix @ other.amplitudes)


def _require_same_registry(a, b):
    if a.registry != b.registry:
        raise ValueError("operands live on different mode registries")


def _log_unitary(u):
    """Hermitian H with exp(iH) = u; the branch cut sits mid-way in the
    widest gap between eigenphases, so no eigenspace straddles it."""
    w, v = np.linalg.eig(u)
    phases = np.sort(np.angle(w))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    cut = phases[np.argmax(gaps)] + gaps.max() / 2
    h = (v * (np.angle(-w * np.exp(-1j * cut)) + cut - np.pi)) @ np.linalg.inv(v)
    return (h + h.conj().T) / 2


def dense_unitary(config, bins, cutoff):
    """Interferometer unitary on the 2B-wire registry of per-wire `cutoff`."""
    h = _log_unitary(single_particle_unitary(config, bins))
    reg = wire_registry(bins, cutoff)
    d, m = cutoff + 1, 2 * bins
    occ = np.indices((d,) * m).reshape(m, -1)       # Kronecker order
    strides = d ** np.arange(m - 1, -1, -1)
    g = np.zeros((reg.dim, reg.dim), dtype=complex)
    for j, k in itertools.product(range(m), repeat=2):
        # b_j^dag b_k |s> = sqrt(s_k (s_j + 1 - [j == k])) |s - e_k + e_j>
        src = np.flatnonzero((occ[k] > 0) & (occ[j] + (j != k) <= cutoff))
        g[src + strides[j] - strides[k], src] += h[j, k] * np.sqrt(
            occ[k, src] * (occ[j, src] + (j != k)))
    total, out = occ.sum(axis=0), np.zeros_like(g)
    for n in np.unique(total):
        idx = np.ix_(total == n, total == n)
        lam, vec = np.linalg.eigh(g[idx])
        out[idx] = (vec * np.exp(1j * lam)) @ vec.conj().T
    return FockOperator(reg, out)


def sector_mean_amplitudes(config, bins, rows, cap, n_max):
    """``<a_w> / <1>`` per wire behind the interferometer, for product
    coherent path-0 inputs (one row of amplitudes each, path 1 in vacuum)
    capped at `cap` photons per wire: the sum over sectors n <= `n_max` of
    ``<psi_(n-1)| a_w |psi_n>``, with ``a_w |s> = sqrt(s_w) |s - e_w>``."""
    rows = np.atleast_2d(rows)
    pulses = rows.shape[1]
    coh = np.array([[coherent_amplitudes(a, cap) for a in r] for r in rows])
    caps = [cap] * pulses + [0] * (2 * bins - pulses)
    strides = (n_max + 1) ** np.arange(2 * bins - 1, -1, -1)
    num, norm = np.zeros((len(rows), 2 * bins), dtype=complex), 0.0
    for n, (outputs, inputs, images) in enumerate(
            _lift(config, bins, min(n_max, sum(caps)), caps, min(caps))):
        psi = np.prod(coh[:, range(pulses), inputs[:, :pulses]], -1) @ images.T
        norm = norm + np.sum(np.abs(psi) ** 2, axis=1)
        for w in range(2 * bins) if n else ():
            has = outputs[:, w] > 0
            low = np.searchsorted(codes, outputs[has] @ strides - strides[w])
            num[:, w] += (prev[:, low].conj() * psi[:, has]) @ np.sqrt(
                outputs[has, w])
        prev, codes = psi, outputs @ strides
    return num / norm[:, None]


def wire_registry(bins, cutoff):
    """Canonical 2B-wire registry: path-0 wires then path-1 wires."""
    modes = [(0, i) for i in range(bins)] + [(1, i) for i in range(bins)]
    return ModeRegistry(modes, cutoff)


def basis_index(registry, occupations):
    """Flat index of an occupation tuple given in registry order."""
    if len(occupations) != registry.n_modes:
        raise ValueError("occupation list length does not match registry")
    idx = 0
    for n in occupations:
        if not 0 <= n <= registry.cutoff:
            raise ValueError(f"occupation {n} outside [0, {registry.cutoff}]")
        idx = idx * registry.local_dim + int(n)
    return idx


def dagger(op):
    """Adjoint of a dense operator."""
    return FockOperator(op.registry, op.matrix.conj().T, op.hermitian)


def total_energy(amps):
    """Mean photon number of a pulse train of amplitudes, summed over its
    bins."""
    return float(np.sum(np.abs(amps) ** 2))


def basis_state(registry, occupations):
    amps = np.zeros(registry.dim, dtype=complex)
    amps[basis_index(registry, occupations)] = 1.0
    return FockVector(registry, amps, normalized=True)


def number_operator(registry, mode=None):
    """Photon-number operator of one mode, or the total number operator."""
    if mode is not None:
        diag = registry.occupations(mode).astype(float)
    else:
        diag = np.zeros(registry.dim)
        for m in registry.modes:
            diag = diag + registry.occupations(m)
    return FockOperator(registry, np.diag(diag.astype(complex)), hermitian=True)


def permute_modes(obj, new_order):
    """Reorder the registry modes of a vector or operator."""
    reg = obj.registry
    if set(new_order) != set(reg.modes) or len(new_order) != reg.n_modes:
        raise ValueError("new_order must be a permutation of the registry modes")
    perm = [reg.axis(m) for m in new_order]
    new_reg = ModeRegistry(new_order, reg.cutoff)
    d = reg.local_dim
    M = reg.n_modes
    if isinstance(obj, FockVector):
        t = obj.amplitudes.reshape((d,) * M).transpose(perm)
        return FockVector(new_reg, t.reshape(-1), normalized=obj.normalized)
    t = obj.matrix.reshape((d,) * (2 * M))
    t = t.transpose(perm + [M + p for p in perm])
    return FockOperator(new_reg, t.reshape(reg.dim, reg.dim), hermitian=obj.hermitian)


def embed(op, registry):
    """Extend an operator by identity onto the extra modes of `registry`."""
    missing = [m for m in registry.modes if m not in op.registry.modes]
    if set(op.registry.modes) - set(registry.modes):
        raise ValueError("target registry does not contain all operator modes")
    if op.registry.cutoff != registry.cutoff:
        raise ValueError("cutoff mismatch between operator and target registry")
    if not missing:
        return permute_modes(op, registry.modes)
    big = tensor(op, identity(ModeRegistry(missing, registry.cutoff)))
    return permute_modes(big, registry.modes)


def vacuum(registry):
    amps = np.zeros(registry.dim, dtype=complex)
    amps[0] = 1.0
    return FockVector(registry, amps, normalized=True)


def identity(registry):
    return FockOperator(registry, np.eye(registry.dim), hermitian=True)


def coherent_state(alpha, cutoff, label="mode"):
    """Truncated coherent state on a fresh single-mode registry."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    reg = ModeRegistry([label], cutoff)
    return FockVector(reg, coherent_amplitudes(alpha, cutoff))


def ladder_operator(registry, mode, kind):
    """Creation or annihilation operator on one mode, identity elsewhere;
    creation annihilates the top truncated level."""
    if kind not in ("creation", "annihilation"):
        raise ValueError(f"kind must be 'creation' or 'annihilation', "
                         f"got {kind!r}")
    ax = registry.axis(mode)
    d = registry.local_dim
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    mats = [np.eye(d)] * registry.n_modes
    mats[ax] = a if kind == "annihilation" else a.T
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return FockOperator(registry, out)


def tensor(a, b):
    """Kronecker product of two vectors or two operators on disjoint
    registries."""
    if set(a.registry.modes) & set(b.registry.modes):
        raise ValueError("tensor factors share mode labels")
    if a.registry.cutoff != b.registry.cutoff:
        raise ValueError("tensor factors have different cutoffs")
    reg = ModeRegistry(a.registry.modes + b.registry.modes, a.registry.cutoff)
    if isinstance(a, FockVector) and isinstance(b, FockVector):
        return FockVector(reg, np.kron(a.amplitudes, b.amplitudes))
    return FockOperator(reg, np.kron(a.matrix, b.matrix),
                        hermitian=a.hermitian and b.hermitian)


def commutator_norm(A, B):
    """Frobenius norm of ``AB - BA``."""
    _require_same_registry(A, B)
    return float(np.linalg.norm(A.matrix @ B.matrix - B.matrix @ A.matrix))


def expectation(state, op):
    """``<state| op |state>``."""
    _require_same_registry(state, op)
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def fidelity(a, b):
    """``|<a|b>|^2`` after normalizing both vectors."""
    _require_same_registry(a, b)
    ov = np.vdot(a.amplitudes, b.amplitudes)
    return float(abs(ov) ** 2 / (a.norm2() * b.norm2()))


# ---------------------------------------------------------------------------
# Bob's measurement, densely


def detection_registry(n_bins, cutoff):
    """Registry of the 2N detection wires for key bins 1..N, path-major:
    wire (0, i) feeds detector D0 and wire (1, i) detector D1."""
    modes = [(0, i) for i in range(1, n_bins + 1)] + \
            [(1, i) for i in range(1, n_bins + 1)]
    return ModeRegistry(modes, cutoff)


def pattern_diagonal(registry, pattern):
    """Diagonal (0/1) of the projector onto a click pattern, on any registry
    containing the detection wires (identity on other modes)."""
    diag = np.ones(registry.dim)
    for i, (d0, d1) in enumerate(pattern, start=1):
        for path, clicked in ((0, d0), (1, d1)):
            occ = registry.occupations((path, i))
            diag = diag * ((occ >= 1) if clicked else (occ == 0))
    return diag


def signal_registry(n_bins, cutoff):
    """Registry of the signal-path input modes, time bins 0..N."""
    return ModeRegistry([(0, i) for i in range(n_bins + 1)], cutoff)


def build_projector_effects(n_bins, cutoff):
    """The full 4^N family of projector effects on the detection wires,
    in ``all_click_patterns`` order: diagonal, idempotent, mutually
    orthogonal, summing to the identity."""
    if n_bins > 3:
        raise ValueError("full enumeration is desk scale (N <= 3); "
                         "build single patterns via pattern_diagonal instead")
    reg = detection_registry(n_bins, cutoff)
    return {p: FockOperator(reg, np.diag(pattern_diagonal(reg, p)),
                            hermitian=True)
            for p in all_click_patterns(n_bins)}


def t_term_numeric(n, m, cutoff):
    """``<0| (a0+a1)^n (A1-A2)^m |0>`` by dense matrix application."""
    if cutoff < max(n, m):
        raise ValueError("cutoff must be at least max(n, m)")
    reg = signal_registry(2, cutoff)
    raise1 = ladder_operator(reg, (0, 1), "creation").matrix
    raise2 = ladder_operator(reg, (0, 2), "creation").matrix
    lower0 = ladder_operator(reg, (0, 0), "annihilation").matrix
    lower1 = ladder_operator(reg, (0, 1), "annihilation").matrix
    v = vacuum(reg).amplitudes.copy()
    for _ in range(m):
        v = (raise1 - raise2) @ v
    for _ in range(n):
        v = (lower0 + lower1) @ v
    val = complex(v[0])
    if abs(val.imag) > 1e-12:
        raise AssertionError(f"contraction came out complex: {val}")
    return val.real


def dense_effects(effects):
    """Scatter photon-number block effects into full matrices on the
    signal registry: ``{pattern: matrix}``."""
    dim = sum(len(s) for s in effects.states)
    out = {}
    for k, p in enumerate(effects.patterns):
        m = np.zeros((dim, dim), dtype=complex)
        for states, block in zip(effects.states, effects.blocks):
            m[np.ix_(states, states)] = block[k]
        out[p] = m
    return out


def dense_reduced_effects(n_bins, cutoff, config, patterns, boundary):
    """Reduced effects as full matrices, each the sum over sectors of the
    Gram matrices of its image rows, scattered by registry index."""
    bins = n_bins + 1
    dim = (cutoff + 1) ** bins
    strides = (cutoff + 1) ** np.arange(bins - 1, -1, -1)
    mats = {p: np.zeros((dim, dim), dtype=complex) for p in patterns}
    for outputs, inputs, images in _lift(
            config, bins, bins * cutoff, [cutoff] * bins + [0] * bins, 0):
        block = np.ix_(*2 * [inputs[:, :bins] @ strides])
        pids = _pattern_ids(outputs, n_bins)
        silent = (outputs[:, 0] == 0) & (outputs[:, bins] == 0)
        for p in patterns:
            rows = pids == pattern_index(p)
            if boundary == "vacuum":
                rows &= silent
            W = images[rows]
            mats[p][block] = W.conj().T @ W
    return mats


def dense_e2_e3(cutoff):
    """The two illustrative closed forms, summed term by term from
    ladder-operator powers on the cutoff-`cutoff` signal registry."""
    reg = signal_registry(2, cutoff)
    a0, a1, a2 = (ladder_operator(reg, (0, i), "creation").matrix
                  for i in range(3))

    def one(raiser):
        E = np.zeros((reg.dim, reg.dim), dtype=complex)
        v = vacuum(reg).amplitudes.copy()
        for n in range(1, 2 * cutoff + 1):
            v = raiser @ v
            if not np.any(v):
                break
            E += np.outer(v, v.conj()) / (4 ** n * math.factorial(n))
        return E

    return one(a0 + a1), one(a1 - a2)


def dense_certification(cutoff, config=None):
    """Every numeric field of ``certify_noncommutativity(cutoff,
    config=config)``, from dense operators, as a dict."""
    config = config or InterferometerConfig.compensated()
    pats = all_click_patterns(2)
    marginal = dense_reduced_effects(2, cutoff, config, pats, "marginal")
    silent = dense_reduced_effects(2, cutoff, config,
                                   (E2_PATTERN, E3_PATTERN), "vacuum")
    diags = [pattern_diagonal(detection_registry(2, cutoff), p) for p in pats]
    g_comm = g_orth = 0.0
    for di, dj in itertools.combinations(diags, 2):
        g_orth = max(g_orth, float(np.max(np.abs(di * dj))))
        g_comm = max(g_comm, float(np.linalg.norm(di * dj - dj * di)))
    pairs = ((E2_PATTERN, E3_PATTERN), (pats[0], pats[-1]),
             (E2_PATTERN, pats[-1]))
    conj_sq = np.zeros(3)
    for outputs, _, U in sector_lift(config, 3, cutoff):
        pids = _pattern_ids(outputs, 2)
        for k, (pi, pj) in enumerate(pairs):
            conj_sq[k] += conjugated_commutator_norm(
                U, pids == pattern_index(pi), pids == pattern_index(pj)) ** 2

    def comm(a, b):
        return float(np.linalg.norm(a @ b - b @ a))

    E2c, E3c = dense_e2_e3(cutoff)
    eye = np.eye(len(E2c))
    return {
        "detection_dim": len(diags[0]),
        "wire_dim": sum(len(o) for o, _, _ in sector_lift(config, 3, cutoff)),
        "g_comm_max": g_comm,
        "g_idempotency_max": max(float(np.max(np.abs(d * d - d)))
                                 for d in diags),
        "g_orthogonality_max": g_orth,
        "g_sum_defect": float(np.max(np.abs(sum(diags) - 1.0))),
        "conjugated_comm_max": float(np.sqrt(conj_sq.max())),
        "e2e3_comm_norm": comm(E2c, E3c),
        "e2e3_comm_norm_reduced": comm(silent[E2_PATTERN], silent[E3_PATTERN]),
        "e2e3_comm_norm_marginal": comm(marginal[E2_PATTERN],
                                        marginal[E3_PATTERN]),
        "e2_reduction_gap": float(np.linalg.norm(E2c - silent[E2_PATTERN], 2)),
        "e3_reduction_gap": float(np.linalg.norm(E3c - silent[E3_PATTERN], 2)),
        "e_sum_defect": float(np.max(np.abs(sum(marginal.values()) - eye))),
        "e_min_eigenvalue": min(float(np.linalg.eigvalsh(m)[0])
                                for m in marginal.values()),
    }


# ---------------------------------------------------------------------------
# the entanglement-based state, on its dense registry


def eb_registry(state):
    """Registry of the photonic modes of an ``entangled.EbState``: one
    signal-path mode per pulse, at the cutoff of its factor."""
    return ModeRegistry([(0, i) for i in range(state.n_pulses)],
                        state.factor.shape[1] - 1)


def alice_reduced_density(state):
    """Alice's reduced density matrix: the Kronecker product of every
    factor's normalized 2x2 Gram matrix, exact because the state is a
    product over bins.

    Raises ValueError, before allocating, when the 2^(N+1) x 2^(N+1)
    result exceeds ``optics.DEFAULT_MAX_STATE_ENTRIES``.
    """
    entries = 4 ** state.n_pulses
    if entries > DEFAULT_MAX_STATE_ENTRIES:
        raise ValueError(f"reduced density of {state.n_pulses} qubits has "
                         f"{entries} entries, above the bound "
                         f"{DEFAULT_MAX_STATE_ENTRIES}")
    gram = state.factor @ state.factor.conj().T
    rho = np.ones((1, 1))
    for _ in range(state.n_pulses):
        rho = np.kron(rho, gram / np.trace(gram).real)
    return rho


def eb_norm2(state):
    """Squared norm of an ``entangled.EbState``: the product of its
    factors' squared norms."""
    out = 1.0
    for _ in range(state.n_pulses):
        out *= float(np.sum(np.abs(state.factor) ** 2))
    return out


def factor_schmidt_values(state):
    """Schmidt coefficients of the factor (both nonzero iff entangled)."""
    f = state.factor
    return np.linalg.svd(f, compute_uv=False) / np.linalg.norm(f)


def von_neumann_entropy(rho):
    """Entropy in bits of a density matrix."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def alice_measure(state, rng):
    """Project Alice's register in the computational basis, bin by bin.

    Returns ``(s_prime, collapsed)``: the sampled bit string (uniform by
    construction) and the post-measurement photonic state, which is the
    corresponding pulse-train vector.
    """
    bits = np.empty(state.n_pulses, dtype=np.uint8)
    vec = np.ones(1)
    for i in range(state.n_pulses):
        bits[i] = rng.random() < state.factor_born_probabilities()[1]
        vec = np.kron(vec, state.collapsed_bin_state(bits[i]))
    return bits, FockVector(eb_registry(state), vec, normalized=True)


def pulse_train_vector(state, s_prime):
    """The P&M pulse-train vector for a given S', on the same registry and
    cutoff as the EB state (normalized)."""
    reg = eb_registry(state)
    vec = np.ones(1)
    for b in np.asarray(s_prime, dtype=int):
        row = coherent_amplitudes((-1) ** b * state.alpha, reg.cutoff)
        vec = np.kron(vec, row / np.linalg.norm(row))
    return FockVector(reg, vec, normalized=True)
