"""Dense linear algebra over truncated multimode bosonic Fock spaces.

States and operators live on a :class:`ModeRegistry`: an ordered list of
mode labels with a common per-mode photon-number cutoff.  The basis is the
occupation-number basis in registry order, laid out Kronecker style (first
mode = most significant axis), so ``tensor`` is ``np.kron`` and every
reshape to ``(d, d, ..., d)`` puts one mode on one axis.

Values are immutable after construction (arrays are marked read-only) and
safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: norm / completeness tolerance used wherever coherent-state tails appear
TRUNCATION_TOL = 1e-9

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered set of bosonic modes sharing one photon-number cutoff.

    Parameters
    ----------
    modes : sequence of hashable labels
        Mode labels, typically ``(path, time_bin)`` tuples.  Order is fixed
        for the registry's lifetime; the convention used throughout this
        package is path-major, time-bin minor.
    cutoff : int
        Maximum photon number per mode; local dimension is ``cutoff + 1``.
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
    def local_dim(self) -> int:
        return self.cutoff + 1

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return self.local_dim ** self.n_modes

    def axis(self, mode) -> int:
        """Tensor axis of a mode label."""
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode label {mode!r}") from None

    def occupations(self, mode) -> np.ndarray:
        """Occupation of `mode` for every basis state, as a length-dim array."""
        ax = self.axis(mode)
        d = self.local_dim
        stride = d ** (self.n_modes - 1 - ax)
        return (np.arange(self.dim) // stride) % d


def _require_integers(**values):
    """Refuse, by name, the first value that is not an integer (a bool
    included) with a one-line ValueError."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockVector:
    """State vector over a registry; ``amplitudes[i]`` indexes the
    occupation basis in Kronecker order."""

    registry: ModeRegistry
    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size != self.registry.dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match registry "
                f"dimension {self.registry.dim}")
        object.__setattr__(self, "amplitudes", _readonly(amps))
        if self.normalized and abs(self.norm2() - 1.0) > TRUNCATION_TOL:
            raise ValueError("vector flagged normalized is not normalized")

    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return math.sqrt(self.norm2())


@dataclass(frozen=True)
class FockOperator:
    """Dense operator over a registry, optionally certified hermitian."""

    registry: ModeRegistry
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = self.registry.dim
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match registry dimension {dim}")
        if self.hermitian:
            dev = np.max(np.abs(m - m.conj().T))
            if dev > _HERMITIAN_TOL:
                raise ValueError(
                    f"operator flagged hermitian deviates by {dev:.3e} "
                    f"(tolerance {_HERMITIAN_TOL})")
        object.__setattr__(self, "matrix", _readonly(m))

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            _require_same_registry(self, other)
            return FockOperator(self.registry, self.matrix @ other.matrix)
        if isinstance(other, FockVector):
            _require_same_registry(self, other)
            return FockVector(self.registry, self.matrix @ other.amplitudes)
        return NotImplemented


def _require_same_registry(a, b):
    if a.registry != b.registry:
        raise ValueError("operands live on different mode registries")


# ---------------------------------------------------------------------------
# constructors


def coherent_state(alpha: complex, cutoff: int, label="mode") -> FockVector:
    """Truncated coherent state ``|alpha>`` on a fresh single-mode registry.

    Component ``n`` is ``exp(-|alpha|^2/2) alpha^n / sqrt(n!)`` for
    ``n <= cutoff``; the squared norm falls short of 1 by the Poisson tail
    beyond the cutoff.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    reg = ModeRegistry([label], cutoff)
    return FockVector(reg, coherent_amplitudes(alpha, cutoff))


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Length ``cutoff+1`` amplitude array of a truncated coherent state."""
    n = np.arange(cutoff + 1)
    logfact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff + 1))]))
    mag = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - logfact / 2) \
        if alpha != 0 else np.concatenate([[1.0], np.zeros(cutoff)])
    phase = np.ones(cutoff + 1, dtype=complex)
    if alpha != 0:
        phase = (alpha / abs(alpha)) ** n
    return mag * phase


def vacuum(registry: ModeRegistry) -> FockVector:
    amps = np.zeros(registry.dim, dtype=complex)
    amps[0] = 1.0
    return FockVector(registry, amps, normalized=True)


def identity(registry: ModeRegistry) -> FockOperator:
    return FockOperator(registry, np.eye(registry.dim, dtype=complex), hermitian=True)


def ladder_matrix(cutoff: int, kind: str) -> np.ndarray:
    """Single-mode ladder matrix; creation annihilates the top level."""
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)
    if kind == "annihilation":
        return a
    if kind == "creation":
        return a.conj().T
    raise ValueError(f"kind must be 'creation' or 'annihilation', got {kind!r}")


def ladder_operator(registry: ModeRegistry, mode, kind: str) -> FockOperator:
    """Creation or annihilation operator on one mode, identity elsewhere."""
    ax = registry.axis(mode)
    d = registry.local_dim
    single = ladder_matrix(registry.cutoff, kind)
    mats = [np.eye(d, dtype=complex)] * registry.n_modes
    mats[ax] = single
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return FockOperator(registry, out)


# ---------------------------------------------------------------------------
# algebra


def tensor(a, b):
    """Kronecker product of two vectors or two operators on disjoint registries."""
    if set(a.registry.modes) & set(b.registry.modes):
        raise ValueError("tensor factors share mode labels")
    if a.registry.cutoff != b.registry.cutoff:
        raise ValueError("tensor factors have different cutoffs")
    reg = ModeRegistry(a.registry.modes + b.registry.modes, a.registry.cutoff)
    if isinstance(a, FockVector) and isinstance(b, FockVector):
        return FockVector(reg, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, FockOperator) and isinstance(b, FockOperator):
        return FockOperator(reg, np.kron(a.matrix, b.matrix),
                            hermitian=a.hermitian and b.hermitian)
    raise TypeError("tensor arguments must be two FockVectors or two FockOperators")


def commutator_norm(A: FockOperator, B: FockOperator) -> float:
    """Frobenius norm of ``AB - BA``."""
    _require_same_registry(A, B)
    C = A.matrix @ B.matrix
    C = C - B.matrix @ A.matrix
    return float(np.linalg.norm(C))


def expectation(state: FockVector, op: FockOperator) -> complex:
    """``<state| op |state>``; real to 1e-12 when `op` is flagged hermitian."""
    _require_same_registry(state, op)
    val = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    if op.hermitian and abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise AssertionError(f"hermitian expectation has imaginary part {val.imag:.3e}")
    return val


def fidelity(a: FockVector, b: FockVector) -> float:
    """``|<a|b>|^2`` after normalizing both vectors."""
    _require_same_registry(a, b)
    ov = np.vdot(a.amplitudes, b.amplitudes)
    return float(abs(ov) ** 2 / (a.norm2() * b.norm2()))

