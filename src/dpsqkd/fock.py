"""Truncated multimode bosonic Fock spaces: mode registries, state
vectors and coherent amplitudes.

A :class:`ModeRegistry` is an ordered list of mode labels with a common
per-mode photon-number cutoff.  Its basis is the occupation-number basis
in registry order, laid out Kronecker style (first mode = most
significant axis), so every reshape to ``(d, d, ..., d)`` puts one mode
on one axis.

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


# ---------------------------------------------------------------------------
# constructors


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
