"""Truncated multimode bosonic Fock spaces: mode registries and coherent
amplitudes.

A :class:`ModeRegistry` is an ordered list of mode labels with a common
per-mode photon-number cutoff.  Its basis is the occupation-number basis
in registry order, laid out Kronecker style (first mode = most
significant axis), so every reshape to ``(d, d, ..., d)`` puts one mode
on one axis.

A registry is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np


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
