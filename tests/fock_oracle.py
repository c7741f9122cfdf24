"""Independent Fock-space oracle for the delay interferometer, numpy only.

:func:`dense_unitary` exponentiates ``G = sum_jk H_jk b_j^dag b_k``, the
second-quantized generator of the mode map ``u = exp(iH)``, block by block
in total photon number.  It is exact on every sector n <= cutoff and shares
no code with the creation-operator recursion of ``optics.sector_lift``.
The dense helpers below it (basis states, number operators, mode
permutation and embedding) serve only tests.
"""

import itertools

import numpy as np

from dpsqkd.fock import (FockOperator, FockVector, ModeRegistry,
                         coherent_amplitudes, identity, tensor)
from dpsqkd.optics import sector_lift, single_particle_unitary, wire_registry


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
            sector_lift(config, bins, n_max, caps)):
        psi = np.prod(coh[:, range(pulses), inputs[:, :pulses]], -1) @ images.T
        norm = norm + np.sum(np.abs(psi) ** 2, axis=1)
        for w in range(2 * bins) if n else ():
            has = outputs[:, w] > 0
            low = np.searchsorted(codes, outputs[has] @ strides - strides[w])
            num[:, w] += (prev[:, low].conj() * psi[:, has]) @ np.sqrt(
                outputs[has, w])
        prev, codes = psi, outputs @ strides
    return num / norm[:, None]


def basis_state(registry, occupations):
    amps = np.zeros(registry.dim, dtype=complex)
    amps[registry.basis_index(occupations)] = 1.0
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
