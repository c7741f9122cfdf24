"""The dense test-only helpers of :mod:`fock_oracle`."""

import numpy as np

from dpsqkd import fock
from dpsqkd.fock import FockOperator, ModeRegistry
from fock_oracle import basis_state, embed, permute_modes


def test_vacuum_and_basis_state():
    reg = ModeRegistry(["a", "b"], 2)
    v = fock.vacuum(reg)
    assert v.amplitudes[0] == 1.0
    assert v.norm() == 1.0
    b = basis_state(reg, [1, 2])
    assert b.amplitudes[reg.basis_index([1, 2])] == 1.0


def test_permute_and_embed():
    rng = np.random.default_rng(9)
    regAB = ModeRegistry(["a", "b"], 2)
    M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    op = FockOperator(regAB, M)
    swapped = permute_modes(op, ["b", "a"])
    back = permute_modes(swapped, ["a", "b"])
    assert np.allclose(back.matrix, M)

    regABC = ModeRegistry(["a", "b", "c"], 2)
    big = embed(op, regABC)
    # acts as identity on c: expectation on product states factorizes
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    full = np.kron(v, w)
    lhs = full.conj() @ big.matrix @ full
    rhs = (v.conj() @ M @ v) * (w.conj() @ w)
    assert abs(lhs - rhs) < 1e-10
