"""The dense test-only helpers of :mod:`fock_oracle`."""

import numpy as np
import pytest

from dpsqkd.fock import ModeRegistry
from dpsqkd.povm import all_click_patterns, detection_registry
from fock_oracle import (FockOperator, basis_index, basis_state,
                         build_projector_effects, embed, expectation,
                         permute_modes, vacuum)


def test_vacuum_and_basis_state():
    reg = ModeRegistry(["a", "b"], 2)
    v = vacuum(reg)
    assert v.amplitudes[0] == 1.0
    assert v.norm() == 1.0
    b = basis_state(reg, [1, 2])
    assert b.amplitudes[basis_index(reg, [1, 2])] == 1.0


def test_basis_index():
    reg = ModeRegistry(["a", "b"], 2)
    assert basis_index(reg, [2, 1]) == 7
    occ_a, occ_b = reg.occupations("a"), reg.occupations("b")
    assert all(basis_index(reg, [occ_a[i], occ_b[i]]) == i
               for i in range(reg.dim))


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


def test_effect_family_structure():
    effects = build_projector_effects(2, 3)
    assert list(effects) == list(all_click_patterns(2))
    mats = [E.matrix for E in effects.values()]
    assert len(mats) == 16
    eye = np.eye(detection_registry(2, 3).dim)
    assert np.max(np.abs(sum(mats) - eye)) <= 1e-10
    for m in mats:
        assert np.max(np.abs(m @ m - m)) <= 1e-12
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.max(np.abs(mats[i] @ mats[j])) <= 1e-12
            comm = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            assert comm <= 1e-12


def test_all_vacuum_effect_fixes_vacuum():
    g1 = build_projector_effects(2, 3)[all_click_patterns(2)[0]]
    vac = vacuum(g1.registry)
    assert abs(expectation(vac, g1).real - 1.0) < 1e-14


def test_enumeration_guard():
    with pytest.raises(ValueError):
        build_projector_effects(4, 2)
