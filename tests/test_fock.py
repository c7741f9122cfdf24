"""Truncated Fock-space algebra: the library's registries, vectors and
coherent amplitudes, and the dense operators of the test oracle."""

import math

import numpy as np
import pytest
from scipy import stats

from dpsqkd.fock import FockVector, ModeRegistry
from fock_oracle import (FockOperator, basis_state, coherent_state,
                         commutator_norm, expectation, identity,
                         ladder_operator, number_operator, tensor, vacuum)


def test_registry_validation():
    with pytest.raises(ValueError):
        ModeRegistry([(0, 0), (0, 0)], 2)
    with pytest.raises(ValueError):
        ModeRegistry([(0, 0)], 0)
    reg = ModeRegistry([(0, 0), (0, 1), (1, 0)], 3)
    assert reg.dim == 4 ** 3
    assert reg.axis((0, 1)) == 1
    with pytest.raises(ValueError):
        reg.axis("nope")


def test_occupations_indexing():
    reg = ModeRegistry(["a", "b"], 2)
    occ_a = reg.occupations("a")
    occ_b = reg.occupations("b")
    for idx in range(reg.dim):
        assert idx == occ_a[idx] * 3 + occ_b[idx]


def test_coherent_vacuum_case():
    v = coherent_state(0.0, 5)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)
    assert v.norm() == 1.0


def test_coherent_norm_equals_poisson_partial_sum():
    # independent oracle: direct summation of the Poisson pmf
    alpha = 0.45
    mu = alpha ** 2
    for cutoff in (3, 10):
        v = coherent_state(alpha, cutoff)
        partial = math.fsum(math.exp(-mu) * mu ** n / math.factorial(n)
                            for n in range(cutoff + 1))
        assert abs(v.norm2() - partial) < 5e-15
        assert v.norm2() < 1.0


def test_coherent_norm_plus_tail_is_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = rng.uniform(0.1, 1.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        cutoff = int(rng.integers(2, 12))
        v = coherent_state(alpha, cutoff)
        # scipy's Poisson survival function is an oracle independent of
        # the package; 1 - sum(pmf) would restate the norm itself
        tail = stats.poisson.sf(cutoff, abs(alpha) ** 2)
        assert abs(v.norm2() + tail - 1.0) < 1e-12


def test_coherent_mean_photon_number():
    v = coherent_state(0.45, 20)
    reg = v.registry
    n_op = number_operator(reg, reg.modes[0])
    assert abs(expectation(v, n_op).real - 0.2025) < 1e-10


def test_coherent_rejects_nonfinite():
    with pytest.raises(ValueError):
        coherent_state(float("nan"), 3)
    with pytest.raises(ValueError):
        coherent_state(complex(1.0, float("inf")), 3)


def test_ladder_definitions():
    reg = ModeRegistry(["m"], 4)
    create = ladder_operator(reg, "m", "creation")
    destroy = ladder_operator(reg, "m", "annihilation")
    vac = vacuum(reg)
    one = create @ vac
    assert np.allclose(one.amplitudes, basis_state(reg, [1]).amplitudes)
    assert np.all((destroy @ vac).amplitudes == 0.0)
    # creation annihilates the top truncated level
    top = basis_state(reg, [4])
    assert np.all((create @ top).amplitudes == 0.0)
    with pytest.raises(ValueError):
        ladder_operator(reg, "nope", "creation")
    with pytest.raises(ValueError):
        ladder_operator(reg, "m", "sideways")


def test_canonical_commutator_below_truncation():
    reg = ModeRegistry(["m"], 6)
    a = ladder_operator(reg, "m", "annihilation")
    ad = ladder_operator(reg, "m", "creation")
    comm = (a @ ad).matrix - (ad @ a).matrix
    # identity on levels n < cutoff, -cutoff at the truncated top level
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    for n in range(6):
        e = basis_state(reg, [n]).amplitudes
        assert np.allclose(comm @ e, e)


def test_tensor_vacuum_and_identity():
    v0 = vacuum(ModeRegistry(["a"], 2))
    v1 = vacuum(ModeRegistry(["b"], 2))
    both = tensor(v0, v1)
    assert both.registry.modes == ("a", "b")
    assert both.amplitudes[0] == 1.0


def test_tensor_mixed_product_identity():
    rng = np.random.default_rng(4)
    regA = ModeRegistry(["a"], 2)
    regB = ModeRegistry(["b"], 2)
    A = FockOperator(regA, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    B = FockOperator(regB, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    lhs = tensor(A, identity(regB)) @ tensor(identity(regA), B)
    rhs = tensor(A, B)
    assert np.allclose(lhs.matrix, rhs.matrix)


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(5)
    a = FockVector(ModeRegistry(["a"], 3), rng.normal(size=4) + 1j * rng.normal(size=4))
    b = FockVector(ModeRegistry(["b"], 3), rng.normal(size=4) + 1j * rng.normal(size=4))
    assert abs(tensor(a, b).norm() - a.norm() * b.norm()) < 1e-12


def test_tensor_rejects_overlap():
    a = vacuum(ModeRegistry(["a"], 2))
    with pytest.raises(ValueError):
        tensor(a, a)


def test_commutator_norm_cases():
    reg = ModeRegistry(["m"], 3)
    a = ladder_operator(reg, "m", "annihilation")
    assert commutator_norm(a, a) == 0.0
    ad = ladder_operator(reg, "m", "creation")
    assert commutator_norm(a, ad) > 0.5
    other = identity(ModeRegistry(["x"], 3))
    with pytest.raises(ValueError):
        commutator_norm(a, other)


def test_expectation_cases():
    reg = ModeRegistry(["m"], 8)
    vac = vacuum(reg)
    n_op = number_operator(reg, "m")
    assert expectation(vac, n_op) == 0.0
    v = coherent_state(0.6, 8, label="m")
    got = expectation(v, n_op).real / v.norm2()
    assert abs(got - 0.36) < 1e-6
    with pytest.raises(ValueError):
        expectation(vac, identity(ModeRegistry(["x"], 8)))


def test_hermitian_flag_enforced():
    reg = ModeRegistry(["m"], 2)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        FockOperator(reg, m, hermitian=True)
    FockOperator(reg, m + m.conj().T, hermitian=True)


def test_vector_shape_and_normalized_flag():
    reg = ModeRegistry(["m"], 2)
    with pytest.raises(ValueError):
        FockVector(reg, np.ones(4))
    with pytest.raises(ValueError):
        FockVector(reg, np.ones(3), normalized=True)
    FockVector(reg, np.array([1.0, 0, 0]), normalized=True)


def test_arrays_are_readonly():
    v = coherent_state(0.3, 4)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 9.0
