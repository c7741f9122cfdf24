"""Witness assembly, the diagonal positivity theorem, and the search."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsqkd import witness as witness_module
from dpsqkd.witness import (DiagonalWitness, _decompose, _unit_vector_grid,
                            bb84_effect_family, bell_state_density,
                            commutation_table,
                            diagonal_positivity_theorem_check,
                            family_completeness_defect,
                            hermitian_product_basis,
                            min_separable_expectation, projector,
                            qubit_projective_effects, witness_search)


def test_separable_min_identity():
    res = min_separable_expectation(np.eye(4, dtype=complex), (2, 2))
    assert abs(res.value - 1.0) < 1e-9


def test_separable_min_diagonal_negative_entry():
    lam = np.array([[0.5, -0.8], [0.3, 0.2]])
    W = DiagonalWitness(lam).assemble()
    res = min_separable_expectation(W, (2, 2))
    assert res.value <= -0.8 + 1e-9


def test_separable_min_swap_like_witness():
    W = np.eye(4, dtype=complex) - 2.0 * bell_state_density()
    res = min_separable_expectation(W, (2, 2))
    assert abs(res.value) < 1e-3
    # the achieving product state is recorded
    prod = np.kron(res.state_a, res.state_b)
    assert abs(np.real(prod.conj() @ W @ prod) - res.value) < 1e-9


def test_separable_min_on_3x3():
    rng = np.random.default_rng(5)
    H = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    W = H + H.conj().T
    res = min_separable_expectation(W, (3, 3), grid_points=600)
    # sits between the global minimum and the largest eigenvalue
    evs = np.linalg.eigvalsh(W)
    assert evs[0] - 1e-9 <= res.value <= evs[-1]


def test_desk_scale_guard():
    with pytest.raises(ValueError):
        min_separable_expectation(np.eye(25, dtype=complex), (5, 5))
    # and the malformed operators the entry points refuse, in one line
    five = [np.eye(5, dtype=complex)]
    for call, needle in (
            (lambda: min_separable_expectation(np.triu(np.ones((4, 4))),
                                               (2, 2)),
             "witness operator is not hermitian"),
            (lambda: DiagonalWitness(np.ones(3)),
             "lambdas must be a 2-d real matrix"),
            (lambda: witness_search(five, five, np.eye(25) / 25),
             "effect dimensions above desk scale")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == needle


def test_diagonal_theorem_nonnegative_draws():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dA, dB = rng.integers(2, 5, size=2)
        lam = rng.uniform(0.0, 1.0, size=(dA, dB))
        res = diagonal_positivity_theorem_check(DiagonalWitness(lam))
        assert res.passed
        assert res.w_min_eigenvalue >= -1e-12


def test_diagonal_theorem_negative_entry_exhibits_violation():
    rng = np.random.default_rng(3)
    for _ in range(5):
        lam = rng.uniform(0.1, 1.0, size=(2, 3))
        lam[rng.integers(2), rng.integers(3)] = -rng.uniform(0.2, 1.0)
        res = diagonal_positivity_theorem_check(DiagonalWitness(lam))
        assert res.passed
        assert res.violating_pair is not None
        assert res.violating_expectation < 0.0
        a, b = res.violating_pair
        assert abs(res.violating_expectation - lam[a, b]) < 1e-12


def test_diagonal_theorem_zero_matrix_degenerate_pass():
    res = diagonal_positivity_theorem_check(DiagonalWitness(np.zeros((2, 2))))
    assert res.passed
    assert res.w_min_eigenvalue >= -1e-12


def test_diagonal_witness_nondefault_basis():
    # rotated product bases behave the same way
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                   dtype=complex)
    lam = np.array([[0.4, 0.1], [-0.3, 0.9]])
    w = DiagonalWitness(lam, basis_a=rot, basis_b=rot)
    res = diagonal_positivity_theorem_check(w)
    assert res.passed and res.violating_expectation < 0


def test_effect_families():
    assert family_completeness_defect(qubit_projective_effects()) < 1e-12
    assert family_completeness_defect(bb84_effect_family()) < 1e-12
    assert commutation_table(qubit_projective_effects()).max() < 1e-14
    assert commutation_table(bb84_effect_family()).max() > 0.1


def test_hermitian_product_basis_orthogonal():
    for d in (2, 3):
        basis = hermitian_product_basis(d)
        assert len(basis) == d * d
        for i, a in enumerate(basis):
            assert np.max(np.abs(a - a.conj().T)) < 1e-14
            for j, b in enumerate(basis):
                tr = np.trace(a.conj().T @ b).real
                assert abs(tr - (1.0 if i == j else 0.0)) < 1e-12


def test_search_finds_bell_witness_for_bb84():
    fam = bb84_effect_family()
    res = witness_search(fam, fam, bell_state_density())
    assert res.found
    c = res.candidate
    assert c.separable_min >= -1e-9
    assert c.target_expectation < -1e-4
    W = c.operator()
    assert np.max(np.abs(W - W.conj().T)) < 1e-10
    # verify from scratch with a fine grid
    fine = min_separable_expectation(W, (2, 2), grid_points=3000)
    assert fine.value >= -1e-9


def test_known_good_bell_witness_coefficients():
    # frozen pre-build: c over the BB84 families assembling to
    # (I - XX - ZZ)/4, separable min 0, Bell expectation -1/4
    fam = bb84_effect_family()
    c = np.zeros((4, 4))
    c[0, 1] = c[1, 0] = 2.0
    c[2, 2] = c[3, 3] = -1.0
    c[2, 3] = c[3, 2] = 1.0
    W = sum(c[a, b] * np.kron(fam[a], fam[b])
            for a in range(4) for b in range(4))
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    ref = 0.25 * (np.eye(4) - np.kron(X, X) - np.kron(Z, Z))
    assert np.max(np.abs(W - ref)) < 1e-14
    assert abs(np.trace(W @ bell_state_density()).real + 0.25) < 1e-12
    assert min_separable_expectation(W, (2, 2)).value >= -1e-9


def test_search_finds_nothing_for_commuting_family():
    fam = qubit_projective_effects()
    res = witness_search(fam, fam, bell_state_density())
    assert not res.found


def test_search_finds_nothing_for_separable_target():
    fam = bb84_effect_family()
    res = witness_search(fam, fam, np.eye(4, dtype=complex) / 4.0)
    assert not res.found


def test_search_random_commuting_product_diagonal_families():
    # the appendix theorem, sampled: commuting projective families can
    # never yield a witness, whatever the shared product basis
    rng = np.random.default_rng(11)
    bell = bell_state_density()
    for _ in range(4):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        fam_a = [projector(q[:, 0]), projector(q[:, 1])]
        z2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q2, _ = np.linalg.qr(z2)
        fam_b = [projector(q2[:, 0]), projector(q2[:, 1])]
        res = witness_search(fam_a, fam_b, bell)
        assert not res.found


def test_search_rejects_incomplete_family():
    fam = [0.3 * projector(np.array([1.0, 0.0]))]
    with pytest.raises(ValueError, match="incomplete"):
        witness_search(fam, fam, bell_state_density())


@pytest.mark.parametrize("side", ["alice", "bob"])
@pytest.mark.parametrize("family, needle", [
    ([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])], "positive semidefinite"),
    ([np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])],
     "hermitian"),
])
def test_search_refuses_invalid_effects(family, needle, side):
    # both families sum to the identity, so completeness alone lets them in
    assert family_completeness_defect(family) == 0.0
    fams = {"alice": bb84_effect_family(), "bob": bb84_effect_family(),
            side: family}
    with pytest.raises(ValueError, match=rf"{side} effect \d .*{needle}") \
            as info:
        witness_search(fams["alice"], fams["bob"], bell_state_density())
    assert "\n" not in str(info.value)


def test_search_resolutions():
    fam = bb84_effect_family()
    with pytest.raises(ValueError):
        witness_search(fam, fam, bell_state_density(), resolution="bogus")
    res = witness_search(fam, fam, bell_state_density(), resolution="coarse")
    # coarse may or may not find one; a miss must carry the warning
    if not res.found:
        assert res.warning is not None


@pytest.mark.parametrize("target, kwargs, needle", [
    (np.eye(3, dtype=complex) / 3.0, {}, "4x4"),
    (np.full((4, 4), np.nan, dtype=complex), {}, "finite"),
    (np.triu(np.ones((4, 4))) / 4.0, {}, "hermitian"),
    (np.eye(4, dtype=complex) / 2.0, {}, "unit trace"),
    (np.diag([0.75, 0.5, 0.0, -0.25]).astype(complex), {}, "positive"),
])
def test_search_refuses_bad_input(target, kwargs, needle):
    fam = bb84_effect_family()
    with pytest.raises(ValueError, match=needle) as info:
        witness_search(fam, fam, target, **kwargs)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("call, needle", [
    (lambda fam: min_separable_expectation(np.full((4, 4), np.nan), (2, 2)),
     "witness operator is not finite"),
    (lambda fam: min_separable_expectation(np.eye(4), (2, 2),
                                           grid_points=-5),
     "need grid_points >= 1 and seed >= 0, got -5 and 3"),
    (lambda fam: min_separable_expectation(np.eye(4), (2, 2),
                                           grid_points=0),
     "need grid_points >= 1"),
    (lambda fam: min_separable_expectation(np.eye(4), (2, 2),
                                           grid_points=2.5),
     "grid_points must be an integer, got 2.5"),
    (lambda fam: witness_search([], fam, bell_state_density()),
     r"alice effects must be one or more .* got \[\]"),
    (lambda fam: witness_search(fam, [], bell_state_density()),
     r"bob effects must be one or more .* got \[\]"),
    (lambda fam: witness_search(fam + [np.eye(3)], fam, bell_state_density()),
     r"alice effects must be one or more finite square matrices of one "
     r"size, got \[\(2, 2\), \(3, 3\)\]"),
    (lambda fam: witness_search(fam, [np.ones((2, 3))], bell_state_density()),
     r"bob effects .* got \[\(2, 3\)\]"),
    (lambda fam: witness_search(fam, [np.eye(0)], bell_state_density()),
     r"bob effects .* got \[\(0, 0\)\]"),
    (lambda fam: witness_search([np.full((2, 2), np.nan)], fam,
                                bell_state_density()),
     r"alice effects must be one or more finite .* got \[\(2, 2\)\]"),
])
def test_witness_entry_points_refuse_by_name(call, needle):
    # each malformed input is refused by what is wrong with it, in one
    # line, not by a NaN compare, a math domain error, an IndexError or a
    # broadcast message
    with pytest.raises(ValueError, match=needle) as info:
        call(bb84_effect_family())
    assert "\n" not in str(info.value)


def _scalar_separable_min(W, dims, grid_points=800, refine_steps=200,
                          n_starts=8, seed=3):
    """The per-operator loop the stacked route replaced: side-A grid,
    eigen-minimum over side B, then alternating eigen-minimizations from
    the best starts, one start and one step at a time."""
    dA, dB = dims
    W4 = W.reshape(dA, dB, dA, dB)
    cands = _unit_vector_grid(dA, grid_points, seed)
    Ma = np.einsum("si,ijkl,sk->sjl", cands.conj(), W4, cands)
    evals, evecs = np.linalg.eigh(0.5 * (Ma + np.conj(np.swapaxes(Ma, 1, 2))))
    best = np.inf
    for s in np.argsort(evals[:, 0])[:n_starts]:
        b, val = evecs[s][:, 0], evals[s, 0]
        for _ in range(refine_steps):
            Mb = np.einsum("j,ijkl,l->ik", b.conj(), W4, b)
            a = np.linalg.eigh(0.5 * (Mb + Mb.conj().T))[1][:, 0]
            Ma1 = np.einsum("i,ijkl,k->jl", a.conj(), W4, a)
            wb, vb = np.linalg.eigh(0.5 * (Ma1 + Ma1.conj().T))
            b, done, val = vb[:, 0], abs(wb[0] - val) < 1e-14, wb[0]
            if done:
                break
        best = min(best, val)
    return best


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
       count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_separable_min_matches_scalar_loop(dims, count, seed):
    rng = np.random.default_rng(seed)
    D = dims[0] * dims[1]
    H = rng.normal(size=(count, D, D)) + 1j * rng.normal(size=(count, D, D))
    Ws = H + np.swapaxes(H, 1, 2).conj()
    res = min_separable_expectation(Ws, dims, grid_points=300)
    assert res.value.shape == (count,)
    for W, value, a, b in zip(Ws, res.value, res.state_a, res.state_b):
        assert abs(value - _scalar_separable_min(W, dims, grid_points=300)) \
            < 1e-12
        prod = np.kron(a, b)
        assert abs(np.linalg.norm(a) - 1) < 1e-12
        assert abs(np.linalg.norm(b) - 1) < 1e-12
        assert abs(np.real(prod.conj() @ W @ prod) - value) < 1e-12
        assert np.linalg.eigvalsh(W)[0] - 1e-12 <= value
    single = min_separable_expectation(Ws[0], dims, grid_points=300)
    assert single.value == res.value[0]
    assert single.state_a.shape == (dims[0],)


@pytest.mark.parametrize("budget", [1, 1 << 12])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_separable_min_block_budget_changes_no_bit(dims, budget,
                                                   monkeypatch):
    # operators are independent, so blocks of one operator, or of a few
    # grid chunks and refinement blocks, give the default's bits
    rng = np.random.default_rng(dims[0] * 10 + dims[1])
    D = dims[0] * dims[1]
    H = rng.normal(size=(37, D, D)) + 1j * rng.normal(size=(37, D, D))
    Ws = H + np.swapaxes(H, 1, 2).conj()
    default = min_separable_expectation(Ws, dims, grid_points=300)
    monkeypatch.setattr(witness_module, "_GRID_BLOCK_ENTRIES", budget)
    res = min_separable_expectation(Ws, dims, grid_points=300)
    for field in ("value", "state_a", "state_b"):
        assert getattr(res, field).tobytes() == \
            getattr(default, field).tobytes()


def _six_state_family():
    s = 1.0 / np.sqrt(2.0)
    return [projector(v) / 3.0 for v in ([1.0, 0.0], [0.0, 1.0], [s, s],
                                          [s, -s], [s, 1j * s], [s, -1j * s])]


def _assert_same_bits(x, y):
    if dataclasses.is_dataclass(x):
        assert type(x) is type(y)
        for f in dataclasses.fields(x):
            _assert_same_bits(getattr(x, f.name), getattr(y, f.name))
    elif isinstance(x, tuple):
        assert len(x) == len(y)
        for u, v in zip(x, y):
            _assert_same_bits(u, v)
    elif x is None or isinstance(x, str):
        assert x == y
    else:
        assert type(x) is type(y)
        assert np.shape(x) == np.shape(y)
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("target", ["bell", "separable"])
@pytest.mark.parametrize("family, resolution", [
    (qubit_projective_effects, "coarse"), (qubit_projective_effects, "default"),
    (qubit_projective_effects, "fine"), (bb84_effect_family, "coarse"),
    (bb84_effect_family, "default"), (bb84_effect_family, "fine"),
    (_six_state_family, "coarse")])
def test_streamed_search_matches_one_block_search(family, resolution, target,
                                                  monkeypatch):
    # 2^9 entries hold 32 candidates of a two-qubit operator, so a term
    # count spans up to 567 blocks; 2^20 holds 65,536, so each is one block
    rho = bell_state_density() if target == "bell" \
        else np.eye(4, dtype=complex) / 4.0
    fam = family()
    runs = []
    for budget in (1 << 20, 1 << 9):
        monkeypatch.setattr(witness_module, "_GRID_BLOCK_ENTRIES", budget)
        runs.append(witness_search(fam, fam, rho, resolution=resolution))
    assert runs[0].candidates_tried <= (1 << 20) // 16
    _assert_same_bits(*runs)


def test_search_memory_is_bounded_by_one_block():
    # stacking a whole term count at once peaks at 21.9 MB here; one
    # block of 2^15 entries and its temporaries stay near 3 MB
    fam = bb84_effect_family()
    tracemalloc.start()
    try:
        res = witness_search(fam, fam, np.eye(4, dtype=complex) / 4.0,
                             resolution="fine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.found and res.candidates_tried == 19494
    assert peak <= 5e6


def _partial_transpose_b(M, dA, dB):
    out = np.empty_like(M)
    for i in range(dA):
        for k in range(dA):
            out[i * dB:(i + 1) * dB, k * dB:(k + 1) * dB] = \
                M[i * dB:(i + 1) * dB, k * dB:(k + 1) * dB].T
    return out


@pytest.mark.parametrize("resolution", ["default", "coarse", "fine"])
def test_found_witness_certificate_reverifies(resolution):
    fam = bb84_effect_family()
    bell = bell_state_density()
    res = witness_search(fam, fam, bell, resolution=resolution)
    assert res.found
    c = res.candidate
    W = c.operator()          # already carries the shift eps I
    Q = c.ppt_part
    assert np.linalg.eigvalsh(Q)[0] >= -1e-12
    assert np.linalg.eigvalsh(W - _partial_transpose_b(Q, 2, 2))[0] >= -1e-12
    assert 0.0 <= c.shift < 1e-9 and c.separable_min >= 0.0
    t = np.trace(W @ bell).real
    assert abs(t - c.target_expectation) < 1e-12
    assert t < -res.accept_margin


def test_decomposition_certifies_known_witness():
    # I - 2|Bell><Bell| is nonnegative on product states; its minimum 0 is
    # attained on |01>, so the certified bound must reach it
    W = np.eye(4, dtype=complex) - 2.0 * bell_state_density()
    Q, lower = _decompose(W, (2, 2))
    assert -1e-10 <= lower <= 1e-12
    assert np.linalg.eigvalsh(Q)[0] >= -1e-12
    # on operators negative on product states the bound stays sound: it
    # never exceeds the value a product state attains
    rng = np.random.default_rng(4)
    for dims in ((2, 2), (2, 3)):
        H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        W = (H + H.conj().T)[:dims[0] * dims[1], :dims[0] * dims[1]]
        sep = min_separable_expectation(W, dims).value
        assert _decompose(W, dims)[1] <= sep + 1e-12


@pytest.mark.parametrize("lower", [-1.0, -0.3])
def test_acceptance_rests_on_the_certificate(lower, monkeypatch):
    # a certificate that proves only W >= lower on product states forces
    # the shift eps = -lower: the Bell witness (Tr(W rho) = -0.5) survives
    # eps = 0.3 at the same candidate and fails with eps = 1
    fam = bb84_effect_family()
    plain = witness_search(fam, fam, bell_state_density())
    monkeypatch.setattr(witness_module, "_decompose",
                        lambda W, dims: (np.zeros_like(W), lower))
    res = witness_search(fam, fam, bell_state_density())
    if lower == -1.0:
        assert not res.found
        return
    c = res.candidate
    assert res.candidates_tried == plain.candidates_tried
    assert c.shift == 0.3 and c.separable_min == 0.0
    assert abs(c.target_expectation + 0.2) < 1e-9
    W_plain = plain.candidate.operator() - plain.candidate.shift * np.eye(4)
    assert np.max(np.abs(c.operator() - 0.3 * np.eye(4) - W_plain)) < 1e-9
