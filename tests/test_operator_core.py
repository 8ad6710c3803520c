import math

import numpy as np
import pytest

from thermomi import (
    DimPair,
    EigensolverError,
    HermiticityError,
    OperatorError,
    eigh,
    kron,
    partial_trace,
    require_hermitian,
)
from thermomi.models import PAULI_X, PAULI_Y, PAULI_Z

from oracles import (
    SpectralDomainError,
    brute_kron,
    brute_partial_trace,
    frobenius_norm,
    oracle_expm_taylor,
    random_density,
    random_hermitian,
    spectral_apply,
    xy_thermal_density,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_non_square_rejected():
    with pytest.raises(OperatorError):
        require_hermitian(np.zeros((2, 3)))


def test_non_finite_rejected():
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(OperatorError):
        require_hermitian(m)


def test_non_hermitian_rejected_not_symmetrized():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError):
        require_hermitian(m)


def test_hermitian_accepted_within_tolerance():
    m = PAULI_X + 1e-14 * np.array([[0, 1j], [0, 0]])
    require_hermitian(m)


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_sigma_z_identity():
    expected = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    assert np.array_equal(kron(PAULI_Z, np.eye(2)), expected)


def test_kron_xy_coupling_matches_brute_force():
    # oracle: explicit four-index expansion of both products
    expected = brute_kron(PAULI_X, PAULI_X) + brute_kron(PAULI_Y, PAULI_Y)
    got = kron(PAULI_X, PAULI_X) + kron(PAULI_Y, PAULI_Y)
    assert frobenius_norm(got - expected) == 0.0
    # the sum has 2 exactly in the central off-diagonal slots, zero elsewhere
    literal = np.zeros((4, 4), dtype=complex)
    literal[1, 2] = literal[2, 1] = 2.0
    assert frobenius_norm(expected - literal) == 0.0


def test_kron_associative_exact_on_dyadic_entries():
    # integer entries make every product exact, so equality can be literal
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = (
            (rng.integers(-4, 5, (d, d)) + 1j * rng.integers(-4, 5, (d, d))).astype(complex)
            for d in (2, 3, 2)
        )
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.array_equal(left, right)
        assert left.shape == (12, 12)


def test_kron_random_against_brute_force():
    rng = np.random.default_rng(11)
    for da, db in [(2, 2), (2, 3), (3, 4)]:
        a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
        b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
        assert frobenius_norm(kron(a, b) - brute_kron(a, b)) < 1e-13


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho_a = random_density(rng, 3)
    rho_b = random_density(rng, 2)
    joint = kron(rho_a, rho_b)
    dims = DimPair(3, 2)
    assert frobenius_norm(partial_trace(joint, dims, "A") - rho_a) < 1e-12
    assert frobenius_norm(partial_trace(joint, dims, "B") - rho_b) < 1e-12


def test_partial_trace_bell_state():
    phi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    rho = np.outer(phi, phi.conj())
    for keep in ("A", "B"):
        reduced = partial_trace(rho, DimPair(2, 2), keep)
        assert frobenius_norm(reduced - np.eye(2) / 2) < 1e-14


def test_partial_trace_scaling_identity():
    # Tr_B[a (x) b] = a * Tr[b] for arbitrary (non-Hermitian) factors
    rng = np.random.default_rng(7)
    for da in (2, 3, 4):
        for db in (2, 3, 4):
            a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
            b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
            got = partial_trace(kron(a, b), DimPair(da, db), "A")
            assert frobenius_norm(got - a * np.trace(b)) < 1e-12


def test_partial_trace_zero_field_thermal_state():
    # Gibbs matrix assembled from closed-form eigenvectors; symmetry makes
    # both reduced states maximally mixed
    rho = xy_thermal_density(0.0, 0.0, 1.0, 1.0)
    for keep in ("A", "B"):
        brute = brute_partial_trace(rho, 2, 2, keep)
        assert frobenius_norm(brute - np.eye(2) / 2) < 1e-14
        got = partial_trace(rho, DimPair(2, 2), keep)
        assert frobenius_norm(got - np.eye(2) / 2) < 1e-14


def test_partial_trace_matches_brute_force():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dims = DimPair(2, 3)
    for keep in ("A", "B"):
        got = partial_trace(m, dims, keep)
        assert frobenius_norm(got - brute_partial_trace(m, 2, 3, keep)) < 1e-13


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        reduced = partial_trace(h, DimPair(2, 3), "B")
        assert abs(np.trace(reduced) - np.trace(h)) < 1e-12
        assert frobenius_norm(reduced - reduced.conj().T) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(OperatorError):
        partial_trace(np.eye(5), DimPair(2, 3), "A")
    with pytest.raises(OperatorError):
        partial_trace(np.eye(6), DimPair(2, 3), "C")


# ---------------------------------------------------------------------------
# eigh
# ---------------------------------------------------------------------------

def test_eigh_diagonal():
    dec = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_eigh_xy_hamiltonian_spectrum():
    # literal matrix for b1 = b2 = 1/2, g = 1; the central block [[0,2],[2,0]]
    # has eigenvalues +/-2 and the diagonal sector gives +/-1
    h = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ],
        dtype=complex,
    )
    dec = eigh(h)
    np.testing.assert_allclose(dec.eigenvalues, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)


def test_eigh_reconstruction_battery():
    rng = np.random.default_rng(17)
    for i in range(100):
        d = 2 + i % 7
        h = random_hermitian(rng, d)
        dec = eigh(h)
        hn = max(1.0, frobenius_norm(h))
        assert frobenius_norm(h - (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T) <= 1e-10 * hn
        assert frobenius_norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(d)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-14)


# Degenerate diagonal spectrum: eigenvectors are basis columns, ties included.
DEGENERATE_DIAGONAL = np.diag([2.0, -1.0, 2.0, 0.0, -1.0, 2.0]).astype(complex)


def test_eigh_deterministic():
    rng = np.random.default_rng(19)
    for h in (random_hermitian(rng, 5), random_hermitian(rng, 256), DEGENERATE_DIAGONAL):
        d1 = eigh(h)
        d2 = eigh(h)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigh_stack_matches_each_matrix_bitwise():
    rng = np.random.default_rng(29)
    for n in (1, 2, 4, 7, 16):
        stack = np.array([random_hermitian(rng, n) for _ in range(6)])
        stack[2] = np.diag(np.arange(n) % 2).astype(complex)  # degenerate
        dec = eigh(stack)
        assert dec.eigenvalues.shape == (6, n) and dec.eigenvectors.shape == (6, n, n)
        for k in range(6):
            one = eigh(stack[k])
            assert np.array_equal(dec.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], one.eigenvectors)
    nested = np.array([random_hermitian(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    assert np.array_equal(eigh(nested).eigenvectors[1, 2], eigh(nested[1, 2]).eigenvectors)


def test_eigh_stack_names_the_failing_matrix():
    rng = np.random.default_rng(31)
    stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
    stack[3, 0, 1] += 1e-3
    with pytest.raises(HermiticityError, match=r"^stack index 3: hermiticity defect"):
        eigh(stack)
    stack[3] = random_hermitian(rng, 4)
    stack[1, 2, 2] = np.inf
    with pytest.raises(OperatorError, match=r"^stack index 1: matrix contains NaN or Inf"):
        eigh(stack)
    with pytest.raises(OperatorError, match=r"^expected a square matrix"):
        eigh(np.zeros((3, 2, 4)))


def test_overflowing_norm_keeps_the_hermiticity_check():
    # entries past about 1e154 overflow a plain Frobenius norm
    lopsided = np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex)
    message = r"hermiticity defect 1\.414e\+200 exceeds tolerance for a matrix of norm 1\.000e\+200$"
    for check in (require_hermitian, eigh):
        with pytest.raises(HermiticityError, match="^" + message):
            check(lopsided)
    with pytest.raises(HermiticityError, match=r"^stack index 1: " + message):
        eigh(np.array([PAULI_X, lopsided, PAULI_Z]))
    huge = 1e308 * PAULI_Z
    assert np.array_equal(require_hermitian(huge), huge)
    assert np.array_equal(eigh(huge).eigenvalues, [-1e308, 1e308])
    rng = np.random.default_rng(43)
    eigh(np.array([1e300 * random_hermitian(rng, 5) for _ in range(3)]))


def test_overflowing_norm_keeps_the_residual_check(monkeypatch):
    # an eigenvalue past the largest float has no decomposition to return; the
    # zero entries of its eigenvector meet it as 0 * inf
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = 1.7e308
    with pytest.raises(EigensolverError, match=r"^reconstruction residual nan"):
        eigh(block)
    real_eigh = np.linalg.eigh

    def doubled_eigenvalues(a):
        w, v = real_eigh(a)
        return 2.0 * w, v

    monkeypatch.setattr(np.linalg, "eigh", doubled_eigenvalues)
    with pytest.raises(
        EigensolverError, match=r"^reconstruction residual 2\.236e\+200 violates contract$"
    ):
        eigh(1e200 * np.diag([1.0, 2.0]).astype(complex))


# ---------------------------------------------------------------------------
# spectral_apply and the Taylor oracle
# ---------------------------------------------------------------------------

def test_spectral_apply_identity_function():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 4)
    assert frobenius_norm(spectral_apply(h, lambda x: x) - h) < 1e-10


def test_spectral_apply_exp_on_diagonal():
    h = np.diag([0.0, 0.0, 2.0, -2.0]).astype(complex)
    got = spectral_apply(h, lambda lam: math.exp(-lam))
    expected = np.diag([1.0, 1.0, math.exp(-2.0), math.exp(2.0)])
    assert frobenius_norm(got - expected) < 1e-12


def test_spectral_apply_domain_error_names_eigenvalue():
    h = np.diag([1.0, -3.0]).astype(complex)
    with pytest.raises(SpectralDomainError, match="-3"):
        spectral_apply(h, lambda lam: math.log(lam) if lam > 0 else float("nan"))


def test_expm_taylor_zero_scale():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 4)
    assert np.array_equal(oracle_expm_taylor(h, 0.0), np.eye(4))


def test_expm_taylor_sigma_z():
    got = oracle_expm_taylor(PAULI_Z, 1.0)
    expected = np.diag([math.e, 1.0 / math.e])
    assert frobenius_norm(got - expected) < 1e-14


def test_expm_taylor_two_level_closed_form():
    # exp(s(a sz + b sx)) = cosh(sr) I + sinh(sr)(a sz + b sx)/r, r = hypot(a, b)
    rng = np.random.default_rng(37)
    for _ in range(10):
        a, b = rng.standard_normal(2)
        s = rng.uniform(-2, 2)
        m = a * PAULI_Z + b * PAULI_X
        r = math.hypot(a, b)
        expected = math.cosh(s * r) * np.eye(2) + (math.sinh(s * r) / r) * m
        assert frobenius_norm(oracle_expm_taylor(m, s) - expected) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 10.0])
def test_spectral_exp_agrees_with_taylor_oracle(beta):
    # unit-norm matrices keep exp(beta*|lambda|) <= e^10, so the absolute
    # 1e-8 tolerance is meaningful at every beta
    rng = np.random.default_rng(int(beta * 10) + 41)
    for i in range(25):
        d = 2 + i % 7
        h = random_hermitian(rng, d, unit_norm=True)
        via_spectrum = spectral_apply(h, lambda lam: math.exp(-beta * lam))
        via_series = oracle_expm_taylor(h, -beta)
        assert frobenius_norm(via_spectrum - via_series) <= 1e-8
