import ast
import math
from pathlib import Path

import numpy as np
import pytest

from thermomi import (
    DimPair,
    OperatorError,
    XYParams,
    assemble_bipartite,
    energy_breakdown,
    gibbs_state,
    local_gibbs_state,
    random_bipartite,
    subsystem_states,
    von_neumann_entropy,
    xy_hamiltonian,
)
from thermomi import information, thermal
from thermomi.information import _MATMUL_MIN_DIM, _reduced_blocks
from thermomi.models import PAULI_Z

from oracles import brute_partial_trace, frobenius_norm, random_hermitian, xy_closed_form


def xy_state(b1, b2, g, beta):
    bh = xy_hamiltonian(XYParams(b1, b2, g))
    return bh, gibbs_state(assemble_bipartite(bh), beta, bh.dims)


# ---------------------------------------------------------------------------
# gibbs_state
# ---------------------------------------------------------------------------

def test_infinite_temperature_is_maximally_mixed():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 6)
    ts = gibbs_state(h, 0.0, DimPair(2, 3))
    assert frobenius_norm(ts.rho - np.eye(6) / 6) < 1e-12
    assert abs(ts.log_z - math.log(6)) < 1e-12


def test_zero_field_partition_function():
    # spectrum {0, 0, +2, -2} from the analytic block split
    _, ts = xy_state(0.0, 0.0, 1.0, 1.0)
    expected = math.log(2.0 + 2.0 * math.cosh(2.0))
    assert abs(ts.log_z - expected) < 1e-12


def test_symmetric_field_partition_function():
    # spectrum {+-1, +-2} for b1 = b2 = 1/2, g = 1
    _, ts = xy_state(0.5, 0.5, 1.0, 1.0)
    expected = math.log(2.0 * math.cosh(1.0) + 2.0 * math.cosh(2.0))
    assert abs(ts.log_z - expected) < 1e-12


def test_bad_beta_rejected():
    h = np.eye(4, dtype=complex)
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gibbs_state(h, beta, DimPair(2, 2))


def test_dimension_mismatch_rejected():
    with pytest.raises(OperatorError):
        gibbs_state(np.eye(4, dtype=complex), 1.0, DimPair(2, 3))


def test_huge_beta_returns_ground_projector():
    _, ts = xy_state(0.5, 0.5, 1.0, 500.0)
    assert abs(np.trace(ts.rho).real - 1.0) < 1e-12
    assert np.all(np.isfinite(ts.rho))
    # ground state is the singlet-like vector (0, 1, -1, 0)/sqrt(2)
    v0 = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert abs((v0.conj() @ ts.rho @ v0).real - 1.0) < 1e-12
    assert abs(ts.log_z - 500.0 * 2.0) < 1e-9  # ln Z -> -beta*lambda_min


def test_degenerate_ground_space_gets_equal_weights():
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    ts = gibbs_state(h, 200.0, DimPair(1, 3))
    assert frobenius_norm(ts.rho - np.diag([0.5, 0.5, 0.0])) < 1e-12


def test_thermal_state_invariants_on_random_battery():
    rng = np.random.default_rng(43)
    for i in range(15):
        h = random_hermitian(rng, 6)
        beta = [0.1, 1.0, 10.0][i % 3]
        ts = gibbs_state(h, beta, DimPair(2, 3))
        assert abs(np.trace(ts.rho).real - 1.0) < 1e-12
        evals = np.linalg.eigvalsh(ts.rho)
        assert evals.min() >= -1e-12
        assert frobenius_norm(ts.rho - ts.rho.conj().T) < 1e-12
        assert frobenius_norm(ts.rho @ h - h @ ts.rho) <= 1e-10


# ---------------------------------------------------------------------------
# subsystem states
# ---------------------------------------------------------------------------

def test_product_hamiltonian_factorizes():
    bh = random_bipartite(2, 3, 0.0, seed=123)
    ts = gibbs_state(assemble_bipartite(bh), 0.8, bh.dims)
    rho_a, rho_b = subsystem_states(ts)
    local_a = local_gibbs_state(bh.h_a, 0.8)
    local_b = local_gibbs_state(bh.h_b, 0.8)
    assert frobenius_norm(rho_a - local_a.rho_tilde) < 1e-12
    assert frobenius_norm(rho_b - local_b.rho_tilde) < 1e-12


@pytest.mark.parametrize("beta,g", [(0.3, 0.5), (1.0, 1.0), (5.0, 2.0)])
def test_zero_field_reduced_states_are_maximally_mixed(beta, g):
    _, ts = xy_state(0.0, 0.0, g, beta)
    rho_a, rho_b = subsystem_states(ts)
    assert frobenius_norm(rho_a - np.eye(2) / 2) < 1e-12
    assert frobenius_norm(rho_b - np.eye(2) / 2) < 1e-12


def test_asymmetric_field_reduced_states_are_diagonal():
    # H commutes with total magnetization, so rho_AB is block diagonal and
    # its partial traces are diagonal; values from the closed form
    _, ts = xy_state(3.0, 1.0, 1.0, 1.0)
    rho_a, rho_b = subsystem_states(ts)
    q = xy_closed_form(3.0, 1.0, 1.0, 1.0)
    assert abs(rho_a[0, 1]) < 1e-12
    assert abs(rho_b[0, 1]) < 1e-12
    np.testing.assert_allclose(np.diag(rho_a).real, q["rho_a_diag"], atol=1e-12)
    np.testing.assert_allclose(np.diag(rho_b).real, q["rho_b_diag"], atol=1e-12)


# ---------------------------------------------------------------------------
# local Gibbs states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b1,beta", [(0.5, 1.0), (2.0, 0.3), (3.0, 2.0)])
def test_local_partition_function_two_level(b1, beta):
    local = local_gibbs_state(b1 * PAULI_Z, beta)
    assert abs(local.log_z_local - math.log(2.0 * math.cosh(beta * b1))) < 1e-12


def test_local_beta_zero():
    local = local_gibbs_state(np.diag([1.0, 2.0, 3.0]).astype(complex), 0.0)
    assert frobenius_norm(local.rho_tilde - np.eye(3) / 3) < 1e-12
    assert abs(local.log_z_local - math.log(3)) < 1e-12


def test_local_zero_hamiltonian():
    local = local_gibbs_state(np.zeros((2, 2), dtype=complex), 1.7)
    assert abs(local.log_z_local - math.log(2.0)) < 1e-14


# ---------------------------------------------------------------------------
# energy decomposition
# ---------------------------------------------------------------------------

def test_no_interaction_means_no_interaction_energy():
    bh = random_bipartite(2, 2, 0.0, seed=5)
    ts = gibbs_state(assemble_bipartite(bh), 1.2, bh.dims)
    eb = energy_breakdown(bh, ts)
    assert abs(eb.e_int) < 1e-12


def test_zero_field_energy_closed_form():
    bh, ts = xy_state(0.0, 0.0, 1.0, 1.0)
    eb = energy_breakdown(bh, ts)
    z = 2.0 + 2.0 * math.cosh(2.0)
    expected = -4.0 * math.sinh(2.0) / z
    assert abs(eb.e_total - expected) < 1e-12
    assert abs(eb.e_int - expected) < 1e-12
    assert abs(eb.e_a) < 1e-12
    assert abs(eb.e_b) < 1e-12


def test_beta_zero_energy_is_mean_eigenvalue():
    bh = random_bipartite(2, 3, 1.0, seed=11)
    h = assemble_bipartite(bh)
    ts = gibbs_state(h, 0.0, bh.dims)
    eb = energy_breakdown(bh, ts)
    assert abs(eb.e_total - np.trace(h).real / 6.0) < 1e-12


def test_energy_decomposition_closes_on_random_battery():
    for seed in range(10):
        bh = random_bipartite(2, 3, 1.0, seed=seed)
        for beta in (0.1, 1.0, 5.0):
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            eb = energy_breakdown(bh, ts)
            assert abs(eb.e_total - (eb.e_a + eb.e_b + eb.e_int)) <= 1e-10 * max(
                1.0, abs(eb.e_total)
            )


def test_energy_breakdown_dims_mismatch():
    bh = random_bipartite(2, 2, 1.0, seed=3)
    other = gibbs_state(np.eye(6, dtype=complex), 1.0, DimPair(2, 3))
    with pytest.raises(OperatorError):
        energy_breakdown(bh, other)


# ---------------------------------------------------------------------------
# cross-module invariants
# ---------------------------------------------------------------------------

def test_gibbs_entropy_identity_random_battery():
    for seed in range(8):
        bh = random_bipartite(2, 2, 1.0, seed=100 + seed)
        for beta in (0.1, 1.0, 10.0):
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            eb = energy_breakdown(bh, ts)
            residual = von_neumann_entropy(ts.rho) - beta * eb.e_total - ts.log_z
            assert abs(residual) <= 1e-10


def test_factorization_of_partition_function():
    for seed in range(6):
        bh = random_bipartite(2, 3, 0.0, seed=seed)
        for beta in (0.2, 1.0, 4.0):
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            la = local_gibbs_state(bh.h_a, beta)
            lb = local_gibbs_state(bh.h_b, beta)
            assert abs(ts.log_z - la.log_z_local - lb.log_z_local) <= 1e-10


def test_log_z_monotone_for_psd_hamiltonians():
    rng = np.random.default_rng(53)
    for _ in range(5):
        h = random_hermitian(rng, 5)
        h = h - (np.linalg.eigvalsh(h).min() - 0.1) * np.eye(5)  # min eigenvalue ~0.1
        betas = [0.0, 0.5, 1.0, 2.0, 5.0]
        values = [gibbs_state(h, b, DimPair(1, 5)).log_z for b in betas]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


def test_ground_population_grows_with_beta():
    rng = np.random.default_rng(59)
    for _ in range(5):
        h = random_hermitian(rng, 5)
        v0 = np.linalg.eigh(h)[1][:, 0]  # independent ground vector
        populations = [
            (v0.conj() @ gibbs_state(h, b, DimPair(1, 5)).rho @ v0).real
            for b in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(populations[i + 1] > populations[i] for i in range(len(populations) - 1))


# ---------------------------------------------------------------------------
# eigenprojector blocks of the spectral kernel
# ---------------------------------------------------------------------------

def random_eigenvectors(rng, dims, stack=()):
    """Eigenvector matrices (*stack, n, n) of random Hermitian matrices, from numpy."""
    shape = stack + (dims.dim, dims.dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.linalg.eigh(g + np.swapaxes(g, -2, -1).conj())[1]


# 2x2 and 3x5 take the elementwise loop, 8x8 and 16x16 the batched matmul
@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 5), (8, 8), (16, 16)])
def test_reduced_blocks_are_partial_traces_of_projectors(d_a, d_b):
    dims = DimPair(d_a, d_b)
    v = random_eigenvectors(np.random.default_rng(d_a * d_b), dims)
    block_a, block_b = _reduced_blocks(v, dims)
    assert block_a.shape == (d_a, d_a, dims.dim) and block_a.flags.c_contiguous
    assert block_b.shape == (d_b, d_b, dims.dim) and block_b.flags.c_contiguous
    for k in range(dims.dim):
        projector = np.outer(v[:, k], v[:, k].conj())
        want_a = brute_partial_trace(projector, d_a, d_b, "A")
        want_b = brute_partial_trace(projector, d_a, d_b, "B")
        assert np.abs(block_a[..., k] - want_a).max() <= 1e-14
        assert np.abs(block_b[..., k] - want_b).max() <= 1e-14


def test_reduced_blocks_size_selection_straddles_the_test_dims():
    assert 3 * 5 < _MATMUL_MIN_DIM <= 8 * 8


@pytest.mark.parametrize("d, stack", [(2, 1), (2, 3), (2, 201), (16, 1), (16, 3)])
def test_reduced_blocks_of_a_stack_are_bitwise_those_of_each_entry(d, stack):
    dims = DimPair(d, d)
    v = random_eigenvectors(np.random.default_rng(stack), dims, (stack,))
    block_a, block_b = _reduced_blocks(v, dims)
    for i in range(stack):
        alone_a, alone_b = _reduced_blocks(v[i], dims)
        assert block_a[i].tobytes() == alone_a.tobytes()
        assert block_b[i].tobytes() == alone_b.tobytes()


# ---------------------------------------------------------------------------
# independence from the spectral kernel
# ---------------------------------------------------------------------------

def reference_values(models, betas):
    """Every array and number gibbs_state and local_gibbs_state return, as bytes."""
    values = []
    for bh in models:
        h = assemble_bipartite(bh)
        for beta in betas:
            ts = gibbs_state(h, beta, bh.dims)
            values += [ts.rho, ts.rho_a, ts.rho_b, ts.log_z, ts.energy]
            for block in (bh.h_a, bh.h_b):
                local = local_gibbs_state(block, beta)
                values += [local.rho_tilde, local.log_z_local]
    return [np.asarray(value).tobytes() for value in values]


def test_reference_shares_no_code_with_the_kernel(monkeypatch):
    for name in ("_populations", "_reduced_blocks", "_reduced_states", "_trace_out_middle",
                 "_k_last"):
        assert not hasattr(thermal, name), name
    tree = ast.parse(Path(information.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "thermal" not in (node.module or "").split("."), node.module
            assert "thermal" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("thermal") for alias in node.names)

    models = [random_bipartite(d_a, d_b, 1.0, seed=900) for d_a, d_b in ((2, 2), (2, 3), (3, 3))]
    betas = (0.0, 0.1, 1.0, 10.0, 500.0)
    unpatched = reference_values(models, betas)

    class KernelCalled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise KernelCalled

    for name in ("_populations", "_reduced_blocks", "_reduced_states"):
        monkeypatch.setattr(information, name, refuse)
    with pytest.raises(KernelCalled):
        information.thermal_point(models[0], 1.0)
    assert reference_values(models, betas) == unpatched
