import math

import numpy as np
import pytest

from thermomi import (
    BipartiteHamiltonian,
    DimPair,
    InvalidStateError,
    OperatorError,
    XYParams,
    assemble_bipartite,
    energy_breakdown,
    entropy_identity_residual,
    gibbs_state,
    local_gibbs_state,
    mutual_info_upper_bound,
    mutual_information,
    random_bipartite,
    relative_entropy,
    subsystem_states,
    thermal_point,
    von_neumann_entropy,
    xy_hamiltonian,
)

from oracles import random_density, xy_closed_form

LN2 = math.log(2.0)

# First verified run of the pipeline at b1 = b2 = 1/2, g = 1, beta = 10,
# cross-checked against the closed form before freezing.
GOLDEN_UB_LOW_TEMPERATURE = 9.99913744152321


def xy_setup(b1, b2, g, beta):
    bh = xy_hamiltonian(XYParams(b1, b2, g))
    ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
    return bh, ts


# ---------------------------------------------------------------------------
# von Neumann entropy
# ---------------------------------------------------------------------------

def test_pure_state_has_zero_entropy():
    v = np.array([1.0, 2.0, -1.0j]) / math.sqrt(6.0)
    assert von_neumann_entropy(np.outer(v, v.conj())) == 0.0


def test_maximally_mixed_qubit():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - LN2) < 1e-14


def test_zero_field_joint_entropy_closed_form():
    _, ts = xy_setup(0.0, 0.0, 1.0, 1.0)
    expected = xy_closed_form(0.0, 0.0, 1.0, 1.0)["s_ab"]
    assert abs(von_neumann_entropy(ts.rho) - expected) < 1e-12
    assert abs(expected - 0.73067) < 1e-5


def test_trace_validation():
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.eye(2))


def test_negative_eigenvalue_validation():
    bad = np.diag([1.0 + 2e-10, -2e-10]).astype(complex)
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(bad)
    # roundoff-sized negatives are clipped instead
    ok = np.diag([1.0 + 5e-12, -5e-12]).astype(complex)
    assert von_neumann_entropy(ok) < 1e-9


def test_entropy_bounds_on_random_states():
    rng = np.random.default_rng(61)
    for i in range(50):
        d = 2 + i % 7
        s = von_neumann_entropy(random_density(rng, d))
        assert 0.0 <= s <= math.log(d) + 1e-12


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

def test_relative_entropy_of_state_with_itself():
    rng = np.random.default_rng(67)
    for d in (2, 3, 5):
        rho = random_density(rng, d)
        assert abs(relative_entropy(rho, rho)) <= 1e-10


def test_relative_entropy_disjoint_support_is_infinite():
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy(up, down) == math.inf


def test_relative_entropy_diagonal_example():
    rho = np.eye(2) / 2
    sigma = np.diag([0.75, 0.25]).astype(complex)
    # direct scalar evaluation: Tr[rho ln rho] - Tr[rho ln sigma]
    expected = -LN2 - 0.5 * math.log(0.75) - 0.5 * math.log(0.25)
    assert abs(relative_entropy(rho, sigma) - expected) < 1e-12
    assert abs(expected - 0.143841) < 1e-6


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(OperatorError):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_klein_inequality_battery():
    rng = np.random.default_rng(71)
    for i in range(200):
        d = 2 + i % 7
        value = relative_entropy(random_density(rng, d), random_density(rng, d))
        assert value >= -1e-10


def test_relative_entropy_pure_in_full_rank():
    # finite and equal to -ln<psi|sigma|psi> ... checked against the scalar sum
    sigma = np.diag([0.7, 0.3]).astype(complex)
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    expected = -(0.5 * math.log(0.7) + 0.5 * math.log(0.3))
    assert abs(relative_entropy(rho, sigma) - expected) < 1e-12


# ---------------------------------------------------------------------------
# entropy identity
# ---------------------------------------------------------------------------

def test_identity_residual_on_random_models():
    for seed in range(6):
        bh = random_bipartite(2, 3, 1.0, seed=200 + seed)
        for beta in (0.1, 1.0, 10.0):
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            eb = energy_breakdown(bh, ts)
            assert abs(entropy_identity_residual(ts, eb)) <= 1e-10


def test_identity_residual_beta_zero():
    bh, ts = xy_setup(1.0, 2.0, 0.7, 0.0)
    eb = energy_breakdown(bh, ts)
    assert abs(entropy_identity_residual(ts, eb)) <= 1e-12


def test_identity_residual_zero_field_numbers():
    bh, ts = xy_setup(0.0, 0.0, 1.0, 1.0)
    eb = energy_breakdown(bh, ts)
    q = xy_closed_form(0.0, 0.0, 1.0, 1.0)
    assert abs(von_neumann_entropy(ts.rho) - q["s_ab"]) < 1e-12
    assert abs(eb.e_total - q["e_total"]) < 1e-12
    assert abs(ts.log_z - q["log_z_ab"]) < 1e-12
    assert abs(entropy_identity_residual(ts, eb)) <= 1e-10


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_information_vanishes_without_interaction():
    bh = random_bipartite(3, 2, 0.0, seed=31)
    ts = gibbs_state(assemble_bipartite(bh), 1.5, bh.dims)
    assert abs(mutual_information(ts)) <= 1e-10


def test_mutual_information_bell_state():
    phi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert abs(mutual_information(rho, DimPair(2, 2)) - 2 * LN2) < 1e-12


def test_mutual_information_of_thermal_state_equals_thermal_point():
    for seed in range(20):
        d_a, d_b = 2 + seed % 3, 2 + (seed // 3) % 3
        bh = random_bipartite(d_a, d_b, 1.0, seed=seed)
        for beta in np.linspace(0.0, 100.0, 20):
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            assert mutual_information(ts) == thermal_point(bh, beta)[0].mutual_info


def test_mutual_information_needs_dims_for_bare_matrix():
    with pytest.raises(OperatorError):
        mutual_information(np.eye(4) / 4)


def test_mutual_information_zero_field_closed_form():
    _, ts = xy_setup(0.0, 0.0, 1.0, 1.0)
    expected = xy_closed_form(0.0, 0.0, 1.0, 1.0)["mutual_info"]
    got = mutual_information(ts)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.65562) < 1e-4


# ---------------------------------------------------------------------------
# the upper bound
# ---------------------------------------------------------------------------

def test_upper_bound_vanishes_without_interaction():
    bh = random_bipartite(2, 2, 0.0, seed=77)
    assert abs(mutual_info_upper_bound(bh, 1.3)) <= 1e-10


def test_upper_bound_equals_mutual_information_at_zero_field():
    bh, ts = xy_setup(0.0, 0.0, 1.0, 1.0)
    ub = mutual_info_upper_bound(bh, 1.0)
    assert abs(ub - mutual_information(ts)) <= 1e-10
    assert abs(ub - xy_closed_form(0.0, 0.0, 1.0, 1.0)["upper_bound"]) < 1e-12


def test_upper_bound_explodes_at_low_temperature():
    bh = xy_hamiltonian(XYParams(0.5, 0.5, 1.0))
    ub = mutual_info_upper_bound(bh, 10.0)
    assert ub > 2 * LN2
    assert abs(ub - GOLDEN_UB_LOW_TEMPERATURE) < 1e-10


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_zero_field_equality_grid(beta, g):
    bh, ts = xy_setup(0.0, 0.0, g, beta)
    assert abs(mutual_information(ts) - mutual_info_upper_bound(bh, beta)) <= 1e-10


def test_bound_holds_on_random_battery():
    dims_cycle = [(2, 2), (2, 3), (3, 3)]
    for seed in range(60):
        d_a, d_b = dims_cycle[seed % 3]
        bh = random_bipartite(d_a, d_b, 1.0, seed=300 + seed)
        for beta in (0.1, 0.5, 1.0, 2.0, 10.0):
            report, _ = thermal_point(bh, beta)
            assert report.mutual_info <= report.upper_bound + 1e-10


def test_subsystem_inequalities_and_relative_entropy_agreement():
    # S(rho_X) <= beta E_X + ln Z_X, with slack equal to S(rho_X || rho~_X).
    # The dual-route comparison needs ln(sigma eigenvalues) to be well posed:
    # below ~1e-6 the re-diagonalized eigenvalues of rho~ carry too much
    # relative noise for the 1e-9 agreement, so those pairs check only the
    # inequality side.
    compared = 0
    for seed in range(20):
        bh = random_bipartite(2, 3, 1.0, seed=400 + seed)
        for beta in (0.1, 0.5, 1.0, 2.0, 10.0):
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            eb = energy_breakdown(bh, ts)
            rho_a, rho_b = subsystem_states(ts)
            for rho, h_local, e_local in (
                (rho_a, bh.h_a, eb.e_a),
                (rho_b, bh.h_b, eb.e_b),
            ):
                local = local_gibbs_state(h_local, beta)
                slack = beta * e_local + local.log_z_local - von_neumann_entropy(rho)
                assert slack >= -1e-10
                divergence = relative_entropy(rho, local.rho_tilde)
                well_posed = np.linalg.eigvalsh(local.rho_tilde).min() >= 1e-6
                if math.isfinite(divergence) and well_posed:
                    assert abs(slack - divergence) <= 1e-9
                    compared += 1
    assert compared >= 100  # the dual-route check must not be vacuous


def test_purity_limit_at_large_beta():
    # entangled ground state: I -> 2 S(rho_A) as the state becomes pure
    _, ts = xy_setup(0.5, 0.5, 1.0, 50.0)
    rho_a, _ = subsystem_states(ts)
    assert abs(mutual_information(ts) - 2.0 * von_neumann_entropy(rho_a)) <= 1e-6


def test_info_report_invariants_on_battery():
    for seed in range(15):
        bh = random_bipartite(2, 3, 1.0, seed=500 + seed)
        for beta in (0.1, 1.0, 10.0):
            report, _ = thermal_point(bh, beta)
            assert abs(report.mutual_info - (report.s_a + report.s_b - report.s_ab)) <= 1e-12
            assert report.mutual_info >= -1e-10
            assert report.mutual_info <= report.upper_bound + 1e-10
            assert report.mutual_info <= 2.0 * min(math.log(2), math.log(3)) + 1e-10


def test_report_matches_closed_form_for_xy():
    for b1, b2, g, beta in [
        (0.5, 0.5, 1.0, 1.0),
        (2.0, 2.0, 1.0, 0.25),
        (3.0, 1.0, 1.0, 2.0),
        (1.0, -2.0, 0.7, 0.5),
    ]:
        report, eb = thermal_point(xy_hamiltonian(XYParams(b1, b2, g)), beta)
        q = xy_closed_form(b1, b2, g, beta)
        assert abs(report.mutual_info - q["mutual_info"]) < 1e-10
        assert abs(report.upper_bound - q["upper_bound"]) < 1e-10
        assert abs(report.s_a - q["s_a"]) < 1e-10
        assert abs(report.s_b - q["s_b"]) < 1e-10
        assert abs(report.s_ab - q["s_ab"]) < 1e-10
        assert abs(eb.e_int - q["e_int"]) < 1e-10
        assert abs(eb.e_a - q["e_a"]) < 1e-10
        assert abs(report.log_z_ab - q["log_z_ab"]) < 1e-10


# ---------------------------------------------------------------------------
# S_AB from the Gibbs populations
# ---------------------------------------------------------------------------

def test_thermal_point_diagonalizes_joint_hamiltonian_once(eigh_calls_by_dim):
    thermal_point(random_bipartite(2, 3, 1.0, seed=71), 1.0)
    assert eigh_calls_by_dim[6] == 1


def test_s_ab_from_populations_matches_density_entropy():
    zero = BipartiteHamiltonian(
        h_a=np.zeros((2, 2)), h_b=np.zeros((3, 3)), h_int=np.zeros((6, 6)), dims=DimPair(2, 3)
    )
    models = [zero] + [
        random_bipartite(d_a, d_b, 1.0, seed=800 + seed)
        for d_a, d_b in ((2, 2), (2, 3), (3, 3))
        for seed in range(3)
    ]
    for bh in models:
        for beta in (0.0, 0.1, 1.0, 10.0, 500.0):
            report, _ = thermal_point(bh, beta)
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            assert abs(report.s_ab - von_neumann_entropy(ts.rho)) <= 1e-12
