import math

import numpy as np
import pytest

from thermomi import (
    DimPair,
    GroundStateClass,
    XYParams,
    assemble_bipartite,
    frobenius_norm,
    kron,
    gibbs_state,
    partial_trace,
    random_bipartite,
    thermal_point,
    xy_ground_state,
    xy_hamiltonian,
)
from thermomi.models import PAULI_Z, BipartiteHamiltonian

from oracles import mutual_information, random_bipartite_blocks, random_hermitian, xy_spectrum


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_all_zero():
    bh = BipartiteHamiltonian(
        h_a=np.zeros((2, 2), dtype=complex),
        h_b=np.zeros((2, 2), dtype=complex),
        h_int=np.zeros((4, 4), dtype=complex),
        dims=DimPair(2, 2),
    )
    assert frobenius_norm(assemble_bipartite(bh)) == 0.0


def test_assemble_local_term_only():
    bh = BipartiteHamiltonian(
        h_a=PAULI_Z,
        h_b=np.zeros((2, 2), dtype=complex),
        h_int=np.zeros((4, 4), dtype=complex),
        dims=DimPair(2, 2),
    )
    assert np.array_equal(assemble_bipartite(bh), np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_assemble_xy_literal_matrix():
    # diagonal +-b1 +-b2 plus 2g in the two central off-diagonal slots
    got = assemble_bipartite(xy_hamiltonian(XYParams(3.0, 1.0, 1.0)))
    expected = np.array(
        [
            [4.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 2.0, 0.0],
            [0.0, 2.0, -2.0, 0.0],
            [0.0, 0.0, 0.0, -4.0],
        ],
        dtype=complex,
    )
    assert frobenius_norm(got - expected) == 0.0


def test_assemble_dimension_mismatch():
    with pytest.raises(ValueError):
        BipartiteHamiltonian(
            h_a=np.zeros((3, 3), dtype=complex),
            h_b=np.zeros((2, 2), dtype=complex),
            h_int=np.zeros((4, 4), dtype=complex),
            dims=DimPair(2, 2),
        )


def test_assemble_linear_in_each_slot():
    rng = np.random.default_rng(83)
    zero2 = np.zeros((2, 2), dtype=complex)
    zero4 = np.zeros((4, 4), dtype=complex)
    dims = DimPair(2, 2)

    def build(h_a=zero2, h_b=zero2, h_int=zero4):
        return assemble_bipartite(BipartiteHamiltonian(h_a, h_b, h_int, dims))

    a1, a2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    x1, x2 = rng.standard_normal(2)
    combined = build(h_a=x1 * a1 + x2 * a2)
    assert frobenius_norm(combined - x1 * build(h_a=a1) - x2 * build(h_a=a2)) < 1e-12

    b1, b2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    combined = build(h_b=x1 * b1 + x2 * b2)
    assert frobenius_norm(combined - x1 * build(h_b=b1) - x2 * build(h_b=b2)) < 1e-12

    i1, i2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    combined = build(h_int=x1 * i1 + x2 * i2)
    assert frobenius_norm(combined - x1 * build(h_int=i1) - x2 * build(h_int=i2)) < 1e-12


# ---------------------------------------------------------------------------
# the XY model
# ---------------------------------------------------------------------------

def test_xy_zero_params_is_zero_hamiltonian():
    assert frobenius_norm(assemble_bipartite(xy_hamiltonian(XYParams(0.0, 0.0, 0.0)))) == 0.0


@pytest.mark.parametrize(
    "params",
    [XYParams(0.5, 0.5, 1.0), XYParams(3.0, 1.0, 1.0), XYParams(0.0, 0.0, 1.0)],
)
def test_xy_spectrum_closed_form(params):
    h = assemble_bipartite(xy_hamiltonian(params))
    got = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(got, xy_spectrum(params.b1, params.b2, params.g), atol=1e-12)


def test_xy_specific_spectra():
    np.testing.assert_allclose(
        np.linalg.eigvalsh(assemble_bipartite(xy_hamiltonian(XYParams(0.5, 0.5, 1.0)))),
        [-2.0, -1.0, 1.0, 2.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        np.linalg.eigvalsh(assemble_bipartite(xy_hamiltonian(XYParams(3.0, 1.0, 1.0)))),
        [-4.0, -2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 4.0],
        atol=1e-12,
    )


def test_xy_commutes_with_total_magnetization():
    mag = kron(PAULI_Z, np.eye(2)) + kron(np.eye(2), PAULI_Z)
    rng = np.random.default_rng(89)
    for _ in range(20):
        b1, b2, g = rng.uniform(-3, 3, size=3)
        h = assemble_bipartite(xy_hamiltonian(XYParams(b1, b2, g)))
        assert frobenius_norm(h @ mag - mag @ h) <= 1e-12


def test_xy_zero_field_spectrum_symmetric():
    for g in (0.5, 1.0, 2.0):
        w = np.linalg.eigvalsh(assemble_bipartite(xy_hamiltonian(XYParams(0.0, 0.0, g))))
        np.testing.assert_allclose(w, -w[::-1], atol=1e-12)


def test_xy_rejects_non_finite_params():
    with pytest.raises(ValueError):
        XYParams(math.nan, 0.0, 1.0)


# ---------------------------------------------------------------------------
# ground-state classification
# ---------------------------------------------------------------------------

def test_ground_state_symmetric_entangled():
    info = xy_ground_state(XYParams(0.5, 0.5, 1.0))
    assert info.classification is GroundStateClass.ENTANGLED
    assert abs(info.energy + 2.0) < 1e-12
    expected = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    assert frobenius_norm(info.state_vector - expected) < 1e-12
    assert abs(info.normalization - math.sqrt(2.0)) < 1e-12
    assert np.linalg.norm(
        assemble_bipartite(xy_hamiltonian(XYParams(0.5, 0.5, 1.0))) @ info.state_vector
        - info.energy * info.state_vector
    ) <= 1e-10


def test_ground_state_separable_basis_state():
    info = xy_ground_state(XYParams(3.0, 1.0, 1.0))
    assert info.classification is GroundStateClass.SEPARABLE
    assert abs(info.energy + 4.0) < 1e-12
    # minimum of the diagonal sector: a computational basis state
    amplitudes = np.abs(info.state_vector)
    assert abs(amplitudes.max() - 1.0) < 1e-12
    assert np.sum(amplitudes > 1e-10) == 1
    assert info.normalization == 1.0


def test_ground_state_boundary():
    info = xy_ground_state(XYParams(1.0, 1.0, 1.0))
    assert info.classification is GroundStateClass.BOUNDARY


def test_ground_state_phase_convention():
    for params in (
        XYParams(0.5, 0.5, 1.0),  # entangled
        XYParams(0.3, 1.2, 2.0),  # entangled, unequal fields
        XYParams(3.0, 1.0, 1.0),  # separable
        XYParams(1.0, 1.0, 1.0),  # boundary
        XYParams(-0.5, 0.5, 1.0),  # negative field
        XYParams(-2.0, -1.5, 0.7),  # both fields negative
        XYParams(0.0, 0.0, 0.0),  # all zero
    ):
        vec = xy_ground_state(params).state_vector
        lead = vec[np.flatnonzero(np.abs(vec) > 1e-8)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0, params


def test_classification_matches_brute_force_entanglement_check():
    # 50x50 grid over (b1*b2, g) away from the boundary band: the threshold
    # label must agree with the smallest reduced eigenvalue of the computed
    # ground vector
    products = np.linspace(-4.0, 4.0, 50)
    couplings = np.linspace(0.3, 2.5, 50)
    b1 = 1.7
    checked = 0
    for prod in products:
        for g in couplings:
            if abs(prod - g * g) < 0.05:
                continue
            info = xy_ground_state(XYParams(b1, prod / b1, g))
            rho = np.outer(info.state_vector, info.state_vector.conj())
            reduced = partial_trace(rho, DimPair(2, 2), "A")
            entangled = np.linalg.eigvalsh(reduced).min() > 1e-10
            expected = (
                GroundStateClass.ENTANGLED if entangled else GroundStateClass.SEPARABLE
            )
            assert info.classification is expected, (prod, g)
            checked += 1
    assert checked > 2000


# ---------------------------------------------------------------------------
# random models
# ---------------------------------------------------------------------------

def test_random_bipartite_deterministic():
    one = random_bipartite(2, 3, 1.0, seed=42)
    two = random_bipartite(2, 3, 1.0, seed=42)
    assert np.array_equal(one.h_a, two.h_a)
    assert np.array_equal(one.h_b, two.h_b)
    assert np.array_equal(one.h_int, two.h_int)
    other = random_bipartite(2, 3, 1.0, seed=43)
    assert not np.array_equal(one.h_a, other.h_a)


def test_random_bipartite_zero_scale_has_zero_information():
    bh = random_bipartite(2, 2, 0.0, seed=9)
    ts = gibbs_state(assemble_bipartite(bh), 1.0, bh.dims)
    assert abs(mutual_information(ts.rho, 2, 2)) <= 1e-10
    assert abs(thermal_point(bh, 1.0)[0].upper_bound) <= 1e-10


def test_random_bipartite_blocks_are_hermitian():
    bh = random_bipartite(3, 2, 0.5, seed=1)
    for block in (bh.h_a, bh.h_b, bh.h_int):
        assert frobenius_norm(block - block.conj().T) < 1e-14


def test_random_bipartite_rejects_small_dims():
    with pytest.raises(ValueError):
        random_bipartite(1, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        random_bipartite(2, 2, -1.0, seed=0)


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 5), (16, 16)])
@pytest.mark.parametrize("scale", [0.0, 0.3, 1.0])
def test_random_bipartite_reproduces_the_documented_recipe(d_a, d_b, scale):
    for seed in (0, 1, 7, 123):
        bh = random_bipartite(d_a, d_b, scale, seed=seed)
        blocks = random_bipartite_blocks(d_a, d_b, scale, seed)
        for got, want in zip((bh.h_a, bh.h_b, bh.h_int), blocks):
            assert got.tobytes() == want.tobytes()


def test_random_bipartite_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        random_bipartite(2, 2, 1.0, seed=-3)
