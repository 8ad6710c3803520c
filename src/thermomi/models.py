"""Bipartite Hamiltonians: assembly, the two-spin XY model, random ensembles.

Basis convention for two spins: product states ordered |uu>, |ud>, |du>, |dd>
with sigma_z|u> = +|u>. All golden values in the test suite assume this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operator_core import (
    DimPair,
    OperatorError,
    eigh,
    kron,
    require_hermitian,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BOUNDARY_BAND",
    "BipartiteHamiltonian",
    "XYParams",
    "GroundStateClass",
    "GroundStateInfo",
    "assemble_bipartite",
    "xy_hamiltonian",
    "xy_ground_state",
    "random_bipartite",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

# Half-width of the b1*b2 = g^2 band inside which the ground state is
# classified as Boundary, so roundoff cannot flip the label.
BOUNDARY_BAND = 1e-12
# Spectral gap below which the minimum eigenvalue counts as degenerate.
_GROUND_GAP_TOL = 1e-12
# A unit vector of dimension n < 1e16 has an amplitude >= 1/sqrt(n) > 1e-8, so this
# cutoff always finds the leading entry whose phase is fixed.
_PHASE_CUTOFF = 1e-8
# The XY coupling sx(x)sx + sy(x)sy at g = 1, built once.
_XX_YY = kron(PAULI_X, PAULI_X) + kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class BipartiteHamiltonian:
    """The triple (H_A, H_B, H_int) with its subsystem dimensions.

    All three blocks are validated as Hermitian at construction; H_A and H_B
    act on the subsystems, H_int on the joint space.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    h_int: np.ndarray
    dims: DimPair

    def __post_init__(self):
        object.__setattr__(self, "h_a", require_hermitian(self.h_a))
        object.__setattr__(self, "h_b", require_hermitian(self.h_b))
        object.__setattr__(self, "h_int", require_hermitian(self.h_int))
        if self.h_a.shape[0] != self.dims.d_a:
            raise OperatorError(
                f"H_A has dimension {self.h_a.shape[0]}, expected {self.dims.d_a}"
            )
        if self.h_b.shape[0] != self.dims.d_b:
            raise OperatorError(
                f"H_B has dimension {self.h_b.shape[0]}, expected {self.dims.d_b}"
            )
        if self.h_int.shape[0] != self.dims.dim:
            raise OperatorError(
                f"H_int has dimension {self.h_int.shape[0]}, expected {self.dims.dim}"
            )


@dataclass(frozen=True)
class XYParams:
    """Two-spin XY model parameters: local fields b1, b2 and coupling g."""

    b1: float
    b2: float
    g: float

    def __post_init__(self):
        for name in ("b1", "b2", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


class GroundStateClass(Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class GroundStateInfo:
    """Numerically computed ground state of the two-spin XY model.

    ``state_vector`` is unit norm with its first amplitude above 1e-8 made
    real positive. ``normalization`` rescales the zero-magnetization form
    (a|ud> - |du>): it equals 1/|<du|psi>| when the ground state is entangled
    with a nonzero |du> amplitude, and 1.0 otherwise (a normalized basis
    state needs no rescaling).
    """

    energy: float
    state_vector: np.ndarray
    classification: GroundStateClass
    normalization: float


def assemble_bipartite(bh: BipartiteHamiltonian) -> np.ndarray:
    """Joint Hamiltonian H_A x I_B + I_A x H_B + H_int."""
    return _local_part(bh) + bh.h_int


def _local_part(bh: BipartiteHamiltonian) -> np.ndarray:
    """H_A x I_B + I_A x H_B, the joint Hamiltonian without its coupling.

    Each term is the array of products np.kron forms, entry (i, k, j, l) at
    (i*d_b + k, j*d_b + l), broadcast into place without np.kron's copies.
    The blocks were validated when bh was built, so they are taken as they are.
    """
    eye_a = np.eye(bh.dims.d_a, dtype=np.complex128)
    eye_b = np.eye(bh.dims.d_b, dtype=np.complex128)
    local = bh.h_a[:, None, :, None] * eye_b[None, :, None, :]
    local += eye_a[:, None, :, None] * bh.h_b[None, :, None, :]
    return local.reshape(bh.dims.dim, bh.dims.dim)


def xy_hamiltonian(p: XYParams) -> BipartiteHamiltonian:
    """Two spin-1/2 particles in z-fields b1, b2 with XY coupling g."""
    return BipartiteHamiltonian(
        h_a=p.b1 * PAULI_Z,
        h_b=p.b2 * PAULI_Z,
        h_int=p.g * _XX_YY,
        dims=DimPair(2, 2),
    )


def xy_ground_state(p: XYParams) -> GroundStateInfo:
    """Diagonalize the XY model and classify its ground state.

    The label follows the product-of-fields threshold: entangled when
    b1*b2 < g^2, separable when b1*b2 > g^2, boundary inside a 1e-12 band
    around equality or when the minimum eigenvalue is degenerate (the two
    conditions coincide for this model). The eigensolver, not any closed
    form, is the source of the reported vector and energy.
    """
    dec = eigh(assemble_bipartite(xy_hamiltonian(p)))
    energy = float(dec.eigenvalues[0])
    vec = dec.eigenvectors[:, 0]
    lead = vec[np.argmax(np.abs(vec) > _PHASE_CUTOFF)]
    vec = vec * (lead.conj() / np.abs(lead))
    gap = float(dec.eigenvalues[1] - dec.eigenvalues[0])

    margin = p.b1 * p.b2 - p.g * p.g
    if abs(margin) <= BOUNDARY_BAND or gap <= _GROUND_GAP_TOL:
        classification = GroundStateClass.BOUNDARY
    elif margin < 0.0:
        classification = GroundStateClass.ENTANGLED
    else:
        classification = GroundStateClass.SEPARABLE

    c_du = abs(vec[2])
    if classification is GroundStateClass.ENTANGLED and c_du > 1e-12:
        normalization = 1.0 / c_du
    else:
        normalization = 1.0
    return GroundStateInfo(
        energy=energy,
        state_vector=vec,
        classification=classification,
        normalization=normalization,
    )


def random_bipartite(
    d_a: int, d_b: int, interaction_scale: float, seed: int
) -> BipartiteHamiltonian:
    """Random Gaussian-Hermitian bipartite model, deterministic in ``seed``.

    Each block is (G + G^dagger)/2 where G has independent standard-normal
    real and imaginary parts. Draws come from ``numpy.random.default_rng``
    (PCG64) in a fixed order: real then imaginary block, for H_A, H_B, H_int
    in turn; H_int is multiplied by ``interaction_scale``. The recipe is
    spelled out so other implementations can reproduce the ensemble exactly.
    """
    if d_a < 2 or d_b < 2:
        raise ValueError(f"subsystem dimensions must be at least 2, got {d_a}x{d_b}")
    if not math.isfinite(interaction_scale) or interaction_scale < 0.0:
        raise ValueError(f"interaction_scale must be finite and >= 0, got {interaction_scale!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)

    def draw(d: int) -> np.ndarray:
        # (G + G^dagger)/2, written part by part into h; the real part of G
        # is done with before the imaginary part is drawn into its buffer.
        h = np.empty((d, d), dtype=np.complex128)
        g = rng.standard_normal((d, d))
        np.multiply(np.add(g, g.T, out=h.real), 0.5, out=h.real)
        rng.standard_normal(out=g)
        np.multiply(np.subtract(g, g.T, out=h.imag), 0.5, out=h.imag)
        return h

    h_a = draw(d_a)
    h_b = draw(d_b)
    h_int = draw(d_a * d_b)
    h_int *= interaction_scale
    return BipartiteHamiltonian(h_a=h_a, h_b=h_b, h_int=h_int, dims=DimPair(d_a, d_b))
