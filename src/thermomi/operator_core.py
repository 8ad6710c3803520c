"""Dense complex operator algebra for small quantum systems.

Operators are dense square ``complex128`` arrays. Every function treats its
arguments as immutable values and returns fresh arrays, so the whole module
is safe for concurrent use. Operator equality is always judged by
Frobenius-norm distance, never by entrywise identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS_HERM",
    "EIG_RESIDUAL_TOL",
    "OperatorError",
    "HermiticityError",
    "EigensolverError",
    "DimPair",
    "SpectralDecomposition",
    "as_operator",
    "frobenius_norm",
    "require_hermitian",
    "kron",
    "partial_trace",
    "eigh",
]

# Relative hermiticity tolerance enforced at construction.
EPS_HERM = 1e-12
# Orthonormality and reconstruction bound for eigendecompositions.
EIG_RESIDUAL_TOL = 1e-10

# A unit column of dimension n has a component of magnitude >= 1/sqrt(n),
# so for any n below 1e16 this cutoff finds the leading entry used to fix phases.
_PHASE_CUTOFF = 1e-8


class OperatorError(ValueError):
    """Validation failure for an operator or numerical state."""


class HermiticityError(OperatorError):
    """Matrix is farther from self-adjoint than the construction tolerance."""


class EigensolverError(OperatorError):
    """Eigendecomposition failed to converge or violated its residual contract."""


@dataclass(frozen=True)
class DimPair:
    """Subsystem dimensions labelling the tensor factorization of a joint operator."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"subsystem dimensions must be positive, got {self.d_a}x{self.d_b}")

    @property
    def dim(self) -> int:
        """Dimension of the joint space."""
        return self.d_a * self.d_b


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator.

    ``eigenvalues`` is real and ascending; column ``k`` of ``eigenvectors``
    is the (unit, phase-fixed) eigenvector paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_operator(m) -> np.ndarray:
    """Validate ``m`` as a square finite complex matrix and return it as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise OperatorError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise OperatorError("matrix contains NaN or Inf entries")
    return a


def frobenius_norm(m) -> float:
    """Frobenius norm, the distance measure used for all operator comparisons."""
    return float(np.linalg.norm(m))


def require_hermitian(m, tol: float = EPS_HERM) -> np.ndarray:
    """Validate ``m`` as Hermitian within ``tol`` (relative) and return it.

    Inputs that fail are rejected rather than symmetrized: a non-Hermitian
    matrix at this boundary is a caller bug that must surface.
    """
    a = as_operator(m)
    defect = frobenius_norm(a - a.conj().T)
    if defect > tol * max(1.0, frobenius_norm(a)):
        raise HermiticityError(
            f"hermiticity defect {defect:.3e} exceeds tolerance for a matrix "
            f"of norm {frobenius_norm(a):.3e}"
        )
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product, with the left factor owning the slow (block) index."""
    return np.kron(as_operator(a), as_operator(b))


def partial_trace(m, dims: DimPair, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a joint operator.

    Parameters
    ----------
    m : array
        Operator on the joint space of dimension ``dims.dim``.
    dims : DimPair
        Tensor factorization (d_a, d_b) of the joint space.
    keep : "A" or "B"
        Which subsystem the result lives on.
    """
    a = as_operator(m)
    if a.shape[0] != dims.dim:
        raise OperatorError(
            f"operator dimension {a.shape[0]} does not match {dims.d_a}x{dims.d_b}"
        )
    which = keep.upper() if isinstance(keep, str) else keep
    r = a.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    if which == "A":
        return np.einsum("ikjk->ij", r)
    if which == "B":
        return np.einsum("kikj->ij", r)
    raise OperatorError(f"keep must be 'A' or 'B', got {keep!r}")


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    first = np.argmax(np.abs(v) > _PHASE_CUTOFF, axis=0)
    lead = v[first, np.arange(v.shape[1])]
    return v * (lead.conj() / np.abs(lead))


def eigh(h) -> SpectralDecomposition:
    """Hermitian eigendecomposition with ascending eigenvalues.

    Output is deterministic for identical input: eigenvector phases are fixed
    so the first significant component of each column is real positive.
    The decomposition is verified against its residual and orthonormality
    bounds before being returned.
    """
    a = require_hermitian(h)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition did not converge for a dim-{a.shape[0]} matrix "
            f"of norm {frobenius_norm(a):.3e}: {exc}"
        ) from exc
    v = _fix_phases(v.astype(np.complex128))
    w = w.astype(np.float64)

    residual = frobenius_norm(a - (v * w) @ v.conj().T)
    if residual > EIG_RESIDUAL_TOL * max(1.0, frobenius_norm(a)):
        raise EigensolverError(f"reconstruction residual {residual:.3e} violates contract")
    ortho = frobenius_norm(v.conj().T @ v - np.eye(a.shape[0]))
    if ortho > EIG_RESIDUAL_TOL:
        raise EigensolverError(f"eigenvector orthonormality defect {ortho:.3e} violates contract")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
