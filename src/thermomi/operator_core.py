"""Dense complex operator algebra for small quantum systems.

Operators are dense square ``complex128`` arrays; ``eigh`` also takes a
stack (..., n, n) of them and checks each one. Every function treats its
arguments as immutable values and returns fresh arrays, so the whole module
is safe for concurrent use. Operator equality is always judged by
Frobenius-norm distance, never by entrywise identity, taken after an exact
power-of-two scaling so that no check is lost to overflow. Eigenvectors
keep LAPACK's phases; every quantity built from them is phase-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

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
    "require_hermitian",
    "kron",
    "partial_trace",
    "eigh",
]

# Relative hermiticity tolerance enforced at construction.
EPS_HERM = 1e-12
# Orthonormality and reconstruction bound for eigendecompositions.
EIG_RESIDUAL_TOL = 1e-10


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
    """Eigensystem of a Hermitian operator, or of each operator of a stack.

    ``eigenvalues`` is real and ascending along its last axis; column ``k`` of
    ``eigenvectors`` is the unit eigenvector of ``eigenvalues[..., k]``, in LAPACK's phase.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _first_failure(failed: np.ndarray, *values: np.ndarray) -> tuple:
    """Where the first failing matrix of a stack sits, then each of ``values`` there.

    The location is a message prefix naming the stack index, empty when
    ``failed`` belongs to a single matrix.
    """
    i = int(np.argmax(failed))
    where = ""
    if failed.ndim:
        index = tuple(int(k) for k in np.unravel_index(i, failed.shape))
        where = f"stack index {index[0] if len(index) == 1 else index}: "
    return (where, *(float(value.flat[i]) for value in values))


def _norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a contiguous stack (..., n, n).

    Each matrix is read, without a copy, as the real vector of its 2 n^2
    parts, whose dot product with itself is the squared norm.
    """
    parts = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],)).view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", parts, parts))


def _magnitude(scaled: float, unit: float) -> str:
    """``scaled / unit``, for a power of two ``unit``, as ``.3e`` even past the largest float."""
    real = scaled / unit
    return f"{Decimal(scaled) / Decimal(unit) if math.isinf(real) else real:.3e}"


def _as_matrices(m) -> np.ndarray:
    """Validate ``m`` as a stack (..., n, n) of square finite matrices, as contiguous complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise OperatorError(f"expected a square matrix, got shape {a.shape}")
    a = np.ascontiguousarray(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        (where,) = _first_failure(~finite)
        raise OperatorError(f"{where}matrix contains NaN or Inf entries")
    return a


def _require_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check each matrix of the validated stack ``a`` against its own norm.

    Norms are taken of each matrix times ``unit`` = 2^-k, where k >= 0 is the
    exponent of its largest entry: exact, and free of overflow. Returns the
    scaled stack, ``unit`` and the scaled norms.
    """
    parts = a.view(np.float64)
    largest = np.maximum(
        parts.max(axis=(-2, -1), initial=0.0), -parts.min(axis=(-2, -1), initial=0.0)
    )
    unit = np.ldexp(1.0, -np.maximum(np.frexp(largest)[1], 0))
    scaled = a * unit[..., None, None]
    norm = _norms(scaled)
    adjoint = np.conjugate(np.swapaxes(scaled, -2, -1), out=np.empty_like(scaled))
    defect = _norms(np.subtract(scaled, adjoint, out=adjoint))
    failed = defect > EPS_HERM * np.maximum(unit, norm)
    if failed.any():
        where, worst, size, scale = _first_failure(failed, defect, norm, unit)
        raise HermiticityError(
            f"{where}hermiticity defect {_magnitude(worst, scale)} exceeds tolerance for a "
            f"matrix of norm {_magnitude(size, scale)}"
        )
    return scaled, unit, norm


def as_operator(m) -> np.ndarray:
    """Validate ``m`` as a square finite complex matrix and return it as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise OperatorError(f"expected a square matrix, got shape {a.shape}")
    return _as_matrices(a)


def require_hermitian(m) -> np.ndarray:
    """Validate ``m`` as Hermitian within ``EPS_HERM`` (relative) and return it.

    Inputs that fail are rejected rather than symmetrized: a non-Hermitian
    matrix at this boundary is a caller bug that must surface.
    """
    a = as_operator(m)
    _require_hermitian(a)
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


def eigh(h) -> SpectralDecomposition:
    """Hermitian eigendecomposition with ascending eigenvalues.

    ``h`` is one matrix or a stack (..., n, n). A stack is decomposed by one
    LAPACK call, and entry k of the result is bitwise the decomposition of
    ``h[k]``. Output is deterministic for identical input, with LAPACK's
    eigenvector phases. Each matrix is checked for finiteness and Hermiticity
    before, and against its residual and orthonormality bounds after, with its
    norm taken once; an error names the stack index of the first matrix that fails.
    """
    a = _as_matrices(h)
    scaled, unit, norm = _require_hermitian(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        # LAPACK fails a stack as a whole, so the error names the stack.
        where = "" if a.ndim == 2 else f"stack of shape {a.shape[:-2]}: "
        raise EigensolverError(
            f"{where}eigendecomposition did not converge for a dim-{a.shape[-1]} matrix: {exc}"
        ) from exc

    # Two buffers serve both checks: V^dagger and the Gram matrix. Then the
    # rows of V^dagger are scaled by the eigenvalues in place, so that the Gram
    # buffer can take V W V^dagger.
    v_dagger = np.swapaxes(v, -2, -1).conj()
    gram = v_dagger @ v
    np.einsum("...ii->...i", gram)[...] -= 1.0
    ortho = _norms(gram)
    # Eigenvalues are scaled like the matrix; one past the float range fails as a NaN residual.
    with np.errstate(invalid="ignore"):
        v_dagger *= (w * unit[..., None])[..., :, None]
        product = np.matmul(v, v_dagger, out=gram)
        residual = _norms(np.subtract(scaled, product, out=product))
    failed = ~(residual <= EIG_RESIDUAL_TOL * np.maximum(unit, norm))
    if failed.any():
        where, worst, scale = _first_failure(failed, residual, unit)
        raise EigensolverError(
            f"{where}reconstruction residual {_magnitude(worst, scale)} violates contract"
        )
    failed = ortho > EIG_RESIDUAL_TOL
    if failed.any():
        where, worst = _first_failure(failed, ortho)
        raise EigensolverError(
            f"{where}eigenvector orthonormality defect {worst:.3e} violates contract"
        )
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
