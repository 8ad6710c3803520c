"""Dense complex operator algebra for small quantum systems.

Operators are dense square ``complex128`` arrays; ``eigh`` also takes a
stack (..., n, n) of them and checks each one. Every function treats its
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
    """Eigensystem of a Hermitian operator, or of each operator of a stack.

    ``eigenvalues`` is real and ascending along its last axis; column ``k``
    of ``eigenvectors`` is the (unit, phase-fixed) eigenvector paired with
    ``eigenvalues[..., k]``.
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
    """Frobenius norm of each matrix of a stack (..., n, n)."""
    return np.linalg.norm(m, axis=(-2, -1))


def _as_matrices(m) -> np.ndarray:
    """Validate ``m`` as a stack (..., n, n) of square finite matrices, as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise OperatorError(f"expected a square matrix, got shape {a.shape}")
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        (where,) = _first_failure(~finite)
        raise OperatorError(f"{where}matrix contains NaN or Inf entries")
    return a


def _require_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    """Check each matrix of the validated stack ``a`` against its own norm."""
    defect = _norms(a - np.swapaxes(a, -2, -1).conj())
    norm = _norms(a)
    failed = defect > tol * np.maximum(1.0, norm)
    if failed.any():
        where, worst, size = _first_failure(failed, defect, norm)
        raise HermiticityError(
            f"{where}hermiticity defect {worst:.3e} exceeds tolerance for a matrix "
            f"of norm {size:.3e}"
        )
    return a


def as_operator(m) -> np.ndarray:
    """Validate ``m`` as a square finite complex matrix and return it as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise OperatorError(f"expected a square matrix, got shape {a.shape}")
    return _as_matrices(a)


def frobenius_norm(m) -> float:
    """Frobenius norm, the distance measure used for all operator comparisons."""
    return float(np.linalg.norm(m))


def require_hermitian(m, tol: float = EPS_HERM) -> np.ndarray:
    """Validate ``m`` as Hermitian within ``tol`` (relative) and return it.

    Inputs that fail are rejected rather than symmetrized: a non-Hermitian
    matrix at this boundary is a caller bug that must surface.
    """
    return _require_hermitian(as_operator(m), tol)


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
    first = np.argmax(np.abs(v) > _PHASE_CUTOFF, axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)
    return v * (lead.conj() / np.abs(lead))


def eigh(h) -> SpectralDecomposition:
    """Hermitian eigendecomposition with ascending eigenvalues.

    ``h`` is one matrix or a stack (..., n, n). A stack is decomposed by one
    LAPACK call, and entry k of the result is bitwise the decomposition of
    ``h[k]``. Output is deterministic for identical input: eigenvector phases
    are fixed so the first significant component of each column is real
    positive. Each matrix is checked for finiteness and Hermiticity before,
    and against its residual and orthonormality bounds after; an error names
    the stack index of the first matrix that fails.
    """
    a = _require_hermitian(_as_matrices(h), EPS_HERM)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        # LAPACK fails a stack as a whole: name the stack and its largest norm.
        where = "" if a.ndim == 2 else f"stack of shape {a.shape[:-2]}: "
        raise EigensolverError(
            f"{where}eigendecomposition did not converge for a dim-{a.shape[-1]} matrix "
            f"of norm {float(_norms(a).max()):.3e}: {exc}"
        ) from exc
    v = _fix_phases(v.astype(np.complex128))
    w = w.astype(np.float64)

    v_dagger = np.swapaxes(v, -2, -1).conj()
    residual = _norms(a - (v * w[..., None, :]) @ v_dagger)
    failed = residual > EIG_RESIDUAL_TOL * np.maximum(1.0, _norms(a))
    if failed.any():
        where, worst = _first_failure(failed, residual)
        raise EigensolverError(f"{where}reconstruction residual {worst:.3e} violates contract")
    ortho = _norms(v_dagger @ v - np.eye(a.shape[-1]))
    failed = ortho > EIG_RESIDUAL_TOL
    if failed.any():
        where, worst = _first_failure(failed, ortho)
        raise EigensolverError(
            f"{where}eigenvector orthonormality defect {worst:.3e} violates contract"
        )
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
