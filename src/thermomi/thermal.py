"""Gibbs states, partition functions and the thermal energy decomposition.

All logarithms are natural; beta carries inverse energy units. Partition
functions are handled through their logarithms with a min-eigenvalue shift,
so beta up to the hundreds is safe from overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import BipartiteHamiltonian
from .operator_core import (
    DimPair,
    OperatorError,
    SpectralDecomposition,
    as_operator,
    eigh,
    partial_trace,
)

__all__ = [
    "ThermalState",
    "LocalGibbsState",
    "EnergyBreakdown",
    "gibbs_state",
    "subsystem_states",
    "local_gibbs_state",
    "energy_breakdown",
]


@dataclass(frozen=True)
class ThermalState:
    """Joint Gibbs state exp(-beta H)/Z as an explicit density matrix.

    ``rho_a`` and ``rho_b`` are its partial traces and ``energy`` is Tr[rho H].
    """

    rho: np.ndarray
    beta: float
    log_z: float
    dims: DimPair
    rho_a: np.ndarray
    rho_b: np.ndarray
    energy: float


@dataclass(frozen=True)
class LocalGibbsState:
    """Subsystem reference state exp(-beta H_local)/Z_local."""

    rho_tilde: np.ndarray
    log_z_local: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total thermal energy split into local and interaction parts."""

    e_total: float
    e_a: float
    e_b: float
    e_int: float


# Joint dimension from which ``_reduced_blocks`` uses a batched matmul. Timed on
# one spectrum (2-vCPU x86-64 VM, one BLAS thread), the elementwise loop is the
# faster up to 4x4, the two are even at 5x5, and the matmul is the faster from
# 5x6 on (2x16: 0.12 against 0.18 ms). Stacks favour the loop, because the
# matmul makes one BLAS call per matrix: (201, 4, 4) takes 3.9 ms by the loop
# and 9.1 ms by the matmul.
_MATMUL_MIN_DIM = 32


def _check_beta(beta: float) -> float:
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and >= 0, got {float(beta)!r}")
    return float(beta)


def _populations(eigenvalues: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs populations and ln Z at each beta of ``betas`` (shape (m,)).

    ``eigenvalues`` (..., n), ascending, broadcasts against ``betas[:, None]``,
    so one spectrum serves every beta, or spectrum k goes with beta k.
    Weights are exp(-beta (lambda - lambda_min)) so the largest weight is
    exactly one: at any beta the sum stays in range, and a (nearly)
    degenerate ground space receives equal weights automatically. Every
    reduction runs along the last axis, so a point's bits do not depend on
    how many points share the call.
    """
    lam_min = eigenvalues[..., :1]
    weights = np.exp(-betas[:, None] * (eigenvalues - lam_min))
    z_shifted = weights.sum(axis=-1)
    log_z = -betas * lam_min[..., 0] + np.log(z_shifted)
    return weights / z_shifted[:, None], log_z


def _reduced_blocks(v: np.ndarray, dims: DimPair) -> tuple[np.ndarray, np.ndarray]:
    """Tr_B|v_k><v_k| and Tr_A|v_k><v_k| for each eigenvector column k of ``v``.

    The blocks of ``v`` (..., n, n) come back as contiguous (..., d_a, d_a, n)
    and (..., d_b, d_b, n), with k last, for ``_reduced_states``. Written as
    a (d_a, d_b) matrix U_k, column k gives the blocks U_k U_k^dagger and
    U_k^T conj(U_k). They are formed one of two ways, chosen by the joint
    dimension n alone:

    - n < ``_MATMUL_MIN_DIM``: a loop over the traced index whose body is one
      elementwise product over every (i, i', k) (``_trace_out_middle``). This
      is a few numpy calls per block, where the matmul would make one BLAS
      call per column.
    - n >= ``_MATMUL_MIN_DIM``: one batched matmul over k,
      (..., n, d_a, d_b) @ (..., n, d_b, d_a), copied to k last. The loop
      would pass over a (d, d, n) temporary once per traced index.

    Neither path lets a spectrum's blocks depend on the stack it sits in. The
    loop gives each entry the same products, summed in the same order,
    whatever the leading shape. The matmul is one BLAS product per matrix of
    the stack, every one of the same shape, so each column's blocks are the
    product that column gives alone. Since the choice reads only the dims,
    every spectrum of a stack takes the path it would take alone.
    """
    u = v.reshape(v.shape[:-2] + (dims.d_a, dims.d_b, dims.dim))
    if dims.dim < _MATMUL_MIN_DIM:
        return _trace_out_middle(u), _trace_out_middle(np.swapaxes(u, -3, -2))
    u = np.ascontiguousarray(np.moveaxis(u, -1, -3))
    u_conj = u.conj()
    block_a = u @ np.swapaxes(u_conj, -2, -1)
    block_b = np.swapaxes(u, -2, -1) @ u_conj
    del u, u_conj  # before the k-last copies, which would otherwise raise the peak
    return _k_last(block_a), _k_last(block_b)


def _k_last(blocks: np.ndarray) -> np.ndarray:
    """A stack (..., n, d, d) of blocks as a contiguous (..., d, d, n)."""
    return np.ascontiguousarray(np.moveaxis(blocks, -3, -1))


def _trace_out_middle(u: np.ndarray) -> np.ndarray:
    """sum_j u[..., i, j, k] conj(u[..., i', j, k]) as (..., i, i', k), summed in j order."""
    blocks = u[..., :, None, 0, :] * u[..., None, :, 0, :].conj()
    for j in range(1, u.shape[-2]):
        blocks += u[..., :, None, j, :] * u[..., None, :, j, :].conj()
    return blocks


def _reduced_states(populations: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Reduced states sum_k p_k block_k, one per row of ``populations`` (m, n).

    They are built one matrix row at a time, so the largest intermediate is
    (m, d, n) rather than (m, d, d, n), which for a few betas at 16x16
    would be the largest array of the whole evaluation.
    """
    weights = populations[:, None, :]
    rows = [(weights * block_row).sum(axis=-1) for block_row in np.moveaxis(blocks, -3, 0)]
    return np.stack(rows, axis=-2)


def _boltzmann(dec: SpectralDecomposition, beta: float) -> tuple[np.ndarray, float]:
    """Gibbs density matrix and ln Z from a spectral decomposition."""
    populations, log_z = _populations(dec.eigenvalues, np.array([beta]))
    rho = (dec.eigenvectors * populations) @ dec.eigenvectors.conj().T
    return 0.5 * (rho + rho.conj().T), float(log_z[0])


def _expectation(rho: np.ndarray, h: np.ndarray) -> float:
    return float(np.trace(rho @ h).real)


def gibbs_state(h, beta: float, dims: DimPair) -> ThermalState:
    """Thermal equilibrium state of a joint Hamiltonian at inverse temperature beta.

    The explicit-rho reference for ``information.thermal_point``: rho is
    assembled from the eigenbasis of H and the reduced states are its partial
    traces, so beyond ``eigh`` and the Gibbs weights it shares no code with
    the spectral kernel.
    """
    beta = _check_beta(beta)
    a = as_operator(h)
    if a.shape[0] != dims.dim:
        raise OperatorError(
            f"Hamiltonian dimension {a.shape[0]} does not match {dims.d_a}x{dims.d_b}"
        )
    rho, log_z = _boltzmann(eigh(a), beta)
    return ThermalState(
        rho=rho,
        beta=beta,
        log_z=log_z,
        dims=dims,
        rho_a=partial_trace(rho, dims, "A"),
        rho_b=partial_trace(rho, dims, "B"),
        energy=_expectation(rho, a),
    )


def local_gibbs_state(h_local, beta: float) -> LocalGibbsState:
    """Gibbs state of a subsystem Hamiltonian alone."""
    beta = _check_beta(beta)
    rho, log_z = _boltzmann(eigh(h_local), beta)
    return LocalGibbsState(rho_tilde=rho, log_z_local=log_z)


def subsystem_states(ts: ThermalState) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states (rho_A, rho_B) of a joint thermal state."""
    return ts.rho_a, ts.rho_b


def energy_breakdown(bh: BipartiteHamiltonian, ts: ThermalState) -> EnergyBreakdown:
    """Split the thermal energy into E_A, E_B and the interaction term.

    E_A and E_B are local expectations in the reduced states; E_int is the
    expectation of the coupling in the joint state. The total is the state's
    own Tr[rho H], not the sum, so the decomposition identity stays a real
    check.
    """
    if bh.dims != ts.dims:
        raise OperatorError(
            f"model dims {bh.dims.d_a}x{bh.dims.d_b} do not match state dims "
            f"{ts.dims.d_a}x{ts.dims.d_b}"
        )
    return EnergyBreakdown(
        e_total=ts.energy,
        e_a=_expectation(ts.rho_a, bh.h_a),
        e_b=_expectation(ts.rho_b, bh.h_b),
        e_int=_expectation(ts.rho, bh.h_int),
    )
