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
    """Joint Gibbs state exp(-beta H)/Z and everything read off its one eigh.

    ``populations`` is the spectrum of ``rho`` (ascending energy order),
    ``rho_a`` and ``rho_b`` are its reduced states and ``energy`` is Tr[rho H].
    """

    rho: np.ndarray
    beta: float
    log_z: float
    dims: DimPair
    populations: np.ndarray
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

    The blocks of ``v`` (..., n, n) come back as (..., d_a, d_a, n) and
    (..., d_b, d_b, n), with k last, for ``_reduced_states``.
    """
    u = v.reshape(v.shape[:-2] + (dims.d_a, dims.d_b, dims.dim))
    return _trace_out_middle(u), _trace_out_middle(np.swapaxes(u, -3, -2))


def _trace_out_middle(u: np.ndarray) -> np.ndarray:
    """sum_j u[..., i, j, k] conj(u[..., i', j, k]) as (..., i, i', k).

    A sum of elementwise products in a fixed order, so a spectrum's blocks do
    not depend on the stack it sits in.
    """
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


def _boltzmann(dec: SpectralDecomposition, beta: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Gibbs density matrix, ln Z and the populations from a spectral decomposition."""
    populations, log_z = _populations(dec.eigenvalues, np.array([beta]))
    rho = (dec.eigenvectors * populations) @ dec.eigenvectors.conj().T
    return 0.5 * (rho + rho.conj().T), float(log_z[0]), populations[0]


def _expectation(rho: np.ndarray, h: np.ndarray) -> float:
    return float(np.trace(rho @ h).real)


def gibbs_state(h, beta: float, dims: DimPair) -> ThermalState:
    """Thermal equilibrium state of a joint Hamiltonian at inverse temperature beta.

    The reduced states come from the eigenprojector blocks, as in
    ``information.thermal_point``, so both give the same bits.
    """
    beta = _check_beta(beta)
    a = as_operator(h)
    if a.shape[0] != dims.dim:
        raise OperatorError(
            f"Hamiltonian dimension {a.shape[0]} does not match {dims.d_a}x{dims.d_b}"
        )
    dec = eigh(a)
    rho, log_z, populations = _boltzmann(dec, beta)
    block_a, block_b = _reduced_blocks(dec.eigenvectors, dims)
    return ThermalState(
        rho=rho,
        beta=beta,
        log_z=log_z,
        dims=dims,
        populations=populations,
        rho_a=_reduced_states(populations[None], block_a)[0],
        rho_b=_reduced_states(populations[None], block_b)[0],
        energy=_expectation(rho, a),
    )


def local_gibbs_state(h_local, beta: float) -> LocalGibbsState:
    """Gibbs state of a subsystem Hamiltonian alone."""
    beta = _check_beta(beta)
    rho, log_z, _ = _boltzmann(eigh(h_local), beta)
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
