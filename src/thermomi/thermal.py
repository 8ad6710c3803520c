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
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    return float(beta)


def _boltzmann(dec: SpectralDecomposition, beta: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Gibbs density matrix, ln Z and the populations from a spectral decomposition.

    Weights are exp(-beta (lambda - lambda_min)) so the largest weight is
    exactly one: at any beta the sum stays in range, and a (nearly)
    degenerate ground space receives equal weights automatically.
    """
    lam_min = dec.eigenvalues[0]
    weights = np.exp(-beta * (dec.eigenvalues - lam_min))
    z_shifted = float(weights.sum())
    log_z = float(-beta * lam_min + math.log(z_shifted))
    populations = weights / z_shifted
    rho = (dec.eigenvectors * populations) @ dec.eigenvectors.conj().T
    return 0.5 * (rho + rho.conj().T), log_z, populations


def _expectation(rho: np.ndarray, h: np.ndarray) -> float:
    return float(np.trace(rho @ h).real)


def gibbs_state(h, beta: float, dims: DimPair) -> ThermalState:
    """Thermal equilibrium state of a joint Hamiltonian at inverse temperature beta."""
    beta = _check_beta(beta)
    a = as_operator(h)
    if a.shape[0] != dims.dim:
        raise OperatorError(
            f"Hamiltonian dimension {a.shape[0]} does not match {dims.d_a}x{dims.d_b}"
        )
    return _thermal_state(eigh(a), a, beta, dims)


def _thermal_state(dec: SpectralDecomposition, h, beta: float, dims: DimPair) -> ThermalState:
    """ThermalState of ``h`` at a checked ``beta`` from its decomposition ``dec``."""
    rho, log_z, populations = _boltzmann(dec, beta)
    return ThermalState(
        rho=rho,
        beta=beta,
        log_z=log_z,
        dims=dims,
        populations=populations,
        rho_a=partial_trace(rho, dims, "A"),
        rho_b=partial_trace(rho, dims, "B"),
        energy=_expectation(rho, h),
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
