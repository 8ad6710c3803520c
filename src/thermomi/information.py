"""Entropic functionals and the interaction-energy bound on mutual information.

Everything is in nats. The central quantities for a bipartite thermal state:

    S(rho)        = -Tr[rho ln rho]
    S(rho||sigma) = Tr[rho ln rho - rho ln sigma]
    I             = S(rho_A) + S(rho_B) - S(rho_AB)
    I_ub          = -beta*E_int + ln(Z_A Z_B / Z_AB)

with I <= I_ub for every thermal bipartite state, and equality when the
coupling vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import BipartiteHamiltonian, assemble_bipartite
from .operator_core import DimPair, OperatorError, as_operator, eigh, partial_trace
from .thermal import (
    EnergyBreakdown,
    ThermalState,
    _boltzmann,
    _check_beta,
    _thermal_state,
    energy_breakdown,
)

__all__ = [
    "EPS_WEIGHT",
    "InvalidStateError",
    "InfoReport",
    "von_neumann_entropy",
    "relative_entropy",
    "entropy_identity_residual",
    "mutual_information",
    "mutual_info_upper_bound",
    "thermal_point",
]

# Eigenvalues at or below this carry zero entropy (continuous 0 ln 0 = 0).
EPS_WEIGHT = 1e-14
# Negative eigenvalues above this floor are roundoff and are clipped to zero;
# anything more negative is a logic bug and is rejected.
_NEG_EIG_TOL = 1e-10
_TRACE_TOL = 1e-10
# Squared-overlap threshold for the support-containment test of S(rho||sigma).
_SUPPORT_TOL = 1e-10


class InvalidStateError(OperatorError):
    """Matrix failed the density-matrix checks (unit trace, PSD, Hermitian)."""


@dataclass(frozen=True)
class InfoReport:
    """Entropies, mutual information and its upper bound for one thermal point."""

    s_a: float
    s_b: float
    s_ab: float
    mutual_info: float
    upper_bound: float
    log_z_a: float
    log_z_b: float
    log_z_ab: float
    e_int: float
    beta: float


def _density_spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density matrix and return its (clipped) spectrum and basis."""
    a = as_operator(rho)
    dec = eigh(a)
    trace = float(np.trace(a).real)
    if abs(trace - 1.0) > _TRACE_TOL:
        raise InvalidStateError(f"density matrix trace {trace!r} deviates from 1")
    if dec.eigenvalues[0] < -_NEG_EIG_TOL:
        raise InvalidStateError(
            f"density matrix has eigenvalue {dec.eigenvalues[0]!r} below the roundoff floor"
        )
    return np.clip(dec.eigenvalues, 0.0, None), dec.eigenvectors


def _entropy_from_spectrum(w: np.ndarray) -> float:
    supported = w[w > EPS_WEIGHT]
    return max(float(-(supported * np.log(supported)).sum()), 0.0)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho ln rho] in nats; zero for pure states, ln d at most."""
    w, _ = _density_spectrum(rho)
    return _entropy_from_spectrum(w)


def relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = Tr[rho ln rho - rho ln sigma], or +inf on support escape.

    Returns ``math.inf`` when an eigenvector of ``rho`` with weight above
    ``EPS_WEIGHT`` leaks more than 1e-10 squared overlap into the null space
    of ``sigma``; the value is then genuinely infinite, not an error.
    """
    if as_operator(rho).shape != as_operator(sigma).shape:
        raise OperatorError("relative entropy requires states of equal dimension")
    w_r, v_r = _density_spectrum(rho)
    w_s, v_s = _density_spectrum(sigma)

    # overlap[j, i] = |<sigma_j|rho_i>|^2
    overlap = np.abs(v_s.conj().T @ v_r) ** 2
    null_s = w_s <= EPS_WEIGHT
    supported_r = w_r > EPS_WEIGHT
    if null_s.any() and supported_r.any():
        leakage = overlap[null_s][:, supported_r].sum(axis=0)
        if float(leakage.max()) > _SUPPORT_TOL:
            return math.inf

    w_sup = w_r[supported_r]
    tr_rho_ln_rho = float((w_sup * np.log(w_sup)).sum())
    keep_s = ~null_s
    weights_on_sigma_basis = overlap[keep_s] @ w_r
    tr_rho_ln_sigma = float((weights_on_sigma_basis * np.log(w_s[keep_s])).sum())
    return tr_rho_ln_rho - tr_rho_ln_sigma


def entropy_identity_residual(ts: ThermalState, eb: EnergyBreakdown) -> float:
    """S(rho_AB) - beta*E - ln Z_AB; identically zero for a Gibbs state."""
    return von_neumann_entropy(ts.rho) - ts.beta * eb.e_total - ts.log_z


def mutual_information(state, dims: DimPair | None = None) -> float:
    """I = S(rho_A) + S(rho_B) - S(rho_AB) for a bipartite density matrix.

    Accepts a ThermalState, or any density matrix together with its ``dims``.
    """
    if isinstance(state, ThermalState):
        s_ab = _entropy_from_spectrum(state.populations)
        return von_neumann_entropy(state.rho_a) + von_neumann_entropy(state.rho_b) - s_ab
    if dims is None:
        raise OperatorError("dims is required when passing a bare density matrix")
    rho = as_operator(state)
    rho_a = partial_trace(rho, dims, "A")
    rho_b = partial_trace(rho, dims, "B")
    return von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)


def _thermal_points(bh: BipartiteHamiltonian, betas) -> list[tuple[InfoReport, EnergyBreakdown]]:
    """``thermal_point`` at every beta in ``betas``, from one spectrum per Hamiltonian.

    Every beta is checked before any work. H_AB, H_A and H_B are then
    diagonalized once each, and each beta is read off those spectra with
    exactly the arithmetic of a single point.
    """
    betas = [_check_beta(beta) for beta in betas]
    h = assemble_bipartite(bh)
    dec, dec_a, dec_b = eigh(h), eigh(bh.h_a), eigh(bh.h_b)
    points = []
    for beta in betas:
        ts = _thermal_state(dec, h, beta, bh.dims)
        eb = energy_breakdown(bh, ts)
        log_z_a = _boltzmann(dec_a, beta)[1]
        log_z_b = _boltzmann(dec_b, beta)[1]
        s_a = von_neumann_entropy(ts.rho_a)
        s_b = von_neumann_entropy(ts.rho_b)
        s_ab = _entropy_from_spectrum(ts.populations)
        report = InfoReport(
            s_a=s_a,
            s_b=s_b,
            s_ab=s_ab,
            mutual_info=s_a + s_b - s_ab,
            upper_bound=-beta * eb.e_int + log_z_a + log_z_b - ts.log_z,
            log_z_a=log_z_a,
            log_z_b=log_z_b,
            log_z_ab=ts.log_z,
            e_int=eb.e_int,
            beta=beta,
        )
        points.append((report, eb))
    return points


def thermal_point(bh: BipartiteHamiltonian, beta: float) -> tuple[InfoReport, EnergyBreakdown]:
    """Evaluate every entropic and energetic quantity for one (model, beta).

    This is the single pipeline behind sweeps, the random explorer and the
    CLI: joint Gibbs state, reduced states, three entropies, the energy
    decomposition, the two local partition functions, the mutual information
    and its upper bound. The joint Hamiltonian is diagonalized once; S_AB is
    read off the Gibbs populations, which are the spectrum of rho_AB.
    """
    return _thermal_points(bh, (beta,))[0]


def mutual_info_upper_bound(bh: BipartiteHamiltonian, beta: float) -> float:
    """Upper bound on the thermal mutual information of a bipartite model."""
    return thermal_point(bh, beta)[0].upper_bound
