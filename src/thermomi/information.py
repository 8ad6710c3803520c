"""Entropies and the interaction-energy bound on mutual information.

Everything is in nats. The central quantities for a bipartite thermal state:

    S(rho)        = -Tr[rho ln rho]
    I             = S(rho_A) + S(rho_B) - S(rho_AB)
    I_ub          = -beta*E_int + ln(Z_A Z_B / Z_AB)

with I <= I_ub for every thermal bipartite state, and equality when the
coupling vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .models import BipartiteHamiltonian, _local_part
from .operator_core import OperatorError, _first_failure, as_operator, eigh
from .thermal import (
    EnergyBreakdown,
    _check_beta,
    _populations,
    _reduced_blocks,
    _reduced_states,
)

__all__ = [
    "EPS_WEIGHT",
    "InvalidStateError",
    "InfoReport",
    "von_neumann_entropy",
    "thermal_point",
]

# Eigenvalues at or below this carry zero entropy (continuous 0 ln 0 = 0).
EPS_WEIGHT = 1e-14
# Negative eigenvalues above this floor are roundoff and are clipped to zero;
# anything more negative is a logic bug and is rejected.
_NEG_EIG_TOL = 1e-10
_TRACE_TOL = 1e-10


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


def _density_spectrum(rho) -> np.ndarray:
    """Validate a density matrix, or each of a stack (..., d, d), and return
    its spectrum with roundoff negatives clipped to zero."""
    dec = eigh(rho)
    trace = np.trace(np.asarray(rho), axis1=-2, axis2=-1).real
    failed = np.abs(trace - 1.0) > _TRACE_TOL
    if failed.any():
        where, value = _first_failure(failed, trace)
        raise InvalidStateError(f"{where}density matrix trace {value!r} deviates from 1")
    lowest = dec.eigenvalues[..., 0]
    failed = lowest < -_NEG_EIG_TOL
    if failed.any():
        where, value = _first_failure(failed, lowest)
        raise InvalidStateError(
            f"{where}density matrix has eigenvalue {value!r} below the roundoff floor"
        )
    return np.clip(dec.eigenvalues, 0.0, None)


def _entropy_from_spectrum(w: np.ndarray) -> np.ndarray:
    """-sum w ln w along the last axis over the weights above EPS_WEIGHT; never negative.

    Weights at or below EPS_WEIGHT add exact zeros, so a row's bits do not
    depend on how many rows share the call.
    """
    terms = w * np.log(np.where(w > EPS_WEIGHT, w, 1.0))
    return np.maximum(-terms.sum(axis=-1), 0.0)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho ln rho] in nats; zero for pure states, ln d at most."""
    return float(_entropy_from_spectrum(_density_spectrum(as_operator(rho))))


def _joint_spectra(bh: BipartiteHamiltonian, couplings) -> tuple[np.ndarray, ...]:
    """What ``_thermal_points`` needs of the joint spectra, from one (stacked) eigh.

    Returns the eigenvalues, the eigenprojector blocks of ``_reduced_blocks``
    and the per-level energies <v_k|X|v_k> for X = H, H_A x I, I x H_B and
    H_int, stacked (..., 4, n). The joint eigenvectors and Hamiltonians are
    dropped on return.
    """
    h_int = np.asarray(couplings, dtype=np.float64)[..., None, None] * bh.h_int
    dec = eigh(_local_part(bh) + h_int)
    v = dec.eigenvectors
    block_a, block_b = _reduced_blocks(v, bh.dims)
    levels = np.stack(
        [
            dec.eigenvalues,
            (block_a * bh.h_a.T[:, :, None]).sum(axis=(-3, -2)).real,
            (block_b * bh.h_b.T[:, :, None]).sum(axis=(-3, -2)).real,
            (v.conj() * (h_int @ v)).sum(axis=-2).real,
        ],
        axis=-2,
    )
    return dec.eigenvalues, block_a, block_b, levels


def _thermal_points(bh: BipartiteHamiltonian, betas, couplings=1.0) -> dict[str, np.ndarray]:
    """Every quantity of ``thermal_point``, and ``gap``, at many points as columns (m,).

    Point i is the model with its coupling H_int scaled by ``couplings[i]``,
    at inverse temperature ``betas[i]``; a scalar coupling, or a single beta,
    serves every point. Every beta is checked before any work. The joint
    Hamiltonians go through one (stacked) eigh, H_A and H_B through one each.
    Each point then costs O(n^2) arithmetic on those spectra plus its share of
    one stacked eigh of the reduced states; no joint rho is formed. Every
    reduction over points runs along the last axis, so a point's bits do not
    depend on how many points share the call. ``gap`` is ``upper_bound -
    mutual_info``, computed here only. A non-finite result, such as ln Z
    overflowing at an extreme beta, raises ``OperatorError`` naming the
    quantity and the beta.
    """
    betas = np.array([_check_beta(beta) for beta in betas], dtype=np.float64)
    # An overflow surfaces as a non-finite column, reported below with its
    # quantity and beta; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        energies, block_a, block_b, levels = _joint_spectra(bh, couplings)
        dec_a, dec_b = eigh(bh.h_a), eigh(bh.h_b)

        populations, log_z_ab = _populations(energies, betas)
        log_z_a = _populations(dec_a.eigenvalues, betas)[1]
        log_z_b = _populations(dec_b.eigenvalues, betas)[1]
        e_total, e_a, e_b, e_int = np.moveaxis(
            (populations[:, None, :] * levels).sum(axis=-1), -1, 0
        )
        s_a = _entropy_from_spectrum(_density_spectrum(_reduced_states(populations, block_a)))
        s_b = _entropy_from_spectrum(_density_spectrum(_reduced_states(populations, block_b)))
        s_ab = _entropy_from_spectrum(populations)
        mutual_info = s_a + s_b - s_ab
        upper_bound = -betas * e_int + log_z_a + log_z_b - log_z_ab
        gap = upper_bound - mutual_info
    columns = {
        "s_a": s_a,
        "s_b": s_b,
        "s_ab": s_ab,
        "mutual_info": mutual_info,
        "upper_bound": upper_bound,
        "log_z_a": log_z_a,
        "log_z_b": log_z_b,
        "log_z_ab": log_z_ab,
        "e_int": e_int,
        "beta": betas,
        "e_total": e_total,
        "e_a": e_a,
        "e_b": e_b,
        "gap": gap,
    }
    points = len(populations)
    columns = {name: np.broadcast_to(column, (points,)) for name, column in columns.items()}
    finite = np.isfinite(list(columns.values()))
    if not finite.all():
        k, i = np.unravel_index(np.argmin(finite), finite.shape)
        name = list(columns)[k]
        raise OperatorError(
            f"{name} is {float(columns[name][i])!r} at beta {float(columns['beta'][i])!r}"
        )
    return columns


def thermal_point(bh: BipartiteHamiltonian, beta: float) -> tuple[InfoReport, EnergyBreakdown]:
    """Evaluate every entropic and energetic quantity for one (model, beta).

    This is the single pipeline behind sweeps, the random explorer and the
    CLI: log Z and the populations from the joint spectrum, the reduced
    states from its eigenprojectors, three entropies, the energy
    decomposition, the two local partition functions, the mutual information
    and its upper bound. Each Hamiltonian is diagonalized once; S_AB is read
    off the Gibbs populations, which are the spectrum of rho_AB.
    """
    point = {name: column.item() for name, column in _thermal_points(bh, (beta,)).items()}
    return (
        InfoReport(**{f.name: point[f.name] for f in fields(InfoReport)}),
        EnergyBreakdown(**{f.name: point[f.name] for f in fields(EnergyBreakdown)}),
    )
