"""Entropies and the interaction-energy bound on mutual information.

Everything is in nats. The central quantities for a bipartite thermal state:

    S(rho)        = -Tr[rho ln rho]
    I             = S(rho_A) + S(rho_B) - S(rho_AB)
    I_ub          = -beta*E_int + ln(Z_A Z_B / Z_AB)

with I <= I_ub for every thermal bipartite state, and equality when the
coupling vanishes. The spectral kernel ``_thermal_points`` and each of its
steps from spectra to columns live here; ``thermal`` is the explicit-rho
reference it is checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .models import BipartiteHamiltonian, _local_part
from .operator_core import DimPair, OperatorError, _first_failure, as_operator, eigh

__all__ = [
    "EPS_WEIGHT",
    "InvalidStateError",
    "InfoReport",
    "EnergyBreakdown",
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


class InfoReport(NamedTuple):
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


class EnergyBreakdown(NamedTuple):
    """Total thermal energy split into local and interaction parts."""

    e_total: float
    e_a: float
    e_b: float
    e_int: float


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
    mutual_info``, computed here only, and must stay bitwise that difference:
    perfbench and ``test_explore_gap_min_equals_pointwise_replay`` require
    ``gap_min`` to equal ``report.upper_bound - report.mutual_info`` of the
    worst model exactly, so a more accurate gap must change ``upper_bound``
    or ``mutual_info`` too. A non-finite result, such as ln Z overflowing at
    an extreme beta, raises ``OperatorError`` naming the quantity and the
    beta.
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
        InfoReport._make(point[name] for name in InfoReport._fields),
        EnergyBreakdown._make(point[name] for name in EnergyBreakdown._fields),
    )
