"""Parameter sweeps over temperature and coupling, and the random explorer.

Grid points are independent pure evaluations; records always come back in
ascending axis order, and identical specs produce identical records byte for
byte once serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .information import _thermal_points
from .models import XYParams, random_bipartite, xy_hamiltonian
from .thermal import _check_beta

__all__ = [
    "VIOLATION_TOL",
    "SweepMode",
    "Spacing",
    "SweepSpec",
    "SweepRecord",
    "ExploreSummary",
    "sweep_axis",
    "evaluate_xy_point",
    "run_sweep",
    "fig1_suite",
    "explore_bound",
    "FIG1_FIELDS",
]

# A gap below -VIOLATION_TOL counts as a bound violation (an implementation
# bug: the inequality itself is proven).
VIOLATION_TOL = 1e-10

# Default grids: temperature beta^-1 in [0.1, 10] log-spaced, coupling
# g in [0, 5] linear. Both cover the low-temperature blow-up and the
# high-temperature convergence regime.
DEFAULT_TEMPERATURE_GRID = (0.1, 10.0, 200)
DEFAULT_COUPLING_GRID = (0.0, 5.0, 201)

FIG1_FIELDS = {"a": (0.5, 0.5), "b": (2.0, 2.0), "c": (3.0, 1.0)}


class SweepMode(Enum):
    TEMPERATURE = "temperature"
    COUPLING = "coupling"


class Spacing(Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description.

    In TEMPERATURE mode the axis is beta^-1 and ``params.g`` is held fixed;
    in COUPLING mode the axis is g and ``beta_inv`` is the fixed temperature.
    """

    mode: SweepMode
    params: XYParams
    axis_min: float
    axis_max: float
    points: int
    spacing: Spacing
    beta_inv: float = 1.0


@dataclass(frozen=True)
class SweepRecord:
    """All quantities of one grid point; field order matches the CSV schema."""

    beta_inv: float
    g: float
    b1: float
    b2: float
    mutual_info: float
    upper_bound: float
    gap: float
    s_a: float
    s_b: float
    s_ab: float
    e_total: float
    e_a: float
    e_b: float
    e_int: float
    log_z_a: float
    log_z_b: float
    log_z_ab: float


@dataclass(frozen=True)
class ExploreSummary:
    """Aggregate of the random bound-explorer battery."""

    d_a: int
    d_b: int
    samples: int
    interaction_scale: float
    seed: int
    beta_list: tuple[float, ...]
    violations: int
    gap_min: float
    gap_mean: float
    gap_max: float
    worst_seed: int
    mi_min: float
    mi_max: float


def _validate_spec(spec: SweepSpec) -> None:
    if not (math.isfinite(spec.axis_min) and math.isfinite(spec.axis_max)):
        raise ValueError(
            f"axis_min {spec.axis_min!r} and axis_max {spec.axis_max!r} must be finite"
        )
    if spec.axis_min >= spec.axis_max:
        raise ValueError(f"axis_min {spec.axis_min!r} must be below axis_max {spec.axis_max!r}")
    if spec.points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {spec.points}")
    if spec.spacing is Spacing.LOG and spec.axis_min <= 0.0:
        raise ValueError("log spacing requires axis_min > 0")
    if spec.mode is SweepMode.TEMPERATURE and spec.axis_min <= 0.0:
        raise ValueError("temperature sweeps require beta_inv > 0")
    if spec.mode is SweepMode.COUPLING:
        if not math.isfinite(spec.beta_inv) or spec.beta_inv <= 0.0:
            raise ValueError(f"fixed beta_inv must be positive, got {spec.beta_inv!r}")


def sweep_axis(spec: SweepSpec) -> np.ndarray:
    """Grid values for a spec; endpoints are exactly axis_min and axis_max."""
    _validate_spec(spec)
    if spec.spacing is Spacing.LOG:
        return np.geomspace(spec.axis_min, spec.axis_max, spec.points)
    return np.linspace(spec.axis_min, spec.axis_max, spec.points)


_RECORD_FIELDS = [f.name for f in fields(SweepRecord)]


def _records(params: XYParams, beta_inv, g, columns) -> list[SweepRecord]:
    """Grid records from ``_thermal_points`` columns.

    ``beta_inv`` and ``g`` are the recorded axis values: one shared value or
    one per point.
    """
    points = len(columns["beta"])
    values = dict(
        columns, beta_inv=np.asarray(beta_inv, dtype=np.float64), g=g, b1=params.b1, b2=params.b2
    )
    rows = zip(*(np.broadcast_to(values[name], (points,)).tolist() for name in _RECORD_FIELDS))
    return [SweepRecord(*row) for row in rows]


def evaluate_xy_point(params: XYParams, beta: float, beta_inv: float | None = None) -> SweepRecord:
    """Full evaluation of one XY-model grid point.

    ``beta_inv`` is recorded as given (so grid values serialize exactly);
    it defaults to 1/beta.
    """
    if beta_inv is None:
        beta_inv = math.inf if beta == 0.0 else 1.0 / beta
    return _records(params, beta_inv, params.g, _thermal_points(xy_hamiltonian(params), (beta,)))[0]


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate a sweep, one record per grid point in ascending axis order.

    The whole sweep is one ``_thermal_points`` call. A temperature sweep
    diagonalizes its one Hamiltonian once; a coupling sweep diagonalizes
    H(b1, b2, 0) + g (sx sx + sy sy) for every g in one stacked eigh, and
    H_A and H_B once each.
    """
    axis = sweep_axis(spec)
    if spec.mode is SweepMode.TEMPERATURE:
        columns = _thermal_points(xy_hamiltonian(spec.params), 1.0 / axis)
        return _records(spec.params, axis, spec.params.g, columns)
    unit_coupling = xy_hamiltonian(replace(spec.params, g=1.0))
    columns = _thermal_points(unit_coupling, (1.0 / spec.beta_inv,), couplings=axis)
    return _records(spec.params, spec.beta_inv, axis, columns)


def fig1_suite() -> dict[str, list[SweepRecord]]:
    """The six reference sweeps, labelled a-f.

    Panels a-c: temperature sweeps at g = 1 for fields (1/2, 1/2), (2, 2)
    and (3, 1). Panels d-f: coupling sweeps at beta^-1 = 1 for the same
    field pairs.
    """
    lo, hi, n = DEFAULT_TEMPERATURE_GRID
    glo, ghi, gn = DEFAULT_COUPLING_GRID
    suite: dict[str, list[SweepRecord]] = {}
    for label, (b1, b2) in FIG1_FIELDS.items():
        suite[label] = run_sweep(
            SweepSpec(
                mode=SweepMode.TEMPERATURE,
                params=XYParams(b1=b1, b2=b2, g=1.0),
                axis_min=lo,
                axis_max=hi,
                points=n,
                spacing=Spacing.LOG,
            )
        )
    for label, (b1, b2) in zip("def", FIG1_FIELDS.values()):
        suite[label] = run_sweep(
            SweepSpec(
                mode=SweepMode.COUPLING,
                params=XYParams(b1=b1, b2=b2, g=0.0),
                axis_min=glo,
                axis_max=ghi,
                points=gn,
                spacing=Spacing.LINEAR,
                beta_inv=1.0,
            )
        )
    return suite


def explore_bound(
    d_a: int,
    d_b: int,
    samples: int,
    beta_list: Sequence[float],
    interaction_scale: float,
    seed: int,
) -> ExploreSummary:
    """Stress the bound on random Gaussian-Hermitian models.

    Sample k uses seed ``seed + k``, so the worst case is replayable via
    ``random_bipartite(d_a, d_b, interaction_scale, worst_seed)``. Gap
    statistics run over all (sample, beta) pairs; anything below
    -VIOLATION_TOL counts as a violation.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    betas = tuple(_check_beta(b) for b in beta_list)
    if not betas:
        raise ValueError("beta_list must not be empty")

    gaps: list[float] = []
    mi_values: list[float] = []
    for k in range(samples):
        columns = _thermal_points(random_bipartite(d_a, d_b, interaction_scale, seed + k), betas)
        gaps.extend(columns["gap"].tolist())
        mi_values.extend(columns["mutual_info"].tolist())
    gap_min = min(gaps)
    return ExploreSummary(
        d_a=d_a,
        d_b=d_b,
        samples=samples,
        interaction_scale=float(interaction_scale),
        seed=seed,
        beta_list=betas,
        violations=sum(gap < -VIOLATION_TOL for gap in gaps),
        gap_min=gap_min,
        gap_mean=sum(gaps) / len(gaps),
        gap_max=max(gaps),
        worst_seed=seed + gaps.index(gap_min) // len(betas),
        mi_min=min(mi_values),
        mi_max=max(mi_values),
    )
