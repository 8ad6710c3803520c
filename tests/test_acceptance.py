"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion; the shared random battery is 200 Gaussian-Hermitian bipartite
models (dims cycling 2x2, 2x3, 3x3) evaluated at five inverse temperatures.
"""

import math

import numpy as np
import pytest

from thermomi import (
    DimPair,
    GroundStateClass,
    XYParams,
    Spacing,
    SweepMode,
    SweepSpec,
    assemble_bipartite,
    energy_breakdown,
    entropy_identity_residual,
    fig1_suite,
    frobenius_norm,
    gibbs_state,
    mutual_info_upper_bound,
    mutual_information,
    partial_trace,
    random_bipartite,
    run_sweep,
    thermal_point,
    xy_ground_state,
    xy_hamiltonian,
)
from thermomi.cli import main as cli_main

from oracles import oracle_expm_taylor, random_hermitian, spectral_apply

LN2 = math.log(2.0)
BATTERY_BETAS = (0.1, 0.5, 1.0, 2.0, 10.0)
DIMS_CYCLE = ((2, 2), (2, 3), (3, 3))

# Relative gap at beta_inv = 10 for the three field configs at g = 1, frozen
# from a pre-build closed-form evaluation (measured 2.48e-5, 3.87e-4, 3.95e-4).
HIGH_T_RELATIVE_GAP_THRESHOLDS = {
    (0.5, 0.5): 3e-5,
    (2.0, 2.0): 4e-4,
    (3.0, 1.0): 4e-4,
}


def _passed(number, message):
    print(f"criterion {number:2d}: PASS: {message}")


@pytest.fixture(scope="module")
def battery():
    """200 random interacting models, fully evaluated at each battery beta."""
    points = []
    for k in range(200):
        d_a, d_b = DIMS_CYCLE[k % 3]
        bh = random_bipartite(d_a, d_b, 1.0, seed=1000 + k)
        h = assemble_bipartite(bh)
        for beta in BATTERY_BETAS:
            ts = gibbs_state(h, beta, bh.dims)
            eb = energy_breakdown(bh, ts)
            report, _ = thermal_point(bh, beta)
            points.append({"bh": bh, "beta": beta, "ts": ts, "eb": eb, "report": report})
    return points


def test_criterion_01_entropy_identity(battery):
    worst = max(abs(entropy_identity_residual(p["ts"], p["eb"])) for p in battery)
    assert worst <= 1e-10
    _passed(1, f"entropy identity residual <= 1e-10 (worst {worst:.2e})")


def test_criterion_02_bound_inequality(battery, capsys):
    violations = sum(
        1 for p in battery if p["report"].mutual_info > p["report"].upper_bound + 1e-10
    )
    assert violations == 0
    code = cli_main(
        ["explore", "--dims", "2x2", "--samples", "100", "--scale", "1", "--seed", "1"]
    )
    capsys.readouterr()
    assert code == 0
    worst = min(p["report"].upper_bound - p["report"].mutual_info for p in battery)
    _passed(2, f"I <= I_ub on 1000 points, explore exits 0 (min gap {worst:.2e})")


def test_criterion_03_subsystem_inequalities(battery):
    worst = -math.inf
    for p in battery:
        report, eb, beta = p["report"], p["eb"], p["beta"]
        excess_a = report.s_a - (beta * eb.e_a + report.log_z_a)
        excess_b = report.s_b - (beta * eb.e_b + report.log_z_b)
        worst = max(worst, excess_a, excess_b)
    assert worst <= 1e-10
    _passed(3, f"S(rho_X) <= beta E_X + ln Z_X (worst excess {worst:.2e})")


def test_criterion_04_no_interaction_degenerate_case():
    worst_mi = worst_ub = worst_lnz = 0.0
    for k in range(30):
        d_a, d_b = DIMS_CYCLE[k % 3]
        bh = random_bipartite(d_a, d_b, 0.0, seed=2000 + k)
        for beta in BATTERY_BETAS:
            report, _ = thermal_point(bh, beta)
            worst_mi = max(worst_mi, abs(report.mutual_info))
            worst_ub = max(worst_ub, abs(report.upper_bound))
            worst_lnz = max(
                worst_lnz, abs(report.log_z_ab - report.log_z_a - report.log_z_b)
            )
    assert worst_mi <= 1e-10
    assert worst_ub <= 1e-10
    assert worst_lnz <= 1e-10
    _passed(4, f"H_int = 0: I, I_ub, ln Z defect all <= 1e-10 (worst {worst_lnz:.2e})")


def test_criterion_05_zero_field_equality():
    worst = 0.0
    for beta in (0.1, 1.0, 10.0):
        for g in (0.5, 1.0, 2.0):
            bh = xy_hamiltonian(XYParams(0.0, 0.0, g))
            ts = gibbs_state(assemble_bipartite(bh), beta, bh.dims)
            worst = max(
                worst, abs(mutual_information(ts) - mutual_info_upper_bound(bh, beta))
            )
    assert worst <= 1e-10
    bh = xy_hamiltonian(XYParams(0.0, 0.0, 1.0))
    ts = gibbs_state(assemble_bipartite(bh), 1.0, bh.dims)
    mi = mutual_information(ts)
    assert abs(mi - 0.65562) <= 1e-4
    _passed(5, f"zero-field I = I_ub (worst {worst:.2e}); I(g=1, beta=1) = {mi:.6f}")


def test_criterion_06_low_temperature_explosion():
    bh = xy_hamiltonian(XYParams(0.5, 0.5, 1.0))
    report_10, _ = thermal_point(bh, 10.0)   # beta_inv = 0.1
    report_20, _ = thermal_point(bh, 20.0)   # beta_inv = 0.05
    assert report_10.upper_bound > 2 * LN2
    assert report_10.mutual_info <= 2 * LN2 + 1e-10
    assert report_20.upper_bound > report_10.upper_bound
    _passed(
        6,
        f"I_ub(beta_inv=0.1) = {report_10.upper_bound:.4f} > 2 ln 2, "
        f"grows toward beta_inv = 0.05",
    )


def test_criterion_07_high_temperature_convergence():
    for (b1, b2), threshold in HIGH_T_RELATIVE_GAP_THRESHOLDS.items():
        records = run_sweep(
            SweepSpec(
                mode=SweepMode.TEMPERATURE,
                params=XYParams(b1, b2, 1.0),
                axis_min=0.1,
                axis_max=10.0,
                points=200,
                spacing=Spacing.LOG,
            )
        )
        tail = [r for r in records if r.beta_inv >= 1.0]
        assert all(
            tail[i + 1].gap <= tail[i].gap + 1e-12 for i in range(len(tail) - 1)
        ), (b1, b2)
        last = records[-1]
        relative_gap = last.gap / max(last.upper_bound, 1e-15)
        assert relative_gap <= threshold, (b1, b2, relative_gap)
    _passed(7, "gap non-increasing for beta_inv >= 1; relative gap under frozen thresholds")


def test_criterion_08_coupling_monotonicity():
    suite = fig1_suite()
    for label in "def":
        gaps = [r.gap for r in suite[label]]
        assert abs(gaps[0]) <= 1e-10, label
        assert all(gaps[i + 1] >= gaps[i] - 1e-12 for i in range(len(gaps) - 1)), label
    _passed(8, "gap starts at 0 and grows with g on panels d-f")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(97)
    worst = 0.0
    for i in range(100):
        d = 2 + i % 7
        beta = (0.0, 0.1, 1.0, 10.0)[i % 4]
        h = random_hermitian(rng, d, unit_norm=True)
        delta = frobenius_norm(
            spectral_apply(h, lambda lam: math.exp(-beta * lam))
            - oracle_expm_taylor(h, -beta)
        )
        worst = max(worst, delta)
    assert worst <= 1e-8
    _passed(9, f"spectral exp vs Taylor oracle on 100 matrices (worst {worst:.2e})")


def test_criterion_10_ground_state_classification():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 50:
        b1 = rng.uniform(-2.5, 2.5)
        b2 = rng.uniform(-2.5, 2.5)
        g = rng.uniform(0.3, 2.5)
        if abs(b1 * b2 - g * g) < 0.1:
            continue
        info = xy_ground_state(XYParams(b1, b2, g))
        projector = np.outer(info.state_vector, info.state_vector.conj())
        reduced = partial_trace(projector, DimPair(2, 2), "A")
        entangled = np.linalg.eigvalsh(reduced).min() > 1e-10
        expected = GroundStateClass.ENTANGLED if entangled else GroundStateClass.SEPARABLE
        assert info.classification is expected, (b1, b2, g)
        checked += 1
    _passed(10, "threshold classification matches brute force on 50 triples")
