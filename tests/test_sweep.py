import math

import numpy as np
import pytest

import thermomi.sweep
from thermomi import (
    OperatorError,
    Spacing,
    SweepMode,
    SweepSpec,
    XYParams,
    evaluate_xy_point,
    explore_bound,
    fig1_suite,
    random_bipartite,
    run_sweep,
    sweep_axis,
    thermal_point,
)
from thermomi.cli import _records_csv

from oracles import xy_closed_form

LN2 = math.log(2.0)


def temperature_spec(b1, b2, g=1.0, lo=0.1, hi=10.0, points=50):
    return SweepSpec(
        mode=SweepMode.TEMPERATURE,
        params=XYParams(b1, b2, g),
        axis_min=lo,
        axis_max=hi,
        points=points,
        spacing=Spacing.LOG,
    )


def coupling_spec(b1, b2, beta_inv=1.0, points=51):
    return SweepSpec(
        mode=SweepMode.COUPLING,
        params=XYParams(b1, b2, 0.0),
        axis_min=0.0,
        axis_max=5.0,
        points=points,
        spacing=Spacing.LINEAR,
        beta_inv=beta_inv,
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_endpoints_are_exact():
    axis = sweep_axis(temperature_spec(0.5, 0.5))
    assert axis[0] == 0.1 and axis[-1] == 10.0
    axis = sweep_axis(coupling_spec(1.0, 1.0))
    assert axis[0] == 0.0 and axis[-1] == 5.0


def test_invalid_specs_rejected_before_computation():
    good = temperature_spec(0.5, 0.5)
    bad = [
        SweepSpec(SweepMode.TEMPERATURE, good.params, 1.0, 1.0, 10, Spacing.LOG),
        SweepSpec(SweepMode.TEMPERATURE, good.params, 2.0, 1.0, 10, Spacing.LOG),
        SweepSpec(SweepMode.TEMPERATURE, good.params, 0.1, 10.0, 1, Spacing.LOG),
        SweepSpec(SweepMode.COUPLING, good.params, -1.0, 5.0, 10, Spacing.LOG),
        SweepSpec(SweepMode.TEMPERATURE, good.params, 0.0, 10.0, 10, Spacing.LINEAR),
        SweepSpec(SweepMode.COUPLING, good.params, 0.0, 5.0, 10, Spacing.LINEAR, beta_inv=0.0),
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            run_sweep(spec)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_temperature_sweep_panel_a_config():
    records = run_sweep(temperature_spec(0.5, 0.5, points=20))
    first = records[0]  # smallest beta_inv = 0.1
    assert first.beta_inv == 0.1
    assert first.upper_bound > 2 * LN2
    assert first.mutual_info <= 2 * LN2 + 1e-10
    assert [r.beta_inv for r in records] == sorted(r.beta_inv for r in records)


def test_coupling_sweep_vanishes_at_zero_coupling():
    records = run_sweep(coupling_spec(1.0, 2.0))
    first = records[0]
    assert first.g == 0.0
    assert abs(first.mutual_info) <= 1e-10
    assert abs(first.upper_bound) <= 1e-10


def test_zero_field_sweep_has_zero_gap_everywhere():
    records = run_sweep(temperature_spec(0.0, 0.0, points=40))
    assert max(abs(r.gap) for r in records) <= 1e-10


def test_records_satisfy_invariants_and_match_closed_form():
    records = run_sweep(temperature_spec(2.0, 2.0, points=40))
    for rec in records[::5]:
        assert rec.gap >= -1e-10
        assert abs(rec.mutual_info - (rec.s_a + rec.s_b - rec.s_ab)) <= 1e-12
        q = xy_closed_form(rec.b1, rec.b2, rec.g, 1.0 / rec.beta_inv)
        assert abs(rec.mutual_info - q["mutual_info"]) < 1e-10
        assert abs(rec.upper_bound - q["upper_bound"]) < 1e-10
        assert abs(rec.e_total - q["e_total"]) < 1e-10


def test_sweep_is_deterministic():
    spec = temperature_spec(3.0, 1.0, points=30)
    first = _records_csv(run_sweep(spec))
    second = _records_csv(run_sweep(spec))
    assert first == second


def test_temperature_sweep_matches_pointwise_evaluation():
    spec = temperature_spec(3.0, 1.0, points=30)
    pointwise = [
        evaluate_xy_point(spec.params, beta=1.0 / b, beta_inv=float(b)) for b in sweep_axis(spec)
    ]
    assert _records_csv(run_sweep(spec)) == _records_csv(pointwise)


def test_temperature_sweep_diagonalizes_its_hamiltonian_once(eigh_calls_by_dim):
    run_sweep(temperature_spec(3.0, 1.0, points=30))
    assert eigh_calls_by_dim[4] == 1


@pytest.mark.parametrize("b1, b2, beta_inv", [(3.0, 1.0, 1.0), (0.5, -2.0, 0.3), (0.0, 0.0, 4.0)])
def test_coupling_sweep_matches_pointwise_evaluation(b1, b2, beta_inv):
    spec = coupling_spec(b1, b2, beta_inv=beta_inv, points=41)
    pointwise = [
        evaluate_xy_point(XYParams(b1, b2, float(g)), beta=1.0 / beta_inv, beta_inv=beta_inv)
        for g in sweep_axis(spec)
    ]
    assert _records_csv(run_sweep(spec)) == _records_csv(pointwise)


def test_coupling_sweep_decomposes_local_hamiltonians_once(monkeypatch):
    shapes = []
    real_eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    run_sweep(coupling_spec(3.0, 1.0, points=201))
    # H_A and H_B alone; the 2x2 reduced states come as (201, 2, 2) stacks
    assert shapes.count((2, 2)) == 2
    assert shapes.count((201, 4, 4)) == 1
    assert len(shapes) == 5


# ---------------------------------------------------------------------------
# fig1 suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite():
    return fig1_suite()


def test_fig1_labels_and_sizes(suite):
    assert list(suite) == ["a", "b", "c", "d", "e", "f"]
    for label in "abc":
        assert len(suite[label]) == 200
    for label in "def":
        assert len(suite[label]) == 201


def test_fig1_field_configs(suite):
    assert suite["a"][0].b1 == 0.5 and suite["a"][0].b2 == 0.5
    assert suite["b"][0].b1 == 2.0 and suite["b"][0].b2 == 2.0
    assert suite["c"][0].b1 == 3.0 and suite["c"][0].b2 == 1.0
    for label in "abc":
        assert all(r.g == 1.0 for r in suite[label])
    for label in "def":
        assert all(r.beta_inv == 1.0 for r in suite[label])


def test_fig1_panel_d_starts_at_zero(suite):
    first = suite["d"][0]
    assert first.g == 0.0
    assert abs(first.mutual_info) <= 1e-10
    assert abs(first.upper_bound) <= 1e-10


def test_fig1_panel_a_high_temperature_agreement(suite):
    last = suite["a"][-1]  # beta_inv = 10
    assert last.beta_inv == 10.0
    relative_gap = (last.upper_bound - last.mutual_info) / max(last.upper_bound, 1e-15)
    assert relative_gap <= 0.1


def test_fig1_coupling_panels_gap_monotone(suite):
    for label in "def":
        gaps = [r.gap for r in suite[label]]
        assert all(gaps[i + 1] >= gaps[i] - 1e-12 for i in range(len(gaps) - 1))


# ---------------------------------------------------------------------------
# the random explorer
# ---------------------------------------------------------------------------

def test_explore_no_interaction_degenerates_to_zero():
    summary = explore_bound(2, 2, 25, [0.1, 1.0, 10.0], 0.0, seed=7)
    assert summary.violations == 0
    assert max(abs(summary.gap_min), abs(summary.gap_max)) <= 1e-10
    assert max(abs(summary.mi_min), abs(summary.mi_max)) <= 1e-10


def test_explore_bound_battery_2x2():
    summary = explore_bound(2, 2, 200, [0.1, 1.0, 10.0], 1.0, seed=0)
    assert summary.violations == 0
    assert summary.gap_min >= -1e-10


def test_explore_deterministic():
    one = explore_bound(2, 3, 30, [0.5, 2.0], 1.0, seed=11)
    two = explore_bound(2, 3, 30, [0.5, 2.0], 1.0, seed=11)
    assert one == two


def test_explore_worst_seed_replays():
    summary = explore_bound(2, 2, 40, [0.5, 1.5], 1.0, seed=19)
    bh = random_bipartite(2, 2, 1.0, seed=summary.worst_seed)
    gaps = []
    for beta in (0.5, 1.5):
        report, _ = thermal_point(bh, beta)
        gaps.append(report.upper_bound - report.mutual_info)
    assert min(gaps) == summary.gap_min


@pytest.mark.parametrize("d_a, d_b, samples", [(8, 8, 6), (3, 5, 10), (16, 16, 2)])
def test_explore_gap_min_equals_pointwise_replay(d_a, d_b, samples):
    betas = (0.1, 1.0, 10.0, 100.0)
    summary = explore_bound(d_a, d_b, samples, betas, 1.0, seed=23)
    for seed in range(23, 23 + samples):
        bh = random_bipartite(d_a, d_b, 1.0, seed=seed)
        gaps = []
        for beta in betas:
            report, _ = thermal_point(bh, beta)
            gaps.append(report.upper_bound - report.mutual_info)
        assert min(gaps) >= summary.gap_min
        if seed == summary.worst_seed:
            assert min(gaps) == summary.gap_min


def test_explore_rejects_a_non_finite_gap():
    # ln Z overflows at beta = 1e308; a NaN gap would count as no violation
    with pytest.raises(OperatorError, match="upper_bound is nan at beta 1e\\+308"):
        explore_bound(2, 2, 3, (1.0, 1e308), 1.0, seed=0)


@pytest.mark.parametrize("samples", [1, 4])
def test_explore_diagonalizes_each_model_once(eigh_calls_by_dim, samples):
    explore_bound(2, 3, samples, [0.1, 1.0, 10.0], 1.0, seed=3)
    assert eigh_calls_by_dim[6] == samples


def test_explore_validates_arguments(monkeypatch):
    drawn = []
    monkeypatch.setattr(thermomi.sweep, "random_bipartite", lambda *args: drawn.append(args))
    with pytest.raises(ValueError):
        explore_bound(2, 2, 0, [1.0], 1.0, seed=0)
    with pytest.raises(ValueError):
        explore_bound(2, 2, 5, [], 1.0, seed=0)
    for betas in ([-1.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            explore_bound(2, 2, 5, betas, 1.0, seed=0)
    assert drawn == []
