"""The three benchmark workloads: inputs made from the seed, one unit of work, checks.

A workload object yields its units in a fixed order for a seed. Unit 0 is
the untimed warm-up call; the timed loop starts at unit 1. ``run`` executes
a unit through thermomi's public entry points and ``check`` returns a list of
failures for its output (empty when correct). Thermomi functions are always
looked up through their module at call time, so the traced pass sees the
wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys

from thermomi import cli, information, models, sweep

import calibration

GOLDEN_TOL = 1e-9

# The paper's six reference sweeps, as fig1_suite() builds them:
# a-c temperature sweeps at g = 1, d-f coupling sweeps at beta^-1 = 1.
_FIG1_FIELDS = {"a": (0.5, 0.5), "b": (2.0, 2.0), "c": (3.0, 1.0),
                "d": (0.5, 0.5), "e": (2.0, 2.0), "f": (3.0, 1.0)}


def fig1_spec(label: str) -> sweep.SweepSpec:
    b1, b2 = _FIG1_FIELDS[label]
    if label in "abc":
        return sweep.SweepSpec(
            mode=sweep.SweepMode.TEMPERATURE, params=models.XYParams(b1, b2, 1.0),
            axis_min=0.1, axis_max=10.0, points=200, spacing=sweep.Spacing.LOG,
        )
    return sweep.SweepSpec(
        mode=sweep.SweepMode.COUPLING, params=models.XYParams(b1, b2, 0.0),
        axis_min=0.0, axis_max=5.0, points=201, spacing=sweep.Spacing.LINEAR, beta_inv=1.0,
    )


class Workload:
    # untraced + traced pass pairs in a trace run
    trace_rounds = 2
    # timed before each unit, and its median time on the reference host
    calibrate = staticmethod(calibration.kernel_ms)
    reference_ms = calibration.REFERENCE_MS

    def run_in_process(self, unit):
        """The unit run inside this interpreter (set-up and trace passes)."""
        return self.run(unit)

    def latency(self, result, wall: float) -> float:
        """Latency of a unit whose run took ``wall`` seconds in this process."""
        return wall

    def peak_rss_kib(self, result):
        """Peak RSS of the process that ran the unit, when it is not this one."""
        return None


class Fig1(Workload):
    """The six reference sweeps; a unit is one sweep (200 or 201 XY points).

    The seed shuffles the order of the six sweeps within each round of six.
    The traced pass is one whole ``fig1_suite()`` call (1203 points).
    """

    name = "fig1"
    joint_dim = 4

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.goldens = {}
        for label in _FIG1_FIELDS:
            with open(os.path.join(root, "tests", "golden", f"fig1_{label}.csv")) as fh:
                self.goldens[label] = [
                    {k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)
                ]

    def units(self):
        rng = random.Random(self.seed)
        labels = sorted(_FIG1_FIELDS)
        while True:
            rng.shuffle(labels)
            yield from labels

    def points(self, label: str) -> int:
        return fig1_spec(label).points

    def run(self, label: str):
        return sweep.run_sweep(fig1_spec(label))

    def check(self, label: str, records) -> list[str]:
        golden = self.goldens[label]
        if len(records) != len(golden):
            return [f"fig1_{label}: {len(records)} records, golden has {len(golden)}"]
        errors = []
        for i, (rec, row) in enumerate(zip(records, golden)):
            for name, want in row.items():
                got = getattr(rec, name)
                if not abs(got - want) <= GOLDEN_TOL:
                    errors.append(f"fig1_{label} row {i} {name}: {got!r} vs golden {want!r}")
        return errors

    def trace_pass(self, tracer=None):
        suite = sweep.fig1_suite()
        return [(label, suite[label]) for label in sorted(_FIG1_FIELDS)]


class Explore(Workload):
    """Random 16x16 bipartite models; a unit is ``explore_bound`` over one model at 4 betas.

    Unit k draws its model from seed ``seed * 100000 + k``. The traced pass is
    always units 1 to 5 (5 models x 4 betas), so every pass has the same inputs.
    Every unit is checked for violations and finite statistics; every
    ``replay_every``-th model is also replayed, which costs as much as the unit.
    """

    name = "explore-16x16"
    joint_dim = 256
    d = 16
    betas = (0.1, 1.0, 10.0, 100.0)
    samples = 1
    trace_units = 5
    replay_every = 4
    calibrate = staticmethod(calibration.lapack_ms)
    reference_ms = calibration.LAPACK_REFERENCE_MS

    def __init__(self, root: str, seed: int):
        self.base = seed * 100_000

    def units(self):
        return itertools.count(self.base)

    def points(self, unit: int) -> int:
        return self.samples * len(self.betas)

    def run(self, unit: int):
        return sweep.explore_bound(self.d, self.d, self.samples, self.betas, 1.0, unit)

    def check(self, unit: int, summary) -> list[str]:
        errors = []
        if summary.violations:
            errors.append(f"seed {unit}: {summary.violations} bound violations")
        stats = (summary.gap_min, summary.gap_mean, summary.gap_max, summary.mi_min, summary.mi_max)
        if not all(math.isfinite(x) for x in stats):
            errors.append(f"seed {unit}: non-finite statistics {stats}")
        if not unit <= summary.worst_seed < unit + self.samples:
            errors.append(f"seed {unit}: worst_seed {summary.worst_seed} outside the battery")
            return errors
        if unit % self.replay_every:
            return errors
        # Replay the worst model through the public pipeline: it must reproduce gap_min.
        bh = models.random_bipartite(self.d, self.d, 1.0, summary.worst_seed)
        gaps = []
        for beta in self.betas:
            report, _ = information.thermal_point(bh, beta)
            gaps.append(report.upper_bound - report.mutual_info)
        if min(gaps) != summary.gap_min:
            errors.append(f"seed {unit}: replayed gap_min {min(gaps)!r} != {summary.gap_min!r}")
        return errors

    def trace_pass(self, tracer=None):
        results = []
        for i in range(self.trace_units):
            if tracer is not None:
                tracer.request = i
            unit = self.base + 1 + i
            results.append((unit, self.run(unit)))
        return results


class CliPoint(Workload):
    """One CLI ``point`` evaluation; a unit is one fresh ``python -m thermomi.cli`` process.

    The inputs are fixed (the README's example point); the seed does not
    change them. The traced pass is one in-process ``cli.main`` call.
    """

    name = "cli-point"
    joint_dim = 4
    trace_rounds = 30  # a pass is one ~10 ms call
    calibrate = staticmethod(calibration.process_ms)
    reference_ms = calibration.PROCESS_REFERENCE_MS
    argv = ("point", "--b1", "0.5", "--b2", "0.5", "--g", "1", "--beta", "1")
    expected = {"mutual_info": 0.563747756210591, "upper_bound": 0.631939746849357}

    def __init__(self, root: str, seed: int):
        self.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

    def units(self):
        return itertools.count()

    def points(self, unit) -> int:
        return 1

    def run(self, unit) -> dict:
        """The CLI in a fresh process, timed and measured by the launcher."""
        proc = subprocess.run(
            [sys.executable, self.launcher, sys.executable, "-m", "thermomi.cli", *self.argv],
            capture_output=True, text=True, timeout=90, check=True,
        )
        return json.loads(proc.stdout)

    def latency(self, result, wall: float) -> float:
        return result["elapsed_s"] if result else wall

    def peak_rss_kib(self, result):
        return result["peak_rss_kib"] if result else None

    def run_in_process(self, unit) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(self.argv))
        return {"returncode": code, "stdout": out.getvalue()}

    def check(self, unit, result) -> list[str]:
        if result["returncode"] != 0:
            return [f"exit code {result['returncode']}"]
        try:
            obj = json.loads(result["stdout"])
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        errors = [
            f"{key} = {obj.get(key)!r}, expected {want!r}"
            for key, want in self.expected.items()
            if not (isinstance(obj.get(key), float) and abs(obj[key] - want) <= GOLDEN_TOL)
        ]
        if obj.get("ground_state") != "entangled":
            errors.append(f"ground_state = {obj.get('ground_state')!r}, expected 'entangled'")
        return errors

    def trace_pass(self, tracer=None):
        return [(0, self.run_in_process(0))]


WORKLOADS = {w.name: w for w in (Fig1, Explore, CliPoint)}
