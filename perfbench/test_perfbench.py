"""Self-test of the benchmark.

    python -m pytest perfbench -q        # about two minutes

Traced counts must repeat exactly between two traced runs of the same seed
and match the values known for the current pipeline; the wrappers must reach
every bound copy of a traced function; the metric lists must match
BENCHMARK.json; and the benchmark must refuse to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import Explore  # noqa: E402

COUNT_SUFFIXES = (".calls", ".calls_per_point", ".dup_ratio", ".n3")


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


def _traced_counts(workload: str, seed: int = 7) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


_EXPLORE_POINTS = Explore.trace_units * Explore.samples * len(Explore.betas)
EXPECTED = {
    # 1203 points x 6 eigh: joint H and rho_AB at 4x4, H_A, H_B, rho_A, rho_B at 2x2
    "fig1": {
        "operator_core.eigh.calls": 7218,
        "operator_core.eigh.calls_per_point": 6,
        "operator_core.eigh.dup_ratio": 3804 / 7218,
        "operator_core.eigh.n3": 1203 * (2 * 4**3 + 4 * 2**3),
        "information.thermal_point.calls": 1203,
        "sweep.fig1_suite.calls": 1,
    },
    # per model, H, H_A and H_B repeat at each beta after the first: 3 x 3 of 24 calls
    "explore-16x16": {
        "operator_core.eigh.calls": 6 * _EXPLORE_POINTS,
        "operator_core.eigh.calls_per_point": 6,
        "operator_core.eigh.dup_ratio": 9 / 24,
        "operator_core.eigh.n3": _EXPLORE_POINTS * (2 * 256**3 + 4 * 16**3),
        "sweep.explore_bound.calls": Explore.trace_units,
    },
    # the point's 6 plus one for the ground state, which repeats the joint H
    "cli-point": {
        "operator_core.eigh.calls": 7,
        "operator_core.eigh.calls_per_point": 7,
        "cli.main.calls": 1,
    },
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly_and_match(workload):
    first = _traced_counts(workload)
    second = _traced_counts(workload)
    assert first == second
    for name, want in EXPECTED[workload].items():
        assert first[name] == want, name


def test_wrappers_replace_every_bound_copy():
    import thermomi
    from thermomi import information, models, operator_core, thermal

    originals = {name: getattr(sys.modules[f"thermomi.{name.split('.')[0]}"], name.split(".")[1])
                 for name in spans.TRACED}
    modules = [m for n, m in sys.modules.items() if n.startswith("thermomi")]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for mod in modules:
            leftover = [a for a, v in vars(mod).items() if any(v is f for f in originals.values())]
            assert not leftover, (mod.__name__, leftover)
        for mod in (thermal, information, models, operator_core, thermomi):
            assert mod.eigh is not originals["operator_core.eigh"]
        thermomi.thermal_point(thermomi.xy_hamiltonian(thermomi.XYParams(0.5, 0.5, 1.0)), 1.0)
    assert tracer.spans
    assert thermal.eigh is originals["operator_core.eigh"]
    assert thermomi.eigh is originals["operator_core.eigh"]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "fig1", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
