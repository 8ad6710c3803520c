"""The thermomi benchmark: one run of one workload, ending in one JSON result line.

    python3 perfbench/run.py --workload {fig1,explore-16x16,cli-point} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it measures the checkout that contains it (``src/`` and
``tests/golden/`` next to ``perfbench/``). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics. Each step runs in a
fresh interpreter (perfbench/worker.py). Full results, with the environment,
go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_MS
from spans import LAYERS, TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fig1", "explore-16x16", "cli-point")
# Fresh interpreters whose import + first call give setup_s (median).
SETUP_RUNS = 5
# BLAS threads are pinned so that every run, on every commit, uses the same
# threading; the benchmark itself is sequential, so one thread per process
# keeps the load on one of the machine's cores.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The tail percentile is the highest with this many samples beyond it.
TAIL_BEYOND = 10
# Every step must end within this many seconds of the start of the run.
RUN_BUDGET_S = 170.0
_DEADLINE = time.monotonic() + RUN_BUDGET_S

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "peak_rss_mib": "MiB",
}

# Functions that every workload calls. Only their self times are result
# metrics: a function a workload never calls would read 0 ms on every run.
# The other self times (cli.main, the sweep entry points, per-dimension eigh)
# are printed and written to perfbench/out/ with the rest of the trace.
_CALLED_BY_ALL = (
    "operator_core.eigh", "operator_core.require_hermitian", "operator_core.partial_trace",
    "operator_core.kron", "models.assemble_bipartite", "thermal.gibbs_state",
    "thermal.local_gibbs_state", "thermal.subsystem_states", "thermal.energy_breakdown",
    "information.von_neumann_entropy", "information.thermal_point",
)
PER_LAYER = {
    **{f"{f}.calls": "count" for f in TRACED},
    "operator_core.eigh.calls_per_point": "count",
    "operator_core.eigh.dup_ratio": "ratio",
    "operator_core.eigh.n3": "count",
    "operator_core.eigh.self_ms.joint": "ms",
    "operator_core.eigh.self_ms.local": "ms",
    **{f"{f}.self_ms": "ms" for f in _CALLED_BY_ALL},
    **{f"{m}.self_ms": "ms" for m in LAYERS if m != "cli"},
    "import.numpy_ms": "ms",
    "import.thermomi_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, a crashed step)."""


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _worker(mode: str, args, extra=()) -> tuple[dict, float]:
    """Run one worker step; returns its JSON result and its wall time."""
    timeout = max(_DEADLINE - time.monotonic(), 1.0)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.perf_counter()
    # its own session, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {mode} did not finish within the {RUN_BUDGET_S} s budget") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), wall


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args, worker_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **worker_env,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "caller_blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _latency_metrics(latencies_s: list[float], points: int, setup_walls_s: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_walls_s),
        "points_per_s": points / sum(latencies_s),
        "latency_ms.p50": statistics.median(latencies_s) * 1e3,
        "latency_ms.tail": tail(latencies_s)[0] * 1e3,
    }


def _setup_runs(args) -> list[tuple[dict, float]]:
    """SETUP_RUNS fresh set-ups, alternating the CPU they run on (see worker.measure)."""
    cpus = sorted(os.sched_getaffinity(0))
    runs = []
    try:
        for i in range(SETUP_RUNS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            runs.append(_worker("setup", args))
    finally:
        os.sched_setaffinity(0, cpus)
    return runs


def run(args) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "thermomi", "__init__.py")):
        raise BenchError(f"no thermomi sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    setups = _setup_runs(args)
    attempted = sum(s["attempted"] for s, _ in setups)
    failed = sum(s["failed"] for s, _ in setups)
    errors = [e for s, _ in setups for e in s["errors"]]
    record: dict = {}

    if args.trace:
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
        res, _ = _worker("trace", args, ["--spans", spans_path])
        everything = dict(res["metrics"])
        for name in ("import.numpy_ms", "import.thermomi_ms"):
            everything[name] = statistics.median(s[name] for s, _ in setups)
        metrics = {k: everything[k] for k in PER_LAYER if k in everything}
        units = PER_LAYER
        record["all_layer_metrics"] = everything
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        res, _ = _worker("measure", args, ["--seconds", str(args.seconds)])
        lat = res["latencies_s"]
        # Each unit is scaled by the calibration timed just before it on the
        # same CPU (see calibration.py); raw values are kept in the record.
        cal, ref = res["calibration_ms"], res["reference_ms"]
        scaled = [t * ref / c for t, c in zip(lat, cal)]
        raw = _latency_metrics(lat, res["points"], [wall for _, wall in setups])
        metrics = _latency_metrics(
            scaled, res["points"], [wall * REFERENCE_MS / s["kernel_ms"] for s, wall in setups]
        )
        raw["peak_rss_mib"] = metrics["peak_rss_mib"] = res["peak_rss_kib"] / 1024.0
        units = END_TO_END
        record["raw_metrics"] = raw
        record["host_speed_factor"] = statistics.median(cal) / ref
        record["reference_ms"] = ref
        record["latency_samples"] = len(lat)
        _, record["latency_tail_percentile"], record["latency_tail_beyond"] = tail(lat)
        record["latencies_ms"] = [x * 1e3 for x in lat]
        record["calibration_ms"] = cal
        record["setups"] = [dict(s, wall_s=wall) for s, wall in setups]

    attempted += res["attempted"]
    failed += res["failed"]
    errors += res["errors"]
    correct = failed == 0 and set(metrics) == set(units)
    record.update(
        environment=_environment(args, res["environment"]),
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted if attempted else 1.0,
        errors=errors,
        correct=correct,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def _report(result: dict, record: dict) -> None:
    print("environment " + json.dumps(record["environment"]))
    for err in record["errors"]:
        print(f"FAILED {err}")
    if "raw_metrics" in record:
        print(f"  host speed factor {record['host_speed_factor']:.4f} "
              f"(median calibration / {record['reference_ms']} ms); times are scaled to the reference")
    shown = record.get("all_layer_metrics") or {k: m["value"] for k, m in result["metrics"].items()}
    for name, value in shown.items():
        unit = PER_LAYER.get(name) or END_TO_END.get(name) or ("ms" if "ms" in name else "")
        note = ""
        if name in record.get("raw_metrics", {}):
            note = f"  (raw {record['raw_metrics'][name]:.6g})"
        if name == "latency_ms.tail":
            note += (f"  (p{record['latency_tail_percentile']:.1f}; {record['latency_tail_beyond']} "
                     f"of {record['latency_samples']} samples beyond)")
        elif name not in result["metrics"]:
            note = "  (trace record only)"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_ratio':<44} {record['failed_ratio']:>14.6g} "
          f"({record['failed']} of {record['attempted']} operations)")


def main() -> int:
    args = _parse()
    try:
        result, record = run(args)
    except (BenchError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record["result"] = result
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    _report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
