"""One benchmark step in a fresh interpreter; prints one JSON object as its last line.

    python perfbench/worker.py {setup,measure,trace} --root DIR --workload NAME --seed N
                               [--seconds S] [--spans FILE]

setup    imports numpy and thermomi and makes the workload's first call,
         reporting how long each took.
measure  untraced: one warm-up unit, then timed units until --seconds of them
         have run; every output is checked.
trace    alternates untraced and traced passes of the workload's trace pass
         and reports per-layer metrics; writes the first traced pass's spans.

The parent (run.py) puts the checkout's ``src`` first on PYTHONPATH.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

MAX_ERRORS_KEPT = 5
# Kernel passes after a set-up, for the host speed at that moment.
SETUP_KERNEL_RUNS = 20


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure", "trace"])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    return parser.parse_args()


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: MAX_ERRORS_KEPT - len(self.errors)])
        return not errors

    def run_checked(self, wl, unit, run) -> tuple[bool, float, object]:
        """Run and check one unit; returns (correct, seconds the run took, result).

        An exception is a failure like a wrong result: every failure is
        counted, none is skipped.
        """
        start = time.perf_counter()
        try:
            result = run(unit)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            self.record([f"{wl.name} unit {unit!r}: {type(exc).__name__}: {exc}"])
            return False, elapsed, None
        elapsed = time.perf_counter() - start
        return self.record(wl.check(unit, result)), elapsed, result

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def _check_source(root):
    import thermomi

    where = os.path.realpath(os.path.dirname(thermomi.__file__))
    expected = os.path.realpath(os.path.join(root, "src", "thermomi"))
    if where != expected:
        raise SystemExit(f"thermomi imported from {where}, expected {expected}")


def setup(args):
    t_start = time.perf_counter()
    import numpy  # noqa: F401

    t_numpy = time.perf_counter()
    import thermomi  # noqa: F401

    t_thermomi = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.root, args.seed)
    first = next(wl.units())
    tally = Tally()
    _, first_call, _ = tally.run_checked(wl, first, wl.run_in_process)
    _check_source(args.root)
    from calibration import kernel_ms

    return {
        "kernel_ms": statistics.median(kernel_ms() for _ in range(SETUP_KERNEL_RUNS)),
        "import.numpy_ms": (t_numpy - t_start) * 1e3,
        "import.thermomi_ms": (t_thermomi - t_numpy) * 1e3,
        "first_call_ms": first_call * 1e3,
        **tally.as_dict(),
    }


def _environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(args):
    from workloads import WORKLOADS

    _check_source(args.root)
    wl = WORKLOADS[args.workload](args.root, args.seed)
    units = wl.units()
    tally = Tally()
    tally.run_checked(wl, next(units), wl.run)  # warm-up, untimed

    latencies, calibration, child_peaks_kib, points, busy = [], [], [], 0, 0.0
    cpus = sorted(os.sched_getaffinity(0))
    while busy < args.seconds:
        unit = next(units)
        # Alternate the CPUs unit by unit: on a shared host one CPU can run
        # slower than the other for tens of seconds, and a run should sample
        # both equally rather than whichever one the scheduler picked.
        os.sched_setaffinity(0, {cpus[len(latencies) % len(cpus)]})
        calibration.append(wl.calibrate())
        ok, wall, result = tally.run_checked(wl, unit, wl.run)
        elapsed = wl.latency(result, wall)
        busy += elapsed
        latencies.append(elapsed)
        if ok:
            points += wl.points(unit)
        child_kib = wl.peak_rss_kib(result)
        if child_kib is not None:
            child_peaks_kib.append(child_kib)

    return {
        "latencies_s": latencies,
        "calibration_ms": calibration,
        "reference_ms": wl.reference_ms,
        "points": points,
        # the peak of the processes that ran the units
        "peak_rss_kib": max(child_peaks_kib, default=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "environment": _environment(),
        **tally.as_dict(),
    }


def trace(args):
    from spans import Tracer, installed, summarize
    from workloads import WORKLOADS

    _check_source(args.root)
    wl = WORKLOADS[args.workload](args.root, args.seed)
    tally = Tally()
    tally.run_checked(wl, next(wl.units()), wl.run_in_process)  # warm-up, untimed

    def checked_pass(tracer=None):
        """Wall time and points of one trace pass, or (None, 0) if it raised.

        The outputs are checked after the wrappers are removed, so the
        checks' own thermomi calls never show up in the trace.
        """
        start = time.perf_counter()
        try:
            if tracer is None:
                results = wl.trace_pass()
            else:
                with installed(tracer):
                    results = wl.trace_pass(tracer)
        except Exception as exc:
            tally.record([f"{wl.name} trace pass: {type(exc).__name__}: {exc}"])
            return None, 0
        elapsed = time.perf_counter() - start
        for unit, result in results:
            tally.record(wl.check(unit, result))
        return elapsed, sum(wl.points(unit) for unit, _ in results)

    untraced, traced, summaries = [], [], []
    for round_ in range(wl.trace_rounds):
        elapsed, _ = checked_pass()
        untraced.append(elapsed)
        tracer = Tracer()
        elapsed, points = checked_pass(tracer)
        traced.append(elapsed)
        if elapsed is None:
            continue
        summaries.append(summarize(tracer, wl.joint_dim, points))
        if round_ == 0 and args.spans:
            t0 = tracer.spans[0][1] if tracer.spans else 0
            with open(args.spans, "w") as fh:
                json.dump({
                    "workload": wl.name, "seed": args.seed,
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": [[n, s - t0, e - t0, p, r] for n, s, e, p, r in tracer.spans],
                }, fh)

    metrics = {}
    if summaries:
        # counts come from the first traced pass; times are medians over passes
        first = summaries[0]
        for name, value in first.items():
            if name.endswith("ms") or ".self_ms." in name:
                metrics[name] = statistics.median(s.get(name, 0.0) for s in summaries)
            else:
                metrics[name] = value
    if None not in untraced and None not in traced:
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return {"metrics": metrics, "environment": _environment(), **tally.as_dict()}


def main():
    args = _parse()
    out = {"setup": setup, "measure": measure, "trace": trace}[args.mode](args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
