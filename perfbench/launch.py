"""Run one command; print its wall time, exit code, stdout and peak RSS as one JSON line.

    python perfbench/launch.py COMMAND [ARG...]

The benchmark starts each CLI process through this small stdlib-only
launcher. On Linux a child started with vfork (as ``subprocess`` does)
inherits its parent's peak RSS when it execs, so a child of the benchmark
worker, which holds numpy, would report the worker's peak instead of its own.
"""

import json
import resource
import subprocess
import sys
import time

start = time.perf_counter()
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True, timeout=60)
elapsed = time.perf_counter() - start
print(json.dumps({
    "elapsed_s": elapsed,
    "returncode": proc.returncode,
    "stdout": proc.stdout,
    "peak_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
}))
