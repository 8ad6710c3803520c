"""Fixed calibrations, timed before every unit of work, that give the host's speed.

On a shared host the speed of the CPU drifts by 15-30% over tens of seconds
to minutes, with Python-heavy code hit hardest. A calibration timed on the
same CPU just before a unit slows down with it, so the ratio of the two is
steady where the raw times are not. ``run.py`` multiplies each unit's time
by ``reference / calibration`` and reports the raw values next to the scaled
ones.

Each workload uses the calibration whose mix matches its own bottleneck.
``kernel_ms`` is small-matrix numpy plus interpreter work, like a 4x4 thermomi
point. ``lapack_ms`` is one 256x256 Hermitian eigendecomposition with the two
products that check it, like a 16x16 point. ``process_ms`` starts a fresh
interpreter that imports numpy, like a CLI process. None of them uses
thermomi, so no change to the program can change them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median calibration times on the reference host (a 2-vCPU Intel Xeon VM,
# one BLAS thread). Scaled results read as if measured there.
REFERENCE_MS = 7.5
LAPACK_REFERENCE_MS = 30.0
PROCESS_REFERENCE_MS = 200.0
# Loops over the 50 matrices per kernel call: a few ms, under 5% of a unit.
PASSES = 3


def _matrix(k: int) -> np.ndarray:
    # deterministic and free of numpy.random, whose import would add to peak RSS
    idx = np.arange(16, dtype=float).reshape(4, 4) + 16 * k
    g = np.cos(1.7 * idx) + 1j * np.sin(2.3 * idx)
    return g + g.conj().T


_MATRICES = [_matrix(k) for k in range(50)]


def kernel_ms() -> float:
    """Wall time of one pass of the fixed kernel, in milliseconds."""
    start = time.perf_counter()
    acc = 0.0
    for m in _MATRICES * PASSES:
        w, v = np.linalg.eigh(m)
        rho = (v * np.exp(-w)) @ v.conj().T
        acc += float(np.trace(rho).real) + float(np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2)).real.sum())
        record = {"acc": acc, "terms": [x * x for x in range(20)]}
        acc += len(record["terms"])
    return (time.perf_counter() - start) * 1e3


def lapack_ms() -> float:
    """Wall time of one 256x256 Hermitian eigendecomposition and its checks, in ms."""
    # built per call, untimed, so no 1 MiB matrix stays resident between units
    idx = np.arange(256 * 256, dtype=float).reshape(256, 256)
    g = np.cos(0.37 * idx) + 1j * np.sin(0.11 * idx)
    matrix = g + g.conj().T
    start = time.perf_counter()
    w, v = np.linalg.eigh(matrix)
    (v * w) @ v.conj().T
    v.conj().T @ v
    return (time.perf_counter() - start) * 1e3


def process_ms() -> float:
    """Wall time of a fresh interpreter that imports numpy, in milliseconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (time.perf_counter() - start) * 1e3
