"""Span tracing of thermomi's public functions, installed from outside the package.

Every traced function is replaced by a wrapper in *every* thermomi module that
holds a reference to it. The package imports with ``from .operator_core import
eigh``, so patching ``operator_core`` alone would miss the calls made from
``thermal``, ``information`` and ``models``.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``. Spans are
kept in memory and summarized (or written out) after the traced pass ends.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# The six layers and the public functions timed in each.
LAYERS = {
    "operator_core": ("eigh", "require_hermitian", "partial_trace", "kron"),
    "models": ("xy_hamiltonian", "random_bipartite", "assemble_bipartite"),
    "thermal": ("gibbs_state", "local_gibbs_state", "subsystem_states", "energy_breakdown"),
    "information": ("von_neumann_entropy", "thermal_point"),
    "sweep": ("fig1_suite", "run_sweep", "evaluate_xy_point", "explore_bound"),
    "cli": ("main",),
}
TRACED = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
EIGH = "operator_core.eigh"


class Tracer:
    """In-memory span recorder; ``request`` tags spans with the unit of work."""

    def __init__(self):
        self.spans: list[list] = []
        # (span index, private copy of the matrix handed to eigh)
        self.eigh_inputs: list[tuple[int, np.ndarray]] = []
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        eigh_inputs = self.eigh_inputs if name == EIGH else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            if eigh_inputs is not None:
                # copied, not referenced, so a later in-place edit cannot fake a repeat
                eigh_inputs.append((idx, np.array(args[0] if args else kwargs["h"], copy=True)))
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def _thermomi_modules():
    return [m for n, m in sys.modules.items() if n == "thermomi" or n.startswith("thermomi.")]


@contextmanager
def installed(tracer: Tracer):
    """Patch every bound copy of each traced function; restore them on exit."""
    import thermomi  # noqa: F401  (loads every submodule)

    modules = _thermomi_modules()
    patched = []
    for qualname in TRACED:
        module, fn = qualname.split(".")
        original = getattr(sys.modules[f"thermomi.{module}"], fn)
        wrapper = tracer.wrap(qualname, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def summarize(tracer: Tracer, joint_dim: int, points: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the durations of its direct child
    spans (one thread, so children never overlap).
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = dict.fromkeys(TRACED, 0)
    self_ns: dict[str, int] = dict.fromkeys(TRACED, 0)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]

    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    for module, fns in LAYERS.items():
        out[f"{module}.self_ms"] = sum(self_ns[f"{module}.{fn}"] for fn in fns) / 1e6

    seen: set[bytes] = set()
    repeats = 0
    n3 = 0
    by_dim: dict[int, int] = defaultdict(int)
    for idx, matrix in tracer.eigh_inputs:
        digest = hashlib.blake2b(
            repr((matrix.shape, matrix.dtype.str)).encode() + np.ascontiguousarray(matrix).tobytes(),
            digest_size=16,
        ).digest()
        repeats += digest in seen
        seen.add(digest)
        n = matrix.shape[0]
        n3 += n**3
        _, start, end, _, _ = spans[idx]
        by_dim[n] += end - start - child_ns[idx]
    n_eigh = calls[EIGH]
    out[f"{EIGH}.calls_per_point"] = n_eigh / points
    out[f"{EIGH}.dup_ratio"] = repeats / n_eigh if n_eigh else 0.0
    out[f"{EIGH}.n3"] = n3
    for n in sorted(by_dim):
        out[f"{EIGH}.self_ms.dim{n}"] = by_dim[n] / 1e6
    out[f"{EIGH}.self_ms.joint"] = by_dim.get(joint_dim, 0) / 1e6
    out[f"{EIGH}.self_ms.local"] = sum(v for n, v in by_dim.items() if n != joint_dim) / 1e6
    return out
