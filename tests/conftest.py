import math

import numpy as np
import pytest


@pytest.fixture
def eigh_calls_by_dim(monkeypatch):
    """Count the matrices np.linalg.eigh decomposes, by dimension, for the rest of a test.

    A stack of k n x n matrices counts k under n.
    """
    calls_by_dim = {}
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shape = np.shape(a)
        calls_by_dim[shape[-1]] = calls_by_dim.get(shape[-1], 0) + math.prod(shape[:-2])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls_by_dim
