import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def eigh_calls_by_dim(monkeypatch):
    """Count np.linalg.eigh calls by input dimension for the rest of a test."""
    calls_by_dim = {}
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        n = np.shape(a)[0]
        calls_by_dim[n] = calls_by_dim.get(n, 0) + 1
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls_by_dim
