import numpy as np
import pytest

from stabcp import GeneratorSpec, TabularDataset, gen_linear_gaussian


@pytest.fixture
def small_dataset():
    """Deterministic 10x3 gaussian dataset with a held-out target."""
    return gen_linear_gaussian(GeneratorSpec("linear-gaussian", 10, 3, 0.5, seed=42))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count ``np.linalg.eigh`` calls: the list grows by one entry per call."""
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture
def tiny_dataset():
    """Hand-built 3x2 dataset, easy to reason about."""
    return TabularDataset(
        features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        targets=np.array([1.0, -2.0, 0.5]),
        test_point=np.array([0.5, 0.5]),
        test_target=0.3,
    )
