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


class ClipModel:
    """Per-coordinate prox fit: predictions clip each response into a box.

    Minimizes ``||y - u||_1 / m + (lam_pred / 2) * ||u||^2`` over the
    prediction vector directly, i.e. a strongly convex regularizer in
    prediction space with a 1/sqrt(m)-Lipschitz loss.  Row predictions only
    depend on that row's response, so the fit is exchangeable by construction.
    """

    def __init__(self, lam_pred=0.05):
        self.lam_pred = lam_pred

    def fit(self, dataset, candidate):
        model = ClipModel(self.lam_pred)
        bound = 1.0 / ((dataset.n + 1) * self.lam_pred)
        model.row_predictions = np.clip(dataset.augmented_targets(candidate), -bound, bound)
        return model
