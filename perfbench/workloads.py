"""The benchmark's workloads: what inputs each one draws and what a request runs.

A request is one query: one ``TabularDataset`` (observed rows plus a query row
with its held-out truth) on which the client computes one prediction set per
method, one method after the other.  Every workload runs all five methods, so
every end-to-end metric exists on every workload; only the rate of the costly
root-finding baseline differs: it runs on the first request of a timed phase
and on every ``rootcp_every``-th one after it.

Inputs are a pure function of the workload seed.  The program under test sees
only the generated datasets.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from stabcp import conformal, core, data, harness

METHODS = ("stabcp", "bisect", "oraclecp", "splitcp", "rootcp")
ALPHA = 0.1
NOISE_SD = 1.0
HUBER_DELTA = 1.0


@dataclass(frozen=True)
class Workload:
    """One input family and request mix.

    ``shared_training`` makes every request reuse one training set and differ
    only in the query row, taken in turn from a pool of ``queries`` rows;
    otherwise every request is a fresh draw.  ``unit_mix`` weighs the solve
    and the loop of the reference computation (``reference.py``) as the
    workload's sets mix BLAS and small numpy calls.  The
    custom Huber score, when selected, is used by every method but the
    closed-form stabcp, which needs the absolute residual.
    """

    name: str
    why: str
    n: int
    p: int
    model: str = "ridge"
    lambda_reg: float = 0.5
    tau_source: str = "linear-exact"
    score: str = "absolute"
    shared_training: bool = False
    rootcp_every: int = 1
    queries: int = 0
    unit_mix: tuple[float, float] = (1.0, 2.0)

    def config(self) -> harness.RunConfig:
        return harness.RunConfig(model=self.model, lambda_reg=self.lambda_reg,
                                 tau_source=self.tau_source, alpha=ALPHA)

    def methods_for(self, position: int) -> tuple[str, ...]:
        """Methods of the request at ``position`` within a timed phase."""
        if position % self.rootcp_every == 0:
            return METHODS
        return METHODS[:-1]

    def tiny(self) -> "Workload":
        """The same workload at a size small enough for the smoke tests."""
        return dataclasses.replace(self, n=40, p=4, queries=min(self.queries, 64))


WORKLOADS = {w.name: w for w in (
    Workload(
        "ridge-batch",
        "one n=10000 p=100 training set shared by a stream of query rows: work that "
        "depends only on the training rows (Gram, factorization) can be reused",
        n=10000, p=100, shared_training=True, rootcp_every=16, queries=16384,
        unit_mix=(1.0, 0.0),
    ),
    Workload(
        "ridge-redraw",
        "the paper's repeated-draw protocol, a fresh n=2000 p=50 draw per request: "
        "nothing is shared, so only work saved inside a request shows",
        n=2000, p=50, unit_mix=(1.0, 0.0),
    ),
    Workload(
        "lad-redraw",
        "fresh n=300 p=20 draws with LAD-ridge and tau=auto: the iterative ADMM solver "
        "dominates and no ridge code runs",
        n=300, p=20, model="ladridge", lambda_reg=0.2, tau_source="auto", rootcp_every=6,
    ),
    Workload(
        "huber-bisect",
        "fresh n=300 p=20 ridge draws with a custom Huber score: fits are cheap, so "
        "probing and bisection for set extraction dominate",
        n=300, p=20, score="huber",
    ),
)}


def huber(q, m):
    """Huber loss of the residual; 1-Lipschitz in the prediction for delta = 1."""
    r = np.abs(np.asarray(q, dtype=float) - np.asarray(m, dtype=float))
    return np.where(r <= HUBER_DELTA, 0.5 * r * r, HUBER_DELTA * (r - 0.5 * HUBER_DELTA))


def draw_seed(seed: int, stream: int, index: int) -> int:
    """Generator seed of draw ``index`` in ``stream`` under the workload seed."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


class Inputs:
    """The datasets one phase of a run sends, as a pure function of the seed.

    Generator calls are timed into ``generate_seconds``; they happen outside
    the timed requests.
    """

    def __init__(self, workload: Workload, seed: int, stream: int):
        self.workload = workload
        self.seed = seed
        self.stream = stream
        self.generate_seconds: list[float] = []
        if workload.shared_training:
            pool = self._generate(workload.n + workload.queries - 1,
                                  draw_seed(seed, stream, 0))
            rows = np.vstack([pool.features, pool.test_point[None, :]])
            targets = np.append(pool.targets, pool.test_target)
            self.train_features = rows[:workload.n]
            self.train_targets = targets[:workload.n]
            self.query_features = rows[workload.n:]
            self.query_targets = targets[workload.n:]

    def _generate(self, n: int, seed: int) -> core.TabularDataset:
        spec = data.GeneratorSpec("linear-gaussian", n, self.workload.p, NOISE_SD, seed)
        started = time.perf_counter()
        dataset = data.generate(spec)
        self.generate_seconds.append(time.perf_counter() - started)
        return dataset

    def dataset(self, request: int) -> core.TabularDataset:
        if not self.workload.shared_training:
            return self._generate(self.workload.n, draw_seed(self.seed, self.stream, request))
        row = request % self.workload.queries
        return core.TabularDataset(self.train_features, self.train_targets,
                                   self.query_features[row],
                                   test_target=float(self.query_targets[row]))


class Client:
    """Computes one prediction set per call, the way a user of the library would."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.config = workload.config()
        self.absolute = core.ScoreFunction.absolute_residual()
        if workload.score == "huber":
            self.score = core.ScoreFunction.custom(huber, gamma=HUBER_DELTA)
        else:
            self.score = self.absolute

    def run(self, method: str, dataset: core.TabularDataset):
        """Return the ``MethodReport`` of one set.

        Names are looked up on the stabcp modules at call time, so the traced
        run's wrappers are the ones called.
        """
        if method == "stabcp":
            return harness.run_method("stabcp", dataset, self.config, self.absolute)
        if method == "bisect":
            anchor, _ = harness.resolve_anchor(self.config, dataset)
            tau, _ = harness.build_tau(self.config, dataset, self.score)
            return conformal.stab_cp_bisection(dataset, anchor, self.config.model_spec(),
                                               self.score, tau, self.config.alpha)
        return harness.run_method(method, dataset, self.config, self.score)

    def single_fit_method(self) -> str:
        """The single-fit method that shares the oracle's score."""
        return "bisect" if self.workload.score == "huber" else "stabcp"
