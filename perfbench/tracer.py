"""Spans around the public functions of the stabcp layers, recorded in memory.

The tracer wraps every public function and every public method of a class
defined in ``stabcp.{core,models,stability,conformal,harness}``.  A module
function is rebound wherever a stabcp module looks the name up (``harness``
imports ``stab_cp_interval`` by name, ``conformal`` imports
``conformity_scores`` by name); a method is patched on its class.  Nothing in
``stabcp`` itself changes, and ``uninstall`` puts every original back.

Each span holds name, start, end, parent span and the prediction set (and so
the request) it belongs to.  Spans live in flat arrays so that a run of
hundreds of thousands of spans stays small; ``save`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("core", "models", "stability", "conformal", "harness")
SET_SPAN = "bench.set"
FIT_SPANS = tuple(f"models.{cls}.{method}" for cls in ("RidgeModel", "LadRidgeModel")
                  for method in ("fit", "fit_rows"))


class Tracer:
    """Records one span per call of a wrapped stabcp function."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.sets: list[tuple[int, str]] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.set_index = array("i")
        self.nested_fit = array("b")
        self.iterations = array("i")
        self.gap = array("d")
        self.converged = array("b")
        self._stack: list[int] = []
        self._fit_depth = 0
        self._set = -1
        self._patches: list[tuple[object, str, object]] = []
        self._set_name = self._name_id(SET_SPAN, "bench")

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, name_id: int, is_fit: bool) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.set_index.append(self._set)
        self.nested_fit.append(1 if self._fit_depth else 0)
        self.end.append(0.0)
        self.iterations.append(-1)
        self.gap.append(math.nan)
        self.converged.append(-1)
        self._stack.append(index)
        if is_fit:
            self._fit_depth += 1
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, is_fit: bool, result) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        if is_fit:
            self._fit_depth -= 1
            iterations = getattr(result, "iterations", None)
            if iterations is not None:
                self.iterations[index] = int(iterations)
                self.gap[index] = float(result.duality_gap)
                self.converged[index] = 1 if result.converged else 0

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)
        is_fit = name in FIT_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name_id, is_fit)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(index, is_fit, result)

        return traced

    @contextmanager
    def set_span(self, request: int, method: str):
        """Root span of one prediction set; spans opened inside belong to it."""
        self.sets.append((request, method))
        self._set = len(self.sets) - 1
        index = self._open(self._set_name, False)
        try:
            yield
        finally:
            self._close(index, False, None)
            self._set = -1

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"stabcp.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    for method, member in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, method,
                                        self._wrap(member, f"{layer}.{attr}.{method}", layer))
        for module_name, module in list(sys.modules.items()):
            if module_name == "stabcp" or module_name.startswith("stabcp."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every span as columns; ``name`` indexes ``names``/``layers``."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "set": np.frombuffer(self.set_index, dtype=np.int32).copy(),
            "nested_fit": np.frombuffer(self.nested_fit, dtype=np.int8).astype(bool),
            "iterations": np.frombuffer(self.iterations, dtype=np.int32).copy(),
            "gap": np.frombuffer(self.gap, dtype=np.float64).copy(),
            "converged": np.frombuffer(self.converged, dtype=np.int8).copy(),
        }

    def save(self, path, seed: int) -> None:
        """Write every span to ``path`` (``.npz``), replacing an earlier run's."""
        columns = self.spans()
        np.savez(path, seed=seed, names=np.array(self.names), layers=np.array(self.layers),
                 set_request=np.array([r for r, _ in self.sets], dtype=np.int64),
                 set_method=np.array([m for _, m in self.sets]), **columns)
