"""In-memory span recorder that wraps qrs_sim's public functions from outside.

The recorder never edits the package source.  It replaces each traced
function at every place the package looks it up at call time: module
attributes (``reference``, ``bell`` and ``cli`` bind ``partial_trace``,
``joint_distribution`` and others with ``from .x import y``), values of
module-level dicts (``bell._TABLE_ROUTES`` holds the correlation routes),
and class attributes for methods.  A target the package no longer has is
recorded as absent instead of raising, so later refactors keep the
benchmark running.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "qrs_sim"


def _bytes_computed(dim: int) -> int:
    """Bytes of one dense complex128 dim x dim matrix, the work one call
    computes (not a measured memory transfer)."""
    return 16 * dim * dim


def _count_embed(rec, args, kwargs, result):
    rec.add("linalg.embed_operator.bytes_computed", _bytes_computed(result.space.dim))


def _count_apply(rec, args, kwargs, result):
    rec.add("linalg.Operator.apply.bytes_computed", _bytes_computed(args[0].space.dim))


def _count_joint(rec, args, kwargs, result):
    rec.add("reference.joint_distribution.cells", result.probabilities.size)
    reference = args[1] if len(args) > 1 else kwargs["reference"]
    union = [label for labels, _ in result.axes for label in labels]
    rec.maximum("reference.joint_distribution.union_dim_max", reference.space.restrict(union).dim)


def _count_draws(rec, args, kwargs, result):
    rec.add("reference.JointDistribution.sample.draws", len(result))


def _count_emit(rec, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    rec.add("cli.emit.bytes", os.path.getsize(path))


#: (module, attribute path, span name, counter); a dotted path names a
#: method, wrapped on its class
TARGETS = (
    ("linalg", "partial_trace", "linalg.partial_trace", None),
    ("linalg", "eig_hermitian", "linalg.eig_hermitian", None),
    ("linalg", "embed_operator", "linalg.embed_operator", _count_embed),
    ("linalg", "projector", "linalg.projector", None),
    ("linalg", "tensor_product", "linalg.tensor_product", None),
    ("linalg", "Operator.apply", "linalg.Operator.apply", _count_apply),
    ("linalg", "DensityOperator.__init__", "linalg.DensityOperator.init", None),
    ("reference", "state_of", "reference.state_of", None),
    ("reference", "internal_state_candidates", "reference.internal_state_candidates", None),
    ("reference", "joint_distribution", "reference.joint_distribution", _count_joint),
    ("reference", "joint_probability", "reference.joint_probability", None),
    ("reference", "JointDistribution.sample", "reference.JointDistribution.sample", _count_draws),
    ("bell", "evolve_experiment", "bell.evolve_experiment", None),
    ("bell", "ancilla_experiment", "bell.ancilla_experiment", None),
    ("bell", "correlation_entangled", "bell.correlation_entangled", None),
    ("bell", "correlation_factorized", "bell.correlation_factorized", None),
    ("bell", "correlation_direct", "bell.correlation_direct", None),
    ("bell", "device_marginal", "bell.device_marginal", None),
    ("bell", "ancilla_joint_distribution", "bell.ancilla_joint_distribution", None),
    ("bell", "ancilla_device_table", "bell.ancilla_device_table", None),
    ("bell", "chsh", "bell.chsh", None),
    ("bell", "measurement_unitary", "bell.measurement_unitary", None),
    ("bell", "ancilla_recording_unitary", "bell.ancilla_recording_unitary", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit", "cli.emit", _count_emit),
    ("cli", "format_text", "cli.format_text", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)

#: extra counters, with their units; all but the maximum are summed per op
COUNTERS = {
    "linalg.embed_operator.bytes_computed": "B/op",
    "linalg.Operator.apply.bytes_computed": "B/op",
    "reference.joint_distribution.cells": "count/op",
    "reference.joint_distribution.union_dim_max": "dim",
    "reference.JointDistribution.sample.draws": "count/op",
    "cli.emit.bytes": "B/op",
}

LAYERS = ("linalg", "reference", "bell", "cli", "bench")

#: the root span of one benchmark op; its self time is the input generator
#: and the output checks
OP_SPAN = "bench.op"


class SpanRecorder:
    """Spans (name, start, end, parent, op id) and counters, kept in memory
    in flat arrays until :meth:`write`."""

    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.current_op = -1
        self.enabled = True
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def span_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and self time in seconds (duration
        minus the time covered by direct child spans)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += duration[i] - child_time[i]
        return calls, self_s

    def write(self, path: str) -> None:
        """Dump every span, column-wise, as gzipped JSON."""
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _wrap(rec: SpanRecorder, name: str, func, counter):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return func(*args, **kwargs)
        index = rec.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return traced


def _lookup(module_name: str, path: str):
    """(owner, attribute, original) of a target, or None when absent."""
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = vars(owner).get(attr) if owner is not None else None
    return None if original is None else (owner, attr, original)


def absent_targets() -> list[str]:
    """Span names of targets the loaded package does not have."""
    return [name for module_name, path, name, _ in TARGETS if _lookup(module_name, path) is None]


class Instrumentation:
    """Context manager installing the wrappers of :data:`TARGETS` into the
    loaded package and restoring the originals on exit."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def __enter__(self) -> "Instrumentation":
        modules = [m for key, m in sorted(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, path, name, counter in TARGETS:
            found = _lookup(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = _wrap(self.rec, name, original, counter)
            if "." in path:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value.__setitem__, k, original))
        return self

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()
