"""Per-layer spans around bornlab's public functions, recorded from outside.

``Tracer.install()`` rebinds each traced function in every ``bornlab``
module that holds a reference to it, so calls through ``from .x import f``
names are seen too, and wraps each traced method on its class.
``uninstall()`` puts the originals back.  The package itself is not edited.

Every span is one row of compact per-thread columns (layer id, parent row,
start, end, amount), kept in memory until the run ends.  A layer's self time
is a span's duration minus the durations of its direct children on the same
thread, so self times on one thread add up to the duration of its root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, layer).  "Class.method" names a method.  Several
# targets can share a layer: every state/modulus constructor check counts as
# quantum.validate and every matrix constructor check as linalg.validate.
TARGETS = (
    ("streams", "substream", "streams.substream"),
    ("quantum", "haar_state", "quantum.haar_state"),
    ("quantum", "moduli", "quantum.moduli"),
    ("quantum", "expand", "quantum.expand"),
    ("quantum", "sample_outcomes", "quantum.sample_outcomes"),
    ("quantum", "measure", "quantum.measure"),
    ("quantum", "StateVector.__post_init__", "quantum.validate"),
    ("quantum", "ModulusVector.__post_init__", "quantum.validate"),
    ("quantum", "Observable.from_eigenbasis", "quantum.from_eigenbasis"),
    ("rules", "defect_scan", "rules.defect_scan"),
    ("rules", "normalization_sum", "rules.normalization_sum"),
    ("rules", "rule_probabilities", "rules.rule_probabilities"),
    ("linalg", "haar_array", "linalg.haar_array"),
    ("linalg", "complete_basis", "linalg.complete_basis"),
    ("linalg", "eigendecompose", "linalg.eigendecompose"),
    ("linalg", "HermitianMatrix.__post_init__", "linalg.validate"),
    ("linalg", "UnitaryMatrix.__post_init__", "linalg.validate"),
    ("linalg", "Eigensystem.__post_init__", "linalg.validate"),
    ("invariance", "observable_with_eigenstate", "invariance.observable_with_eigenstate"),
    ("invariance", "match_eigenvector", "invariance.match_eigenvector"),
    ("invariance", "complement_rotation", "invariance.complement_rotation"),
    ("invariance", "observable_independence_scan", "invariance.scan"),
    ("invariance", "unobserved_independence_scan", "invariance.scan"),
    ("variational", "recover_rule", "variational.recover_rule"),
    ("variational", "rule_stationarity", "variational.rule_stationarity"),
    ("variational", "outcome_stationarity", "variational.outcome_stationarity"),
    ("variational", "closed_form_check", "variational.closed_form_check"),
    ("variational", "fit_power_series", "variational.fit_power_series"),
    ("cli", "Report.to_json", "cli.serialize"),
    ("cli", "Report.to_csv", "cli.serialize"),
    ("cli", "cmd_verify_born", "cli.command"),
    ("cli", "cmd_falsify", "cli.command"),
    ("cli", "cmd_independence", "cli.command"),
    ("cli", "cmd_recover", "cli.command"),
    ("cli", "cmd_stationarity", "cli.command"),
    ("cli", "cmd_spin1", "cli.command"),
    ("cli", "cmd_sample", "cli.command"),
)

# The span the benchmark opens around each bornlab.cli.main(argv) call.
ROOT = "cli.main"
# Scans that hand their trials to a thread pool when threads > 1; those spans
# are recorded under "<layer>@pool", so their self time is the pool wait.
SCANS = {"rules.defect_scan", "invariance.scan"}
POOL = "@pool"


def _amount(layer: str):
    """Work counted per span: trials or draws of a scan, bytes serialized."""
    if layer == "rules.defect_scan":
        return lambda result: result.trials
    if layer == "invariance.scan":
        return lambda result: result.draws
    if layer == "cli.serialize":
        return len
    return None


def self_times(parent: np.ndarray, duration: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each span's duration into self time and time in direct children.

    ``parent[i]`` is the row of span i's parent on the same thread, or -1.
    Returns ``(self, child)`` with ``self + child == duration``.
    """
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - child, child


class _Buffer:
    """The spans of one thread, in columns; ``stack`` holds the open rows."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.stack: list[int] = []


class Tracer:
    """Records spans at the boundary of each layer listed in TARGETS."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.main = self._buffer()
        self.root = self._id(ROOT)

    def _id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def open(self, layer_id: int) -> int:
        """Start a span on the calling thread and return its row."""
        try:
            buf = self._local.buf
        except AttributeError:
            buf = self._buffer()
        stack = buf.stack
        row = len(buf.start)
        buf.layer.append(layer_id)
        buf.parent.append(stack[-1] if stack else -1)
        buf.end.append(0.0)
        buf.amount.append(0.0)
        stack.append(row)
        buf.start.append(perf_counter())
        return row

    def close(self, row: int, amount: float = 0.0) -> None:
        """End the innermost open span of the calling thread."""
        buf = self._local.buf
        buf.end[row] = perf_counter()
        buf.amount[row] = amount
        buf.stack.pop()

    def _wrap(self, fn, layer: str):
        layer_id = self._id(layer)
        measure = _amount(layer)
        open_, close = self.open, self.close
        if measure is not None:
            pool_id = self._id(layer + POOL) if layer in SCANS else None
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def traced_counted(*args, **kwargs):
                span = layer_id
                if pool_id is not None and signature.bind(*args, **kwargs).arguments.get("threads", 1) > 1:
                    span = pool_id
                row = open_(span)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    close(row, 0.0 if result is None else measure(result))

            return traced_counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = open_(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(row)

        return traced

    def install(self) -> None:
        """Wrap every target; call ``uninstall`` to restore the package."""
        modules = [m for name, m in sys.modules.items() if name == "bornlab" or name.startswith("bornlab.")]
        for module_name, attribute, layer in TARGETS:
            module = sys.modules[f"bornlab.{module_name}"]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, layer))
                else:
                    wrapped = self._wrap(raw, layer)
                self._rebind(owner, method, raw, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(original, layer)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, name, original, wrapped)

    def _rebind(self, owner, name: str, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def columns(self) -> dict[str, np.ndarray]:
        """Every span as one row: thread, layer, parent row, start, end, amount."""
        parts = []
        offset = 0
        for thread, buf in enumerate(self._buffers):
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            start = np.frombuffer(buf.start, dtype=np.float64)
            end = np.frombuffer(buf.end, dtype=np.float64)
            parts.append(
                {
                    "thread": np.full(parent.size, thread, dtype=np.int32),
                    "layer": np.frombuffer(buf.layer, dtype=np.int32),
                    "parent": np.where(parent >= 0, parent + offset, -1),
                    "start": start,
                    "end": end,
                    "amount": np.frombuffer(buf.amount, dtype=np.float64),
                }
            )
            offset += parent.size
        return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, summed self time and summed amount."""
        spans = self.columns()
        n = len(self.layers)
        calls = np.bincount(spans["layer"], minlength=n)
        own, _ = self_times(spans["parent"], spans["end"] - spans["start"])
        own = np.bincount(spans["layer"], weights=own, minlength=n)
        amount = np.bincount(spans["layer"], weights=spans["amount"], minlength=n)
        return {
            layer: {"calls": int(calls[i]), "self_s": float(own[i]), "amount": float(amount[i])}
            for i, layer in enumerate(self.layers)
        }

    def main_root_seconds(self) -> float:
        """Summed duration of the root spans opened on the benchmark's thread."""
        parent = np.frombuffer(self.main.parent, dtype=np.int32)
        start = np.frombuffer(self.main.start, dtype=np.float64)
        end = np.frombuffer(self.main.end, dtype=np.float64)
        roots = parent < 0
        return float(np.sum(end[roots] - start[roots]))

    def write(self, path: Path) -> None:
        """Write every span, and the layer names, to an uncompressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(self.layers), **self.columns())
