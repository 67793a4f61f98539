"""Spans recorded from outside the program, around calls into starcert.

``install`` wraps every public function, every class ``__init__`` and every
public method defined in the traced modules, and rebinds each starcert module
attribute that holds one of them (``from .network import born_table`` leaves
a reference in every importing module).  A span is (name, start, end, parent
span, job id); spans stay in memory until ``save``.  A function that does not
exist is simply never called, so its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "network", "bell", "measurements", "certify", "presets", "tensor")

# Coefficients at or below this magnitude count as zero, as in the
# projective-mode condition sums.
ZERO_COEFF = 1e-14


def _kron_payload(result):
    return float(getattr(result, "nbytes", 0)), 0.0


def _pauli_payload(result):
    coeffs = np.asarray(getattr(result, "coeffs", result), dtype=float)
    return float(np.count_nonzero(np.abs(coeffs) > ZERO_COEFF)), float(coeffs.size)


# Extra per-span values: kron result bytes; nonzero and total Pauli coefficients.
PAYLOADS = {"tensor.kron": _kron_payload, "measurements.pauli_coeffs": _pauli_payload}

ERROR_NONE, ERROR_CONDITIONING, ERROR_OTHER = 0, 1, 2


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.error = array("b")
        self.p0 = array("d")
        self.p1 = array("d")
        self.job_id = -1
        self._stack = []

    def __len__(self):
        return len(self.start)

    def wrap(self, label: str, fn):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        name_id = self._ids[label]
        payload = PAYLOADS.get(label)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.error.append(ERROR_NONE)
            self.p0.append(0.0)
            self.p1.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[i] = (ERROR_CONDITIONING if type(exc).__name__ == "ConditioningError"
                                 else ERROR_OTHER)
                raise
            finally:
                self.end[i] = clock()
                stack.pop()
            if payload is not None:
                self.p0[i], self.p1[i] = payload(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds, payload sums and conditioning errors.

        Self time is a span's duration minus the durations of its children.
        """
        k, n = len(self.names), len(self)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=n)
        errors = np.frombuffer(self.error, dtype=np.int8) == ERROR_CONDITIONING

        def per_name(weights=None):
            return np.bincount(name, weights=weights, minlength=k)

        calls, self_s = per_name(), per_name(self_t)
        p0, p1 = per_name(np.frombuffer(self.p0)), per_name(np.frombuffer(self.p1))
        errs = per_name(errors.astype(float))
        return {
            label: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                    "p0": float(p0[i]), "p1": float(p1[i]), "errors": int(errs[i])}
            for i, label in enumerate(self.names) if calls[i]
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int8),
        )


def install(tracer: Tracer, package: str = "starcert") -> int:
    """Wrap the traced modules' public callables; return how many were wrapped."""
    wrapped = {}
    for short in MODULES:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not inspect.isfunction(meth):
                        continue
                    if meth_name == "__init__":
                        label = f"{short}.{attr}.init"
                    elif meth_name.startswith("_"):
                        continue
                    else:
                        label = f"{short}.{attr}.{meth_name}"
                    setattr(obj, meth_name, tracer.wrap(label, meth))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(wrapped)
