"""Per-layer tracing from outside the program.

The tracer replaces each traced public function of the package by a wrapper in
every ``blocktri`` module that holds it, so a call is recorded whichever
module looks the name up (``blocktri.transfer.solve_lu`` as well as
``blocktri.numerics.solve_lu``). Spans are kept in memory as (name, parent,
start, end) and written out at the end of the run. Amounts such as flops and
bytes are computed from argument and result shapes after the span closes.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

import blocktri  # noqa: F401  (loads every submodule the tracer patches)


def _complex_factor(a) -> int:
    # Complex arithmetic costs four real operations per multiply-add pair.
    return 4 if np.iscomplexobj(a) else 1


def _lu_flops(args, kwargs, result):
    a = args[0]
    n = np.shape(a)[0]
    return _complex_factor(a) * 2.0 / 3.0 * n**3


def _solve_flops(args, kwargs, result):
    b, rhs = args[0], args[1]
    n = np.shape(b)[0]
    k = np.shape(rhs)[1] if np.ndim(rhs) == 2 else 1
    return _complex_factor(b) * (2.0 / 3.0 * n**3 + 2.0 * n * n * k)


def _qr_flops(args, kwargs, result):
    a = args[0]
    m, k = np.shape(a)
    m, k = max(m, k), min(m, k)
    # Householder R (2mk^2 - 2k^3/3) plus forming the thin Q (the same again).
    return _complex_factor(a) * (4.0 * m * k * k - 4.0 / 3.0 * k**3)


def _eig_flops(args, kwargs, result):
    a = args[0]
    return _complex_factor(a) * 10.0 * np.shape(a)[0] ** 3


def _svd_flops(args, kwargs, result):
    a = args[0]
    m, n = np.shape(a)
    m, n = max(m, n), min(m, n)
    return _complex_factor(a) * (4.0 * m * n * n - 4.0 / 3.0 * n**3)


def _dense_bytes(args, kwargs, result):
    return float(result.nbytes)


def _emit_bytes(args, kwargs, result):
    return float(sum(p.stat().st_size for p in result))


def _transfer_steps(args, kwargs, result):
    m = args[0]
    return float(getattr(m, "inner", m).n)


# (module, public name, amount metric, amount function); a dotted name is a method.
TARGETS = (
    ("entropy", "SeedScheme.stream", None, None),
    ("entropy", "fill_block", None, None),
    ("model", "sample_tridiagonal", None, None),
    ("model", "sample_periodic", None, None),
    ("model", "build_bordered", None, None),
    ("model", "to_dense", "bytes", _dense_bytes),
    ("numerics", "lu_logdet", "flops", _lu_flops),
    ("numerics", "solve_lu", "flops", _solve_flops),
    ("numerics", "qr_thin", "flops", _qr_flops),
    ("numerics", "eigvals", "flops", _eig_flops),
    ("numerics", "svd_values", "flops", _svd_flops),
    ("transfer", "logdet_via_transfer", None, None),
    ("transfer", "projected_growth_log", "steps", _transfer_steps),
    ("spectra", "esd", None, None),
    ("spectra", "singular_values", None, None),
    ("spectra", "least_singular_value", None, None),
    ("spectra", "radial_cdf_distance", None, None),
    ("mde", "solve_mc", None, None),
    ("mde", "solve_chain", None, None),
    ("harness", "run", None, None),
    ("harness", "emit", "bytes", _emit_bytes),
)
ROOT = "bench.experiment"
UNITS = {"calls": "count", "self_s": "s", "flops": "flop", "bytes": "B", "steps": "count"}


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, name, amount, _ in TARGETS:
        key = f"{module}.{name}"
        out.append((f"{key}.calls", "count", "lower"))
        out.append((f"{key}.self_s", "s", "lower"))
        if amount == "steps":
            out.append(("transfer.steps", "count", "lower"))
        elif amount:
            out.append((f"{key}.{amount}", UNITS[amount], "lower"))
    out.append(("numerics.factorizations_per_block", "ratio", "lower"))
    out.append(("trace.coverage", "ratio", "higher"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m}.{n}" for m, n, _, _ in TARGETS]
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.amounts = np.zeros(len(self.names))
        self._stack = []
        self._wrappers = {}
        defining = []
        for i, (module, name, _, amount_fn) in enumerate(TARGETS, start=1):
            owner = sys.modules[f"blocktri.{module}"]
            attr = name
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._wrappers[id(original)] = self._wrap(i, original, amount_fn)
            defining.append((owner, attr))
        self._holders = self._holders_of_targets(defining)

    def _open(self, key: int) -> int:
        idx = len(self.start)
        self.name_id.append(key)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, key, fn, amount_fn):
        def traced(*args, **kwargs):
            idx = self._open(key)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if amount_fn is not None:
                self.amounts[key] += amount_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _holders_of_targets(self, defining):
        """Every (namespace, attribute) in the package that holds a traced function."""
        found = list(defining)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "blocktri" or mod_name.startswith("blocktri."):
                for attr, value in vars(mod).items():
                    if id(value) in self._wrappers and (mod, attr) not in found:
                        found.append((mod, attr))
        return found

    @contextmanager
    def active(self):
        """Trace the body as one root span; the program is untraced outside it."""
        targets = self._holders
        originals = [getattr(owner, attr) for owner, attr in targets]
        for (owner, attr), original in zip(targets, originals):
            setattr(owner, attr, self._wrappers[id(original)])
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            for (owner, attr), original in zip(targets, originals):
                setattr(owner, attr, original)

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def write(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)

    def report(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics per round of the workload."""
        name_id, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = np.bincount(name_id, weights=dur - child, minlength=k)
        calls = np.bincount(name_id, minlength=k)
        per = 1.0 / max(rounds, 1)
        out = {}
        steps = 0.0
        for i, (module, name, amount, _) in enumerate(TARGETS, start=1):
            key = f"{module}.{name}"
            out[f"{key}.calls"] = calls[i] * per
            out[f"{key}.self_s"] = self_time[i] * per
            if amount == "steps":
                steps = self.amounts[i]
                out["transfer.steps"] = steps * per
            elif amount:
                out[f"{key}.{amount}"] = self.amounts[i] * per
        out["numerics.factorizations_per_block"] = self._factorizations_in_transfer(name_id, parent) / steps if steps else 0.0
        root = dur[name_id == 0].sum()
        out["trace.coverage"] = float(self_time[1:].sum() / root) if root else 0.0
        out["trace.overhead_s"] = overhead_s
        units = {name: unit for name, unit, _ in metric_specs()}
        return {name: {"value": float(v), "unit": units[name]} for name, v in out.items()}

    def _factorizations_in_transfer(self, name_id, parent) -> int:
        """lu_logdet and solve_lu calls made inside a transfer-layer span."""
        is_transfer = np.array([n.startswith("transfer.") for n in self.names])
        factor = [self.names.index("numerics.lu_logdet"), self.names.index("numerics.solve_lu")]
        # Spread the flag from each span to its children until nothing changes.
        inside = is_transfer[name_id]
        has_parent = parent >= 0
        while True:
            spread = inside.copy()
            spread[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(spread, inside):
                break
            inside = spread
        under = np.zeros_like(inside)
        under[has_parent] = inside[parent[has_parent]]
        return int(np.count_nonzero(under & np.isin(name_id, factor)))
