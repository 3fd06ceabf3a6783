"""Correctness checks made apart from the program.

Every check recomputes the program's output from its inputs with plain numpy
(dense matrices assembled here from the sampled blocks, ``numpy.linalg``
factorizations, brute-force counts, the defining equations of the MDE) or
tests a property the method must have. None compares against a stored copy
of earlier output. Each check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Relative tolerance of the transfer determinant identity (README, criterion 01).
LOGDET_RTOL = 1e-8
# Criterion 06 bounds on the eigenvalue cloud.
DISK_FRACTION_MIN = 0.95
RADIAL_DISTANCE_MAX = 0.08
# Largest distance of a trial's normalized log determinant from the circular-law
# log potential on the n = ell = 48 transfer workload.
POTENTIAL_ATOL = 0.05
MDE_RESIDUAL_MAX = 1e-10


def rel_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def dense_plain(diag, upper, lower, z: complex = 0.0) -> np.ndarray:
    """T - zI for the plain ensemble: diag blocks, upper[k] right of row k, lower[k+1] below it."""
    n, ell = len(diag), diag[0].shape[0]
    size = n * ell
    out = np.zeros((size, size), dtype=np.complex128)
    for k in range(n):
        r = k * ell
        out[r : r + ell, r : r + ell] = diag[k]
        if k + 1 < n:
            out[r : r + ell, r + ell : r + 2 * ell] = upper[k]
            out[r + ell : r + 2 * ell, r : r + ell] = lower[k + 1]
    out[np.diag_indices(size)] -= z
    return out


def dense_periodic(ens, z: complex = 0.0) -> np.ndarray:
    m = ens.inner
    out = dense_plain(m.diag, m.upper, m.lower, z)
    ell, last = m.ell, (m.n - 1) * m.ell
    out[0:ell, last:] = ens.corner_top
    out[last:, 0:ell] = ens.corner_bottom
    return out


def dense_bordered(ens, z: complex = 0.0) -> np.ndarray:
    """Boundary row on top, the n middle block rows shifted by z, boundary row at the bottom."""
    m = ens.inner
    ell = m.ell
    size = (m.n + 2) * ell
    out = np.zeros((size, size), dtype=np.complex128)
    out[0:ell, 0 : 2 * ell] = ens.top_row
    for k in range(m.n):
        r = (k + 1) * ell
        out[r : r + ell, k * ell : (k + 1) * ell] = m.lower[k]
        out[r : r + ell, (k + 1) * ell : (k + 2) * ell] = m.diag[k] - z * np.eye(ell)
        out[r : r + ell, (k + 2) * ell : (k + 3) * ell] = m.upper[k]
    out[size - ell :, size - 2 * ell :] = ens.bottom_row
    return out


def slogdet_abs(a) -> float:
    return float(np.linalg.slogdet(a)[1])


def check_transfer_logdet(value: float, model, z: complex) -> list:
    """log|det(T - zI)| from the transfer recursion against numpy slogdet."""
    ref = slogdet_abs(dense_plain(model.diag, model.upper, model.lower, z))
    err = rel_error(value, ref)
    if not err <= LOGDET_RTOL:
        return [f"transfer logdet {value!r} vs slogdet {ref!r}: rel error {err:.3e}"]
    return []


def check_projected_growth(value: float, model, z: complex) -> list:
    """Projected growth plus sum_k log|det B_k| must equal log|det(T - zI)|."""
    log_b = sum(slogdet_abs(b) for b in model.upper)
    return check_transfer_logdet(value + log_b, model, z)


def check_potential(normalized: float, z: complex) -> list:
    r = abs(complex(z))
    target = (r * r - 1.0) / 2.0 if r <= 1.0 else math.log(r)
    if not abs(normalized - target) <= POTENTIAL_ATOL:
        return [f"normalized logdet {normalized!r} is {abs(normalized - target):.3e} from the log potential {target:.6f}"]
    return []


def disk_fraction(eigenvalues) -> float:
    radii = np.abs(np.asarray(eigenvalues))
    return float(np.count_nonzero(radii <= 1.0) / radii.size)


def radial_distance(eigenvalues) -> float:
    """sup over r in [0, 1] of |#{|lambda| <= r}/N - r^2|, by direct counting.

    The step function jumps only at the radii, so the supremum is attained at
    a radius inside the disk (from the left or the right) or at r = 1.
    """
    radii = np.abs(np.asarray(eigenvalues)).ravel()
    n = radii.size
    best = abs(np.count_nonzero(radii <= 1.0) / n - 1.0)
    for r in radii[radii <= 1.0]:
        at = np.count_nonzero(radii <= r) / n
        before = np.count_nonzero(radii < r) / n
        best = max(best, abs(at - r * r), abs(before - r * r))
    return float(best)


def check_disk_stats(eigenvalues, fraction: float, distance: float) -> list:
    problems = []
    ref_f, ref_d = disk_fraction(eigenvalues), radial_distance(eigenvalues)
    if fraction != ref_f:
        problems.append(f"fraction in unit disk {fraction!r} vs count {ref_f!r}")
    if not abs(distance - ref_d) <= 1e-12:
        problems.append(f"radial CDF distance {distance!r} vs direct {ref_d!r}")
    return problems


def check_esd_from_dense(dense, fraction: float, distance: float) -> list:
    """Recompute the ESD statistics from numpy's eigenvalues of the dense matrix."""
    return check_disk_stats(np.linalg.eigvals(dense), fraction, distance)


def check_eigenvalues(eigenvalues, dense, real_law: bool) -> list:
    """Trace, determinant and (for a real matrix) conjugate symmetry of an eigenvalue multiset."""
    ev = np.asarray(eigenvalues, dtype=np.complex128)
    problems = []
    if ev.shape != (dense.shape[0],):
        return [f"expected {dense.shape[0]} eigenvalues, got shape {ev.shape}"]
    trace = complex(np.trace(dense))
    scale = float(np.sum(np.abs(ev))) + 1.0
    if not abs(complex(np.sum(ev)) - trace) <= 1e-10 * scale:
        problems.append(f"eigenvalue sum {complex(np.sum(ev))!r} vs trace {trace!r}")
    log_sum = float(np.sum(np.log(np.abs(ev))))
    ref = slogdet_abs(dense)
    if not rel_error(log_sum, ref) <= LOGDET_RTOL:
        problems.append(f"sum log|lambda| {log_sum!r} vs slogdet {ref!r}")
    if real_law:
        gap = conjugate_gap(ev)
        if not gap <= 1e-8:
            problems.append(f"eigenvalues are not closed under conjugation (gap {gap:.3e})")
    return problems


def conjugate_gap(ev, chunk: int = 128) -> float:
    """Largest distance from conj(lambda) to the nearest eigenvalue."""
    worst = 0.0
    for start in range(0, ev.size, chunk):
        c = np.conj(ev[start : start + chunk])[:, None]
        worst = max(worst, float(np.max(np.min(np.abs(c - ev[None, :]), axis=1))))
    return worst


def check_disk_bounds(eigenvalues) -> list:
    """Criterion 06 bounds on an eigenvalue cloud."""
    f, d = disk_fraction(eigenvalues), radial_distance(eigenvalues)
    problems = []
    if not f >= DISK_FRACTION_MIN:
        problems.append(f"fraction in unit disk {f:.4f} < {DISK_FRACTION_MIN}")
    if not d <= RADIAL_DISTANCE_MAX:
        problems.append(f"radial CDF distance {d:.4f} > {RADIAL_DISTANCE_MAX}")
    return problems


def squared_singular_values(dense) -> np.ndarray:
    return np.sort(np.linalg.svd(dense, compute_uv=False) ** 2)


def check_rigidity(count: float, dense, threshold: float) -> list:
    ref = int(np.count_nonzero(squared_singular_values(dense) <= threshold))
    if count != ref:
        return [f"rigidity count {count!r} vs direct count {ref}"]
    return []


def check_least_singular_value(value: float, dense) -> list:
    s = np.linalg.svd(dense, compute_uv=False)
    if not abs(value - float(s.min())) <= 1e-12 * float(s.max()):
        return [f"least singular value {value!r} vs {float(s.min())!r}"]
    return []


def mc_residual(m: complex, w: complex, z: complex) -> float:
    """|1/m + w(1 + m) - |z|^2/(1 + m)|, the bulk self-consistency equation."""
    return abs(1.0 / m + w * (1.0 + m) - abs(z) ** 2 / (1.0 + m))


def check_mc(m: complex, w: complex, z: complex) -> list:
    res = mc_residual(m, w, z)
    problems = []
    if not m.imag > 0:
        problems.append(f"bulk solution {m!r} is not in the upper half plane")
    if not res <= MDE_RESIDUAL_MAX:
        problems.append(f"bulk residual {res:.3e}")
    return problems


def check_mde_compare(values: dict, dense, xi: complex, z: complex, bulk: complex) -> list:
    """Empirical Stieltjes transform of the squared singular values against the bulk value."""
    problems = check_mc(bulk, xi, z)
    mhat = complex(np.mean(1.0 / (squared_singular_values(dense) - xi)))
    scale = max(1.0, abs(mhat))
    if not abs(values["mhat_re"] - mhat.real) <= 1e-12 * scale or not abs(values["mhat_im"] - mhat.imag) <= 1e-12 * scale:
        problems.append(f"empirical transform {values['mhat_re']!r}+{values['mhat_im']!r}j vs {mhat!r}")
    if not abs(values["deviation"] - abs(mhat - bulk)) <= 1e-12 * scale:
        problems.append(f"deviation {values['deviation']!r} vs {abs(mhat - bulk)!r}")
    return problems


def chain_residual(m, w: complex, z: complex) -> float:
    """Max over sites of the chain equation with the zero-boundary three-site average."""
    m = np.asarray(m, dtype=np.complex128)
    left = np.concatenate([[0.0], m[:-1]])
    right = np.concatenate([m[1:], [0.0]])
    avg = (left + m + right) / 3.0
    return float(np.max(np.abs(1.0 / m + w * (1.0 + avg) - abs(z) ** 2 / (1.0 + avg))))


def check_chain(chain, w: complex, z: complex) -> list:
    problems = []
    if not chain.converged:
        problems.append("chain solve did not converge")
    if not np.all(np.asarray(chain.m).imag > 0):
        problems.append("chain has a site outside the upper half plane")
    res = chain_residual(chain.m, w, z)
    if not res <= MDE_RESIDUAL_MAX:
        problems.append(f"chain residual {res:.3e}")
    return problems


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_emitted(record, csv_path, json_path) -> list:
    """The CSV re-parses to the record's values and the JSON parses strictly to the record."""
    problems = []
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["trial", "seed", *record.columns, "status"]
    if rows[0] != header:
        problems.append(f"CSV header {rows[0]} != {header}")
    if len(rows) - 1 != len(record.trials):
        problems.append(f"CSV has {len(rows) - 1} rows for {len(record.trials)} trials")
    for row, t in zip(rows[1:], record.trials):
        want = [str(t.index), str(t.seed)]
        if row[:2] != want or row[-1] != t.status:
            problems.append(f"CSV row {row} does not match trial {t.index}")
            continue
        for cell, col in zip(row[2:-1], record.columns):
            v, ref = float(cell), float(t.values[col])
            if not (v == ref or (math.isnan(v) and math.isnan(ref))):
                problems.append(f"CSV {col} of trial {t.index}: {cell} != {ref!r}")
    try:
        with open(json_path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:
        return problems + [f"JSON does not parse strictly: {exc}"]
    if data.get("columns") != list(record.columns) or len(data.get("trials", ())) != len(record.trials):
        problems.append("JSON columns or trial count differ from the record")
    else:
        for entry, t in zip(data["trials"], record.trials):
            if entry["values"] != t.values or entry["status"] != t.status or entry["seed"] != t.seed:
                problems.append(f"JSON trial {t.index} differs from the record")
    return problems
