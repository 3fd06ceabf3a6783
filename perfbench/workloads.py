"""The benchmark's workloads: each is a fixed round of operations repeated closed-loop.

Inputs are a pure function of the benchmark seed, the round index and the
operation's position in the round, except for the near-singular slice of
``transfer-logpot``, whose inputs are fixed so its failures repeat exactly.
The program is reached only through module attributes looked up at call time,
so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from blocktri import entropy, harness, mde, spectra
from blocktri import model as ensembles


@dataclass
class Operation:
    """One timed call and the check of its output.

    ``check`` returns one list of problems per item (trial or chain solve);
    an item with problems is a failed operation. ``known_fault`` marks the
    slice whose failures come from a named fault of the program. Only
    operations with ``in_p50`` count toward the median call time.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False
    in_p50: bool = True


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.deferred = []

    def master_seed(self, round_index: int, position: int) -> int:
        h = hashlib.blake2b(f"{self.seed}:{round_index}:{position}".encode(), digest_size=8)
        return int.from_bytes(h.digest(), "little") >> 1

    def round(self, index: int) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks kept for the end of the run; returns their problems."""
        return [p for check in self.deferred for p in check()]


def _trial_problems(record) -> list:
    return [[] if t.status == "ok" else [f"trial {t.index} failed in the harness: {t.error}"] for t in record.trials]


def _plain_model(cfg, trial: int):
    return ensembles.sample_tridiagonal(cfg.n, cfg.ell, cfg.law(), entropy.SeedScheme(cfg.master_seed), trial)


def _emitting_op(cfg, base: Path, check_trial, known_fault: bool, in_p50: bool) -> Operation:
    """harness.run, then emit to CSV and JSON; every trial is checked with check_trial(cfg, trial)."""

    def call():
        record = harness.run(cfg)
        return record, harness.emit(record, base)

    def check(result):
        record, paths = result
        emitted = checks.check_emitted(record, *paths)
        items = _trial_problems(record)
        for t, problems in zip(record.trials, items):
            if t.status == "ok":
                problems += check_trial(cfg, t)
            problems += emitted
        return items

    return Operation(cfg.experiment, call, check, known_fault, in_p50)


CHAIN_POINTS = ((0.0, 0.1), (0.5, 0.5), (2.0, 0.1))
# The near-singular slice: smoothing exponent C = 20 makes each 3 x 3 B block
# a sign matrix plus a 3**-20 perturbation. Its inputs do not depend on the
# benchmark seed, so the number of wrong values repeats exactly.
SLICE = dict(n=6, ell=3, law_kind="smoothed-rademacher", smoothing_exponent=20.0, trials=10, master_seed=0)


class TransferLogpot(Workload):
    """logdet-limit at n = ell = 48, complex Gaussian, z = 0 then z = 2, then a desk-size tail.

    The tail runs every other harness experiment at desk sizes, the
    near-singular slice and solve_chain, so that every layer is exercised;
    it takes about an eighth of a round. Every harness record is emitted.
    """

    name = "transfer-logpot"
    size = 48
    trials = 3
    shifts = (0.0, 2.0)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.dense_checked = set()

    def configs(self, index):
        """(config, trial check, known fault) for each harness experiment of a round."""
        pos = itertools.count()

        def cfg(experiment, **fields):
            fields.setdefault("master_seed", self.master_seed(index, next(pos)))
            return harness.ExperimentConfig(experiment, **fields)

        big = dict(n=self.size, ell=self.size, law_kind="complex-gaussian", trials=self.trials)
        out = [(cfg("logdet-limit", z=complex(z), **big), self._check_logpot, False) for z in self.shifts]
        out.append((cfg("logdet-identity", **SLICE), _check_desk, True))
        out += [
            (c, _check_desk, False)
            for c in (
                cfg("lsv-tail", n=6, ell=4, z=0.5 + 0j, trials=2),
                cfg("rigidity", n=6, ell=4, z=0.5 + 0j, law_kind="real-gaussian", trials=2),
                cfg("mde-compare", n=4, ell=4, z=0.5 + 0j, xi=2 + 1j, trials=2),
                cfg("concentration", n=6, ell=4, z=0.5 + 0j, law_kind="real-uniform", trials=2),
                cfg("ginibre", n=24, ell=1, trials=2),
                cfg("esd", n=6, ell=4, law_kind="real-gaussian", trials=2),
                cfg("logdet-limit", n=6, ell=4, z=0.5 + 0.5j, law_kind="smoothed-rademacher", trials=2),
            )
        ]
        return out

    def round(self, index):
        # Each record goes to a fresh file, as in a sweep. Rewriting one file
        # in place makes ext4 flush it on close, which puts disk waits into
        # the timing. The previous round's files are removed here, untimed.
        shutil.rmtree(self.out_dir / f"round-{index - 1}", ignore_errors=True)
        # Only the n = ell = 48 calls count toward the median call time; the
        # tail's many short calls would otherwise set it.
        ops = [
            _emitting_op(cfg, self.out_dir / f"round-{index}" / f"{pos:03d}-{cfg.experiment}", check_trial, known_fault, pos < len(self.shifts))
            for pos, (cfg, check_trial, known_fault) in enumerate(self.configs(index))
        ]
        for z, eta in CHAIN_POINTS:
            w = complex(0.0, eta)
            ops.append(Operation("solve_chain", lambda w=w, z=z: mde.solve_chain(64, w, z), lambda ch, w=w, z=z: [checks.check_chain(ch, w, z)], in_p50=False))
        return ops

    def _check_logpot(self, cfg, t):
        if cfg.z not in self.dense_checked:
            # One dense slogdet per shift and run: a 2304 x 2304 complex LU costs
            # about 1 s, so it runs after the timed loop and the memory reading.
            self.dense_checked.add(cfg.z)
            value = t.values["normalized_logdet"] * cfg.n * cfg.ell
            self.deferred.append(lambda: checks.check_transfer_logdet(value, _plain_model(cfg, t.index), cfg.z))
        return checks.check_potential(t.values["normalized_logdet"], cfg.z)


class DenseEsd(Workload):
    """Sample plus esd on real Gaussian instances at n = 50, ell = 20 (1000 x 1000)."""

    name = "dense-esd"
    n, ell = 50, 20
    law = entropy.AtomLaw("real-gaussian")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.clouds = []
        # Criterion 06 bounds apply to the eigenvalue cloud pooled over the run:
        # one 1000-point cloud falls below the 0.95 disk fraction about once in
        # 500 instances, the pooled cloud of a run practically never.
        self.deferred.append(lambda: checks.check_disk_bounds(np.concatenate(self.clouds)))

    def round(self, index):
        seed = self.master_seed(index, 0)

        def call():
            m = self.sample(seed)
            return m, spectra.esd(m)

        return [Operation("esd", call, lambda res: self._check(seed, res))]

    def sample(self, seed):
        return ensembles.sample_tridiagonal(self.n, self.ell, self.law, entropy.SeedScheme(seed), 0)

    def _check(self, seed, result):
        m, summary = result
        if any(np.any(np.imag(b) != 0) for b in (*m.diag, *m.upper, *m.lower)):
            return [["real law produced a complex entry"]]
        ev = summary.eigenvalues
        self.clouds.append(ev)
        # The dense checks assemble their own 16 MB complex matrix, so they run
        # after the timed loop and the memory reading, on a fresh sample of the
        # same instance: the program's peak memory is what peak_rss_mb shows.
        self.deferred.append(lambda: self._check_dense(seed, ev))
        return [checks.check_disk_stats(ev, summary.fraction_in_unit_disk, summary.radial_cdf_distance)]

    def _check_dense(self, seed, ev):
        m = self.sample(seed)
        return checks.check_eigenvalues(ev, checks.dense_plain(m.diag, m.upper, m.lower).real, real_law=True)


def _check_desk(cfg, t) -> list:
    """Recompute one trial of a desk-size experiment apart from the program."""
    trial, v = t.index, t.values
    exp, z = cfg.experiment, cfg.z
    scheme = entropy.SeedScheme(cfg.master_seed)
    if exp == "ginibre":
        a = entropy.sample_atoms(cfg.law(), scheme.stream(trial, 0, "square-iid"), (cfg.n, cfg.n), ell=cfg.n)
        ref = checks.slogdet_abs(a / math.sqrt(3.0 * cfg.n))
        err = checks.rel_error(v["normalized_logdet"] * cfg.n, ref)
        return [] if err <= checks.LOGDET_RTOL else [f"ginibre logdet rel error {err:.3e}"]
    if exp == "mde-compare":
        ens = ensembles.sample_periodic(cfg.n, cfg.ell, cfg.law(), scheme, trial)
        bulk = mde.solve_mc(cfg.xi, z)
        return checks.check_mde_compare(v, checks.dense_periodic(ens, z), cfg.xi, z, bulk)
    m = _plain_model(cfg, trial)
    if exp == "logdet-identity":
        return checks.check_transfer_logdet(v["transfer_logdet"], m, z) + checks.check_transfer_logdet(v["dense_logdet"], m, z)
    if exp == "logdet-limit":
        return checks.check_transfer_logdet(v["normalized_logdet"] * m.size, m, z)
    if exp == "concentration":
        return checks.check_projected_growth(v["normalized_projected_growth"] * m.size, m, z)
    if exp == "esd":
        return checks.check_esd_from_dense(checks.dense_plain(m.diag, m.upper, m.lower), v["fraction_in_unit_disk"], v["radial_cdf_distance"])
    if exp == "rigidity":
        return checks.check_rigidity(v["rigidity_count"], checks.dense_plain(m.diag, m.upper, m.lower, z), cfg.ell ** (-0.1))
    if exp == "lsv-tail":
        rng = scheme.stream(trial, 0, "frames")
        bordered = ensembles.build_bordered(m, ensembles.random_exit_frame(cfg.ell, rng), ensembles.random_entry_frame(cfg.ell, rng))
        return checks.check_least_singular_value(v["least_singular_value"], checks.dense_bordered(bordered, z))
    return [f"no check for experiment {exp}"]


WORKLOADS = {w.name: w for w in (TransferLogpot, DenseEsd)}
