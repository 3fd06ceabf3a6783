"""Experiment harness: one registry of per-trial kernels, one config definition,
trial orchestration, CSV/JSON output and the CLI.

Library callers and the CLI take the same path: ``run(ExperimentConfig(...))``
returns a record whose ``aggregates`` summarize each column over the ok trials
with finite values, and count (``nonfinite``) the ok trials left out.

Every trial is a pure function of (config, trial index), so records are
reproducible under a fixed master seed. Each record also names the numpy,
scipy and BLAS it ran with, the BLAS thread settings, the thread count in
force in scipy's OpenBLAS and the usable cores. A trial that raises a
`NumericsError` is recorded as failed, with NaN values, not fatal to the batch.
Kernels look library functions up in this module's globals at call time, so
a tracer that patches module attributes sees every call.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import time
from dataclasses import Field, asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .entropy import ATOM_KINDS, AtomLaw, SeedScheme, sample_atoms
from .mde import solve_mc
from .model import (
    DEFAULT_DENSE_CAP,
    LazyTridiagonal,
    build_bordered,
    random_entry_frame,
    random_exit_frame,
    sample_periodic,
    sample_tridiagonal,
    to_dense,
)
from .numerics import EIGVALS_CAP, NumericsError, lu_logdet
from .spectra import (
    empirical_stieltjes,
    esd,
    least_singular_value,
    rigidity_count,
    singular_values,
)
from .transfer import logdet_via_transfer, projected_growth_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class ConfigError(ValueError):
    pass


# Per-trial kernels: each returns the values of its experiment's columns, in
# column order.


def _lazy(config: ExperimentConfig, trial: int) -> LazyTridiagonal:
    return LazyTridiagonal(config.n, config.ell, config.law(), config.master_seed, trial)


def _logdet_identity(config: ExperimentConfig, trial: int) -> tuple:
    # Both sides read the instance, so it is drawn once and kept.
    model = sample_tridiagonal(config.n, config.ell, config.law(), config.master_seed, trial)
    via_transfer = logdet_via_transfer(model, config.z)
    dense = lu_logdet(to_dense(model, config.z, config.max_dense), overwrite_a=True)
    return via_transfer, dense, abs(via_transfer - dense) / max(1.0, abs(dense))


def _logdet_limit(config: ExperimentConfig, trial: int) -> tuple:
    model = _lazy(config, trial)
    return (logdet_via_transfer(model, config.z) / model.size,)


def _esd(config: ExperimentConfig, trial: int) -> tuple:
    summary = esd(_lazy(config, trial), cap=min(config.max_dense, EIGVALS_CAP))
    return summary.fraction_in_unit_disk, summary.radial_cdf_distance


def _lsv_tail(config: ExperimentConfig, trial: int) -> tuple:
    model = _lazy(config, trial)
    rng = SeedScheme(config.master_seed).stream(trial, 0, "frames")
    bordered = build_bordered(model, random_exit_frame(config.ell, rng), random_entry_frame(config.ell, rng))
    return (least_singular_value(bordered, config.z, config.max_dense),)


def _rigidity(config: ExperimentConfig, trial: int) -> tuple:
    measure = singular_values(_lazy(config, trial), config.z, config.max_dense)
    threshold = config.threshold if config.threshold is not None else config.ell ** (-0.1)
    return (float(rigidity_count(measure, threshold)),)


def _mde_compare(config: ExperimentConfig, trial: int) -> tuple:
    ens = sample_periodic(config.n, config.ell, config.law(), config.master_seed, trial)
    mhat = empirical_stieltjes(singular_values(ens, config.z, config.max_dense), config.xi)
    return mhat.real, mhat.imag, abs(mhat - solve_mc(config.xi, config.z))


def _concentration(config: ExperimentConfig, trial: int) -> tuple:
    model = _lazy(config, trial)
    return (projected_growth_log(model, config.z) / model.size,)


def _ginibre(config: ExperimentConfig, trial: int) -> tuple:
    rng = SeedScheme(config.master_seed).stream(trial, 0, "square-iid")
    a = sample_atoms(config.law(), rng, (config.n, config.n), ell=config.n)
    return (lu_logdet(a / math.sqrt(3.0 * config.n)) / config.n,)


# name -> (record columns, kernel(config, trial) -> column values)
EXPERIMENTS = {
    "logdet-identity": (("transfer_logdet", "dense_logdet", "rel_error"), _logdet_identity),
    "logdet-limit": (("normalized_logdet",), _logdet_limit),
    "esd": (("fraction_in_unit_disk", "radial_cdf_distance"), _esd),
    "lsv-tail": (("least_singular_value",), _lsv_tail),
    "rigidity": (("rigidity_count",), _rigidity),
    "mde-compare": (("mhat_re", "mhat_im", "deviation"), _mde_compare),
    "concentration": (("normalized_projected_growth",), _concentration),
    "ginibre": (("normalized_logdet",), _ginibre),
}


@dataclass
class ExperimentConfig:
    """One experiment; every field is a config-file key and a CLI flag.

    Both are named after the field unless its metadata gives a `key` or a
    `flag`. A complex field is set by two keys, ``<key>_re`` and ``<key>_im``.
    """

    experiment: str = field(metadata={"choices": tuple(EXPERIMENTS)})
    n: int = 8
    ell: int = 8
    z: complex = 0j
    law_kind: str = field(default="complex-gaussian", metadata={"key": "law", "choices": ATOM_KINDS})
    smoothing_exponent: float = 1.0
    trials: int = 1
    master_seed: int = field(default=0, metadata={"flag": "--seed"})
    max_dense: int = DEFAULT_DENSE_CAP
    out: str | None = field(default=None, metadata={"echo": False})
    xi: complex = 2 + 1j
    threshold: float | None = None

    def law(self) -> AtomLaw:
        return AtomLaw(self.law_kind, self.smoothing_exponent)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for name, value in vars(self).items():
            if isinstance(value, (float, complex)) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.n < 1 or self.ell < 1:
            raise ConfigError("dimensions must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.max_dense < 1:
            raise ConfigError("max_dense must be >= 1")
        try:
            self.law()
            SeedScheme(self.master_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.threshold is not None and self.threshold < 0:
            raise ConfigError("threshold must be nonnegative")
        if self.experiment == "mde-compare" and complex(self.xi).imag <= 0:
            raise ConfigError("xi must lie in the upper half plane")
        if self.experiment == "mde-compare" and self.n < 3:
            raise ConfigError("mde-compare needs n >= 3 for distinct periodic corners")

    def echo(self) -> dict:
        return {key.name: key.get(self) for key in KEYS if key.field.metadata.get("echo", True)}


def _integer(raw) -> int:
    """int(raw), refusing a bool and a fraction that int() would truncate."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(raw)


def _real(raw) -> float:
    """float(raw), refusing a bool."""
    if isinstance(raw, bool):
        raise ValueError(f"{raw!r} is not a number")
    return float(raw)


# Parser of each ExperimentConfig annotation; a complex field parses each part.
_PARSERS = {
    "str": str, "int": _integer, "float": _real, "complex": _real, "str | None": str, "float | None": _real
}


class ConfigKey(NamedTuple):
    """One settable value: its config-file key, its CLI flag and the field it sets."""

    name: str
    flag: str
    field: Field
    part: str | None = None

    def get(self, config: ExperimentConfig):
        value = getattr(config, self.field.name)
        return getattr(value, self.part) if self.part else value

    def set(self, config: ExperimentConfig, raw) -> None:
        """Parse and store one value; a complex part leaves the other part as it is."""
        try:
            value = None if raw is None and self.field.default is None else _PARSERS[self.field.type](raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {self.name}: {exc}") from None
        if self.part:
            old = complex(getattr(config, self.field.name))
            value = complex(value, old.imag) if self.part == "real" else complex(old.real, value)
        setattr(config, self.field.name, value)


def _config_keys():
    for f in fields(ExperimentConfig):
        name = f.metadata.get("key", f.name)
        flag = f.metadata.get("flag", "--" + name.replace("_", "-"))
        if f.type == "complex":
            yield ConfigKey(name + "_re", flag + "-re", f, "real")
            yield ConfigKey(name + "_im", flag + "-im", f, "imag")
        else:
            yield ConfigKey(name, flag, f)


KEYS = tuple(_config_keys())


@dataclass
class TrialResult:
    index: int
    seed: int
    values: dict
    status: str = "ok"
    error: str | None = None


def _blas_threads() -> int | None:
    """The thread count in force in scipy's OpenBLAS; None where its library or symbol is not found."""
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return int(get())
    return None


def _blas_environment() -> dict:
    """The libraries and thread settings that a record's timings and last bits depend on."""
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "usable_cores": cores,
    }


@dataclass
class ResultRecord:
    config: dict
    columns: list
    trials: list
    aggregates: dict
    wall_time_s: float
    version: str = __version__
    environment: dict = field(default_factory=_blas_environment)

    def to_jsonable(self) -> dict:
        return asdict(self) | {"columns": list(self.columns)}


def _aggregate(columns, trials) -> dict:
    out = {}
    for col in columns:
        vals = np.array([t.values[col] for t in trials if t.status == "ok"], dtype=np.float64)
        finite = np.isfinite(vals)
        # An ok trial may read -inf (a singular instance); it is counted here, not summarized.
        nonfinite = int(vals.size - np.count_nonzero(finite))
        vals = vals[finite]
        if vals.size == 0:
            out[col] = {"count": 0, "nonfinite": nonfinite}
            continue
        agg = {
            "count": int(vals.size),
            "nonfinite": nonfinite,
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
        for q, v in zip(_QUANTILES, np.quantile(vals, _QUANTILES)):
            agg[f"p{int(q * 100):02d}"] = float(v)
        out[col] = agg
    return out


def run(config: ExperimentConfig) -> ResultRecord:
    """Run all trials of one experiment; deterministic given the master seed."""
    config.validate()
    columns, kernel = EXPERIMENTS[config.experiment]
    scheme = SeedScheme(config.master_seed)
    start = time.perf_counter()

    trials = []
    for trial in range(config.trials):
        try:
            values, status, error = dict(zip(columns, kernel(config, trial), strict=True)), "ok", None
        except NumericsError as exc:
            values, status, error = {col: float("nan") for col in columns}, "failed", str(exc)
        trials.append(TrialResult(trial, scheme.trial_seed(trial), values, status, error))
    wall = time.perf_counter() - start
    return ResultRecord(config.echo(), list(columns), trials, _aggregate(columns, trials), wall)


def emit(record: ResultRecord, out_base) -> list:
    """Write ``<out_base>.csv`` (one row per trial) and ``<out_base>.json`` (the full record)."""
    base = Path(out_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = Path(f"{base}.csv"), Path(f"{base}.json")
    lines = [",".join(["trial", "seed"] + list(record.columns) + ["status"])]
    for t in record.trials:
        cells = [str(t.index), str(t.seed)]
        cells += [repr(float(t.values[c])) for c in record.columns]
        cells.append(t.status)
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(record.to_jsonable(), indent=2, allow_nan=True) + "\n")
    return [csv_path, json_path]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blocktri", description="Block tridiagonal ensemble experiments")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    for key in KEYS:
        p.add_argument(key.flag, dest=key.name, choices=key.field.metadata.get("choices"))
    return p


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    keys = {key.name: key for key in KEYS}
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "experiment" not in data:
        raise ConfigError("config needs an experiment")
    config = ExperimentConfig(experiment=data["experiment"])
    for name, value in data.items():
        keys[name].set(config, value)
    return config


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    path = args.pop("config")
    try:
        data = json.loads(Path(path).read_text()) if path else {}
        flags = {name: value for name, value in args.items() if value is not None}
        config = config_from_dict(data | flags if isinstance(data, dict) else data)
        config.validate()
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG

    record = run(config)
    out_base = config.out or f"blocktri-{config.experiment}"
    paths = emit(record, out_base)
    failed = sum(1 for t in record.trials if t.status != "ok")
    for col, agg in record.aggregates.items():
        if agg.get("count"):
            print(f"{col}: mean={agg['mean']:.6g} std={agg['std']:.6g} n={agg['count']}")
    print(f"wrote {', '.join(str(p) for p in paths)} ({failed} failed trials)")
    return EXIT_PARTIAL if failed else EXIT_OK

