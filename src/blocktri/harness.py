"""Experiment harness: declarative configs, trial orchestration, CSV/JSON output.

Every trial is a pure function of (config, trial index), so records are
reproducible under a fixed master seed regardless of the worker count.
Failed trials are recorded with NaN values instead of aborting the batch.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import ATOM_KINDS, AtomLaw, SeedScheme, sample_atoms
from .mde import MdeConvergenceError, solve_mc
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

EXPERIMENTS = (
    "logdet-identity",
    "logdet-limit",
    "esd",
    "lsv-tail",
    "rigidity",
    "mde-compare",
    "concentration",
    "ginibre",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 8
    ell: int = 8
    z: complex = 0j
    law_kind: str = "complex-gaussian"
    smoothing_exponent: float = 1.0
    trials: int = 1
    master_seed: int = 0
    tol: float = 1e-8
    max_dense: int = DEFAULT_DENSE_CAP
    out: str | None = None
    workers: int = 1
    xi: complex = 2 + 1j
    threshold: float | None = None
    extra: dict = field(default_factory=dict)

    def law(self) -> AtomLaw:
        return AtomLaw(self.law_kind, self.smoothing_exponent)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n < 1 or self.ell < 1:
            raise ConfigError("dimensions must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.law_kind not in ATOM_KINDS:
            raise ConfigError(f"unknown atom law {self.law_kind!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.experiment == "mde-compare" and complex(self.xi).imag <= 0:
            raise ConfigError("xi must lie in the upper half plane")

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "n": self.n,
            "ell": self.ell,
            "z_re": self.z.real,
            "z_im": self.z.imag,
            "law": self.law_kind,
            "smoothing_exponent": self.smoothing_exponent,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "tol": self.tol,
            "max_dense": self.max_dense,
            "workers": self.workers,
            "xi_re": complex(self.xi).real,
            "xi_im": complex(self.xi).imag,
            "threshold": self.threshold,
            "extra": self.extra,
        }


@dataclass
class TrialResult:
    index: int
    seed: int
    values: dict
    status: str = "ok"
    error: str | None = None


@dataclass
class ResultRecord:
    config: dict
    columns: list
    trials: list
    aggregates: dict
    wall_time_s: float
    version: str = __version__

    def to_jsonable(self) -> dict:
        return {
            "config": self.config,
            "columns": list(self.columns),
            "trials": [
                {
                    "index": t.index,
                    "seed": t.seed,
                    "values": t.values,
                    "status": t.status,
                    "error": t.error,
                }
                for t in self.trials
            ],
            "aggregates": self.aggregates,
            "wall_time_s": self.wall_time_s,
            "version": self.version,
        }


def _columns(experiment: str) -> list:
    return {
        "logdet-identity": ["transfer_logdet", "dense_logdet", "rel_error"],
        "logdet-limit": ["normalized_logdet"],
        "esd": ["fraction_in_unit_disk", "radial_cdf_distance"],
        "lsv-tail": ["least_singular_value"],
        "rigidity": ["rigidity_count"],
        "mde-compare": ["mhat_re", "mhat_im", "deviation"],
        "concentration": ["normalized_projected_growth"],
        "ginibre": ["normalized_logdet"],
    }[experiment]


def _run_trial(config: ExperimentConfig, trial: int) -> dict:
    law = config.law()
    scheme = SeedScheme(config.master_seed)
    exp = config.experiment
    if exp == "logdet-identity":
        model = sample_tridiagonal(config.n, config.ell, law, scheme, trial)
        via_transfer = logdet_via_transfer(model, config.z)
        dense = lu_logdet(to_dense(model, config.z, config.max_dense)).log_magnitude
        rel = abs(via_transfer - dense) / max(1.0, abs(dense))
        return {"transfer_logdet": via_transfer, "dense_logdet": dense, "rel_error": rel}
    if exp == "logdet-limit":
        model = LazyTridiagonal(config.n, config.ell, law, config.master_seed, trial)
        return {"normalized_logdet": logdet_via_transfer(model, config.z) / model.size}
    if exp == "esd":
        model = sample_tridiagonal(config.n, config.ell, law, scheme, trial)
        summary = esd(model, cap=min(config.max_dense, EIGVALS_CAP))
        return {
            "fraction_in_unit_disk": summary.fraction_in_unit_disk,
            "radial_cdf_distance": summary.radial_cdf_distance,
        }
    if exp == "lsv-tail":
        model = sample_tridiagonal(config.n, config.ell, law, scheme, trial)
        rng = scheme.stream(trial, 0, "frames")
        bordered = build_bordered(model, random_exit_frame(config.ell, rng), random_entry_frame(config.ell, rng))
        return {"least_singular_value": least_singular_value(bordered, config.z, config.max_dense)}
    if exp == "rigidity":
        model = sample_tridiagonal(config.n, config.ell, law, scheme, trial)
        measure = singular_values(model, config.z, config.max_dense)
        threshold = config.threshold if config.threshold is not None else config.ell ** (-0.1)
        return {"rigidity_count": float(rigidity_count(measure, threshold))}
    if exp == "mde-compare":
        ens = sample_periodic(config.n, config.ell, law, scheme, trial)
        measure = singular_values(ens, config.z, config.max_dense)
        mhat = empirical_stieltjes(measure, config.xi)
        bulk = solve_mc(config.xi, config.z)
        return {"mhat_re": mhat.real, "mhat_im": mhat.imag, "deviation": abs(mhat - bulk)}
    if exp == "concentration":
        model = LazyTridiagonal(config.n, config.ell, law, config.master_seed, trial)
        return {"normalized_projected_growth": projected_growth_log(model, config.z) / model.size}
    if exp == "ginibre":
        a = sample_atoms(law, scheme.stream(trial, 0, "square-iid"), (config.n, config.n), ell=config.n)
        value = lu_logdet(a / math.sqrt(3.0 * config.n)).log_magnitude / config.n
        return {"normalized_logdet": value}
    raise ConfigError(f"unknown experiment {exp!r}")


def _aggregate(columns, trials) -> dict:
    out = {}
    for col in columns:
        vals = np.array([t.values[col] for t in trials if t.status == "ok"], dtype=np.float64)
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            out[col] = {"count": 0}
            continue
        agg = {
            "count": int(vals.size),
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
        for q in _QUANTILES:
            agg[f"p{int(q * 100):02d}"] = float(np.quantile(vals, q))
        out[col] = agg
    return out


def run(config: ExperimentConfig) -> ResultRecord:
    """Run all trials of one experiment; deterministic given the master seed."""
    config.validate()
    columns = _columns(config.experiment)
    scheme = SeedScheme(config.master_seed)
    start = time.perf_counter()

    def one(trial: int) -> TrialResult:
        label = scheme.trial_seed(trial)
        try:
            values = _run_trial(config, trial)
            return TrialResult(trial, label, values)
        except (NumericsError, np.linalg.LinAlgError, MdeConvergenceError) as exc:
            values = {col: float("nan") for col in columns}
            return TrialResult(trial, label, values, status="failed", error=str(exc))

    if config.workers == 1:
        trials = [one(t) for t in range(config.trials)]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.workers) as pool:
            trials = list(pool.map(one, range(config.trials)))
    wall = time.perf_counter() - start
    return ResultRecord(config.echo(), columns, trials, _aggregate(columns, trials), wall)


def emit(record: ResultRecord, out_base, formats=("csv", "json")) -> list:
    """Write the record; CSV carries one row per trial, JSON the full record."""
    base = Path(out_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = base.with_suffix(".csv")
        lines = [",".join(["trial", "seed"] + list(record.columns) + ["status"])]
        for t in record.trials:
            cells = [str(t.index), str(t.seed)]
            cells += [repr(float(t.values[c])) for c in record.columns]
            cells.append(t.status)
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    if "json" in formats:
        path = base.with_suffix(".json")
        path.write_text(json.dumps(record.to_jsonable(), indent=2, allow_nan=True) + "\n")
        written.append(path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blocktri", description="Block tridiagonal ensemble experiments")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--z-re", type=float)
    p.add_argument("--z-im", type=float)
    p.add_argument("--law", choices=ATOM_KINDS)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-dense", type=int)
    p.add_argument("--workers", type=int)
    return p


def load_config(path) -> ExperimentConfig:
    data = json.loads(Path(path).read_text())
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    known = {
        "experiment",
        "n",
        "ell",
        "z_re",
        "z_im",
        "law",
        "smoothing_exponent",
        "trials",
        "master_seed",
        "tol",
        "max_dense",
        "out",
        "workers",
        "xi_re",
        "xi_im",
        "threshold",
        "extra",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "experiment" not in data:
        raise ConfigError("config needs an experiment")
    cfg = ExperimentConfig(experiment=data["experiment"])
    cfg.n = int(data.get("n", cfg.n))
    cfg.ell = int(data.get("ell", cfg.ell))
    cfg.z = complex(float(data.get("z_re", 0.0)), float(data.get("z_im", 0.0)))
    cfg.law_kind = data.get("law", cfg.law_kind)
    cfg.smoothing_exponent = float(data.get("smoothing_exponent", cfg.smoothing_exponent))
    cfg.trials = int(data.get("trials", cfg.trials))
    cfg.master_seed = int(data.get("master_seed", cfg.master_seed))
    cfg.tol = float(data.get("tol", cfg.tol))
    cfg.max_dense = int(data.get("max_dense", cfg.max_dense))
    cfg.out = data.get("out", cfg.out)
    cfg.workers = int(data.get("workers", cfg.workers))
    cfg.xi = complex(float(data.get("xi_re", 2.0)), float(data.get("xi_im", 1.0)))
    cfg.threshold = data.get("threshold", cfg.threshold)
    if cfg.threshold is not None:
        cfg.threshold = float(cfg.threshold)
    cfg.extra = dict(data.get("extra", {}))
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
        elif args.experiment:
            config = ExperimentConfig(experiment=args.experiment)
        else:
            raise ConfigError("need --config or --experiment")
        overrides = {
            "experiment": args.experiment,
            "n": args.n,
            "ell": args.ell,
            "trials": args.trials,
            "master_seed": args.seed,
            "tol": args.tol,
            "max_dense": args.max_dense,
            "out": args.out,
            "workers": args.workers,
            "law_kind": args.law,
        }
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        if args.z_re is not None or args.z_im is not None:
            config.z = complex(args.z_re or 0.0, args.z_im or 0.0)
        config.validate()
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
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


if __name__ == "__main__":
    raise SystemExit(main())
